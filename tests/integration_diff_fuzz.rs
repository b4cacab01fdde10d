//! Differential fuzzing of the frontend/engine pipeline: random
//! well-formed `tempo-lang` models are elaborated through the real
//! frontend (render → parse → build) and the same question is answered
//! by independent engines, routed through the analysis service at
//! 1–4 workers. Any disagreement is a bug in a translation, an engine,
//! or the service — the point of the paper's "single formalism,
//! multiple solutions" philosophy as a fuzzing oracle.
//!
//! Cross-checks per generated model, every engine on the one
//! `to_network` lowering:
//! * reachability: symbolic TA vs the generator's own ground truth;
//! * probability: `mcpta` (digital-clocks MDP, exact) `Pmax` vs
//!   reachability and vs the statistical checker's Wilson interval,
//!   which must contain it;
//! * service determinism: both worker counts must render bit-identical
//!   verdicts.

use proptest::{proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use tempo_core::lang::ast::Formula;
use tempo_core::lang::{build, lower_formula_network, parse, to_network};
use tempo_core::mdp::Opt;
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::smc::RatePolicy;
use tempo_core::svc::{AnalysisService, JobKind, JobRequest, JobVerdict, ServiceConfig};

/// A generated chain-handshake model plus its ground truth.
struct Case {
    source: String,
    /// Whether `P.Done` is reachable (the receiver chain is complete).
    reachable: bool,
    /// A per-run time bound that surely covers a complete chain.
    smc_bound: f64,
}

/// Builds a sender/receiver chain over `k` channels with per-step
/// deadlines (`inv {x <= d}`) and guards (`when {x >= g}`, `g <= d`).
/// With probability ~0.3 the receiver chain is truncated by one step,
/// making the sender's final state unreachable — the ground truth every
/// engine must agree on.
fn gen_case(rng: &mut StdRng) -> Case {
    let k = rng.gen_range(1..=3usize);
    let channels = &["a", "b", "c"][..k];
    let broken = k > 1 && rng.gen_bool(0.3);
    let mut src = String::new();
    let _ = writeln!(src, "channel {}", channels.join(", "));
    let _ = writeln!(src, "clock x");
    let mut total_deadline = 0i64;

    // Sender: P -> S1 -> ... -> Done, one step per channel.
    for (i, ch) in channels.iter().enumerate() {
        let name = if i == 0 {
            "P".to_owned()
        } else {
            format!("S{i}")
        };
        let next = if i + 1 == k {
            "Done".to_owned()
        } else {
            format!("S{}", i + 1)
        };
        let d = rng.gen_range(1..=4i64);
        total_deadline += d;
        let g = rng.gen_range(0..=d);
        let guard = if g > 0 {
            format!("when {{x >= {g}}} ")
        } else {
            String::new()
        };
        let _ = writeln!(
            src,
            "process {name} = inv {{x <= {d}}} {guard}{ch}! {{x := 0}} -> {next}"
        );
    }
    let _ = writeln!(src, "process Done = STOP");

    // Receiver: Q -> T1 -> ... -> STOP. The broken variant crosses the
    // last two receives (every channel keeps both endpoints, but the
    // crossed order deadlocks the chain before the sender's final step).
    let mut order: Vec<&str> = channels.to_vec();
    if broken {
        order.swap(k - 2, k - 1);
    }
    for (i, ch) in order.iter().enumerate() {
        let name = if i == 0 {
            "Q".to_owned()
        } else {
            format!("T{i}")
        };
        let next = if i + 1 == k {
            "STOP".to_owned()
        } else {
            format!("T{}", i + 1)
        };
        let _ = writeln!(src, "process {name} = {ch}? -> {next}");
    }

    let _ = writeln!(src, "\nsystem P || {{{}}} Q", channels.join(", "));
    Case {
        source: src,
        reachable: !broken,
        #[allow(clippy::cast_precision_loss)]
        smc_bound: (total_deadline + 5) as f64,
    }
}

fn submit(svc: &AnalysisService, kind: JobKind) -> JobVerdict {
    svc.submit(JobRequest {
        tenant: "fuzz".to_owned(),
        priority: 0,
        budget: Budget::unlimited(),
        kind,
    })
    .expect("admitted")
    .wait()
    .expect("job succeeds")
    .verdict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine-vs-engine agreement on 48 generated models.
    #[test]
    fn engines_agree_on_generated_models(seed in 0u64..1_000_000u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = gen_case(&mut rng);
        let model = parse(&case.source).unwrap_or_else(|e| {
            panic!("generated model must parse: {e}\n{}", case.source)
        });
        let set = build(&model).unwrap_or_else(|e| {
            panic!("generated model must elaborate: {e}\n{}", case.source)
        });
        let goal = Formula::AtLoc(
            tempo_core::lang::ast::Ident::new("P"),
            tempo_core::lang::ast::Ident::new("Done"),
        );

        // Substrates, exactly as the CLI builds them.
        let net = Arc::new(to_network(&set).expect("network substrate"));
        let net_goal = lower_formula_network(&set, &net, &goal).expect("network goal");

        // Two services with different worker counts; verdicts must be
        // bit-identical across them.
        let w = 1 + (seed % 4) as usize;
        let services = [
            AnalysisService::new(ServiceConfig { workers: w, ..ServiceConfig::default() }),
            AnalysisService::new(ServiceConfig { workers: 1 + (w % 4), ..ServiceConfig::default() }),
        ];
        let mut rendered: Vec<Vec<String>> = Vec::new();
        for svc in &services {
            // 1. Symbolic TA reachability on the direct translation.
            let ta = submit(svc, JobKind::Reach {
                net: Arc::clone(&net),
                goal: net_goal.clone(),
                explore: ExploreConfig::default(),
            });
            // 2. Exact Pmax on the digital-clocks MDP.
            let mcpta = submit(svc, JobKind::McptaReach {
                pta: Arc::clone(&net),
                opt: Opt::Max,
                goal: net_goal.clone(),
                epsilon: 1e-9,
            });
            // 3. Statistical estimation under the stochastic semantics.
            let smc = submit(svc, JobKind::Probability {
                net: Arc::clone(&net),
                rates: RatePolicy::new(),
                seed,
                goal: net_goal.clone(),
                bound: case.smc_bound,
                runs: 200,
                confidence: 0.95,
            });

            let JobVerdict::Reachable(ta_reach) = ta else {
                panic!("ta job returned {ta:?}")
            };
            let JobVerdict::McptaValue(pmax) = mcpta else {
                panic!("mcpta job returned {mcpta:?}")
            };
            let JobVerdict::Probability(est) = &smc else {
                panic!("smc job returned {smc:?}")
            };

            assert_eq!(
                ta_reach, case.reachable,
                "ta engine disagrees with ground truth\n{}", case.source
            );
            // With no probabilistic branching Pmax is exactly 0 or 1 and
            // must match reachability ...
            let expected = if case.reachable { 1.0 } else { 0.0 };
            assert!(
                (pmax - expected).abs() < 1e-6,
                "mcpta Pmax {pmax} disagrees with reachability {}\n{}",
                case.reachable, case.source
            );
            // ... and the statistical Wilson interval must contain it.
            assert!(
                est.lower - 1e-9 <= pmax && pmax <= est.upper + 1e-9,
                "mcpta Pmax {pmax} outside smc interval [{}, {}] ({}/{} runs)\n{}",
                est.lower, est.upper, est.successes, est.runs, case.source
            );

            rendered.push(vec![
                JobVerdict::Reachable(ta_reach).render(),
                JobVerdict::McptaValue(pmax).render(),
                smc.render(),
            ]);
        }
        assert_eq!(
            rendered[0], rendered[1],
            "verdicts differ across worker counts\n{}", case.source
        );
        for svc in services {
            svc.shutdown();
        }
    }
}
