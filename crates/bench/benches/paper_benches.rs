//! Criterion benchmarks reproducing the cost of every experiment in the
//! paper's evaluation (see EXPERIMENTS.md for the experiment index):
//!
//! * `e1_train_gate_verification` — §II.A(a): safety/deadlock checks;
//! * `e2_tiga_synthesis`          — §II.A(b)/Figs. 2–3: game solving;
//! * `e3_smc_cdf`                 — §II.A(c)/Fig. 4: CDF estimation;
//! * `e4_brp_table1`              — §III.A/Table I: mctau vs mcpta vs modes;
//! * `e5_bip_engine`              — §IV: DALA exploration/D-Finder/synthesis;
//! * `e6_ioco_generation`         — §V: test generation and campaigns;
//! * `a1_ablation_extrapolation`  — zone extrapolation on/off;
//! * `a2_ablation_mdp`            — SCC-order vs interval vs bounded solves;
//! * `a3_ablation_smc`            — estimation cost vs run budget.

// `criterion_group!` expands to undocumented plumbing functions.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempo_core::bip::{check_deadlock_freedom_governed, synthesize_safety_controller};
use tempo_core::ioco::{LtsIut, TestGenerator};
use tempo_core::mdp::{bounded_reachability_governed, reachability_governed, Opt};
use tempo_core::modest::{Mctau, Modes, Scheduler};
use tempo_core::obs::Budget;
use tempo_core::smc::StatisticalChecker;
use tempo_core::ta::{Explorer, ModelChecker};
use tempo_core::tiga::GameSolver;
use tempo_models::brp::brp;
use tempo_models::dala::dala;
use tempo_models::vending::{dispenser_good, dispenser_spec};
use tempo_models::{train_gate, train_gate_game};

fn e1_train_gate_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_train_gate_verification");
    group.sample_size(10);
    for n in [2_usize, 3] {
        group.bench_with_input(BenchmarkId::new("safety", n), &n, |b, &n| {
            b.iter(|| {
                let tg = train_gate(n);
                let mut mc = ModelChecker::new(&tg.net);
                let (v, _) = mc
                    .try_always_governed(&tg.safety(), &Budget::unlimited())
                    .expect("in-memory state store")
                    .into_value();
                assert!(v.holds());
            });
        });
        group.bench_with_input(BenchmarkId::new("deadlock_free", n), &n, |b, &n| {
            b.iter(|| {
                let tg = train_gate(n);
                let mut mc = ModelChecker::new(&tg.net);
                let (v, _) = mc.deadlock_free();
                assert!(v.holds());
            });
        });
    }
    group.finish();
}

fn e2_tiga_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_tiga_synthesis");
    group.sample_size(10);
    group.bench_function("safety_game_n2", |b| {
        b.iter(|| {
            let g = train_gate_game(2);
            let solver = GameSolver::new(&g.net);
            let res = solver
                .solve_safety_governed(&g.collision(), &Budget::unlimited())
                .into_value();
            assert!(res.winning);
        });
    });
    group.finish();
}

fn e3_smc_cdf(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_smc_cdf");
    group.sample_size(10);
    for runs in [100_usize, 400] {
        group.bench_with_input(BenchmarkId::new("cdf_train0", runs), &runs, |b, &runs| {
            let tg = train_gate(3);
            b.iter(|| {
                let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 1);
                let cdf = smc
                    .cdf_governed(&tg.cross(0), 100.0, runs, &Budget::unlimited())
                    .into_value();
                assert!(cdf.hits() > 0);
            });
        });
    }
    group.finish();
}

fn e4_brp_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_brp_table1");
    group.sample_size(10);
    group.bench_function("mctau_invariants_n4", |b| {
        let model = brp(4, 2, 1);
        b.iter(|| {
            let mctau = Mctau::new(&model.pta);
            assert!(mctau
                .check_invariant_governed(&model.ta1(), &Budget::unlimited())
                .into_value());
        });
    });
    group.bench_function("mcpta_p1_n4", |b| {
        let model = brp(4, 2, 1);
        b.iter(|| {
            let mc = model.mcpta(0, 5_000_000);
            let p1 = mc
                .reach_quantitative(Opt::Max, &model.p1_goal(), &Budget::unlimited())
                .into_value()
                .initial_value;
            assert!(p1 > 0.0);
        });
    });
    group.bench_function("modes_1k_runs_n4", |b| {
        let model = brp(4, 2, 1);
        b.iter(|| {
            let mut modes = Modes::new(&model.pta, &[], Scheduler::Alap, 5);
            let done = model.done();
            let obs = modes
                .observe_governed(
                    1000,
                    400,
                    100_000,
                    |exp, run| run.first_hit(exp, &done).is_some(),
                    &Budget::unlimited(),
                )
                .into_value();
            assert_eq!(obs.observations, 1000);
        });
    });
    group.finish();
}

fn e5_bip_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_bip_engine");
    group.bench_function("dala_reachability", |b| {
        let d = dala();
        b.iter(|| {
            let states = d
                .sys
                .reachable_states_governed(&Budget::unlimited().with_max_states(1_000_000))
                .into_value();
            assert!(!states.is_empty());
        });
    });
    group.bench_function("dala_dfinder", |b| {
        let d = dala();
        b.iter(|| {
            check_deadlock_freedom_governed(
                &d.sys,
                &Budget::unlimited().with_max_iterations(1_000_000),
            )
            .into_value()
        });
    });
    group.bench_function("dala_controller_synthesis", |b| {
        let d = dala();
        b.iter(|| {
            let res = synthesize_safety_controller(&d.sys, d.bad(), 1_000_000);
            assert!(res.initial_safe);
        });
    });
    group.finish();
}

fn e6_ioco_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_ioco_generation");
    group.bench_function("campaign_100_tests", |b| {
        let spec = dispenser_spec();
        b.iter(|| {
            let mut gen = TestGenerator::new(&spec, 1);
            let mut iut = LtsIut::new(dispenser_good(), 2);
            let (failures, _) = gen.campaign(&mut iut, 100, 20);
            assert_eq!(failures, 0);
        });
    });
    group.bench_function("offline_generation_depth8", |b| {
        let spec = dispenser_spec();
        b.iter(|| {
            let mut gen = TestGenerator::new(&spec, 1);
            for _ in 0..100 {
                let t = gen.generate(8);
                assert!(t.size() > 0);
            }
        });
    });
    group.finish();
}

fn e7_ecdar_and_parser(c: &mut Criterion) {
    use tempo_core::ecdar::{refines_governed, TioaAtom, TioaBuilder};
    use tempo_core::modest::parse_modest;
    let mut group = c.benchmark_group("e7_ecdar_and_parser");
    group.bench_function("refinement_deadline_ladder", |b| {
        let contract = |deadline: i64| {
            let mut t = TioaBuilder::new("C");
            let x = t.clock("x");
            let idle = t.location("Idle");
            let busy = t.location_with_invariant("Busy", vec![TioaAtom::le(x, deadline)]);
            t.input(idle, busy, "req").reset(x).done();
            t.output(busy, idle, "resp").done();
            t.build()
        };
        let tight = contract(4);
        let loose = contract(16);
        b.iter(|| {
            assert!(refines_governed(&tight, &loose, &Budget::unlimited())
                .into_value()
                .is_ok());
            assert!(refines_governed(&loose, &tight, &Budget::unlimited())
                .into_value()
                .is_err());
        });
    });
    group.bench_function("parse_fig5_channel", |b| {
        let source = r"
            const TD = 1;
            clock c;
            action put, get;
            process Channel() {
              put palt {
                :98: {= c = 0 =}; invariant(c <= TD) get
                : 2: {==}
              }; Channel()
            }
            system Channel();
        ";
        b.iter(|| {
            let model = parse_modest(source).expect("parses");
            assert_eq!(model.actions().len(), 2);
        });
    });
    group.finish();
}

fn a1_ablation_extrapolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_ablation_extrapolation");
    group.sample_size(10);
    // Full state-space construction with and without maximal-constant
    // extrapolation (DESIGN.md ablation A1).
    group.bench_function("with_extrapolation", |b| {
        let tg = train_gate(2);
        b.iter(|| {
            let exp = Explorer::new(&tg.net);
            assert!(count_states(&exp) > 0);
        });
    });
    group.bench_function("without_extrapolation", |b| {
        let tg = train_gate(2);
        b.iter(|| {
            let exp = Explorer::new(&tg.net).without_extrapolation();
            assert!(count_states(&exp) > 0);
        });
    });
    group.finish();
}

/// Breadth-first state count with inclusion checking (shared by A1).
fn count_states(exp: &Explorer<'_>) -> usize {
    use std::collections::{HashMap, VecDeque};
    let mut passed: HashMap<_, Vec<tempo_core::ta::SymState>> = HashMap::new();
    let mut waiting = VecDeque::new();
    let init = exp.initial_state();
    passed
        .entry(init.discrete())
        .or_default()
        .push(init.clone());
    waiting.push_back(init);
    let mut count = 0;
    while let Some(state) = waiting.pop_front() {
        count += 1;
        if count > 200_000 {
            break;
        }
        for (_, succ) in exp.successors(&state) {
            let entry = passed.entry(succ.discrete()).or_default();
            if entry.iter().any(|s| succ.zone.is_subset_of(&s.zone)) {
                continue;
            }
            entry.retain(|s| !s.zone.is_subset_of(&succ.zone));
            entry.push(succ.clone());
            waiting.push_back(succ);
        }
    }
    count
}

fn a2_ablation_mdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_ablation_mdp");
    group.sample_size(10);
    let model = brp(4, 2, 1);
    let mc = model.mcpta(0, 5_000_000);
    let goal = mc.goal_mask(&model.p1_goal());
    group.bench_function("unbounded_scc", |b| {
        b.iter(|| {
            let res =
                reachability_governed(mc.mdp(), Opt::Max, &goal, &Budget::unlimited()).into_value();
            assert!(res.initial_value > 0.0);
        });
    });
    group.bench_function("interval_iteration", |b| {
        b.iter(|| {
            let res = tempo_core::mdp::interval_reachability_governed(
                mc.mdp(),
                Opt::Max,
                &goal,
                1e-8,
                &Budget::unlimited(),
            )
            .into_value();
            assert!(res.initial_upper >= res.initial_lower);
        });
    });
    group.bench_function("bounded_vi_200", |b| {
        b.iter(|| {
            let res =
                bounded_reachability_governed(mc.mdp(), Opt::Max, &goal, 200, &Budget::unlimited())
                    .into_value();
            assert!(res.initial_value >= 0.0);
        });
    });
    group.finish();
}

fn a3_ablation_smc(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_ablation_smc");
    group.sample_size(10);
    let tg = train_gate(2);
    for runs in [100_usize, 1000] {
        group.bench_with_input(BenchmarkId::new("estimate", runs), &runs, |b, &runs| {
            b.iter(|| {
                let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 4);
                let est = smc
                    .probability_governed(&tg.cross(0), 100.0, runs, 0.95, &Budget::unlimited())
                    .expect("valid parameters")
                    .into_value()
                    .expect("an unlimited budget completes");
                assert!(est.mean > 0.0);
            });
        });
    }
    group.finish();
}

fn p3_svc(c: &mut Criterion) {
    use std::sync::Arc;
    use tempo_core::svc::{AnalysisService, JobKind, JobRequest, ServiceConfig, VerdictSource};

    let mut group = c.benchmark_group("p3_svc");
    group.sample_size(10);
    // The verdict-cache experiment on the acceptance workload (BRP via
    // mcpta, whose digital-clocks MDP construction dominates a miss):
    // a cold miss pays the full engine run, a warm hit is a sharded-map
    // clone, and a coalesced follower piggybacks on one in-flight run.
    let model = brp(4, 2, 1);
    let kind = JobKind::McptaReach {
        pta: Arc::new(model.pta.clone()),
        opt: Opt::Max,
        goal: model.p1_goal(),
        epsilon: 1e-9,
    };
    let request = |kind: &JobKind| JobRequest {
        tenant: "bench".into(),
        priority: 0,
        budget: Budget::unlimited(),
        kind: kind.clone(),
    };
    group.bench_function("mcpta_brp4_cold_miss", |b| {
        b.iter(|| {
            // A fresh service per iteration: nothing cached yet.
            let svc = AnalysisService::new(ServiceConfig::default());
            let r = svc.run(request(&kind)).expect("computed");
            assert_eq!(r.source, VerdictSource::Computed);
            svc.shutdown();
        });
    });
    group.bench_function("mcpta_brp4_warm_hit", |b| {
        let svc = AnalysisService::new(ServiceConfig::default());
        let cold = svc.run(request(&kind)).expect("primed");
        b.iter(|| {
            let r = svc.run(request(&kind)).expect("hit");
            assert_eq!(r.source, VerdictSource::MemoryHit);
            assert_eq!(r.verdict, cold.verdict);
        });
        svc.shutdown();
    });
    group.bench_function("mcpta_brp4_coalesced", |b| {
        // Distinct seeds make each iteration a fresh key, so followers
        // coalesce onto a genuinely in-flight run, never a cache hit.
        let tg = train_gate(3);
        let net = Arc::new(tg.net.clone());
        let mut seed = 0_u64;
        let svc = AnalysisService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        b.iter(|| {
            seed += 1;
            let job = JobKind::Probability {
                net: Arc::clone(&net),
                rates: tg.rates(),
                seed,
                goal: tg.cross(0),
                bound: 100.0,
                runs: 2000,
                confidence: 0.95,
            };
            let leader = svc.submit(request(&job)).expect("admitted");
            let follower = svc.submit(request(&job)).expect("admitted");
            let a = leader.wait().expect("leader");
            let b2 = follower.wait().expect("follower");
            assert_eq!(a.verdict, b2.verdict);
        });
        svc.shutdown();
    });
    group.finish();
}

fn p4_flow(c: &mut Criterion) {
    use tempo_core::obs::ExploreConfig;

    let mut group = c.benchmark_group("p4_flow");
    group.sample_size(10);
    // The dataflow-pass experiment: exhaustive search for the (unreachable)
    // collision on the 4-train gate, so the run covers the whole reachable
    // space. LU extrapolation + slicing is isolated from POR/symmetry to
    // make the shrink attributable to the flow passes alone.
    let tg = train_gate(4);
    let collision = tempo_core::ta::StateFormula::not(tg.safety());
    group.bench_function("collision_n4_unreduced", |b| {
        b.iter(|| {
            let out = ModelChecker::new(&tg.net)
                .with_config(ExploreConfig::unreduced())
                .try_reachable_governed(&collision, &Budget::unlimited())
                .expect("in-memory store");
            assert!(!out.value().reachable);
        });
    });
    group.bench_function("collision_n4_lu_slice", |b| {
        b.iter(|| {
            let out = ModelChecker::new(&tg.net)
                .with_config(ExploreConfig::unreduced().with_lu(true).with_slice(true))
                .try_reachable_governed(&collision, &Budget::unlimited())
                .expect("in-memory store");
            assert!(!out.value().reachable);
            assert!(out.report().lu_tightened > 0);
        });
    });
    // The digital-clocks side: BRP's MDP build with the variable-range
    // and LU passes on vs off.
    let model = brp(4, 2, 1);
    group.bench_function("mcpta_brp4_flow_off", |b| {
        b.iter(|| {
            let mc = model.mcpta_with(
                0,
                tempo_core::modest::McptaConfig {
                    flow: false,
                    ..tempo_core::modest::McptaConfig::default()
                },
                5_000_000,
            );
            assert!(mc.stats().states > 0);
        });
    });
    group.bench_function("mcpta_brp4_flow_on", |b| {
        b.iter(|| {
            let mc = model.mcpta(0, 5_000_000);
            assert!(mc.stats().states > 0);
        });
    });
    group.finish();
}

fn p5_rare(c: &mut Criterion) {
    use tempo_core::cora::PricedNetwork;
    use tempo_core::rare::{PricedChecker, RareChecker, SplitConfig, SplitMethod};
    use tempo_core::smc::RatePolicy;
    use tempo_core::ta::LocationId;
    use tempo_models::chain;

    let mut group = c.benchmark_group("p5_rare");
    group.sample_size(10);
    // The rare-event experiment: fixed-effort vs RESTART on the analytic
    // 2^-16 chain, and the priced estimator's per-run cost accounting
    // overhead against the plain SMC estimator on the same batch.
    let ch = chain(16);
    let goal = ch.goal();
    let bound = ch.time_bound();
    group.bench_function("fixed_effort_chain16", |b| {
        b.iter(|| {
            let mut rc = RareChecker::new(&ch.net, RatePolicy::new(), 1);
            let est = rc
                .probability_governed(&goal, bound, &SplitConfig::default(), &Budget::unlimited())
                .expect("valid parameters")
                .into_value()
                .expect("an unlimited budget completes");
            assert!(est.lower > 0.0);
        });
    });
    group.bench_function("restart_chain16", |b| {
        b.iter(|| {
            let mut rc = RareChecker::new(&ch.net, RatePolicy::new(), 1);
            let config = SplitConfig {
                method: SplitMethod::Restart,
                replications: 64,
                ..SplitConfig::default()
            };
            let est = rc
                .probability_governed(&goal, bound, &config, &Budget::unlimited())
                .expect("valid parameters")
                .into_value()
                .expect("an unlimited budget completes");
            assert!(est.p_hat >= 0.0);
        });
    });
    let small = chain(6);
    let mut pnet = PricedNetwork::new(small.net.clone());
    for li in 0..small.net.automata()[small.aut.index()].locations.len() {
        pnet.set_rate(small.aut, LocationId(li), 1);
    }
    group.bench_function("priced_cost_probability_2000", |b| {
        b.iter(|| {
            let mut chk = PricedChecker::new(&pnet, RatePolicy::new(), 1);
            let est = chk
                .cost_probability_governed(
                    &small.goal(),
                    f64::INFINITY,
                    small.time_bound(),
                    2000,
                    0.95,
                    &Budget::unlimited(),
                )
                .expect("valid parameters")
                .into_value()
                .expect("an unlimited budget completes");
            assert!(est.runs == 2000);
        });
    });
    group.bench_function("plain_probability_2000", |b| {
        b.iter(|| {
            let mut smc = StatisticalChecker::new(&small.net, RatePolicy::new(), 1);
            let est = smc
                .probability_governed(
                    &small.goal(),
                    small.time_bound(),
                    2000,
                    0.95,
                    &Budget::unlimited(),
                )
                .expect("valid parameters")
                .into_value()
                .expect("an unlimited budget completes");
            assert!(est.runs == 2000);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    e1_train_gate_verification,
    e2_tiga_synthesis,
    e3_smc_cdf,
    e4_brp_table1,
    e5_bip_engine,
    e6_ioco_generation,
    e7_ecdar_and_parser,
    a1_ablation_extrapolation,
    a2_ablation_mdp,
    a3_ablation_smc,
    p3_svc,
    p4_flow,
    p5_rare,
);
criterion_main!(benches);
