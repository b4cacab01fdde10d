//! Integration tests of the analysis service: cache soundness (a cached
//! verdict is byte-identical to a fresh run at any worker-thread count),
//! disk-tier certificate replay (a tampered entry is rejected and
//! transparently recomputed), typed admission control, request
//! coalescing, all-owners cancellation, and the deterministic
//! spawn/cancel/shutdown guarantee under race stress.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tempo_core::cora::PricedNetwork;
use tempo_core::dbm::Clock;
use tempo_core::mdp::Opt;
use tempo_core::modest::{compile, parse_modest, Mcpta};
use tempo_core::obs::{Budget, CounterKind, ExhaustionReason, ExploreConfig, Severity};
use tempo_core::svc::{
    AnalysisService, JobError, JobKind, JobRequest, JobVerdict, Rejected, ServiceConfig,
    VerdictSource,
};
use tempo_core::ta::{
    AutomatonId, ClockAtom, LocationId, ModelChecker, Network, NetworkBuilder, StateFormula,
};
use tempo_models::{brp, dala, train_gate, train_gate_game};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tempo-svc-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(tenant: &str, kind: JobKind) -> JobRequest {
    JobRequest {
        tenant: tenant.to_owned(),
        priority: 0,
        budget: Budget::unlimited(),
        kind,
    }
}

/// A fast job per engine family, cheap enough to run repeatedly under
/// proptest but exercising real state-space exploration.
fn workload() -> Vec<JobKind> {
    let tg = train_gate(2);
    let net = Arc::new(tg.net.clone());
    let game = train_gate_game(2);
    let model = brp(1, 1, 1);
    vec![
        JobKind::Reach {
            net: Arc::clone(&net),
            goal: tg.cross(0),
            explore: ExploreConfig::default(),
        },
        JobKind::LeadsTo {
            net: Arc::clone(&net),
            phi: tg.appr(0),
            psi: tg.cross(0),
        },
        JobKind::SafetyGame {
            net: Arc::new(game.net.clone()),
            bad: game.collision(),
        },
        JobKind::Probability {
            net,
            rates: tg.rates(),
            seed: 7,
            goal: tg.cross(0),
            bound: 100.0,
            runs: 200,
            confidence: 0.95,
        },
        JobKind::McptaReach {
            pta: Arc::new(model.pta.clone()),
            opt: Opt::Max,
            goal: model.p1_goal(),
            epsilon: 1e-9,
        },
        JobKind::BipDeadlock {
            sys: Arc::new(dala().sys.clone()),
        },
    ]
}

/// A slow job (seed-parameterized so distinct seeds never coalesce):
/// enough simulation runs that cancellation and backpressure tests can
/// reliably observe it still in flight.
fn slow_job(seed: u64, runs: usize) -> JobKind {
    let tg = train_gate(2);
    JobKind::Probability {
        net: Arc::new(tg.net.clone()),
        rates: tg.rates(),
        seed,
        goal: tg.cross(0),
        bound: 100.0,
        runs,
        confidence: 0.95,
    }
}

const LOCS: usize = 4;

#[derive(Debug, Clone)]
struct EdgeSpec {
    from: usize,
    to: usize,
    lower: Option<i64>,
    upper: Option<i64>,
    reset: bool,
}

fn arb_edges() -> impl Strategy<Value = Vec<EdgeSpec>> {
    prop::collection::vec(
        (
            0..LOCS,
            0..LOCS,
            prop::option::of(0..4_i64),
            prop::option::of(0..6_i64),
            prop::bool::ANY,
        )
            .prop_map(|(from, to, lower, upper, reset)| EdgeSpec {
                from,
                to,
                lower,
                upper,
                reset,
            }),
        1..8,
    )
}

fn build_random_net(edges: &[EdgeSpec], invariants: &[Option<i64>]) -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let locs: Vec<LocationId> = (0..LOCS)
        .map(|i| match invariants[i] {
            Some(c) => a.location_with_invariant(&format!("L{i}"), vec![ClockAtom::le(x, c)]),
            None => a.location(&format!("L{i}")),
        })
        .collect();
    for e in edges {
        let mut eb = a.edge(locs[e.from], locs[e.to]);
        if let Some(lo) = e.lower {
            eb = eb.guard_clock(ClockAtom::ge(x, lo));
        }
        if let Some(hi) = e.upper {
            eb = eb.guard_clock(ClockAtom::le(x, hi));
        }
        if e.reset {
            eb = eb.reset(x, 0);
        }
        eb.done();
    }
    a.done();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite property: on random small networks, the cached verdict
    /// equals both the fresh service run and a direct engine run, at any
    /// worker-thread count.
    #[test]
    fn random_networks_cached_verdict_equals_fresh(
        edges in arb_edges(),
        invariants in prop::collection::vec(prop::option::of(1..8_i64), LOCS),
        workers in 1_usize..=4,
    ) {
        let net = Arc::new(build_random_net(&edges, &invariants));
        // Random nets can contain genuine modelling errors (a guard
        // contradicting an invariant is TA002); the admission lint gate
        // refuses those by design, so they are not inputs of this
        // property.
        if tempo_core::lint::check_network_first(&net, &tempo_core::lint::LintConfig::default())
            .is_err()
        {
            return;
        }
        let svc = AnalysisService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        for loc in 0..LOCS {
            let goal = StateFormula::at(AutomatonId(0), LocationId(loc));
            let expected = ModelChecker::new(&net).reachable(&goal).reachable;
            let kind = JobKind::Reach {
                net: Arc::clone(&net),
                goal,
                explore: ExploreConfig::default(),
            };
            let fresh = svc.run(request("rand", kind.clone())).expect("fresh");
            let cached = svc.run(request("rand", kind)).expect("cached");
            prop_assert_eq!(&fresh.verdict, &JobVerdict::Reachable(expected));
            prop_assert_eq!(cached.source, VerdictSource::MemoryHit);
            prop_assert_eq!(cached.verdict.render(), fresh.verdict.render());
        }
        svc.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance contract of the cache: for every engine family, a
    /// warm hit is byte-identical (canonical verdict render) to the
    /// fresh computed run, at any worker-thread count — and all thread
    /// counts agree with each other.
    #[test]
    fn cached_verdict_is_byte_identical_to_fresh_at_any_thread_count(workers in 1_usize..=4) {
        static REFERENCE: OnceLock<Vec<String>> = OnceLock::new();

        let svc = AnalysisService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        });
        let jobs = workload();

        // Pass 1: cold — every job computes.
        let mut fresh = Vec::new();
        for kind in &jobs {
            let r = svc.run(request("prop", kind.clone())).expect("fresh run");
            prop_assert_ne!(r.source, VerdictSource::MemoryHit);
            fresh.push(r.verdict.render());
        }

        // Pass 2: warm — every job must hit the memory tier and render
        // byte-identically.
        for (kind, expected) in jobs.iter().zip(&fresh) {
            let r = svc.run(request("prop", kind.clone())).expect("warm run");
            prop_assert_eq!(r.source, VerdictSource::MemoryHit);
            prop_assert_eq!(&r.verdict.render(), expected);
        }
        let stats = svc.shutdown();
        prop_assert!(stats.hits >= jobs.len() as u64);
        prop_assert_eq!(stats.misses, jobs.len() as u64);

        // Cross-case: every worker count produces the same verdicts.
        let reference = REFERENCE.get_or_init(|| fresh.clone());
        prop_assert_eq!(&fresh, reference);
    }
}

/// Acceptance criterion: a corrupted disk entry is rejected by
/// certificate replay and transparently recomputed; an intact one is
/// served as a disk hit, byte-identical to the original verdict.
#[test]
fn tampered_disk_certificate_is_rejected_and_recomputed() {
    let dir = unique_dir("tamper");
    let model = brp(2, 1, 1);
    let kind = JobKind::McptaReach {
        pta: Arc::new(model.pta.clone()),
        opt: Opt::Max,
        goal: model.p1_goal(),
        epsilon: 1e-9,
    };
    let config = || ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    // Run once to populate the disk tier.
    let svc = AnalysisService::new(config());
    let handle = svc.submit(request("a", kind.clone())).expect("admitted");
    let original = handle.wait().expect("computed");
    assert_eq!(original.source, VerdictSource::Computed);
    let path = svc
        .disk_entry_path(&handle.cache_key())
        .expect("disk tier configured");
    svc.shutdown();
    let pristine = std::fs::read_to_string(&path).expect("entry persisted");

    // Fresh process (fresh service), intact entry: certificate replays,
    // verdict served from disk, byte-identical.
    let svc = AnalysisService::new(config());
    let r = svc.run(request("a", kind.clone())).expect("disk hit");
    assert_eq!(r.source, VerdictSource::DiskHit);
    assert_eq!(r.verdict.render(), original.verdict.render());
    let stats = svc.shutdown();
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.disk_rejected, 0);
    assert_eq!(stats.disk_evicted, 0);

    // Tamper with the claimed value inside the certificate: replay must
    // reject it and the service must recompute the correct verdict.
    let tampered = pristine.replacen("value ", "value 1", 1);
    assert_ne!(tampered, pristine, "tampering must change the entry");
    std::fs::write(&path, tampered).expect("tamper");
    let svc = AnalysisService::new(config());
    let r = svc.run(request("a", kind.clone())).expect("recomputed");
    assert_eq!(r.source, VerdictSource::Computed);
    assert_eq!(r.verdict.render(), original.verdict.render());
    let stats = svc.shutdown();
    assert_eq!(stats.disk_rejected, 1);
    assert_eq!(stats.misses, 1);
    // The dead entry is deleted on rejection (and re-persisted by the
    // recompute), so it never re-pays the replay cost.
    assert_eq!(stats.disk_evicted, 1);

    // Truncation (a crashed writer, a bad block) is also rejected.
    std::fs::write(&path, &pristine[..pristine.len() / 2]).expect("truncate");
    let svc = AnalysisService::new(config());
    let r = svc.run(request("a", kind)).expect("recomputed");
    assert_eq!(r.verdict.render(), original.verdict.render());
    let stats = svc.shutdown();
    assert_eq!(stats.disk_rejected, 1);
    assert_eq!(stats.disk_evicted, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a disk hit used to rebuild its [`RunReport`] from scratch
/// with only `certificate_bytes` set, so warm starts reported zero
/// states explored and zero wall time into the per-tenant rollups. The
/// original run's report line is persisted in the entry header and must
/// come back on the hit.
#[test]
fn disk_hit_preserves_the_original_run_report() {
    let dir = unique_dir("report");
    let model = train_gate(2);
    let kind = JobKind::Reach {
        net: Arc::new(model.net.clone()),
        goal: model.cross(0),
        explore: ExploreConfig::default(),
    };
    let config = || ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let svc = AnalysisService::new(config());
    let original = svc.run(request("t", kind.clone())).expect("computed");
    assert_eq!(original.source, VerdictSource::Computed);
    assert!(original.report.states_explored > 0);
    svc.shutdown();

    // Fresh process: the verdict comes from disk, and the report is the
    // original run's work, not a zeroed-out shell.
    let svc = AnalysisService::new(config());
    let warm = svc.run(request("t", kind)).expect("disk hit");
    assert_eq!(warm.source, VerdictSource::DiskHit);
    assert_eq!(warm.verdict.render(), original.verdict.render());
    assert_eq!(
        warm.report.states_explored, original.report.states_explored,
        "disk hit must preserve the producing run's states_explored"
    );
    assert_eq!(warm.report.states_stored, original.report.states_stored);
    assert_eq!(warm.report.wall_time, original.report.wall_time);
    assert!(warm.report.wall_time.as_nanos() > 0);
    // The rollup the tenant sees aggregates the true work too.
    let rollup = svc.tenant_report("t").expect("tenant rollup");
    assert_eq!(rollup.states_explored, original.report.states_explored);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry the disk tier cannot read is recomputed, never served:
/// the previous layout (`tempo-svc-cache v1` with a positional `report
/// v3` line), a positional report line under the current magic, and a
/// header with no report line. Each is rejected and evicted once, and
/// the recompute writes an entry the next service serves as a disk hit
/// carrying the recomputed report.
#[test]
fn old_disk_entries_are_recomputed_not_served() {
    let dir = unique_dir("old-entries");
    let model = train_gate(2);
    let kind = JobKind::Reach {
        net: Arc::new(model.net.clone()),
        goal: model.cross(0),
        explore: ExploreConfig::default(),
    };
    let config = || ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let svc = AnalysisService::new(config());
    let handle = svc.submit(request("t", kind.clone())).expect("admitted");
    let original = handle.wait().expect("computed");
    let path = svc
        .disk_entry_path(&handle.cache_key())
        .expect("disk tier configured");
    svc.shutdown();
    let entry = std::fs::read_to_string(&path).expect("entry persisted");
    let (header, cert) = entry
        .split_once("\n\n")
        .expect("header, blank line, certificate");
    let mut header = header.lines();
    let (magic, verdict) = (header.next().unwrap(), header.next().unwrap());
    // The previous positional layout: a version tag, then 25 counters.
    let positional = format!("report v3{}", " 0".repeat(25));

    for old in [
        format!("tempo-svc-cache v1\n{verdict}\n{positional}\n\n{cert}"),
        format!("{magic}\n{verdict}\n{positional}\n\n{cert}"),
        format!("{magic}\n{verdict}\n\n{cert}"),
    ] {
        std::fs::write(&path, &old).expect("rewrite the entry");
        let svc = AnalysisService::new(config());
        let recomputed = svc.run(request("t", kind.clone())).expect("recomputed");
        assert_eq!(recomputed.source, VerdictSource::Computed, "{old:.60}");
        assert_eq!(recomputed.verdict.render(), original.verdict.render());
        let stats = svc.shutdown();
        assert_eq!(stats.disk_rejected, 1);
        assert_eq!(stats.disk_evicted, 1);

        let svc = AnalysisService::new(config());
        let served = svc.run(request("t", kind.clone())).expect("disk hit");
        assert_eq!(served.source, VerdictSource::DiskHit);
        assert_eq!(served.report, recomputed.report);
        svc.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a `McptaReach` job built its MDP without the goal's
/// clock atoms. `Pmax(<> x >= 5)` then came out 0, because the clock
/// clamp hid `x >= 5`, and `Pmax(<> y >= 5)` panicked, because the
/// unread clock `y` was reduced away. Both are 1, computed and then
/// served from disk. Disk replay runs outside the engine's panic guard,
/// so the watchdog turns a panic there into a failure, not a hang.
#[test]
fn mcpta_goals_that_read_clocks_are_exact_and_served_from_disk() {
    let model = parse_modest(
        "clock x; clock y; action go; int [0, 1] n;
         process P() { when(x >= 1) go {= n = 1, x = 0 =}; P() }
         system P();",
    )
    .expect("the model parses");
    let pta = Arc::new(compile(&model));
    // Clock 1 is `x`, clock 2 is `y`. No invariant bounds either, so
    // both goals are reached with probability 1.
    let kinds: Vec<JobKind> = [Clock(1), Clock(2)]
        .into_iter()
        .map(|c| JobKind::McptaReach {
            pta: Arc::clone(&pta),
            opt: Opt::Max,
            goal: StateFormula::clock(ClockAtom::ge(c, 5)),
            epsilon: 1e-9,
        })
        .collect();
    let dir = unique_dir("mcpta-clock-goal");
    let config = ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run_all = || {
            let svc = AnalysisService::new(config.clone());
            let results: Vec<_> = kinds
                .iter()
                .map(|k| svc.run(request("t", k.clone())))
                .collect();
            svc.shutdown();
            results
        };
        let computed = run_all();
        let _ = tx.send((computed, run_all()));
    });
    let (computed, reopened) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("watchdog: a job never resolved");
    for (source, results) in [
        (VerdictSource::Computed, computed),
        (VerdictSource::DiskHit, reopened),
    ] {
        for r in results {
            let r = r.expect("the job resolves with a value");
            assert_eq!(r.source, source);
            assert_eq!(r.verdict, JobVerdict::McptaValue(1.0));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm memory hits must be measurably faster than recomputation on the
/// BRP mcpta workload (the digital-clocks MDP construction is what the
/// hit skips). EXPERIMENTS.md reports the measured ratio; here we only
/// assert a conservative 2x to stay robust on loaded CI machines.
#[test]
fn warm_hit_is_faster_than_recompute_on_brp_mcpta() {
    let model = brp(4, 2, 1);
    let kind = JobKind::McptaReach {
        pta: Arc::new(model.pta.clone()),
        opt: Opt::Max,
        goal: model.p1_goal(),
        epsilon: 1e-9,
    };
    let svc = AnalysisService::new(ServiceConfig::default());

    let started = Instant::now();
    let cold = svc.run(request("bench", kind.clone())).expect("cold");
    let cold_time = started.elapsed();
    assert_eq!(cold.source, VerdictSource::Computed);

    let started = Instant::now();
    let warm = svc.run(request("bench", kind)).expect("warm");
    let warm_time = started.elapsed();
    assert_eq!(warm.source, VerdictSource::MemoryHit);

    assert_eq!(warm.verdict.render(), cold.verdict.render());
    assert!(
        warm_time * 2 < cold_time,
        "warm hit ({warm_time:?}) must beat recompute ({cold_time:?})"
    );
    svc.shutdown();
}

/// Identical concurrent requests coalesce onto one engine run; the
/// leader cancelling must not rob the follower of its verdict.
#[test]
fn coalescing_shares_one_run_and_survives_leader_cancellation() {
    let svc = AnalysisService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // Occupy the single worker so the next submissions stay queued.
    let blocker = svc
        .submit(request("t", slow_job(1, 30_000)))
        .expect("admitted");

    let leader = svc
        .submit(request("t", slow_job(2, 500)))
        .expect("admitted");
    let follower = svc
        .submit(request("t", slow_job(2, 500)))
        .expect("admitted");
    assert_eq!(leader.cache_key(), follower.cache_key());

    // Leader bails out; the computation must survive for the follower.
    leader.cancel();
    assert_eq!(leader.wait(), Err(JobError::Cancelled));
    blocker.cancel();
    let served = follower.wait().expect("follower still served");
    assert_eq!(served.source, VerdictSource::Coalesced);

    let stats = svc.shutdown();
    assert_eq!(stats.coalesced, 1);
    assert!(stats.cancelled >= 2);
}

/// The admission lint gate refuses a model its engine would refuse —
/// before it consumes queue capacity, tenant quota, or a cache slot —
/// with the blocking diagnostics attached.
#[test]
fn admission_lint_gate_rejects_broken_models_with_diagnostics() {
    // Guard x >= 5 under invariant x <= 3: TA002, error severity.
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 5)).done();
    a.edge(l0, l1)
        .guard_clock(ClockAtom::ge(x, 1))
        .reset(x, 0)
        .done();
    a.edge(l1, l0).guard_clock(ClockAtom::ge(x, 1)).done();
    a.done();
    let net = Arc::new(b.build());

    let svc = AnalysisService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let kind = JobKind::Reach {
        net: Arc::clone(&net),
        goal: StateFormula::at(AutomatonId(0), LocationId(1)),
        explore: ExploreConfig::default(),
    };
    match svc.submit(request("t", kind)).err() {
        Some(Rejected::Lint(e)) => {
            assert!(e.diagnostics.iter().any(|d| d.code == "TA002"), "{e}");
        }
        other => panic!("expected Rejected::Lint, got {other:?}"),
    }
    // The same refusal covers the game engines' gate.
    let bad_game = JobKind::SafetyGame {
        net,
        bad: StateFormula::at(AutomatonId(0), LocationId(1)),
    };
    assert!(matches!(
        svc.submit(request("t", bad_game)).err(),
        Some(Rejected::Lint(_))
    ));
    let stats = svc.shutdown();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.misses, 0, "nothing was queued");
}

/// A leads-to whose formulas read clocks is refused at admission with a
/// `TL103` error, as `tempo check` refuses it, instead of reaching a
/// worker whose engine cannot check it. The watchdog turns a job that
/// never resolves into a failure rather than a hung suite.
#[test]
fn clock_constrained_leads_to_is_rejected_at_admission() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 1)).done();
    a.edge(l1, l0).reset(x, 0).done();
    let aid = a.done();
    let kind = JobKind::LeadsTo {
        net: Arc::new(b.build()),
        phi: StateFormula::and(vec![
            StateFormula::at(aid, l0),
            StateFormula::clock(ClockAtom::le(x, 2)),
        ]),
        psi: StateFormula::at(aid, l1),
    };

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let svc = AnalysisService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let outcome = svc.submit(request("t", kind)).map(|handle| handle.wait());
        let _ = tx.send((outcome, svc.shutdown()));
    });
    let (outcome, stats) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("watchdog: the leads-to job never resolved");
    match outcome {
        Err(Rejected::Lint(e)) => assert!(
            e.diagnostics
                .iter()
                .any(|d| d.code == "TL103" && d.severity == Severity::Error),
            "{e}"
        ),
        other => panic!("expected Rejected::Lint, got {other:?}"),
    }
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.misses, 0, "nothing was queued");
}

/// The game and cost engines run on digital clocks, so their admission
/// gate refuses a goal that is open in the clocks, as mcpta's does. On
/// one location with clock `x`, dense time passes through `x > 1 && x <
/// 2` and the zone engine reaches it, but integer time never enters it:
/// without the gate TIGA answered "not winning" and CORA "unreachable".
/// The closed goal `x >= 1 && x <= 2` is admitted, and the verdicts
/// agree with the zone engine.
#[test]
fn game_and_cost_goals_open_in_the_clocks_are_rejected_at_admission() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    a.location("L0");
    a.done();
    let net = Arc::new(b.build());
    let pnet = Arc::new(PricedNetwork::new((*net).clone()));
    let between = |lo: ClockAtom, hi: ClockAtom| {
        StateFormula::and(vec![StateFormula::clock(lo), StateFormula::clock(hi)])
    };
    let jobs = |goal: StateFormula| {
        vec![
            JobKind::ReachGame {
                net: Arc::clone(&net),
                goal: goal.clone(),
            },
            JobKind::SafetyGame {
                net: Arc::clone(&net),
                bad: goal.clone(),
            },
            JobKind::MinCost {
                pnet: Arc::clone(&pnet),
                goal,
            },
        ]
    };
    let svc = AnalysisService::new(ServiceConfig::default());

    for kind in jobs(between(ClockAtom::gt(x, 1), ClockAtom::lt(x, 2))) {
        match svc.submit(request("t", kind.clone())).err() {
            Some(Rejected::Lint(e)) => assert!(
                !e.diagnostics.is_empty() && e.diagnostics.iter().all(|d| d.code == "DIGITAL"),
                "{kind:?}: {e}"
            ),
            other => panic!("{kind:?}: expected Rejected::Lint, got {other:?}"),
        }
    }

    let closed = between(ClockAtom::ge(x, 1), ClockAtom::le(x, 2));
    let zone = ModelChecker::new(&net).reachable(&closed).reachable;
    assert!(zone, "dense time reaches the closed goal");
    let verdicts: Vec<JobVerdict> = jobs(closed)
        .into_iter()
        .map(|kind| svc.run(request("t", kind)).expect("admitted").verdict)
        .collect();
    assert_eq!(
        verdicts,
        [
            JobVerdict::GameWinning(zone),
            // Nothing the controller does stops time reaching the bad set.
            JobVerdict::GameWinning(!zone),
            JobVerdict::MinCost(Some(0)),
        ]
    );
    let stats = svc.shutdown();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.misses, 3);
}

/// A `Pmax` job of `goal` on the compiled BRP network `pta`.
fn brp_job(pta: &Arc<Network>, goal: StateFormula) -> JobKind {
    JobKind::McptaReach {
        pta: Arc::clone(pta),
        opt: Opt::Max,
        goal,
        epsilon: 1e-9,
    }
}

/// A service with `workers` workers and a fresh disk tier.
fn service_with_disk(workers: usize, tag: &str) -> (AnalysisService, PathBuf) {
    let dir = unique_dir(tag);
    let svc = AnalysisService::new(ServiceConfig {
        workers,
        disk_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    (svc, dir)
}

/// What the model hand-off must leave unchanged in a computed mcpta
/// job: the value's bits, the certificate the disk tier stored and the
/// report's work counters.
fn computed_answer(
    svc: &AnalysisService,
    kind: &JobKind,
) -> (u64, String, Vec<(&'static str, u64)>) {
    let handle = svc.submit(request("t", kind.clone())).expect("admitted");
    let result = handle.wait().expect("computed");
    assert_eq!(result.source, VerdictSource::Computed);
    let JobVerdict::McptaValue(value) = result.verdict else {
        panic!("not an mcpta value: {}", result.verdict)
    };
    let path = svc.disk_entry_path(&handle.cache_key()).expect("disk tier");
    let entry = std::fs::read_to_string(path).expect("entry persisted");
    let (_, cert) = entry
        .split_once("\n\n")
        .expect("header, blank line, certificate");
    let work = result
        .report
        .counters()
        .filter(|&(_, _, kind)| kind == CounterKind::Work)
        .map(|(name, v, _)| (name, v))
        .collect();
    (value.to_bits(), cert.to_owned(), work)
}

/// `Pmax(P1)` then `Pmax(P2)` on one network build its MDP once: the
/// second job solves on the model the first built. Its value, its
/// certificate and its report's work counters are those of the same
/// job on a fresh service, at one worker and at two.
#[test]
fn consecutive_mcpta_jobs_on_one_network_share_the_built_model() {
    let model = brp(8, 2, 2);
    let pta = Arc::new(model.pta.clone());
    let (p1, p2) = (
        brp_job(&pta, model.p1_goal()),
        brp_job(&pta, model.p2_goal()),
    );
    for workers in [1, 2] {
        let (svc, dir) = service_with_disk(workers, "handoff");
        computed_answer(&svc, &p1);
        let shared = computed_answer(&svc, &p2);
        let stats = svc.shutdown();
        assert_eq!(
            (stats.misses, stats.models_reused),
            (2, 1),
            "{workers} workers"
        );

        let (fresh_svc, fresh_dir) = service_with_disk(workers, "handoff-fresh");
        let fresh = computed_answer(&fresh_svc, &p2);
        assert_eq!(fresh_svc.shutdown().models_reused, 0);
        assert_eq!(shared, fresh, "{workers} workers");
        for d in [dir, fresh_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The held model serves only a run whose MDP it is: a goal that reads
/// other clock atoms, a run after a job of another kind, and a job on a
/// new service each build their own.
#[test]
fn the_held_model_is_rebuilt_when_it_cannot_serve() {
    let model = brp(8, 2, 2);
    let pta = Arc::new(model.pta.clone());
    let p1 = brp_job(&pta, model.p1_goal());
    let p2 = brp_job(&pta, model.p2_goal());
    let dmax = brp_job(&pta, model.dmax_goal(8));
    let tg = train_gate(2);
    let reach = JobKind::Reach {
        net: Arc::new(tg.net.clone()),
        goal: tg.cross(0),
        explore: ExploreConfig::default(),
    };
    for workers in [1, 2] {
        let config = ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        for sequence in [
            vec![p1.clone(), dmax.clone()],
            vec![p1.clone(), reach.clone(), p2.clone()],
        ] {
            let svc = AnalysisService::new(config.clone());
            for kind in &sequence {
                let r = svc.run(request("t", kind.clone())).expect("computed");
                assert_eq!(r.source, VerdictSource::Computed, "{kind:?}");
            }
            let stats = svc.shutdown();
            assert_eq!(stats.misses, sequence.len() as u64);
            assert_eq!(stats.models_reused, 0, "{workers} workers: {sequence:?}");
        }
        for kind in [&p1, &p2] {
            let svc = AnalysisService::new(config.clone());
            svc.run(request("t", kind.clone())).expect("computed");
            assert_eq!(svc.shutdown().models_reused, 0);
        }
    }
}

/// The held model serves a run whose state budget it fits. After an
/// unlimited job on a model of `S` states, a job with a budget of `S`
/// states solves on it; one with `S - 1` ends `Exhausted(States)`, as
/// on a fresh service, and drops the model, so the next job builds.
#[test]
fn the_held_model_serves_only_a_state_budget_it_fits() {
    let model = brp(8, 2, 2);
    let pta = Arc::new(model.pta.clone());
    let states = Mcpta::try_build(
        &pta,
        &[],
        &Budget::unlimited().with_max_states((usize::MAX) as u64),
    )
    .into_value()
    .expect("the digital-clocks MDP fits the state budget")
    .stats()
    .states as u64;
    let p1 = brp_job(&pta, model.p1_goal());
    let p2 = brp_job(&pta, model.p2_goal());
    let with_states = |kind: &JobKind, n: u64| JobRequest {
        budget: Budget::unlimited().with_max_states(n),
        ..request("t", kind.clone())
    };
    let exhausted = Err(JobError::Exhausted(ExhaustionReason::States));
    for workers in [1, 2] {
        let config = ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        let fresh = AnalysisService::new(config.clone());
        assert_eq!(fresh.run(with_states(&p1, states - 1)), exhausted);
        fresh.shutdown();

        let svc = AnalysisService::new(config);
        svc.run(request("t", p1.clone())).expect("unlimited");
        let fits = svc.run(with_states(&p2, states)).expect("fits");
        assert_eq!(fits.source, VerdictSource::Computed);
        assert_eq!(svc.stats().models_reused, 1, "{workers} workers");
        assert_eq!(svc.run(with_states(&p1, states - 1)), exhausted);
        svc.run(request("t", p2.clone())).expect("unlimited");
        let stats = svc.shutdown();
        assert_eq!(
            (stats.misses, stats.models_reused),
            (4, 1),
            "{workers} workers"
        );
    }
}

/// A disk hit's certificate replay builds the MDP it replays on, and
/// hands it on: the next job, another goal on the same network, is
/// computed on that model.
#[test]
fn a_disk_hit_hands_its_model_to_the_next_job() {
    let model = brp(8, 2, 2);
    let pta = Arc::new(model.pta.clone());
    let p1 = brp_job(&pta, model.p1_goal());
    let p2 = brp_job(&pta, model.p2_goal());
    for workers in [1, 2] {
        let (svc, dir) = service_with_disk(workers, "handoff-disk");
        svc.run(request("t", p1.clone())).expect("computed");
        svc.shutdown();

        let svc = AnalysisService::new(ServiceConfig {
            workers,
            disk_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let hit = svc.run(request("t", p1.clone())).expect("disk hit");
        assert_eq!(hit.source, VerdictSource::DiskHit);
        let computed = svc.run(request("t", p2.clone())).expect("computed");
        assert_eq!(computed.source, VerdictSource::Computed);
        let stats = svc.shutdown();
        assert_eq!(
            (stats.disk_hits, stats.misses, stats.models_reused),
            (1, 1, 1),
            "{workers} workers"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A panicking engine resolves its job with `EnginePanic` instead of
/// killing its worker and leaving the job unresolved. On a one-worker
/// service the panicking job resolves, the same job resubmitted
/// resolves again (the first one left no in-flight entry behind), and a
/// normal job still completes on the surviving worker. The watchdog
/// turns a job that never resolves into a failure rather than a hung
/// suite.
#[test]
fn engine_panic_resolves_the_job_and_keeps_the_worker() {
    // No clock valuation satisfies the initial invariant, so the zone
    // engine panics building the initial state.
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut p = b.automaton("P");
    p.location_with_invariant("L", vec![ClockAtom::lt(x, 0)]);
    p.done();
    let broken = Arc::new(b.build());
    let tg = train_gate(2);
    let normal = JobKind::Reach {
        net: Arc::new(tg.net.clone()),
        goal: tg.cross(0),
        explore: ExploreConfig::default(),
    };

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let svc = AnalysisService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let panicking = || {
            request(
                "t",
                JobKind::DeadlockFree {
                    net: Arc::clone(&broken),
                    explore: ExploreConfig::default(),
                },
            )
        };
        let first = svc.submit(panicking()).expect("admitted").wait();
        let again = svc.submit(panicking()).expect("admitted").wait();
        let after = svc.submit(request("t", normal)).expect("admitted").wait();
        let _ = tx.send((first, again, after, svc.shutdown()));
    });
    let (first, again, after, stats) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("watchdog: a job never resolved");
    for outcome in [first, again] {
        match outcome {
            Err(JobError::EnginePanic(message)) => assert!(
                message.contains("initial state violates invariants"),
                "{message}"
            ),
            other => panic!("expected JobError::EnginePanic, got {other:?}"),
        }
    }
    let after = after.expect("the surviving worker runs the next job");
    assert_eq!(after.verdict.render(), "reachable true");
    assert_eq!(stats.engine_panics, 2);
    assert_eq!(stats.misses, 3, "each panicking job ran its engine");
}

/// Backpressure is typed: a full queue refuses with `QueueFull`, a
/// saturated tenant with `TenantQuotaExceeded` (while other tenants are
/// still admitted), and cancellation frees the tenant's slot.
#[test]
fn admission_control_is_typed_and_quota_is_released() {
    let svc = AnalysisService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        max_active_per_tenant: 2,
        ..ServiceConfig::default()
    });
    // Worker busy on the blocker (spin until it actually picked the
    // blocker up — with capacity 1 the queue must be empty again before
    // bob can be admitted), queue holding one more...
    let blocker = svc
        .submit(request("alice", slow_job(10, 200_000)))
        .expect("admitted");
    while svc.stats().misses == 0 {
        std::thread::yield_now();
    }
    let queued = svc
        .submit(request("bob", slow_job(11, 200)))
        .expect("admitted");
    // ...so the queue is full for everyone,
    assert_eq!(
        svc.submit(request("carol", slow_job(12, 200))).err(),
        Some(Rejected::QueueFull)
    );
    // and alice (blocker + a coalesced waiter = 2 active) is saturated
    // even for work that would coalesce without touching the queue.
    let coalesced = svc
        .submit(request("alice", slow_job(11, 200)))
        .expect("coalescing needs no queue slot");
    assert_eq!(
        svc.submit(request("alice", slow_job(11, 200))).err(),
        Some(Rejected::TenantQuotaExceeded)
    );
    // Cancelling alice's jobs frees her quota immediately.
    coalesced.cancel();
    blocker.cancel();
    let readmitted = svc
        .submit(request("alice", slow_job(11, 200)))
        .expect("quota released by cancellation");

    let _ = queued.wait();
    let _ = readmitted.wait();
    let stats = svc.shutdown();
    assert!(stats.rejected >= 2);
    assert!(stats.queue_peak >= 1);

    // After shutdown, submissions are refused, typed.
    assert_eq!(
        svc.submit(request("dave", slow_job(13, 10))).err(),
        Some(Rejected::ShuttingDown)
    );
}

/// Cancelling a running job stops the engine through its governor: the
/// owner resolves immediately and shutdown does not hang waiting for a
/// simulation that would otherwise run for minutes.
#[test]
fn cancellation_stops_a_running_engine() {
    let svc = AnalysisService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let handle = svc
        .submit(request("t", slow_job(42, 50_000_000)))
        .expect("admitted");
    // Give the worker a chance to actually start the engine.
    while svc.stats().misses == 0 {
        std::thread::yield_now();
    }
    handle.cancel();
    assert_eq!(handle.wait(), Err(JobError::Cancelled));
    // Joins the worker: only passes promptly if the engine unwound.
    svc.shutdown();
}

/// Deflake-guard for the spawn/cancel/shutdown race: submissions,
/// owner cancellations and service shutdown race freely; afterwards
/// every single handle must hold a result (wait() returns immediately)
/// and late submissions must be refused, not lost. Failure mode guarded
/// against: a handle orphaned by shutdown would hang wait() forever.
#[test]
fn shutdown_resolves_every_handle_under_race_stress() {
    for round in 0..8_u64 {
        let svc = Arc::new(AnalysisService::new(ServiceConfig {
            workers: 3,
            queue_capacity: 16,
            max_active_per_tenant: 16,
            ..ServiceConfig::default()
        }));
        let handles = Arc::new(Mutex::new(Vec::new()));
        let rejected = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..4_u64 {
                let svc = Arc::clone(&svc);
                let handles = Arc::clone(&handles);
                let rejected = Arc::clone(&rejected);
                scope.spawn(move || {
                    for i in 0..6_u64 {
                        let seed = round * 1000 + t * 100 + i;
                        match svc.submit(request(&format!("tenant-{t}"), slow_job(seed, 2_000))) {
                            Ok(h) => {
                                // Cancel roughly a third of submissions
                                // immediately, racing the workers.
                                if seed % 3 == 0 {
                                    h.cancel();
                                }
                                handles.lock().expect("collector").push(h);
                            }
                            Err(_) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            // Shut down while submitters are still racing.
            svc.shutdown();
        });
        let handles = std::mem::take(&mut *handles.lock().expect("collector"));
        assert!(
            !handles.is_empty() || rejected.load(Ordering::Relaxed) > 0,
            "round {round}: the race produced no traffic at all"
        );
        for h in &handles {
            // The shutdown contract: every accepted handle has a result
            // by now — try_result (non-blocking) must already be filled.
            let result = h
                .try_result()
                .unwrap_or_else(|| panic!("round {round}: handle {} unresolved", h.id()));
            if let Err(e) = result {
                assert!(
                    matches!(e, JobError::Cancelled),
                    "round {round}: unexpected error {e}"
                );
            }
        }
    }
}

/// Per-tenant rollups merge every completed job's report.
#[test]
fn tenant_reports_roll_up_across_jobs() {
    let svc = AnalysisService::new(ServiceConfig::default());
    let tg = train_gate(2);
    let net = Arc::new(tg.net.clone());
    let first = svc
        .run(request(
            "acme",
            JobKind::Reach {
                net: Arc::clone(&net),
                goal: tg.cross(0),
                explore: ExploreConfig::default(),
            },
        ))
        .expect("reach");
    let second = svc
        .run(request(
            "acme",
            JobKind::Reach {
                net,
                goal: tg.cross(1),
                explore: ExploreConfig::default(),
            },
        ))
        .expect("reach");
    let rollup = svc.tenant_report("acme").expect("rollup exists");
    assert_eq!(
        rollup.states_explored,
        first.report.states_explored + second.report.states_explored
    );
    assert!(rollup.wall_time >= first.report.wall_time);
    assert!(svc.tenant_report("nobody").is_none());
    svc.shutdown();
}
