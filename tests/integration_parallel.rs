//! Integration test: every engine with a worker-count knob runs one code
//! path whose result does not depend on the worker count. Zone-graph
//! reachability, safety and deadlock checking return the same verdict,
//! witness trace and statistics on the train-gate at every worker count;
//! the statistical estimators and the game solver return bit-identical
//! values and equal run reports.

use std::time::Duration;
use tempo_core::obs::{Budget, RunReport};
use tempo_core::smc::StatisticalChecker;
use tempo_core::ta::{Explorer, ModelChecker, Network, StateFormula, Trace};
use tempo_core::tiga::GameSolver;
use tempo_models::{train_gate, train_gate_game, TrainGate};

/// Replays a witness trace against the explorer: it must start in the
/// initial symbolic state, follow real transitions, and end in a state
/// where the goal holds.
fn assert_valid_witness(net: &Network, trace: &Trace, goal: &StateFormula) {
    let explorer = Explorer::new(net);
    let first = &trace.steps[0];
    assert!(
        first.action.is_none(),
        "trace must start at the initial state"
    );
    assert_eq!(first.state, explorer.initial_state());
    for pair in trace.steps.windows(2) {
        let (prev, step) = (&pair[0], &pair[1]);
        let action = step
            .action
            .as_ref()
            .expect("non-initial step has an action");
        assert!(
            explorer
                .successors(&prev.state)
                .iter()
                .any(|(a, s)| a == action && s == &step.state),
            "every step must be a real transition of the zone graph"
        );
    }
    let last = &trace.steps[trace.steps.len() - 1].state;
    assert!(
        goal.holds_somewhere(net, last),
        "trace must end in the goal"
    );
}

#[test]
fn parallel_reach_matches_sequential_on_train_gate() {
    for n in 2..=3 {
        let tg = train_gate(n);
        let goal = StateFormula::and(vec![
            StateFormula::at(tg.trains[0], tg.train_locs.stop),
            StateFormula::at(tg.trains[1], tg.train_locs.cross),
        ]);
        let seq = ModelChecker::new(&tg.net).reachable(&goal);
        assert!(seq.reachable, "N={n}: the goal is reachable sequentially");
        for threads in [2, 3, 4] {
            let par = ModelChecker::new(&tg.net)
                .with_threads(threads)
                .reachable(&goal);
            assert_eq!(
                par.reachable, seq.reachable,
                "N={n}, threads={threads}: verdict must match the oracle"
            );
            assert_eq!(
                format!("{:?}", par.trace),
                format!("{:?}", seq.trace),
                "N={n}, threads={threads}: the witness must be the 1-worker trace"
            );
            assert_eq!(
                par.stats, seq.stats,
                "N={n}, threads={threads}: stats must match the 1-worker run"
            );
            let trace = par.trace.expect("reachable result carries a witness");
            assert_valid_witness(&tg.net, &trace, &goal);
            assert!(par.stats.explored > 0, "stats must count explored states");
            assert!(par.stats.stored > 0, "stats must count stored zones");
        }
    }
}

#[test]
fn parallel_safety_and_deadlock_match_sequential() {
    for n in 2..=3 {
        let tg = train_gate(n);
        let (seq_safe, seq_stats) = ModelChecker::new(&tg.net).always(&tg.safety());
        let (seq_dl, seq_dl_stats) = ModelChecker::new(&tg.net).deadlock_free();
        // The safety and deadlock run reports, wall time cleared.
        let reports = |threads: usize| {
            let mc = || ModelChecker::new(&tg.net).with_threads(threads);
            let unlimited = Budget::unlimited();
            [
                mc().try_always_governed(&tg.safety(), &unlimited)
                    .unwrap()
                    .report()
                    .clone(),
                mc().try_deadlock_free_governed(&unlimited)
                    .unwrap()
                    .report()
                    .clone(),
            ]
            .map(|r| RunReport {
                wall_time: Duration::ZERO,
                ..r
            })
        };
        let seq_reports = reports(1);
        for threads in [2, 3, 4] {
            let (par_safe, par_stats) = ModelChecker::new(&tg.net)
                .with_threads(threads)
                .always(&tg.safety());
            assert_eq!(
                par_safe.holds(),
                seq_safe.holds(),
                "N={n}, threads={threads}"
            );
            // An exhausted search reaches the same inclusion-reduced
            // fixpoint regardless of exploration order, so the passed-list
            // size must agree with the sequential engine exactly.
            assert_eq!(
                par_stats.stored, seq_stats.stored,
                "N={n}, threads={threads}: fixpoint size must match"
            );
            assert_eq!(par_stats, seq_stats, "N={n}, threads={threads}");
            assert_eq!(
                format!("{par_safe:?}"),
                format!("{seq_safe:?}"),
                "N={n}, threads={threads}: the safety verdict and trace must match"
            );
            let (par_dl, dl_stats) = ModelChecker::new(&tg.net)
                .with_threads(threads)
                .deadlock_free();
            assert_eq!(par_dl.holds(), seq_dl.holds(), "N={n}, threads={threads}");
            assert!(dl_stats.stored > 0);
            assert_eq!(dl_stats, seq_dl_stats, "N={n}, threads={threads}");
            assert_eq!(
                format!("{par_dl:?}"),
                format!("{seq_dl:?}"),
                "N={n}, threads={threads}: the deadlock verdict and trace must match"
            );
            assert_eq!(
                reports(threads),
                seq_reports,
                "N={n}, threads={threads}: run reports must match"
            );
        }
    }
}

#[test]
fn parallel_smc_is_run_to_run_deterministic() {
    let tg = train_gate(3);
    for threads in [1, 2, 3, 8] {
        let run = |seed: u64| {
            let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), seed).with_threads(threads);
            let p = smc.probability(&tg.cross(0), 100.0, 120, 0.95);
            let cdf = smc.cdf(&tg.cross(0), 100.0, 120);
            let grid: Vec<f64> = (1..=10).map(|k| 10.0 * k as f64).collect();
            (p, cdf.hits(), cdf.series(&grid))
        };
        let (p1, hits1, series1) = run(42);
        let (p2, hits2, series2) = run(42);
        assert_eq!(p1, p2, "threads={threads}: estimates must be bitwise equal");
        assert_eq!(hits1, hits2, "threads={threads}");
        assert_eq!(series1, series2, "threads={threads}: CDF must be identical");
        let (p3, _, _) = run(43);
        assert_ne!(
            (p1.successes, p1.runs),
            (p3.successes, usize::MAX),
            "sanity: a different seed still runs"
        );
    }
}

#[test]
fn parallel_smc_spreads_work_and_keeps_budget() {
    // The run budget must be preserved exactly under partitioning, and the
    // merged estimate must equal the one-worker estimate: trials are
    // seeded by index, not by worker.
    let tg = train_gate(2);
    let runs = 200;
    let mut seq = StatisticalChecker::new(&tg.net, tg.rates(), 7);
    let p_seq = seq.probability(&tg.cross(0), 100.0, runs, 0.95);
    let mut par = StatisticalChecker::new(&tg.net, tg.rates(), 7).with_threads(4);
    let p_par = par.probability(&tg.cross(0), 100.0, runs, 0.95);
    assert_eq!(p_seq.runs, runs);
    assert_eq!(p_par.runs, runs, "partitioned budget must sum to the total");
    assert_eq!(
        p_seq, p_par,
        "the 4-worker estimate must equal the 1-worker estimate"
    );
    let safe = par.count_globally(&tg.safety(), 150.0, 160);
    assert_eq!(safe, 160, "mutual exclusion holds on every simulated run");
}

/// A run report with its timing fields cleared: what is left are work
/// counters, which must not depend on the worker count.
fn counters(report: &RunReport) -> RunReport {
    RunReport {
        wall_time: Duration::ZERO,
        certify_time: Duration::ZERO,
        ..report.clone()
    }
}

/// All six estimators, queried in turn on one train-gate(3) checker
/// (each query draws a fresh trial-seed stream), each as its value's
/// `Debug` rendering — exact for `f64` — plus its run report.
fn smc_estimators(tg: &TrainGate, threads: usize) -> Vec<(String, RunReport)> {
    let unlimited = Budget::unlimited();
    let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 42).with_threads(threads);
    let p = smc
        .probability_governed(&tg.cross(0), 100.0, 120, 0.95, &unlimited)
        .expect("valid parameters");
    let h = smc.hypothesis_governed(&tg.cross(1), 60.0, 0.5, 0.1, 0.01, 0.01, 500, &unlimited);
    let e = smc
        .expected_governed(100.0, 120, |run| run.duration(), &unlimited)
        .expect("valid parameters");
    let c = smc.cdf_governed(&tg.cross(2), 100.0, 120, &unlimited);
    let cmp = smc.compare_governed(&tg.cross(0), &tg.cross(1), 50.0, 120, 0.05, &unlimited);
    let g = smc.count_globally_governed(&tg.safety(), 100.0, 120, &unlimited);
    vec![
        (format!("{:?}", p.value()), counters(p.report())),
        (format!("{:?}", h.value()), counters(h.report())),
        (format!("{:?}", e.value()), counters(e.report())),
        (format!("{:?}", c.value()), counters(c.report())),
        (format!("{:?}", cmp.value()), counters(cmp.report())),
        (format!("{:?}", g.value()), counters(g.report())),
    ]
}

#[test]
fn smc_estimators_are_identical_at_every_worker_count() {
    let tg = train_gate(3);
    let estimators = |threads: usize| smc_estimators(&tg, threads);
    let reference = estimators(1);
    assert_eq!(reference.len(), 6);
    for (value, report) in &reference {
        assert!(report.runs_simulated > 0, "{value}: no run was simulated");
    }
    for threads in 2..=4 {
        assert_eq!(
            estimators(threads),
            reference,
            "threads={threads}: values and run reports must equal the 1-worker run"
        );
    }
}

/// The 1-worker values and run counts of [`smc_estimators`] as computed
/// before each trial stopped at its decisive state (the first goal
/// state, or the first unsafe one). Ending a run there cannot change an
/// answer: the run up to that state is drawn from the trial's own seed
/// either way, and no estimator reads what comes after it.
const SMC_PINS: [(&str, u64); 6] = [
    // probability
    ("Some(Estimate { mean: 1.0, lower: 0.9689808335328319, upper: 0.9999999999999999, runs: 120, successes: 120, confidence: 0.95 })", 120),
    // hypothesis
    ("(AcceptH0, 12)", 12),
    // expected
    ("Some(MeanEstimate { mean: 100.0, std_dev: 7.59602135964384e-15, runs: 120 })", 120),
    // cdf
    ("EmpiricalCdf { samples: [31.59732643039041, 10.320839854505973, 32.73087315073699, 20.957045853734535, 21.27283308600499, 20.78943379501056, 10.332354518614045, 10.323600654504006, 31.96082686979239, 21.10173895744101, 21.017206585971678, 21.681421593717303, 10.57144522990961, 24.04827776568593, 20.970874120605824, 10.214669473116075, 21.330311910271128, 32.26392228476868, 21.47625047376977, 10.358160901251999, 32.6523566785612, 10.249332526495786, 10.04471767434622, 21.751075693325596, 21.821999319974676, 10.317037590880904, 10.685481076537284, 32.258968239781204, 10.398581979080273, 20.650940579738087, 21.440662412040822, 21.010117122361915, 21.173625753750635, 10.561389816312795, 10.607375787847607, 10.281826957667285, 32.348486036374794, 10.745023633693453, 20.89340535638095, 21.467249029100984, 10.803693603130505, 32.084800530979535, 10.665333417785217, 20.68139206828741, 10.49372540726893, 10.6695804646316, 10.400692102572412, 21.355227178989956, 10.60579171901373, 32.85896603059357, 10.269390406907949, 21.28012270212275, 10.545830531146418, 10.362490458918568, 20.37455049956076, 10.30572381029147, 20.754297695861542, 31.432509206249154, 11.047227228672202, 21.15070955322131, 11.433236099998688, 10.548186048926137, 21.306755638798283, 11.137660623303114, 10.095598260301868, 20.66517386720834, 11.240671768425889, 11.054113111918024, 20.50551329425438, 21.785318586029117, 21.51987509257131, 10.584143293694304, 32.860280230817274, 10.61938271331023, 21.1973608199663, 32.562053750575835, 10.084335973859147, 34.225642956000996, 10.19114324830534, 10.031644701138376, 10.170061099997339, 10.353999918183696, 10.310677744024732, 31.442222011446454, 31.81976684801407, 10.856984292914884, 32.70198217984214, 31.56611593893524, 31.544258083402248, 10.210738432366764, 33.09023396908238, 10.282075583367753, 10.937682033562208, 10.0922896633556, 10.768902264857298, 10.286582347924611, 20.963330782365958, 32.87814821795293, 10.49480325086671, 21.13877868776563, 11.3915418504179, 10.777980407513011, 10.073075882240639, 21.52841085446279, 10.14314665880481, 22.231737046097393, 20.3303974480295, 20.678096835089022, 22.102256262972276, 32.17019867252738, 10.771307612178305, 32.23394649763719, 10.310692599845328, 32.827592365005216, 11.496695867724913, 10.24041911022512, 32.324760062578186, 10.23954140809603, 21.09998278221916, 20.5469765492146], population: 120 }", 120),
    // compare
    ("(Equal, 1.0, 1.0)", 120),
    // count_globally
    ("120", 120),
];

#[test]
fn smc_estimates_match_pinned_values() {
    let tg = train_gate(3);
    let got: Vec<(String, u64)> = smc_estimators(&tg, 1)
        .into_iter()
        .map(|(value, report)| (value, report.runs_simulated))
        .collect();
    let pinned: Vec<(String, u64)> = SMC_PINS
        .iter()
        .map(|&(value, runs)| (value.to_owned(), runs))
        .collect();
    assert_eq!(got, pinned);
    // Every run above is safe; here some runs reach the unsafe state
    // (train 0 crossing before t = 30) and end there.
    let safe = StatisticalChecker::new(&tg.net, tg.rates(), 42).count_globally(
        &StateFormula::not(tg.cross(0)),
        30.0,
        120,
    );
    assert_eq!(safe, 68);
}

#[test]
fn parallel_game_solver_matches_sequential() {
    let g = train_gate_game(2);
    let unlimited = Budget::unlimited();
    // Both games: verdict, graph size, the strategy's sorted rendering
    // and the run report (sweeps included).
    let solve = |threads: usize| {
        let solver = GameSolver::new(&g.net).with_threads(threads);
        [
            solver.solve_safety_governed(&g.collision(), &unlimited),
            solver.solve_reachability_governed(&g.collision(), &unlimited),
        ]
        .map(|out| {
            let r = out.value();
            (
                r.winning,
                r.states,
                r.strategy.to_string(),
                counters(out.report()),
            )
        })
    };
    let reference = solve(1);
    let [safety, reach] = &reference;
    assert!(safety.0, "the controller wins the safety game");
    assert_eq!((safety.1, safety.3.sweeps), (13_035, 10));
    assert_eq!(reach.3.sweeps, 5);
    for threads in 2..=4 {
        assert_eq!(
            solve(threads),
            reference,
            "threads={threads}: games must equal the 1-worker solve"
        );
    }
}
