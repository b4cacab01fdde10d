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
use tempo_models::{train_gate, train_gate_game};

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
                mc().always_governed(&tg.safety(), &unlimited)
                    .report()
                    .clone(),
                mc().deadlock_free_governed(&unlimited).report().clone(),
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

#[test]
fn smc_estimators_are_identical_at_every_worker_count() {
    let tg = train_gate(3);
    let unlimited = Budget::unlimited();
    // All six estimators, queried in turn on one checker (each query
    // draws a fresh trial-seed stream), each as its value's `Debug`
    // rendering — exact for `f64` — plus its run report.
    let estimators = |threads: usize| -> Vec<(String, RunReport)> {
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
    };
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
