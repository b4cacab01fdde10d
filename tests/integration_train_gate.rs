//! Integration test: the full §II.A train-gate experiment chain —
//! verification (E1), game synthesis (E2) and statistical analysis (E3)
//! — run end-to-end across `tempo-models`, `tempo-ta`, `tempo-tiga` and
//! `tempo-smc`, with the zone, game and SMC results pinned.

use tempo_core::obs::{Budget, CounterKind, RunReport};
use tempo_core::smc::StatisticalChecker;
use tempo_core::ta::{
    leads_to_governed, DigitalExplorer, Explorer, ModelChecker, Network, StateFormula, Stats, Trace,
};
use tempo_core::tiga::GameSolver;
use tempo_models::{train_gate, train_gate_game, TrainGate};

#[test]
fn e1_verification_properties_hold() {
    for n in 2..=3 {
        let tg = train_gate(n);
        let mut mc = ModelChecker::new(&tg.net);
        let (safety, _) = mc
            .try_always_governed(&tg.safety(), &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        assert!(safety.holds(), "N={n}: mutual exclusion");
        let (dl, _) = mc.deadlock_free();
        assert!(dl.holds(), "N={n}: deadlock-freedom");
        for id in 0..n {
            let (live, _) =
                leads_to_governed(&tg.net, &tg.appr(id), &tg.cross(id), &Budget::unlimited())
                    .into_value();
            assert!(live.holds(), "N={n}: Appr({id}) --> Cross({id})");
        }
    }
}

#[test]
fn e1_all_interleavings_reachable() {
    let tg = train_gate(2);
    let mut mc = ModelChecker::new(&tg.net);
    // Each train can be stopped while the other crosses.
    for (a, b) in [(0, 1), (1, 0)] {
        let f = StateFormula::and(vec![
            StateFormula::at(tg.trains[a], tg.train_locs.stop),
            StateFormula::at(tg.trains[b], tg.train_locs.cross),
        ]);
        assert!(mc.reachable(&f).reachable, "Stop({a}) with Cross({b})");
    }
}

#[test]
fn e2_synthesized_strategy_is_safe() {
    let g = train_gate_game(2);
    let solver = GameSolver::new(&g.net);
    let result = solver
        .solve_safety_governed(&g.collision(), &Budget::unlimited())
        .into_value();
    assert!(result.winning, "the safety game is winnable");
    // Closed loop exercises the strategy against eager environment moves.
    let run = solver.closed_loop(&result.strategy, 300);
    assert!(run.len() > 10, "the controlled system keeps running");
    let exp = DigitalExplorer::new(&g.net);
    for s in &run {
        assert!(
            !exp.satisfies(s, &g.collision()),
            "strategy must prevent collisions"
        );
        assert!(
            result.strategy.is_winning(s),
            "the run stays in the winning region"
        );
    }
}

#[test]
fn e3_cdf_shape_matches_fig4() {
    // Fig. 4's qualitative shape: every CDF is monotone, near 1 by t=100,
    // and the high-rate train crosses stochastically earlier than the
    // low-rate one.
    let n = 3;
    let tg = train_gate(n);
    let runs = 300;
    let grid: Vec<f64> = (1..=10).map(|k| 10.0 * k as f64).collect();
    let mut at_40 = Vec::new();
    for id in 0..n {
        let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 500 + id as u64);
        let cdf = smc
            .cdf_governed(&tg.cross(id), 100.0, runs, &Budget::unlimited())
            .into_value();
        let series = cdf.series(&grid);
        for w in series.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be monotone");
        }
        let final_p = series.last().unwrap().1;
        assert!(
            final_p > 0.9,
            "train {id} crosses by t=100 in most runs: {final_p}"
        );
        at_40.push(cdf.at(40.0));
    }
    assert!(
        at_40[n - 1] >= at_40[0] - 0.1,
        "the high-rate train is not substantially slower: {at_40:?}"
    );
}

#[test]
fn smc_safety_agrees_with_model_checker() {
    // The symbolic engine proves mutual exclusion; simulation must never
    // observe a violation either.
    let tg = train_gate(3);
    let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 9);
    let safe_runs = smc
        .count_globally_governed(&tg.safety(), 150.0, 200, &Budget::unlimited())
        .into_value();
    assert_eq!(
        safe_runs, 200,
        "no simulated run may violate mutual exclusion"
    );
}

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

/// The work counters of a run report that are not zero, as
/// `(name, value)` in declaration order: a pin on this list pins every
/// work counter.
fn nonzero_work(report: &RunReport) -> Vec<(&'static str, u64)> {
    report
        .counters()
        .filter(|&(_, v, kind)| kind == CounterKind::Work && v != 0)
        .map(|(name, v, _)| (name, v))
        .collect()
}

/// `Stats` of one zone-graph query.
fn stats(explored: usize, stored: usize, transitions: usize, sym: (usize, usize)) -> Stats {
    Stats {
        explored,
        stored,
        transitions,
        sym_orbits: sym.0,
        sym_avoided: sym.1,
        ..Stats::default()
    }
}

/// `E<> Stop(0) && Cross(1)` on train_gate(2) and train_gate(3): the
/// query's `Stats`, the non-zero work counters of its run report and its
/// witness's action sequence. The BFS order, the explored count (a hit
/// is explored) and the waiting-list peak all show in these numbers.
#[test]
fn reach_witness_matches_pinned_values() {
    let pins = [
        (
            2,
            stats(13, 14, 17, (0, 0)),
            [
                ("states_explored", 13),
                ("states_stored", 14),
                ("peak_waiting", 4),
                ("dbm_dim", 3),
                ("dbm_dim_model", 3),
                ("lu_tightened", 26),
            ],
        ),
        (
            3,
            stats(30, 43, 51, (0, 0)),
            [
                ("states_explored", 30),
                ("states_stored", 43),
                ("peak_waiting", 17),
                ("dbm_dim", 4),
                ("dbm_dim_model", 4),
                ("lu_tightened", 54),
            ],
        ),
    ];
    for (n, pinned_stats, pinned_work) in pins {
        let tg = train_gate(n);
        let goal = StateFormula::and(vec![
            StateFormula::at(tg.trains[0], tg.train_locs.stop),
            StateFormula::at(tg.trains[1], tg.train_locs.cross),
        ]);
        let out = ModelChecker::new(&tg.net)
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        let res = out.value();
        assert_eq!(res.stats, pinned_stats, "N={n}");
        assert_eq!(nonzero_work(out.report()), pinned_work, "N={n}");
        let trace = res.trace.as_ref().expect("the goal is reachable");
        assert_eq!(
            trace.action_summary(),
            "appr[1] → appr[0] → stop[0] → tau(a1, e1)",
            "N={n}"
        );
        assert_valid_witness(&tg.net, trace, &goal);
    }
}

/// `A[]` mutual exclusion and `A[] not deadlock` on train_gate(2) and
/// train_gate(3): both hold, with these `Stats` and non-zero work
/// counters (the waiting-list peak included).
#[test]
fn safety_and_deadlock_match_pinned_values() {
    type Pin = (Stats, &'static [(&'static str, u64)]);
    let pins: [(usize, Pin, Pin); 2] = [
        (
            2,
            (
                stats(29, 27, 38, (0, 0)),
                &[
                    ("states_explored", 29),
                    ("states_stored", 27),
                    ("peak_waiting", 4),
                    ("dbm_dim", 3),
                    ("dbm_dim_model", 3),
                    ("lu_tightened", 26),
                ],
            ),
            (
                stats(35, 35, 46, (0, 0)),
                &[
                    ("states_explored", 35),
                    ("states_stored", 35),
                    ("peak_waiting", 6),
                    ("dbm_dim", 3),
                    ("dbm_dim_model", 3),
                ],
            ),
        ),
        (
            3,
            (
                stats(98, 80, 138, (1, 19)),
                &[
                    ("states_explored", 98),
                    ("states_stored", 80),
                    ("peak_waiting", 14),
                    ("dbm_dim", 4),
                    ("dbm_dim_model", 4),
                    ("sym_orbits", 1),
                    ("sym_states_avoided", 19),
                    ("lu_tightened", 54),
                ],
            ),
            (
                stats(170, 148, 253, (1, 23)),
                &[
                    ("states_explored", 170),
                    ("states_stored", 148),
                    ("peak_waiting", 27),
                    ("dbm_dim", 4),
                    ("dbm_dim_model", 4),
                    ("sym_orbits", 1),
                    ("sym_states_avoided", 23),
                ],
            ),
        ),
    ];
    let unlimited = Budget::unlimited();
    for (n, safety, deadlock) in pins {
        let tg = train_gate(n);
        let out = ModelChecker::new(&tg.net)
            .try_always_governed(&tg.safety(), &unlimited)
            .expect("in-memory store");
        assert!(out.value().0.holds(), "N={n}: mutual exclusion");
        assert_eq!(
            (out.value().1, nonzero_work(out.report()).as_slice()),
            safety,
            "N={n}: A[] safety"
        );
        let out = ModelChecker::new(&tg.net)
            .try_deadlock_free_governed(&unlimited)
            .expect("in-memory store");
        assert!(out.value().0.holds(), "N={n}: deadlock freedom");
        assert_eq!(
            (out.value().1, nonzero_work(out.report()).as_slice()),
            deadlock,
            "N={n}: A[] not deadlock"
        );
    }
}

/// Both train_gate_game(2) games: the controller wins the safety game
/// on 13 035 states in 10 sweeps, and the reachability game takes 5.
#[test]
fn game_solver_matches_pinned_values() {
    let g = train_gate_game(2);
    let unlimited = Budget::unlimited();
    let solver = GameSolver::new(&g.net);
    let safety = solver.solve_safety_governed(&g.collision(), &unlimited);
    assert!(
        safety.value().winning,
        "the controller wins the safety game"
    );
    assert_eq!(
        (safety.value().states, safety.report().sweeps),
        (13_035, 10)
    );
    let reach = solver.solve_reachability_governed(&g.collision(), &unlimited);
    assert_eq!(reach.report().sweeps, 5);
}

/// All six estimators, queried in turn on one train-gate(3) checker
/// (each query draws a fresh trial-seed stream), each as its value's
/// `Debug` rendering — exact for `f64` — and its simulated run count.
fn smc_estimators(tg: &TrainGate) -> Vec<(String, u64)> {
    let unlimited = Budget::unlimited();
    let mut smc = StatisticalChecker::new(&tg.net, tg.rates(), 42);
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
        (format!("{:?}", p.value()), p.report().runs_simulated),
        (format!("{:?}", h.value()), h.report().runs_simulated),
        (format!("{:?}", e.value()), e.report().runs_simulated),
        (format!("{:?}", c.value()), c.report().runs_simulated),
        (format!("{:?}", cmp.value()), cmp.report().runs_simulated),
        (format!("{:?}", g.value()), g.report().runs_simulated),
    ]
}

/// The values and run counts of [`smc_estimators`] as computed
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
    let pinned: Vec<(String, u64)> = SMC_PINS
        .iter()
        .map(|&(value, runs)| (value.to_owned(), runs))
        .collect();
    assert_eq!(smc_estimators(&tg), pinned);
    // Every run above is safe; here some runs reach the unsafe state
    // (train 0 crossing before t = 30) and end there.
    let safe = StatisticalChecker::new(&tg.net, tg.rates(), 42)
        .count_globally_governed(
            &StateFormula::not(tg.cross(0)),
            30.0,
            120,
            &Budget::unlimited(),
        )
        .into_value();
    assert_eq!(safe, 68);
}
