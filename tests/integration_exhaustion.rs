//! Exhaustion test suite: every engine, a tiny model, and starvation
//! budgets (one state, one iteration, one millisecond, zero runs). Each
//! call must return `Outcome::Exhausted` with a well-formed partial
//! answer and run report — never panic, hang, or claim a definitive
//! verdict it did not earn. With an unlimited budget every entry point
//! must complete, with a pinned value.

use std::time::Duration;
use tempo_core::expr::Expr;
use tempo_core::obs::{Budget, ExhaustionReason, ExploreConfig, Outcome, RunReport};
use tempo_core::ta::{ClockAtom, ModelChecker, Network, NetworkBuilder, StateFormula, Verdict};

/// A report produced under a starvation budget must stay internally
/// consistent: storage within the state budget and wall time recorded.
fn assert_well_formed(report: &RunReport, state_budget: Option<u64>) {
    if let Some(max) = state_budget {
        assert!(
            report.states_stored <= max,
            "stored {} states under a budget of {max}",
            report.states_stored
        );
    }
    assert!(report.wall_time <= Duration::from_secs(60));
}

/// The lamp network from the quickstart: Off -> On (x := 0), On -> Off
/// once x >= 1, with On's invariant forcing the dimmer within 5.
fn lamp() -> (
    Network,
    tempo_core::ta::AutomatonId,
    tempo_core::ta::LocationId,
) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut lamp = b.automaton("Lamp");
    let off = lamp.location("Off");
    let on = lamp.location_with_invariant("On", vec![ClockAtom::le(x, 5)]);
    lamp.edge(off, on).reset(x, 0).done();
    lamp.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
    let lamp_id = lamp.done();
    (b.build(), lamp_id, on)
}

#[test]
fn ta_reachability_exhausts_gracefully() {
    let (net, aid, on) = lamp();
    let goal = StateFormula::at(aid, on);
    let mut mc = ModelChecker::new(&net);
    let out = mc
        .try_reachable_governed(&goal, &Budget::unlimited().with_max_states(1))
        .unwrap();
    assert_eq!(out.exhaustion(), Some(ExhaustionReason::States));
    assert!(
        !out.value().reachable,
        "a truncated search must not claim reachability without a witness"
    );
    assert_well_formed(out.report(), Some(1));
}

#[test]
fn ta_always_exhausted_is_not_a_proof() {
    let (net, aid, on) = lamp();
    let mut mc = ModelChecker::new(&net);
    let safe = StateFormula::not(StateFormula::at(aid, on));
    let out = mc
        .try_always_governed(&safe, &Budget::unlimited().with_max_states(1))
        .unwrap();
    assert!(out.is_exhausted());
    // The partial verdict reads "no violation found so far" — the
    // exhaustion marker is what prevents it being read as a proof.
    assert_well_formed(out.report(), Some(1));
}

#[test]
fn ta_zero_wall_clock_deadline_expires() {
    let (net, aid, on) = lamp();
    let mut mc = ModelChecker::new(&net);
    let out = mc
        .try_reachable_governed(
            &StateFormula::at(aid, on),
            &Budget::unlimited().with_wall_time(Duration::ZERO),
        )
        .unwrap();
    assert!(out.is_exhausted());
    assert!(!out.value().reachable);
}

#[test]
fn ta_liveness_and_deadlock_respect_budgets() {
    let (net, aid, on) = lamp();
    let budget = Budget::unlimited().with_max_states(1);
    let out = tempo_core::ta::leads_to_governed(
        &net,
        &StateFormula::at(aid, on),
        &StateFormula::not(StateFormula::at(aid, on)),
        &budget,
    );
    assert!(out.is_exhausted());
    assert_well_formed(out.report(), Some(1));

    let mut mc = ModelChecker::new(&net);
    let out = mc.try_deadlock_free_governed(&budget).unwrap();
    assert!(out.is_exhausted());
    let (verdict, _) = out.value();
    assert!(
        matches!(verdict, Verdict::Satisfied),
        "no deadlock may be reported without a concrete witness"
    );
}

#[test]
fn cora_min_cost_exhausts_without_a_bogus_cost() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("Job");
    let start = a.location("Start");
    let done = a.location("Done");
    a.edge(start, done).guard_clock(ClockAtom::ge(x, 2)).done();
    let job = a.done();
    let net = b.build();
    let priced = tempo_core::cora::PricedNetwork::new(net);
    let out = priced.min_cost_reach_governed(
        &StateFormula::at(job, done),
        &Budget::unlimited().with_max_states(1),
    );
    assert!(out.is_exhausted());
    assert!(
        out.value().is_none(),
        "a truncated cost search must not invent an optimum"
    );
    assert_well_formed(out.report(), Some(1));
}

/// The door game: the environment opens the door within 2, and the
/// controller must walk in within 1 before the environment may slam it.
/// Returns the network, the goal `Inside` and the bad state `Missed`.
fn door_game() -> (Network, StateFormula, StateFormula) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("Door");
    let closed = a.location_with_invariant("Closed", vec![ClockAtom::le(x, 2)]);
    let open = a.location_with_invariant("Open", vec![ClockAtom::le(x, 1)]);
    let inside = a.location("Inside");
    let missed = a.location("Missed");
    a.edge(closed, open).reset(x, 0).uncontrollable().done();
    a.edge(open, inside).guard_clock(ClockAtom::le(x, 1)).done();
    a.edge(open, missed)
        .guard_clock(ClockAtom::ge(x, 1))
        .uncontrollable()
        .done();
    let aid = a.done();
    (
        b.build(),
        StateFormula::at(aid, inside),
        StateFormula::at(aid, missed),
    )
}

#[test]
fn tiga_games_never_claim_winning_when_starved() {
    let (net, goal, missed) = door_game();
    let solver = tempo_core::tiga::GameSolver::new(&net);

    assert!(
        solver
            .solve_reachability_governed(&goal, &Budget::unlimited())
            .into_value()
            .winning,
        "sanity: winnable"
    );

    let out = solver.solve_reachability_governed(&goal, &Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert!(
        !out.value().winning,
        "a starved game solver must not certify a winning strategy"
    );
    assert_well_formed(out.report(), Some(1));

    let out = solver.solve_safety_governed(&missed, &Budget::unlimited().with_max_iterations(0));
    assert!(out.is_exhausted());
    assert!(!out.value().winning);
}

#[test]
fn smc_zero_run_budget_reports_exhaustion() {
    let (net, aid, on) = lamp();
    let mut smc =
        tempo_core::smc::StatisticalChecker::new(&net, tempo_core::smc::RatePolicy::new(), 7);
    let goal = StateFormula::at(aid, on);
    let out = smc
        .probability_governed(
            &goal,
            10.0,
            100,
            0.95,
            &Budget::unlimited().with_max_runs(0),
        )
        .expect("valid parameters");
    assert_eq!(out.exhaustion(), Some(ExhaustionReason::Runs));
    assert!(out.value().is_none(), "zero runs yields no estimate");
    assert_eq!(out.report().runs_simulated, 0);

    // A partial run budget still yields an estimate over completed runs.
    let out = smc
        .probability_governed(
            &goal,
            10.0,
            100,
            0.95,
            &Budget::unlimited().with_max_runs(5),
        )
        .expect("valid parameters");
    assert!(out.is_exhausted());
    assert!(out.value().is_some());
    assert_eq!(out.report().runs_simulated, 5);
}

#[test]
fn mdp_value_iteration_stops_at_the_sweep_budget() {
    let mut b = tempo_core::mdp::MdpBuilder::new();
    let s0 = b.add_state();
    let heads = b.add_state();
    let tails = b.add_state();
    b.add_action(s0, None, 1.0, vec![(heads, 0.5), (tails, 0.5)])
        .unwrap();
    let mdp = b.build(s0).unwrap();
    let mut goal = vec![false; mdp.num_states()];
    goal[heads.0] = true;

    let out = tempo_core::mdp::reachability_governed(
        &mdp,
        tempo_core::mdp::Opt::Max,
        &goal,
        &Budget::unlimited().with_max_iterations(0),
    );
    assert_eq!(out.exhaustion(), Some(ExhaustionReason::Iterations));
    let v = out.value().initial_value;
    assert!(
        (0.0..=1.0).contains(&v),
        "partial value stays a probability"
    );
    assert!(
        v <= 0.5 + 1e-9,
        "value iteration from below must not overshoot the fixpoint"
    );
}

/// A coffee machine that serves within `[2, deadline]` of a coin.
fn coffee_machine(name: &str, deadline: i64) -> tempo_core::ecdar::Tioa {
    let mut b = tempo_core::ecdar::TioaBuilder::new(name);
    let x = b.clock("x");
    let idle = b.location("Idle");
    let busy =
        b.location_with_invariant("Busy", vec![tempo_core::ecdar::TioaAtom::le(x, deadline)]);
    b.input(idle, busy, "coin").reset(x).done();
    b.output(busy, idle, "coffee")
        .guard(tempo_core::ecdar::TioaAtom::ge(x, 2))
        .done();
    b.build()
}

#[test]
fn ecdar_refinement_exhausted_is_not_a_verdict() {
    let spec = coffee_machine("Spec", 5);

    let out =
        tempo_core::ecdar::refines_governed(&spec, &spec, &Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert!(
        out.value().is_ok(),
        "a truncated product exploration must not fabricate a refinement error"
    );
    // The refinement explorer may overshoot the state budget by one
    // pair's out-degree (interning stays consistent with the obligation
    // lists), so only the generic well-formedness applies here.
    assert_well_formed(out.report(), None);

    let out = tempo_core::ecdar::find_inconsistency_governed(
        &spec,
        &Budget::unlimited().with_max_states(1),
    );
    assert!(out.is_exhausted());
    assert!(out.value().is_none());
}

/// One BIP component that alternates between two states forever.
fn ping() -> tempo_core::bip::BipSystem {
    let mut b = tempo_core::bip::BipSystemBuilder::new();
    let mut ping = b.component("Ping");
    let p0 = ping.state("P0");
    let p1 = ping.state("P1");
    let hello = ping.port("hello");
    let back = ping.port("back");
    ping.transition(p0, p1, hello);
    ping.transition(p1, p0, back);
    ping.done();
    b.rendezvous("go", &[hello]);
    b.rendezvous("return", &[back]);
    b.build()
}

#[test]
fn bip_exploration_truncates_instead_of_panicking() {
    let sys = ping();

    let out = sys.reachable_states_governed(&Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert_eq!(out.value().len(), 1);
    assert_well_formed(out.report(), Some(1));

    let out = sys.find_deadlock_with(
        ExploreConfig::default(),
        &Budget::unlimited().with_max_states(1),
    );
    assert!(out.is_exhausted());
    assert!(
        out.value().is_none(),
        "a deadlock verdict requires actually popping a stuck state"
    );

    let out = tempo_core::bip::check_deadlock_freedom_governed(
        &sys,
        &Budget::unlimited().with_max_iterations(0),
    );
    assert!(out.is_exhausted());
    assert!(
        matches!(out.value(), tempo_core::bip::DfinderVerdict::Unknown { .. }),
        "a starved D-Finder run must stay inconclusive"
    );
}

#[test]
fn modest_backends_exhaust_gracefully() {
    let (pta, _, fired) = weighted_shot();
    let goal = StateFormula::data(Expr::var(fired).eq(Expr::konst(1)));

    // mcpta: a starved digital-clocks construction yields no MDP at all.
    let out =
        tempo_core::modest::Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert!(
        out.value().is_none(),
        "a truncated MDP would silently distort every probability"
    );
    assert_well_formed(out.report(), Some(1));

    // mctau: exhaustion keeps the trivial (sound) probability bounds.
    let mctau = tempo_core::modest::Mctau::new(&pta);
    let out = mctau.probability_bounds_governed(&goal, &Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    let bounds = out.value();
    assert!(
        (bounds.lower, bounds.upper) == (0.0, 1.0),
        "an exhausted bound computation must stay trivially sound"
    );

    // modes: a zero-run budget completes no runs and says so.
    let mut modes =
        tempo_core::modest::Modes::new(&pta, &[], tempo_core::modest::Scheduler::Asap, 3);
    let out = modes.observe_governed(
        50,
        10,
        100,
        |exp, run| run.first_hit(exp, &goal).is_some(),
        &Budget::unlimited().with_max_runs(0),
    );
    assert_eq!(out.exhaustion(), Some(ExhaustionReason::Runs));
    assert_eq!(out.value().runs, 0);
    assert_eq!(out.report().runs_simulated, 0);
}

/// What each entry point below returns under `Budget::unlimited()`, in
/// the order the test computes it. These are the values the deleted
/// functions that fixed an unlimited budget (or a state, iteration or
/// candidate cap these models never reach) returned on the same models;
/// each line is named after the function it replaces.
const UNLIMITED_PINS: &[(&str, &str)] = &[
    ("always_holds", "true (2, 2)"),
    ("always_fails", "false (2, 2)"),
    ("reachable_states", "2 (2, 2)"),
    ("leads_to", "true (2, 2)"),
    ("certified_reachable", "true 1 false"),
    (
        "smc_probability",
        "(78, 100, 0.78, 0.6892964647706425, 0.8499871762012778)",
    ),
    ("smc_hypothesis", "(AcceptH0, 21)"),
    ("smc_expected", "(6.24, 1.422190656215355, 100)"),
    ("smc_cdf", "(78, 0.41, 0.65)"),
    ("smc_compare", "(Less, 0.78, 1.0)"),
    ("smc_count_globally", "22"),
    (
        "rare_probability",
        "(0.3359375, 0.26331688421841865, 0.42858628014388456, 128)",
    ),
    ("min_cost_reach", "Some(7)"),
    ("max_cost_reach", "Some(Bounded(13))"),
    ("max_time_reach", "Some(Bounded(4))"),
    ("min_time_reach", "Some(2)"),
    (
        "cost_probability",
        "(47, 100, 0.47, 0.3751081795205919, 0.5671114303752739)",
    ),
    (
        "expected_cost",
        "(10.036324404521011, 1.8166728399149696, 100)",
    ),
    ("cost_cdf", "(100, 0.34, 0.66)"),
    ("solve_reachability", "(true, 12, 8)"),
    ("solve_safety", "(true, 12, 8)"),
    ("reachability Max", "1.0"),
    ("bounded_reachability Max", "0.75"),
    ("expected_reward Max", "inf"),
    ("interval_reachability Max", "(1.0, 1.0)"),
    ("reachability Min", "0.5"),
    ("bounded_reachability Min", "0.5"),
    ("expected_reward Min", "1.0"),
    ("interval_reachability Min", "(0.5, 0.5)"),
    ("refines", "Ok(())"),
    (
        "refines_lazy",
        "Err([\"coin?\", \"tick\", \"tick\", \"tick\", \"tick\", \"tick\"])",
    ),
    ("find_inconsistency", "None"),
    ("bip_reachable_states", "2"),
    ("bip_find_deadlock", "None"),
    (
        "check_deadlock_freedom",
        "DeadlockFree { candidates: 0, eliminated_by_traps: 0 }",
    ),
    (
        "mcpta_build",
        "McptaStats { states: 7, actions: 9, transitions: 11 }",
    ),
    ("pmax", "0.25"),
    ("pmin", "0.0"),
    ("emax_time", "inf"),
    ("emin_time", "1.0"),
    ("pmax_bounded", "0.25"),
    ("mctau_check_invariant", "false"),
    (
        "mctau_probability_bounds",
        "ProbabilityBounds { lower: 0.0, upper: 1.0 }",
    ),
    ("modes_observe", "(18, 50, 0.36, 0.48)"),
    ("modes_expected", "(50, 50, 10.0, 0.0)"),
];

/// The value of an outcome that must be `Complete`.
fn complete<T>(out: Outcome<T>) -> T {
    assert!(
        matches!(out, Outcome::Complete { .. }),
        "an unlimited budget must not exhaust: {:?}",
        out.exhaustion()
    );
    out.into_value()
}

#[test]
fn unlimited_budgets_always_complete() {
    use tempo_core::mdp::Opt;
    use tempo_core::smc::{RatePolicy, StatisticalChecker};
    let unlimited = Budget::unlimited();
    let mut got: Vec<(&str, String)> = Vec::new();

    // Zone engine on the lamp.
    let (net, aid, on) = lamp();
    let at_on = StateFormula::at(aid, on);
    let not_on = StateFormula::not(at_on.clone());
    let mut mc = ModelChecker::new(&net);
    let out = mc.try_reachable_governed(&at_on, &unlimited).unwrap();
    assert!(out.report().states_stored > 0);
    assert!(complete(out).reachable);
    for (name, safe) in [
        ("always_holds", StateFormula::True),
        ("always_fails", not_on.clone()),
    ] {
        let (v, s) = complete(mc.try_always_governed(&safe, &unlimited).unwrap());
        got.push((name, format!("{} {:?}", v.holds(), (s.explored, s.stored))));
    }
    let (states, s) = complete(mc.reachable_states_governed(&unlimited));
    let line = format!("{} {:?}", states.len(), (s.explored, s.stored));
    got.push(("reachable_states", line));
    let out = tempo_core::ta::leads_to_governed(&net, &at_on, &not_on, &unlimited);
    let (v, s) = complete(out);
    got.push((
        "leads_to",
        format!("{} {:?}", v.holds(), (s.explored, s.stored)),
    ));
    let (out, cert) = tempo_core::witness::certify::certified_reachable_with(
        &net,
        &at_on,
        ExploreConfig::default(),
        &unlimited,
    )
    .unwrap();
    let exhausted = out.is_exhausted();
    let steps = cert.map_or(0, |c| c.trace.steps.len());
    let line = format!("{} {steps} {exhausted}", complete(out).reachable);
    got.push(("certified_reachable", line));

    // Simulation on the lamp: a fresh checker per query, seed 7.
    let smc = || StatisticalChecker::new(&net, RatePolicy::new(), 7);
    let out = smc().probability_governed(&at_on, 1.5, 100, 0.95, &unlimited);
    let e = complete(out.unwrap()).unwrap();
    let line = format!("{:?}", (e.successes, e.runs, e.mean, e.lower, e.upper));
    got.push(("smc_probability", line));
    let out = smc().hypothesis_governed(&at_on, 1.5, 0.5, 0.05, 0.05, 0.05, 1000, &unlimited);
    got.push(("smc_hypothesis", format!("{:?}", complete(out))));
    let steps = |run: &tempo_core::smc::Run| run.steps.len() as f64;
    let out = smc().expected_governed(10.0, 100, steps, &unlimited);
    let m = complete(out.unwrap()).unwrap();
    got.push(("smc_expected", format!("{:?}", (m.mean, m.std_dev, m.runs))));
    let c = complete(smc().cdf_governed(&at_on, 1.5, 100, &unlimited));
    got.push(("smc_cdf", format!("{:?}", (c.hits(), c.at(0.5), c.at(1.0)))));
    let out = smc().compare_governed(&at_on, &not_on, 1.5, 100, 0.1, &unlimited);
    got.push(("smc_compare", format!("{:?}", complete(out))));
    let out = smc().count_globally_governed(&not_on, 1.5, 100, &unlimited);
    got.push(("smc_count_globally", format!("{:?}", complete(out))));
    let config = tempo_core::rare::SplitConfig::default();
    let out = tempo_core::rare::RareChecker::new(&net, RatePolicy::new(), 7)
        .probability_governed(&at_on, 0.5, &config, &unlimited);
    let r = complete(out.unwrap()).unwrap();
    let line = format!("{:?}", (r.p_hat, r.lower, r.upper, r.runs_total));
    got.push(("rare_probability", line));

    // Costs on a job that must finish within [2, 4], paying 3 per time
    // unit and 1 to finish.
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("Job");
    let start = a.location_with_invariant("Start", vec![ClockAtom::le(x, 4)]);
    let done = a.location("Done");
    a.edge(start, done).guard_clock(ClockAtom::ge(x, 2)).done();
    let job = a.done();
    let mut priced = tempo_core::cora::PricedNetwork::new(b.build());
    priced.set_rate(job, start, 3);
    priced.set_edge_cost(job, 0, 1);
    let finished = StateFormula::at(job, done);
    let min_cost = complete(priced.min_cost_reach_governed(&finished, &unlimited));
    got.push(("min_cost_reach", format!("{:?}", min_cost.map(|r| r.cost))));
    let out = priced.max_cost_reach_governed(&finished, &unlimited);
    got.push(("max_cost_reach", format!("{:?}", complete(out))));
    let out = priced.max_time_reach_governed(&finished, &unlimited);
    got.push(("max_time_reach", format!("{:?}", complete(out))));
    let out = priced.min_time_reach_governed(&finished, &unlimited);
    got.push(("min_time_reach", format!("{:?}", complete(out))));
    let pc = || tempo_core::rare::PricedChecker::new(&priced, RatePolicy::new(), 7);
    let out = pc().cost_probability_governed(&finished, 10.0, 10.0, 100, 0.95, &unlimited);
    let e = complete(out.unwrap()).unwrap();
    let line = format!("{:?}", (e.successes, e.runs, e.mean, e.lower, e.upper));
    got.push(("cost_probability", line));
    let m = complete(pc().expected_cost_governed(10.0, 100, &unlimited).unwrap()).unwrap();
    got.push((
        "expected_cost",
        format!("{:?}", (m.mean, m.std_dev, m.runs)),
    ));
    let c = complete(pc().cost_cdf_governed(&finished, 10.0, 100, &unlimited));
    got.push((
        "cost_cdf",
        format!("{:?}", (c.hits(), c.at(9.0), c.at(11.0))),
    ));

    // Games.
    let (game, inside, missed) = door_game();
    let solver = tempo_core::tiga::GameSolver::new(&game);
    let r = complete(solver.solve_reachability_governed(&inside, &unlimited));
    let line = format!("{:?}", (r.winning, r.states, r.strategy.size()));
    got.push(("solve_reachability", line));
    let r = complete(solver.solve_safety_governed(&missed, &unlimited));
    got.push((
        "solve_safety",
        format!("{:?}", (r.winning, r.states, r.strategy.size())),
    ));

    // An MDP: a fair coin, where tails may flip again or stop.
    let mut b = tempo_core::mdp::MdpBuilder::new();
    let s0 = b.add_state();
    let heads = b.add_state();
    let tails = b.add_state();
    b.add_action(s0, None, 1.0, vec![(heads, 0.5), (tails, 0.5)])
        .unwrap();
    b.add_action(tails, None, 1.0, vec![(s0, 1.0)]).unwrap();
    b.add_action(tails, None, 0.0, vec![(tails, 1.0)]).unwrap();
    let mdp = b.build(s0).unwrap();
    let mut goal = vec![false; mdp.num_states()];
    goal[heads.0] = true;
    let names = [
        [
            "reachability Max",
            "bounded_reachability Max",
            "expected_reward Max",
            "interval_reachability Max",
        ],
        [
            "reachability Min",
            "bounded_reachability Min",
            "expected_reward Min",
            "interval_reachability Min",
        ],
    ];
    for (opt, [reach, bounded, reward, interval]) in [Opt::Max, Opt::Min].into_iter().zip(names) {
        let out = tempo_core::mdp::reachability_governed(&mdp, opt, &goal, &unlimited);
        got.push((reach, format!("{:?}", complete(out).initial_value)));
        let out = tempo_core::mdp::bounded_reachability_governed(&mdp, opt, &goal, 3, &unlimited);
        got.push((bounded, format!("{:?}", complete(out).initial_value)));
        let out = tempo_core::mdp::expected_reward_governed(&mdp, opt, &goal, &unlimited);
        got.push((reward, format!("{:?}", complete(out).initial_value)));
        let out =
            tempo_core::mdp::interval_reachability_governed(&mdp, opt, &goal, 1e-6, &unlimited);
        let q = complete(out);
        got.push((
            interval,
            format!("{:?}", (q.initial_lower, q.initial_upper)),
        ));
    }

    // Refinement: a machine that may take up to 9 does not refine the
    // one that serves within 5.
    let spec = coffee_machine("Spec", 5);
    let lazy = coffee_machine("Lazy", 9);
    let out = tempo_core::ecdar::refines_governed(&spec, &spec, &unlimited);
    got.push(("refines", format!("{:?}", complete(out))));
    let out = tempo_core::ecdar::refines_governed(&lazy, &spec, &unlimited);
    got.push((
        "refines_lazy",
        format!("{:?}", complete(out).map_err(|e| e.trace)),
    ));
    let out = tempo_core::ecdar::find_inconsistency_governed(&spec, &unlimited);
    got.push(("find_inconsistency", format!("{:?}", complete(out))));

    // BIP.
    let sys = ping();
    let states = complete(sys.reachable_states_governed(&unlimited));
    got.push(("bip_reachable_states", states.len().to_string()));
    let out = sys.find_deadlock_with(ExploreConfig::default(), &unlimited);
    got.push(("bip_find_deadlock", format!("{:?}", complete(out))));
    let out = tempo_core::bip::check_deadlock_freedom_governed(&sys, &unlimited);
    got.push(("check_deadlock_freedom", format!("{:?}", complete(out))));

    // MODEST: one step after time 1 hits with weight 1 against 3.
    let (pta, hit, fired) = weighted_shot();
    let goal = StateFormula::data(Expr::var(hit).eq(Expr::konst(1)));
    let finished = StateFormula::data(Expr::var(fired).eq(Expr::konst(1)));
    let mcpta = complete(tempo_core::modest::Mcpta::try_build(&pta, &[], &unlimited)).unwrap();
    got.push(("mcpta_build", format!("{:?}", mcpta.stats())));
    for (name, opt) in [("pmax", Opt::Max), ("pmin", Opt::Min)] {
        let out = mcpta.reach_quantitative(opt, &goal, &unlimited);
        got.push((name, format!("{:?}", complete(out).initial_value)));
    }
    let out = mcpta.emax_time_governed(&finished, &unlimited);
    got.push(("emax_time", format!("{:?}", complete(out))));
    let out = mcpta.emin_time_governed(&finished, &unlimited);
    got.push(("emin_time", format!("{:?}", complete(out))));
    let mask = mcpta.goal_mask(&goal);
    let out =
        tempo_core::mdp::bounded_reachability_governed(mcpta.mdp(), Opt::Max, &mask, 3, &unlimited);
    got.push(("pmax_bounded", format!("{:?}", complete(out).initial_value)));
    let mctau = tempo_core::modest::Mctau::new(&pta);
    let out = mctau.check_invariant_governed(&StateFormula::not(goal.clone()), &unlimited);
    got.push(("mctau_check_invariant", format!("{:?}", complete(out))));
    let out = mctau.probability_bounds_governed(&goal, &unlimited);
    got.push(("mctau_probability_bounds", format!("{:?}", complete(out))));
    let modes =
        || tempo_core::modest::Modes::new(&pta, &[], tempo_core::modest::Scheduler::Asap, 3);
    let out = modes().observe_governed(
        50,
        10,
        100,
        |exp, run| run.first_hit(exp, &goal).is_some(),
        &unlimited,
    );
    let o = complete(out);
    let line = format!("{:?}", (o.observations, o.runs, o.mean, o.std_dev));
    got.push(("modes_observe", line));
    let duration = |_: &_, run: &tempo_core::modest::ModesRun| run.duration() as f64;
    let o = complete(modes().expected_governed(50, 10, 100, duration, &unlimited));
    let line = format!("{:?}", (o.observations, o.runs, o.mean, o.std_dev));
    got.push(("modes_expected", line));

    let pinned: Vec<(&str, String)> = UNLIMITED_PINS
        .iter()
        .map(|&(name, value)| (name, value.to_owned()))
        .collect();
    assert_eq!(got, pinned);
}

/// A MODEST process that waits at least one time unit, then fires once:
/// with weight 1 it sets `hit`, with weight 3 it does not; both set
/// `fired`.
fn weighted_shot() -> (
    tempo_core::modest::Pta,
    tempo_core::expr::VarId,
    tempo_core::expr::VarId,
) {
    use tempo_core::modest::{Assignment, PaltBranch, Process};
    let mut m = tempo_core::modest::ModestModel::new();
    let x = m.clock("x");
    let fire = m.action("fire");
    let hit = m.decls_mut().int("hit", 0, 1);
    let fired = m.decls_mut().int("fired", 0, 1);
    let set = |v| Assignment::Var(v, Expr::konst(1));
    m.define(
        "P",
        Process::when_clock(
            ClockAtom::ge(x, 1),
            Process::palt(
                fire,
                vec![
                    PaltBranch {
                        weight: 1,
                        assignments: vec![set(hit), set(fired)],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 3,
                        assignments: vec![set(fired)],
                        then: Process::stop(),
                    },
                ],
            ),
        ),
    );
    m.system(&["P"]);
    (tempo_core::modest::compile(&m), hit, fired)
}
