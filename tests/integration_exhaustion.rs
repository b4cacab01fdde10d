//! Exhaustion test suite: every engine, a tiny model, and starvation
//! budgets (one state, one iteration, one millisecond, zero runs). Each
//! call must return `Outcome::Exhausted` with a well-formed partial
//! answer and run report — never panic, hang, or claim a definitive
//! verdict it did not earn.

use std::time::Duration;
use tempo_core::obs::{Budget, ExhaustionReason, Outcome, RunReport};
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

#[test]
fn tiga_games_never_claim_winning_when_starved() {
    // The door game: controller can win with an unlimited budget.
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
    let net = b.build();
    let solver = tempo_core::tiga::GameSolver::new(&net);
    let goal = StateFormula::at(aid, inside);

    assert!(solver.solve_reachability(&goal).winning, "sanity: winnable");

    let out = solver.solve_reachability_governed(&goal, &Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert!(
        !out.value().winning,
        "a starved game solver must not certify a winning strategy"
    );
    assert_well_formed(out.report(), Some(1));

    let out = solver.solve_safety_governed(
        &StateFormula::at(aid, missed),
        &Budget::unlimited().with_max_iterations(0),
    );
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

#[test]
fn ecdar_refinement_exhausted_is_not_a_verdict() {
    let mut b = tempo_core::ecdar::TioaBuilder::new("Spec");
    let x = b.clock("x");
    let idle = b.location("Idle");
    let busy = b.location_with_invariant("Busy", vec![tempo_core::ecdar::TioaAtom::le(x, 5)]);
    b.input(idle, busy, "coin").reset(x).done();
    b.output(busy, idle, "coffee")
        .guard(tempo_core::ecdar::TioaAtom::ge(x, 2))
        .done();
    let spec = b.build();

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

#[test]
fn bip_exploration_truncates_instead_of_panicking() {
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
    let sys = b.build();

    let out = sys.reachable_states_governed(&Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert_eq!(out.value().len(), 1);
    assert_well_formed(out.report(), Some(1));

    let out = sys.find_deadlock_governed(&Budget::unlimited().with_max_states(1));
    assert!(out.is_exhausted());
    assert!(
        out.value().is_none(),
        "a deadlock verdict requires actually popping a stuck state"
    );

    let out = tempo_core::bip::check_deadlock_freedom_governed(
        &sys,
        1_000,
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
    // A one-action PTA via the MODEST frontend.
    let mut m = tempo_core::modest::ModestModel::new();
    let x = m.clock("x");
    let fire = m.action("fire");
    let done = m.decls_mut().int("done", 0, 1);
    m.define(
        "P",
        tempo_core::modest::Process::when_clock(
            ClockAtom::ge(x, 1),
            tempo_core::modest::Process::palt(
                fire,
                vec![tempo_core::modest::PaltBranch {
                    weight: 1,
                    assignments: vec![tempo_core::modest::Assignment::Var(
                        done,
                        tempo_core::expr::Expr::konst(1),
                    )],
                    then: tempo_core::modest::Process::stop(),
                }],
            ),
        ),
    );
    m.system(&["P"]);
    let pta = tempo_core::modest::compile(&m);

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
    let goal =
        StateFormula::data(tempo_core::expr::Expr::var(done).eq(tempo_core::expr::Expr::konst(1)));
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

#[test]
fn unlimited_budgets_always_complete() {
    let (net, aid, on) = lamp();
    let mut mc = ModelChecker::new(&net);
    let out = mc
        .try_reachable_governed(&StateFormula::at(aid, on), &Budget::unlimited())
        .unwrap();
    assert!(matches!(out, Outcome::Complete { .. }));
    assert!(out.value().reachable);
    assert!(out.report().states_stored > 0);
}
