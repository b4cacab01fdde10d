//! Cross-engine witness and certificate integration tests.
//!
//! Every verdict-producing engine must return a certificate that the
//! independent replay validator accepts on the paper models, and
//! deliberately mutated certificates (wrong delay, wrong cost,
//! incomplete strategy, wrong scheduler value) must be rejected with
//! typed errors. Certificates also round-trip through the text format,
//! and a set of golden certificate files pins the exact serialized
//! output (regenerate with `TEMPO_BLESS=1 cargo test`).

use std::path::PathBuf;

use tempo_core::cora::PricedNetwork;
use tempo_core::mdp::Opt;
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::{AutomatonId, ClockAtom, LocationId, NetworkBuilder, StateFormula, Verdict};
use tempo_core::tiga::GameSolver;
use tempo_core::witness::certify::{
    certified_leads_to, certified_mcpta_reach, certified_mdp_reachability, certified_min_cost,
    certified_probability, certified_reach_game, certified_reachable_with, certified_safety_game,
    Certificate,
};
use tempo_core::witness::{format, WitnessError};
use tempo_models::{brp, train_gate, train_gate_game, wcet_program};

/// Compares `text` against the golden file `tests/golden/<name>`, or
/// rewrites the file when `TEMPO_BLESS` is set.
fn check_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("TEMPO_BLESS").is_some() {
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {name}; bless with TEMPO_BLESS=1"));
    assert_eq!(golden, text, "golden certificate {name} drifted");
}

/// Renders, parses back, and checks the round-trip is exact (certificate
/// text is canonical: rendering the parse reproduces the input).
fn round_trip(net: &tempo_core::ta::Network, cert: &Certificate) -> Certificate {
    let text = format::render(cert);
    let parsed = format::parse(net, &text).expect("parse rendered certificate");
    assert_eq!(format::render(&parsed), text, "round-trip must be exact");
    parsed
}

// ---------------------------------------------------------------------
// Reachability (UPPAAL engine)
// ---------------------------------------------------------------------

#[test]
fn reachability_certificate_on_train_gate() {
    let tg = train_gate(2);
    let goal = tg.cross(0);
    let (out, cert) = certified_reachable_with(
        &tg.net,
        &goal,
        ExploreConfig::default(),
        &Budget::unlimited(),
    )
    .expect("certification");
    assert!(out.value().reachable, "train 0 can cross");
    let cert = cert.expect("reachable verdicts carry a witness");
    assert!(out.report().certificate_bytes > 0, "report records size");

    // The certificate survives serialization and still validates.
    let parsed = round_trip(&tg.net, &Certificate::Trace(cert.clone()));
    check_golden("train_gate_reach.cert", &format::render(&parsed));
    let Certificate::Trace(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed
        .validate(&tg.net, &goal)
        .expect("parsed witness validates");

    // The symbolic trace has a Display rendering (satellite: Display).
    let shown = out.value().trace.as_ref().expect("trace").to_string();
    assert!(shown.contains("-->"), "Display shows steps: {shown}");

    // Mutations are rejected with typed errors.
    let mut neg = cert.clone();
    neg.trace.steps[0].delay = -1;
    assert!(
        matches!(
            neg.validate(&tg.net, &goal),
            Err(WitnessError::WrongDelay { step: 0 })
        ),
        "negative delay must be a WrongDelay"
    );

    let mut wrong = cert.clone();
    let last = wrong.trace.steps.len() - 1;
    wrong.trace.steps[last].delay += wrong.trace.denom * 1000;
    let err = wrong
        .validate(&tg.net, &goal)
        .expect_err("huge delay rejected");
    assert!(
        matches!(
            err,
            WitnessError::InvariantViolated { .. }
                | WitnessError::GuardUnsatisfied { .. }
                | WitnessError::DelayForbidden { .. }
                | WitnessError::StateMismatch { .. }
        ),
        "tampered delay rejected with a semantic error, got {err:?}"
    );

    // The witness ends with train 0 crossing, not train 1.
    assert!(
        matches!(
            cert.validate(&tg.net, &tg.cross(1)),
            Err(WitnessError::GoalNotSatisfied)
        ),
        "wrong goal must be GoalNotSatisfied"
    );
}

// ---------------------------------------------------------------------
// Liveness (leads-to counterexamples)
// ---------------------------------------------------------------------

/// Start can branch into a dead end that never reaches Goal, so
/// `Start --> Goal` is violated and the engine must certify the
/// counterexample prefix.
fn branching_net() -> (tempo_core::ta::Network, AutomatonId, LocationId, LocationId) {
    let mut b = NetworkBuilder::new();
    let mut a = b.automaton("P");
    let start = a.location("Start");
    let stuck = a.location("Stuck");
    let goal = a.location("Goal");
    a.edge(start, stuck).done();
    a.edge(start, goal).done();
    let aid = a.done();
    (b.build(), aid, start, goal)
}

#[test]
fn leads_to_counterexample_is_certified() {
    let (net, aid, start, goal) = branching_net();
    let phi = StateFormula::at(aid, start);
    let psi = StateFormula::at(aid, goal);
    let (out, cert) =
        certified_leads_to(&net, &phi, &psi, &Budget::unlimited()).expect("certification");
    assert!(matches!(out.value().0, Verdict::Violated(_)));
    let cert = cert.expect("violations carry a counterexample");
    assert!(out.report().certificate_bytes > 0);
    // The concrete counterexample ends psi-avoiding.
    let avoid = StateFormula::not(psi.clone());
    cert.validate(&net, &avoid)
        .expect("counterexample validates");

    // A satisfied leads-to has no counterexample to certify.
    let tg = train_gate(2);
    let (out, cert) = certified_leads_to(&tg.net, &tg.appr(0), &tg.cross(0), &Budget::unlimited())
        .expect("certification");
    assert!(matches!(out.value().0, Verdict::Satisfied));
    assert!(cert.is_none());
}

// ---------------------------------------------------------------------
// Minimum-cost reachability (CORA engine)
// ---------------------------------------------------------------------

#[test]
fn cost_certificate_on_wcet_program() {
    let w = wcet_program(3);
    let mut pnet = PricedNetwork::new(w.net.clone());
    // Rate 1 on every location of one automaton: cost = elapsed time.
    for li in 0..w.net.automata()[0].locations.len() {
        pnet.set_rate(AutomatonId(0), LocationId(li), 1);
    }
    let goal = w.terminated();
    let (out, cert) =
        certified_min_cost(&pnet, &goal, &Budget::unlimited()).expect("certification");
    let res = out.value().as_ref().expect("program terminates");
    assert_eq!(res.cost, w.analytic_bcet(), "min time is the analytic BCET");
    let cert = cert.expect("optimum carries a cost certificate");
    assert!(out.report().certificate_bytes > 0);

    // Step costs sum exactly to the reported minimum.
    assert_eq!(cert.step_costs.iter().sum::<i64>(), cert.total);
    assert_eq!(cert.total, res.cost);

    let parsed = round_trip(&w.net, &Certificate::Cost(cert.clone()));
    check_golden("wcet_min_cost.cert", &format::render(&parsed));
    let Certificate::Cost(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed
        .validate(&pnet, &goal)
        .expect("parsed certificate validates");

    // A wrong step cost and a wrong total are both CostMismatch.
    let mut bad_step = cert.clone();
    bad_step.step_costs[0] += 1;
    assert!(matches!(
        bad_step.validate(&pnet, &goal),
        Err(WitnessError::CostMismatch { step: 0, .. })
    ));
    let mut bad_total = cert.clone();
    bad_total.total += 1;
    assert!(matches!(
        bad_total.validate(&pnet, &goal),
        Err(WitnessError::CostMismatch {
            step: usize::MAX,
            ..
        })
    ));
}

// ---------------------------------------------------------------------
// Timed games (TIGA engine)
// ---------------------------------------------------------------------

/// The door game from the TIGA engine: the environment opens a door
/// within 2 time units, the controller must enter while it is open.
fn door_game() -> (tempo_core::ta::Network, AutomatonId, LocationId) {
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
    (b.build(), aid, inside)
}

#[test]
fn reach_game_strategy_is_certified_exhaustively() {
    let (net, aid, inside) = door_game();
    let goal = StateFormula::at(aid, inside);
    let (out, cert) =
        certified_reach_game(&net, &goal, &Budget::unlimited()).expect("certification");
    assert!(out.value().winning);
    let cert = cert.expect("winning games carry a strategy certificate");
    assert!(out.report().certificate_bytes > 0);

    // The synthesized strategy has a Display rendering (satellite).
    let shown = out.value().strategy.to_string();
    assert!(shown.contains("strategy over"), "Display header: {shown}");

    let parsed = round_trip(&net, &Certificate::Strategy(cert.clone()));
    check_golden("door_game_strategy.cert", &format::render(&parsed));
    let Certificate::Strategy(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed
        .validate(&net, &goal)
        .expect("parsed strategy validates");

    // Removing any prescription leaves the closed loop uncovered.
    let mut incomplete = cert.clone();
    incomplete.prescriptions.remove(0);
    assert!(matches!(
        incomplete.validate(&net, &goal),
        Err(WitnessError::StrategyIncomplete { .. })
    ));
}

#[test]
fn safety_game_strategy_on_train_gate_game() {
    let g = train_gate_game(2);
    let bad = g.collision();
    let (out, cert) =
        certified_safety_game(&g.net, &bad, &Budget::unlimited()).expect("certification");
    assert!(out.value().winning, "the gate can prevent collisions");
    let cert = cert.expect("winning safety games carry a certificate");
    assert!(out.report().certificate_bytes > 0);

    let parsed = round_trip(&g.net, &Certificate::Strategy(cert.clone()));
    let Certificate::Strategy(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed
        .validate(&g.net, &bad)
        .expect("parsed strategy validates");

    let mut incomplete = cert.clone();
    incomplete.prescriptions.remove(0);
    assert!(matches!(
        incomplete.validate(&g.net, &bad),
        Err(WitnessError::StrategyIncomplete { .. })
    ));
}

// ---------------------------------------------------------------------
// Statistical model checking (SMC engine)
// ---------------------------------------------------------------------

#[test]
fn smc_runs_are_exported_and_replayed() {
    let tg = train_gate(2);
    let goal = tg.cross(0);
    let (out, cert) = certified_probability(
        &tg.net,
        &tg.rates(),
        42,
        &goal,
        50.0,
        200,
        0.95,
        3,
        &Budget::unlimited(),
    )
    .expect("certification");
    let est = out.value().as_ref().expect("estimate");
    assert!((0.0..=1.0).contains(&est.mean));
    assert_eq!(cert.runs.len(), 3);
    assert!(out.report().certificate_bytes > 0);

    // Each exported run has a Display rendering (satellite).
    let shown = cert.runs[0].to_string();
    assert!(shown.starts_with("t=0"), "Display starts at t=0: {shown}");

    let parsed = round_trip(&tg.net, &Certificate::Runs(cert.clone()));
    check_golden("train_gate_runs.cert", &format::render(&parsed));
    let Certificate::Runs(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed.validate(&tg.net).expect("parsed runs validate");

    // A tampered delay desynchronizes the recorded successor states.
    let mut bad = cert.clone();
    assert!(!bad.runs[0].steps.is_empty(), "seeded run moves");
    bad.runs[0].steps[0].delay += 1000.0;
    let err = bad.validate(&tg.net).expect_err("tampered run rejected");
    assert!(
        matches!(
            err,
            WitnessError::InvariantViolated { .. }
                | WitnessError::DelayForbidden { .. }
                | WitnessError::GuardUnsatisfied { .. }
                | WitnessError::StateMismatch { .. }
        ),
        "typed rejection, got {err:?}"
    );
}

// ---------------------------------------------------------------------
// MDP / mcpta (MODEST engine)
// ---------------------------------------------------------------------

#[test]
fn mcpta_scheduler_certificate_on_brp() {
    let model = brp(2, 1, 1);
    let mc = model.mcpta(0, 2_000_000);
    let goal = model.p1_goal();
    let (out, cert) = certified_mcpta_reach(&mc, Opt::Max, &goal, 1e-6, &Budget::unlimited())
        .expect("certification");
    let reported = out.value().initial_value;
    assert!(
        (reported
            - mc.reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
                .into_value()
                .initial_value)
            .abs()
            < 1e-9,
        "certified entry point reports the engine's value"
    );
    assert!(out.report().certificate_bytes > 0);

    // The underlying MDP path is certified too (argmax policy surfaced).
    let mask = mc.goal_mask(&goal);
    let (out2, _cert2) =
        certified_mdp_reachability(mc.mdp(), Opt::Max, &mask, 1e-6, &Budget::unlimited())
            .expect("certification");
    assert!((out2.value().initial_value - reported).abs() < 1e-9);
    assert_eq!(
        out2.value().policy().len(),
        mc.mdp().num_states(),
        "argmax policy covers every state"
    );

    // Scheduler certificates are network-independent text: the parser
    // only needs a network for run certificates, so any one works here.
    let placeholder = branching_net().0;
    let parsed = round_trip(&placeholder, &Certificate::Scheduler(cert.clone()));
    check_golden("brp_scheduler.cert", &format::render(&parsed));
    let Certificate::Scheduler(parsed) = parsed else {
        panic!("parse preserved the kind");
    };
    parsed
        .validate(mc.mdp())
        .expect("parsed scheduler validates");

    // A wrong claimed value is a ValueMismatch.
    let mut bad = cert.clone();
    bad.value = (bad.value + 0.5).min(1.5);
    assert!(matches!(
        bad.validate(mc.mdp()),
        Err(WitnessError::ValueMismatch { .. })
    ));

    // An out-of-range choice is an unsound prescription.
    let mut unsound = cert.clone();
    if let Some(slot) = unsound.choices.iter_mut().find(|c| c.is_some()) {
        *slot = Some(usize::MAX);
    }
    assert!(matches!(
        unsound.validate(mc.mdp()),
        Err(WitnessError::PrescriptionUnsound { .. })
    ));
}

// ---------------------------------------------------------------------
// Golden certificates parse and validate from cold text
// ---------------------------------------------------------------------

#[test]
fn golden_certificates_validate_from_disk() {
    if std::env::var_os("TEMPO_BLESS").is_some() {
        return; // files are being rewritten by the other tests
    }
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let read = |name: &str| {
        std::fs::read_to_string(golden_dir.join(name))
            .unwrap_or_else(|_| panic!("missing golden file {name}; bless with TEMPO_BLESS=1"))
    };

    let tg = train_gate(2);
    let Certificate::Trace(t) =
        format::parse(&tg.net, &read("train_gate_reach.cert")).expect("parse")
    else {
        panic!("wrong kind");
    };
    t.validate(&tg.net, &tg.cross(0))
        .expect("golden trace validates");

    let w = wcet_program(3);
    let mut pnet = PricedNetwork::new(w.net.clone());
    for li in 0..w.net.automata()[0].locations.len() {
        pnet.set_rate(AutomatonId(0), LocationId(li), 1);
    }
    let Certificate::Cost(c) = format::parse(&w.net, &read("wcet_min_cost.cert")).expect("parse")
    else {
        panic!("wrong kind");
    };
    c.validate(&pnet, &w.terminated())
        .expect("golden cost certificate validates");

    let (net, aid, inside) = door_game();
    let Certificate::Strategy(s) =
        format::parse(&net, &read("door_game_strategy.cert")).expect("parse")
    else {
        panic!("wrong kind");
    };
    s.validate(&net, &StateFormula::at(aid, inside))
        .expect("golden strategy validates");

    let Certificate::Runs(r) =
        format::parse(&tg.net, &read("train_gate_runs.cert")).expect("parse")
    else {
        panic!("wrong kind");
    };
    r.validate(&tg.net).expect("golden runs validate");

    let model = brp(2, 1, 1);
    let mc = model.mcpta(0, 2_000_000);
    let Certificate::Scheduler(sch) =
        format::parse(&net, &read("brp_scheduler.cert")).expect("parse")
    else {
        panic!("wrong kind");
    };
    sch.validate(mc.mdp()).expect("golden scheduler validates");
}

// ---------------------------------------------------------------------
// Certified game solver agrees with the plain solver
// ---------------------------------------------------------------------

#[test]
fn certified_game_agrees_with_plain_solver() {
    let (net, aid, inside) = door_game();
    let goal = StateFormula::at(aid, inside);
    let plain = GameSolver::new(&net)
        .solve_reachability_governed(&goal, &Budget::unlimited())
        .into_value();
    let (out, _) = certified_reach_game(&net, &goal, &Budget::unlimited()).expect("certify");
    assert_eq!(plain.winning, out.value().winning);
}
