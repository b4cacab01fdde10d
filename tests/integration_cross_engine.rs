//! Cross-engine consistency tests: the same system analysed by several
//! engines must agree. This is the point of the paper's "single
//! formalism, multiple solutions" philosophy — and a strong correctness
//! oracle for the reproduction.

use tempo_core::cora::PricedNetwork;
use tempo_core::expr::Expr;
use tempo_core::lint::LintConfig;
use tempo_core::mdp::Opt;
use tempo_core::modest::{
    compile, Assignment, Mcpta, Mctau, Modes, ModestModel, PaltBranch, Process, Scheduler,
};
use tempo_core::obs::Budget;
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::ta::{ClockAtom, DigitalExplorer, ModelChecker, NetworkBuilder, StateFormula};
use tempo_core::tiga::GameSolver;
use tempo_core::witness::certify::certified_min_cost;

/// A two-automata handshake model used across engines.
fn handshake() -> (tempo_core::ta::Network, StateFormula) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let c = b.channel("c");
    let mut p = b.automaton("P");
    let p0 = p.location_with_invariant("P0", vec![ClockAtom::le(x, 4)]);
    let p1 = p.location("P1");
    p.edge(p0, p1)
        .guard_clock(ClockAtom::ge(x, 2))
        .send(c)
        .done();
    let pid = p.done();
    let mut q = b.automaton("Q");
    let q0 = q.location("Q0");
    let q1 = q.location("Q1");
    q.edge(q0, q1).recv(c).done();
    q.done();
    let goal = StateFormula::at(pid, p1);
    (b.build(), goal)
}

#[test]
fn symbolic_and_digital_reachability_agree() {
    let (net, goal) = handshake();
    // Symbolic.
    let mut mc = ModelChecker::new(&net);
    let symbolic = mc.reachable(&goal).reachable;
    // Digital (via min-time search).
    let priced = PricedNetwork::new(net.clone());
    let digital = priced
        .min_time_reach_governed(&goal, &Budget::unlimited())
        .into_value();
    assert!(symbolic);
    assert_eq!(digital, Some(2), "earliest handshake at x = 2");
    // Digital explorer agrees on the initial state.
    let exp = DigitalExplorer::new(&net);
    assert!(!exp.satisfies(&exp.initial_state(), &goal));
}

#[test]
fn smc_estimates_match_exact_probability_one() {
    // The handshake always happens by time 4 (invariant): SMC must see
    // probability ~1 with bound 10.
    let (net, goal) = handshake();
    let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 77);
    let est = smc
        .probability_governed(&goal, 10.0, 500, 0.99, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(est.mean > 0.97, "estimate {est}");
}

/// A probabilistic retry model checked by mcpta and simulated by modes.
fn retry_model() -> (tempo_core::modest::Pta, StateFormula) {
    let mut m = ModestModel::new();
    let send = m.action("send");
    let ok = m.decls_mut().int("ok", 0, 1);
    let tries = m.decls_mut().int("tries", 0, 2);
    m.define(
        "P",
        Process::when(
            Expr::var(tries).lt(Expr::konst(2)),
            Process::palt(
                send,
                vec![
                    PaltBranch {
                        weight: 7,
                        assignments: vec![Assignment::Var(ok, Expr::konst(1))],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 3,
                        assignments: vec![Assignment::Var(
                            tries,
                            Expr::var(tries) + Expr::konst(1),
                        )],
                        then: Process::call("P"),
                    },
                ],
            ),
        ),
    );
    m.system(&["P"]);
    let goal = StateFormula::data(Expr::var(ok).eq(Expr::konst(1)));
    (compile(&m), goal)
}

#[test]
fn mcpta_and_modes_agree_on_probability() {
    let (pta, goal) = retry_model();
    let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(10_000))
        .into_value()
        .expect("the digital-clocks MDP fits the state budget");
    let exact = mc
        .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
        .into_value()
        .initial_value;
    let expected = 1.0 - 0.3_f64.powi(2);
    assert!((exact - expected).abs() < 1e-9);
    let mut modes = Modes::new(&pta, &[], Scheduler::Asap, 3);
    let obs = modes
        .observe_governed(
            4000,
            50,
            100,
            |exp, run| run.first_hit(exp, &goal).is_some(),
            &Budget::unlimited(),
        )
        .into_value();
    assert!(
        (obs.mean - exact).abs() < 0.03,
        "modes {} vs mcpta {exact}",
        obs.mean
    );
}

#[test]
fn mctau_bounds_contain_mcpta_value() {
    let (pta, goal) = retry_model();
    let mctau = Mctau::new(&pta);
    let bounds = mctau
        .probability_bounds_governed(&goal, &Budget::unlimited())
        .into_value();
    let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(10_000))
        .into_value()
        .expect("the digital-clocks MDP fits the state budget");
    let exact = mc
        .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
        .into_value()
        .initial_value;
    assert!(bounds.lower <= exact && exact <= bounds.upper);
    // And for an impossible goal, all engines give exactly zero.
    let impossible = StateFormula::data(Expr::konst(0));
    assert_eq!(
        mctau
            .probability_bounds_governed(&impossible, &Budget::unlimited())
            .into_value()
            .upper,
        0.0
    );
    assert_eq!(
        mc.reach_quantitative(Opt::Max, &impossible, &Budget::unlimited())
            .into_value()
            .initial_value,
        0.0
    );
}

#[test]
fn deadlock_checks_agree_between_engines() {
    // A model with a genuine timed deadlock (guard window missed).
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::le(x, 2)).done();
    a.done();
    let net = b.build();
    let mut mc = ModelChecker::new(&net);
    let (dl, _) = mc.deadlock_free();
    assert!(!dl.holds(), "symbolic engine finds the missed window");
    // The digital explorer sees it too: at x = 3 nothing is enabled.
    let exp = DigitalExplorer::new(&net);
    let mut s = exp.initial_state();
    for _ in 0..3 {
        s = exp.tick(&s).expect("no invariant stops time");
    }
    assert!(exp.moves(&s).is_empty());
}

/// One automaton with one location, no edges and a clock `x`, with the
/// goal `x >= 5`: time passes freely, so the zone engine reaches it.
/// The model compares `x` with nothing, so only a digital clamp that
/// covers the query's constant lets a digital engine see `x` reach 5.
fn idle_clock() -> (tempo_core::ta::Network, StateFormula) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    a.location("L0");
    a.done();
    let goal = StateFormula::clock(ClockAtom::ge(x, 5));
    (b.build(), goal)
}

#[test]
fn tiga_clamp_covers_the_goal_constant() {
    let (net, goal) = idle_clock();
    assert!(ModelChecker::new(&net).reachable(&goal).reachable);
    assert!(
        GameSolver::new(&net)
            .solve_reachability_governed(&goal, &Budget::unlimited())
            .into_value()
            .winning
    );
}

#[test]
fn cora_without_flow_clamp_covers_the_goal_constant() {
    let (net, goal) = idle_clock();
    let with_flow = PricedNetwork::new(net.clone())
        .min_cost_reach_governed(&goal, &Budget::unlimited())
        .into_value();
    let without = PricedNetwork::new(net)
        .without_flow()
        .min_cost_reach_governed(&goal, &Budget::unlimited())
        .into_value();
    assert_eq!(with_flow.map(|r| r.cost), Some(0));
    assert_eq!(without.map(|r| r.cost), Some(0));
}

#[test]
fn cost_certificate_replays_past_the_models_constants() {
    let (net, goal) = idle_clock();
    let (out, cert) = certified_min_cost(&PricedNetwork::new(net), &goal, &Budget::unlimited())
        .expect("the certificate validates");
    assert_eq!(out.value().as_ref().map(|r| r.cost), Some(0));
    assert!(cert.is_some());
}

/// The simulator draws among enabled moves uniformly, so it would weigh
/// the branches of a weighted choice equally: SMC refuses such a network
/// at its gate, while the same network without weights passes.
#[test]
fn smc_refuses_a_weighted_choice() {
    let weighted = |weights: bool| {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("Coin");
        let toss = a.location("Toss");
        let heads = a.location("Heads");
        let tails = a.location("Tails");
        let heavy = if weights { 3 } else { 1 };
        a.edge(toss, heads).branch(heavy, false).done();
        a.edge(toss, tails).branch(1, weights).done();
        a.done();
        b.build()
    };
    let config = LintConfig::default();
    let err = StatisticalChecker::check_first(&weighted(true), &config)
        .expect_err("a weighted choice is refused");
    assert!(err.diagnostics.iter().any(|d| d.code == "SMC"), "{err}");
    assert!(StatisticalChecker::check_first(&weighted(false), &config).is_ok());
}
