//! Differential tests for the `tempo-flow` dataflow passes: per-location
//! LU clock bounds, interval range narrowing and query-directed slicing
//! must be verdict-invisible in every engine that applies them.
//!
//! The sweep mirrors `integration_reduction.rs`: for every seeded random
//! network — including models with broadcast channels, urgent channels,
//! and committed/urgent locations — the flow-enabled engines must
//! return byte-identical verdicts to the
//! unreduced oracle, every reachability witness must realize into a
//! concrete run the independent replay validator accepts, and the run
//! reports must show each analysis actually firing somewhere (so the
//! suite cannot rot into comparing two identical configurations).

use tempo_core::cora::PricedNetwork;
use tempo_core::expr::{Expr, Stmt};
use tempo_core::mdp::Opt;
use tempo_core::modest::{Mcpta, McptaConfig};
use tempo_core::obs::{Budget, ExploreConfig, RunReport};
use tempo_core::smc::StatisticalChecker;
use tempo_core::ta::{ChannelKind, ClockAtom, ModelChecker, Network, NetworkBuilder, StateFormula};
use tempo_core::tiga::GameSolver;
use tempo_core::witness::{realize, replay};
use tempo_models::{brp, train_gate, train_gate_game, wcet_program};

/// Deterministic splitmix/LCG-style generator: the differential sweep
/// must reproduce bit-identically from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }
}

/// Builds a random network exercising every flow code path:
///
/// - 2–3 replicated automata with staged clock guards and resets, so the
///   per-location LU fixpoint is strictly tighter than the global
///   maximal constant somewhere;
/// - a monitor counting pings over a (sometimes broadcast, sometimes
///   urgent) channel array, with a sometimes committed/urgent hop
///   location — the paths where the sibling reductions fall back;
/// - on half the seeds, slicing fuel: a write-only `ghost` variable and
///   an edge whose data guard is provably false under the range
///   fixpoint, holding an otherwise-dead private clock live;
/// - a goal that sometimes reads the counter, sometimes a location,
///   sometimes both.
fn random_model(seed: u64) -> (Network, StateFormula) {
    let mut rng = Rng::new(seed);
    let mut b = NetworkBuilder::new();
    let replicas = 2 + rng.below(2) as usize;
    let kind = if rng.flag() {
        ChannelKind::Broadcast
    } else {
        ChannelKind::Binary
    };
    let urgent_chan = rng.flag();
    let ping = b.channel_array("ping", replicas, kind, urgent_chan);

    // Replicas: Idle --(x >= g, ping[i]!, reset x)--> Busy --(x >= 1)--> Idle.
    // The upper invariant (when present) is observable only in Busy, so
    // Idle's upper LU bound is tighter than the global constant.
    let guard_c = 1 + rng.below(3) as i64;
    let use_inv = rng.flag();
    let inv_c = guard_c + 1 + rng.below(2) as i64;
    let mut rep0 = None;
    let mut busy0 = None;
    for i in 0..replicas {
        let x = b.clock(&format!("x{i}"));
        let mut a = b.automaton(&format!("Rep{i}"));
        let idle = a.location("Idle");
        let busy = if use_inv {
            a.location_with_invariant("Busy", vec![ClockAtom::le(x, inv_c)])
        } else {
            a.location("Busy")
        };
        // Urgent channels forbid clock guards on synchronizing edges.
        let mut e = a
            .edge(idle, busy)
            .send_indexed(ping, Expr::konst(i as i64))
            .reset(x, 0);
        if !urgent_chan {
            e = e.guard_clock(ClockAtom::ge(x, guard_c));
        }
        e.done();
        a.edge(busy, idle).guard_clock(ClockAtom::ge(x, 1)).done();
        let id = a.done();
        if i == 0 {
            rep0 = Some(id);
            busy0 = Some(busy);
        }
    }

    // Monitor: counts pings; a committed or urgent hop on some seeds.
    // The declared range [0, 9] is deliberately wider than the guarded
    // reachable range [0, 4], so the range fixpoint narrows it.
    let count = b.decls_mut().int_init("count", 0, 9, 0);
    let bump = Stmt::assign(count, Expr::var(count) + Expr::konst(1));
    let can_bump = Expr::var(count).lt(Expr::konst(4));
    let mut m = b.automaton("Monitor");
    let m0 = m.location("M0");
    match rng.below(3) {
        0 => {
            m.edge(m0, m0)
                .select(0, replicas as i64 - 1)
                .recv_indexed(ping, Expr::select(0))
                .guard_data(can_bump)
                .update(bump)
                .done();
        }
        style => {
            let hop = if style == 1 {
                m.committed_location("Hop")
            } else {
                m.urgent_location("Hop")
            };
            m.edge(m0, hop)
                .select(0, replicas as i64 - 1)
                .recv_indexed(ping, Expr::select(0))
                .guard_data(can_bump)
                .done();
            m.edge(hop, m0).update(bump).done();
        }
    }
    let monitor = m.done();

    // Slicing fuel: `ghost` is written but read by nothing observable,
    // and the second edge's guard `count >= 99` is provably false for
    // `count` in [0, 4] — slicing disables it, freeing the private
    // clock `z` for active-clock reduction.
    if rng.flag() {
        let ghost = b.decls_mut().int_init("ghost", 0, 8, 0);
        let z = b.clock("z");
        let mut a = b.automaton("Ghost");
        let l = a.location("G");
        a.edge(l, l)
            .guard_data(Expr::var(count).lt(Expr::konst(4)))
            .update(Stmt::assign(ghost, Expr::var(ghost) + Expr::konst(1)))
            .done();
        a.edge(l, l)
            .guard_clock(ClockAtom::ge(z, 1))
            .guard_data(Expr::var(count).ge(Expr::konst(99)))
            .reset(z, 0)
            .done();
        a.done();
    }

    let goal = match rng.below(3) {
        0 => StateFormula::data(Expr::var(count).ge(Expr::konst(3))),
        1 => StateFormula::and(vec![
            StateFormula::at(monitor, m0),
            StateFormula::data(Expr::var(count).ge(Expr::konst(4))),
        ]),
        _ => StateFormula::and(vec![
            StateFormula::at(rep0.expect("replicas >= 2"), busy0.expect("built")),
            StateFormula::data(Expr::var(count).ge(Expr::konst(2))),
        ]),
    };
    (b.build(), goal)
}

fn flow_fired(r: &RunReport) -> (u64, u64, u64, u64, u64) {
    (
        r.lu_tightened,
        r.vars_narrowed,
        r.sliced_clocks,
        r.sliced_vars,
        r.sliced_edges,
    )
}

#[test]
fn flow_verdicts_match_unreduced_across_seeds() {
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    for seed in 0..48u64 {
        let (net, goal) = random_model(seed);
        let oracle_out = ModelChecker::new(&net)
            .with_config(ExploreConfig::unreduced())
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        assert_eq!(
            flow_fired(oracle_out.report()),
            (0, 0, 0, 0, 0),
            "seed={seed}: the unreduced oracle must not run the flow passes"
        );
        let oracle = oracle_out.into_value();
        let (oracle_dl, _) = ModelChecker::new(&net)
            .with_config(ExploreConfig::unreduced())
            .deadlock_free();
        // The flow-only configuration isolates LU + slicing from the
        // sibling reductions; the default stacks everything.
        let configs = [
            ExploreConfig::unreduced().with_lu(true).with_slice(true),
            ExploreConfig::default(),
        ];
        for config in &configs {
            let out = ModelChecker::new(&net)
                .with_config(config.clone())
                .try_reachable_governed(&goal, &Budget::unlimited())
                .expect("in-memory store");
            let (lu, nar, sc, sv, se) = flow_fired(out.report());
            totals.0 += lu;
            totals.1 += nar;
            totals.2 += sc;
            totals.3 += sv;
            totals.4 += se;
            let res = out.into_value();
            assert_eq!(
                res.reachable, oracle.reachable,
                "seed={seed}: reachability verdict moved"
            );
            if res.reachable {
                let trace = res.trace.as_ref().expect("reachable verdicts carry traces");
                let concrete =
                    realize(&net, trace, &goal).expect("witness from a flow-reduced run realizes");
                replay(&net, &concrete, Some(&goal)).expect("independent replay accepts");
            }
        }
        let (dl, _) = ModelChecker::new(&net).deadlock_free();
        assert_eq!(
            dl.holds(),
            oracle_dl.holds(),
            "seed={seed}: deadlock verdict moved"
        );
    }
    assert!(totals.0 > 0, "LU tightening never fired across the sweep");
    assert!(totals.1 > 0, "range narrowing never fired across the sweep");
    assert!(totals.2 > 0, "clock slicing never fired across the sweep");
    assert!(
        totals.3 > 0,
        "dead-variable slicing never fired across the sweep"
    );
    assert!(totals.4 > 0, "edge slicing never fired across the sweep");
}

#[test]
fn train_gate_flow_is_verdict_identical_and_never_explores_more() {
    let tg = train_gate(3);
    for goal in [tg.safety(), tg.cross(0), tg.cross(2), tg.appr(1)] {
        let plain = ModelChecker::new(&tg.net)
            .with_config(ExploreConfig::unreduced())
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        let flow = ModelChecker::new(&tg.net)
            .with_config(ExploreConfig::unreduced().with_lu(true).with_slice(true))
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        assert_eq!(
            flow.value().reachable,
            plain.value().reachable,
            "train-gate verdict moved under flow"
        );
        assert!(
            flow.report().states_explored <= plain.report().states_explored,
            "flow explored more states: {} > {}",
            flow.report().states_explored,
            plain.report().states_explored
        );
        assert!(
            flow.report().lu_tightened > 0,
            "LU must tighten on train-gate"
        );
    }
}

#[test]
fn cora_costs_survive_lu_and_slicing() {
    // The WCET pipeline model runs through both cora sweeps (min-time
    // Dijkstra, max-time value iteration) with cost certificates.
    for n in [1, 3] {
        let p = wcet_program(n);
        let goal = p.terminated();
        let with = PricedNetwork::new(p.net.clone());
        let without = PricedNetwork::new(p.net.clone()).without_flow();
        assert_eq!(
            with.min_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            without
                .min_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            "n={n}: BCET moved under flow"
        );
        assert_eq!(
            with.max_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            without
                .max_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            "n={n}: WCET moved under flow"
        );
        let out = with.min_cost_reach_governed(&goal, &Budget::unlimited());
        assert!(
            out.report().lu_tightened > 0,
            "n={n}: LU must tighten on the WCET pipeline"
        );
        assert!(out.value().is_some(), "n={n}: program terminates");
    }
}

#[test]
fn tiga_strategies_survive_slicing() {
    let g = train_gate_game(2);
    let with = GameSolver::new(&g.net)
        .solve_safety_governed(&g.collision(), &Budget::unlimited())
        .into_value();
    let without = GameSolver::new(&g.net)
        .without_flow()
        .solve_safety_governed(&g.collision(), &Budget::unlimited())
        .into_value();
    assert_eq!(with.winning, without.winning, "safety verdict moved");
    let with = GameSolver::new(&g.net)
        .solve_reachability_governed(&g.collision(), &Budget::unlimited())
        .into_value();
    let without = GameSolver::new(&g.net)
        .without_flow()
        .solve_reachability_governed(&g.collision(), &Budget::unlimited())
        .into_value();
    assert_eq!(with.winning, without.winning, "reach verdict moved");
}

#[test]
fn smc_estimates_are_bit_identical_under_slicing() {
    let tg = train_gate(2);
    let goal = tg.cross(0);
    let mut with = StatisticalChecker::new(&tg.net, tg.rates(), 99);
    let mut without = StatisticalChecker::new(&tg.net, tg.rates(), 99).without_flow();
    let a = with
        .probability_governed(&goal, 50.0, 400, 0.95, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    let b = without
        .probability_governed(&goal, 50.0, 400, 0.95, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert_eq!(
        (a.mean, a.lower, a.upper, a.successes),
        (b.mean, b.lower, b.upper, b.successes),
        "the estimate must be bit-identical"
    );
}

#[test]
fn mcpta_probabilities_survive_flow_and_the_mdp_never_grows() {
    let b = brp(2, 2, 1);
    let with = Mcpta::try_build_with(&b.pta, &[], McptaConfig::default(), &Budget::unlimited());
    let without = Mcpta::try_build_with(
        &b.pta,
        &[],
        McptaConfig {
            flow: false,
            ..McptaConfig::default()
        },
        &Budget::unlimited(),
    );
    assert!(
        with.report().states_explored <= without.report().states_explored,
        "flow built a larger digital MDP: {} > {}",
        with.report().states_explored,
        without.report().states_explored
    );
    assert!(
        with.report().lu_tightened > 0,
        "LU must tighten on BRP's staged timers"
    );
    let with = with.into_value().expect("unlimited budget");
    let without = without.into_value().expect("unlimited budget");
    for goal in [b.pa_goal(), b.pb_goal(), b.success()] {
        let p_with = with
            .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value;
        let p_without = without
            .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value;
        assert!(
            (p_with - p_without).abs() < 1e-12,
            "pmax diverged under flow: {p_with} vs {p_without}"
        );
    }
}
