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
use tempo_core::obs::{Budget, CounterKind, ExploreConfig, RunReport};
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::ta::{
    leads_to_governed, ChannelKind, ClockAtom, ModelChecker, Network, NetworkBuilder, StateFormula,
};
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

/// The non-zero work counters of a run report, `name=value` in the
/// report's declaration order: a counter missing here read 0.
fn work_counters(r: &RunReport) -> String {
    r.counters()
        .filter(|&(_, v, kind)| kind == CounterKind::Work && v > 0)
        .map(|(name, v, _)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every engine that runs the per-query passes on one model:
/// automaton `A` moves `L0 (x <= 3) -(x >= 1)-> L1`, and a `Ghost`
/// self-loop guarded by `v >= 99` (`v` in `[0, 5]`, never written) and
/// `z >= 1` resets `z`. Slicing disables the self-loop, which frees
/// `z` for active-clock reduction: every engine must report one sliced
/// edge, one sliced clock and a DBM dimension of 2 out of 3.
#[test]
fn every_engine_reports_the_same_flow_counters() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let z = b.clock("z");
    let v = b.decls_mut().int("v", 0, 5);
    let mut a = b.automaton("A");
    let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 1)).done();
    let aid = a.done();
    let mut g = b.automaton("Ghost");
    let gl = g.location("G");
    g.edge(gl, gl)
        .guard_data(Expr::var(v).ge(Expr::konst(99)))
        .guard_clock(ClockAtom::ge(z, 1))
        .reset(z, 0)
        .done();
    g.done();
    let net = b.build();
    let goal = StateFormula::at(aid, l1);

    let mut reports = zone_reports(&net, &goal, None);
    reports.retain(|(name, _)| name == "zone_reach");
    reports.extend(smc_reports(&net, RatePolicy::new(), &goal));
    reports.extend(game_reports(&net, &goal));
    reports.extend(cora_reports(PricedNetwork::new(net.clone()), &goal));
    reports.extend(mcpta_reports(&net, &goal.clock_atoms()));
    assert_eq!(reports.len(), 13);
    for (name, r) in &reports {
        assert_eq!(
            (r.sliced_edges, r.sliced_clocks, r.dbm_dim, r.dbm_dim_model),
            (1, 1, 2, 3),
            "{name}: sliced_edges, sliced_clocks, dbm_dim, dbm_dim_model"
        );
    }
}

/// Zone reachability (default configuration), deadlock freedom and, when
/// `leads` names `phi --> psi`, leads-to.
fn zone_reports(
    net: &Network,
    goal: &StateFormula,
    leads: Option<(&StateFormula, &StateFormula)>,
) -> Vec<(String, RunReport)> {
    let unlimited = Budget::unlimited();
    let mut mc = ModelChecker::new(net);
    let mut out = vec![
        (
            "zone_reach".to_owned(),
            mc.try_reachable_governed(goal, &unlimited)
                .expect("in-memory store")
                .report()
                .clone(),
        ),
        (
            "zone_deadlock".to_owned(),
            mc.try_deadlock_free_governed(&unlimited)
                .expect("in-memory store")
                .report()
                .clone(),
        ),
    ];
    if let Some((phi, psi)) = leads {
        let r = leads_to_governed(net, phi, psi, &unlimited);
        out.push(("leads_to".to_owned(), r.report().clone()));
    }
    out
}

/// The five estimators that slice, each on a fresh checker (seed 5).
fn smc_reports(net: &Network, rates: RatePolicy, goal: &StateFormula) -> Vec<(String, RunReport)> {
    let unlimited = Budget::unlimited();
    let smc = || StatisticalChecker::new(net, rates.clone(), 5);
    let not_goal = StateFormula::not(goal.clone());
    let probability = smc()
        .probability_governed(goal, 20.0, 40, 0.95, &unlimited)
        .expect("valid parameters");
    let hypothesis = smc().hypothesis_governed(goal, 20.0, 0.5, 0.1, 0.05, 0.05, 200, &unlimited);
    let cdf = smc().cdf_governed(goal, 20.0, 40, &unlimited);
    let compare = smc().compare_governed(goal, &not_goal, 20.0, 40, 0.1, &unlimited);
    let globally = smc().count_globally_governed(&not_goal, 20.0, 40, &unlimited);
    vec![
        ("smc_probability".to_owned(), probability.report().clone()),
        ("smc_hypothesis".to_owned(), hypothesis.report().clone()),
        ("smc_cdf".to_owned(), cdf.report().clone()),
        ("smc_compare".to_owned(), compare.report().clone()),
        ("smc_count_globally".to_owned(), globally.report().clone()),
    ]
}

/// Both timed games, with `goal` as the reachability goal and as the
/// safety game's bad states.
fn game_reports(net: &Network, goal: &StateFormula) -> Vec<(String, RunReport)> {
    let unlimited = Budget::unlimited();
    let solver = GameSolver::new(net);
    vec![
        (
            "tiga_reach".to_owned(),
            solver
                .solve_reachability_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
        (
            "tiga_safety".to_owned(),
            solver
                .solve_safety_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
    ]
}

/// The four cost queries.
fn cora_reports(priced: PricedNetwork, goal: &StateFormula) -> Vec<(String, RunReport)> {
    let unlimited = Budget::unlimited();
    vec![
        (
            "cora_min_cost".to_owned(),
            priced
                .min_cost_reach_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
        (
            "cora_max_cost".to_owned(),
            priced
                .max_cost_reach_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
        (
            "cora_min_time".to_owned(),
            priced
                .min_time_reach_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
        (
            "cora_max_time".to_owned(),
            priced
                .max_time_reach_governed(goal, &unlimited)
                .report()
                .clone(),
        ),
    ]
}

/// The digital-clocks MDP build.
fn mcpta_reports(pta: &Network, atoms: &[ClockAtom]) -> Vec<(String, RunReport)> {
    let out = Mcpta::try_build(pta, atoms, &Budget::unlimited());
    vec![("mcpta_build".to_owned(), out.report().clone())]
}

/// Random models on which slicing disables an edge and frees a clock.
const SLICED_SEEDS: [u64; 3] = [7, 23, 38];

/// The work counters of every engine that runs the per-query passes, on
/// random models where slicing fires and on the bundled models, pinned
/// so that a change to how a query's network is prepared, or to how the
/// digital engines number their states, shows as a moved count.
#[test]
fn flow_counters_match_pinned_values() {
    let mut got: Vec<String> = Vec::new();
    let mut push = |model: &str, reports: Vec<(String, RunReport)>| {
        for (engine, r) in reports {
            got.push(format!("{model} {engine}: {}", work_counters(&r)));
        }
    };
    for seed in SLICED_SEEDS {
        let (net, goal) = random_model(seed);
        let model = format!("random({seed})");
        push(
            &model,
            zone_reports(&net, &goal, Some((&StateFormula::True, &goal))),
        );
        push(&model, smc_reports(&net, RatePolicy::new(), &goal));
        push(&model, game_reports(&net, &goal));
        push(&model, cora_reports(PricedNetwork::new(net.clone()), &goal));
        push(&model, mcpta_reports(&net, &goal.clock_atoms()));
    }
    let tg = train_gate(2);
    let leads = (&tg.appr(0), &tg.cross(0));
    push(
        "train_gate(2)",
        zone_reports(&tg.net, &tg.cross(1), Some(leads)),
    );
    push(
        "train_gate(2)",
        smc_reports(&tg.net, tg.rates(), &tg.cross(0)),
    );
    let game = train_gate_game(2);
    push(
        "train_gate_game(2)",
        game_reports(&game.net, &game.collision()),
    );
    let wcet = wcet_program(3);
    let mut priced = PricedNetwork::new(wcet.net.clone());
    for (ei, _) in wcet.net.automata()[wcet.cpu.index()]
        .edges
        .iter()
        .enumerate()
    {
        priced.set_edge_cost(wcet.cpu, ei, 1 + (ei as i64) % 3);
    }
    push("wcet_program(3)", cora_reports(priced, &wcet.terminated()));
    push("brp(2,2,1)", mcpta_reports(&brp(2, 2, 1).pta, &[]));
    assert_eq!(got.len(), FLOW_PINS.len(), "one pin per engine run");
    let moved: Vec<String> = got
        .iter()
        .zip(FLOW_PINS)
        .filter(|(line, pin)| line != *pin)
        .map(|(line, pin)| format!("got {line}\npin {pin}"))
        .collect();
    assert!(moved.is_empty(), "moved counters:\n{}", moved.join("\n"));
}

const FLOW_PINS: &[&str] = &[
    "random(7) zone_reach: states_explored=5 states_stored=9 peak_waiting=5 dbm_dim=4 dbm_dim_model=5 sym_orbits=1 sym_states_avoided=1 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) zone_deadlock: states_explored=709 states_stored=415 peak_waiting=72 dbm_dim=5 dbm_dim_model=5 sym_orbits=1 sym_states_avoided=1033",
    "random(7) leads_to: states_explored=3103 states_stored=1539 peak_waiting=330 dbm_dim=5 dbm_dim_model=5",
    "random(7) smc_probability: runs_simulated=40 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) smc_hypothesis: runs_simulated=8 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) smc_cdf: runs_simulated=40 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) smc_compare: runs_simulated=40 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) smc_count_globally: runs_simulated=40 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) tiga_reach: states_explored=6921 states_stored=6921 peak_waiting=88 sweeps=3 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) tiga_safety: states_explored=6921 states_stored=6921 peak_waiting=88 sweeps=14 dbm_dim=4 dbm_dim_model=5 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) cora_min_cost: states_explored=6 states_stored=12 peak_waiting=7 dbm_dim=4 dbm_dim_model=5 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) cora_max_cost: states_explored=6921 states_stored=6921 peak_waiting=88 sweeps=3 dbm_dim=4 dbm_dim_model=5 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) cora_min_time: states_explored=6 states_stored=12 peak_waiting=7 dbm_dim=4 dbm_dim_model=5 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) cora_max_time: states_explored=6921 states_stored=6921 peak_waiting=88 sweeps=3 dbm_dim=4 dbm_dim_model=5 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(7) mcpta_build: states_explored=6921 states_stored=6921 peak_waiting=173 dbm_dim=4 dbm_dim_model=5 lu_tightened=24 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) zone_reach: states_explored=25 states_stored=35 peak_waiting=11 dbm_dim=3 dbm_dim_model=4 sym_orbits=1 sym_states_avoided=14 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) zone_deadlock: states_explored=51 states_stored=67 peak_waiting=18 dbm_dim=4 dbm_dim_model=4 sym_orbits=1 sym_states_avoided=30",
    "random(23) leads_to: states_explored=323 states_stored=279 peak_waiting=36 dbm_dim=4 dbm_dim_model=4",
    "random(23) smc_probability: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) smc_hypothesis: runs_simulated=8 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) smc_cdf: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) smc_compare: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) smc_count_globally: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) tiga_reach: states_explored=1026 states_stored=1026 peak_waiting=26 sweeps=8 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) tiga_safety: states_explored=1026 states_stored=1026 peak_waiting=26 sweeps=19 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) cora_min_cost: states_explored=79 states_stored=126 peak_waiting=48 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) cora_max_cost: states_explored=909 states_stored=909 peak_waiting=25 sweeps=7 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) cora_min_time: states_explored=109 states_stored=144 peak_waiting=45 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) cora_max_time: states_explored=909 states_stored=909 peak_waiting=25 sweeps=9 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(23) mcpta_build: states_explored=909 states_stored=909 peak_waiting=29 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) zone_reach: states_explored=11 states_stored=16 peak_waiting=6 dbm_dim=3 dbm_dim_model=4 sym_orbits=1 sym_states_avoided=5 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) zone_deadlock: states_explored=179 states_stored=162 peak_waiting=20 dbm_dim=4 dbm_dim_model=4 sym_orbits=1 sym_states_avoided=106",
    "random(38) leads_to: states_explored=322 states_stored=279 peak_waiting=36 dbm_dim=4 dbm_dim_model=4",
    "random(38) smc_probability: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) smc_hypothesis: runs_simulated=8 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) smc_cdf: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) smc_compare: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) smc_count_globally: runs_simulated=40 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) tiga_reach: states_explored=513 states_stored=513 peak_waiting=27 sweeps=6 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) tiga_safety: states_explored=513 states_stored=513 peak_waiting=27 sweeps=11 dbm_dim=3 dbm_dim_model=4 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) cora_min_cost: states_explored=25 states_stored=40 peak_waiting=16 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) cora_max_cost: states_explored=513 states_stored=513 peak_waiting=27 sweeps=6 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) cora_min_time: states_explored=64 states_stored=99 peak_waiting=36 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) cora_max_time: states_explored=513 states_stored=513 peak_waiting=27 sweeps=514 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "random(38) mcpta_build: states_explored=513 states_stored=513 peak_waiting=33 dbm_dim=3 dbm_dim_model=4 lu_tightened=12 vars_narrowed=1 sliced_clocks=1 sliced_vars=1 sliced_edges=1",
    "train_gate(2) zone_reach: states_explored=7 states_stored=10 peak_waiting=4 dbm_dim=3 dbm_dim_model=3 lu_tightened=26",
    "train_gate(2) zone_deadlock: states_explored=35 states_stored=35 peak_waiting=6 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) leads_to: states_explored=35 states_stored=35 peak_waiting=6 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) smc_probability: runs_simulated=40 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) smc_hypothesis: runs_simulated=8 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) smc_cdf: runs_simulated=40 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) smc_compare: runs_simulated=40 dbm_dim=3 dbm_dim_model=3",
    "train_gate(2) smc_count_globally: runs_simulated=40 dbm_dim=3 dbm_dim_model=3",
    "train_gate_game(2) tiga_reach: states_explored=13035 states_stored=13035 peak_waiting=798 sweeps=5 dbm_dim=3 dbm_dim_model=3",
    "train_gate_game(2) tiga_safety: states_explored=13035 states_stored=13035 peak_waiting=798 sweeps=10 dbm_dim=3 dbm_dim_model=3",
    "wcet_program(3) cora_min_cost: states_explored=46 states_stored=46 peak_waiting=3 dbm_dim=2 dbm_dim_model=2 lu_tightened=1",
    "wcet_program(3) cora_max_cost: states_explored=47 states_stored=47 peak_waiting=10 sweeps=29 dbm_dim=2 dbm_dim_model=2 lu_tightened=1",
    "wcet_program(3) cora_min_time: states_explored=40 states_stored=43 peak_waiting=4 dbm_dim=2 dbm_dim_model=2 lu_tightened=1",
    "wcet_program(3) cora_max_time: states_explored=47 states_stored=47 peak_waiting=10 sweeps=38 dbm_dim=2 dbm_dim_model=2 lu_tightened=1",
    "brp(2,2,1) mcpta_build: states_explored=153 states_stored=153 peak_waiting=13 dbm_dim=5 dbm_dim_model=6 lu_tightened=47 sliced_vars=4",
];
