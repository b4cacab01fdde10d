//! Integration: static model analysis (tempo-lint), `check_first`
//! gating in every engine, and active-clock reduction.
//!
//! Three claims are exercised end to end:
//!
//! 1. the paper's five models (train-gate, BRP, vending, DALA, WCET)
//!    are lint-clean;
//! 2. a targeted mutation exists for every lint code that triggers it
//!    exactly once, and every engine's `check_first` gate refuses the
//!    mutated model with a typed error — never a panic;
//! 3. active-clock reduction preserves verdicts byte-for-byte while
//!    the run reports record a strictly smaller DBM dimension on a
//!    paper model (BRP's global clock `gt`).

use proptest::prelude::*;
use tempo_core::bip::BipSystemBuilder;
use tempo_core::expr::Expr;
use tempo_core::lint::{self, LintConfig, LintReport};
use tempo_core::mdp::Opt;
use tempo_core::modest::{Assignment, Mcpta, ModestModel, Process};
use tempo_core::obs::Budget;
use tempo_core::ta::{
    AutomatonId, ClockAtom, LocationId, ModelChecker, Network, NetworkBuilder, StateFormula,
};
use tempo_core::{cora, smc, tiga};
use tempo_models::{brp, dala, train_gate, train_gate_game, vending, wcet_program};

fn codes(report: &LintReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.code.as_str()).collect()
}

// ---------------------------------------------------------------------------
// 1. The paper models are lint-clean.
// ---------------------------------------------------------------------------

#[test]
fn paper_models_are_lint_clean() {
    let tg = train_gate(3);
    let r = lint::check_network(&tg.net);
    assert!(r.is_clean(), "train_gate: {:?}", r.diagnostics);

    let game = train_gate_game(2);
    let r = lint::check_network(&game.net);
    assert!(r.is_clean(), "train_gate_game: {:?}", r.diagnostics);

    let vend = vending::controller_spec(5);
    let r = lint::check_network(&vend);
    assert!(r.is_clean(), "vending: {:?}", r.diagnostics);

    let wcet = wcet_program(4);
    let r = lint::check_network(&wcet.net);
    assert!(r.is_clean(), "wcet: {:?}", r.diagnostics);

    let robot = dala();
    let r = lint::check_bip(&robot.sys);
    assert!(r.is_clean(), "dala: {:?}", r.diagnostics);

    let b = brp(4, 2, 1);
    let r = lint::check_modest(&b.model);
    assert!(r.is_clean(), "brp: {:?}", r.diagnostics);
}

// ---------------------------------------------------------------------------
// 2. One mutated fixture per rule; every engine refuses it via check_first.
// ---------------------------------------------------------------------------

/// TA001: an island location no edge can reach.
fn ta001_net() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let island = a.location("Island");
    a.edge(l0, l0)
        .guard_clock(ClockAtom::ge(x, 1))
        .reset(x, 0)
        .done();
    a.edge(island, l0).guard_clock(ClockAtom::ge(x, 1)).done();
    a.done();
    b.build()
}

/// TA002: guard `x >= 5` under invariant `x <= 3` — DBM-empty.
fn ta002_net() -> Network {
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
    b.build()
}

/// TA003: a binary channel that is sent on but never received.
fn ta003_net() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let c = b.channel("oneway");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    a.edge(l0, l0)
        .guard_clock(ClockAtom::ge(x, 1))
        .reset(x, 0)
        .send(c)
        .done();
    a.done();
    b.build()
}

/// TA004: clock `dead` is reset but read by no guard or invariant.
fn ta004_net() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let dead = b.clock("dead");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    a.edge(l0, l0)
        .guard_clock(ClockAtom::ge(x, 1))
        .reset(x, 0)
        .reset(dead, 0)
        .done();
    a.done();
    b.build()
}

/// TA005: clock `drift` is read but never reset.
fn ta005_net() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let drift = b.clock("drift");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    a.edge(l0, l0)
        .guard_clock(ClockAtom::ge(x, 1))
        .guard_clock(ClockAtom::ge(drift, 1))
        .reset(x, 0)
        .done();
    a.done();
    b.build()
}

/// TA006: an internal cycle whose clock is reset but never bounded
/// from below — time need not advance around it.
fn ta006_net() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("Busy");
    let l0 = a.location("L0");
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::le(x, 5)).done();
    a.edge(l1, l0).reset(x, 0).done();
    a.done();
    b.build()
}

/// TA008: variable `ghost` is written on every loop but read by no
/// guard, synchronization index or clock reset.
fn ta008_net() -> Network {
    use tempo_core::expr::Stmt;
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let ghost = b.decls_mut().int("ghost", 0, 9);
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    a.edge(l0, l0)
        .guard_clock(ClockAtom::ge(x, 1))
        .reset(x, 0)
        .update(Stmt::assign(ghost, Expr::var(ghost) + Expr::konst(1)))
        .done();
    a.done();
    b.build()
}

#[test]
fn each_ta_rule_fires_exactly_once_and_every_engine_refuses() {
    type Fixture = (&'static str, fn() -> Network);
    let cases: Vec<Fixture> = vec![
        ("TA001", ta001_net),
        ("TA002", ta002_net),
        ("TA003", ta003_net),
        ("TA004", ta004_net),
        ("TA005", ta005_net),
        ("TA006", ta006_net),
        ("TA008", ta008_net),
    ];
    let strict = LintConfig::strict();
    for (code, build) in cases {
        let net = build();
        let report = lint::check_network(&net);
        assert_eq!(codes(&report), vec![code], "{:?}", report.diagnostics);

        // Every engine's gate returns a typed error under the strict
        // configuration — none of these calls may panic.
        let err = lint::check_network_first(&net, &strict)
            .expect_err("ta gate must refuse the mutated model");
        assert!(err.to_string().contains(code), "{code}: {err}");
        assert!(
            tiga::GameSolver::check_first(&net, &strict).is_err(),
            "{code}: tiga"
        );
        assert!(
            smc::StatisticalChecker::check_first(&net, &strict).is_err(),
            "{code}: smc"
        );
        assert!(
            cora::PricedNetwork::new(build())
                .check_first(&strict)
                .is_err(),
            "{code}: cora"
        );

        // Error-severity findings block even the default configuration.
        if code == "TA002" {
            assert!(lint::check_network_first(&net, &LintConfig::default()).is_err());
        } else {
            assert!(lint::check_network_first(&net, &LintConfig::default()).is_ok());
        }
    }
}

#[test]
fn bip_rules_fire_exactly_once_and_gate_refuses() {
    let strict = LintConfig::strict();

    // BIP001: a port that appears in no interaction.
    let mut b = BipSystemBuilder::new();
    let mut c = b.component("C");
    let s0 = c.state("S0");
    let work = c.port("work");
    let lonely = c.port("lonely");
    c.transition(s0, s0, work);
    c.transition(s0, s0, lonely);
    c.done();
    b.rendezvous("go", &[work]);
    let sys = b.build();
    let report = lint::check_bip(&sys);
    assert_eq!(codes(&report), vec!["BIP001"], "{:?}", report.diagnostics);
    assert!(lint::check_bip_first(&sys, &strict).is_err());
    assert!(lint::check_bip_first(&sys, &LintConfig::default()).is_ok());

    // BIP002: a component state no transition path reaches.
    let mut b = BipSystemBuilder::new();
    let mut c = b.component("C");
    let s0 = c.state("S0");
    let orphan = c.state("Orphan");
    let work = c.port("work");
    c.transition(s0, s0, work);
    c.transition(orphan, s0, work);
    c.done();
    b.rendezvous("go", &[work]);
    let sys = b.build();
    let report = lint::check_bip(&sys);
    assert_eq!(codes(&report), vec!["BIP002"], "{:?}", report.diagnostics);
    assert!(lint::check_bip_first(&sys, &strict).is_err());
}

#[test]
fn modest_rules_fire_exactly_once_and_gate_refuses() {
    let strict = LintConfig::strict();

    // MOD001 (warning): an action shadowing a clock of the same name.
    let mut m = ModestModel::new();
    let _t = m.clock("t");
    let a = m.action("t");
    m.define("P", Process::act(a, Process::stop()));
    m.system(&["P"]);
    let report = lint::check_modest(&m);
    assert_eq!(codes(&report), vec!["MOD001"], "{:?}", report.diagnostics);
    assert!(lint::check_modest_first(&m, &strict).is_err());
    assert!(lint::check_modest_first(&m, &LintConfig::default()).is_ok());

    // MOD001 (error): calling a process that is never defined blocks
    // even the default configuration.
    let mut m = ModestModel::new();
    let a = m.action("a");
    m.define("P", Process::act(a, Process::call("Ghost")));
    m.system(&["P"]);
    let report = lint::check_modest(&m);
    assert_eq!(codes(&report), vec!["MOD001"], "{:?}", report.diagnostics);
    assert!(lint::check_modest_first(&m, &LintConfig::default()).is_err());

    // MOD002 (error): an assignment that is always outside the
    // variable's declared range.
    let mut m = ModestModel::new();
    let a = m.action("a");
    let x = m.decls_mut().int("x", 0, 5);
    m.define(
        "P",
        Process::act_with(
            a,
            vec![Assignment::Var(x, Expr::konst(99))],
            Process::stop(),
        ),
    );
    m.system(&["P"]);
    let report = lint::check_modest(&m);
    assert_eq!(codes(&report), vec!["MOD002"], "{:?}", report.diagnostics);
    assert!(lint::check_modest_first(&m, &LintConfig::default()).is_err());

    // MOD002 (error): interval arithmetic is exact in i128, so a
    // subtraction that overflows i64 upward is pinned above the target
    // range instead of wrapping past it.
    let mut m = ModestModel::new();
    let a = m.action("a");
    let big = m.decls_mut().int("big", i64::MIN, -4_000_000_000);
    let out = m.decls_mut().int("out", 0, 100);
    m.define(
        "P",
        Process::act_with(
            a,
            vec![Assignment::Var(out, Expr::konst(5) - Expr::var(big))],
            Process::stop(),
        ),
    );
    m.system(&["P"]);
    let report = lint::check_modest(&m);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "MOD002" && d.message.contains("outside its declared range")),
        "{:?}",
        report.diagnostics
    );
    assert!(lint::check_modest_first(&m, &LintConfig::default()).is_err());

    // MOD003 (warning): a `when` guard that is provably false under the
    // declared variable ranges makes its branch unreachable. A warning
    // so that parameter instantiations with dead branches (`i < N-1`
    // with N = 1) still pass the default admission gate — slicing
    // treats such guards as dead edges, not as broken models.
    let mut m = ModestModel::new();
    let a = m.action("a");
    let x = m.decls_mut().int("x", 0, 5);
    m.define(
        "P",
        Process::when(
            Expr::var(x).gt(Expr::konst(100)),
            Process::act(a, Process::stop()),
        ),
    );
    m.system(&["P"]);
    let report = lint::check_modest(&m);
    assert_eq!(codes(&report), vec!["MOD003"], "{:?}", report.diagnostics);
    assert!(lint::check_modest_first(&m, &strict).is_err());
    assert!(lint::check_modest_first(&m, &LintConfig::default()).is_ok());
}

/// CORA001: negative cost rates / edge costs on a priced network. The
/// clean fixture passes the default gate; mutating either price kind
/// below zero turns into an error-level refusal from
/// `PricedNetwork::check_first` — the gate the priced and rare-event
/// engines run before any cost query.
#[test]
fn cora001_negative_prices_are_refused() {
    let fixture = || {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Job");
        let l0 = a.location_with_invariant("Work", vec![ClockAtom::le(x, 5)]);
        let l1 = a.location("Done");
        a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 1)).done();
        a.edge(l1, l1).done();
        a.done();
        b.build()
    };

    // Clean: non-negative prices, no CORA001 finding.
    let mut clean = cora::PricedNetwork::new(fixture());
    clean.set_rate(AutomatonId(0), LocationId(0), 2);
    clean.set_edge_cost(AutomatonId(0), 0, 3);
    assert!(clean.lint_prices().is_empty());
    let report = clean.check_first(&LintConfig::default()).expect("clean");
    assert!(!codes(&report).contains(&"CORA001"));

    // Mutated: one negative rate and one negative edge cost. Both are
    // error-level, so even the default (non-strict) gate refuses.
    let mut bad = cora::PricedNetwork::new(fixture());
    bad.set_rate(AutomatonId(0), LocationId(0), -2);
    bad.set_edge_cost(AutomatonId(0), 0, -1);
    let found = bad.lint_prices();
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|d| d.code == "CORA001"));
    let err = bad.check_first(&LintConfig::default()).unwrap_err();
    assert!(
        err.diagnostics.iter().any(|d| d.code == "CORA001"),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// Rule inventory: the README table and the registry must agree.
// ---------------------------------------------------------------------------

#[test]
fn readme_rule_table_matches_registry() {
    let readme = include_str!("../README.md");
    let documented: Vec<&str> = readme
        .lines()
        .filter_map(|line| {
            let cell = line.strip_prefix('|')?.split('|').next()?.trim();
            (cell.len() >= 5
                && (cell.starts_with("TA")
                    || cell.starts_with("BIP")
                    || cell.starts_with("MOD")
                    || cell.starts_with("CORA"))
                && cell
                    .chars()
                    .skip(cell.len() - 3)
                    .all(|c| c.is_ascii_digit()))
            .then_some(cell)
        })
        .collect();
    let registered: Vec<&str> = lint::rules().iter().map(|r| r.code).collect();
    assert_eq!(
        documented, registered,
        "README lint table out of sync with lint::rules()"
    );
}

// ---------------------------------------------------------------------------
// 3. Active-clock reduction: identical verdicts, smaller run reports.
// ---------------------------------------------------------------------------

#[test]
fn brp_run_report_shows_strictly_smaller_dbm_dimension() {
    let b = brp(2, 2, 1);
    // Unbounded properties read no clock, so the global clock `gt`
    // (never in a guard or invariant) is removed: DBM dim 6 -> 5.
    let reduced = Mcpta::try_build(&b.pta, &[], &Budget::unlimited());
    let report = reduced.report().clone();
    assert_eq!(report.dbm_dim_model, 6);
    assert_eq!(report.dbm_dim, 5);
    assert!(report.dbm_dim < report.dbm_dim_model);

    // A time-bounded property protects `gt`, keeping all clocks.
    let atoms = [ClockAtom::le(b.gt, 30)];
    let full = Mcpta::try_build(&b.pta, &atoms, &Budget::unlimited());
    assert_eq!(full.report().dbm_dim, 6);

    // Verdicts are identical with and without the dead clock.
    let reduced = reduced.into_value().expect("unlimited budget");
    let full = full.into_value().expect("unlimited budget");
    for goal in [b.pa_goal(), b.pb_goal(), b.success()] {
        let p_red = reduced
            .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value;
        let p_full = full
            .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value;
        assert!(
            (p_red - p_full).abs() < 1e-9,
            "pmax diverged: {p_red} vs {p_full}"
        );
    }
}

#[test]
fn train_gate_verdicts_identical_with_and_without_reduction() {
    let tg = train_gate(2);
    let mut reduced = ModelChecker::new(&tg.net);
    let mut full = ModelChecker::new(&tg.net).without_reduction();

    for goal in [tg.safety(), tg.cross(0), tg.cross(1), tg.appr(1)] {
        assert_eq!(
            reduced.reachable(&goal).reachable,
            full.reachable(&goal).reachable
        );
    }
    assert_eq!(
        reduced
            .try_always_governed(&tg.safety(), &Budget::unlimited())
            .expect("in-memory state store")
            .into_value()
            .0
            .holds(),
        full.try_always_governed(&tg.safety(), &Budget::unlimited())
            .expect("in-memory state store")
            .into_value()
            .0
            .holds()
    );
    assert_eq!(
        reduced.deadlock_free().0.holds(),
        full.deadlock_free().0.holds()
    );
}

// ---------------------------------------------------------------------------
// Property: Network::reduced() preserves location reachability on random
// networks carrying a dead clock.
// ---------------------------------------------------------------------------

const LOCS: usize = 4;

#[derive(Debug, Clone)]
struct EdgeSpec {
    from: usize,
    to: usize,
    lower: Option<i64>,
    upper: Option<i64>,
    reset: bool,
    reset_dead: bool,
}

fn arb_edges() -> impl Strategy<Value = Vec<EdgeSpec>> {
    prop::collection::vec(
        (
            0..LOCS,
            0..LOCS,
            prop::option::of(0..4_i64),
            prop::option::of(0..6_i64),
            prop::bool::ANY,
            prop::bool::ANY,
        )
            .prop_map(|(from, to, lower, upper, reset, reset_dead)| EdgeSpec {
                from,
                to,
                lower,
                upper,
                reset,
                reset_dead,
            }),
        1..8,
    )
}

fn arb_invariants() -> impl Strategy<Value = Vec<Option<i64>>> {
    prop::collection::vec(prop::option::of(1..8_i64), LOCS)
}

/// Builds a one-automaton network over a live clock `x` and a dead
/// clock `d` that is reset on some edges but read nowhere.
fn build_with_dead_clock(edges: &[EdgeSpec], invariants: &[Option<i64>]) -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let d = b.clock("d");
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
        if e.reset_dead {
            eb = eb.reset(d, 0);
        }
        eb.done();
    }
    a.done();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduction_preserves_location_reachability(
        edges in arb_edges(),
        invariants in arb_invariants(),
    ) {
        let net = build_with_dead_clock(&edges, &invariants);
        // The dead clock is read nowhere, so it must always be removed.
        let reduction = net.reduced();
        prop_assert_eq!(reduction.dim(), net.dim() - 1);
        prop_assert_eq!(reduction.removed(), &["d".to_string()]);

        let mut reduced = ModelChecker::new(&net);
        let mut full = ModelChecker::new(&net).without_reduction();
        for loc in 0..LOCS {
            let goal = StateFormula::at(AutomatonId(0), LocationId(loc));
            prop_assert_eq!(
                reduced.reachable(&goal).reachable,
                full.reachable(&goal).reachable,
                "location L{} diverged under reduction", loc
            );
        }
    }
}
