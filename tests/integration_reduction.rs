//! Differential tests for the state-space reductions: ample-set
//! partial-order reduction and template-symmetry reduction must be
//! verdict-invisible. For every seeded random network and every goal
//! variant, the reduced engines must return
//! the same status as the unreduced oracle — including on models built
//! to trip the conservative fallbacks (broadcast channels, committed and
//! urgent locations, urgent channels, property-visible components) — and
//! every reachability witness must realize into a concrete run the
//! independent replay validator accepts. The sweep also asserts that
//! both reductions actually fire somewhere, so the suite cannot rot into
//! vacuously comparing two unreduced runs.

use tempo_core::bip::BipSystemBuilder;
use tempo_core::expr::{Expr, Stmt};
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::{ChannelKind, ClockAtom, ModelChecker, Network, NetworkBuilder, StateFormula};
use tempo_core::witness::{realize, replay};

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

/// Builds a random network exercising every reduction code path:
///
/// - 2–3 replicated template automata (identical up to their identity
///   constant and private clock) pinging a monitor over a channel array
///   — symmetry-orbit fuel;
/// - 1–2 private-variable counter automata with internal clock-free
///   edges — ample-set fuel;
/// - a monitor whose middle location is sometimes committed or urgent,
///   on a channel that is sometimes broadcast and sometimes urgent —
///   the conservative-fallback paths;
/// - a goal that sometimes names a replica (pinning its identity) and
///   sometimes only monitor data.
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

    // Replicated template: Idle --ping[i]!--> Busy --internal--> Idle.
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

    // Monitor: counts pings via a select binding covering every identity
    // (the idiom symmetry reduction supports). A committed or urgent hop
    // location exercises the POR/symmetry fallbacks.
    let count = b.decls_mut().int_init("count", 0, 4, 0);
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
    let m_end = m0;

    // Counters: internal, clock-free, variable-disjoint — ample fuel.
    for k in 0..=rng.below(2) {
        let bound = 2 + rng.below(2) as i64;
        let v = b.decls_mut().int_init(&format!("c{k}"), 0, 3, 0);
        let mut a = b.automaton(&format!("Cnt{k}"));
        let l = a.location("L");
        a.edge(l, l)
            .guard_data(Expr::var(v).lt(Expr::konst(bound)))
            .update(Stmt::assign(v, Expr::var(v) + Expr::konst(1)))
            .done();
        a.done();
    }

    let goal = match rng.below(3) {
        0 => StateFormula::data(Expr::var(count).ge(Expr::konst(3))),
        1 => StateFormula::and(vec![
            StateFormula::at(monitor, m_end),
            StateFormula::data(Expr::var(count).ge(Expr::konst(4))),
        ]),
        // Naming a replica pins its identity: symmetry must shrink to
        // the remaining members (or switch itself off) — either way the
        // verdict must not move.
        _ => StateFormula::and(vec![
            StateFormula::at(rep0.expect("replicas >= 2"), busy0.expect("built")),
            StateFormula::data(Expr::var(count).ge(Expr::konst(2))),
        ]),
    };
    (b.build(), goal)
}

#[test]
fn por_and_symmetry_verdicts_match_unreduced_across_seeds() {
    let mut ample_total = 0usize;
    let mut sym_total = 0usize;
    for seed in 0..48u64 {
        let (net, goal) = random_model(seed);
        let oracle = ModelChecker::new(&net)
            .with_config(ExploreConfig::unreduced())
            .reachable(&goal);
        assert_eq!(
            oracle.stats.por_ample + oracle.stats.sym_avoided,
            0,
            "seed={seed}: the unreduced oracle must not reduce"
        );
        let (oracle_dl, _) = ModelChecker::new(&net)
            .with_config(ExploreConfig::unreduced())
            .deadlock_free();
        let res = ModelChecker::new(&net).reachable(&goal);
        assert_eq!(
            res.reachable, oracle.reachable,
            "seed={seed}: reachability verdict moved"
        );
        if res.reachable {
            let trace = res.trace.as_ref().expect("reachable verdicts carry traces");
            let concrete =
                realize(&net, trace, &goal).expect("witness realizes into a concrete run");
            replay(&net, &concrete, Some(&goal)).expect("independent replay accepts");
        }
        ample_total += res.stats.por_ample;
        sym_total += res.stats.sym_avoided;

        let (dl, dl_stats) = ModelChecker::new(&net).deadlock_free();
        assert_eq!(
            dl.holds(),
            oracle_dl.holds(),
            "seed={seed}: deadlock verdict moved"
        );
        ample_total += dl_stats.por_ample;
        sym_total += dl_stats.sym_avoided;
    }
    assert!(ample_total > 0, "POR never fired across the whole sweep");
    assert!(sym_total > 0, "symmetry never fired across the whole sweep");
}

#[test]
fn committed_states_fall_back_to_full_expansion() {
    // Two eligible counters plus a committed ping-pong automaton: while
    // the committed location is active POR must fall back, afterwards the
    // ample set fires — and the verdict matches the unreduced engine.
    let mut b = NetworkBuilder::new();
    for name in ["A", "B"] {
        let v = b.decls_mut().int_init(&format!("v{name}"), 0, 3, 0);
        let mut a = b.automaton(name);
        let l = a.location("L");
        a.edge(l, l)
            .guard_data(Expr::var(v).lt(Expr::konst(3)))
            .update(Stmt::assign(v, Expr::var(v) + Expr::konst(1)))
            .done();
        a.done();
    }
    let mut c = b.automaton("Committed");
    let c0 = c.committed_location("C0");
    let c1 = c.location("C1");
    c.edge(c0, c1).done();
    let cid = c.done();
    let net = b.build();

    let goal = StateFormula::at(cid, c1);
    let oracle = ModelChecker::new(&net)
        .with_config(ExploreConfig::unreduced())
        .reachable(&goal);
    let res = ModelChecker::new(&net).reachable(&goal);
    assert_eq!(res.reachable, oracle.reachable);
    assert!(
        res.stats.por_fallback > 0,
        "the committed initial state must be expanded fully"
    );
}

#[test]
fn bip_persistent_sets_agree_with_full_exploration_across_seeds() {
    let mut reduced_fired = 0usize;
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed ^ 0xB1B0);
        let comps = 2 + rng.below(2) as usize;
        // A quarter of the seeds couple the components through their
        // guards, forcing the persistent-set analysis to stand down.
        let coupled = rng.below(4) == 0;
        let mut b = BipSystemBuilder::new();
        let vars: Vec<_> = (0..comps)
            .map(|k| b.decls_mut().int(&format!("x{k}"), 0, 3))
            .collect();
        let mut ports = Vec::new();
        for k in 0..comps {
            let mut c = b.component(&format!("C{k}"));
            let s = c.state("S");
            let p = c.port("inc");
            c.transition(s, s, p);
            c.done();
            ports.push(p);
        }
        for (k, &p) in ports.iter().enumerate() {
            let bound = 1 + rng.below(3) as i64;
            let i = b.rendezvous(&format!("inc{k}"), &[p]);
            let mut guard = Expr::var(vars[k]).lt(Expr::konst(bound));
            if coupled {
                guard = guard & Expr::var(vars[(k + 1) % comps]).ge(Expr::konst(0));
            }
            b.set_guard(i, guard);
            b.set_update(
                i,
                Stmt::assign(vars[k], Expr::var(vars[k]) + Expr::konst(1)),
            );
        }
        let sys = b.build();
        let full = sys.find_deadlock_with(ExploreConfig::unreduced(), &Budget::unlimited());
        let reduced = sys.find_deadlock_with(ExploreConfig::default(), &Budget::unlimited());
        assert_eq!(
            full.value().is_some(),
            reduced.value().is_some(),
            "seed={seed}: deadlock existence moved"
        );
        assert!(
            reduced.report().states_explored <= full.report().states_explored,
            "seed={seed}: the reduction must never explore more"
        );
        reduced_fired += reduced.report().por_ample_states as usize;
    }
    assert!(
        reduced_fired > 0,
        "the persistent-set reduction never fired across the sweep"
    );
}
