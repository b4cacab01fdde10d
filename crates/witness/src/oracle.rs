//! Random closed networks, and the cross-engine verdict oracle on them.
//!
//! [`random_network`] draws the networks both seeded engine tests of
//! this crate use: the move-level comparison with the replayer
//! (`validate.rs`) and [`engines_agree_on_random_closed_networks`]
//! here, which compares *verdicts*. On a closed network digital clocks
//! preserve reachability (Henzinger–Manna–Pnueli), so every engine must
//! give each goal the same answer: the zone engine with and without
//! reductions, `mcpta`'s `Pmax > 0`, the TIGA reachability game with
//! every edge controllable, CORA's minimum cost (with a certificate
//! that validates), and SMC, whose estimate may exceed 0 only for a
//! reachable goal.

use crate::certify::certified_min_cost;
use tempo_cora::PricedNetwork;
use tempo_expr::{Expr, Stmt};
use tempo_modest::Mcpta;
use tempo_obs::{Budget, ExploreConfig};
use tempo_smc::{RatePolicy, Simulator};
use tempo_ta::{
    AutomatonId, ChannelKind, ClockAtom, LocationId, ModelChecker, Network, NetworkBuilder,
    StateFormula,
};
use tempo_tiga::GameSolver;

/// A xorshift stream for model shapes.
pub(crate) struct Shapes(pub(crate) u64);

impl Shapes {
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        usize::try_from(self.0 % n as u64).expect("below a usize bound")
    }

    pub(crate) fn int(&mut self, n: usize) -> i64 {
        i64::try_from(self.below(n)).expect("a small bound")
    }
}

/// A random closed network over one clock `x` and one variable `v`
/// in `0..=3`, with a binary and a broadcast channel array of size 2
/// and scalar urgent binary and broadcast channels. Locations may be
/// committed or urgent; edges carry zero, one or two selects, and a
/// channel index is a constant, a select or `v`, so it may fall
/// outside its array. With up to seven edges per automaton, one
/// automaton often has several receiving edges on one channel.
/// Some moves are refused when fired: an update `v := v + 1` fails
/// at `v = 3` and a reset `x := v - 1` is negative at `v = 0`; a
/// receiver's reset reads the sender's update.
pub(crate) fn random_network(rng: &mut Shapes) -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let v = b.decls_mut().int("v", 0, 3);
    let channels = [
        (b.channel_array("c", 2, ChannelKind::Binary, false), false),
        (b.channel_array("b", 2, ChannelKind::Broadcast, false), true),
        (b.channel_array("u", 1, ChannelKind::Binary, true), false),
        (b.channel_array("ub", 1, ChannelKind::Broadcast, true), true),
    ];
    for ai in 0..2 + rng.below(3) {
        let mut a = b.automaton(&format!("A{ai}"));
        let locs: Vec<LocationId> = (0..2 + rng.below(2))
            .map(|li| {
                let name = format!("L{li}");
                match rng.below(8) {
                    0 => a.committed_location(&name),
                    1 => a.urgent_location(&name),
                    2 => a.location_with_invariant(&name, vec![ClockAtom::le(x, 2)]),
                    _ => a.location(&name),
                }
            })
            .collect();
        for _ in 0..3 + rng.below(5) {
            let from = locs[rng.below(locs.len())];
            let to = locs[rng.below(locs.len())];
            let mut e = a.edge(from, to);
            let selects = rng.below(3);
            for _ in 0..selects {
                e = e.select(0, 1 + rng.int(2));
            }
            let index = match rng.below(4) {
                0 if selects > 0 => Expr::select(0),
                1 => Expr::var(v),
                _ => Expr::konst(rng.int(3)),
            };
            let (ch, broadcast) = channels[rng.below(channels.len())];
            let urgent = ch.index() >= 2;
            // Urgent edges and broadcast receivers take no clock guard.
            let clockless;
            (e, clockless) = match rng.below(5) {
                0 => (e, false),
                1 | 2 => (e.send_indexed(ch, index), urgent),
                _ => (e.recv_indexed(ch, index), urgent || broadcast),
            };
            if !clockless && rng.below(3) == 0 {
                let k = rng.int(3);
                e = e.guard_clock(if rng.below(2) == 0 {
                    ClockAtom::ge(x, k)
                } else {
                    ClockAtom::le(x, k)
                });
            }
            match rng.below(4) {
                0 => e = e.guard_data(Expr::var(v).eq(Expr::konst(rng.int(4)))),
                1 if selects == 2 => e = e.guard_data(Expr::select(1).le(Expr::var(v))),
                _ => {}
            }
            match rng.below(6) {
                0 | 1 => e = e.update(Stmt::assign(v, Expr::konst(rng.int(4)))),
                2 => e = e.update(Stmt::assign(v, Expr::var(v) + Expr::konst(1))),
                _ => {}
            }
            match rng.below(6) {
                0 | 1 => e = e.reset(x, 0),
                2 => e = e.reset_expr(x, Expr::var(v) - Expr::konst(1)),
                _ => {}
            }
            e.done();
        }
        a.done();
    }
    b.build()
}

/// Every non-initial location of every automaton, alone and with
/// `x >= 4`, a constant above every one [`random_network`] compares `x`
/// with, so only a clamp that covers the query keeps it observable.
fn goals(net: &Network) -> Vec<StateFormula> {
    let x = net.clock_by_name("x").expect("the generator's clock");
    let mut out = Vec::new();
    for (ai, a) in net.automata().iter().enumerate() {
        for li in (0..a.locations.len()).filter(|&l| LocationId(l) != a.initial) {
            let at = StateFormula::at(AutomatonId(ai), LocationId(li));
            out.push(StateFormula::and(vec![
                at.clone(),
                StateFormula::clock(ClockAtom::ge(x, 4)),
            ]));
            out.push(at);
        }
    }
    out
}

/// Whether `mcpta`'s `Pmax` of each goal is above 0, from one MDP per
/// set of clock atoms (the plain goals share one, the `x >= 4` goals
/// another).
fn mcpta_positive(net: &Network, goals: &[StateFormula]) -> Vec<bool> {
    let build = |atoms: &[ClockAtom]| {
        Mcpta::try_build(net, atoms, &Budget::unlimited())
            .into_value()
            .expect("a closed network with a valid initial state builds")
    };
    let x = net.clock_by_name("x").expect("the generator's clock");
    let plain = build(&[]);
    let timed = build(&[ClockAtom::ge(x, 4)]);
    goals
        .iter()
        .map(|g| {
            let mc = if g.clock_atoms().is_empty() {
                &plain
            } else {
                &timed
            };
            mc.pmax(g) > 0.0
        })
        .collect()
}

#[test]
fn engines_agree_on_random_closed_networks() {
    let mut rng = Shapes(0x9e37_79b9_7f4a_7c15);
    let plain = ExploreConfig {
        por: false,
        symmetry: false,
        lu: false,
        slice: false,
        spill: None,
    };
    let (mut reachable, mut unreachable) = (0, 0);
    for n in 0..300 {
        let net = random_network(&mut rng);
        let goals = goals(&net);
        let runs: Vec<tempo_smc::Run> = (0..10)
            .map(|seed| Simulator::new(&net, RatePolicy::new(), seed).simulate(20.0, 500))
            .collect();
        let mcpta = mcpta_positive(&net, &goals);
        let pnet = PricedNetwork::new(net.clone());
        let unsliced = PricedNetwork::new(net.clone()).without_flow();
        let game = GameSolver::new(&net);
        for (goal, mcpta) in goals.iter().zip(mcpta) {
            let case = format!("network {n}, goal {goal:?}");
            let zone = ModelChecker::new(&net).reachable(goal).reachable;
            let zone_plain = ModelChecker::new(&net)
                .with_config(plain.clone())
                .reachable(goal)
                .reachable;
            assert_eq!(zone_plain, zone, "zone without reductions: {case}");
            assert_eq!(mcpta, zone, "mcpta Pmax > 0: {case}");
            assert_eq!(game.solve_reachability(goal).winning, zone, "tiga: {case}");
            let (cost, cert) = certified_min_cost(&pnet, goal, &Budget::unlimited())
                .unwrap_or_else(|e| panic!("cora certificate: {e:?}: {case}"));
            assert_eq!(cost.value().is_some(), zone, "cora: {case}");
            assert_eq!(cert.is_some(), zone, "cora certificate: {case}");
            assert_eq!(
                unsliced.min_cost_reach(goal).is_some(),
                zone,
                "cora without flow: {case}"
            );
            if runs.iter().any(|r| r.first_hit(&net, goal).is_some()) {
                assert!(zone, "smc hit an unreachable goal: {case}");
            }
            if zone {
                reachable += 1;
            } else {
                unreachable += 1;
            }
        }
    }
    assert!(reachable >= 50, "{reachable} reachable goals");
    assert!(unreachable >= 50, "{unreachable} unreachable goals");
}
