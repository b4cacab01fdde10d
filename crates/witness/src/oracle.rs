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
use tempo_mdp::Opt;
use tempo_modest::Mcpta;
use tempo_obs::{Budget, ExploreConfig};
use tempo_smc::{RatePolicy, Simulator};
use tempo_ta::{
    AutomatonId, ChannelKind, ClockAtom, LocationId, ModelChecker, Network, NetworkBuilder,
    StateFormula, SyncDir,
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

/// A branch's update and its reset of `x`, when it has them.
type Effects = (Option<Stmt>, Option<Expr>);

/// A branch weight, 1–3.
fn weight(rng: &mut Shapes) -> u64 {
    1 + rng.below(3) as u64
}

/// Which choices [`random_network`] draws.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choices {
    /// Every edge is a choice of its own.
    Dirac,
    /// An edge may be the first of up to three weighted branches.
    Weighted,
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
///
/// With [`Choices::Weighted`], each edge gets zero to two sibling
/// branches ([`tempo_ta::EdgeBuilder::branch`], weights 1–3), which copy
/// its source, selects, guards and synchronisation and draw their own
/// target, update and reset. Half of those networks draw no invariant,
/// no `v := v + 1` and no `x := v - 1`, so none of their moves can be
/// refused once its guards pass. [`Choices::Dirac`] makes none of these
/// extra draws, so the Dirac networks of a seed never depend on them.
pub(crate) fn random_network(rng: &mut Shapes, choices: Choices) -> Network {
    let weighted = choices == Choices::Weighted;
    let total = weighted && rng.below(2) == 0;
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let v = b.decls_mut().int("v", 0, 3);
    let channels = [
        (b.channel_array("c", 2, ChannelKind::Binary, false), false),
        (b.channel_array("b", 2, ChannelKind::Broadcast, false), true),
        (b.channel_array("u", 1, ChannelKind::Binary, true), false),
        (b.channel_array("ub", 1, ChannelKind::Broadcast, true), true),
    ];
    // A branch's own part: its update and its reset of `x`.
    let effects = |rng: &mut Shapes| -> Effects {
        let update = match rng.below(6) {
            0 | 1 => Some(Stmt::assign(v, Expr::konst(rng.int(4)))),
            2 if !total => Some(Stmt::assign(v, Expr::var(v) + Expr::konst(1))),
            _ => None,
        };
        let reset = match rng.below(6) {
            0 | 1 => Some(Expr::konst(0)),
            2 if !total => Some(Expr::var(v) - Expr::konst(1)),
            _ => None,
        };
        (update, reset)
    };
    for ai in 0..2 + rng.below(3) {
        let mut a = b.automaton(&format!("A{ai}"));
        let locs: Vec<LocationId> = (0..2 + rng.below(2))
            .map(|li| {
                let name = format!("L{li}");
                match rng.below(8) {
                    0 => a.committed_location(&name),
                    1 => a.urgent_location(&name),
                    2 if !total => a.location_with_invariant(&name, vec![ClockAtom::le(x, 2)]),
                    _ => a.location(&name),
                }
            })
            .collect();
        for _ in 0..3 + rng.below(5) {
            let from = locs[rng.below(locs.len())];
            let to = locs[rng.below(locs.len())];
            let selects: Vec<i64> = (0..rng.below(3)).map(|_| 1 + rng.int(2)).collect();
            let index = match rng.below(4) {
                0 if !selects.is_empty() => Expr::select(0),
                1 => Expr::var(v),
                _ => Expr::konst(rng.int(3)),
            };
            let (ch, broadcast) = channels[rng.below(channels.len())];
            let urgent = ch.index() >= 2;
            // Urgent edges and broadcast receivers take no clock guard.
            let (dir, clockless) = match rng.below(5) {
                0 => (None, false),
                1 | 2 => (Some(SyncDir::Send), urgent),
                _ => (Some(SyncDir::Recv), urgent || broadcast),
            };
            let clock_guard = (!clockless && rng.below(3) == 0).then(|| {
                let k = rng.int(3);
                if rng.below(2) == 0 {
                    ClockAtom::ge(x, k)
                } else {
                    ClockAtom::le(x, k)
                }
            });
            let data_guard = match rng.below(4) {
                0 => Some(Expr::var(v).eq(Expr::konst(rng.int(4)))),
                1 if selects.len() == 2 => Some(Expr::select(1).le(Expr::var(v))),
                _ => None,
            };
            // Dirac edges are branches of weight 1 that continue no choice.
            let mut branch = |to, (update, reset): Effects, weight, continues_choice| {
                let mut e = a.edge(from, to);
                for &hi in &selects {
                    e = e.select(0, hi);
                }
                e = match dir {
                    None => e,
                    Some(SyncDir::Send) => e.send_indexed(ch, index.clone()),
                    Some(SyncDir::Recv) => e.recv_indexed(ch, index.clone()),
                };
                if let Some(g) = clock_guard {
                    e = e.guard_clock(g);
                }
                if let Some(g) = &data_guard {
                    e = e.guard_data(g.clone());
                }
                if let Some(u) = update {
                    e = e.update(u);
                }
                if let Some(r) = reset {
                    e = e.reset_expr(x, r);
                }
                e.branch(weight, continues_choice).done();
            };
            let first = effects(rng);
            let (w, siblings) = if weighted {
                (weight(rng), rng.below(3))
            } else {
                (1, 0)
            };
            branch(to, first, w, false);
            for _ in 0..siblings {
                let to = locs[rng.below(locs.len())];
                let own = effects(rng);
                branch(to, own, weight(rng), true);
            }
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
            mc.reach_quantitative(Opt::Max, g, &Budget::unlimited())
                .into_value()
                .initial_value
                > 0.0
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
        let net = random_network(&mut rng, Choices::Dirac);
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
            assert_eq!(
                game.solve_reachability_governed(goal, &Budget::unlimited())
                    .into_value()
                    .winning,
                zone,
                "tiga: {case}"
            );
            let (cost, cert) = certified_min_cost(&pnet, goal, &Budget::unlimited())
                .unwrap_or_else(|e| panic!("cora certificate: {e:?}: {case}"));
            assert_eq!(cost.value().is_some(), zone, "cora: {case}");
            assert_eq!(cert.is_some(), zone, "cora certificate: {case}");
            assert_eq!(
                unsliced
                    .min_cost_reach_governed(goal, &Budget::unlimited())
                    .into_value()
                    .is_some(),
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

/// Whether no move of `net` can be refused once its guards pass: every
/// update assigns a constant in `v`'s range, every reset of `x` is to
/// 0, and no location has an invariant that a jump could break.
fn cannot_refuse(net: &Network) -> bool {
    let v = net.decls().lookup("v").expect("the generator's variable");
    let update_total =
        |s: &Stmt| *s == Stmt::skip() || (0..4).any(|k| *s == Stmt::assign(v, Expr::konst(k)));
    net.automata().iter().all(|a| {
        a.locations.iter().all(|l| l.invariant.is_empty())
            && a.edges.iter().all(|e| {
                update_total(&e.update) && e.resets.iter().all(|(_, r)| *r == Expr::konst(0))
            })
    })
}

/// The oracle on networks with weighted choices. mcpta draws one branch
/// of a choice by weight and drops the whole transition when one of its
/// branches is refused, while the zone engine, TIGA and CORA read each
/// branch as an ordinary edge and fire the branches that are not
/// refused. So mcpta's `Pmax > 0` implies zone reachability, and equals
/// it on networks where no branch can be refused; TIGA and CORA agree
/// with the zone engine. SMC refuses weighted networks and is left out.
#[test]
fn engines_agree_on_random_weighted_networks() {
    let mut rng = Shapes(0x6a09_e667_f3bc_c908);
    let (mut weighted, mut total) = (0, 0);
    let (mut equal_reachable, mut equal_unreachable, mut refused_only) = (0, 0, 0);
    for n in 0..200 {
        let net = random_network(&mut rng, Choices::Weighted);
        let branches = net
            .automata()
            .iter()
            .any(|a| a.edges.iter().any(|e| e.continues_choice));
        weighted += usize::from(branches);
        let exact = cannot_refuse(&net);
        total += usize::from(exact);
        let goals = goals(&net);
        let mcpta = mcpta_positive(&net, &goals);
        let pnet = PricedNetwork::new(net.clone());
        let unsliced = PricedNetwork::new(net.clone()).without_flow();
        let game = GameSolver::new(&net);
        for (goal, mcpta) in goals.iter().zip(mcpta) {
            let case = format!("weighted network {n}, goal {goal:?}");
            let zone = ModelChecker::new(&net).reachable(goal).reachable;
            if exact {
                assert_eq!(mcpta, zone, "mcpta Pmax > 0: {case}");
                if zone {
                    equal_reachable += 1;
                } else {
                    equal_unreachable += 1;
                }
            } else {
                assert!(
                    zone || !mcpta,
                    "mcpta Pmax > 0 on an unreachable goal: {case}"
                );
                refused_only += usize::from(zone && !mcpta);
            }
            assert_eq!(
                game.solve_reachability_governed(goal, &Budget::unlimited())
                    .into_value()
                    .winning,
                zone,
                "tiga: {case}"
            );
            let (cost, cert) = certified_min_cost(&pnet, goal, &Budget::unlimited())
                .unwrap_or_else(|e| panic!("cora certificate: {e:?}: {case}"));
            assert_eq!(cost.value().is_some(), zone, "cora: {case}");
            assert_eq!(cert.is_some(), zone, "cora certificate: {case}");
            assert_eq!(
                unsliced
                    .min_cost_reach_governed(goal, &Budget::unlimited())
                    .into_value()
                    .is_some(),
                zone,
                "cora without flow: {case}"
            );
        }
    }
    assert!(
        weighted >= 150,
        "{weighted} of 200 networks have a weighted choice"
    );
    assert!(total >= 50, "{total} of 200 networks cannot refuse a move");
    assert!(
        equal_reachable >= 50,
        "{equal_reachable} reachable goals compared for equality"
    );
    assert!(
        equal_unreachable >= 50,
        "{equal_unreachable} unreachable goals compared for equality"
    );
    // The one-way check is not vacuous: refused branches do hide goals
    // from mcpta that the zone engine reaches.
    assert!(
        refused_only > 0,
        "no goal reachable only through a refused branch"
    );
}
