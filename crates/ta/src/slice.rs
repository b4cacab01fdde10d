//! Query-directed network slicing: disabling edges that provably never
//! fire.
//!
//! Two classes of edges are removed, both justified against the exact
//! joint-transition semantics of [`crate::Explorer`]:
//!
//! * **Empty guards** — the data guard's abstract [`truth`] under the
//!   global range fixpoint is [`Truth::False`] (or a `select` range is
//!   empty). The fixpoint over-approximates every reachable store, so
//!   the concrete guard fails in every reachable state: the edge never
//!   fires and never witnesses an urgent synchronization (the urgency
//!   test of [`crate::moves`] checks the same data guard).
//! * **Synchronization-dead edges** — a binary sender or any receiver
//!   whose channel has no live opposite-direction edge in a *different*
//!   automaton. Binary pairs, broadcast receiver sets and the urgency
//!   test of a binary send all require a partner with `bi != ai`, so
//!   such an edge can neither fire nor block delay. Broadcast senders
//!   fire (and, on an urgent channel, block delay) alone and are never
//!   synchronization-dead. Disabling is iterated to
//!   a fixpoint: removing the last receiver of a channel kills its
//!   senders too.
//!
//! Disabled edges are rewritten in place — guard `false`, no
//! synchronization, no resets, no update, retargeted to their source —
//! so that **edge indices stay stable**. Recorded traces never contain
//! a disabled edge (it never fires), which keeps witness realization
//! against the original network valid. The cleared clock guards and
//! resets let the subsequent active-clock reduction remove clocks that
//! only those edges observed.

use tempo_expr::{Expr, Stmt, VarId};
use tempo_flow::{truth, Interval, Truth};

use crate::flow::{dead_variables, network_ranges};
use crate::model::{ChannelKind, Network, SyncDir};

/// The result of slicing a network: the rewritten model plus the
/// run-report metrics that describe what was removed.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The sliced network. Automaton, location and edge indices are
    /// identical to the input; disabled edges are inert self-loops with
    /// a `false` guard.
    pub net: Network,
    /// Number of edges disabled (`sliced_edges`).
    pub disabled_edges: u64,
    /// Variables whose range fixpoint is strictly tighter than their
    /// declared range (`vars_narrowed`).
    pub vars_narrowed: u64,
    /// Write-only variables outside the cone of influence of every
    /// observable expression (candidates for freezing in the digital
    /// engines; reported as `sliced_vars`).
    pub dead_vars: Vec<VarId>,
}

/// Slices `net`: runs the global range fixpoint, disables provably
/// dead edges to a fixpoint, and collects the dead-variable set.
#[must_use]
pub fn slice(net: &Network) -> Slice {
    let ranges = network_ranges(net);
    let vars_narrowed = ranges.narrowed(net.decls()) as u64;
    let env = ranges.env(net.decls());

    let mut disabled: Vec<Vec<bool>> = net
        .automata()
        .iter()
        .map(|a| vec![false; a.edges.len()])
        .collect();

    // Empty guards and empty select ranges.
    for (ai, a) in net.automata().iter().enumerate() {
        for (ei, e) in a.edges.iter().enumerate() {
            if e.selects.iter().any(|&(lo, hi)| lo > hi) {
                disabled[ai][ei] = true;
                continue;
            }
            let selects: Vec<Interval> = e
                .selects
                .iter()
                .map(|&(lo, hi)| Interval::new(lo, hi))
                .collect();
            if truth(&e.guard_data, net.decls(), &env, &selects) == Truth::False {
                disabled[ai][ei] = true;
            }
        }
    }

    // Synchronization-dead edges, iterated: a disabled edge no longer
    // counts as a partner.
    loop {
        let mut changed = false;
        for (ai, a) in net.automata().iter().enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                if disabled[ai][ei] {
                    continue;
                }
                let Some(sync) = &e.sync else { continue };
                let kind = net.channels()[sync.channel.index()].kind;
                if kind == ChannelKind::Broadcast && sync.dir == SyncDir::Send {
                    continue;
                }
                let want = match sync.dir {
                    SyncDir::Send => SyncDir::Recv,
                    SyncDir::Recv => SyncDir::Send,
                };
                let has_partner = net.automata().iter().enumerate().any(|(bi, b)| {
                    bi != ai
                        && b.edges.iter().enumerate().any(|(ri, r)| {
                            !disabled[bi][ri]
                                && r.sync
                                    .as_ref()
                                    .is_some_and(|rs| rs.channel == sync.channel && rs.dir == want)
                        })
                });
                if !has_partner {
                    disabled[ai][ei] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = net.clone();
    let mut count = 0u64;
    for (ai, a) in out.automata.iter_mut().enumerate() {
        for (ei, e) in a.edges.iter_mut().enumerate() {
            if disabled[ai][ei] {
                count += 1;
                e.to = e.from;
                e.selects.clear();
                e.guard_clocks.clear();
                e.guard_data = Expr::konst(0);
                e.sync = None;
                e.resets.clear();
                e.update = Stmt::Skip;
            }
        }
    }

    Slice {
        net: out,
        disabled_edges: count,
        vars_narrowed,
        dead_vars: dead_variables(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockAtom, NetworkBuilder};
    use crate::reach::ModelChecker;
    use crate::StateFormula;

    #[test]
    fn provably_false_guards_are_disabled() {
        let mut b = NetworkBuilder::new();
        let x = b.decls_mut().int("x", 0, 5);
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        // x stays in [0, 5]: the guard x > 100 can never fire.
        a.edge(l0, l1)
            .guard_data(tempo_expr::Expr::var(x).gt(tempo_expr::Expr::konst(100)))
            .done();
        a.edge(l0, l0)
            .update(tempo_expr::Stmt::assign(
                x,
                tempo_expr::Expr::var(x).bin(tempo_expr::BinOp::Min, tempo_expr::Expr::konst(5))
                    + tempo_expr::Expr::konst(0),
            ))
            .done();
        a.done();
        let net = b.build();
        let s = slice(&net);
        assert_eq!(s.disabled_edges, 1);
        let a_id = crate::model::AutomatonId(0);
        let mut mc = ModelChecker::new(&s.net);
        assert!(!mc.reachable(&StateFormula::at(a_id, l1)).reachable);
    }

    #[test]
    fn partnerless_syncs_are_disabled_transitively() {
        let mut b = NetworkBuilder::new();
        let c = b.channel("c");
        let d = b.channel("d");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        // c! has a receiver, but only in the same automaton: dead.
        a.edge(l0, l1).send(c).done();
        a.edge(l0, l1).recv(c).done();
        // d! pairs with B's d? — live.
        a.edge(l0, l1).send(d).done();
        a.done();
        let mut bb = b.automaton("B");
        let m0 = bb.location("M0");
        let m1 = bb.location("M1");
        bb.edge(m0, m1).recv(d).done();
        bb.done();
        let net = b.build();
        let s = slice(&net);
        assert_eq!(s.disabled_edges, 2, "both c edges die, both d edges live");
        let mut mc = ModelChecker::new(&s.net);
        assert!(
            mc.reachable(&StateFormula::at(crate::model::AutomatonId(1), m1))
                .reachable
        );
        assert!(
            mc.reachable(&StateFormula::at(crate::model::AutomatonId(0), l1))
                .reachable
        );
    }

    #[test]
    fn sliced_edges_free_clocks_for_reduction() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let dead = b.decls_mut().int("dead", 0, 0);
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        // The only observation of clock x sits on an edge whose guard
        // is provably false (dead == 1 while dead is always 0).
        a.edge(l0, l1)
            .guard_data(tempo_expr::Expr::var(dead).eq(tempo_expr::Expr::konst(1)))
            .guard_clock(ClockAtom::ge(x, 10))
            .done();
        a.edge(l0, l1).done();
        a.done();
        let net = b.build();
        let s = slice(&net);
        assert_eq!(s.disabled_edges, 1);
        let reduced = s.net.reduced();
        assert!(
            reduced.removed().contains(&"x".to_owned()),
            "clock x is only read by the dead edge and must be removable"
        );
        assert_eq!(net.reduced().removed().len(), 0, "unsliced keeps x");
    }
}
