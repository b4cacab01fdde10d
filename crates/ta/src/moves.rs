//! The joint-move rule of a network of timed automata: which edges fire
//! together ([`for_each_move`]) and what firing them does to the
//! discrete state ([`jump`]). It is UPPAAL's rule, and the one place in
//! the workspace that enumerates and fires moves: the zone explorer
//! ([`crate::Explorer`]), the digital-clocks explorer
//! ([`crate::DigitalExplorer`]) and the stochastic simulator
//! (`tempo_smc::Simulator`) all call it and keep only their own clock
//! semantics: clock guards, reset clocks and invariants.
//!
//! * An edge takes part only from its automaton's current location,
//!   once per `select` valuation, and only when its data guard and the
//!   caller's clock-guard test hold.
//! * A channel index must evaluate inside `0..size`.
//! * A binary send pairs with one matching receive of another
//!   automaton.
//! * A broadcast send takes along every other automaton that has a
//!   matching enabled receive, with one move per combination of their
//!   receiving edges. With no receiver, the sender moves alone.
//! * While any automaton is in a committed location, a move needs a
//!   committed participant: the initiator or a receiver.
//!
//! Moves come in a fixed order: initiators by automaton, then edge,
//! then select valuation (the first binding varying fastest); receivers
//! in the same order, with the first receiving automaton's choice
//! varying fastest. The simulator draws a move by its position, so its
//! estimates depend on this order.

use std::ops::ControlFlow;

use tempo_dbm::Clock;
use tempo_expr::Store;

use crate::model::{
    ChannelId, ChannelKind, Edge, LocationId, LocationKind, Network, Sync, SyncDir,
};

/// One participant of a joint move: automaton index, edge index (in
/// that automaton's edge list) and the edge's select valuation.
pub type Participant = (usize, usize, Vec<i64>);

/// A joint move, handed to the callback of [`for_each_move`].
#[derive(Debug, Clone, Copy)]
pub struct Move<'a> {
    /// The channel and the value of its index; `None` for an internal
    /// move.
    pub sync: Option<(ChannelId, i64)>,
    /// The initiator (sender or lone mover) first, then the receivers in
    /// automaton order.
    pub participants: &'a [Participant],
}

/// The label engines print for a move: `tau` for an internal move,
/// `c[i]` on a binary channel and `c[i]!!` on a broadcast one.
#[must_use]
pub fn label(net: &Network, sync: Option<(ChannelId, i64)>) -> String {
    match sync {
        None => "tau".to_owned(),
        Some((ch, idx)) => {
            let ch = &net.channels[ch.index()];
            let bang = if ch.kind == ChannelKind::Broadcast {
                "!!"
            } else {
                ""
            };
            format!("{}[{idx}]{bang}", ch.name)
        }
    }
}

/// Calls `f` on every joint move of the discrete configuration
/// `(locs, store)` whose participants' data guards hold and which pass
/// `enabled`, in the module's order, and stops as soon as `f` breaks.
///
/// `enabled(edge, select)` is the caller's clock-guard test for one
/// participant, already known to leave the current location and to
/// pass its data guard. [`jump`] fires a move.
pub fn for_each_move(
    net: &Network,
    locs: &[LocationId],
    store: &Store,
    enabled: impl FnMut(&Edge, &[i64]) -> bool,
    f: impl FnMut(Move<'_>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    walk(net, locs, store, false, enabled, f)
}

/// [`for_each_move`] restricted to moves on urgent channels. Time may
/// not pass while one of them passes its guards, whether or not [`jump`]
/// would fire it, so an engine's urgency test is whether this breaks on
/// the first move it is given.
pub fn for_each_urgent_move(
    net: &Network,
    locs: &[LocationId],
    store: &Store,
    enabled: impl FnMut(&Edge, &[i64]) -> bool,
    f: impl FnMut(Move<'_>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if !net.channels.iter().any(|c| c.urgent) {
        return ControlFlow::Continue(());
    }
    walk(net, locs, store, true, enabled, f)
}

/// The discrete part of a fired joint move (see [`jump`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jump {
    /// The location of every automaton after the move.
    pub locs: Vec<LocationId>,
    /// The store after every participant's update.
    pub store: Store,
    /// The reset clocks and their values, in firing order (a clock
    /// reset twice ends at the later value).
    pub resets: Vec<(Clock, i64)>,
}

/// Fires the discrete part of the joint move `participants` from
/// `(locs, store)`. Per participant in order (sender first), its edge's
/// resets are evaluated over the store the participants before it left,
/// then its update runs and its automaton moves. `None` refuses the
/// move: a reset failed to evaluate or was negative, or an update
/// failed. Guards and target invariants are the caller's.
#[must_use]
pub fn jump(
    net: &Network,
    locs: &[LocationId],
    store: &Store,
    participants: &[Participant],
) -> Option<Jump> {
    let mut next = Jump {
        locs: locs.to_vec(),
        store: store.clone(),
        resets: Vec::new(),
    };
    for (ai, ei, sel) in participants {
        let e = &net.automata[*ai].edges[*ei];
        for (clock, value) in &e.resets {
            let Ok(v @ 0..) = value.eval(&net.decls, &next.store, sel) else {
                return None;
            };
            next.resets.push((*clock, v));
        }
        e.update.execute(&net.decls, &mut next.store, sel).ok()?;
        next.locs[*ai] = e.to;
    }
    Some(next)
}

fn walk(
    net: &Network,
    locs: &[LocationId],
    store: &Store,
    urgent_only: bool,
    mut enabled: impl FnMut(&Edge, &[i64]) -> bool,
    mut f: impl FnMut(Move<'_>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let committed =
        |ai: usize| net.automata[ai].locations[locs[ai].index()].kind == LocationKind::Committed;
    let any_committed = (0..locs.len()).any(committed);
    let mut parts: Vec<Participant> = Vec::new();
    let mut recvs: Vec<Participant> = Vec::new();
    for (ai, a) in net.automata.iter().enumerate() {
        for (ei, e) in a.edges.iter().enumerate() {
            if e.from != locs[ai] {
                continue;
            }
            let sync = e.sync.as_ref();
            if sync.is_some_and(|s| s.dir == SyncDir::Recv)
                || (urgent_only && !sync.is_some_and(|s| net.channels[s.channel.index()].urgent))
            {
                continue;
            }
            for sel in SelectIter::new(&e.selects) {
                if !data_guard_holds(net, store, e, &sel) || !enabled(e, &sel) {
                    continue;
                }
                let Some(sync) = sync else {
                    if !any_committed || committed(ai) {
                        f(Move {
                            sync: None,
                            participants: &[(ai, ei, sel)],
                        })?;
                    }
                    continue;
                };
                let Some(idx) = channel_index(net, sync, store, &sel) else {
                    continue;
                };
                receivers(net, locs, store, (ai, sync, idx), &mut enabled, &mut recvs);
                let joint = Some((sync.channel, idx));
                let sender = (ai, ei, sel);
                if net.channels[sync.channel.index()].kind == ChannelKind::Binary {
                    for r in &recvs {
                        if !any_committed || committed(ai) || committed(r.0) {
                            f(Move {
                                sync: joint,
                                participants: &[sender.clone(), r.clone()],
                            })?;
                        }
                    }
                } else if !any_committed || committed(ai) || recvs.iter().any(|r| committed(r.0)) {
                    broadcasts(sender, &recvs, &mut parts, |parts| {
                        f(Move {
                            sync: joint,
                            participants: parts,
                        })
                    })?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Whether an edge's data guard evaluates to true at `(store, sel)`.
pub(crate) fn data_guard_holds(net: &Network, store: &Store, e: &Edge, sel: &[i64]) -> bool {
    e.guard_data
        .eval_bool(&net.decls, store, sel)
        .unwrap_or(false)
}

/// The value of a synchronisation's channel index, if it evaluates
/// inside the channel array.
fn channel_index(net: &Network, sync: &Sync, store: &Store, sel: &[i64]) -> Option<i64> {
    let idx = sync.index.eval(&net.decls, store, sel).ok()?;
    let size = net.channels[sync.channel.index()].size as i64;
    (0..size).contains(&idx).then_some(idx)
}

/// Fills `out` with the enabled receiving edges, in automata other than
/// the sender's, that match the sender's channel and index, in
/// automaton, edge and select order.
fn receivers(
    net: &Network,
    locs: &[LocationId],
    store: &Store,
    (sender, sync, idx): (usize, &Sync, i64),
    enabled: &mut impl FnMut(&Edge, &[i64]) -> bool,
    out: &mut Vec<Participant>,
) {
    out.clear();
    for (bi, b) in net.automata.iter().enumerate() {
        if bi == sender {
            continue;
        }
        for (ri, r) in b.edges.iter().enumerate() {
            let Some(rs) = &r.sync else { continue };
            if r.from != locs[bi] || rs.dir != SyncDir::Recv || rs.channel != sync.channel {
                continue;
            }
            for rsel in SelectIter::new(&r.selects) {
                if channel_index(net, rs, store, &rsel) == Some(idx)
                    && data_guard_holds(net, store, r, &rsel)
                    && enabled(r, &rsel)
                {
                    out.push((bi, ri, rsel));
                }
            }
        }
    }
}

/// Calls `f` once per broadcast combination: the sender plus one
/// receiving edge of every automaton in `recvs` (which is grouped by
/// automaton), the first automaton's choice varying fastest.
fn broadcasts(
    sender: Participant,
    recvs: &[Participant],
    parts: &mut Vec<Participant>,
    mut f: impl FnMut(&[Participant]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // `pick[g]` indexes the current choice of the g-th receiving
    // automaton; its choices run from `first[g]` while the automaton
    // stays the same.
    let first: Vec<usize> = (0..recvs.len())
        .filter(|&k| k == 0 || recvs[k].0 != recvs[k - 1].0)
        .collect();
    let mut pick = first.clone();
    loop {
        parts.clear();
        parts.push(sender.clone());
        parts.extend(pick.iter().map(|&k| recvs[k].clone()));
        f(parts)?;
        let mut g = 0;
        loop {
            if g == pick.len() {
                return ControlFlow::Continue(());
            }
            pick[g] += 1;
            if pick[g] < recvs.len() && recvs[pick[g]].0 == recvs[first[g]].0 {
                break;
            }
            pick[g] = first[g];
            g += 1;
        }
    }
}

/// Iterator over the cartesian product of `select` ranges, the first
/// binding varying fastest. Yields one empty valuation for an edge
/// without selects and none when a range is empty.
pub(crate) struct SelectIter {
    ranges: Vec<(i64, i64)>,
    current: Option<Vec<i64>>,
}

impl SelectIter {
    pub(crate) fn new(ranges: &[(i64, i64)]) -> Self {
        let ok = ranges.iter().all(|(lo, hi)| lo <= hi);
        SelectIter {
            ranges: ranges.to_vec(),
            current: ok.then(|| ranges.iter().map(|(lo, _)| *lo).collect()),
        }
    }
}

impl Iterator for SelectIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let current = self.current.clone()?;
        let mut next = current.clone();
        let mut pos = 0;
        loop {
            if pos == self.ranges.len() {
                self.current = None;
                break;
            }
            next[pos] += 1;
            if next[pos] <= self.ranges[pos].1 {
                self.current = Some(next);
                break;
            }
            next[pos] = self.ranges[pos].0;
            pos += 1;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use tempo_expr::Expr;

    #[test]
    fn select_iter_enumerates_product() {
        let items: Vec<_> = SelectIter::new(&[(0, 1), (5, 6)]).collect();
        assert_eq!(items, vec![vec![0, 5], vec![1, 5], vec![0, 6], vec![1, 6]]);
        let empty: Vec<_> = SelectIter::new(&[]).collect();
        assert_eq!(empty, vec![Vec::<i64>::new()]);
        assert_eq!(SelectIter::new(&[(0, 1), (3, 2)]).count(), 0);
    }

    fn all_moves(net: &Network) -> Vec<(String, Vec<Participant>)> {
        let locs: Vec<LocationId> = net.automata.iter().map(|a| a.initial).collect();
        let store = net.decls.initial_store();
        let mut out = Vec::new();
        let _ = for_each_move(
            net,
            &locs,
            &store,
            |_, _| true,
            |mv| {
                out.push((label(net, mv.sync), mv.participants.to_vec()));
                ControlFlow::Continue(())
            },
        );
        out
    }

    #[test]
    fn broadcast_combinations_vary_the_first_receiver_fastest() {
        let mut b = NetworkBuilder::new();
        let go = b.broadcast_channel("go");
        let mut s = b.automaton("S");
        let s0 = s.location("S0");
        s.edge(s0, s0).send(go).done();
        s.done();
        for name in ["R1", "R2"] {
            let mut r = b.automaton(name);
            let r0 = r.location("R0");
            r.edge(r0, r0).recv(go).done();
            r.edge(r0, r0).recv(go).done();
            r.done();
        }
        let net = b.build();
        let moves = all_moves(&net);
        let picks: Vec<(usize, usize)> = moves.iter().map(|(_, p)| (p[1].1, p[2].1)).collect();
        assert_eq!(picks, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert!(moves.iter().all(|(l, p)| l == "go[0]!!" && p[0].0 == 0));
    }

    #[test]
    fn channel_indices_outside_the_array_never_synchronise() {
        let mut b = NetworkBuilder::new();
        let c = b.channel_array("c", 2, ChannelKind::Binary, false);
        let mut s = b.automaton("S");
        let s0 = s.location("S0");
        s.edge(s0, s0).send_indexed(c, Expr::konst(2)).done();
        s.edge(s0, s0).send_indexed(c, Expr::konst(1)).done();
        s.done();
        let mut r = b.automaton("R");
        let r0 = r.location("R0");
        r.edge(r0, r0)
            .select(0, 3)
            .recv_indexed(c, Expr::select(0))
            .done();
        r.done();
        let net = b.build();
        let moves = all_moves(&net);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, "c[1]");
        assert_eq!(moves[0].1, vec![(0, 1, vec![]), (1, 0, vec![1])]);
    }

    #[test]
    fn a_committed_receiver_lets_an_uncommitted_sender_move() {
        let mut b = NetworkBuilder::new();
        let go = b.broadcast_channel("go");
        let mut s = b.automaton("S");
        let s0 = s.location("S0");
        s.edge(s0, s0).send(go).done();
        s.edge(s0, s0).done();
        s.done();
        let mut r = b.automaton("R");
        let rc = r.committed_location("RC");
        r.edge(rc, rc).recv(go).done();
        r.done();
        let net = b.build();
        let moves = all_moves(&net);
        assert_eq!(moves.len(), 1, "only the broadcast involves R");
        assert_eq!(moves[0].1, vec![(0, 0, vec![]), (1, 0, vec![])]);
    }
}
