//! Symbolic (zone-based) semantics of networks of timed automata.
//!
//! States pair a discrete part (location vector + variable store) with a
//! zone. Which edges fire together, and what they do to the discrete
//! part, is decided by [`crate::moves`], the network's one move rule;
//! this module adds the zone semantics: clock guards, resets and
//! invariants on DBMs, and urgent locations. Explored
//! zones are kept delay-closed (`up ∧ invariant`) and extrapolated with
//! per-clock maximal constants so the zone graph is finite.

use std::ops::ControlFlow;

use crate::model::{AutomatonId, ClockAtom, LocationId, LocationKind, Network};
use crate::moves::{self, Move, Participant, SelectIter};
use tempo_dbm::{Bound, Clock, Dbm, Federation};
use tempo_expr::Store;

/// A symbolic state of a network: one location per automaton, a variable
/// store, and a clock zone.
#[derive(Debug, Clone, PartialEq)]
pub struct SymState {
    /// Current location of each automaton, indexed by automaton id.
    pub locs: Vec<LocationId>,
    /// Values of all discrete variables.
    pub store: Store,
    /// The clock zone (delay-closed and extrapolated during exploration).
    pub zone: Dbm,
}

impl SymState {
    /// The discrete part, used as a hash key in passed/waiting lists.
    #[must_use]
    pub fn discrete(&self) -> (Vec<LocationId>, Store) {
        (self.locs.clone(), self.store.clone())
    }

    /// Whether automaton `a` is at location `l`.
    #[must_use]
    pub fn is_at(&self, a: AutomatonId, l: LocationId) -> bool {
        self.locs[a.index()] == l
    }
}

/// How a successor state was produced (for traces and diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// An internal (unsynchronized) edge of one automaton.
    Internal {
        /// The moving automaton.
        automaton: AutomatonId,
        /// Index of the taken edge in that automaton's edge list.
        edge: usize,
    },
    /// A binary or broadcast synchronization.
    Sync {
        /// Channel name with resolved index, e.g. `appr[2]`.
        label: String,
        /// The sending automaton and edge index.
        sender: (AutomatonId, usize),
        /// The receiving automata and edge indices.
        receivers: Vec<(AutomatonId, usize)>,
    },
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Internal { automaton, edge } => {
                write!(f, "tau(a{}, e{})", automaton.index(), edge)
            }
            Action::Sync { label, .. } => write!(f, "{label}"),
        }
    }
}

/// The symbolic successor generator for a network: the joint moves of
/// [`crate::moves::for_each_move`], fired by [`crate::moves::jump`] and
/// on zones.
///
/// ```
/// use tempo_ta::{NetworkBuilder, Explorer};
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).done();
/// a.done();
/// let net = b.build();
/// let exp = Explorer::new(&net);
/// let init = exp.initial_state();
/// assert_eq!(exp.successors(&init).len(), 1);
/// ```
#[derive(Debug)]
pub struct Explorer<'n> {
    net: &'n Network,
    max_consts: Vec<i64>,
    /// When `false`, zones are not extrapolated (for the extrapolation
    /// ablation bench; termination is then not guaranteed in general).
    extrapolate: bool,
    /// Per-location LU bounds; when present, zones are widened with
    /// `Extra_LU` over the state's location vector instead of the
    /// global maximal-constant `Extra_M`.
    lu: Option<crate::flow::NetworkLu>,
}

impl<'n> Explorer<'n> {
    /// Creates an explorer with extrapolation constants derived from the
    /// network's guards and invariants.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        Explorer {
            max_consts: net.max_constants(),
            net,
            extrapolate: true,
            lu: None,
        }
    }

    /// Creates an explorer whose extrapolation constants additionally
    /// cover clock constants appearing in properties.
    #[must_use]
    pub fn with_extra_constants(net: &'n Network, extra: &[ClockAtom]) -> Self {
        let mut max_consts = net.max_constants();
        for atom in extra {
            if atom.bound.is_inf() {
                continue;
            }
            let c = atom.bound.constant().abs();
            if !atom.i.is_ref() {
                max_consts[atom.i.index()] = max_consts[atom.i.index()].max(c);
            }
            if !atom.j.is_ref() {
                max_consts[atom.j.index()] = max_consts[atom.j.index()].max(c);
            }
        }
        Explorer {
            max_consts,
            net,
            extrapolate: true,
            lu: None,
        }
    }

    /// Disables maximal-constant extrapolation (ablation only).
    #[must_use]
    pub fn without_extrapolation(mut self) -> Self {
        self.extrapolate = false;
        self
    }

    /// Switches extrapolation to per-location `Extra_LU` with the given
    /// solved bound tables. Sound for reachability: the LU abstraction
    /// preserves reachability of every location/data configuration and
    /// of all protected clock constraints, but coarsens zones — do not
    /// combine with exact-zone analyses (deadlock federations,
    /// liveness).
    #[must_use]
    pub fn with_lu(mut self, lu: crate::flow::NetworkLu) -> Self {
        self.lu = Some(lu);
        self
    }

    /// The network being explored.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The initial symbolic state (all clocks `0`, delay-closed).
    ///
    /// # Panics
    ///
    /// Panics if the initial invariant is unsatisfiable.
    #[must_use]
    pub fn initial_state(&self) -> SymState {
        let locs: Vec<LocationId> = self.net.automata.iter().map(|a| a.initial).collect();
        let store = self.net.decls.initial_store();
        let mut zone = Dbm::zero(self.net.dim());
        assert!(
            self.apply_invariants(&locs, &mut zone),
            "initial state violates invariants"
        );
        let mut state = SymState { locs, store, zone };
        self.delay_close(&mut state);
        state
    }

    /// Conjoins the invariants of all current locations onto the zone.
    /// Returns `false` if the zone became empty.
    fn apply_invariants(&self, locs: &[LocationId], zone: &mut Dbm) -> bool {
        for (a, &l) in self.net.automata.iter().zip(locs) {
            for atom in &a.locations[l.index()].invariant {
                if !zone.constrain(atom.i, atom.j, atom.bound) {
                    return false;
                }
            }
        }
        true
    }

    /// The invariant zone of a location vector (starting from universe).
    #[must_use]
    pub fn invariant_zone(&self, locs: &[LocationId]) -> Dbm {
        let mut z = Dbm::universe(self.net.dim());
        self.apply_invariants(locs, &mut z);
        z
    }

    /// Whether delay is permitted in this discrete configuration: no
    /// automaton is in an urgent or committed location and no move on an
    /// urgent channel is enabled ([`moves::for_each_urgent_move`]; such
    /// edges carry no clock guards, so the test is data-only).
    #[must_use]
    pub fn delay_allowed(&self, state: &SymState) -> bool {
        self.net
            .automata
            .iter()
            .zip(&state.locs)
            .all(|(a, &l)| a.locations[l.index()].kind == LocationKind::Normal)
            && moves::for_each_urgent_move(
                self.net,
                &state.locs,
                &state.store,
                |_, _| true,
                |_| ControlFlow::Break(()),
            )
            .is_continue()
    }

    /// Applies `up ∧ invariant` (if delay is allowed) and extrapolation.
    fn delay_close(&self, state: &mut SymState) {
        if self.delay_allowed(state) {
            state.zone.up();
            self.apply_invariants(&state.locs, &mut state.zone);
        }
        if self.extrapolate {
            match &self.lu {
                Some(lu) => {
                    let mut lower = Vec::new();
                    let mut upper = Vec::new();
                    lu.state_bounds(&state.locs, &mut lower, &mut upper);
                    state.zone.extrapolate_lu(&lower, &upper);
                }
                None => state.zone.extrapolate(&self.max_consts),
            }
        }
    }

    /// Whether any automaton currently occupies a committed location
    /// (used by partial-order reduction to fall back to full expansion:
    /// committed semantics restricts which automata may fire).
    pub(crate) fn any_committed(&self, state: &SymState) -> bool {
        self.net
            .automata
            .iter()
            .zip(&state.locs)
            .any(|(a, &l)| a.locations[l.index()].kind == LocationKind::Committed)
    }

    /// Successors produced by the internal (unsynchronized) edges of a
    /// single automaton. Used by ample-set partial-order reduction; the
    /// caller guarantees no committed location is active.
    pub(crate) fn internal_successors(
        &self,
        state: &SymState,
        ai: usize,
    ) -> Vec<(Action, SymState)> {
        let a = &self.net.automata[ai];
        let mut out = Vec::new();
        for (ei, e) in a.edges.iter().enumerate() {
            if e.from != state.locs[ai] || e.sync.is_some() {
                continue;
            }
            for sel in SelectIter::new(&e.selects) {
                if !moves::data_guard_holds(self.net, &state.store, e, &sel) {
                    continue;
                }
                if let Some(next) = self.fire(state, &[(ai, ei, sel)]) {
                    let automaton = AutomatonId(ai);
                    out.push((
                        Action::Internal {
                            automaton,
                            edge: ei,
                        },
                        next,
                    ));
                }
            }
        }
        out
    }

    /// Computes all symbolic successors with their actions, one per joint
    /// move of [`moves::for_each_move`] that fires. Successor zones are
    /// delay-closed and extrapolated; empty successors are dropped.
    #[must_use]
    pub fn successors(&self, state: &SymState) -> Vec<(Action, SymState)> {
        let mut out = Vec::new();
        self.for_each_move(state, |mv| {
            if let Some(next) = self.fire(state, mv.participants) {
                out.push((self.action(&mv), next));
            }
        });
        out
    }

    /// The joint moves of the state's discrete part; clock guards are
    /// left to the zone.
    fn for_each_move(&self, state: &SymState, mut f: impl FnMut(Move<'_>)) {
        let _ = moves::for_each_move(
            self.net,
            &state.locs,
            &state.store,
            |_, _| true,
            |mv| {
                f(mv);
                ControlFlow::Continue(())
            },
        );
    }

    fn action(&self, mv: &Move<'_>) -> Action {
        let (ai, ei, _) = mv.participants[0];
        match mv.sync {
            None => Action::Internal {
                automaton: AutomatonId(ai),
                edge: ei,
            },
            Some(_) => Action::Sync {
                label: moves::label(self.net, mv.sync),
                sender: (AutomatonId(ai), ei),
                receivers: mv.participants[1..]
                    .iter()
                    .map(|&(bi, ri, _)| (AutomatonId(bi), ri))
                    .collect(),
            },
        }
    }

    /// Conjoins the participants' clock guards onto a copy of the zone
    /// (their data guards have passed the move rule).
    fn guard_zone(&self, state: &SymState, participants: &[Participant]) -> Option<Dbm> {
        let mut zone = state.zone.clone();
        let edges = participants
            .iter()
            .map(|&(ai, ei, _)| &self.net.automata[ai].edges[ei]);
        for atom in edges.flat_map(|e| &e.guard_clocks) {
            if !zone.constrain(atom.i, atom.j, atom.bound) {
                return None;
            }
        }
        Some(zone)
    }

    /// Fires a joint move (participants in order: sender first). Returns
    /// the delay-closed successor, or `None` if a clock guard or target
    /// invariant fails or [`moves::jump`] refuses the move.
    fn fire(&self, state: &SymState, participants: &[Participant]) -> Option<SymState> {
        let mut zone = self.guard_zone(state, participants)?;
        let moves::Jump {
            locs,
            store,
            resets,
        } = moves::jump(self.net, &state.locs, &state.store, participants)?;
        for (clock, v) in resets {
            zone.reset(clock, v);
        }
        if !self.apply_invariants(&locs, &mut zone) {
            return None;
        }
        let mut next = SymState { locs, store, zone };
        self.delay_close(&mut next);
        if next.zone.is_empty() {
            return None;
        }
        Some(next)
    }

    /// The federation of valuations in `state.zone` from which **no**
    /// action transition is possible now or after any legal delay: the
    /// symbolic deadlock check of `A[] not deadlock`. Every joint move
    /// of the rule contributes the source zone from which it can fire,
    /// receivers' resets and target invariants included.
    ///
    /// The returned federation is empty iff the state is deadlock-free.
    #[must_use]
    pub fn deadlock_federation(&self, state: &SymState) -> Federation {
        let dim = self.net.dim();
        let mut escape = Federation::empty(dim);
        let delay = self.delay_allowed(state);
        self.for_each_move(state, |mv| {
            if let Some(zone) = self.edge_source_zone(state, mv.participants) {
                let mut fed = Federation::from_zones(dim, vec![zone]);
                if delay {
                    // Points that can delay (within the state's
                    // delay-closed zone) into the guard.
                    fed.down();
                }
                escape.union_with(&fed.intersection_zone(&state.zone));
            }
        });
        Federation::from_zones(dim, vec![state.zone.clone()]).subtract(&escape)
    }

    /// The subset of `state.zone` from which the joint move can be taken:
    /// guards conjoined and target invariants reflected back onto the
    /// source valuations, each reset clock replaced by the last value
    /// [`moves::jump`] gives it. `None` when the jump refuses the move.
    fn edge_source_zone(&self, state: &SymState, participants: &[Participant]) -> Option<Dbm> {
        let mut zone = self.guard_zone(state, participants)?;
        let jump = moves::jump(self.net, &state.locs, &state.store, participants)?;
        let reset_to = |c: Clock| jump.resets.iter().rev().find(|r| r.0 == c).map(|r| r.1);
        for (a, &l) in self.net.automata.iter().zip(&jump.locs) {
            for atom in &a.locations[l.index()].invariant {
                // `xᵢ - xⱼ ≺ c` with `xᵢ := vᵢ` becomes `0 - xⱼ ≺ c - vᵢ`,
                // with `xⱼ := vⱼ` becomes `xᵢ - 0 ≺ c + vⱼ`, and with both
                // a check on the reference clock alone.
                let (i, vi) = reset_to(atom.i).map_or((atom.i, 0), |v| (Clock::REF, v));
                let (j, vj) = reset_to(atom.j).map_or((atom.j, 0), |v| (Clock::REF, v));
                if !zone.constrain(i, j, atom.bound + Bound::le(vj - vi)) {
                    return None;
                }
            }
        }
        (!zone.is_empty()).then_some(zone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use tempo_expr::Expr;

    #[test]
    fn internal_edge_with_guard_and_reset() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location_with_invariant("L1", vec![ClockAtom::le(x, 3)]);
        a.edge(l0, l1)
            .guard_clock(ClockAtom::ge(x, 2))
            .reset(x, 0)
            .done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        let succs = exp.successors(&init);
        assert_eq!(succs.len(), 1);
        let (_, next) = &succs[0];
        assert_eq!(next.locs[0], LocationId(1));
        // After reset and delay-closure with invariant x <= 3.
        assert!(next.zone.contains(&[0, 0]));
        assert!(next.zone.contains(&[0, 3]));
        assert!(!next.zone.contains(&[0, 4]));
    }

    #[test]
    fn binary_sync_requires_partner() {
        let mut b = NetworkBuilder::new();
        let c = b.channel("c");
        let mut a = b.automaton("Sender");
        let s0 = a.location("S0");
        let s1 = a.location("S1");
        a.edge(s0, s1).send(c).done();
        a.done();
        let net1 = b.build();
        let exp = Explorer::new(&net1);
        // No receiver: no successor.
        assert!(exp.successors(&exp.initial_state()).is_empty());

        let mut b = NetworkBuilder::new();
        let c = b.channel("c");
        let mut a = b.automaton("Sender");
        let s0 = a.location("S0");
        let s1 = a.location("S1");
        a.edge(s0, s1).send(c).done();
        a.done();
        let mut r = b.automaton("Receiver");
        let r0 = r.location("R0");
        let r1 = r.location("R1");
        r.edge(r0, r1).recv(c).done();
        r.done();
        let net2 = b.build();
        let exp = Explorer::new(&net2);
        let succs = exp.successors(&exp.initial_state());
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].1.locs, vec![LocationId(1), LocationId(1)]);
    }

    #[test]
    fn committed_location_restricts_interleaving() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let a0 = a.location("A0");
        let ac = a.committed_location("AC");
        let a1 = a.location("A1");
        a.edge(a0, ac).done();
        a.edge(ac, a1).done();
        a.done();
        let mut o = b.automaton("Other");
        let o0 = o.location("O0");
        let o1 = o.location("O1");
        o.edge(o0, o1).done();
        o.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // From (A0, O0): both A and Other can move.
        assert_eq!(exp.successors(&init).len(), 2);
        // Move A into the committed location.
        let committed_state = exp
            .successors(&init)
            .into_iter()
            .map(|(_, s)| s)
            .find(|s| s.locs[0] == ac)
            .expect("A can reach AC");
        // From (AC, O0): only A may move.
        let succs = exp.successors(&committed_state);
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].1.locs[0], a1);
    }

    #[test]
    fn broadcast_reaches_all_enabled_receivers() {
        let mut b = NetworkBuilder::new();
        let bc = b.broadcast_channel("go");
        let flag = b.decls_mut().int("flag", 0, 1);
        let mut s = b.automaton("S");
        let s0 = s.location("S0");
        let s1 = s.location("S1");
        s.edge(s0, s1).send(bc).done();
        s.done();
        for (name, guard) in [
            ("R1", Expr::truth()),
            ("R2", Expr::var(flag).eq(Expr::konst(1))),
        ] {
            let mut r = b.automaton(name);
            let r0 = r.location("R0");
            let r1 = r.location("R1");
            r.edge(r0, r1).recv(bc).guard_data(guard).done();
            r.done();
        }
        let net = b.build();
        let exp = Explorer::new(&net);
        let succs = exp.successors(&exp.initial_state());
        // flag == 0: only R1 participates; sender still fires.
        assert_eq!(succs.len(), 1);
        let locs = &succs[0].1.locs;
        assert_eq!(locs[1], LocationId(1)); // R1 moved
        assert_eq!(locs[2], LocationId(0)); // R2 stayed
    }

    #[test]
    fn urgent_location_blocks_delay() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let u = a.urgent_location("U");
        let l1 = a.location("L1");
        a.edge(u, l1).done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // No delay in urgent locations: x stays 0.
        let _ = x;
        assert!(init.zone.contains(&[0, 0]));
        assert!(!init.zone.contains(&[0, 1]));
    }

    #[test]
    fn deadlock_federation_detects_stuck_states() {
        // L0 --(x<=2)--> L1; from x>2 onward the state is dead.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).guard_clock(ClockAtom::le(x, 2)).done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // The guard is reachable by delaying from every point <= 2, but the
        // zone is up-closed so points with x > 2 are present and stuck.
        let dead = exp.deadlock_federation(&init);
        assert!(!dead.is_empty());
        assert!(dead.contains(&[0, 3]));
        assert!(!dead.contains(&[0, 1]));
        // With an unbounded guard there is no deadlock.
        let mut b = NetworkBuilder::new();
        let _x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        assert!(exp.deadlock_federation(&exp.initial_state()).is_empty());
    }

    #[test]
    fn sym_state_queries() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let aid = {
            a.edge(l0, l0).done();
            a.done()
        };
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        assert!(init.is_at(aid, l0));
        let (locs, _) = init.discrete();
        assert_eq!(locs, vec![l0]);
    }
}
