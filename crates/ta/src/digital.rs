//! Digital-clocks (integer-time) semantics of networks of timed automata.
//!
//! For *closed* models (no strict clock bounds), integer delays preserve
//! reachability, cost-optimal reachability, game winning-ness and the
//! probabilities of probabilistic timed automata
//! (Henzinger–Manna–Pnueli / Kwiatkowska et al.). This module provides a
//! concrete-state explorer with unit-delay ticks and joint action moves,
//! used by `tempo-cora` (minimum-cost reachability), `tempo-tiga`
//! (timed-game strategy synthesis), `tempo-ioco` (rtioco) and
//! `tempo-modest` (the `mcpta` MDP and the `modes` simulator). Clocks are
//! clamped one above the largest constant the model or the query
//! compares them with, so the state space is finite.
//!
//! Which edges fire together, and what they do to locations and
//! variables, is decided by [`crate::moves`], the rule the zone explorer
//! and the simulator use; this module adds integer clocks to guards,
//! resets and invariants, and forbids a tick while an urgent location
//! is occupied or a move on an urgent channel passes its guards.
//!
//! [`DigitalExplorer::moves`] lists every edge as its own move, the
//! branches of a probabilistic choice included.
//! [`DigitalExplorer::transitions`] groups them: one transition per
//! joint move of first branches, a distribution over every combination
//! of the participants' branches. It fills a caller's [`Transitions`]
//! buffer, whose successor slots keep their allocations from one state
//! to the next.
//!
//! [`StateIndex`] numbers the states that TIGA's game graph, CORA's cost
//! searches and mcpta's MDP store. Every MDP, strategy and certificate
//! depends on its contract: ids count up from `0` in first-seen order; a
//! state is charged to the state budget before it gets an id, and a
//! refused state gets none; the frontier pops last in, first out. Each
//! state is stored once, as one fixed-width row of `i64`s in one shared
//! array, and found through a hash of its row; since ids count up in
//! first-seen order, no id depends on the hash.

use crate::explore::SymState;
use crate::model::{raise_max_constants, ClockAtom, Edge, LocationId, LocationKind, Network};
use crate::moves::{self, Participant};
use std::fmt;
use std::ops::{ControlFlow, Index};
use tempo_expr::Store;
use tempo_obs::{Diagnostic, Governor, LintError};

/// Typed rejection of a non-closed model or goal by the digital-clocks
/// engines: one [`Diagnostic`] per strict clock bound found.
///
/// Convertible into [`LintError`] so `check_first` entry points can
/// surface closedness violations through the same channel as lint
/// findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitalError {
    /// One error-level diagnostic (code `DIGITAL`) per strict bound
    /// (per open constraint of a goal).
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for DigitalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not closed (digital clocks require closed bounds):")?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DigitalError {}

impl From<DigitalError> for LintError {
    fn from(e: DigitalError) -> LintError {
        LintError::new(e.diagnostics)
    }
}

/// A concrete integer-time state. The default state has no automata,
/// variables or clocks: an empty buffer for [`StateIndex::load`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DigitalState {
    /// Location of each automaton.
    pub locs: Vec<LocationId>,
    /// Discrete variable values.
    pub store: Store,
    /// Integer clock values, clamped at `max_constant + 1`
    /// (`clocks[0] == 0`).
    pub clocks: Vec<i64>,
}

/// A joint action move in the digital semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitalMove {
    /// Human-readable label (channel or `tau`).
    pub label: String,
    /// Participants as `(automaton index, edge index, selects)`; the
    /// sender (or the single mover) comes first.
    pub participants: Vec<(usize, usize, Vec<i64>)>,
    /// Whether every participating edge is controller-owned (for games,
    /// a synchronization is controllable iff its initiating edge is).
    pub controllable: bool,
}

/// Concrete-state explorer over the digital-clocks semantics.
///
/// # Panics
///
/// [`DigitalExplorer::new`] panics if the network contains strict clock
/// bounds, for which the digital semantics is not exact.
#[derive(Debug)]
pub struct DigitalExplorer<'n> {
    net: &'n Network,
    clamp: Vec<i64>,
    /// Per-location LU tables; when present, ticks clamp each clock at
    /// `max(L, U) + 1` of the *current* location vector instead of the
    /// global maximal constant. Sound because the solved bounds are
    /// non-increasing along reset-free paths: once a clock passes every
    /// constant still observable from here, its exact value can never
    /// matter again.
    lu: Option<crate::flow::NetworkLu>,
}

impl<'n> DigitalExplorer<'n> {
    /// Creates an explorer, validating that the model is closed.
    ///
    /// # Panics
    ///
    /// Panics if the model contains strict clock bounds; use
    /// [`DigitalExplorer::try_new`] for the non-panicking API.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        Self::try_new(net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an explorer, collecting a [`DigitalError`] with one
    /// diagnostic per strict clock bound when the model is not closed.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError`] when any guard or invariant uses a
    /// strict bound (`<`/`>`), for which the digital semantics is not
    /// exact.
    pub fn try_new(net: &'n Network) -> Result<Self, DigitalError> {
        Self::for_query(net, &[])
    }

    /// [`DigitalExplorer::try_new`] for a query that reads the clock
    /// constraints `atoms`: the clamp rises so that each clock stops one
    /// above the largest constant the model *or* the query compares it
    /// with, and every atom keeps its truth value along the exploration.
    ///
    /// # Errors
    ///
    /// As [`DigitalExplorer::try_new`].
    pub fn for_query(net: &'n Network, atoms: &[ClockAtom]) -> Result<Self, DigitalError> {
        let mut diagnostics = Vec::new();
        let mut consts = vec![0; net.dim()];
        raise_max_constants(&mut consts, atoms);
        for a in net.automata() {
            for l in &a.locations {
                raise_max_constants(&mut consts, &l.invariant);
                for atom in &l.invariant {
                    if !atom.bound.is_inf() && atom.bound.is_strict() {
                        diagnostics.push(Diagnostic::error(
                            "DIGITAL",
                            Some(&format!("{}.{}", a.name, l.name)),
                            format!(
                                "digital clocks require closed invariants ({} in {})",
                                l.name, a.name
                            ),
                        ));
                    }
                }
            }
            for e in &a.edges {
                raise_max_constants(&mut consts, &e.guard_clocks);
                for atom in &e.guard_clocks {
                    if !atom.bound.is_inf() && atom.bound.is_strict() {
                        diagnostics.push(Diagnostic::error(
                            "DIGITAL",
                            Some(&a.name),
                            format!("digital clocks require closed guards (in {})", a.name),
                        ));
                    }
                }
            }
        }
        if !diagnostics.is_empty() {
            return Err(DigitalError { diagnostics });
        }
        Ok(DigitalExplorer {
            net,
            clamp: consts.into_iter().map(|c| c + 1).collect(),
            lu: None,
        })
    }

    /// Checks that a query's goal is closed in the clocks, as the model
    /// must be: integer time samples a delay only at its integer points,
    /// which meet every dense-time goal state only when the goal's clock
    /// constraints are non-strict. A strict constraint under an odd
    /// number of negations is closed (`!(x < 2)` is `x >= 2`); a
    /// non-strict one there is not. `x > 1 && x < 2` holds only between
    /// integer points, so its digital probability would be 0.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError`] with one `DIGITAL` diagnostic per clock
    /// constraint at which the goal is open.
    pub fn check_goal(goal: &crate::StateFormula) -> Result<(), DigitalError> {
        fn walk(f: &crate::StateFormula, negated: bool, out: &mut Vec<Diagnostic>) {
            match f {
                crate::StateFormula::Clock(atom)
                    if !atom.bound.is_inf() && atom.bound.is_strict() != negated =>
                {
                    out.push(Diagnostic::error(
                        "DIGITAL",
                        Some("goal"),
                        "digital clocks require a closed goal: integer time can miss \
                         where a strict clock bound, or a non-strict one under a \
                         negation, holds",
                    ));
                }
                crate::StateFormula::Not(g) => walk(g, !negated, out),
                crate::StateFormula::And(gs) | crate::StateFormula::Or(gs) => {
                    for g in gs {
                        walk(g, negated, out);
                    }
                }
                _ => {}
            }
        }
        let mut diagnostics = Vec::new();
        walk(goal, false, &mut diagnostics);
        if diagnostics.is_empty() {
            Ok(())
        } else {
            Err(DigitalError { diagnostics })
        }
    }

    /// Switches tick clamping to the per-location LU tables. Used by
    /// engines whose certificates replay recorded *move lists* (cost
    /// traces) or that publish no states (the `mcpta` MDP); engines that
    /// publish state-indexed artifacts (game strategies) must keep the
    /// global clamp so that replayed states match the solved domain.
    /// Solve the tables with the query's atoms protected.
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

    /// The initial digital state. It is a state of the model only if
    /// the initial locations' invariants hold at it.
    #[must_use]
    pub fn initial_state(&self) -> DigitalState {
        DigitalState {
            locs: self.net.automata().iter().map(|a| a.initial).collect(),
            store: self.net.decls().initial_store(),
            clocks: vec![0; self.net.dim()],
        }
    }

    /// Whether the invariants of the locations `locs` hold at the
    /// integer clocks `clocks` (for the initial state, say).
    #[must_use]
    pub fn invariants_hold(&self, locs: &[LocationId], clocks: &[i64]) -> bool {
        self.net.automata().iter().zip(locs).all(|(a, &l)| {
            a.locations[l.index()]
                .invariant
                .iter()
                .all(|atom| atom.holds_at(clocks))
        })
    }

    /// Whether time is stopped: an automaton is in an urgent or
    /// committed location, or a move on an urgent channel passes its
    /// guards (whether or not [`moves::jump`] would fire it, as in the
    /// zone engine, the simulator and the replayer).
    fn urgent(&self, state: &DigitalState) -> bool {
        state
            .locs
            .iter()
            .zip(self.net.automata())
            .any(|(&l, a)| a.locations[l.index()].kind != LocationKind::Normal)
            || moves::for_each_urgent_move(
                self.net,
                &state.locs,
                &state.store,
                |e, _| clock_guards_hold(e, &state.clocks),
                |_| ControlFlow::Break(()),
            )
            .is_break()
    }

    /// The unit-delay successor, if delay is permitted: no urgency, and
    /// the invariants hold after the tick.
    #[must_use]
    pub fn tick(&self, state: &DigitalState) -> Option<DigitalState> {
        if self.urgent(state) {
            return None;
        }
        let mut clocks = state.clocks.clone();
        for (x, c) in clocks.iter_mut().enumerate().skip(1) {
            let clamp = match &self.lu {
                Some(lu) => lu.tick_clamp(&state.locs, x),
                None => self.clamp[x],
            };
            *c = (*c + 1).min(clamp);
        }
        self.invariants_hold(&state.locs, &clocks)
            .then(|| DigitalState {
                locs: state.locs.clone(),
                store: state.store.clone(),
                clocks,
            })
    }

    /// All joint action moves enabled in the state, with their successor
    /// states: the moves of [`moves::for_each_move`] whose clock guards
    /// hold at the integer clocks, which [`moves::jump`] fires and whose
    /// target invariants hold. Each branch of a probabilistic choice is
    /// its own move.
    #[must_use]
    pub fn moves(&self, state: &DigitalState) -> Vec<(DigitalMove, DigitalState)> {
        let mut out = Vec::new();
        let _ = moves::for_each_move(
            self.net,
            &state.locs,
            &state.store,
            |e, _| clock_guards_hold(e, &state.clocks),
            |mv| {
                let mut next = DigitalState::default();
                if self.apply(state, mv.participants, &mut next) {
                    let edge = |&(ai, ei, _): &Participant| &self.net.automata()[ai].edges[ei];
                    let digital = DigitalMove {
                        label: moves::label(self.net, mv.sync),
                        participants: mv.participants.to_vec(),
                        controllable: mv.participants.iter().all(|p| edge(p).controllable),
                    };
                    out.push((digital, next));
                }
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// Fills `out` with the probabilistic transitions enabled in the
    /// state, each a distribution over successors (the tick is
    /// [`DigitalExplorer::tick`]): one per joint move of first branches
    /// (see [`Edge::continues_choice`]) of [`moves::for_each_move`], in
    /// its order. A transition fires every combination of the
    /// participants' branches, the sender's varying slowest, and
    /// reaches each combination's successor with the product of the
    /// participants' normalised branch weights. It is dropped whole
    /// when [`moves::jump`] refuses one combination or a target
    /// invariant fails after it, and leaves nothing in `out`.
    ///
    /// Whatever `out` held before is replaced; its successor slots keep
    /// their allocations, so one buffer serves a whole exploration.
    pub fn transitions(&self, state: &DigitalState, out: &mut Transitions) {
        out.ends.clear();
        let _ = moves::for_each_move(
            self.net,
            &state.locs,
            &state.store,
            |e, _| !e.continues_choice && clock_guards_hold(e, &state.clocks),
            |mv| {
                self.distribution(state, mv.participants, out);
                ControlFlow::Continue(())
            },
        );
    }

    /// Appends to `out` the distribution of the transition whose
    /// participants fire their first branches `firsts` (see
    /// [`DigitalExplorer::transitions`]), or nothing if it is refused.
    fn distribution(&self, state: &DigitalState, firsts: &[Participant], out: &mut Transitions) {
        let edges = |ai: usize| &self.net.automata()[ai].edges;
        let has_siblings =
            |&(ai, ei, _): &Participant| edges(ai).get(ei + 1).is_some_and(|e| e.continues_choice);
        out.open();
        if !firsts.iter().any(has_siblings) {
            if !self.apply(state, firsts, out.push(1.0)) {
                out.discard();
            }
            return;
        }
        // Per participant: one past its last branch, and the choice's
        // total weight.
        let choices: Vec<(usize, u64)> = firsts
            .iter()
            .map(|&(ai, ei, _)| {
                let es = edges(ai);
                let end = ei
                    + 1
                    + es[ei + 1..]
                        .iter()
                        .take_while(|e| e.continues_choice)
                        .count();
                (end, es[ei..end].iter().map(|e| e.weight).sum())
            })
            .collect();
        let mut pick = firsts.to_vec();
        loop {
            let p = pick
                .iter()
                .zip(&choices)
                .fold(1.0, |p, (&(ai, ei, _), &(_, total))| {
                    p * (edges(ai)[ei].weight as f64 / total as f64)
                });
            if !self.apply(state, &pick, out.push(p)) {
                out.discard();
                return;
            }
            // The last participant's branch varies fastest.
            let mut k = pick.len();
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                pick[k].1 += 1;
                if pick[k].1 < choices[k].0 {
                    break;
                }
                pick[k].1 = firsts[k].1;
            }
        }
    }

    /// Applies a joint move (participants in order), writing the
    /// successor into `next`; `false` if [`moves::jump`] refuses it or a
    /// target invariant fails, and `next` is then not a state. Reset
    /// clocks are clamped like ticked ones.
    fn apply(
        &self,
        state: &DigitalState,
        participants: &[Participant],
        next: &mut DigitalState,
    ) -> bool {
        let Some(jump) = moves::jump(self.net, &state.locs, &state.store, participants) else {
            return false;
        };
        next.locs = jump.locs;
        next.store = jump.store;
        next.clocks.clone_from(&state.clocks);
        for (clock, v) in jump.resets {
            next.clocks[clock.index()] = v.min(self.clamp[clock.index()]);
        }
        self.invariants_hold(&next.locs, &next.clocks)
    }

    /// Lifts a digital state to a (point) symbolic state, for reuse of
    /// [`crate::StateFormula`] satisfaction via the concrete clocks.
    #[must_use]
    pub fn satisfies(&self, state: &DigitalState, f: &crate::StateFormula) -> bool {
        match f {
            crate::StateFormula::True => true,
            crate::StateFormula::False => false,
            crate::StateFormula::At(a, l) => state.locs[a.index()] == *l,
            crate::StateFormula::Data(e) => e
                .eval_bool(self.net.decls(), &state.store, &[])
                .unwrap_or(false),
            crate::StateFormula::Clock(atom) => atom.holds_at(&state.clocks),
            crate::StateFormula::Not(g) => !self.satisfies(state, g),
            crate::StateFormula::And(gs) => gs.iter().all(|g| self.satisfies(state, g)),
            crate::StateFormula::Or(gs) => gs.iter().any(|g| self.satisfies(state, g)),
        }
    }
}

/// Whether every clock guard of `e` holds at the integer clocks.
fn clock_guards_hold(e: &Edge, clocks: &[i64]) -> bool {
    e.guard_clocks.iter().all(|atom| atom.holds_at(clocks))
}

impl DigitalState {
    /// Converts to a symbolic point state (zero-width zone), e.g. for
    /// display.
    #[must_use]
    pub fn to_sym_state(&self) -> SymState {
        let dim = self.clocks.len();
        let mut zone = tempo_dbm::Dbm::zero(dim);
        for (i, &v) in self.clocks.iter().enumerate().skip(1) {
            zone.reset(tempo_dbm::Clock(i), v);
        }
        SymState {
            locs: self.locs.clone(),
            store: self.store.clone(),
            zone,
        }
    }
}

/// The successor buffer of [`DigitalExplorer::transitions`]: the
/// distributions of one state's transitions, in order, each a slice of
/// `(probability, successor)` slots (`buffer[t]` is transition `t`).
/// Refilling it keeps every slot's allocations.
#[derive(Debug, Default)]
pub struct Transitions {
    /// The successor slots; those past the last end are spare.
    slots: Vec<(f64, DigitalState)>,
    /// Per transition: one past its last slot.
    ends: Vec<usize>,
}

impl Transitions {
    /// How many transitions the buffer holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the buffer holds no transition.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The transitions, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[(f64, DigitalState)]> {
        (0..self.len()).map(|t| &self[t])
    }

    /// Opens an empty transition after the last one.
    fn open(&mut self) {
        let end = self.ends.last().copied().unwrap_or(0);
        self.ends.push(end);
    }

    /// Adds a branch of probability `p` to the open transition and
    /// returns its successor slot, which the caller overwrites.
    fn push(&mut self, p: f64) -> &mut DigitalState {
        let end = self.ends.last_mut().expect("a transition is open");
        let slot = *end;
        *end += 1;
        if slot == self.slots.len() {
            self.slots.push((p, DigitalState::default()));
        }
        self.slots[slot].0 = p;
        &mut self.slots[slot].1
    }

    /// Rolls back the open transition: a refused transition leaves
    /// nothing behind.
    fn discard(&mut self) {
        self.ends.pop();
    }
}

impl Index<usize> for Transitions {
    type Output = [(f64, DigitalState)];

    /// The distribution of transition `t`.
    fn index(&self, t: usize) -> &Self::Output {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.slots[start..self.ends[t]]
    }
}

/// The numbering of the states a digital engine stores, and the
/// frontier of those it has yet to expand (contract in the module
/// documentation).
///
/// Each state is one row of `i64`s in one array: its locations, then its
/// store values, then its clocks. The first interned state sets how many
/// of each a row holds; every later state must have the same. An
/// open-addressing table of ids, kept at most half full, finds a row by
/// a multiplicative hash of all its words.
#[derive(Debug, Default)]
pub struct StateIndex {
    /// How many locations, store values and clocks a row holds.
    layout: [usize; 3],
    /// Every state's row, by id, back to back.
    rows: Vec<i64>,
    /// How many states are numbered.
    len: usize,
    /// Ids by hash, [`VACANT`] where none is; the length is zero or a
    /// power of two.
    table: Vec<usize>,
    frontier: Vec<usize>,
}

/// A free slot of [`StateIndex`]'s table.
const VACANT: usize = usize::MAX;

impl StateIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        StateIndex::default()
    }

    /// The id of `state`. An unseen state is first charged to `gov`'s
    /// state budget, then copied in, numbered and pushed onto the
    /// frontier; `None` when the budget refuses it.
    ///
    /// # Panics
    ///
    /// Panics if `state`'s row width differs from the first interned
    /// state's: it has another number of automata, variables or clocks.
    pub fn intern(&mut self, state: &DigitalState, gov: &Governor) -> Option<usize> {
        let layout = [
            state.locs.len(),
            state.store.as_slice().len(),
            state.clocks.len(),
        ];
        if self.len == 0 {
            self.layout = layout;
        }
        assert_eq!(
            layout, self.layout,
            "every state of one index has the same row width (locations, variables, clocks)"
        );
        if 2 * (self.len + 1) > self.table.len() {
            self.grow();
        }
        // Write the row where a new state's row goes, and take it back
        // unless it is new and the budget admits it.
        let start = self.rows.len();
        self.rows.extend(state.locs.iter().map(|l| l.0 as i64));
        self.rows.extend_from_slice(state.store.as_slice());
        self.rows.extend_from_slice(&state.clocks);
        match self.find(&self.rows[start..]) {
            Ok(id) => {
                self.rows.truncate(start);
                Some(id)
            }
            Err(slot) => {
                if !gov.charge_state() {
                    self.rows.truncate(start);
                    return None;
                }
                let id = self.len;
                self.table[slot] = id;
                self.len += 1;
                self.frontier.push(id);
                Some(id)
            }
        }
    }

    /// The id whose row is `row`, or the vacant slot where it would go.
    fn find(&self, row: &[i64]) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut slot = bucket(row, self.table.len());
        loop {
            match self.table[slot] {
                VACANT => return Err(slot),
                id if self.row(id) == row => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the table (to 16 slots at first) and re-enters every id.
    fn grow(&mut self) {
        self.table = vec![VACANT; (2 * self.table.len()).max(16)];
        for id in 0..self.len {
            let slot = self.find(self.row(id)).expect_err("rows are distinct");
            self.table[slot] = id;
        }
    }

    /// The row of the state numbered `id`.
    fn row(&self, id: usize) -> &[i64] {
        let width = self.layout.iter().sum::<usize>();
        &self.rows[id * width..(id + 1) * width]
    }

    /// Pops the frontier: the latest interned state not popped yet.
    pub fn pop(&mut self) -> Option<usize> {
        self.frontier.pop()
    }

    /// How many states wait on the frontier.
    #[must_use]
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Overwrites `state` with the state numbered `id`, keeping its
    /// buffers' allocations.
    pub fn load(&self, id: usize, state: &mut DigitalState) {
        let [locs, vars, _] = self.layout;
        let (l, rest) = self.row(id).split_at(locs);
        let (v, c) = rest.split_at(vars);
        state.locs.clear();
        state.locs.extend(l.iter().map(|&l| LocationId(l as usize)));
        state.store.set_values(v);
        state.clocks.clear();
        state.clocks.extend_from_slice(c);
    }

    /// The state numbered `id`, by value.
    #[must_use]
    pub fn state(&self, id: usize) -> DigitalState {
        let mut state = DigitalState::default();
        self.load(id, &mut state);
        state
    }

    /// How many states are numbered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no state is numbered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The table slot where the search for `row` starts, in a table of
/// `size` slots (a power of two): the high bits of a multiplicative
/// hash, which every word of the row enters.
fn bucket(row: &[i64], size: usize) -> usize {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let hash = row
        .iter()
        .fold(0_u64, |h, &w| (h.rotate_left(5) ^ w as u64).wrapping_mul(K));
    (hash >> (64 - size.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockAtom, NetworkBuilder};
    use crate::StateFormula;

    fn bounded_loop() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
        a.edge(l0, l0)
            .guard_clock(ClockAtom::ge(x, 2))
            .reset(x, 0)
            .done();
        a.done();
        b.build()
    }

    #[test]
    fn ticks_respect_invariants() {
        let net = bounded_loop();
        let exp = DigitalExplorer::new(&net);
        let mut s = exp.initial_state();
        for expected in [1, 2, 3] {
            s = exp.tick(&s).expect("tick allowed");
            assert_eq!(s.clocks[1], expected);
        }
        assert!(
            exp.tick(&s).is_none(),
            "invariant x <= 3 blocks further delay"
        );
    }

    #[test]
    fn state_index_numbers_first_seen_and_pops_last_in_first_out() {
        let net = bounded_loop();
        let exp = DigitalExplorer::new(&net);
        let s0 = exp.initial_state();
        let s1 = exp.tick(&s0).unwrap();
        let s2 = exp.tick(&s1).unwrap();
        let gov = tempo_obs::Budget::unlimited().with_max_states(3).governor();
        let mut index = StateIndex::new();
        assert_eq!(index.intern(&s0, &gov), Some(0));
        assert_eq!(index.intern(&s1, &gov), Some(1));
        assert_eq!(
            index.intern(&s0, &gov),
            Some(0),
            "a known state keeps its id"
        );
        assert_eq!(index.intern(&s2, &gov), Some(2));
        assert_eq!(index.frontier_len(), 3);
        assert_eq!(
            [index.pop(), index.pop(), index.pop(), index.pop()],
            [Some(2), Some(1), Some(0), None]
        );
        let s3 = exp.tick(&s2).unwrap();
        assert_eq!(
            index.intern(&s3, &gov),
            None,
            "the fourth state is over budget"
        );
        assert!(gov.is_exhausted());
        assert_eq!(
            index.intern(&s1, &gov),
            Some(1),
            "known states need no budget"
        );
        assert_eq!(
            [index.state(0), index.state(1), index.state(2)],
            [s0, s1, s2]
        );
    }

    /// Three automata of three locations each, two clocks and three
    /// variables: the shape of the states the row tests intern.
    fn three_automata() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let y = b.clock("y");
        for v in ["u", "v", "w"] {
            b.decls_mut().int(v, i64::MIN, i64::MAX);
        }
        for name in ["A", "B", "C"] {
            let mut a = b.automaton(name);
            let l0 = a.location("L0");
            let l1 = a.location("L1");
            let l2 = a.location("L2");
            a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 1)).done();
            a.edge(l1, l2).reset(y, 0).done();
            a.done();
        }
        b.build()
    }

    #[test]
    fn rows_round_trip_and_tell_apart_states_one_field_apart() {
        let net = three_automata();
        let big = i64::from(i32::MAX) + 7;
        let mut s = DigitalExplorer::new(&net).initial_state();
        assert_eq!(
            [s.locs.len(), s.store.as_slice().len(), s.clocks.len()],
            [3, 3, 3]
        );
        s.locs = vec![LocationId(0), LocationId(1), LocationId(2)];
        s.store = Store::from_values(vec![-1, big, -big]);
        s.clocks = vec![0, 3, 1];
        // `s`, then states that differ from it in one location, one
        // store value or one clock, each once.
        let mut states = vec![s.clone()];
        for a in 0..3 {
            for l in (0..3).filter(|&l| l != s.locs[a].0) {
                let mut t = s.clone();
                t.locs[a] = LocationId(l);
                states.push(t);
            }
        }
        for v in 0..3 {
            for value in [0, 1, -2, big << 20, -big - 1, i64::MIN, i64::MAX] {
                let mut values = s.store.as_slice().to_vec();
                values[v] = value;
                let mut t = s.clone();
                t.store = Store::from_values(values);
                states.push(t);
            }
        }
        for c in 1..3 {
            for value in (0..4).chain([big]).filter(|&value| value != s.clocks[c]) {
                let mut t = s.clone();
                t.clocks[c] = value;
                states.push(t);
            }
        }
        let gov = tempo_obs::Budget::unlimited()
            .with_max_states(states.len() as u64)
            .governor();
        let mut index = StateIndex::new();
        for (id, t) in states.iter().enumerate() {
            assert_eq!(index.intern(t, &gov), Some(id), "{t:?} is new");
        }
        let mut buffer = DigitalState::default();
        for (id, t) in states.iter().enumerate() {
            assert_eq!(&index.state(id), t);
            index.load(id, &mut buffer);
            assert_eq!(&buffer, t, "a loaded buffer holds the state");
            // The budget is spent, so a charge would refuse the state.
            let again = DigitalState {
                locs: t.locs.iter().map(|l| LocationId(l.0)).collect(),
                store: Store::from_values(t.store.as_slice().to_vec()),
                clocks: t.clocks.clone(),
            };
            assert_eq!(index.intern(&again, &gov), Some(id), "{t:?} keeps its id");
        }
        assert!(!gov.is_exhausted(), "known states are charged no budget");
        assert_eq!(index.len(), states.len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_state_of_another_width_is_refused() {
        let net = three_automata();
        let s = DigitalExplorer::new(&net).initial_state();
        let gov = tempo_obs::Budget::unlimited().governor();
        let mut index = StateIndex::new();
        assert_eq!(index.intern(&s, &gov), Some(0));
        let mut wider = s;
        wider.clocks.push(0);
        let _ = index.intern(&wider, &gov);
    }

    #[test]
    fn moves_respect_guards() {
        let net = bounded_loop();
        let exp = DigitalExplorer::new(&net);
        let s0 = exp.initial_state();
        assert!(exp.moves(&s0).is_empty(), "guard x >= 2 not yet satisfied");
        let s1 = exp.tick(&s0).unwrap();
        let s2 = exp.tick(&s1).unwrap();
        let moves = exp.moves(&s2);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].1.clocks[1], 0, "reset applied");
    }

    #[test]
    fn clamping_bounds_state_space() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0)
            .guard_clock(ClockAtom::ge(x, 5))
            .reset(x, 0)
            .done();
        a.done();
        let net = b.build();
        let exp = DigitalExplorer::new(&net);
        let mut s = exp.initial_state();
        for _ in 0..100 {
            s = exp.tick(&s).unwrap();
        }
        assert_eq!(s.clocks[1], 6, "clamped at max constant + 1");
    }

    #[test]
    #[should_panic(expected = "closed")]
    fn strict_guards_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).guard_clock(ClockAtom::lt(x, 3)).done();
        a.done();
        let net = b.build();
        let _ = DigitalExplorer::new(&net);
    }

    #[test]
    fn try_new_reports_every_strict_bound() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::lt(x, 5)]);
        a.edge(l0, l0).guard_clock(ClockAtom::gt(x, 1)).done();
        a.done();
        let net = b.build();
        let err = DigitalExplorer::try_new(&net).unwrap_err();
        assert_eq!(err.diagnostics.len(), 2, "one per strict bound");
        assert!(err.diagnostics.iter().all(|d| d.code == "DIGITAL"));
        assert!(format!("{err}").contains("closed"));
        let lint: tempo_obs::LintError = err.into();
        assert_eq!(lint.diagnostics.len(), 2);
    }

    #[test]
    fn formula_satisfaction() {
        let net = bounded_loop();
        let exp = DigitalExplorer::new(&net);
        let s = exp.initial_state();
        let x = tempo_dbm::Clock(1);
        assert!(exp.satisfies(&s, &StateFormula::clock(ClockAtom::le(x, 0))));
        let t = exp.tick(&s).unwrap();
        assert!(!exp.satisfies(&t, &StateFormula::clock(ClockAtom::le(x, 0))));
        assert!(exp.satisfies(&t, &StateFormula::clock(ClockAtom::ge(x, 1))));
    }

    #[test]
    fn to_sym_state_roundtrip() {
        let net = bounded_loop();
        let exp = DigitalExplorer::new(&net);
        let s = exp.tick(&exp.initial_state()).unwrap();
        let sym = s.to_sym_state();
        assert!(sym.zone.contains(&[0, 1]));
        assert!(!sym.zone.contains(&[0, 2]));
    }

    #[test]
    fn the_query_raises_the_clamp() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        a.location("L0");
        a.done();
        let net = b.build();
        let run = |exp: DigitalExplorer<'_>| {
            let mut s = exp.initial_state();
            for _ in 0..10 {
                s = exp.tick(&s).expect("nothing stops time");
            }
            s.clocks[1]
        };
        assert_eq!(run(DigitalExplorer::new(&net)), 1, "no constant: clamp 1");
        let exp = DigitalExplorer::for_query(&net, &[ClockAtom::ge(x, 5)]).expect("closed");
        assert_eq!(run(exp), 6, "one above the query's 5");
    }

    #[test]
    fn a_goal_must_be_closed() {
        let x = tempo_dbm::Clock(1);
        let clock = StateFormula::clock;
        let closed = [
            clock(ClockAtom::ge(x, 2)),
            StateFormula::not(clock(ClockAtom::lt(x, 2))),
            StateFormula::not(StateFormula::not(clock(ClockAtom::le(x, 2)))),
            StateFormula::or(vec![clock(ClockAtom::le(x, 1)), clock(ClockAtom::ge(x, 2))]),
        ];
        for goal in &closed {
            assert_eq!(DigitalExplorer::check_goal(goal), Ok(()), "{goal:?}");
        }
        let open = [
            (clock(ClockAtom::gt(x, 1)), 1),
            (
                StateFormula::and(vec![clock(ClockAtom::gt(x, 1)), clock(ClockAtom::lt(x, 2))]),
                2,
            ),
            (StateFormula::not(clock(ClockAtom::le(x, 1))), 1),
            (
                StateFormula::not(StateFormula::and(vec![
                    clock(ClockAtom::ge(x, 1)),
                    clock(ClockAtom::le(x, 2)),
                ])),
                2,
            ),
        ];
        for (goal, n) in &open {
            let err = DigitalExplorer::check_goal(goal).unwrap_err();
            assert_eq!(err.diagnostics.len(), *n, "{goal:?}");
            assert!(err.diagnostics.iter().all(|d| d.code == "DIGITAL"));
        }
    }
}
