//! Digital-clocks (integer-time) semantics of networks of timed automata.
//!
//! For *closed* models (no strict clock bounds), integer delays preserve
//! reachability, cost-optimal reachability and game winning-ness
//! (Henzinger–Manna–Pnueli / Kwiatkowska et al.). This module provides a
//! concrete-state explorer with unit-delay ticks and joint action moves,
//! used by `tempo-cora` (minimum-cost reachability), `tempo-tiga`
//! (timed-game strategy synthesis) and `tempo-ioco` (rtioco); clocks are
//! clamped one above the model's maximal constants so the state space is
//! finite.
//!
//! Which edges fire together, and what they do to locations and
//! variables, is decided by [`crate::moves`], the rule the zone explorer
//! and the simulator use; this module adds integer clocks to guards,
//! resets and invariants, and forbids a tick while an urgent location
//! is occupied or a move on an urgent channel is enabled and applies.

use crate::explore::SymState;
use crate::model::{Edge, LocationId, LocationKind, Network};
use crate::moves::{self, Participant};
use std::fmt;
use std::ops::ControlFlow;
use tempo_expr::Store;
use tempo_obs::{Diagnostic, LintError};

/// Typed rejection of a non-closed model by the digital-clocks engines:
/// one [`Diagnostic`] per strict clock bound found.
///
/// Convertible into [`LintError`] so `check_first` entry points can
/// surface closedness violations through the same channel as lint
/// findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitalError {
    /// One error-level diagnostic (code `DIGITAL`) per strict bound.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for DigitalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model is not closed (digital clocks require closed bounds):"
        )?;
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

/// A concrete integer-time state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
        let mut diagnostics = Vec::new();
        for a in net.automata() {
            for l in &a.locations {
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
        let clamp = net.max_constants().into_iter().map(|c| c + 1).collect();
        Ok(DigitalExplorer {
            net,
            clamp,
            lu: None,
        })
    }

    /// Switches tick clamping to the per-location LU tables. Used by
    /// engines whose certificates replay recorded *move lists* (cost
    /// traces); engines that publish state-indexed artifacts (game
    /// strategies) must keep the global clamp so that replayed states
    /// match the solved domain.
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

    /// The initial digital state.
    #[must_use]
    pub fn initial_state(&self) -> DigitalState {
        DigitalState {
            locs: self.net.automata().iter().map(|a| a.initial).collect(),
            store: self.net.decls().initial_store(),
            clocks: vec![0; self.net.dim()],
        }
    }

    fn invariants_hold(&self, locs: &[LocationId], clocks: &[i64]) -> bool {
        self.net.automata().iter().zip(locs).all(|(a, &l)| {
            a.locations[l.index()]
                .invariant
                .iter()
                .all(|atom| atom.holds_at(clocks))
        })
    }

    /// Whether a unit delay is permitted (no urgency, invariants hold
    /// after the tick).
    #[must_use]
    pub fn can_tick(&self, state: &DigitalState) -> bool {
        let urgent = state
            .locs
            .iter()
            .zip(self.net.automata())
            .any(|(&l, a)| a.locations[l.index()].kind != LocationKind::Normal);
        if urgent || self.urgent_move_enabled(state) {
            return false;
        }
        let ticked = self.ticked_clocks(state);
        self.invariants_hold(&state.locs, &ticked)
    }

    /// Whether a move on an urgent channel is enabled and applies.
    fn urgent_move_enabled(&self, state: &DigitalState) -> bool {
        moves::for_each_urgent_move(
            self.net,
            &state.locs,
            &state.store,
            |e, _| clock_guards_hold(e, &state.clocks),
            |mv| match self.apply(state, mv.participants) {
                Some(_) => ControlFlow::Break(()),
                None => ControlFlow::Continue(()),
            },
        )
        .is_break()
    }

    fn ticked_clocks(&self, state: &DigitalState) -> Vec<i64> {
        let local = self.lu.as_ref().map(|lu| {
            let mut lower = Vec::new();
            let mut upper = Vec::new();
            lu.state_bounds(&state.locs, &mut lower, &mut upper);
            lower
                .iter()
                .zip(&upper)
                .map(|(&l, &u)| l.max(u).max(0) + 1)
                .collect::<Vec<i64>>()
        });
        let clamp = local.as_deref().unwrap_or(&self.clamp);
        state
            .clocks
            .iter()
            .enumerate()
            .map(|(i, &c)| if i == 0 { 0 } else { (c + 1).min(clamp[i]) })
            .collect()
    }

    /// The unit-delay successor, if delay is permitted.
    #[must_use]
    pub fn tick(&self, state: &DigitalState) -> Option<DigitalState> {
        if !self.can_tick(state) {
            return None;
        }
        Some(DigitalState {
            locs: state.locs.clone(),
            store: state.store.clone(),
            clocks: self.ticked_clocks(state),
        })
    }

    /// All joint action moves enabled in the state, with their successor
    /// states: the moves of [`moves::for_each_move`] whose clock guards
    /// hold at the integer clocks, which [`moves::jump`] fires and whose
    /// target invariants hold.
    #[must_use]
    pub fn moves(&self, state: &DigitalState) -> Vec<(DigitalMove, DigitalState)> {
        let mut out = Vec::new();
        let _ = moves::for_each_move(
            self.net,
            &state.locs,
            &state.store,
            |e, _| clock_guards_hold(e, &state.clocks),
            |mv| {
                if let Some(next) = self.apply(state, mv.participants) {
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

    /// Applies a joint move (participants in order), returning the
    /// successor or `None` if [`moves::jump`] refuses it or a target
    /// invariant fails. Reset clocks are clamped like ticked ones.
    fn apply(&self, state: &DigitalState, participants: &[Participant]) -> Option<DigitalState> {
        let jump = moves::jump(self.net, &state.locs, &state.store, participants)?;
        let mut clocks = state.clocks.clone();
        for (clock, v) in jump.resets {
            clocks[clock.index()] = v.min(self.clamp[clock.index()]);
        }
        self.invariants_hold(&jump.locs, &clocks)
            .then_some(DigitalState {
                locs: jump.locs,
                store: jump.store,
                clocks,
            })
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
}
