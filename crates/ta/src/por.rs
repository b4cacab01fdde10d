//! Ample-set partial-order reduction for explicit-state exploration.
//!
//! When several components interleave independent internal steps, plain
//! breadth-first search enumerates every interleaving even though all of
//! them reach the same states. Ample-set reduction (Peled; Clarke,
//! Grumberg & Peled, ch. 10) expands, at selected states, only the
//! transitions of *one* process whose behaviour is provably independent
//! of everything else, and defers the rest.
//!
//! The conditions here are deliberately conservative — chosen so that
//! they are sound for *timed* reachability without a fine-grained
//! dependency analysis:
//!
//! - **C0/C1 (non-emptiness, dependence)**: an automaton is *eligible*
//!   only if every edge is internal (no synchronization), carries no
//!   clock guard and no reset, all its locations are `Normal` with empty
//!   invariants, and the variables it reads or writes are disjoint from
//!   the variables accessed by every other automaton. Such an
//!   automaton's transitions commute with every other transition *and*
//!   with delay (it never touches a clock), so firing them first loses
//!   no behaviour.
//! - **C2 (invisibility)**: the goal formula must not name the
//!   eligible automaton's locations or variables.
//! - **C3 (cycle proviso)**: enforced by the caller — whenever a state
//!   whose expansion was reduced has an ample successor that closes a
//!   cycle in the reduced graph (detected conservatively: the successor
//!   was subsumed by an already-passed state), the caller re-expands the
//!   state fully. See `explore` in `reach.rs`.
//!
//! Committed locations restrict which automata may fire at all, so the
//! reduction additionally falls back to full expansion whenever any
//! committed location is active. Broadcast/urgent channels never involve
//! an eligible automaton (it has no synchronizations), and states whose
//! eligible automata have no enabled transition fall back as well —
//! making the reduction conservative by construction.

use crate::explore::{Action, Explorer, SymState};
use crate::formula::StateFormula;
use crate::model::{AutomatonId, LocationKind, Network};
use std::collections::BTreeSet;
use tempo_expr::{expr_vars, stmt_vars, VarId};

/// The statically computed ample-set oracle for one network + property.
#[derive(Debug, Clone)]
pub struct Por {
    /// Automata whose full internal successor set is a valid ample set
    /// at any non-committed state where it is non-empty.
    eligible: Vec<usize>,
}

impl Por {
    /// Statically analyzes the network: which automata are safe ample
    /// candidates for a search driven by `formulas` (the goal, …)?
    #[must_use]
    pub fn analyze(net: &Network, formulas: &[&StateFormula]) -> Por {
        let vars: Vec<BTreeSet<VarId>> = net.automata().iter().map(automaton_vars).collect();
        let formula_vars: BTreeSet<VarId> =
            formulas.iter().flat_map(|f| formula_data_vars(f)).collect();

        let mut eligible = Vec::new();
        'aut: for (ai, a) in net.automata().iter().enumerate() {
            // Purely discrete and asynchronous: no syncs, no clocks, no
            // invariants, only Normal locations.
            for l in &a.locations {
                if l.kind != LocationKind::Normal || !l.invariant.is_empty() {
                    continue 'aut;
                }
            }
            for e in &a.edges {
                if e.sync.is_some() || !e.guard_clocks.is_empty() || !e.resets.is_empty() {
                    continue 'aut;
                }
            }
            // Variable-disjoint from every other automaton.
            for (bi, bv) in vars.iter().enumerate() {
                if bi != ai && !vars[ai].is_disjoint(bv) {
                    continue 'aut;
                }
            }
            // Invisible to the property.
            if !vars[ai].is_disjoint(&formula_vars) {
                continue 'aut;
            }
            if formulas
                .iter()
                .any(|f| formula_mentions_automaton(f, AutomatonId(ai)))
            {
                continue 'aut;
            }
            eligible.push(ai);
        }
        Por { eligible }
    }

    /// Whether any automaton qualified (if not, `ample` never fires and
    /// the search runs unreduced).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.eligible.is_empty()
    }

    /// The ample set at `state`: all enabled internal successors of the
    /// first eligible automaton that has any, or `None` to signal full
    /// expansion (no candidate enabled, or committed semantics active).
    #[must_use]
    pub fn ample(&self, exp: &Explorer<'_>, state: &SymState) -> Option<Vec<(Action, SymState)>> {
        if self.eligible.is_empty() || exp.any_committed(state) {
            return None;
        }
        for &ai in &self.eligible {
            let succs = exp.internal_successors(state, ai);
            if !succs.is_empty() {
                return Some(succs);
            }
        }
        None
    }
}

/// All variables an automaton reads or writes (guards, updates, sync
/// indices, reset expressions).
fn automaton_vars(a: &crate::model::Automaton) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    for e in &a.edges {
        expr_vars(&e.guard_data, &mut out);
        stmt_vars(&e.update, &mut out);
        if let Some(sync) = &e.sync {
            expr_vars(&sync.index, &mut out);
        }
        for (_, v) in &e.resets {
            expr_vars(v, &mut out);
        }
    }
    out
}

fn formula_data_vars(f: &StateFormula) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    collect_formula_vars(f, &mut out);
    out
}

fn collect_formula_vars(f: &StateFormula, out: &mut BTreeSet<VarId>) {
    match f {
        StateFormula::True | StateFormula::False | StateFormula::At(_, _) => {}
        StateFormula::Clock(_) => {}
        StateFormula::Data(e) => expr_vars(e, out),
        StateFormula::Not(g) => collect_formula_vars(g, out),
        StateFormula::And(gs) | StateFormula::Or(gs) => {
            for g in gs {
                collect_formula_vars(g, out);
            }
        }
    }
}

fn formula_mentions_automaton(f: &StateFormula, a: AutomatonId) -> bool {
    match f {
        StateFormula::True
        | StateFormula::False
        | StateFormula::Data(_)
        | StateFormula::Clock(_) => false,
        StateFormula::At(x, _) => *x == a,
        StateFormula::Not(g) => formula_mentions_automaton(g, a),
        StateFormula::And(gs) | StateFormula::Or(gs) => {
            gs.iter().any(|g| formula_mentions_automaton(g, a))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockAtom, NetworkBuilder};
    use tempo_expr::{Expr, Stmt};

    /// A network with one timed automaton and two independent counters
    /// (internal, clock-free, variable-disjoint).
    fn counters() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let c1 = b.decls_mut().int_init("c1", 0, 3, 0);
        let c2 = b.decls_mut().int_init("c2", 0, 3, 0);
        for (name, var) in [("C1", c1), ("C2", c2)] {
            let mut a = b.automaton(name);
            let l = a.location("L");
            a.edge(l, l)
                .guard_data(Expr::var(var).lt(Expr::konst(3)))
                .update(Stmt::Assign(var, Expr::var(var) + Expr::konst(1)))
                .done();
            a.done();
        }
        let mut t = b.automaton("Timed");
        let l0 = t.location("L0");
        let l1 = t.location("L1");
        t.edge(l0, l1).guard_clock(ClockAtom::ge(x, 5)).done();
        t.done();
        b.build()
    }

    #[test]
    fn counters_are_eligible_and_timed_is_not() {
        let net = counters();
        let por = Por::analyze(&net, &[&StateFormula::True]);
        assert_eq!(por.eligible, vec![0, 1]);
        assert!(por.is_active());
    }

    #[test]
    fn property_visibility_disqualifies() {
        let net = counters();
        let c1 = net.decls().lookup("c1").unwrap();
        let goal = StateFormula::Data(Expr::var(c1).eq(Expr::konst(3)));
        let por = Por::analyze(&net, &[&goal]);
        assert_eq!(por.eligible, vec![1], "only the c2 counter stays ample");
        let at = StateFormula::At(AutomatonId(1), crate::model::LocationId(0));
        let por = Por::analyze(&net, &[&goal, &at]);
        assert!(por.eligible.is_empty());
        assert!(!por.is_active());
    }

    #[test]
    fn ample_returns_single_process_expansion() {
        let net = counters();
        let por = Por::analyze(&net, &[&StateFormula::True]);
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        let full = exp.successors(&init);
        assert_eq!(full.len(), 3, "both counters and the timed edge can step");
        let ample = por.ample(&exp, &init).expect("ample set");
        assert_eq!(ample.len(), 1, "only the first counter is expanded");
        match &ample[0].0 {
            Action::Internal { automaton, .. } => assert_eq!(automaton.index(), 0),
            Action::Sync { .. } => panic!("ample sets contain internal actions only"),
        }
    }

    #[test]
    fn shared_variables_disqualify() {
        let mut b = NetworkBuilder::new();
        let v = b.decls_mut().int_init("shared", 0, 3, 0);
        for name in ["A", "B"] {
            let mut a = b.automaton(name);
            let l = a.location("L");
            a.edge(l, l)
                .guard_data(Expr::var(v).lt(Expr::konst(3)))
                .update(Stmt::Assign(v, Expr::var(v) + Expr::konst(1)))
                .done();
            a.done();
        }
        let net = b.build();
        let por = Por::analyze(&net, &[&StateFormula::True]);
        assert!(!por.is_active());
    }
}
