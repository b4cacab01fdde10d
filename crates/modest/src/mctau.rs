//! `mctau`: bridging MODEST and the UPPAAL substrate
//! (Bozga et al., DATE 2012, §III).
//!
//! Probabilistic decisions, which the timed-automata engine cannot
//! handle, are *over-approximated by nondeterministic decisions*: every
//! `palt` branch becomes a separate edge. Invariant (`A[]`) properties
//! checked on the over-approximation are exact when they hold;
//! probabilistic queries collapse to the trivial bounds `[0, 1]` unless
//! the goal is unreachable even nondeterministically, in which case the
//! probability is exactly `0` (the paper's Table I rows PA/PB vs
//! P1/P2/Dmax).

use crate::pta::{Pta, SyncKind};
use tempo_obs::{Budget, Outcome};
use tempo_ta::{ChannelKind, ModelChecker, Network, NetworkBuilder, StateFormula, Verdict};

/// Why the timed-automata engine cannot fail here: `Mctau` never gives
/// its checker a spill config, so the state store stays in memory.
const IN_MEMORY: &str = "a checker without a spill config never fails";

/// Bounds `[lower, upper]` on a probability, as reported by `mctau`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityBounds {
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

impl std::fmt::Display for ProbabilityBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lower == self.upper {
            write!(f, "{}", self.lower)
        } else {
            write!(f, "[{}, {}]", self.lower, self.upper)
        }
    }
}

/// The `mctau` analyzer: owns the over-approximating TA network.
#[derive(Debug)]
pub struct Mctau {
    net: Network,
}

impl Mctau {
    /// Builds the nondeterministic over-approximation of a PTA.
    ///
    /// Component and location indices are preserved, so
    /// [`StateFormula`] atoms written against the PTA work unchanged.
    #[must_use]
    pub fn new(pta: &Pta) -> Self {
        Mctau {
            net: over_approximate(pta),
        }
    }

    /// The exported UPPAAL-style network (the paper's "export to UPPAAL
    /// XML" becomes an in-memory network here).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Checks an invariant (`A[] f`) on the over-approximation. `true`
    /// is exact (more behaviours were checked than exist); `false` may be
    /// spurious for properties that depend on probabilities.
    #[must_use]
    pub fn check_invariant(&self, f: &StateFormula) -> bool {
        let mut mc = ModelChecker::new(&self.net);
        let (verdict, _) = mc.always(f);
        matches!(verdict, Verdict::Satisfied)
    }

    /// Invariant check under a resource [`Budget`], delegating to the
    /// governed timed-automata engine. A violation found within the
    /// budget is definitive; on exhaustion the partial `true` means "no
    /// violation found in the explored portion".
    pub fn check_invariant_governed(&self, f: &StateFormula, budget: &Budget) -> Outcome<bool> {
        let mut mc = ModelChecker::new(&self.net);
        mc.try_always_governed(f, budget)
            .expect(IN_MEMORY)
            .map(|(verdict, _)| matches!(verdict, Verdict::Satisfied))
    }

    /// Bounds on `Pmax(◇ goal)`: exactly `0` if the goal is unreachable
    /// in the over-approximation, else the trivial `[0, 1]`.
    #[must_use]
    pub fn probability_bounds(&self, goal: &StateFormula) -> ProbabilityBounds {
        self.probability_bounds_governed(goal, &Budget::unlimited())
            .into_value()
    }

    /// Probability bounds under a resource [`Budget`]. The exact-zero
    /// answer requires a *complete* unreachability proof, so on
    /// exhaustion the partial answer stays at the trivial `[0, 1]`.
    pub fn probability_bounds_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<ProbabilityBounds> {
        let mut mc = ModelChecker::new(&self.net);
        let out = mc.try_reachable_governed(goal, budget).expect(IN_MEMORY);
        let exhausted = out.is_exhausted();
        out.map(|res| {
            if res.reachable || exhausted {
                ProbabilityBounds {
                    lower: 0.0,
                    upper: 1.0,
                }
            } else {
                ProbabilityBounds {
                    lower: 0.0,
                    upper: 0.0,
                }
            }
        })
    }
}

/// Translates a PTA into a [`tempo_ta::Network`], dropping probabilities.
fn over_approximate(pta: &Pta) -> Network {
    let mut b = NetworkBuilder::new();
    *b.decls_mut() = pta.decls.clone();
    // Recreate the clocks (indices must match the PTA's).
    for i in 1..pta.dim {
        b.clock(&format!("x{i}"));
    }
    // One binary channel per paired action; local actions become internal.
    let channels: Vec<Option<tempo_ta::ChannelId>> = pta
        .actions
        .iter()
        .enumerate()
        .map(|(k, name)| match pta.sync[k] {
            SyncKind::Pair(_, _) => Some(b.channel_array(name, 1, ChannelKind::Binary, false)),
            SyncKind::Local => None,
        })
        .collect();
    for (ai, a) in pta.automata.iter().enumerate() {
        let mut ab = b.automaton(&a.name);
        let locs: Vec<tempo_ta::LocationId> = a
            .locations
            .iter()
            .map(|l| ab.location_with_invariant(&l.name, l.invariant.clone()))
            .collect();
        ab.set_initial(locs[a.initial]);
        for e in &a.edges {
            for branch in &e.branches {
                if branch.weight == 0 {
                    continue;
                }
                let mut eb = ab
                    .edge(locs[e.from], locs[branch.to])
                    .guard_data(e.guard_data.clone());
                for atom in &e.guard_clocks {
                    eb = eb.guard_clock(*atom);
                }
                for (clock, v) in &branch.resets {
                    eb = eb.reset(*clock, *v);
                }
                // Assignments become an update statement.
                let stmts: Vec<tempo_expr::Stmt> = branch
                    .assignments
                    .iter()
                    .map(|(target, expr)| match target {
                        crate::pta::AssignTarget::Var(v) => {
                            tempo_expr::Stmt::assign(*v, expr.clone())
                        }
                        crate::pta::AssignTarget::ArrayElem(v, i) => {
                            tempo_expr::Stmt::assign_index(*v, i.clone(), expr.clone())
                        }
                    })
                    .collect();
                eb = eb.update(tempo_expr::Stmt::seq(stmts));
                if let Some(act) = e.action {
                    if let Some(ch) = channels[act.0] {
                        // Direction: the first user sends.
                        let sends =
                            matches!(pta.sync[act.0], SyncKind::Pair(first, _) if first == ai);
                        eb = if sends { eb.send(ch) } else { eb.recv(ch) };
                    }
                }
                eb.done();
            }
        }
        ab.done();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Assignment, ModestModel, PaltBranch, Process};
    use crate::compile::compile;
    use tempo_expr::Expr;
    use tempo_ta::{AutomatonId, LocationId};

    fn lossy_pair() -> (Pta, tempo_expr::VarId) {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let got = m.decls_mut().int("got", 0, 1);
        m.define(
            "P",
            Process::palt(
                a,
                vec![
                    PaltBranch {
                        weight: 99,
                        assignments: vec![],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 1,
                        assignments: vec![Assignment::Var(got, Expr::konst(1))],
                        then: Process::stop(),
                    },
                ],
            ),
        );
        m.define("Q", Process::act(a, Process::stop()));
        m.system(&["P", "Q"]);
        (compile(&m), got)
    }

    #[test]
    fn reachable_rare_branch_gives_trivial_bounds() {
        let (pta, got) = lossy_pair();
        let mctau = Mctau::new(&pta);
        let rare = StateFormula::data(Expr::var(got).eq(Expr::konst(1)));
        let bounds = mctau.probability_bounds(&rare);
        assert_eq!((bounds.lower, bounds.upper), (0.0, 1.0));
        assert_eq!(bounds.to_string(), "[0, 1]");
    }

    #[test]
    fn unreachable_goal_gives_exact_zero() {
        let (pta, _) = lossy_pair();
        let mctau = Mctau::new(&pta);
        // P has locations {entry, post}; there is no third location.
        let impossible = StateFormula::and(vec![
            StateFormula::at(AutomatonId(0), LocationId(0)),
            StateFormula::at(AutomatonId(1), LocationId(1)),
        ]);
        // P and Q synchronize on `a`, so they move together: P at entry
        // while Q has moved is unreachable.
        let bounds = mctau.probability_bounds(&impossible);
        assert_eq!((bounds.lower, bounds.upper), (0.0, 0.0));
        assert_eq!(bounds.to_string(), "0");
    }

    #[test]
    fn invariants_check_exactly() {
        let (pta, got) = lossy_pair();
        let mctau = Mctau::new(&pta);
        assert!(mctau.check_invariant(&StateFormula::data(Expr::var(got).le(Expr::konst(1)))));
        assert!(!mctau.check_invariant(&StateFormula::data(Expr::var(got).eq(Expr::konst(0)))));
    }

    #[test]
    fn structure_is_preserved() {
        let (pta, _) = lossy_pair();
        let mctau = Mctau::new(&pta);
        let net = mctau.network();
        assert_eq!(net.automata().len(), 2);
        // P's palt with 2 branches becomes 2 nondeterministic edges.
        assert_eq!(net.automata()[0].edges.len(), 2);
        assert_eq!(net.dim(), pta.dim);
    }
}
