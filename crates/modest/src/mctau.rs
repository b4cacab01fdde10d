//! `mctau`: bridging MODEST and the UPPAAL substrate
//! (Bozga et al., DATE 2012, §III).
//!
//! Probabilistic decisions, which the timed-automata engine cannot
//! handle, are *over-approximated by nondeterministic decisions*: the
//! zone engine runs on the compiled network as it is, and reads each
//! `palt` branch (a weighted sibling edge) as an ordinary edge. Invariant (`A[]`) properties
//! checked on the over-approximation are exact when they hold;
//! probabilistic queries collapse to the trivial bounds `[0, 1]` unless
//! the goal is unreachable even nondeterministically, in which case the
//! probability is exactly `0` (the paper's Table I rows PA/PB vs
//! P1/P2/Dmax).

use crate::Pta;
use tempo_obs::{Budget, Outcome};
use tempo_ta::{ModelChecker, Network, StateFormula, Verdict};

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

/// The `mctau` analyzer: the timed-automata engine on a compiled PTA.
#[derive(Debug)]
pub struct Mctau<'n> {
    net: &'n Network,
}

impl<'n> Mctau<'n> {
    /// The nondeterministic over-approximation of a PTA: the PTA itself,
    /// read by the zone engine.
    #[must_use]
    pub fn new(pta: &'n Pta) -> Self {
        Mctau { net: pta }
    }

    /// The exported UPPAAL-style network (the paper's "export to UPPAAL
    /// XML" becomes an in-memory network here).
    #[must_use]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Checks an invariant (`A[] f`) on the over-approximation. `true`
    /// is exact (more behaviours were checked than exist); `false` may be
    /// spurious for properties that depend on probabilities.
    ///
    /// Runs under a resource [`Budget`], delegating to the governed
    /// timed-automata engine. A violation found within the budget is
    /// definitive; on exhaustion the partial `true` means "no
    /// violation found in the explored portion".
    pub fn check_invariant_governed(&self, f: &StateFormula, budget: &Budget) -> Outcome<bool> {
        let mut mc = ModelChecker::new(self.net);
        mc.try_always_governed(f, budget)
            .expect(IN_MEMORY)
            .map(|(verdict, _)| matches!(verdict, Verdict::Satisfied))
    }

    /// Bounds on `Pmax(◇ goal)`: exactly `0` if the goal is unreachable
    /// in the over-approximation, else the trivial `[0, 1]`.
    ///
    /// Runs under a resource [`Budget`]. The exact-zero answer requires a *complete* unreachability proof, so on
    /// exhaustion the partial answer stays at the trivial `[0, 1]`.
    pub fn probability_bounds_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<ProbabilityBounds> {
        let mut mc = ModelChecker::new(self.net);
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
        let bounds = mctau
            .probability_bounds_governed(&rare, &Budget::unlimited())
            .into_value();
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
        let bounds = mctau
            .probability_bounds_governed(&impossible, &Budget::unlimited())
            .into_value();
        assert_eq!((bounds.lower, bounds.upper), (0.0, 0.0));
        assert_eq!(bounds.to_string(), "0");
    }

    #[test]
    fn invariants_check_exactly() {
        let (pta, got) = lossy_pair();
        let mctau = Mctau::new(&pta);
        assert!(mctau
            .check_invariant_governed(
                &StateFormula::data(Expr::var(got).le(Expr::konst(1))),
                &Budget::unlimited()
            )
            .into_value());
        assert!(!mctau
            .check_invariant_governed(
                &StateFormula::data(Expr::var(got).eq(Expr::konst(0))),
                &Budget::unlimited()
            )
            .into_value());
    }

    #[test]
    fn structure_is_preserved() {
        let (pta, _) = lossy_pair();
        let mctau = Mctau::new(&pta);
        let net = mctau.network();
        assert_eq!(net.automata().len(), 2);
        // P's palt with 2 branches is 2 edges, which the zone engine
        // reads as nondeterministic alternatives.
        assert_eq!(net.automata()[0].edges.len(), 2);
        assert_eq!(net.dim(), pta.dim());
    }
}
