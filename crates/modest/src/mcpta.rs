//! `mcpta`: probabilistic model checking of MODEST PTA models via the
//! digital-clocks translation to an MDP, solved by the PRISM-like engine
//! in [`tempo_mdp`] (Bozga et al., DATE 2012, §III). The MDP is built
//! from [`DigitalExplorer`]'s grouped transitions on the compiled
//! network, after tempo-ta's slicing, active-clock reduction and LU
//! tick clamp. Its states are numbered and stored by a
//! [`StateIndex`], one row each.

use crate::Pta;
use tempo_mdp::{expected_reward_governed, reachability_governed, Mdp, MdpBuilder, Opt, StateId};
use tempo_obs::{Budget, Outcome, RunReport};
use tempo_ta::{
    ClockAtom, ClockReduction, DigitalExplorer, DigitalState, QueryNetwork, StateFormula,
    StateIndex, Transitions,
};

/// The `mcpta` analyzer: explores the digital-clocks semantics of a PTA
/// once and answers `Pmax` / `Pmin` / `Emax` / `Emin` queries against the
/// resulting MDP.
///
/// Tick transitions carry reward `1`, so expected *rewards* are expected
/// *times* — exactly the `Emax` property of the paper's Table I.
///
/// MDP state `i` is the state the index numbers `i`. The index stores
/// every state as one row of one array, so the model owns a handful of
/// heap blocks besides the MDP's own.
#[derive(Debug)]
pub struct Mcpta {
    mdp: Mdp,
    /// The explored states, in the reduced clock space, by MDP state.
    index: StateIndex,
    /// The active-clock reduction applied before exploration; queries are
    /// mapped through it.
    reduction: ClockReduction,
}

/// Exploration statistics of the digital-clocks MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McptaStats {
    /// Number of MDP states.
    pub states: usize,
    /// Number of MDP actions.
    pub actions: usize,
    /// Number of probabilistic transitions.
    pub transitions: usize,
}

/// Build-time options for the digital-clocks MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McptaConfig {
    /// Dirac tick-chain compression: a digital state whose only
    /// behaviour is the unit delay is a pure waiting point, and a run of
    /// such states collapses into one tick transition carrying the
    /// accumulated time as its reward. A waiting state is skipped only
    /// while its protected-atom truth vector matches the chain's start
    /// (locations and variables cannot change under tick), so every
    /// probability and expected time computed from the compressed MDP is
    /// identical — under the same contract [`Mcpta::try_build`] already
    /// imposes: `extra_atoms` covers every clock constraint later
    /// queries read.
    ///
    /// Off by default because *step*-bounded queries
    /// ([`tempo_mdp::bounded_reachability_governed`] on [`Mcpta::mdp`])
    /// count MDP steps, and compression changes how many steps a unit of
    /// time takes.
    pub compress_ticks: bool,
    /// Dataflow passes (on by default): query-directed slicing of
    /// provably dead edges and the per-location LU tick clamp. Both are
    /// exact for every probability and expected value — the switch
    /// exists for differential testing and measurement.
    pub flow: bool,
}

impl Default for McptaConfig {
    fn default() -> Self {
        McptaConfig {
            compress_ticks: false,
            flow: true,
        }
    }
}

impl Mcpta {
    /// Builds the digital-clocks MDP for the PTA under a resource
    /// [`Budget`]. `extra_atoms` must cover every clock constraint used in
    /// later queries (so that the clock clamp keeps them observable).
    ///
    /// A truncated MDP would silently distort every probability computed
    /// from it, so on exhaustion the partial answer is `None` — the
    /// report still records how far the exploration got. A model whose
    /// initial valuation violates an invariant has no initial state, so
    /// its build completes with `None` too.
    ///
    /// # Panics
    ///
    /// Panics if the PTA is not closed (strict bounds).
    pub fn try_build(
        pta: &Pta,
        extra_atoms: &[ClockAtom],
        budget: &Budget,
    ) -> Outcome<Option<Self>> {
        Self::try_build_with(pta, extra_atoms, McptaConfig::default(), budget)
    }

    /// [`Mcpta::try_build`] with explicit build options (see
    /// [`McptaConfig`]).
    ///
    /// # Panics
    ///
    /// Panics if the PTA is not closed (strict bounds).
    pub fn try_build_with(
        pta: &Pta,
        extra_atoms: &[ClockAtom],
        config: McptaConfig,
        budget: &Budget,
    ) -> Outcome<Option<Self>> {
        let gov = budget.governor();
        // Query-directed slicing first: provably dead edges cannot carry
        // probability mass, and stranded handshake partners die with
        // them. The branches of one choice share guard and channel, so
        // they die together. Then active-clock reduction: clocks read by
        // no guard, invariant or protected atom cannot influence
        // enabledness or branching, so the reduced MDP has identical
        // probabilities over smaller (and fewer) states.
        let protected: Vec<StateFormula> = extra_atoms
            .iter()
            .map(|&a| StateFormula::clock(a))
            .collect();
        let mut prep = QueryNetwork::prepare(pta, &protected, config.flow, true);
        // Per-location LU tick clamp: clamp-merged states share
        // locations, stores and the truth of every still-observable
        // clock constraint, so the quotient MDP is probabilistically
        // bisimilar to the globally-clamped one.
        let lu = config.flow.then(|| prep.lu());
        let extra_mapped = prep.atoms();
        let mut exp = DigitalExplorer::for_query(prep.network(), &extra_mapped)
            .unwrap_or_else(|e| panic!("{e}"));
        if let Some(lu) = lu {
            exp = exp.with_lu(lu);
        }
        // MDP state `i` is index state `i`: the builder gains a state
        // for every id the index hands out.
        let mut builder = MdpBuilder::new();
        let mut index = StateIndex::new();
        let mut peak = 0_usize;
        let mut explored = 0_usize;

        // Each popped state is loaded into `state`, and its successors
        // are written into `succ`: both keep their allocations.
        let mut state = exp.initial_state();
        let mut succ = Transitions::default();
        if exp.invariants_hold(&state.locs, &state.clocks) && index.intern(&state, &gov).is_some() {
            builder.reserve_states(1);
            peak = 1;
        }

        'build: while let Some(i) = index.pop() {
            if !gov.check_time() {
                break;
            }
            explored += 1;
            let sid = StateId(i);
            index.load(i, &mut state);
            // Action transitions (reward 0).
            exp.transitions(&state, &mut succ);
            for t in succ.iter() {
                let mut dist: Vec<(StateId, f64)> = Vec::with_capacity(t.len());
                for (p, next) in t {
                    let Some(id) = index.intern(next, &gov) else {
                        break 'build;
                    };
                    dist.push((StateId(id), *p));
                }
                builder.reserve_states(index.len());
                builder
                    .add_action(sid, None, 0.0, dist)
                    .expect("explorer produces valid distributions");
            }
            // Tick (reward 1 = one time unit).
            if let Some(mut next) = exp.tick(&state) {
                let mut waited = 1.0;
                if config.compress_ticks {
                    // Walk the Dirac chain: keep skipping `next` while it
                    // is a pure waiting point — no action transitions,
                    // and observationally identical to `state` (its
                    // protected-atom truth vector agrees; locations and
                    // variables cannot change under tick). `state`'s
                    // transitions are in the MDP already, so `succ` is
                    // free to hold `next`'s.
                    while atoms_agree(&extra_mapped, &state, &next) {
                        exp.transitions(&next, &mut succ);
                        if !succ.is_empty() {
                            break;
                        }
                        let Some(after) = exp.tick(&next) else { break };
                        if after == next {
                            // Every clock clamped: the tick fixpoint
                            // self-loop must stay a stored state.
                            break;
                        }
                        next = after;
                        waited += 1.0;
                    }
                }
                let Some(id) = index.intern(&next, &gov) else {
                    break 'build;
                };
                builder.reserve_states(index.len());
                builder
                    .add_action(sid, None, waited, vec![(StateId(id), 1.0)])
                    .expect("tick distribution is valid");
            }
            peak = peak.max(index.frontier_len());
        }
        let metrics = prep.metrics();
        let reduction = prep.into_reduction();
        let report = metrics.stamp(RunReport {
            states_explored: explored as u64,
            states_stored: index.len() as u64,
            peak_waiting: peak as u64,
            dbm_dim: reduction.dim() as u64,
            dbm_dim_model: reduction.original_dim() as u64,
            wall_time: gov.elapsed(),
            ..RunReport::default()
        });
        if gov.is_exhausted() || index.is_empty() {
            return gov.finish(None, report);
        }
        gov.finish(
            Some(Mcpta {
                mdp: builder.build(StateId(0)).expect("initial state exists"),
                index,
                reduction,
            }),
            report,
        )
    }

    /// The active-clock reduction applied at build time (reduced and
    /// original clock-space dimensions, clock map).
    #[must_use]
    pub fn reduction(&self) -> &ClockReduction {
        &self.reduction
    }

    /// Statistics of the underlying MDP.
    #[must_use]
    pub fn stats(&self) -> McptaStats {
        McptaStats {
            states: self.mdp.num_states(),
            actions: self.mdp.num_actions(),
            transitions: self.mdp.num_transitions(),
        }
    }

    /// The underlying MDP (for ablation benchmarks).
    #[must_use]
    pub fn mdp(&self) -> &Mdp {
        &self.mdp
    }

    /// The per-MDP-state mask of a goal formula (for driving the raw
    /// [`tempo_mdp`] algorithms directly, e.g. interval iteration).
    #[must_use]
    pub fn goal_mask(&self, goal: &StateFormula) -> Vec<bool> {
        let goal = self.reduction.map_formula(goal).expect(
            "query reads a clock that was reduced away; list its atoms in `extra_atoms` at build time",
        );
        let exp = DigitalExplorer::new(self.reduction.network());
        let mut state = DigitalState::default();
        (0..self.index.len())
            .map(|i| {
                self.index.load(i, &mut state);
                exp.satisfies(&state, &goal)
            })
            .collect()
    }

    /// `Pmax` (`opt` = [`Opt::Max`]) or `Pmin` of eventually reaching
    /// `goal` under a resource [`Budget`] (see
    /// [`tempo_mdp::reachability_governed`] for the partial semantics).
    /// The full result — per-state values plus the memoryless scheduler
    /// realizing them — serves certification: the scheduler induces a
    /// Markov chain whose reach probability can be recomputed
    /// independently of the solver.
    pub fn reach_quantitative(
        &self,
        opt: Opt,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<tempo_mdp::Quantitative> {
        reachability_governed(&self.mdp, opt, &self.goal_mask(goal), budget)
    }

    /// `Emax`, the maximum expected time until `goal` (infinite if some
    /// scheduler can avoid it), under a resource [`Budget`].
    pub fn emax_time_governed(&self, goal: &StateFormula, budget: &Budget) -> Outcome<f64> {
        expected_reward_governed(&self.mdp, Opt::Max, &self.goal_mask(goal), budget)
            .map(|q| q.initial_value)
    }

    /// `Emin`, the minimum expected time until `goal`, under a resource
    /// [`Budget`].
    pub fn emin_time_governed(&self, goal: &StateFormula, budget: &Budget) -> Outcome<f64> {
        expected_reward_governed(&self.mdp, Opt::Min, &self.goal_mask(goal), budget)
            .map(|q| q.initial_value)
    }

    /// Whether `invariant` holds in every reachable state (used for the
    /// paper's TA1/TA2 rows: non-probabilistic invariants checked on the
    /// same MDP).
    #[must_use]
    pub fn check_invariant(&self, invariant: &StateFormula) -> bool {
        self.goal_mask(invariant).into_iter().all(|holds| holds)
    }
}

/// Whether every protected atom has the same truth value in both states.
/// Along a tick chain this is the whole observable difference: locations
/// and variables are tick-invariant, and queries read clocks only
/// through protected atoms.
fn atoms_agree(atoms: &[ClockAtom], a: &DigitalState, b: &DigitalState) -> bool {
    atoms
        .iter()
        .all(|atom| atom.holds_at(&a.clocks) == atom.holds_at(&b.clocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ActionId, Assignment, ModestModel, PaltBranch, Process};
    use crate::compile::compile;
    use tempo_expr::Expr;
    use tempo_ta::{AutomatonId, ClockAtom, LocationId};

    /// `Pmax` (`Opt::Max`) or `Pmin` of eventually reaching `goal`.
    fn reach(mc: &Mcpta, opt: Opt, goal: &StateFormula) -> f64 {
        mc.reach_quantitative(opt, goal, &Budget::unlimited())
            .into_value()
            .initial_value
    }

    /// A retrying sender: each attempt succeeds with 0.75, fails with
    /// 0.25 and retries after 2 time units; at most 2 retries.
    fn retry_model() -> (Pta, tempo_expr::VarId) {
        let mut m = ModestModel::new();
        let x = m.clock("x");
        let send: ActionId = m.action("send");
        let ok = m.decls_mut().int("ok", 0, 1);
        let tries = m.decls_mut().int("tries", 0, 3);
        m.define(
            "Sender",
            Process::when(
                Expr::var(tries).lt(Expr::konst(3)),
                Process::when_clock(
                    ClockAtom::ge(x, 2),
                    Process::palt(
                        send,
                        vec![
                            PaltBranch {
                                weight: 3,
                                assignments: vec![Assignment::Var(ok, Expr::konst(1))],
                                then: Process::stop(),
                            },
                            PaltBranch {
                                weight: 1,
                                assignments: vec![
                                    Assignment::Var(tries, Expr::var(tries) + Expr::konst(1)),
                                    Assignment::Clock(x, 0),
                                ],
                                then: Process::call("Sender"),
                            },
                        ],
                    ),
                ),
            ),
        );
        m.system(&["Sender"]);
        (compile(&m), ok)
    }

    #[test]
    fn pmax_of_retry_protocol() {
        let (pta, ok) = retry_model();
        let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(100_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        let goal = StateFormula::data(Expr::var(ok).eq(Expr::konst(1)));
        // Success prob = 1 - 0.25^3.
        let expected = 1.0 - 0.25_f64.powi(3);
        assert!((reach(&mc, Opt::Max, &goal) - expected).abs() < 1e-9);
        assert!(
            (reach(&mc, Opt::Min, &goal) - 0.0).abs() < 1e-9,
            "never sending is allowed"
        );
    }

    #[test]
    fn emin_time_counts_ticks() {
        let (pta, ok) = retry_model();
        let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(100_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        let goal = StateFormula::data(Expr::var(ok).eq(Expr::konst(1)));
        // The fastest schedule sends at x = 2; expected time under the
        // *minimizing* scheduler: E = 2 + 0.25*(2 + 0.25*(2 + ...)); but
        // Emin is infinite-free only if Pmax = 1, which fails (the third
        // failure is terminal). So Emin must be infinite here.
        assert!(mc
            .emin_time_governed(&goal, &Budget::unlimited())
            .into_value()
            .is_infinite());
    }

    #[test]
    fn location_goals_work() {
        // Single action a: L0 -> L1; Emax counts the forced waiting time 0
        // (tick competes, so max scheduler can stall... guarded by x <= 3
        // invariant to force progress).
        let mut m = ModestModel::new();
        let x = m.clock("x");
        let a = m.action("a");
        m.define(
            "P",
            Process::invariant(
                vec![ClockAtom::le(x, 3)],
                Process::when_clock(ClockAtom::ge(x, 1), Process::act(a, Process::stop())),
            ),
        );
        m.system(&["P"]);
        let pta = compile(&m);
        let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(10_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        // Location 1 of component 0 is the post-a location.
        let goal = StateFormula::at(AutomatonId(0), LocationId(1));
        assert!((reach(&mc, Opt::Max, &goal) - 1.0).abs() < 1e-9);
        assert!(
            (reach(&mc, Opt::Min, &goal) - 1.0).abs() < 1e-9,
            "invariant forces the action"
        );
        let emax = mc
            .emax_time_governed(&goal, &Budget::unlimited())
            .into_value();
        assert!(
            (emax - 3.0).abs() < 1e-9,
            "wait until the invariant bound: {emax}"
        );
        let emin = mc
            .emin_time_governed(&goal, &Budget::unlimited())
            .into_value();
        assert!(
            (emin - 1.0).abs() < 1e-9,
            "move as soon as the guard allows: {emin}"
        );
    }

    #[test]
    fn initial_invariant_violation_builds_no_model() {
        // x = 0 violates `inv { x >= 1 }`, so the model has no initial
        // state, even though P could otherwise hand over to Q.
        let mut m = ModestModel::new();
        let x = m.clock("x");
        let c = m.action("c");
        m.define(
            "P",
            Process::invariant(vec![ClockAtom::ge(x, 1)], Process::act(c, Process::stop())),
        );
        m.define("Q", Process::act(c, Process::stop()));
        m.system(&["P", "Q"]);
        let out = Mcpta::try_build(&compile(&m), &[], &Budget::unlimited());
        assert!(matches!(out, Outcome::Complete { value: None, .. }));
    }

    #[test]
    fn tick_compression_preserves_values_on_fewer_states() {
        let (pta, ok) = retry_model();
        let goal = StateFormula::data(Expr::var(ok).eq(Expr::konst(1)));
        let full = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(100_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        let compressed = Mcpta::try_build_with(
            &pta,
            &[],
            McptaConfig {
                compress_ticks: true,
                ..McptaConfig::default()
            },
            &Budget::unlimited(),
        )
        .into_value()
        .expect("unlimited build completes");
        // The retry loop waits two ticks before every attempt; those
        // waiting points collapse.
        assert!(
            compressed.stats().states < full.stats().states,
            "compressed {} vs full {}",
            compressed.stats().states,
            full.stats().states
        );
        assert!(
            (reach(&compressed, Opt::Max, &goal) - reach(&full, Opt::Max, &goal)).abs() < 1e-12
        );
        assert!(
            (reach(&compressed, Opt::Min, &goal) - reach(&full, Opt::Min, &goal)).abs() < 1e-12
        );
        assert!(
            compressed
                .emin_time_governed(&goal, &Budget::unlimited())
                .into_value()
                .is_infinite()
                && full
                    .emin_time_governed(&goal, &Budget::unlimited())
                    .into_value()
                    .is_infinite(),
            "the third failure is terminal either way"
        );
    }

    #[test]
    fn invariant_check_on_states() {
        let (pta, ok) = retry_model();
        let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(100_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        let tries = pta.decls().lookup("tries").unwrap();
        assert!(mc.check_invariant(&StateFormula::data(Expr::var(tries).le(Expr::konst(3)))));
        assert!(!mc.check_invariant(&StateFormula::data(Expr::var(tries).le(Expr::konst(2)))));
        let _ = ok;
    }
}
