//! The symbolic model checker: reachability (`E<>`), safety (`A[]`),
//! deadlock-freedom, and exploration statistics.
//!
//! Every query of this crate that walks the zone graph forward — the
//! three above, reachable-state enumeration and the reachable-set phase
//! of leads-to — runs the one passed/waiting loop in [`explore`].

use crate::explore::{Action, Explorer, SymState};
use crate::formula::StateFormula;
use crate::model::Network;
use crate::por::Por;
use crate::prepare::QueryNetwork;
use crate::symmetry::Symmetry;
use tempo_obs::{
    Budget, ExploreConfig, Governor, Outcome, RunReport, SpillError, SpillMetrics, StateStore,
};

/// Resident per-node metadata kept by the exploration store: the
/// parent edge (for trace reconstruction) and the index of the
/// symmetry permutation that canonicalized the state (`0` — the
/// identity — when symmetry is off).
pub(crate) type NodeMeta = (Option<(usize, Action)>, usize);

/// Builds the [`RunReport`] of a zone-graph exploration from its
/// [`Stats`], the waiting-list high-water mark, the DBM dimensions
/// used (after active-clock reduction) and declared by the model, and
/// the out-of-core accounting of the state store.
pub(crate) fn exploration_report(
    gov: &Governor,
    stats: &Stats,
    peak_waiting: usize,
    dbm_dim: usize,
    dbm_dim_model: usize,
    spill: SpillMetrics,
) -> RunReport {
    RunReport {
        states_explored: stats.explored as u64,
        states_stored: stats.stored as u64,
        peak_waiting: peak_waiting as u64,
        sweeps: 0,
        runs_simulated: 0,
        dbm_dim: dbm_dim as u64,
        dbm_dim_model: dbm_dim_model as u64,
        wall_time: gov.elapsed(),
        por_ample_states: stats.por_ample as u64,
        por_fallback_states: stats.por_fallback as u64,
        sym_orbits: stats.sym_orbits as u64,
        sym_states_avoided: stats.sym_avoided as u64,
        spilled_states: spill.spilled_states,
        spill_bytes: spill.spill_bytes,
        spill_faults: spill.spill_faults,
        ..RunReport::default()
    }
}

/// How an [`explore`] run ended.
pub(crate) struct Explored {
    /// The node whose state satisfied the hit predicate, if one was
    /// popped.
    pub(crate) hit: Option<usize>,
    /// Exploration statistics.
    pub(crate) stats: Stats,
    /// Waiting-list high-water mark.
    pub(crate) peak: usize,
}

/// The zone-graph passed/waiting exploration behind every forward
/// query: BFS over `store` from the initial state until a popped state
/// satisfies `hit`, the inclusion-reduced fixpoint is reached, or the
/// governor trips. Each popped state is expanded (ample or full
/// successors, symmetry canonical forms) and folded into the store
/// before the next one is popped.
pub(crate) fn explore<H>(
    net: &Network,
    explorer: &Explorer<'_>,
    hit: H,
    por: Option<&Por>,
    sym: Option<&Symmetry>,
    store: &mut StateStore<SymState, NodeMeta>,
    gov: &Governor,
) -> Result<Explored, SpillError>
where
    H: Fn(&SymState) -> bool,
{
    let canonical = |state: SymState| match sym {
        Some(s) => s.canonicalize(net, &state),
        None => (state, 0),
    };

    let mut stats = Stats {
        sym_orbits: sym.map_or(0, Symmetry::orbit_count),
        ..Stats::default()
    };
    let mut peak = 0;
    let (init, init_perm) = canonical(explorer.initial_state());
    if gov.charge_state() {
        store.insert(init, (None, init_perm))?;
        peak = 1;
    }

    let mut found = None;
    'explore: while let Some(id) = store.pop_waiting() {
        let state = store.load(id)?;
        if !gov.check_time() {
            break;
        }
        stats.explored += 1;
        if hit(&state) {
            found = Some(id);
            break;
        }
        let (mut pending, mut ample) = match por.and_then(|p| p.ample(explorer, &state)) {
            Some(succs) => (succs, true),
            None => (explorer.successors(&state), false),
        };
        if por.is_some() {
            if ample {
                stats.por_ample += 1;
            } else {
                stats.por_fallback += 1;
            }
        }
        loop {
            let mut any_subsumed = false;
            for (action, succ) in pending {
                let (succ, perm) = canonical(succ);
                stats.transitions += 1;
                if store.is_subsumed(&succ)? {
                    any_subsumed = true;
                    if perm != 0 {
                        stats.sym_avoided += 1;
                    }
                    continue;
                }
                if !gov.charge_state() {
                    break 'explore;
                }
                store.insert(succ, (Some((id, action)), perm))?;
                peak = peak.max(store.waiting_len());
            }
            // C3 cycle proviso: an ample successor was subsumed by an
            // already-stored state, i.e. the reduced expansion may
            // close a cycle along which the deferred transitions
            // would be ignored forever. Re-expand this state fully
            // (already-inserted ample successors dedup via the
            // inclusion check).
            if ample && any_subsumed {
                pending = explorer.successors(&state);
                ample = false;
                stats.por_ample -= 1;
                stats.por_fallback += 1;
                continue;
            }
            break;
        }
    }
    stats.stored = store.stored();
    Ok(Explored {
        hit: found,
        stats,
        peak,
    })
}

/// The full forward exploration of `net`'s unreduced zone graph within
/// `gov`, shared by state enumeration and the first phase of leads-to:
/// every node inserted (evicted ones included) in id order with its
/// metadata, and how the run ended. Nothing touches disk.
pub(crate) fn explore_all(
    net: &Network,
    explorer: &Explorer<'_>,
    gov: &Governor,
) -> (Vec<(SymState, NodeMeta)>, Explored) {
    StateStore::create(None)
        .and_then(|mut store| {
            let run = explore(
                net,
                explorer,
                |_: &SymState| false,
                None,
                None,
                &mut store,
                gov,
            )?;
            Ok((store.into_nodes()?, run))
        })
        .expect("a store without a spill log never fails")
}

/// A step of a symbolic diagnostic trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The action leading into `state` (`None` for the initial state).
    pub action: Option<Action>,
    /// The reached symbolic state.
    pub state: SymState,
}

/// A symbolic trace from the initial state to a witness state.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The steps, starting with the initial state.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    /// Length in transitions (steps minus the initial state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// Whether the trace is empty (no states at all).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// A multi-line human-readable rendering with location names.
    ///
    /// ```text
    /// (Safe, Safe, Free)
    ///   --appr[0]--> (Appr, Safe, Occ)
    /// ```
    #[must_use]
    pub fn render(&self, net: &crate::model::Network) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for step in &self.steps {
            let locs: Vec<&str> = step
                .state
                .locs
                .iter()
                .zip(net.automata())
                .map(|(&l, a)| a.locations[l.index()].name.as_str())
                .collect();
            match &step.action {
                None => {
                    let _ = writeln!(out, "({})", locs.join(", "));
                }
                Some(action) => {
                    let _ = writeln!(out, "  --{action}--> ({})", locs.join(", "));
                }
            }
        }
        out
    }

    /// A compact one-line rendering of the action sequence.
    #[must_use]
    pub fn action_summary(&self) -> String {
        self.steps
            .iter()
            .filter_map(|s| s.action.as_ref())
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// Network-independent rendering: location *indices* instead of names
/// (use [`Trace::render`] when the network is at hand).
impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            let locs: Vec<String> = step
                .state
                .locs
                .iter()
                .map(|l| l.index().to_string())
                .collect();
            match &step.action {
                None => writeln!(f, "({})", locs.join(", "))?,
                Some(action) => writeln!(f, "  --{action}--> ({})", locs.join(", "))?,
            }
        }
        Ok(())
    }
}

/// The verdict of a model-checking query, with witness/counterexample
/// trace where applicable.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The property is satisfied.
    Satisfied,
    /// The property is violated; the trace witnesses the violation (for
    /// `A[]`) or the reachability witness (for `E<>` this means
    /// *satisfied* and the trace leads to the witness).
    Violated(Trace),
}

impl Verdict {
    /// Whether the property holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Satisfied)
    }
}

/// Statistics of a symbolic exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Symbolic states popped from the waiting list.
    pub explored: usize,
    /// Zones stored in the passed list (after inclusion reduction).
    pub stored: usize,
    /// Successor computations.
    pub transitions: usize,
    /// States expanded with a reduced (ample) successor set.
    pub por_ample: usize,
    /// States expanded fully although partial-order reduction was active
    /// (committed locations, no enabled candidate, or the C3 cycle
    /// proviso re-expanded the state).
    pub por_fallback: usize,
    /// Orbit groups of replicated components detected by the symmetry
    /// analysis (`0` when the reduction is off or found nothing).
    pub sym_orbits: usize,
    /// Successor states that were folded into an already-stored orbit
    /// representative instead of being stored themselves.
    pub sym_avoided: usize,
}

/// Result of a reachability query: whether a goal state was found, the
/// witness trace if so, and exploration statistics.
#[derive(Debug, Clone)]
pub struct ReachResult {
    /// Whether a state satisfying the goal was reached.
    pub reachable: bool,
    /// A shortest (in transitions) symbolic witness trace, if reachable.
    pub trace: Option<Trace>,
    /// Exploration statistics.
    pub stats: Stats,
}

/// The symbolic model checker for a network of timed automata.
///
/// ```
/// use tempo_ta::{NetworkBuilder, ModelChecker, StateFormula};
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).done();
/// let aid = a.done();
/// let net = b.build();
/// let mut mc = ModelChecker::new(&net);
/// let goal = StateFormula::at(aid, l1);
/// assert!(mc.reachable(&goal).reachable);
/// ```
#[derive(Debug)]
pub struct ModelChecker<'n> {
    net: &'n Network,
    reduce: bool,
    config: ExploreConfig,
}

impl<'n> ModelChecker<'n> {
    /// Creates a checker for the network (active-clock reduction, ample-set partial-order reduction and template-symmetry
    /// reduction enabled).
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        ModelChecker {
            net,
            reduce: true,
            config: ExploreConfig::default(),
        }
    }

    /// Disables active-clock reduction, exploring the network at its
    /// declared DBM dimension. Verdicts are identical either way; this
    /// knob exists for benchmarking and differential testing.
    #[must_use]
    pub fn without_reduction(mut self) -> Self {
        self.reduce = false;
        self
    }

    /// Sets the state-space reduction knobs (partial-order and symmetry
    /// reduction). Both are on by default and conservative: each
    /// switches itself off on any model/property where its soundness
    /// conditions are not met, so verdicts are identical at any setting.
    #[must_use]
    pub fn with_config(mut self, config: ExploreConfig) -> Self {
        self.config = config;
        self
    }

    /// The configured reduction knobs.
    #[must_use]
    pub fn config(&self) -> ExploreConfig {
        self.config.clone()
    }

    /// The network under analysis.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// `E<> goal`: is some state satisfying `goal` reachable?
    ///
    /// # Panics
    ///
    /// Panics on a state-store failure, which is only possible when
    /// [`ExploreConfig::with_spill`] is set — use
    /// [`ModelChecker::try_reachable_governed`] then.
    #[must_use]
    pub fn reachable(&mut self, goal: &StateFormula) -> ReachResult {
        self.try_reachable_governed(goal, &Budget::unlimited())
            .expect("state store failed; use try_reachable_governed with ExploreConfig::with_spill")
            .into_value()
    }

    /// `E<> goal` under a resource [`Budget`].
    ///
    /// With [`Budget::unlimited`] this is exactly [`ModelChecker::reachable`].
    /// On exhaustion the partial result has `reachable == false`, to be
    /// read as "no witness found within the explored portion" — the
    /// `Exhausted` wrapper marks it non-definitive. A witness found in the
    /// same step the budget trips is still returned as `Complete`, because
    /// reachability witnesses are sound regardless of coverage.
    ///
    /// Without [`ExploreConfig::with_spill`] this never fails; with it,
    /// any I/O failure or torn/corrupt spill record aborts the query with
    /// a [`SpillError`] — never a wrong verdict.
    ///
    /// # Errors
    ///
    /// [`SpillError`] when the disk-backed state store fails.
    pub fn try_reachable_governed(
        &mut self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Result<Outcome<ReachResult>, SpillError> {
        let gov = &budget.governor();
        // Query-directed slicing, then active-clock reduction with the
        // query's atoms kept alive: verdicts are unchanged while every
        // DBM of the exploration shrinks.
        let mut prep = QueryNetwork::prepare(
            self.net,
            std::slice::from_ref(goal),
            self.config.slice,
            self.reduce,
        );
        let lu = self.config.lu.then(|| prep.lu());
        let (net, goal) = (prep.network(), prep.query(0));

        // State-space reductions, each conservative by construction: the
        // analyses return nothing whenever their soundness conditions
        // are not met by this model + property.
        let por = self
            .config
            .por
            .then(|| Por::analyze(net, &[goal]))
            .filter(Por::is_active);
        let sym = if self.config.symmetry {
            Symmetry::detect(net, &[goal])
        } else {
            None
        };

        // Per-location LU extrapolation: strictly coarser than Extra_M
        // (so strictly fewer symbolic states), sound for reachability
        // with the property atoms protected at every location. Witness
        // traces are renormalized through a classic-extrapolation
        // explorer afterwards, so the trace contract (every step is a
        // literal state of the plain zone graph) survives the coarser
        // quotient.
        let replay = self
            .config
            .lu
            .then(|| Explorer::with_extra_constants(net, &goal.clock_atoms()));
        let mut explorer = Explorer::with_extra_constants(net, &goal.clock_atoms());
        if let Some(lu) = lu {
            explorer = explorer.with_lu(lu);
        }
        let mut store = StateStore::create(self.config.spill.as_ref())?;
        let run = explore(
            net,
            &explorer,
            |state: &SymState| goal.holds_somewhere(net, state),
            por.as_ref(),
            sym.as_ref(),
            &mut store,
            gov,
        )?;
        let trace = run
            .hit
            .map(|id| build_trace(&mut store, id, net, sym.as_ref()))
            .transpose()?
            .map(|t| renormalize_trace(replay.as_ref(), t));
        let report = prep.metrics().stamp(exploration_report(
            gov,
            &run.stats,
            run.peak,
            net.dim(),
            self.net.dim(),
            store.metrics(),
        ));
        let res = ReachResult {
            reachable: trace.is_some(),
            trace,
            stats: run.stats,
        };
        Ok(if res.reachable {
            gov.finish_complete(res, report)
        } else {
            gov.finish(res, report)
        })
    }

    /// `A[] safe` under a resource [`Budget`]: does `safe` hold in every
    /// reachable state (and every valuation of its zone)? Equivalent to
    /// `not E<> not safe`.
    ///
    /// A violation is definitive (`Complete`) even if found on the last
    /// budgeted state. On exhaustion the partial verdict is
    /// `Satisfied`, to be read as "no violation found within the explored
    /// portion" — never as a proof. Spill failures surface as in
    /// [`ModelChecker::try_reachable_governed`].
    ///
    /// # Errors
    ///
    /// [`SpillError`] when the disk-backed state store fails.
    pub fn try_always_governed(
        &mut self,
        safe: &StateFormula,
        budget: &Budget,
    ) -> Result<Outcome<(Verdict, Stats)>, SpillError> {
        let out = self.try_reachable_governed(&StateFormula::not(safe.clone()), budget)?;
        Ok(out.map(|res| match res.trace {
            Some(trace) => (Verdict::Violated(trace), res.stats),
            None => (Verdict::Satisfied, res.stats),
        }))
    }

    /// `A[] not deadlock`: no reachable state contains a valuation from
    /// which no action transition is possible now or after delay.
    ///
    /// # Panics
    ///
    /// Panics on a state-store failure, which is only possible when
    /// [`ExploreConfig::with_spill`] is set — use
    /// [`ModelChecker::try_deadlock_free_governed`] then.
    #[must_use]
    pub fn deadlock_free(&mut self) -> (Verdict, Stats) {
        self.try_deadlock_free_governed(&Budget::unlimited())
            .expect(
                "state store failed; use try_deadlock_free_governed with ExploreConfig::with_spill",
            )
            .into_value()
    }

    /// `A[] not deadlock` under a resource [`Budget`]. Same partial
    /// semantics as [`ModelChecker::try_always_governed`]: a deadlock
    /// found is definitive, exhaustion means "none found so far". Spill
    /// failures surface as in [`ModelChecker::try_reachable_governed`].
    ///
    /// # Errors
    ///
    /// [`SpillError`] when the disk-backed state store fails.
    pub fn try_deadlock_free_governed(
        &mut self,
        budget: &Budget,
    ) -> Result<Outcome<(Verdict, Stats)>, SpillError> {
        let gov = &budget.governor();
        // The deadlock condition only reads guards and invariants, so
        // active-clock reduction preserves it exactly.
        let prep = QueryNetwork::prepare(self.net, &[], false, self.reduce);
        let net = prep.network();
        // The deadlock predicate is invariant under template automorphisms
        // (permuting identical components maps enabled transitions to
        // enabled transitions), so symmetry reduction is sound here.
        // Partial-order reduction is not: ample automata are exactly the
        // ones that keep firing, and skipping interleavings could hide a
        // deadlock of the *other* components. Keep it off.
        let sym = if self.config.symmetry {
            Symmetry::detect(net, &[])
        } else {
            None
        };
        let explorer = Explorer::new(net);
        let mut store = StateStore::create(self.config.spill.as_ref())?;
        let run = explore(
            net,
            &explorer,
            |state: &SymState| !explorer.deadlock_federation(state).is_empty(),
            None,
            sym.as_ref(),
            &mut store,
            gov,
        )?;
        let verdict = match run.hit {
            Some(id) => Verdict::Violated(build_trace(&mut store, id, net, sym.as_ref())?),
            None => Verdict::Satisfied,
        };
        let report = exploration_report(
            gov,
            &run.stats,
            run.peak,
            net.dim(),
            self.net.dim(),
            store.metrics(),
        );
        Ok(if verdict.holds() {
            gov.finish((verdict, run.stats), report)
        } else {
            gov.finish_complete((verdict, run.stats), report)
        })
    }

    /// Enumerates the reachable symbolic states (inclusion-reduced) under
    /// a resource [`Budget`].
    /// On exhaustion the partial value is the (inclusion-reduced) set of
    /// states collected so far — a sound under-approximation of the
    /// reachable set.
    pub fn reachable_states_governed(
        &mut self,
        budget: &Budget,
    ) -> Outcome<(Vec<SymState>, Stats)> {
        let gov = budget.governor();
        let explorer = Explorer::new(self.net);
        let (nodes, run) = explore_all(self.net, &explorer, &gov);
        let states = nodes.into_iter().map(|(state, _)| state).collect();
        let report = exploration_report(
            &gov,
            &run.stats,
            run.peak,
            self.net.dim(),
            self.net.dim(),
            SpillMetrics::default(),
        );
        gov.finish((states, run.stats), report)
    }
}

/// Replays a witness's action sequence through a classic-extrapolation
/// explorer. LU extrapolation stores coarser zones than the plain zone
/// graph, but the trace contract is that every step is literally a
/// state of that graph (independent replayers walk [`Explorer`]
/// successors). Soundness of the ⌈LU⌉ quotient guarantees the action
/// sequence is also a path of the classic graph; should it not be (a
/// bug), the stored trace is returned unchanged so the downstream
/// validators flag it instead of this pass masking it.
fn renormalize_trace(replay: Option<&Explorer>, trace: Trace) -> Trace {
    let Some(explorer) = replay else {
        return trace;
    };
    if trace.steps.is_empty() || trace.steps[0].action.is_some() {
        return trace;
    }
    let mut state = explorer.initial_state();
    let mut steps = vec![TraceStep {
        action: None,
        state: state.clone(),
    }];
    for step in &trace.steps[1..] {
        let Some(action) = &step.action else {
            return trace;
        };
        let Some((_, succ)) = explorer
            .successors(&state)
            .into_iter()
            .find(|(a, _)| a == action)
        else {
            return trace;
        };
        state = succ;
        steps.push(TraceStep {
            action: Some(action.clone()),
            state: state.clone(),
        });
    }
    Trace { steps }
}

/// Reconstructs the witness trace from the exploration store, faulting
/// spilled states back from disk as needed. When symmetry reduction
/// canonicalized states along the way, the stored chain mixes orbit
/// representatives from different permutations; the realization pass
/// maps every step back into one concrete execution of the original
/// network.
fn build_trace(
    store: &mut StateStore<SymState, NodeMeta>,
    mut idx: usize,
    net: &Network,
    sym: Option<&Symmetry>,
) -> Result<Trace, SpillError> {
    let mut rev = Vec::new();
    loop {
        let state = store.load(idx)?;
        let (parent, perm) = store.meta(idx).clone();
        match parent {
            Some((p, action)) => {
                rev.push((state, Some(action), perm));
                idx = p;
            }
            None => {
                rev.push((state, None, perm));
                break;
            }
        }
    }
    rev.reverse();
    let steps = match sym {
        Some(s) => crate::symmetry::realize(s, net, &rev),
        None => rev
            .into_iter()
            .map(|(state, action, _)| (state, action))
            .collect(),
    };
    Ok(Trace {
        steps: steps
            .into_iter()
            .map(|(state, action)| TraceStep { action, state })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockAtom, NetworkBuilder};

    #[test]
    fn simple_reachability_with_trace() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        let l2 = a.location("L2");
        a.edge(l0, l1).done();
        a.edge(l1, l2).done();
        let aid = a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let res = mc.reachable(&StateFormula::at(aid, l2));
        assert!(res.reachable);
        let trace = res.trace.unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace.steps[0].action.is_none());
    }

    #[test]
    fn timed_reachability_respects_guards() {
        // L1 requires x >= 5 but the invariant of L0 is x <= 3: unreachable.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
        let l1 = a.location("L1");
        a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 5)).done();
        let aid = a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        assert!(!mc.reachable(&StateFormula::at(aid, l1)).reachable);
    }

    #[test]
    fn safety_with_clock_bound() {
        // x is reset on the only cycle, so x <= 10 always holds in L1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 10)]);
        let l1 = a.location_with_invariant("L1", vec![ClockAtom::le(x, 4)]);
        a.edge(l0, l1).reset(x, 0).done();
        a.edge(l1, l0).reset(x, 0).done();
        let aid = a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let safe = StateFormula::or(vec![
            StateFormula::not(StateFormula::at(aid, l1)),
            StateFormula::clock(ClockAtom::le(x, 4)),
        ]);
        let (verdict, _) = mc
            .try_always_governed(&safe, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        assert!(verdict.holds());
        // But x <= 3 in L1 is violated.
        let tight = StateFormula::or(vec![
            StateFormula::not(StateFormula::at(aid, l1)),
            StateFormula::clock(ClockAtom::le(x, 3)),
        ]);
        let (verdict, _) = mc
            .try_always_governed(&tight, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        assert!(!verdict.holds());
    }

    #[test]
    fn data_and_clock_predicates_on_the_lamp() {
        // Off -> On sets level := 2 and resets x; On (x <= 10) -> Off
        // once x >= 1 sets level := 0.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let level = b.decls_mut().int("level", 0, 3);
        let mut a = b.automaton("Lamp");
        let off = a.location("Off");
        let on = a.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
        a.edge(off, on)
            .reset(x, 0)
            .update(tempo_expr::Stmt::assign(level, tempo_expr::Expr::konst(2)))
            .done();
        a.edge(on, off)
            .guard_clock(ClockAtom::ge(x, 1))
            .update(tempo_expr::Stmt::assign(level, tempo_expr::Expr::konst(0)))
            .done();
        let lamp = a.done();
        let net = b.build();
        let level_is =
            |k| StateFormula::data(tempo_expr::Expr::var(level).eq(tempo_expr::Expr::konst(k)));
        let (is_on, is_off) = (StateFormula::at(lamp, on), StateFormula::at(lamp, off));
        let mut mc = ModelChecker::new(&net);
        let reachable = |mc: &mut ModelChecker, goal: Vec<StateFormula>| {
            mc.reachable(&StateFormula::and(goal)).reachable
        };
        assert!(reachable(&mut mc, vec![is_on.clone(), level_is(2)]));
        assert!(!reachable(&mut mc, vec![is_off.clone(), level_is(3)]));
        let mut always = |safe: StateFormula| {
            let out = mc.try_always_governed(&safe, &Budget::unlimited());
            out.expect("in-memory state store").into_value().0.holds()
        };
        let on_within = |k| {
            StateFormula::or(vec![
                StateFormula::not(is_on.clone()),
                StateFormula::clock(ClockAtom::le(x, k)),
            ])
        };
        assert!(always(StateFormula::data(
            tempo_expr::Expr::var(level).le(tempo_expr::Expr::konst(2))
        )));
        assert!(always(StateFormula::not(StateFormula::and(vec![
            is_on.clone(),
            level_is(0)
        ]))));
        assert!(!always(is_off));
        assert!(always(on_within(10)), "the invariant bounds x in On");
        assert!(!always(on_within(9)));
    }

    #[test]
    fn deadlock_detection() {
        // Sink location with no edges: deadlock.
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let sink = a.location("Sink");
        a.edge(l0, sink).done();
        a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let (verdict, _) = mc.deadlock_free();
        assert!(!verdict.holds());
        // Self-loop: deadlock-free.
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let (verdict, _) = mc.deadlock_free();
        assert!(verdict.holds());
    }

    #[test]
    fn reachable_states_enumeration() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).done();
        a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let (states, stats) = mc
            .reachable_states_governed(&Budget::unlimited())
            .into_value();
        assert_eq!(states.len(), 2);
        assert!(stats.explored >= 2);
    }

    #[test]
    fn trace_rendering_uses_location_names() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("Start");
        let l1 = a.location("Goal");
        a.edge(l0, l1).done();
        let aid = a.done();
        let net = b.build();
        let mut mc = ModelChecker::new(&net);
        let res = mc.reachable(&StateFormula::at(aid, l1));
        let rendered = res.trace.unwrap().render(&net);
        assert!(rendered.contains("(Start)"));
        assert!(rendered.contains("(Goal)"));
        assert!(rendered.contains("-->"));
    }

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Satisfied.holds());
        assert!(!Verdict::Violated(Trace::default()).holds());
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
