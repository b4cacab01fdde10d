//! # tempo-cora — minimum-cost reachability for priced timed automata
//!
//! The UPPAAL-CORA analogue of the workspace (Bozga et al., DATE 2012,
//! §II): timed automata extended with cost variables — a cost *rate* per
//! location (paid while delaying) and a cost per edge (paid when firing) —
//! and a solver for *minimum-cost reachability*, the basis of
//! optimization problems such as worst-case execution-time analysis.
//!
//! The paper's tool uses priced zones; this reproduction solves the same
//! problem with Dijkstra's algorithm over the digital-clocks semantics
//! ([`tempo_ta::DigitalExplorer`]), which is exact for closed models with
//! integer rates (see DESIGN.md for the substitution argument).
//!
//! ## Example
//!
//! ```
//! use tempo_ta::{NetworkBuilder, ClockAtom, StateFormula};
//! use tempo_cora::PricedNetwork;
//! use tempo_obs::Budget;
//!
//! // Stay in Wait (rate 2) until x >= 3, then pay 5 to finish.
//! let mut b = NetworkBuilder::new();
//! let x = b.clock("x");
//! let mut a = b.automaton("Job");
//! let wait = a.location("Wait");
//! let done = a.location("Done");
//! a.edge(wait, done).guard_clock(ClockAtom::ge(x, 3)).done();
//! let job = a.done();
//! let net = b.build();
//!
//! let mut priced = PricedNetwork::new(net);
//! priced.set_rate(job, wait, 2);
//! priced.set_edge_cost(job, 0, 5);
//! let out = priced.min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited());
//! let res = out.into_value().expect("reachable");
//! assert_eq!(res.cost, 2 * 3 + 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use tempo_obs::{Budget, Outcome, RunReport};
use tempo_ta::{
    AutomatonId, DigitalExplorer, DigitalMove, DigitalState, LocationId, Network, NetworkLu,
    QueryNetwork, StateFormula, StateIndex,
};

/// A timed-automata network annotated with location cost rates and edge
/// costs (a priced/weighted timed automaton, as in UPPAAL-CORA).
#[derive(Debug)]
pub struct PricedNetwork {
    net: Network,
    rates: HashMap<(AutomatonId, LocationId), i64>,
    edge_costs: HashMap<(AutomatonId, usize), i64>,
    flow: bool,
}

/// The result of a maximum-cost (WCET-style) reachability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxCost {
    /// The worst case is the given finite cost.
    Bounded(i64),
    /// A positive-cost cycle allows arbitrarily expensive runs.
    Unbounded,
}

impl MaxCost {
    /// The finite bound, if any.
    #[must_use]
    pub fn bounded(self) -> Option<i64> {
        match self {
            MaxCost::Bounded(c) => Some(c),
            MaxCost::Unbounded => None,
        }
    }
}

/// One step of an optimal priced path: a unit delay or a joint move,
/// with the exact cost paid for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostStep {
    /// The joint move fired, or `None` for one unit-delay tick.
    pub action: Option<DigitalMove>,
    /// The cost of this step: the tick cost of the pre-state for a
    /// delay, the sum of the participating edges' costs for a move.
    pub cost: i64,
}

impl CostStep {
    /// The display label: the move's, or `delay(1)` for a tick.
    #[must_use]
    pub fn label(&self) -> &str {
        self.action
            .as_ref()
            .map_or("delay(1)", |m| m.label.as_str())
    }
}

/// The result of a minimum-cost reachability query.
#[derive(Debug, Clone)]
pub struct MinCostResult {
    /// The minimum total cost of reaching the goal.
    pub cost: i64,
    /// The goal state reached at that cost.
    pub state: DigitalState,
    /// The optimal path as structured steps whose costs sum exactly to
    /// [`MinCostResult::cost`] — the raw material of a cost certificate.
    pub steps: Vec<CostStep>,
    /// Number of distinct states settled by the search.
    pub explored: usize,
}

impl MinCostResult {
    /// The action/delay labels along the optimal path (the old
    /// string-only view of [`MinCostResult::steps`]).
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.label().to_owned()).collect()
    }
}

impl PricedNetwork {
    /// Wraps a network with all rates and edge costs zero.
    #[must_use]
    pub fn new(net: Network) -> Self {
        PricedNetwork {
            net,
            rates: HashMap::new(),
            edge_costs: HashMap::new(),
            flow: true,
        }
    }

    /// Disables the dataflow passes (query-directed slicing and
    /// per-location LU tick clamps), falling back to the global maximal
    /// constants. The optimum is identical either way — this switch
    /// exists for differential testing and measurement.
    #[must_use]
    pub fn without_flow(mut self) -> Self {
        self.flow = false;
        self
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Statically checks the network before running any cost query:
    /// the lint rules of `tempo-lint`, the digital-clocks closedness
    /// requirements of the underlying explorer, and the price
    /// assignment itself (rule CORA001: no negative cost rate or edge
    /// cost — Dijkstra, the UPPAAL-CORA semantics and cost-bounded
    /// probability queries all assume cost is monotone along a run).
    /// On success returns the non-blocking findings (warnings) for
    /// display.
    ///
    /// # Errors
    ///
    /// Returns a typed [`LintError`](tempo_lint::LintError) — never
    /// panics — when the model has error-level findings (or any
    /// finding under [`LintConfig::strict`](tempo_lint::LintConfig)).
    pub fn check_first(
        &self,
        config: &tempo_lint::LintConfig,
    ) -> Result<tempo_lint::LintReport, tempo_lint::LintError> {
        let mut report = tempo_lint::check_network(&self.net);
        if let Err(e) = DigitalExplorer::try_new(&self.net) {
            let lint: tempo_lint::LintError = e.into();
            report.diagnostics.extend(lint.diagnostics);
        }
        report.diagnostics.extend(self.lint_prices());
        report.into_result(config)
    }

    /// The CORA001 pass over this price assignment: every negative
    /// location rate or edge cost is an error-level diagnostic. Named
    /// entries are reported in a deterministic order.
    #[must_use]
    pub fn lint_prices(&self) -> Vec<tempo_lint::Diagnostic> {
        let mut found: Vec<(String, String)> = Vec::new();
        for (&(a, l), &rate) in &self.rates {
            if rate < 0 {
                let automaton = &self.net.automata()[a.index()];
                found.push((
                    automaton.name.clone(),
                    format!(
                        "location `{}` has negative cost rate {rate}; \
                         cost-bounded queries assume monotone cost",
                        automaton.locations[l.index()].name
                    ),
                ));
            }
        }
        for (&(a, ei), &cost) in &self.edge_costs {
            if cost < 0 {
                found.push((
                    self.net.automata()[a.index()].name.clone(),
                    format!(
                        "edge #{ei} has negative firing cost {cost}; \
                         cost-bounded queries assume monotone cost"
                    ),
                ));
            }
        }
        found.sort();
        found
            .into_iter()
            .map(|(component, msg)| tempo_lint::Diagnostic::error("CORA001", Some(&component), msg))
            .collect()
    }

    /// Sets the cost rate of a location (cost per time unit spent
    /// there). Negative rates are accepted here but rejected by
    /// [`check_first`](Self::check_first) (rule CORA001): the engines
    /// assume monotone cost, and a lint refusal beats a panic for
    /// models built from untrusted input.
    pub fn set_rate(&mut self, a: AutomatonId, l: LocationId, rate: i64) {
        self.rates.insert((a, l), rate);
    }

    /// Sets the firing cost of edge `edge_index` of automaton `a`.
    /// Negative costs are accepted here but rejected by
    /// [`check_first`](Self::check_first) (rule CORA001).
    pub fn set_edge_cost(&mut self, a: AutomatonId, edge_index: usize, cost: i64) {
        self.edge_costs.insert((a, edge_index), cost);
    }

    /// The cost rate of a location (`0` unless set).
    #[must_use]
    pub fn rate(&self, a: AutomatonId, l: LocationId) -> i64 {
        self.rates.get(&(a, l)).copied().unwrap_or(0)
    }

    /// The firing cost of edge `edge_index` of automaton `a` (`0` unless
    /// set).
    #[must_use]
    pub fn edge_cost(&self, a: AutomatonId, edge_index: usize) -> i64 {
        self.edge_costs.get(&(a, edge_index)).copied().unwrap_or(0)
    }

    /// The cost rate of the location vector `locs`: the sum of the rates
    /// of all current locations, paid per time unit spent there.
    #[must_use]
    pub fn rate_sum(&self, locs: &[LocationId]) -> i64 {
        locs.iter()
            .enumerate()
            .map(|(ai, &l)| self.rate(AutomatonId(ai), l))
            .sum()
    }

    /// The cost of one joint move: the sum of the firing costs of its
    /// participants, given as `(automaton index, edge index, selects)`.
    #[must_use]
    pub fn move_cost(&self, participants: &[(usize, usize, Vec<i64>)]) -> i64 {
        participants
            .iter()
            .map(|&(ai, ei, _)| self.edge_cost(AutomatonId(ai), ei))
            .sum()
    }

    /// Prepares one cost query: slicing when the dataflow passes are on,
    /// and always active-clock reduction with the goal's atoms kept
    /// alive. Clocks read by no guard, invariant, or goal atom cannot
    /// influence enabledness or cost, so dropping them merges digital
    /// states that differ only in dead-clock values; costs are per
    /// location/edge (indices unchanged), so the optimum is preserved.
    ///
    /// With the dataflow passes on, the explorer also gets the
    /// per-location LU tick clamp: sound for the cost searches because
    /// clamp-merged states share their location vector (hence tick
    /// rates) and are guard-equivalent, and the cost certificate replays
    /// the recorded move list rather than comparing recorded states.
    fn prepare(&self, goal: &StateFormula) -> (QueryNetwork, Option<NetworkLu>) {
        let mut prep =
            QueryNetwork::prepare(&self.net, std::slice::from_ref(goal), self.flow, true);
        let lu = self.flow.then(|| prep.lu());
        (prep, lu)
    }

    /// Minimum-cost reachability under a resource [`Budget`]: the
    /// cheapest way to reach a state satisfying `goal`, or `None` if the
    /// goal is unreachable.
    ///
    /// Runs Dijkstra over the digital-clock graph; exact for closed
    /// models with integer costs. A goal found within the
    /// budget is definitive (`Complete` — Dijkstra settles states in cost
    /// order, so the first goal hit is optimal over the whole graph). On
    /// exhaustion the partial value is `None`: "not reached within the
    /// settled portion", never a proof of unreachability.
    pub fn min_cost_reach_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<Option<MinCostResult>> {
        let gov = budget.governor();
        let (prep, lu) = self.prepare(goal);
        let (net, goal, metrics) = (prep.network(), prep.query(0), prep.metrics());
        // The clamp keeps the goal's clock constants observable, with
        // or without the LU tables.
        let mut exp =
            DigitalExplorer::for_query(net, &prep.atoms()).unwrap_or_else(|e| panic!("{e}"));
        if let Some(lu) = lu {
            exp = exp.with_lu(lu);
        }

        // Heap entries carry their push order, which breaks cost ties:
        // of two entries at one cost, the first pushed settles first.
        // The heap orders the search, so the index's frontier goes unused.
        let mut index = StateIndex::new();
        let mut dist: Vec<Option<i64>> = Vec::new();
        let mut pred: Vec<Option<(usize, Option<DigitalMove>, i64)>> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(i64, u64, usize)>> = BinaryHeap::new();
        let mut pushes = 0u64;
        let mut peak = 0usize;
        let mut explored = 0;

        if let Some(i) = index.intern(&exp.initial_state(), &gov) {
            dist.push(Some(0));
            pred.push(None);
            heap.push(Reverse((0, pushes, i)));
            pushes += 1;
            peak = 1;
        }

        'settle: while let Some(Reverse((d, _, i))) = heap.pop() {
            if !gov.check_time() {
                break;
            }
            if dist[i] != Some(d) {
                continue; // stale heap entry
            }
            explored += 1;
            let state = index.state(i);
            if exp.satisfies(&state, goal) {
                let mut steps = Vec::new();
                let mut cur = i;
                while let Some((prev, action, cost)) = &pred[cur] {
                    steps.push(CostStep {
                        action: action.clone(),
                        cost: *cost,
                    });
                    cur = *prev;
                }
                steps.reverse();
                let counts = (explored, index.len(), peak);
                let report = metrics.stamp(self.report(&gov, counts, 0, net.dim()));
                return gov.finish_complete(
                    Some(MinCostResult {
                        cost: d,
                        state,
                        steps,
                        explored,
                    }),
                    report,
                );
            }
            // Relaxes the step to `next`; `false` when the state budget
            // refuses a new state.
            let mut relax = |next: DigitalState, cost: i64, action: Option<DigitalMove>| {
                let Some(j) = index.intern(&next, &gov) else {
                    return false;
                };
                if j == dist.len() {
                    dist.push(None);
                    pred.push(None);
                }
                let nd = d + cost;
                if dist[j].is_none_or(|old| nd < old) {
                    dist[j] = Some(nd);
                    pred[j] = Some((i, action, cost));
                    heap.push(Reverse((nd, pushes, j)));
                    pushes += 1;
                    peak = peak.max(heap.len());
                }
                true
            };
            // Tick successor.
            if let Some(next) = exp.tick(&state) {
                if !relax(next, self.rate_sum(&state.locs), None) {
                    break 'settle;
                }
            }
            // Action successors.
            for (mv, next) in exp.moves(&state) {
                let cost = self.move_cost(&mv.participants);
                if !relax(next, cost, Some(mv)) {
                    break 'settle;
                }
            }
        }
        let counts = (explored, index.len(), peak);
        gov.finish(None, metrics.stamp(self.report(&gov, counts, 0, net.dim())))
    }

    fn report(
        &self,
        gov: &tempo_obs::Governor,
        (explored, stored, peak): (usize, usize, usize),
        sweeps: u64,
        dim: usize,
    ) -> RunReport {
        RunReport {
            states_explored: explored as u64,
            states_stored: stored as u64,
            peak_waiting: peak as u64,
            sweeps,
            dbm_dim: dim as u64,
            dbm_dim_model: self.net.dim() as u64,
            wall_time: gov.elapsed(),
            ..RunReport::default()
        }
    }

    /// Maximum-cost reachability: the most expensive way to reach a
    /// state satisfying `goal`, the query behind worst-case execution
    /// time analysis (the paper's §II cites METAMOC's WCET analysis as an
    /// application of priced timed automata).
    ///
    /// Returns:
    ///
    /// * `Some(MaxCost::Bounded(c))` — the worst-case cost is `c`;
    /// * `Some(MaxCost::Unbounded)` — a positive-cost cycle can delay the
    ///   goal indefinitely (no finite WCET);
    /// * `None` — the goal is unreachable.
    ///
    /// Implemented as Bellman–Ford-style longest-path value iteration over
    /// the digital-clock graph: after `|S|` sweeps any further improvement
    /// proves a positive-cost cycle.
    ///
    /// Runs under a resource [`Budget`]. The graph build charges the state
    /// budget; each value-iteration sweep charges the iteration budget. On exhaustion the partial value is `None`:
    /// no worst-case bound was established (an intermediate longest-path
    /// value is only a lower bound on the true WCET, so reporting it as a
    /// bound would be unsound).
    pub fn max_cost_reach_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<Option<MaxCost>> {
        let gov = budget.governor();
        // Same slicing + active-clock reduction + per-location LU clamp
        // pipeline as `min_cost_reach_governed`. The clamp preserves
        // both the finite worst case (clamp-merged states are
        // cost-bisimilar) and unboundedness (a positive-cost cycle
        // exists in the clamped graph iff one exists exactly).
        let (prep, lu) = self.prepare(goal);
        let (net, goal, metrics) = (prep.network(), prep.query(0), prep.metrics());
        // The clamp keeps the goal's clock constants observable, with
        // or without the LU tables.
        let mut exp =
            DigitalExplorer::for_query(net, &prep.atoms()).unwrap_or_else(|e| panic!("{e}"));
        if let Some(lu) = lu {
            exp = exp.with_lu(lu);
        }
        // Build the reachable graph.
        let mut index = StateIndex::new();
        let mut succs: Vec<Vec<(usize, i64)>> = Vec::new();
        let mut peak = 0usize;
        let mut state = exp.initial_state();
        if index.intern(&state, &gov).is_some() {
            peak = 1;
        }
        'build: while let Some(i) = index.pop() {
            if !gov.check_time() {
                break;
            }
            index.load(i, &mut state);
            let mut edges = Vec::new();
            if let Some(next) = exp.tick(&state) {
                let Some(j) = index.intern(&next, &gov) else {
                    break 'build;
                };
                edges.push((j, self.rate_sum(&state.locs)));
            }
            for (mv, next) in exp.moves(&state) {
                let Some(j) = index.intern(&next, &gov) else {
                    break 'build;
                };
                edges.push((j, self.move_cost(&mv.participants)));
            }
            peak = peak.max(index.frontier_len());
            succs.resize_with(index.len(), Vec::new);
            succs[i] = edges;
        }
        let n = index.len();
        let report = |sweeps| metrics.stamp(self.report(&gov, (n, n, peak), sweeps, net.dim()));
        let mut sweeps = 0u64;
        if gov.is_exhausted() {
            // Incomplete graph: any fixpoint over it would be unsound.
            return gov.finish(None, report(sweeps));
        }
        // value[s]: the max cost of reaching the goal from s (the goal
        // itself may be passed through; the run stops at the *last* goal
        // visit? No — WCET asks for first arrival, so goal states have
        // value 0 and are not expanded).
        let goal_mask: Vec<bool> = (0..n)
            .map(|i| {
                index.load(i, &mut state);
                exp.satisfies(&state, goal)
            })
            .collect();
        if !goal_mask.iter().any(|&g| g) {
            // The graph is complete here, so unreachability is definitive.
            return gov.finish_complete(None, report(sweeps));
        }
        const NEG_INF: i64 = i64::MIN / 4;
        let mut value: Vec<i64> = goal_mask
            .iter()
            .map(|&g| if g { 0 } else { NEG_INF })
            .collect();
        for sweep in 0..=n {
            if !gov.charge_iteration() || !gov.check_time() {
                return gov.finish(None, report(sweeps));
            }
            sweeps += 1;
            let mut changed = false;
            for s in 0..n {
                if goal_mask[s] {
                    continue;
                }
                for &(t, c) in &succs[s] {
                    if value[t] > NEG_INF && value[t] + c > value[s] {
                        value[s] = value[t] + c;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            if sweep == n {
                return gov.finish_complete(Some(MaxCost::Unbounded), report(sweeps));
            }
        }
        let report = report(sweeps);
        if value[0] <= NEG_INF {
            // initial state cannot reach the goal
            return gov.finish_complete(None, report);
        }
        gov.finish_complete(Some(MaxCost::Bounded(value[0])), report)
    }

    /// The same network with elapsed time as its cost: every automaton
    /// is always in exactly one location, so rate 1 on the locations of
    /// one automaton makes each tick cost exactly one time unit.
    fn timed(&self) -> PricedNetwork {
        PricedNetwork {
            net: self.net.clone(),
            rates: (0..self.net.automata()[0].locations.len())
                .map(|li| ((AutomatonId(0), LocationId(li)), 1_i64))
                .collect(),
            edge_costs: HashMap::new(),
            flow: self.flow,
        }
    }

    /// Maximum time to reach `goal` (worst-case completion time; WCET when
    /// the goal is the program's final location) under a resource
    /// [`Budget`]; same partial semantics as
    /// [`max_cost_reach_governed`](Self::max_cost_reach_governed).
    pub fn max_time_reach_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<Option<MaxCost>> {
        self.timed().max_cost_reach_governed(goal, budget)
    }

    /// Minimum time to reach `goal` (cost = elapsed time, edge costs 0):
    /// the classic "fastest reachability" query used in WCET-style
    /// analyses, under a resource [`Budget`]; same partial semantics as
    /// [`min_cost_reach_governed`](Self::min_cost_reach_governed).
    pub fn min_time_reach_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<Option<i64>> {
        self.timed()
            .min_cost_reach_governed(goal, budget)
            .map(|r| r.map(|r| r.cost))
    }
}

impl tempo_obs::StableDigest for PricedNetwork {
    /// Structural fingerprint of the priced model: the underlying
    /// network plus rate and edge-cost annotations. The annotation maps
    /// fold commutatively (they are keyed sets — iteration order of the
    /// backing `HashMap` is meaningless).
    fn digest(&self, h: &mut tempo_obs::StableHasher) {
        use tempo_obs::Fingerprint;
        h.write_tag("priced-network");
        self.net.digest(h);
        h.write_unordered(
            self.rates
                .iter()
                .filter(|(_, &r)| r != 0)
                .map(|(&(a, l), &rate)| Fingerprint::of(&(a.index(), l.index(), rate))),
        );
        h.write_unordered(
            self.edge_costs
                .iter()
                .filter(|(_, &c)| c != 0)
                .map(|(&(a, e), &cost)| Fingerprint::of(&(a.index(), e, cost))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ClockAtom, NetworkBuilder};

    /// Two routes to Done: slow-but-cheap via A (rate 1, needs 10 time
    /// units), fast-but-expensive via B (rate 1, 2 time units, edge cost
    /// 20).
    fn two_routes() -> (Network, AutomatonId, LocationId) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Job");
        let start = a.location("Start");
        let via_a = a.location("ViaA");
        let via_b = a.location("ViaB");
        let done = a.location("Done");
        a.edge(start, via_a).reset(x, 0).done(); // edge 0
        a.edge(start, via_b).reset(x, 0).done(); // edge 1
        a.edge(via_a, done).guard_clock(ClockAtom::ge(x, 10)).done(); // edge 2
        a.edge(via_b, done).guard_clock(ClockAtom::ge(x, 2)).done(); // edge 3
        let job = a.done();
        (b.build(), job, done)
    }

    #[test]
    fn cheapest_route_wins() {
        let (net, job, done) = two_routes();
        let mut p = PricedNetwork::new(net);
        p.set_rate(job, LocationId(1), 1); // ViaA
        p.set_rate(job, LocationId(2), 1); // ViaB
        p.set_edge_cost(job, 3, 20); // ViaB -> Done costs 20
        let res = p
            .min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
            .into_value()
            .unwrap();
        assert_eq!(res.cost, 10, "slow route: 10 time units at rate 1");
        // Make the slow route expensive instead.
        let (net, job, done) = two_routes();
        let mut p = PricedNetwork::new(net);
        p.set_rate(job, LocationId(1), 5); // ViaA rate 5 → 50
        p.set_rate(job, LocationId(2), 1); // ViaB → 2 + 20 = 22
        p.set_edge_cost(job, 3, 20);
        let res = p
            .min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
            .into_value()
            .unwrap();
        assert_eq!(res.cost, 22);
    }

    #[test]
    fn min_time_ignores_costs() {
        let (net, job, done) = two_routes();
        let p = PricedNetwork::new(net);
        assert_eq!(
            p.min_time_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
                .into_value(),
            Some(2)
        );
    }

    #[test]
    fn unreachable_goal() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        let _ = l1;
        a.edge(l0, l0).done();
        let aid = a.done();
        let net = b.build();
        let p = PricedNetwork::new(net);
        assert!(p
            .min_cost_reach_governed(&StateFormula::at(aid, LocationId(1)), &Budget::unlimited())
            .into_value()
            .is_none());
    }

    #[test]
    fn zero_cost_paths() {
        let (net, job, done) = two_routes();
        let p = PricedNetwork::new(net);
        let res = p
            .min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
            .into_value()
            .unwrap();
        assert_eq!(res.cost, 0, "no rates or edge costs set");
        assert!(!res.steps.is_empty());
        assert!(res.steps.iter().all(|s| s.cost == 0));
    }

    #[test]
    fn wcet_bounded_by_invariants() {
        // A straight-line "program": Fetch (1..=2) → Exec (1..=3) → Done.
        // WCET = 5, BCET = 2.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Prog");
        let fetch = a.location_with_invariant("Fetch", vec![ClockAtom::le(x, 2)]);
        let exec = a.location_with_invariant("Exec", vec![ClockAtom::le(x, 3)]);
        let done = a.location("Done");
        a.edge(fetch, exec)
            .guard_clock(ClockAtom::ge(x, 1))
            .reset(x, 0)
            .done();
        a.edge(exec, done).guard_clock(ClockAtom::ge(x, 1)).done();
        let prog = a.done();
        let net = b.build();
        let p = PricedNetwork::new(net);
        let goal = StateFormula::at(prog, done);
        assert_eq!(
            p.max_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            Some(MaxCost::Bounded(5))
        );
        assert_eq!(
            p.min_time_reach_governed(&goal, &Budget::unlimited())
                .into_value(),
            Some(2)
        );
    }

    #[test]
    fn wcet_unbounded_with_idle_loop() {
        // A loop that may retry forever before finishing: no finite WCET.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Prog");
        let busy = a.location_with_invariant("Busy", vec![ClockAtom::le(x, 2)]);
        let done = a.location("Done");
        a.edge(busy, busy)
            .guard_clock(ClockAtom::ge(x, 1))
            .reset(x, 0)
            .done();
        a.edge(busy, done).guard_clock(ClockAtom::ge(x, 1)).done();
        let prog = a.done();
        let net = b.build();
        let p = PricedNetwork::new(net);
        assert_eq!(
            p.max_time_reach_governed(&StateFormula::at(prog, done), &Budget::unlimited())
                .into_value(),
            Some(MaxCost::Unbounded)
        );
    }

    #[test]
    fn max_cost_unreachable_goal() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        let aid = a.done();
        let net = b.build();
        let p = PricedNetwork::new(net);
        assert_eq!(
            p.max_cost_reach_governed(&StateFormula::at(aid, LocationId(1)), &Budget::unlimited())
                .into_value(),
            None
        );
    }

    #[test]
    fn zero_cost_cycles_stay_bounded() {
        // A zero-rate wait loop cannot inflate the (cost) WCET.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 2)]);
        let l1 = a.location("L1");
        a.edge(l0, l0)
            .guard_clock(ClockAtom::ge(x, 1))
            .reset(x, 0)
            .done();
        a.edge(l0, l1).done();
        let aid = a.done();
        let net = b.build();
        let mut p = PricedNetwork::new(net);
        // Only the final edge costs anything.
        p.set_edge_cost(aid, 1, 7);
        assert_eq!(
            p.max_cost_reach_governed(&StateFormula::at(aid, LocationId(1)), &Budget::unlimited())
                .into_value(),
            Some(MaxCost::Bounded(7))
        );
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let (net, job, done) = two_routes();
        let mut p = PricedNetwork::new(net);
        p.set_rate(job, LocationId(1), 1); // ViaA: 10 time units → 10
        p.set_rate(job, LocationId(2), 1); // ViaB: 2 time units → 2
        let res = p
            .min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
            .into_value()
            .unwrap();
        // Optimal: Start → ViaB (tau), 2 delays, ViaB → Done (tau).
        let delays = res.steps.iter().filter(|s| s.action.is_none()).count();
        assert_eq!(delays, 2);
        assert_eq!(res.cost, 2);
        assert_eq!(res.labels().len(), res.steps.len());
    }

    #[test]
    fn step_costs_sum_to_total() {
        let (net, job, done) = two_routes();
        let mut p = PricedNetwork::new(net);
        p.set_rate(job, LocationId(1), 5);
        p.set_rate(job, LocationId(2), 1);
        p.set_edge_cost(job, 3, 20);
        let res = p
            .min_cost_reach_governed(&StateFormula::at(job, done), &Budget::unlimited())
            .into_value()
            .unwrap();
        assert_eq!(res.cost, 22);
        let sum: i64 = res.steps.iter().map(|s| s.cost).sum();
        assert_eq!(sum, res.cost, "per-step costs must sum to the total");
        // Delay steps pay the tick cost of the pre-state, moves pay edge
        // costs: the expensive final edge must appear as its own step.
        assert!(res.steps.iter().any(|s| s.action.is_some() && s.cost == 20));
    }
}
