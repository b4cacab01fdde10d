//! Network-level adapters for the `tempo-flow` abstract-interpretation
//! passes.
//!
//! Three analyses are lifted from the generic solvers in `tempo-flow`
//! to [`Network`]s:
//!
//! * [`NetworkLu`] — per-location lower/upper clock-bound tables, one
//!   [`LuBounds`] per component automaton. The per-state bounds handed
//!   to `Dbm::extrapolate_lu` are the pointwise maxima over the
//!   automata, which is sound because each component solution is
//!   non-increasing along its own reset-free edges and unchanged for
//!   non-participants of a product transition.
//! * [`network_ranges`] — a flow-insensitive interval fixpoint over the
//!   shared variable store, treating every edge as one guarded command.
//! * [`dead_variables`] — the complement of the cone-of-influence
//!   closure seeded by every observable expression: variables that are
//!   written but never read on any path to a guard, synchronization
//!   index or clock reset.

use std::collections::BTreeSet;

use tempo_dbm::Clock;
use tempo_expr::{expr_vars, VarId};
use tempo_flow::{
    relevant_vars, stmt_assignments, Command, LuAutomaton, LuBounds, LuEdge, RangeAnalysis,
    NO_BOUND,
};

use crate::model::{ClockAtom, LocationId, Network};
use tempo_obs::RunReport;

/// The run-report metrics produced by the dataflow passes for one
/// search: how much the static analyses actually removed or tightened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowMetrics {
    /// `(location, clock)` pairs with an LU bound strictly tighter than
    /// the clock's global maximal constant.
    pub lu_tightened: u64,
    /// Variables whose range fixpoint is strictly inside their declared
    /// range.
    pub vars_narrowed: u64,
    /// Clocks removed by active-clock reduction *beyond* what it removes
    /// without slicing.
    pub sliced_clocks: u64,
    /// Write-only variables outside the cone of influence of every
    /// observable expression.
    pub sliced_vars: u64,
    /// Edges disabled by slicing.
    pub sliced_edges: u64,
}

impl FlowMetrics {
    /// Stamps the metrics into a run report.
    #[must_use]
    pub fn stamp(&self, mut report: RunReport) -> RunReport {
        report.lu_tightened = self.lu_tightened;
        report.vars_narrowed = self.vars_narrowed;
        report.sliced_clocks = self.sliced_clocks;
        report.sliced_vars = self.sliced_vars;
        report.sliced_edges = self.sliced_edges;
        report
    }
}

/// Splits one clock constraint into LU solver atoms, for networks and
/// PTAs alike. Diagonal constraints fold `|c|` into both polarities of
/// both clocks, matching the conservative treatment of
/// `Network::max_constants`; an unbounded atom (`≺ ∞`) constrains
/// nothing and adds no bound.
pub fn atom_bounds(atom: &ClockAtom, lower: &mut Vec<(usize, i64)>, upper: &mut Vec<(usize, i64)>) {
    if atom.bound.is_inf() {
        return;
    }
    let c = atom.bound.constant();
    match (atom.i == Clock::REF, atom.j == Clock::REF) {
        (false, true) => upper.push((atom.i.index(), c)),
        (true, false) => lower.push((atom.j.index(), -c)),
        (false, false) => {
            let m = c.saturating_abs();
            for x in [atom.i.index(), atom.j.index()] {
                lower.push((x, m));
                upper.push((x, m));
            }
        }
        (true, true) => {}
    }
}

/// Per-location LU clock bounds for a whole network: one solved
/// [`LuBounds`] table per automaton, combined per state by pointwise
/// maximum.
#[derive(Clone, Debug)]
pub struct NetworkLu {
    per_automaton: Vec<LuBounds>,
    dim: usize,
}

impl NetworkLu {
    /// Solves the LU fixpoint of every automaton of `net` and folds the
    /// `protect` atoms (property bounds, which are observable in every
    /// location) into the tables.
    #[must_use]
    pub fn analyze(net: &Network, protect: &[ClockAtom]) -> NetworkLu {
        let dim = net.dim();
        let mut per_automaton: Vec<LuBounds> = net
            .automata()
            .iter()
            .map(|a| {
                let lu = LuAutomaton {
                    locations: a.locations.len(),
                    edges: a
                        .edges
                        .iter()
                        .map(|e| {
                            let mut lower = Vec::new();
                            let mut upper = Vec::new();
                            for atom in &e.guard_clocks {
                                atom_bounds(atom, &mut lower, &mut upper);
                            }
                            LuEdge {
                                from: e.from.index(),
                                to: e.to.index(),
                                resets: e.resets.iter().map(|(x, _)| x.index()).collect(),
                                lower,
                                upper,
                            }
                        })
                        .collect(),
                    invariants: a
                        .locations
                        .iter()
                        .map(|l| {
                            let mut lower = Vec::new();
                            let mut upper = Vec::new();
                            for atom in &l.invariant {
                                atom_bounds(atom, &mut lower, &mut upper);
                            }
                            (lower, upper)
                        })
                        .collect(),
                };
                LuBounds::solve(&lu, dim)
            })
            .collect();
        // The combined per-state bound is a maximum over components, so
        // folding the property atoms into one component protects them
        // in every state.
        if let Some(first) = per_automaton.first_mut() {
            let mut lower = Vec::new();
            let mut upper = Vec::new();
            for atom in protect {
                atom_bounds(atom, &mut lower, &mut upper);
            }
            for (x, c) in lower.into_iter().chain(upper) {
                first.protect(x, c);
            }
        }
        NetworkLu { per_automaton, dim }
    }

    /// The DBM dimension the tables were solved for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Writes the LU vectors of the discrete configuration `locs` into
    /// `lower`/`upper` (resized to the DBM dimension): pointwise maxima
    /// of the component tables. The reference entry is pinned to `0`,
    /// every other unobserved clock to [`NO_BOUND`] (treated as −∞ by
    /// `Dbm::extrapolate_lu`).
    pub fn state_bounds(&self, locs: &[LocationId], lower: &mut Vec<i64>, upper: &mut Vec<i64>) {
        lower.clear();
        lower.resize(self.dim, NO_BOUND);
        upper.clear();
        upper.resize(self.dim, NO_BOUND);
        lower[0] = 0;
        upper[0] = 0;
        for (b, &l) in self.per_automaton.iter().zip(locs) {
            let lo = &b.lower[l.index()];
            let up = &b.upper[l.index()];
            for x in 1..self.dim {
                if lo[x] > lower[x] {
                    lower[x] = lo[x];
                }
                if up[x] > upper[x] {
                    upper[x] = up[x];
                }
            }
        }
    }

    /// The digital tick clamp of clock `x` in the configuration `locs`:
    /// one above the largest lower or upper bound any automaton still
    /// observes there (`1` when none does).
    pub(crate) fn tick_clamp(&self, locs: &[LocationId], x: usize) -> i64 {
        self.per_automaton
            .iter()
            .zip(locs)
            .map(|(b, l)| b.lower[l.index()][x].max(b.upper[l.index()][x]))
            .fold(NO_BOUND, i64::max)
            .max(0)
            + 1
    }

    /// How many `(location, clock)` pairs have an LU bound strictly
    /// tighter than the clock's global maximal constant — the
    /// `lu_tightened` run-report metric.
    #[must_use]
    pub fn tightened(&self, max_consts: &[i64]) -> u64 {
        let mut n = 0;
        for b in &self.per_automaton {
            for l in 0..b.lower.len() {
                for (x, &m) in max_consts.iter().enumerate().take(self.dim).skip(1) {
                    if b.lower[l][x] < m || b.upper[l][x] < m {
                        n += 1;
                    }
                }
            }
        }
        n
    }
}

/// Every edge of the network as one guarded command of the global range
/// fixpoint.
#[must_use]
pub fn network_commands(net: &Network) -> Vec<Command> {
    let mut out = Vec::new();
    for a in net.automata() {
        for e in &a.edges {
            out.push(Command {
                guard: e.guard_data.clone(),
                update: e.update.clone(),
                selects: e.selects.clone(),
            });
        }
    }
    out
}

/// Runs the flow-insensitive interval range fixpoint over all edges of
/// `net` from its initial store.
#[must_use]
pub fn network_ranges(net: &Network) -> RangeAnalysis {
    RangeAnalysis::run(net.decls(), &network_commands(net))
}

/// Variables read by any observable expression of the network: data
/// guards, synchronization index expressions and clock-reset values.
#[must_use]
pub fn observable_vars(net: &Network) -> BTreeSet<VarId> {
    let mut seeds = BTreeSet::new();
    for a in net.automata() {
        for e in &a.edges {
            expr_vars(&e.guard_data, &mut seeds);
            if let Some(sync) = &e.sync {
                expr_vars(&sync.index, &mut seeds);
            }
            for (_, value) in &e.resets {
                expr_vars(value, &mut seeds);
            }
        }
    }
    seeds
}

/// Variables that are written somewhere but lie outside the
/// cone-of-influence closure of the observable expressions: no value
/// they ever take can reach a guard, synchronization index or clock
/// reset. Feeds the `TA008` lint and the digital engines' variable
/// freezing.
#[must_use]
pub fn dead_variables(net: &Network) -> Vec<VarId> {
    let mut assigns = Vec::new();
    for a in net.automata() {
        for e in &a.edges {
            stmt_assignments(&e.update, &mut assigns);
        }
    }
    let relevant = relevant_vars(observable_vars(net), &assigns);
    let written: BTreeSet<VarId> = assigns.iter().map(|a| a.target).collect();
    written
        .into_iter()
        .filter(|v| !relevant.contains(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AutomatonId, NetworkBuilder};
    use crate::StateFormula;
    use tempo_dbm::Bound;
    use tempo_expr::{Expr, Stmt};

    /// L0 --(x ≥ 4, reset x)--> L1 --(x ≤ 2)--> L2, plus a second clock
    /// `y` only compared in L2's invariant.
    fn net() -> (Network, Clock, Clock) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let y = b.clock("y");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        let l2 = a.location_with_invariant("L2", vec![ClockAtom::le(y, 9)]);
        a.edge(l0, l1)
            .guard_clock(ClockAtom::ge(x, 4))
            .reset(x, 0)
            .done();
        a.edge(l1, l2).guard_clock(ClockAtom::le(x, 2)).done();
        a.done();
        (b.build(), x, y)
    }

    #[test]
    fn per_location_bounds_split_polarity_and_stop_at_resets() {
        let (net, x, y) = net();
        let lu = NetworkLu::analyze(&net, &[]);
        let mut lo = Vec::new();
        let mut up = Vec::new();
        // In L0 only the lower guard x ≥ 4 is observable: the upper
        // bound 2 sits behind the reset.
        lu.state_bounds(&[LocationId(0)], &mut lo, &mut up);
        assert_eq!(lo[x.index()], 4);
        assert_eq!(up[x.index()], NO_BOUND);
        // y's only observation is L2's invariant, visible from L0 along
        // reset-free edges.
        assert_eq!(up[y.index()], 9);
        // In L2 nothing about x remains observable.
        lu.state_bounds(&[LocationId(2)], &mut lo, &mut up);
        assert_eq!(lo[x.index()], NO_BOUND);
        assert_eq!(up[x.index()], NO_BOUND);
        assert!(lu.tightened(&net.max_constants()) > 0);
    }

    #[test]
    fn protected_atoms_are_observable_everywhere() {
        let (net, x, _) = net();
        let goal = StateFormula::clock(ClockAtom::ge(x, 7));
        let lu = NetworkLu::analyze(&net, &goal.clock_atoms());
        let mut lo = Vec::new();
        let mut up = Vec::new();
        lu.state_bounds(&[LocationId(2)], &mut lo, &mut up);
        assert_eq!(lo[x.index()], 7);
        assert_eq!(up[x.index()], 7);
    }

    #[test]
    fn unbounded_guard_atoms_add_no_bound() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1)
            .guard_clock(ClockAtom {
                i: x,
                j: Clock::REF,
                bound: Bound::INF,
            })
            .done();
        a.done();
        let net = b.build();
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        atom_bounds(
            &net.automata()[0].edges[0].guard_clocks[0],
            &mut lower,
            &mut upper,
        );
        assert!(lower.is_empty() && upper.is_empty());
        let goal = StateFormula::at(AutomatonId(0), l1);
        assert!(crate::ModelChecker::new(&net).reachable(&goal).reachable);
    }

    #[test]
    fn dead_variables_are_write_only_outside_the_cone() {
        let mut b = NetworkBuilder::new();
        let obs = b.decls_mut().int("obs", 0, 9);
        let ghost = b.decls_mut().int("ghost", 0, 100);
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        // `obs` guards an edge; `ghost` is only ever written.
        a.edge(l0, l1)
            .guard_data(Expr::var(obs).lt(Expr::konst(5)))
            .update(Stmt::assign(ghost, Expr::var(obs) + Expr::konst(1)))
            .done();
        a.done();
        let net = b.build();
        assert_eq!(dead_variables(&net), vec![ghost]);
        assert!(observable_vars(&net).contains(&obs));
    }
}
