//! One query's network, prepared once ahead of whichever engine answers
//! it: sliced ([`crate::slice()`]) when the engine asks, then reduced to
//! the clocks the model and the query read ([`Network::reduced_with`]),
//! with the query mapped into the reduced clock space. Which passes run
//! is each engine's switch; their order, their counters and the mapping
//! rule are decided here alone.

use crate::flow::{FlowMetrics, NetworkLu};
use crate::formula::StateFormula;
use crate::model::{ClockAtom, Network};
use crate::reduce::ClockReduction;

/// The network one query runs on, after the passes it asked for.
#[derive(Debug)]
pub struct QueryNetwork {
    reduction: ClockReduction,
    queries: Vec<StateFormula>,
    metrics: FlowMetrics,
}

impl QueryNetwork {
    /// Prepares `model` for a query reading `queries`. When `slice`, the
    /// edges that provably never fire are disabled first, so that the
    /// reduction also drops the clocks only they read; when `reduce`,
    /// every clock that no guard, invariant, non-constant reset or query
    /// atom reads is removed, and `sliced_clocks` counts the removed
    /// clocks the unsliced model still reads. Without `reduce` every
    /// clock is kept.
    #[must_use]
    pub fn prepare(model: &Network, queries: &[StateFormula], slice: bool, reduce: bool) -> Self {
        let mut metrics = FlowMetrics::default();
        let sliced = slice.then(|| {
            let s = crate::slice::slice(model);
            metrics.sliced_edges = s.disabled_edges;
            metrics.vars_narrowed = s.vars_narrowed;
            metrics.sliced_vars = s.dead_vars.len() as u64;
            s.net
        });
        let base = sliced.as_ref().unwrap_or(model);
        let atoms: Vec<ClockAtom> = queries.iter().flat_map(StateFormula::clock_atoms).collect();
        let read = if reduce {
            base.read_clocks(&atoms)
        } else {
            vec![true; base.dim()]
        };
        if metrics.sliced_edges > 0 {
            let unsliced = model.read_clocks(&atoms);
            metrics.sliced_clocks = (unsliced.iter().zip(&read))
                .filter(|&(&before, &after)| before && !after)
                .count() as u64;
        }
        let reduction = base.reduced_to(&read);
        // The reduction keeps every clock the queries read, so mapping
        // them cannot fail.
        let queries = queries
            .iter()
            .map(|q| reduction.map_formula(q).expect("query clocks are kept"))
            .collect();
        QueryNetwork {
            reduction,
            queries,
            metrics,
        }
    }

    /// The network to explore.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.reduction.network()
    }

    /// Query formula `i`, in [`QueryNetwork::network`]'s clock space.
    #[must_use]
    pub fn query(&self, i: usize) -> &StateFormula {
        &self.queries[i]
    }

    /// The clock atoms of every query formula, in that clock space.
    #[must_use]
    pub fn atoms(&self) -> Vec<ClockAtom> {
        self.queries
            .iter()
            .flat_map(StateFormula::clock_atoms)
            .collect()
    }

    /// The active-clock reduction: the identity unless the query asked
    /// for one.
    #[must_use]
    pub fn reduction(&self) -> &ClockReduction {
        &self.reduction
    }

    /// [`QueryNetwork::reduction`], by value.
    #[must_use]
    pub fn into_reduction(self) -> ClockReduction {
        self.reduction
    }

    /// The per-location LU table of [`QueryNetwork::network`] with the
    /// query atoms protected; records `lu_tightened`.
    pub fn lu(&mut self) -> NetworkLu {
        let net = self.network();
        let lu = NetworkLu::analyze(net, &self.atoms());
        self.metrics.lu_tightened = lu.tightened(&net.max_constants());
        lu
    }

    /// What the passes removed or tightened.
    #[must_use]
    pub fn metrics(&self) -> FlowMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use tempo_expr::Expr;

    /// `x` is read by a live guard and the query; `z` only by an edge
    /// whose data guard `v >= 9` is false for `v` in `[0, 5]`.
    fn net() -> (Network, StateFormula) {
        let mut b = NetworkBuilder::new();
        let z = b.clock("z");
        let x = b.clock("x");
        let v = b.decls_mut().int("v", 0, 5);
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).guard_clock(ClockAtom::ge(x, 1)).done();
        a.edge(l0, l0)
            .guard_data(Expr::var(v).ge(Expr::konst(9)))
            .guard_clock(ClockAtom::ge(z, 1))
            .reset(z, 0)
            .done();
        a.done();
        (b.build(), StateFormula::clock(ClockAtom::le(x, 4)))
    }

    #[test]
    fn slicing_runs_first_and_frees_the_clocks_only_sliced_edges_read() {
        let (net, query) = net();
        let queries = [query];
        let prep = QueryNetwork::prepare(&net, &queries, true, true);
        let m = prep.metrics();
        assert_eq!((m.sliced_edges, m.sliced_clocks), (1, 1));
        assert_eq!(prep.network().dim(), 2);
        let x = prep.network().clock_by_name("x").unwrap();
        assert_eq!(x.index(), 1, "x moved down into z's place");
        assert_eq!(prep.atoms(), [ClockAtom::le(x, 4)], "the query is mapped");

        let unsliced = QueryNetwork::prepare(&net, &queries, false, true);
        assert_eq!(unsliced.metrics().sliced_clocks, 0);
        assert_eq!(unsliced.network().dim(), 3);

        let unreduced = QueryNetwork::prepare(&net, &queries, true, false);
        assert_eq!(unreduced.metrics().sliced_clocks, 0, "nothing was reduced");
        assert_eq!(unreduced.network().dim(), 3);
        assert!(!unreduced.reduction().is_reduced());
    }
}
