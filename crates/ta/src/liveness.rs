//! Leads-to (`φ --> ψ`) checking: UPPAAL's liveness operator.
//!
//! `φ --> ψ` holds iff every run passing through a `φ`-state eventually
//! reaches a `ψ`-state. The check searches, from every reachable
//! `φ ∧ ¬ψ` state, for a way to avoid `ψ` forever:
//!
//! * a cycle in the `ψ`-avoiding zone graph, or
//! * a `ψ`-avoiding state with no outgoing transitions.
//!
//! As in UPPAAL, paths are sequences of *action* transitions over the
//! zone graph: staying in one location forever by pure delay is not
//! counted as a counterexample (UPPAAL reports the paper's train-gate
//! liveness properties satisfied under exactly this semantics).
//!
//! Both `φ` and `ψ` must be *discrete* (no clock atoms), so satisfaction
//! is uniform over each symbolic state; this matches the location-based
//! liveness queries of the paper's train-gate example
//! (`Train(0).Appr --> Train(0).Cross`).
//!
//! The state-space reductions of the reachability engines stay **off**
//! here, deliberately: ample-set reduction with the simple subsumption-
//! based C3 proviso can still collapse `ψ`-avoiding cycles that this
//! check must observe, and symmetry folding permutes the `φ`-anchored
//! process (`Train(0)` above) out of the orbit representative. Liveness
//! keeps the unreduced zone graph as its search space.

use crate::explore::{Explorer, SymState};
use crate::formula::StateFormula;
use crate::model::{LocationId, Network};
use crate::reach::{exploration_report, explore_all, Stats, Trace, TraceStep, Verdict};
use std::collections::HashSet;
use tempo_expr::Store;
use tempo_obs::{Budget, Governor, Outcome, SpillMetrics};

/// Checks the leads-to property `phi --> psi` over the network.
///
/// # Panics
///
/// Panics if `phi` or `psi` contains clock atoms (only discrete
/// predicates are supported; see the module documentation).
#[must_use]
pub fn leads_to(net: &Network, phi: &StateFormula, psi: &StateFormula) -> (Verdict, Stats) {
    leads_to_governed(net, phi, psi, &Budget::unlimited()).into_value()
}

/// Checks `phi --> psi` under a resource [`Budget`].
///
/// A counterexample found within the budget is definitive (`Complete`).
/// On exhaustion the partial verdict is `Satisfied`, to be read as "no
/// way to avoid `psi` found within the explored portion" — never as a
/// proof.
///
/// # Panics
///
/// Panics if `phi` or `psi` contains clock atoms (only discrete
/// predicates are supported; see the module documentation).
pub fn leads_to_governed(
    net: &Network,
    phi: &StateFormula,
    psi: &StateFormula,
    budget: &Budget,
) -> Outcome<(Verdict, Stats)> {
    assert!(
        phi.is_discrete() && psi.is_discrete(),
        "leads-to requires discrete (location/data) predicates"
    );
    let gov = budget.governor();
    // Discrete predicates read no clocks, so active-clock reduction is
    // always verdict-preserving here.
    let model_dim = net.dim();
    let reduction = net.reduced();
    let net = if reduction.is_reduced() {
        reduction.network()
    } else {
        net
    };
    let explorer = Explorer::new(net);

    // Phase 1: collect all reachable states (inclusion-reduced), keeping
    // parent links for diagnostics.
    let (nodes, run) = explore_all(net, &explorer, 1, &gov);
    let mut stats = run.stats;

    // Phase 2: from every reachable φ ∧ ¬ψ state, search the ψ-avoiding
    // graph for a cycle, a time-divergent stay, or a dead end. Skipped
    // entirely once the budget tripped during phase 1.
    let mut counterexample = None;
    for (start, (s, _)) in nodes.iter().enumerate() {
        if gov.is_exhausted() {
            break;
        }
        if !phi.holds_somewhere(net, s) || psi.holds_somewhere(net, s) {
            continue;
        }
        if let Some(bad) = avoid_search(net, &explorer, s, psi, &mut stats, &gov) {
            // Build a trace: path to `start` via parent links, then the
            // offending suffix.
            let mut steps = Vec::new();
            let mut cur = Some(start);
            while let Some(i) = cur {
                let (state, (parent, _)) = &nodes[i];
                steps.push(TraceStep {
                    action: None,
                    state: state.clone(),
                });
                cur = parent.as_ref().map(|(parent, _)| *parent);
            }
            steps.reverse();
            steps.extend(bad.steps);
            counterexample = Some(Trace { steps });
            break;
        }
    }
    let report = exploration_report(
        &gov,
        &stats,
        run.peak,
        net.dim(),
        model_dim,
        SpillMetrics::default(),
    );
    match counterexample {
        Some(trace) => gov.finish_complete((Verdict::Violated(trace), stats), report),
        None => gov.finish((Verdict::Satisfied, stats), report),
    }
}

/// Key for cycle detection: discrete part plus the exact zone.
type AvoidKey = (Vec<LocationId>, Store, Vec<i64>);

fn key_of(s: &SymState) -> AvoidKey {
    (
        s.locs.clone(),
        s.store.clone(),
        s.zone.as_slice().iter().map(|b| b.raw()).collect(),
    )
}

/// DFS over the ψ-avoiding graph from `start`. Returns a witness suffix
/// if ψ can be avoided forever.
fn avoid_search(
    net: &Network,
    explorer: &Explorer<'_>,
    start: &SymState,
    psi: &StateFormula,
    stats: &mut Stats,
    gov: &Governor,
) -> Option<Trace> {
    let mut on_stack: HashSet<AvoidKey> = HashSet::new();
    let mut done: HashSet<AvoidKey> = HashSet::new();
    let mut path: Vec<SymState> = Vec::new();
    dfs(
        net,
        explorer,
        start,
        psi,
        &mut on_stack,
        &mut done,
        &mut path,
        stats,
        gov,
    )
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    net: &Network,
    explorer: &Explorer<'_>,
    state: &SymState,
    psi: &StateFormula,
    on_stack: &mut HashSet<AvoidKey>,
    done: &mut HashSet<AvoidKey>,
    path: &mut Vec<SymState>,
    stats: &mut Stats,
    gov: &Governor,
) -> Option<Trace> {
    // Budget trip: unwind without a verdict; the caller reports
    // `Exhausted`, so the missing branches cannot be misread as checked.
    if gov.is_exhausted() || !gov.check_time() {
        return None;
    }
    if psi.holds_somewhere(net, state) {
        return None; // ψ reached: this branch is fine.
    }
    let key = key_of(state);
    if on_stack.contains(&key) {
        // ψ-avoiding cycle.
        let mut steps: Vec<TraceStep> = path
            .iter()
            .map(|s| TraceStep {
                action: None,
                state: s.clone(),
            })
            .collect();
        steps.push(TraceStep {
            action: None,
            state: state.clone(),
        });
        return Some(Trace { steps });
    }
    if done.contains(&key) {
        return None;
    }
    if !gov.charge_state() {
        return None;
    }
    on_stack.insert(key.clone());
    path.push(state.clone());
    let succs = explorer.successors(state);
    stats.transitions += succs.len();
    let result = if succs.is_empty() {
        // Dead end while avoiding ψ: ψ never happens on this run.
        Some(Trace {
            steps: path
                .iter()
                .map(|s| TraceStep {
                    action: None,
                    state: s.clone(),
                })
                .collect(),
        })
    } else {
        let mut found = None;
        for (_, succ) in succs {
            if let Some(t) = dfs(net, explorer, &succ, psi, on_stack, done, path, stats, gov) {
                found = Some(t);
                break;
            }
        }
        found
    };
    path.pop();
    on_stack.remove(&key);
    done.insert(key);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClockAtom, NetworkBuilder};

    #[test]
    fn progress_cycle_satisfies_leads_to() {
        // L0 -> L1 -> L0 with invariants forcing progress: L0 --> L1 holds.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 2)]);
        let l1 = a.location_with_invariant("L1", vec![ClockAtom::le(x, 2)]);
        a.edge(l0, l1).reset(x, 0).done();
        a.edge(l1, l0).reset(x, 0).done();
        let aid = a.done();
        let net = b.build();
        let (v, _) = leads_to(&net, &StateFormula::at(aid, l0), &StateFormula::at(aid, l1));
        assert!(v.holds());
    }

    #[test]
    fn avoidable_target_violates_leads_to() {
        // From L0 one can loop L0 -> L2 -> L0 forever, avoiding L1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 2)]);
        let l1 = a.location("L1");
        let l2 = a.location_with_invariant("L2", vec![ClockAtom::le(x, 2)]);
        a.edge(l0, l1).reset(x, 0).done();
        a.edge(l0, l2).reset(x, 0).done();
        a.edge(l2, l0).reset(x, 0).done();
        let aid = a.done();
        let net = b.build();
        let (v, _) = leads_to(&net, &StateFormula::at(aid, l0), &StateFormula::at(aid, l1));
        assert!(!v.holds());
    }

    #[test]
    fn pure_delay_divergence_is_not_a_counterexample() {
        // L0 has no invariant, so a real-time run may stay in L0 forever;
        // like UPPAAL, the zone-graph semantics considers action paths
        // only, and the single action path reaches L1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 1)).done();
        let aid = a.done();
        let net = b.build();
        let (v, _) = leads_to(&net, &StateFormula::at(aid, l0), &StateFormula::at(aid, l1));
        assert!(v.holds());
    }

    #[test]
    fn dead_end_violates_leads_to() {
        // L0 -> Sink with no way to reach L1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 2)]);
        let l1 = a.location("L1");
        let sink = a.location_with_invariant("Sink", vec![ClockAtom::le(x, 2)]);
        a.edge(l0, l1).reset(x, 0).done();
        a.edge(l0, sink).reset(x, 0).done();
        let aid = a.done();
        let net = b.build();
        let (v, _) = leads_to(&net, &StateFormula::at(aid, l0), &StateFormula::at(aid, l1));
        assert!(!v.holds());
        let _ = sink;
    }

    #[test]
    #[should_panic(expected = "discrete")]
    fn clock_predicates_rejected() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        a.done();
        let net = b.build();
        let _ = leads_to(
            &net,
            &StateFormula::clock(ClockAtom::le(x, 1)),
            &StateFormula::True,
        );
    }
}
