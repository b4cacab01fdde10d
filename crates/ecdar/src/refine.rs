//! Refinement checking between timed I/O automata: the core of ECDAR
//! ("designed to check incrementally refinement and consistency between
//! component specifications", Bozga et al., DATE 2012, §II).
//!
//! `impl ≤ spec` (alternating timed simulation) holds iff, from related
//! states,
//!
//! * every **output** (and every delay) of the implementation can be
//!   matched by the specification, and
//! * every **input** of the specification can be matched by the
//!   implementation.
//!
//! Computed as a greatest fixpoint over the product of the digital-clock
//! graphs, which is exact for the closed specifications used here.

use crate::tioa::{IoDir, Tioa, TioaExplorer, TioaState};
use std::collections::{HashMap, HashSet, VecDeque};
use tempo_obs::{Budget, Governor, Outcome, RunReport};

/// [`RunReport`] for the product-graph engines of this module.
fn product_report(
    gov: &Governor,
    explored: usize,
    stored: usize,
    peak: usize,
    sweeps: u64,
) -> RunReport {
    RunReport {
        states_explored: explored as u64,
        states_stored: stored as u64,
        peak_waiting: peak as u64,
        sweeps,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// A witness that refinement fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementError {
    /// Human-readable reason (which obligation failed and where).
    pub reason: String,
    /// Sequence of steps (action names, `tick`) from the initial pair to
    /// the failure.
    pub trace: Vec<String>,
}

impl std::fmt::Display for RefinementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after ⟨{}⟩", self.reason, self.trace.join(" "))
    }
}

/// Checks `imp ≤ spec` (alternating timed simulation on digital clocks)
/// under a resource [`Budget`]. The value is `Err` with the shallowest
/// failed obligation if refinement does not hold.
///
/// Product pairs are charged against the state budget and the fixpoint
/// rounds against the iteration budget. A refinement *error* found
/// within the budget is definitive (kills in the greatest fixpoint are
/// inductively justified); an exhausted budget yields `Ok(())` as the
/// partial answer, to be read as "no violation established", never as a
/// proof of refinement.
pub fn refines_governed(
    imp: &Tioa,
    spec: &Tioa,
    budget: &Budget,
) -> Outcome<Result<(), RefinementError>> {
    let gov = budget.governor();
    let ei = TioaExplorer::new(imp);
    let es = TioaExplorer::new(spec);
    // Collect the reachable product pairs (forward), then refine the
    // relation backwards (greatest fixpoint).
    let start = (ei.initial_state(), es.initial_state());
    let mut pairs: Vec<(TioaState, TioaState)> = Vec::new();
    let mut index: HashMap<(TioaState, TioaState), usize> = HashMap::new();
    let mut trace_to: Vec<(Option<usize>, String)> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut peak = 0_usize;
    let mut explored = 0_usize;
    if gov.charge_state() {
        index.insert(start.clone(), 0);
        pairs.push(start);
        trace_to.push((None, String::new()));
        queue.push_back(0);
        peak = 1;
    }

    // Product moves per pair: (label, list of successor pair indices the
    // *matching* side may choose from, obligation kind).
    #[derive(Debug)]
    enum Obligation {
        /// imp moves, spec must match (outputs, ticks).
        SpecMatches { label: String, choices: Vec<usize> },
        /// spec moves, imp must match (inputs).
        ImpMatches { label: String, choices: Vec<usize> },
    }
    let mut obligations: Vec<Vec<Obligation>> = Vec::new();

    let mut outputs: Vec<String> = imp.outputs().map(str::to_owned).collect();
    outputs.extend(spec.outputs().map(str::to_owned));
    outputs.sort_unstable();
    outputs.dedup();
    let mut inputs: Vec<String> = spec.inputs().map(str::to_owned).collect();
    inputs.extend(imp.inputs().map(str::to_owned));
    inputs.sort_unstable();
    inputs.dedup();

    // Interns a product pair. Charging may fail once the state budget is
    // exhausted; the pair is still interned (so obligation indices stay
    // consistent for the current parent) but the outer loop breaks at
    // its next pop, bounding the overshoot by one pair's out-degree —
    // and a truncated exploration skips the fixpoint entirely.
    let gov_ref = &gov;
    let intern = |pairs: &mut Vec<(TioaState, TioaState)>,
                  index: &mut HashMap<(TioaState, TioaState), usize>,
                  trace_to: &mut Vec<(Option<usize>, String)>,
                  queue: &mut VecDeque<usize>,
                  parent: usize,
                  label: &str,
                  p: (TioaState, TioaState)|
     -> usize {
        if let Some(&i) = index.get(&p) {
            return i;
        }
        let _ = gov_ref.charge_state();
        let i = pairs.len();
        index.insert(p.clone(), i);
        pairs.push(p);
        trace_to.push((Some(parent), label.to_owned()));
        queue.push_back(i);
        i
    };

    while let Some(pi) = queue.pop_front() {
        if gov.is_exhausted() || !gov.check_time() {
            break;
        }
        explored += 1;
        peak = peak.max(queue.len() + 1);
        let (si, ss) = pairs[pi].clone();
        let mut obs: Vec<Obligation> = Vec::new();
        // 1. Implementation outputs: spec must match.
        for o in &outputs {
            for si2 in ei.step(&si, o, IoDir::Output) {
                let choices: Vec<usize> = es
                    .step(&ss, o, IoDir::Output)
                    .into_iter()
                    .map(|ss2| {
                        intern(
                            &mut pairs,
                            &mut index,
                            &mut trace_to,
                            &mut queue,
                            pi,
                            &format!("{o}!"),
                            (si2.clone(), ss2),
                        )
                    })
                    .collect();
                obs.push(Obligation::SpecMatches {
                    label: format!("{o}!"),
                    choices,
                });
            }
        }
        // 2. Implementation delay: spec must delay too.
        if let Some(si2) = ei.tick(&si) {
            let choices: Vec<usize> = es
                .tick(&ss)
                .into_iter()
                .map(|ss2| {
                    intern(
                        &mut pairs,
                        &mut index,
                        &mut trace_to,
                        &mut queue,
                        pi,
                        "tick",
                        (si2.clone(), ss2),
                    )
                })
                .collect();
            obs.push(Obligation::SpecMatches {
                label: "tick".to_owned(),
                choices,
            });
        }
        // 3. Specification inputs: imp must accept.
        for i in &inputs {
            for ss2 in es.step(&ss, i, IoDir::Input) {
                let choices: Vec<usize> = ei
                    .step(&si, i, IoDir::Input)
                    .into_iter()
                    .map(|si2| {
                        intern(
                            &mut pairs,
                            &mut index,
                            &mut trace_to,
                            &mut queue,
                            pi,
                            &format!("{i}?"),
                            (si2, ss2.clone()),
                        )
                    })
                    .collect();
                obs.push(Obligation::ImpMatches {
                    label: format!("{i}?"),
                    choices,
                });
            }
        }
        obligations.push(obs);
        debug_assert_eq!(obligations.len(), pi + 1);
    }

    let mut sweeps = 0_u64;
    if gov.is_exhausted() {
        // Truncated product graph: obligation choice lists may be
        // missing genuine matching moves, so running the fixpoint could
        // fabricate spurious failures. Claim nothing.
        let report = product_report(&gov, explored, pairs.len(), peak, sweeps);
        return gov.finish(Ok(()), report);
    }

    // Greatest fixpoint: drop pairs with an unmatchable obligation.
    let n = pairs.len();
    let mut alive: Vec<bool> = vec![true; n];
    // failure: reason plus whether it is *primary* (the matching side has
    // no candidate move at all) or propagated (all candidates died).
    let mut failure: Vec<Option<(String, bool)>> = vec![None; n];
    loop {
        if !gov.charge_iteration() || !gov.check_time() {
            break;
        }
        sweeps += 1;
        let mut changed = false;
        for pi in 0..n {
            if !alive[pi] {
                continue;
            }
            for ob in &obligations[pi] {
                let (label, choices, who) = match ob {
                    Obligation::SpecMatches { label, choices } => {
                        (label, choices, "specification cannot match")
                    }
                    Obligation::ImpMatches { label, choices } => {
                        (label, choices, "implementation cannot match")
                    }
                };
                if !choices.iter().any(|&c| alive[c]) {
                    alive[pi] = false;
                    failure[pi] = Some((format!("{who} {label}"), choices.is_empty()));
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let report = product_report(&gov, explored, pairs.len(), peak, sweeps);
    if alive[0] {
        // An interrupted greatest fixpoint only over-approximates the
        // refinement relation, so a still-alive initial pair proves
        // nothing when the budget tripped; `finish` keeps the claim
        // partial in that case.
        return gov.finish(Ok(()), report);
    }
    // Report the shallowest *primary* failure (an obligation with no
    // candidate at all); propagated failures merely echo deeper causes.
    let mut best: Option<usize> = None;
    for pi in 0..n {
        if let Some((_, primary)) = &failure[pi] {
            let better = match best {
                None => true,
                Some(b) => {
                    let (_, best_primary) = failure[b].as_ref().expect("failed");
                    match (primary, best_primary) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => trace_depth(&trace_to, pi) < trace_depth(&trace_to, b),
                    }
                }
            };
            if better {
                best = Some(pi);
            }
        }
    }
    let pi = best.expect("initial pair failed, so some pair has a failure");
    let mut steps = Vec::new();
    let mut cur = pi;
    while let (Some(parent), label) = &trace_to[cur] {
        steps.push(label.clone());
        cur = *parent;
    }
    steps.reverse();
    // Kills are inductively justified even mid-fixpoint: a dead initial
    // pair is a definitive counterexample regardless of the budget.
    gov.finish_complete(
        Err(RefinementError {
            reason: failure[pi].clone().expect("selected pair failed").0,
            trace: steps,
        }),
        report,
    )
}

fn trace_depth(trace_to: &[(Option<usize>, String)], mut i: usize) -> usize {
    let mut d = 0;
    while let (Some(p), _) = &trace_to[i] {
        d += 1;
        i = *p;
    }
    d
}

/// Consistency: a specification is consistent iff no reachable state is
/// *immediately inconsistent* — time blocked by the invariant with no
/// enabled output to escape (the component would violate its own
/// contract). Returns the offending state if any.
///
/// Runs under a resource [`Budget`]: an inconsistent state found within
/// the budget is definitive; exhaustion yields `None` as
/// the partial answer ("no inconsistency found in the explored part").
pub fn find_inconsistency_governed(spec: &Tioa, budget: &Budget) -> Outcome<Option<TioaState>> {
    let gov = budget.governor();
    let exp = TioaExplorer::new(spec);
    let mut seen: HashSet<TioaState> = HashSet::new();
    let mut queue: VecDeque<TioaState> = VecDeque::new();
    let mut peak = 0_usize;
    let mut explored = 0_usize;
    if gov.charge_state() {
        let init = exp.initial_state();
        seen.insert(init.clone());
        queue.push_back(init);
        peak = 1;
    }
    'explore: while let Some(s) = queue.pop_front() {
        if !gov.check_time() {
            break;
        }
        explored += 1;
        let tick = exp.tick(&s);
        let enabled = exp.enabled(&s);
        let has_output = enabled.iter().any(|(_, d)| *d == IoDir::Output);
        if tick.is_none() && !has_output {
            let report = product_report(&gov, explored, seen.len(), peak, 0);
            return gov.finish_complete(Some(s), report);
        }
        if let Some(next) = tick {
            if !seen.contains(&next) {
                if !gov.charge_state() {
                    break 'explore;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
        for (a, d) in enabled {
            for next in exp.step(&s, &a, d) {
                if !seen.contains(&next) {
                    if !gov.charge_state() {
                        break 'explore;
                    }
                    seen.insert(next.clone());
                    queue.push_back(next);
                }
            }
        }
        peak = peak.max(queue.len());
    }
    let report = product_report(&gov, explored, seen.len(), peak, 0);
    gov.finish(None, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tioa::{TioaAtom, TioaBuilder};

    /// Spec: after coin?, emit coffee! within [2, 5].
    fn spec() -> Tioa {
        let mut b = TioaBuilder::new("Spec");
        let x = b.clock("x");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 5)]);
        b.input(idle, busy, "coin").reset(x).done();
        b.output(busy, idle, "coffee")
            .guard(TioaAtom::ge(x, 2))
            .done();
        b.build()
    }

    /// A faster machine: coffee within [2, 3]. Refines the spec (its
    /// output timing window is contained in the spec's).
    fn fast_impl() -> Tioa {
        let mut b = TioaBuilder::new("Fast");
        let x = b.clock("x");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 3)]);
        b.input(idle, busy, "coin").reset(x).done();
        b.output(busy, idle, "coffee")
            .guard(TioaAtom::ge(x, 2))
            .done();
        b.build()
    }

    /// An eager machine that may emit coffee immediately (x >= 0):
    /// violates the spec's lower bound of 2.
    fn eager_impl() -> Tioa {
        let mut b = TioaBuilder::new("Eager");
        let x = b.clock("x");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 3)]);
        b.input(idle, busy, "coin").reset(x).done();
        b.output(busy, idle, "coffee").done();
        b.build()
    }

    /// A machine that refuses the coin input.
    fn deaf_impl() -> Tioa {
        let mut b = TioaBuilder::new("Deaf");
        let _x = b.clock("x");
        let idle = b.location("Idle");
        let _ = idle;
        b.build()
    }

    #[test]
    fn reflexive() {
        assert!(refines_governed(&spec(), &spec(), &Budget::unlimited())
            .into_value()
            .is_ok());
    }

    #[test]
    fn tighter_timing_refines() {
        assert!(
            refines_governed(&fast_impl(), &spec(), &Budget::unlimited())
                .into_value()
                .is_ok()
        );
        // The converse fails: the spec may emit at 5, which Fast cannot
        // even reach (its invariant blocks delay at 3) — but outputs are
        // checked on the *implementation* side, so Spec ≤ Fast fails
        // because Spec can output at 4 while Fast no longer matches.
        let err = refines_governed(&spec(), &fast_impl(), &Budget::unlimited())
            .into_value()
            .unwrap_err();
        assert!(err.reason.contains("cannot match"), "{err}");
    }

    #[test]
    fn early_output_caught() {
        let err = refines_governed(&eager_impl(), &spec(), &Budget::unlimited())
            .into_value()
            .unwrap_err();
        assert!(err.reason.contains("coffee!"), "{err}");
        assert_eq!(err.trace, vec!["coin?"]);
    }

    #[test]
    fn missing_input_caught() {
        let err = refines_governed(&deaf_impl(), &spec(), &Budget::unlimited())
            .into_value()
            .unwrap_err();
        assert!(err.reason.contains("coin?"), "{err}");
    }

    #[test]
    fn consistency() {
        assert!(find_inconsistency_governed(&spec(), &Budget::unlimited())
            .into_value()
            .is_none());
        // Invariant forces time to stop with no output: inconsistent.
        let mut b = TioaBuilder::new("Stuck");
        let x = b.clock("x");
        let l = b.location_with_invariant("L", vec![TioaAtom::le(x, 1)]);
        let _ = l;
        let bad = b.build();
        let s = find_inconsistency_governed(&bad, &Budget::unlimited())
            .into_value()
            .expect("timelock with no output");
        assert_eq!(s.clocks[1], 1);
    }

    #[test]
    fn extra_inputs_in_impl_are_fine() {
        // The implementation accepts more inputs than the spec requires.
        let mut b = TioaBuilder::new("Generous");
        let x = b.clock("x");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 5)]);
        b.input(idle, busy, "coin").reset(x).done();
        b.input(idle, idle, "token").done();
        b.output(busy, idle, "coffee")
            .guard(TioaAtom::ge(x, 2))
            .done();
        let generous = b.build();
        assert!(refines_governed(&generous, &spec(), &Budget::unlimited())
            .into_value()
            .is_ok());
    }
}
