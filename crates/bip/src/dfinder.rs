//! Compositional deadlock detection in the style of D-Finder
//! (Bensalem et al., CAV'09; surveyed in Bozga et al., DATE 2012, §IV).
//!
//! Instead of exploring the composed state space, the check combines
//!
//! * **component invariants** — per-component over-approximations of the
//!   locally reachable control states, and
//! * **interaction invariants** — trap-based global invariants of the
//!   1-safe Petri net induced by the interactions,
//!
//! to show that no *candidate deadlock* control configuration is
//! reachable. The method is conservative: [`DfinderVerdict::DeadlockFree`]
//! is a proof, while [`DfinderVerdict::Unknown`] lists the surviving
//! suspects (which an explicit search can then examine).

use crate::component::{ComponentId, PortId, StateId};
use crate::system::{BipSystem, InteractionKind};
use std::collections::HashSet;
use tempo_expr::Expr;
use tempo_obs::{Budget, Outcome, RunReport};

/// The verdict of the compositional check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfinderVerdict {
    /// Every candidate deadlock configuration was refuted by the
    /// invariants: the system is deadlock-free.
    DeadlockFree {
        /// Number of candidate configurations examined.
        candidates: usize,
        /// How many were eliminated by trap invariants (the rest were
        /// eliminated by component invariants).
        eliminated_by_traps: usize,
    },
    /// Some candidates could not be refuted; they are returned for
    /// explicit examination.
    Unknown {
        /// Surviving candidate control configurations.
        suspects: Vec<Vec<StateId>>,
    },
}

/// A firing mode of an interaction: the control places it consumes and
/// produces (one pair per participating component).
#[derive(Debug, Clone)]
struct Mode {
    takes: Vec<(usize, usize)>, // (component, state)
    puts: Vec<(usize, usize)>,
}

/// Runs the compositional deadlock-freedom check under a resource
/// [`Budget`]: each step of the candidate enumeration (the product of
/// component invariants) charges one iteration, so
/// [`Budget::with_max_iterations`] bounds it. On exhaustion the partial
/// verdict is [`DfinderVerdict::Unknown`] with the suspects
/// found so far — the method is conservative, so an interrupted run
/// never claims deadlock freedom.
pub fn check_deadlock_freedom_governed(
    sys: &BipSystem,
    budget: &Budget,
) -> Outcome<DfinderVerdict> {
    let gov = budget.governor();
    let local = component_invariants(sys);
    let modes = firing_modes(sys);
    let initial_places: Vec<(usize, usize)> = sys
        .components()
        .iter()
        .enumerate()
        .map(|(ci, c)| (ci, c.initial.0))
        .collect();

    // Enumerate candidate deadlock configurations: products of locally
    // reachable control states where no interaction is *surely* enabled.
    let mut suspects = Vec::new();
    let mut candidates = 0_usize;
    let mut eliminated_by_traps = 0_usize;
    let mut work = 0_usize;
    let mut stack: Vec<Vec<StateId>> = vec![Vec::new()];
    let mut exhausted = false;
    while let Some(partial) = stack.pop() {
        if !gov.charge_iteration() || !gov.check_time() {
            exhausted = true;
            break;
        }
        work += 1;
        if partial.len() == sys.components().len() {
            if surely_enabled_exists(sys, &partial) {
                continue;
            }
            candidates += 1;
            if trap_refutes(sys, &modes, &initial_places, &partial) {
                eliminated_by_traps += 1;
            } else {
                suspects.push(partial);
            }
            continue;
        }
        let ci = partial.len();
        for &s in &local[ci] {
            let mut next = partial.clone();
            next.push(s);
            stack.push(next);
        }
    }
    let report = dfinder_report(&gov, candidates, work);
    if exhausted {
        // The enumeration did not finish: freedom cannot be claimed.
        return gov.finish(DfinderVerdict::Unknown { suspects }, report);
    }
    gov.finish_complete(
        if suspects.is_empty() {
            DfinderVerdict::DeadlockFree {
                candidates,
                eliminated_by_traps,
            }
        } else {
            DfinderVerdict::Unknown { suspects }
        },
        report,
    )
}

/// [`RunReport`] for the candidate enumeration: candidates examined map
/// to explored states, enumeration steps to sweeps.
fn dfinder_report(gov: &tempo_obs::Governor, candidates: usize, work: usize) -> RunReport {
    RunReport {
        states_explored: candidates as u64,
        sweeps: work as u64,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// Per-component control-state reachability, assuming every port may
/// always fire (an over-approximation of the component's behaviour in
/// any context).
#[must_use]
pub fn component_invariants(sys: &BipSystem) -> Vec<Vec<StateId>> {
    sys.components()
        .iter()
        .map(|c| {
            let mut seen = vec![false; c.states.len()];
            let mut stack = vec![c.initial];
            seen[c.initial.0] = true;
            while let Some(s) = stack.pop() {
                for t in c.transitions.iter().filter(|t| t.from == s) {
                    if !seen[t.to.0] {
                        seen[t.to.0] = true;
                        stack.push(t.to);
                    }
                }
            }
            (0..c.states.len())
                .filter(|&i| seen[i])
                .map(StateId)
                .collect()
        })
        .collect()
}

/// Whether some interaction is *surely* enabled in the control
/// configuration: control-ready on every required port and free of data
/// guards (data-guarded interactions might be blocked, so they cannot
/// refute a deadlock candidate).
fn surely_enabled_exists(sys: &BipSystem, control: &[StateId]) -> bool {
    sys.interactions().iter().any(|inter| {
        if inter.guard != Expr::truth() {
            return false;
        }
        let mut ports = inter.ports.iter();
        let check = |p: &PortId| -> bool {
            let cid: ComponentId = sys.port_owner(*p);
            let comp = &sys.components()[cid.0];
            comp.transitions
                .iter()
                .any(|t| t.from == control[cid.0] && t.port == *p && t.guard == Expr::truth())
        };
        match inter.kind {
            InteractionKind::Rendezvous => ports.all(&check),
            InteractionKind::Broadcast => ports.next().is_some_and(check),
        }
    })
}

/// All firing modes of all interactions (choices of one transition per
/// participating port; broadcasts enumerate subsets of ready synchrons).
fn firing_modes(sys: &BipSystem) -> Vec<Mode> {
    let mut modes = Vec::new();
    for inter in sys.interactions() {
        // Per port: the list of (component, from, to) choices.
        let per_port: Vec<Vec<(usize, usize, usize)>> = inter
            .ports
            .iter()
            .map(|&p| {
                let cid = sys.port_owner(p);
                sys.components()[cid.0]
                    .transitions
                    .iter()
                    .filter(|t| t.port == p)
                    .map(|t| (cid.0, t.from.0, t.to.0))
                    .collect()
            })
            .collect();
        match inter.kind {
            InteractionKind::Rendezvous => {
                product_modes(&per_port, &mut modes);
            }
            InteractionKind::Broadcast => {
                // Trigger + every subset of synchron ports.
                let trigger = &per_port[0];
                let synchrons = &per_port[1..];
                let subset_count = 1_usize << synchrons.len();
                for mask in 0..subset_count {
                    let mut chosen: Vec<Vec<(usize, usize, usize)>> = vec![trigger.clone()];
                    for (k, s) in synchrons.iter().enumerate() {
                        if mask & (1 << k) != 0 {
                            chosen.push(s.clone());
                        }
                    }
                    product_modes(&chosen, &mut modes);
                }
            }
        }
    }
    modes
}

fn product_modes(per_port: &[Vec<(usize, usize, usize)>], modes: &mut Vec<Mode>) {
    if per_port.iter().any(Vec::is_empty) {
        return;
    }
    let mut idx = vec![0_usize; per_port.len()];
    loop {
        let mut takes = Vec::new();
        let mut puts = Vec::new();
        for (k, options) in per_port.iter().enumerate() {
            let (c, from, to) = options[idx[k]];
            takes.push((c, from));
            puts.push((c, to));
        }
        modes.push(Mode { takes, puts });
        let mut pos = 0;
        loop {
            if pos == per_port.len() {
                return;
            }
            idx[pos] += 1;
            if idx[pos] < per_port[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// Whether a trap invariant refutes the candidate: there is a trap
/// (computed as the maximal trap avoiding the candidate's places) that is
/// initially marked — so it must stay marked, but the candidate leaves it
/// empty, hence the candidate is unreachable.
fn trap_refutes(
    sys: &BipSystem,
    modes: &[Mode],
    initial_places: &[(usize, usize)],
    candidate: &[StateId],
) -> bool {
    // Q = all places except the candidate's.
    let mut trap: HashSet<(usize, usize)> = HashSet::new();
    for (ci, c) in sys.components().iter().enumerate() {
        for s in 0..c.states.len() {
            if candidate[ci].0 != s {
                trap.insert((ci, s));
            }
        }
    }
    // Maximal trap within Q: repeatedly remove places whose removal is
    // forced (a mode takes from the trap but puts nothing back).
    loop {
        let mut to_remove: HashSet<(usize, usize)> = HashSet::new();
        for m in modes {
            let takes_from_trap: Vec<_> = m.takes.iter().filter(|p| trap.contains(*p)).collect();
            if takes_from_trap.is_empty() {
                continue;
            }
            let puts_back = m.puts.iter().any(|p| trap.contains(p));
            if !puts_back {
                for p in takes_from_trap {
                    to_remove.insert(*p);
                }
            }
        }
        if to_remove.is_empty() {
            break;
        }
        for p in to_remove {
            trap.remove(&p);
        }
    }
    // Refuted iff the maximal trap avoiding the candidate contains an
    // initially marked place.
    initial_places.iter().any(|p| trap.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BipSystemBuilder;
    use tempo_obs::ExploreConfig;

    /// A token ring of `n` components: each passes a token to the next.
    /// Deadlock-free, and provable compositionally (pure control).
    fn token_ring(n: usize) -> BipSystem {
        let mut b = BipSystemBuilder::new();
        let mut gives = Vec::new();
        let mut takes = Vec::new();
        for k in 0..n {
            let mut c = b.component(&format!("N{k}"));
            let has = c.state("Has");
            let idle = c.state("Idle");
            if k != 0 {
                c.set_initial(idle);
            }
            let give = c.port("give");
            let take = c.port("take");
            c.transition(has, idle, give);
            c.transition(idle, has, take);
            c.done();
            gives.push(give);
            takes.push(take);
        }
        for k in 0..n {
            b.rendezvous(&format!("pass{k}"), &[gives[k], takes[(k + 1) % n]]);
        }
        b.build()
    }

    #[test]
    fn token_ring_certified_deadlock_free() {
        let sys = token_ring(4);
        let verdict = check_deadlock_freedom_governed(
            &sys,
            &Budget::unlimited().with_max_iterations(100_000),
        )
        .into_value();
        match verdict {
            DfinderVerdict::DeadlockFree { candidates, .. } => {
                assert!(candidates > 0, "the all-idle configurations are candidates");
            }
            DfinderVerdict::Unknown { suspects } => {
                panic!("expected a proof, got suspects {suspects:?}")
            }
        }
        // Cross-check with the explicit engine.
        assert!(sys
            .find_deadlock_with(
                ExploreConfig::default(),
                &Budget::unlimited().with_max_states(10_000)
            )
            .into_value()
            .is_none());
    }

    #[test]
    fn genuine_deadlock_reported_as_suspect() {
        // Two components that each wait for the other: classic deadlock.
        let mut b = BipSystemBuilder::new();
        let mut p = b.component("P");
        let p0 = p.state("P0");
        let p1 = p.state("P1");
        let pa = p.port("a");
        let pb = p.port("b");
        p.transition(p0, p1, pa);
        p.transition(p1, p0, pb);
        p.done();
        let mut q = b.component("Q");
        let q0 = q.state("Q0");
        let q1 = q.state("Q1");
        let qa = q.port("a");
        let qb = q.port("b");
        // Q offers a only from Q1 but needs b to get there.
        q.transition(q1, q0, qa);
        q.transition(q0, q1, qb);
        q.done();
        b.rendezvous("sync_a", &[pa, qa]);
        b.rendezvous("sync_b", &[pb, qb]);
        let sys = b.build();
        // (P0, Q0): sync_a needs Q at Q1; sync_b needs P at P1 → deadlock.
        let verdict =
            check_deadlock_freedom_governed(&sys, &Budget::unlimited().with_max_iterations(10_000))
                .into_value();
        assert!(matches!(verdict, DfinderVerdict::Unknown { .. }));
        assert!(
            sys.find_deadlock_with(
                ExploreConfig::default(),
                &Budget::unlimited().with_max_states(100)
            )
            .into_value()
            .is_some(),
            "explicit check agrees"
        );
    }

    #[test]
    fn component_invariants_are_local_reachability() {
        let sys = token_ring(3);
        let ci = component_invariants(&sys);
        for states in &ci {
            assert_eq!(states.len(), 2, "both Has and Idle locally reachable");
        }
    }

    #[test]
    fn candidate_pruning_with_sure_interactions() {
        // A single component with an always-enabled self-loop is never a
        // deadlock candidate.
        let mut b = BipSystemBuilder::new();
        let mut c = b.component("Live");
        let s = c.state("S");
        let p = c.port("p");
        c.transition(s, s, p);
        c.done();
        b.rendezvous("tick", &[p]);
        let sys = b.build();
        match check_deadlock_freedom_governed(&sys, &Budget::unlimited().with_max_iterations(100))
            .into_value()
        {
            DfinderVerdict::DeadlockFree { candidates, .. } => assert_eq!(candidates, 0),
            v => panic!("unexpected verdict {v:?}"),
        }
    }
}
