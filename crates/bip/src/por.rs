//! Persistent-set reduction for the BIP deadlock search.
//!
//! A *persistent set* at a global state is a subset of its enabled
//! interactions such that nothing outside the set can affect the set's
//! interactions before one of them fires. Selective search expanding
//! only a persistent set at each state reaches every deadlock of the
//! full graph (Godefroid's persistent-set theorem — deadlock
//! preservation needs no cycle proviso, unlike safety or liveness).
//!
//! The analysis here is deliberately structural and conservative. A
//! component is a *persistent candidate* when:
//!
//! - every interaction touching one of its ports is **local**: all the
//!   interaction's ports belong to this component, so firing it can
//!   never move another component's control location;
//! - the variables its transitions and local interactions read or write
//!   are **disjoint** from the variables accessed anywhere else, so
//!   enabledness cannot flow between the candidate and the rest of the
//!   system through data; and
//! - **no priority rule** mentions any of its local interactions, so
//!   enabledness cannot flow through priorities either.
//!
//! Under those conditions the candidate's enabled local interactions
//! commute with every other interaction and stay enabled until fired —
//! exactly a persistent set. States where no candidate has an enabled
//! local interaction (or where it would not actually shrink the
//! expansion) fall back to the full set, making the reduction
//! conservative by construction.

use crate::component::ComponentId;
use crate::system::{BipSystem, InteractionId};
use std::collections::BTreeSet;
use tempo_expr::{expr_vars, stmt_vars, VarId};

/// The statically computed persistent-set oracle for one system.
#[derive(Debug, Clone)]
pub struct BipPor {
    /// Per candidate component: its local interactions (sorted).
    candidates: Vec<(ComponentId, Vec<InteractionId>)>,
}

impl BipPor {
    /// Statically analyzes the system for persistent candidates.
    #[must_use]
    pub fn analyze(sys: &BipSystem) -> BipPor {
        let n = sys.components().len();
        // Variables accessed by each component's transitions.
        let comp_vars: Vec<BTreeSet<VarId>> = sys
            .components()
            .iter()
            .map(|c| {
                let mut out = BTreeSet::new();
                for t in &c.transitions {
                    expr_vars(&t.guard, &mut out);
                    stmt_vars(&t.update, &mut out);
                }
                out
            })
            .collect();
        // Variables accessed by each interaction's guard and update.
        let inter_vars: Vec<BTreeSet<VarId>> = sys
            .interactions()
            .iter()
            .map(|i| {
                let mut out = BTreeSet::new();
                expr_vars(&i.guard, &mut out);
                stmt_vars(&i.update, &mut out);
                out
            })
            .collect();

        let mut candidates = Vec::new();
        for ci in 0..n {
            // The interactions touching any of this component's ports.
            let touching: Vec<usize> = (0..sys.interactions().len())
                .filter(|&ix| {
                    sys.interactions()[ix]
                        .ports
                        .iter()
                        .any(|&p| sys.port_owner(p).0 == ci)
                })
                .collect();
            if touching.is_empty() {
                continue; // inert component: nothing to defer to
            }
            // Local-only: every touching interaction stays inside ci.
            if !touching.iter().all(|&ix| {
                sys.interactions()[ix]
                    .ports
                    .iter()
                    .all(|&p| sys.port_owner(p).0 == ci)
            }) {
                continue;
            }
            // Priorities must not mention the local interactions.
            if sys
                .priorities()
                .iter()
                .any(|p| touching.contains(&p.low.0) || touching.contains(&p.high.0))
            {
                continue;
            }
            // Data independence: the candidate's variable footprint is
            // disjoint from everything else's.
            let mut mine = comp_vars[ci].clone();
            for &ix in &touching {
                mine.extend(inter_vars[ix].iter().copied());
            }
            let mut disjoint = true;
            for (cj, vars) in comp_vars.iter().enumerate() {
                if cj != ci && !mine.is_disjoint(vars) {
                    disjoint = false;
                    break;
                }
            }
            if disjoint {
                for (ix, vars) in inter_vars.iter().enumerate() {
                    if !touching.contains(&ix) && !mine.is_disjoint(vars) {
                        disjoint = false;
                        break;
                    }
                }
            }
            if !disjoint {
                continue;
            }
            candidates.push((
                ComponentId(ci),
                touching.into_iter().map(InteractionId).collect(),
            ));
        }
        BipPor { candidates }
    }

    /// Whether any candidate exists (otherwise the search skips the
    /// per-state lookups entirely).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// The persistent subset of `enabled` to expand, or `None` when no
    /// candidate strictly shrinks the expansion (full fallback).
    #[must_use]
    pub fn persistent(&self, enabled: &[InteractionId]) -> Option<Vec<InteractionId>> {
        for (_, local) in &self.candidates {
            let mine: Vec<InteractionId> = enabled
                .iter()
                .copied()
                .filter(|i| local.contains(i))
                .collect();
            if !mine.is_empty() && mine.len() < enabled.len() {
                return Some(mine);
            }
        }
        None
    }
}
