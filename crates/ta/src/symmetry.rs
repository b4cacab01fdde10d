//! Template-symmetry reduction: canonical orbit representatives for
//! networks with replicated components.
//!
//! Replicated templates (the N trains of the train-gate, N stations of a
//! CSMA model, …) induce automorphisms of the zone graph: permuting
//! structurally identical automata — together with their private clocks
//! and every stored occurrence of their identities — maps reachable
//! states to reachable states and preserves every property that does not
//! tell the permuted components apart. Exploring one representative per
//! orbit therefore preserves verdicts while dividing the state count by
//! up to `k!` for an orbit of `k` interchangeable components.
//!
//! Detection is static and conservative:
//!
//! 1. Candidate orbits are automata with identical structure after
//!    renaming their private clocks and substituting their own identity
//!    constant in channel-index expressions (grouped by [`Fingerprint`]
//!    of the normalized template, then checked for exact equality).
//! 2. Component identities stored in shared variables must be declared
//!    by the modeller via [`crate::NetworkBuilder::mark_id_var`] — the
//!    scalarset contract. A data-flow scan verifies the contract: any
//!    expression where an identity leaks into arithmetic, an ordering
//!    comparison, an unmarked variable, or an array subscript disables
//!    the reduction entirely.
//! 3. Identity *constants* that the model singles out (a literal id
//!    compared with or assigned into a marked variable, or an id-marked
//!    variable's initial value) are **pinned**: permutations must fix
//!    them. The same holds for identities the goal formula
//!    distinguishes, detected by checking invariance of the normalized
//!    formula under each transposition.
//!
//! The group that remains is the full symmetric group on the unpinned
//! identities; states are canonicalized by taking the lexicographic
//! minimum of the state's encoding over all group elements. Witness
//! traces remain exact: each search node stores the permutation applied
//! to it, and [`realize`]d traces compose the inverses back into a
//! concrete run of the original network.

use crate::explore::{Action, SymState};
use crate::formula::StateFormula;
use crate::model::{Automaton, AutomatonId, ClockAtom, Network};
use std::collections::{BTreeMap, BTreeSet};
use tempo_dbm::Clock;
use tempo_expr::{BinOp, Expr, Stmt, UnOp, VarId};
use tempo_obs::Fingerprint;

/// One replicated component of the detected orbit.
#[derive(Debug, Clone)]
struct Member {
    /// Automaton index in the network.
    aut: usize,
    /// Identity value (sync-index constant), or the member's ordinal for
    /// anonymous orbits that never mention identities.
    id: i64,
    /// The member's private clock columns, in first-use order; aligned
    /// across members by the structural isomorphism.
    clocks: Vec<usize>,
}

/// A network automorphism from the orbit group: simultaneous renaming of
/// member automata, their private clocks, and identity values in marked
/// variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perm {
    /// Automaton renaming (identity outside the orbit).
    aut_map: Vec<usize>,
    /// Clock-column renaming (identity outside member clocks).
    clock_map: Vec<usize>,
    /// Identity-value renaming, as sorted `(from, to)` pairs.
    id_map: Vec<(i64, i64)>,
}

impl Perm {
    /// Whether this is the identity automorphism.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.id_map.iter().all(|&(a, b)| a == b)
    }

    fn map_id(&self, v: i64) -> i64 {
        match self.id_map.binary_search_by_key(&v, |&(from, _)| from) {
            Ok(i) => self.id_map[i].1,
            Err(_) => v,
        }
    }
}

/// The detected symmetry of a network: one orbit of replicated
/// components plus its admissible permutation group.
#[derive(Debug)]
pub struct Symmetry {
    members: Vec<Member>,
    /// All group elements; index `0` is the identity.
    perms: Vec<Perm>,
    /// Id-marked shared variables whose values are renamed along.
    marked: Vec<VarId>,
    /// Channels whose index expressions carry component identities (for
    /// renaming resolved indices in trace actions).
    id_channels: Vec<bool>,
    /// Number of valid orbit groups detected (the largest is used).
    orbit_count: usize,
}

/// Upper bound on unpinned orbit members: `7! = 5040` permutations per
/// canonicalization is the largest enumeration we accept; further
/// members beyond this are pinned.
const MAX_FREE: usize = 7;

/// Candidate orbit member before pinning: automaton index, identity
/// constant (when the template is id-carrying) and its private clocks.
type Candidate = (usize, Option<i64>, Vec<usize>);

/// Coarse edge shape used by [`near_miss_orbits`]: source and target
/// location indices plus the channel endpoint (channel, is-send).
type ShapeEdge = (usize, usize, Option<(usize, bool)>);

impl Symmetry {
    /// Detects a usable orbit in `net`, with `formulas` (the goal, …)
    /// constraining which identities stay permutable. Returns `None`
    /// when no sound non-trivial group exists.
    #[must_use]
    pub fn detect(net: &Network, formulas: &[&StateFormula]) -> Option<Symmetry> {
        let marked: Vec<VarId> = net.id_vars().to_vec();
        let clock_users = clock_usage(net);

        // 1. Group structurally identical templates.
        #[allow(clippy::type_complexity)]
        let mut groups: BTreeMap<
            Fingerprint,
            Vec<(usize, Option<i64>, Vec<usize>, Automaton)>,
        > = BTreeMap::new();
        for (ai, a) in net.automata.iter().enumerate() {
            let Some(own_id) = own_id_constant(a) else {
                continue;
            };
            let clocks = member_clocks(a);
            let normalized = normalized_template(a, own_id, &clocks);
            groups
                .entry(Fingerprint::of(&normalized))
                .or_default()
                .push((ai, own_id, clocks, normalized));
        }

        let mut valid: Vec<Vec<Candidate>> = Vec::new();
        'group: for (_, g) in groups {
            if g.len() < 2 {
                continue;
            }
            let (_, _, _, first) = &g[0];
            let anonymous = g[0].1.is_none();
            let mut ids = BTreeSet::new();
            for (ai, own, clocks, norm) in &g {
                // Exact structural equality, not just a digest match.
                if norm != first || own.is_none() != anonymous {
                    continue 'group;
                }
                if let Some(id) = own {
                    if !ids.insert(*id) {
                        continue 'group;
                    }
                }
                // Member clocks must be private to the member.
                for &c in clocks {
                    if clock_users[c].iter().any(|&u| u != *ai) {
                        continue 'group;
                    }
                }
            }
            // Anonymous orbits cannot honor a marked-variable contract:
            // there is no identity value to rename in the store.
            if anonymous && !marked.is_empty() {
                continue 'group;
            }
            valid.push(g.into_iter().map(|(ai, own, c, _)| (ai, own, c)).collect());
        }
        let orbit_count = valid.len();
        let group = valid.into_iter().max_by_key(Vec::len)?;

        let members: Vec<Member> = group
            .iter()
            .enumerate()
            .map(|(ord, (ai, own, clocks))| Member {
                aut: *ai,
                id: own.unwrap_or(ord as i64),
                clocks: clocks.clone(),
            })
            .collect();
        let anonymous = group[0].1.is_none();
        let ids: BTreeSet<i64> = members.iter().map(|m| m.id).collect();
        let own_by_aut: BTreeMap<usize, i64> = members.iter().map(|m| (m.aut, m.id)).collect();

        let mut id_channels = vec![false; net.channels.len()];
        for m in &members {
            for e in &net.automata[m.aut].edges {
                if let Some(sync) = &e.sync {
                    id_channels[sync.channel.index()] = true;
                }
            }
        }

        // 2.–3. Data-flow scan: pin singled-out identities, bail on any
        // untrackable identity flow.
        let mut pins: BTreeSet<i64> = BTreeSet::new();
        if !anonymous {
            // Renamed identities must stay storable in every marked slot.
            for &v in &marked {
                let info = net.decls.info(v);
                if ids.first().is_some_and(|&min| min < info.lo)
                    || ids.last().is_some_and(|&max| max > info.hi)
                {
                    return None;
                }
            }
            let mut scan = Scan {
                marked: &marked,
                ids: &ids,
                pins: &mut pins,
                own: None,
            };
            for (ai, a) in net.automata.iter().enumerate() {
                // Inside a member, its own identity constant transforms
                // covariantly with the automaton itself.
                scan.own = own_by_aut.get(&ai).copied();
                for e in &a.edges {
                    scan.guard(&e.guard_data, &e.selects)?;
                    scan.stmt(&e.update, &e.selects)?;
                    for (_, v) in &e.resets {
                        if scan.classify(v, &e.selects)? == Kind::Id {
                            return None;
                        }
                    }
                    if let Some(sync) = &e.sync {
                        scan.sync_index(
                            &sync.index,
                            &e.selects,
                            id_channels[sync.channel.index()],
                        )?;
                    }
                }
            }
            // Initial values of marked variables single out identities.
            let init = net.decls.initial_store();
            for &v in &marked {
                let info = net.decls.info(v);
                for k in 0..info.len {
                    let w = init.get_index(&net.decls, v, k as i64).ok()?;
                    if ids.contains(&w) {
                        pins.insert(w);
                    }
                }
            }
        }

        // Property invariance: bail on untrackable marked-variable reads,
        // then pin identities the formulas distinguish.
        for f in formulas {
            if !formula_tracks_ids(f, &marked) {
                return None;
            }
        }
        let mut free: Vec<i64> = ids.iter().copied().filter(|v| !pins.contains(v)).collect();
        loop {
            let mut breaks: BTreeMap<i64, usize> = BTreeMap::new();
            for i in 0..free.len() {
                for j in i + 1..free.len() {
                    let (a, b) = (free[i], free[j]);
                    if formulas
                        .iter()
                        .any(|f| !transposition_invariant(f, &members, a, b))
                    {
                        *breaks.entry(a).or_default() += 1;
                        *breaks.entry(b).or_default() += 1;
                    }
                }
            }
            let Some((&worst, _)) = breaks.iter().max_by_key(|&(_, &c)| c) else {
                break;
            };
            free.retain(|&v| v != worst);
        }
        free.truncate(MAX_FREE);
        if free.len() < 2 {
            return None;
        }

        // 4. Enumerate the group Sym(free) as explicit automorphisms.
        let sym = Symmetry {
            perms: Vec::new(),
            members,
            marked,
            id_channels,
            orbit_count,
        };
        let mut perms = Vec::new();
        let mut images = free.clone();
        permutations(&mut images, 0, &mut |img| {
            let id_map: Vec<(i64, i64)> = free.iter().copied().zip(img.iter().copied()).collect();
            perms.push(sym.perm_from_id_map(net, id_map));
        });
        // The identity first, then a deterministic order.
        perms.sort_by(|a, b| (!a.is_identity(), &a.id_map).cmp(&(!b.is_identity(), &b.id_map)));
        Some(Symmetry { perms, ..sym })
    }

    /// Number of valid orbit groups detected in the network.
    #[must_use]
    pub fn orbit_count(&self) -> usize {
        self.orbit_count
    }

    /// Number of group elements (including the identity).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.perms.len()
    }

    /// The group element at `idx` (`0` is the identity).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn perm(&self, idx: usize) -> &Perm {
        &self.perms[idx]
    }

    fn perm_from_id_map(&self, net: &Network, mut id_map: Vec<(i64, i64)>) -> Perm {
        id_map.sort_unstable();
        let mut aut_map: Vec<usize> = (0..net.automata.len()).collect();
        let mut clock_map: Vec<usize> = (0..net.dim()).collect();
        let by_id: BTreeMap<i64, &Member> = self.members.iter().map(|m| (m.id, m)).collect();
        for m in &self.members {
            let target = match id_map.binary_search_by_key(&m.id, |&(from, _)| from) {
                Ok(i) => by_id[&id_map[i].1],
                Err(_) => continue,
            };
            aut_map[m.aut] = target.aut;
            for (old, new) in m.clocks.iter().zip(&target.clocks) {
                clock_map[*old] = *new;
            }
        }
        Perm {
            aut_map,
            clock_map,
            id_map,
        }
    }

    /// Applies a group element to a symbolic state.
    ///
    /// # Panics
    ///
    /// Panics if the state does not belong to the network the symmetry
    /// was detected on.
    #[must_use]
    pub fn apply(&self, net: &Network, p: &Perm, s: &SymState) -> SymState {
        let mut locs = s.locs.clone();
        for (old, &new) in p.aut_map.iter().enumerate() {
            locs[new] = s.locs[old];
        }
        let mut store = s.store.clone();
        for &v in &self.marked {
            let info = net.decls.info(v);
            for k in 0..info.len {
                let w = store
                    .get_index(&net.decls, v, k as i64)
                    .expect("index within declared length");
                let mapped = p.map_id(w);
                if mapped != w {
                    store
                        .set_index(&net.decls, v, k as i64, mapped)
                        .expect("detect() checked ids fit the declared range");
                }
            }
        }
        SymState {
            locs,
            store,
            zone: s.zone.permute(&p.clock_map),
        }
    }

    /// Applies a group element to a trace action (automaton ids, and the
    /// resolved channel index when the channel is identity-indexed).
    #[must_use]
    pub fn apply_action(&self, net: &Network, p: &Perm, a: &Action) -> Action {
        match a {
            Action::Internal { automaton, edge } => Action::Internal {
                automaton: AutomatonId(p.aut_map[automaton.index()]),
                edge: *edge,
            },
            Action::Sync {
                label,
                sender,
                receivers,
            } => {
                let id_indexed = net.automata[sender.0.index()].edges[sender.1]
                    .sync
                    .as_ref()
                    .is_some_and(|sy| self.id_channels[sy.channel.index()]);
                Action::Sync {
                    label: if id_indexed {
                        remap_label(label, |idx| p.map_id(idx))
                    } else {
                        label.clone()
                    },
                    sender: (AutomatonId(p.aut_map[sender.0.index()]), sender.1),
                    receivers: receivers
                        .iter()
                        .map(|(r, e)| (AutomatonId(p.aut_map[r.index()]), *e))
                        .collect(),
                }
            }
        }
    }

    /// The composition `a ∘ b` (apply `b`, then `a`).
    #[must_use]
    pub fn compose(&self, net: &Network, a: &Perm, b: &Perm) -> Perm {
        let mut id_map: Vec<(i64, i64)> = b
            .id_map
            .iter()
            .map(|&(from, mid)| (from, a.map_id(mid)))
            .collect();
        // Ids moved by `a` but fixed by `b` must still move.
        for &(from, to) in &a.id_map {
            if !id_map.iter().any(|&(f, _)| f == from) {
                id_map.push((from, to));
            }
        }
        self.perm_from_id_map(net, id_map)
    }

    /// The inverse group element.
    #[must_use]
    pub fn invert(&self, net: &Network, p: &Perm) -> Perm {
        let id_map = p.id_map.iter().map(|&(from, to)| (to, from)).collect();
        self.perm_from_id_map(net, id_map)
    }

    /// Canonicalizes a state: the lexicographically smallest image of
    /// `s` under the group, together with the index of the permutation
    /// that produced it.
    #[must_use]
    pub fn canonicalize(&self, net: &Network, s: &SymState) -> (SymState, usize) {
        let mut best = s.clone();
        let mut best_idx = 0;
        for (i, p) in self.perms.iter().enumerate().skip(1) {
            let cand = self.apply(net, p, s);
            if state_key(&cand) < state_key(&best) {
                best = cand;
                best_idx = i;
            }
        }
        (best, best_idx)
    }
}

/// Comparison key of a state for canonical-representative selection.
fn state_key(s: &SymState) -> (&[crate::model::LocationId], &tempo_expr::Store, Vec<i64>) {
    (
        &s.locs,
        &s.store,
        s.zone.as_slice().iter().map(|b| b.raw()).collect(),
    )
}

/// Rewrites the resolved index inside a sync label `chan[idx]` /
/// `chan[idx]!!`.
fn remap_label(label: &str, map: impl Fn(i64) -> i64) -> String {
    let (Some(open), Some(close)) = (label.find('['), label.rfind(']')) else {
        return label.to_owned();
    };
    let Ok(idx) = label[open + 1..close].parse::<i64>() else {
        return label.to_owned();
    };
    format!("{}[{}]{}", &label[..open], map(idx), &label[close + 1..])
}

/// Realizes a canonicalized trace as a concrete run of the original
/// network: `steps` are `(state, action-into-state, perm-index)` from
/// the initial state to the witness, as stored by the search; the
/// returned states and actions form an actual (symmetric) execution.
#[must_use]
pub fn realize(
    sym: &Symmetry,
    net: &Network,
    steps: &[(SymState, Option<Action>, usize)],
) -> Vec<(SymState, Option<Action>)> {
    let mut out = Vec::with_capacity(steps.len());
    let mut q: Option<Perm> = None;
    for (state, action, pidx) in steps {
        let p_inv = sym.invert(net, sym.perm(*pidx));
        let action = action.as_ref().map(|a| {
            q.as_ref()
                .map_or_else(|| a.clone(), |q| sym.apply_action(net, q, a))
        });
        let q_next = match &q {
            None => p_inv,
            Some(q) => sym.compose(net, q, &p_inv),
        };
        out.push((sym.apply(net, &q_next, state), action));
        q = Some(q_next);
    }
    out
}

/// A group of automata that look like replicated instances of one
/// template but cannot form a symmetry orbit, with the structural
/// obstacle that makes the reduction reject them.
///
/// Produced by [`near_miss_orbits`] for lint-level feedback: a modeller
/// who intended the components to be interchangeable gets told exactly
/// what breaks the symmetry, instead of silently losing the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NearMiss {
    /// Names of the automata in the would-be orbit.
    pub automata: Vec<String>,
    /// Human-readable description of the obstacle.
    pub reason: String,
}

/// Finds groups of automata that coarsely match (same location count and
/// edge graph shape, including channel usage) but fail the *structural*
/// orbit checks of [`Symmetry::detect`]: unequal normalized templates,
/// shared member clocks, duplicate or ambiguous identity constants, or a
/// mix of identified and anonymous members.
///
/// Groups that pass every structural check are **not** reported — they
/// are genuine orbit candidates (whether the reduction ultimately
/// applies also depends on the query formulas and the identity data
/// flow, which is per-analysis information a static lint cannot see).
#[must_use]
pub fn near_miss_orbits(net: &Network) -> Vec<NearMiss> {
    // Coarse shape: location count plus the edge graph with channel
    // endpoints — what stays identical across instances of one template
    // even when a guard constant or a reset was edited on one copy.
    type Shape = (usize, Vec<ShapeEdge>);
    let clock_users = clock_usage(net);
    let mut groups: BTreeMap<Shape, Vec<usize>> = BTreeMap::new();
    for (ai, a) in net.automata.iter().enumerate() {
        let mut edges: Vec<ShapeEdge> = a
            .edges
            .iter()
            .map(|e| {
                (
                    e.from.index(),
                    e.to.index(),
                    e.sync.as_ref().map(|s| {
                        (
                            s.channel.index(),
                            matches!(s.dir, crate::model::SyncDir::Send),
                        )
                    }),
                )
            })
            .collect();
        edges.sort_unstable();
        groups
            .entry((a.locations.len(), edges))
            .or_default()
            .push(ai);
    }

    let mut out = Vec::new();
    for (_, group) in groups {
        if group.len() < 2 {
            continue;
        }
        let names = |idxs: &[usize]| -> Vec<String> {
            idxs.iter()
                .map(|&ai| net.automata[ai].name.clone())
                .collect()
        };
        let report = |reason: &str, out: &mut Vec<NearMiss>| {
            out.push(NearMiss {
                automata: names(&group),
                reason: reason.to_owned(),
            });
        };
        // Identity constants: each member must mention at most one.
        let ids: Vec<Option<Option<i64>>> = group
            .iter()
            .map(|&ai| own_id_constant(&net.automata[ai]))
            .collect();
        if ids.iter().any(Option::is_none) {
            report(
                "a member mentions several distinct constants in its channel \
                 indices, so it has no single identity to permute",
                &mut out,
            );
            continue;
        }
        let ids: Vec<Option<i64>> = ids.into_iter().flatten().collect();
        if ids.iter().any(Option::is_some) && ids.iter().any(Option::is_none) {
            report(
                "some members carry an identity constant in their channel \
                 indices and some do not",
                &mut out,
            );
            continue;
        }
        let mut seen = BTreeSet::new();
        if ids.iter().flatten().any(|&id| !seen.insert(id)) {
            // Scalar channels carry an implicit `[0]` index; members that
            // only sync on scalars share that "identity" vacuously, which
            // calls for a different hint than a genuine id collision.
            let any_array = group.iter().any(|&ai| {
                net.automata[ai].edges.iter().any(|e| {
                    e.sync
                        .as_ref()
                        .is_some_and(|s| net.channels[s.channel.index()].size > 1)
                })
            });
            report(
                if any_array {
                    "two members use the same identity constant, so permuting \
                     them would not be injective"
                } else {
                    "members synchronize only on scalar channels and carry no \
                     per-member identity; give each instance its own \
                     channel-array slot to enable the reduction"
                },
                &mut out,
            );
            continue;
        }
        // Structural equality of the normalized templates.
        let norms: Vec<Automaton> = group
            .iter()
            .zip(&ids)
            .map(|(&ai, &own)| {
                let a = &net.automata[ai];
                normalized_template(a, own, &member_clocks(a))
            })
            .collect();
        if let Some(k) = (1..norms.len()).find(|&k| norms[k] != norms[0]) {
            out.push(NearMiss {
                automata: names(&group),
                reason: format!(
                    "{} and {} have the same shape but differ in guards, \
                     invariants, resets or updates; symmetry reduction only \
                     folds exactly identical templates",
                    net.automata[group[0]].name, net.automata[group[k]].name
                ),
            });
            continue;
        }
        // Clock privacy: a member clock read or reset elsewhere couples
        // the members and defeats the clock renaming.
        let shared = group.iter().find_map(|&ai| {
            member_clocks(&net.automata[ai])
                .into_iter()
                .find(|&c| clock_users[c].iter().any(|&u| u != ai))
                .map(|c| (ai, c))
        });
        if let Some((ai, c)) = shared {
            out.push(NearMiss {
                automata: names(&group),
                reason: format!(
                    "clock '{}' of {} is also used by another automaton; \
                     member clocks must be private for the orbit to permute",
                    net.clock_names()
                        .get(c.saturating_sub(1))
                        .map_or("?", String::as_str),
                    net.automata[ai].name
                ),
            });
        }
        // Otherwise: a genuine candidate orbit — nothing to report.
    }
    out
}

/// Which automata use each clock column (guards, invariants, resets).
fn clock_usage(net: &Network) -> Vec<Vec<usize>> {
    let mut users = vec![Vec::new(); net.dim()];
    let note = |col: usize, ai: usize, users: &mut Vec<Vec<usize>>| {
        if col != 0 && !users[col].contains(&ai) {
            users[col].push(ai);
        }
    };
    for (ai, a) in net.automata.iter().enumerate() {
        for l in &a.locations {
            for atom in &l.invariant {
                note(atom.i.index(), ai, &mut users);
                note(atom.j.index(), ai, &mut users);
            }
        }
        for e in &a.edges {
            for atom in &e.guard_clocks {
                note(atom.i.index(), ai, &mut users);
                note(atom.j.index(), ai, &mut users);
            }
            for (c, _) in &e.resets {
                note(c.index(), ai, &mut users);
            }
        }
    }
    users
}

/// The clock columns an automaton uses, in first-use order (the
/// alignment the structural isomorphism maps between members).
fn member_clocks(a: &Automaton) -> Vec<usize> {
    let mut clocks = Vec::new();
    let note = |col: usize, clocks: &mut Vec<usize>| {
        if col != 0 && !clocks.contains(&col) {
            clocks.push(col);
        }
    };
    for l in &a.locations {
        for atom in &l.invariant {
            note(atom.i.index(), &mut clocks);
            note(atom.j.index(), &mut clocks);
        }
    }
    for e in &a.edges {
        for atom in &e.guard_clocks {
            note(atom.i.index(), &mut clocks);
            note(atom.j.index(), &mut clocks);
        }
        for (c, _) in &e.resets {
            note(c.index(), &mut clocks);
        }
    }
    clocks
}

/// The single constant used in the automaton's sync-index expressions
/// (its identity); `Some(None)` if it syncs without any constant or not
/// at all (an anonymous candidate); `None` if several distinct constants
/// appear (not a template instance we can handle).
fn own_id_constant(a: &Automaton) -> Option<Option<i64>> {
    let mut consts = BTreeSet::new();
    for e in &a.edges {
        if let Some(sync) = &e.sync {
            collect_consts(&sync.index, &mut consts);
        }
    }
    match consts.len() {
        0 => Some(None),
        1 => Some(consts.into_iter().next()),
        _ => None,
    }
}

fn collect_consts(e: &Expr, out: &mut BTreeSet<i64>) {
    match e {
        Expr::Const(c) => {
            out.insert(*c);
        }
        Expr::Var(_) | Expr::Select(_) => {}
        Expr::Index(_, i) => collect_consts(i, out),
        Expr::Unary(_, a) => collect_consts(a, out),
        Expr::Binary(_, a, b) => {
            collect_consts(a, out);
            collect_consts(b, out);
        }
    }
}

/// A copy of the automaton with its name cleared, private clocks
/// renumbered to `1..` in first-use order and its identity constant
/// replaced by a placeholder in sync indices — equal normalized
/// templates are exactly the symmetric ones.
fn normalized_template(a: &Automaton, own_id: Option<i64>, clocks: &[usize]) -> Automaton {
    let map_clock = |c: Clock| -> Clock {
        match clocks.iter().position(|&k| k == c.index()) {
            Some(pos) => Clock(pos + 1),
            None => c,
        }
    };
    let map_atom = |atom: &ClockAtom| ClockAtom {
        i: map_clock(atom.i),
        j: map_clock(atom.j),
        bound: atom.bound,
    };
    let mut norm = a.clone();
    norm.name = String::new();
    for l in &mut norm.locations {
        for atom in &mut l.invariant {
            *atom = map_atom(atom);
        }
    }
    for e in &mut norm.edges {
        for atom in &mut e.guard_clocks {
            *atom = map_atom(atom);
        }
        for (c, _) in &mut e.resets {
            *c = map_clock(*c);
        }
        if let Some(sync) = &mut e.sync {
            if let Some(id) = own_id {
                sync.index = substitute_const(&sync.index, id, i64::MIN);
            }
        }
    }
    norm
}

fn substitute_const(e: &Expr, from: i64, to: i64) -> Expr {
    match e {
        Expr::Const(c) if *c == from => Expr::Const(to),
        Expr::Const(_) | Expr::Var(_) | Expr::Select(_) => e.clone(),
        Expr::Index(v, i) => Expr::Index(*v, Box::new(substitute_const(i, from, to))),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(substitute_const(a, from, to))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(substitute_const(a, from, to)),
            Box::new(substitute_const(b, from, to)),
        ),
    }
}

/// What an expression denotes with respect to component identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Definitely an identity value (marked variable, covering select).
    Id,
    /// A literal constant.
    Const(i64),
    /// Ordinary data, provably identity-free.
    Plain,
}

/// The identity data-flow scan. Every method returns `None` to signal
/// "identity flow we cannot track — disable symmetry".
struct Scan<'a> {
    marked: &'a [VarId],
    ids: &'a BTreeSet<i64>,
    pins: &'a mut BTreeSet<i64>,
    /// When scanning a member's edges, that member's own identity
    /// constant (it transforms covariantly with the automaton).
    own: Option<i64>,
}

impl Scan<'_> {
    fn is_marked(&self, v: VarId) -> bool {
        self.marked.contains(&v)
    }

    /// Whether a select binding ranges over (at least) every identity,
    /// making it identity-shaped: the set of instances it quantifies is
    /// closed under the orbit permutations.
    fn select_covers(&self, k: usize, selects: &[(i64, i64)]) -> bool {
        selects.get(k).is_some_and(|&(lo, hi)| {
            self.ids.first().is_some_and(|&min| lo <= min)
                && self.ids.last().is_some_and(|&max| hi >= max)
        })
    }

    fn pin(&mut self, c: i64) {
        if self.ids.contains(&c) {
            self.pins.insert(c);
        }
    }

    fn classify(&mut self, e: &Expr, selects: &[(i64, i64)]) -> Option<Kind> {
        Some(match e {
            Expr::Const(c) => Kind::Const(*c),
            Expr::Var(v) => {
                if self.is_marked(*v) {
                    Kind::Id
                } else {
                    Kind::Plain
                }
            }
            Expr::Index(v, idx) => {
                let ki = self.classify(idx, selects)?;
                if self.is_marked(*v) {
                    // Subscripts of marked arrays are positions; an
                    // identity-valued subscript would couple position
                    // and identity.
                    if ki == Kind::Id {
                        return None;
                    }
                    Kind::Id
                } else {
                    if ki == Kind::Id {
                        return None; // data array subscripted by an id
                    }
                    Kind::Plain
                }
            }
            Expr::Select(k) => {
                if self.select_covers(*k, selects) {
                    Kind::Id
                } else {
                    Kind::Plain
                }
            }
            Expr::Unary(op, a) => {
                let ka = self.classify(a, selects)?;
                match (op, ka) {
                    (_, Kind::Id) => return None,
                    (UnOp::Neg, Kind::Const(c)) => Kind::Const(-c),
                    _ => Kind::Plain,
                }
            }
            Expr::Binary(op, a, b) => {
                let ka = self.classify(a, selects)?;
                let kb = self.classify(b, selects)?;
                match op {
                    BinOp::Eq | BinOp::Ne => match (ka, kb) {
                        (Kind::Id, Kind::Const(c)) | (Kind::Const(c), Kind::Id) => {
                            self.pin(c);
                            Kind::Plain
                        }
                        (Kind::Id, Kind::Id) => Kind::Plain,
                        (Kind::Id, Kind::Plain) | (Kind::Plain, Kind::Id) => return None,
                        _ => Kind::Plain,
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        // Orderings are not permutation-invariant.
                        if ka == Kind::Id || kb == Kind::Id {
                            return None;
                        }
                        Kind::Plain
                    }
                    _ => {
                        // Arithmetic/boolean ops on identities break the
                        // bijection.
                        if ka == Kind::Id || kb == Kind::Id {
                            return None;
                        }
                        match (ka, kb, op) {
                            (Kind::Const(x), Kind::Const(y), BinOp::Add) => Kind::Const(x + y),
                            (Kind::Const(x), Kind::Const(y), BinOp::Sub) => Kind::Const(x - y),
                            (Kind::Const(x), Kind::Const(y), BinOp::Mul) => Kind::Const(x * y),
                            _ => Kind::Plain,
                        }
                    }
                }
            }
        })
    }

    fn guard(&mut self, e: &Expr, selects: &[(i64, i64)]) -> Option<()> {
        (self.classify(e, selects)? != Kind::Id).then_some(())
    }

    fn stmt(&mut self, s: &Stmt, selects: &[(i64, i64)]) -> Option<()> {
        match s {
            Stmt::Skip => Some(()),
            Stmt::Assign(v, e) => self.assignment(*v, e, selects),
            Stmt::AssignIndex(v, idx, e) => {
                if self.classify(idx, selects)? == Kind::Id {
                    return None; // position ↔ identity coupling
                }
                self.assignment(*v, e, selects)
            }
            Stmt::Seq(ss) => {
                for s in ss {
                    self.stmt(s, selects)?;
                }
                Some(())
            }
            Stmt::If(c, t, e) => {
                self.guard(c, selects)?;
                self.stmt(t, selects)?;
                self.stmt(e, selects)
            }
            Stmt::While(c, b) => {
                self.guard(c, selects)?;
                self.stmt(b, selects)
            }
        }
    }

    fn assignment(&mut self, v: VarId, e: &Expr, selects: &[(i64, i64)]) -> Option<()> {
        let k = self.classify(e, selects)?;
        if self.is_marked(v) {
            match k {
                Kind::Id => Some(()),
                Kind::Const(c) => {
                    self.pin(c);
                    Some(())
                }
                Kind::Plain => None, // untracked value flows into an id slot
            }
        } else {
            (k != Kind::Id).then_some(()) // an id escapes into plain data
        }
    }

    /// A sync-index expression. On an identity-indexed channel the index
    /// names a component: constants pin (unless they are the scanning
    /// member's own id, which transforms covariantly with the automaton
    /// itself — the `chan[my_id]` idiom, the one spot where template
    /// normalization substitutes the constant away), plain variables are
    /// untrackable.
    fn sync_index(&mut self, e: &Expr, selects: &[(i64, i64)], id_indexed: bool) -> Option<()> {
        if id_indexed {
            if let (Expr::Const(c), Some(own)) = (e, self.own) {
                if *c == own {
                    return Some(());
                }
            }
        }
        let k = self.classify(e, selects)?;
        if !id_indexed {
            return (k != Kind::Id).then_some(());
        }
        match k {
            Kind::Id => Some(()),
            Kind::Const(c) => {
                self.pin(c);
                Some(())
            }
            Kind::Plain => None,
        }
    }
}

/// Whether the formula is free of untrackable identity references: a
/// [`StateFormula::Data`] atom reading a marked variable can compare
/// identities in ways the transposition check cannot rewrite, so any
/// such read disables symmetry outright.
fn formula_tracks_ids(f: &StateFormula, marked: &[VarId]) -> bool {
    match f {
        StateFormula::True
        | StateFormula::False
        | StateFormula::At(_, _)
        | StateFormula::Clock(_) => true,
        StateFormula::Data(e) => !expr_reads_marked(e, marked),
        StateFormula::Not(g) => formula_tracks_ids(g, marked),
        StateFormula::And(gs) | StateFormula::Or(gs) => {
            gs.iter().all(|g| formula_tracks_ids(g, marked))
        }
    }
}

fn expr_reads_marked(e: &Expr, marked: &[VarId]) -> bool {
    match e {
        Expr::Const(_) | Expr::Select(_) => false,
        Expr::Var(v) => marked.contains(v),
        Expr::Index(v, i) => marked.contains(v) || expr_reads_marked(i, marked),
        Expr::Unary(_, a) => expr_reads_marked(a, marked),
        Expr::Binary(_, a, b) => expr_reads_marked(a, marked) || expr_reads_marked(b, marked),
    }
}

/// Whether `f` is invariant under swapping members with identities `a`
/// and `b`, comparing normalized forms so that commutative `And`/`Or`
/// reorderings do not count as differences.
fn transposition_invariant(f: &StateFormula, members: &[Member], a: i64, b: i64) -> bool {
    let ma = members.iter().find(|m| m.id == a).expect("member by id");
    let mb = members.iter().find(|m| m.id == b).expect("member by id");
    let swapped = swap_formula(f, ma, mb);
    Fingerprint::of(&normalize_formula(&swapped)) == Fingerprint::of(&normalize_formula(f))
}

fn swap_formula(f: &StateFormula, a: &Member, b: &Member) -> StateFormula {
    let swap_aut = |x: AutomatonId| -> AutomatonId {
        if x.index() == a.aut {
            AutomatonId(b.aut)
        } else if x.index() == b.aut {
            AutomatonId(a.aut)
        } else {
            x
        }
    };
    let swap_clock = |c: Clock| -> Clock {
        if let Some(pos) = a.clocks.iter().position(|&k| k == c.index()) {
            Clock(b.clocks[pos])
        } else if let Some(pos) = b.clocks.iter().position(|&k| k == c.index()) {
            Clock(a.clocks[pos])
        } else {
            c
        }
    };
    match f {
        StateFormula::True => StateFormula::True,
        StateFormula::False => StateFormula::False,
        StateFormula::At(aut, loc) => StateFormula::At(swap_aut(*aut), *loc),
        StateFormula::Data(e) => StateFormula::Data(e.clone()),
        StateFormula::Clock(atom) => StateFormula::Clock(ClockAtom {
            i: swap_clock(atom.i),
            j: swap_clock(atom.j),
            bound: atom.bound,
        }),
        StateFormula::Not(g) => StateFormula::Not(Box::new(swap_formula(g, a, b))),
        StateFormula::And(gs) => {
            StateFormula::And(gs.iter().map(|g| swap_formula(g, a, b)).collect())
        }
        StateFormula::Or(gs) => {
            StateFormula::Or(gs.iter().map(|g| swap_formula(g, a, b)).collect())
        }
    }
}

fn normalize_formula(f: &StateFormula) -> StateFormula {
    match f {
        StateFormula::And(gs) => {
            let mut norm: Vec<StateFormula> = gs.iter().map(normalize_formula).collect();
            norm.sort_by_key(Fingerprint::of);
            StateFormula::And(norm)
        }
        StateFormula::Or(gs) => {
            let mut norm: Vec<StateFormula> = gs.iter().map(normalize_formula).collect();
            norm.sort_by_key(Fingerprint::of);
            StateFormula::Or(norm)
        }
        StateFormula::Not(g) => StateFormula::Not(Box::new(normalize_formula(g))),
        other => other.clone(),
    }
}

/// Enumeration of all permutations of `v[k..]`, invoking `f` on the
/// whole slice for each.
fn permutations(v: &mut [i64], k: usize, f: &mut impl FnMut(&[i64])) {
    if k + 1 >= v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permutations(v, k + 1, f);
        v.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LocationId, NetworkBuilder};

    /// `n` identical lamps (no channels, no data): an anonymous orbit.
    fn lamps(n: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let clocks: Vec<_> = (0..n).map(|i| b.clock(&format!("x{i}"))).collect();
        for (i, &x) in clocks.iter().enumerate() {
            let mut a = b.automaton(&format!("Lamp{i}"));
            let off = a.location("Off");
            let on = a.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
            a.edge(off, on).reset(x, 0).done();
            a.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
            a.done();
        }
        b.build()
    }

    #[test]
    fn detects_anonymous_orbit() {
        let net = lamps(3);
        let sym = Symmetry::detect(&net, &[&StateFormula::True]).expect("orbit");
        assert_eq!(sym.members.len(), 3);
        assert_eq!(sym.group_size(), 6);
        assert!(sym.perm(0).is_identity());
        assert_eq!(sym.orbit_count(), 1);
    }

    #[test]
    fn at_formula_pins_the_named_member() {
        let net = lamps(4);
        let goal = StateFormula::At(AutomatonId(0), LocationId(1));
        let sym = Symmetry::detect(&net, &[&goal]).expect("orbit");
        // Lamp 0 is pinned; lamps 1–3 stay permutable: 3! elements.
        assert_eq!(sym.group_size(), 6);
    }

    #[test]
    fn symmetric_states_share_a_representative() {
        let net = lamps(3);
        let sym = Symmetry::detect(&net, &[&StateFormula::True]).expect("orbit");
        let exp = crate::Explorer::new(&net);
        let init = exp.initial_state();
        // The three "lamp i switches on" successors form one orbit.
        let succs = exp.successors(&init);
        assert_eq!(succs.len(), 3);
        let reps: Vec<_> = succs
            .iter()
            .map(|(_, s)| sym.canonicalize(&net, s).0)
            .collect();
        assert_eq!(reps[0], reps[1]);
        assert_eq!(reps[1], reps[2]);
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let net = lamps(3);
        let sym = Symmetry::detect(&net, &[&StateFormula::True]).expect("orbit");
        let exp = crate::Explorer::new(&net);
        for (_, s) in exp.successors(&exp.initial_state()) {
            let (c1, _) = sym.canonicalize(&net, &s);
            let (c2, idx) = sym.canonicalize(&net, &c1);
            assert_eq!(c1, c2);
            assert_eq!(idx, 0, "a representative maps to itself");
        }
    }

    #[test]
    fn compose_and_invert_round_trip() {
        let net = lamps(3);
        let sym = Symmetry::detect(&net, &[&StateFormula::True]).expect("orbit");
        let exp = crate::Explorer::new(&net);
        let (_, s) = exp.successors(&exp.initial_state()).remove(0);
        for i in 0..sym.group_size() {
            let p = sym.perm(i).clone();
            let inv = sym.invert(&net, &p);
            let round = sym.compose(&net, &inv, &p);
            assert!(round.is_identity());
            let back = sym.apply(&net, &inv, &sym.apply(&net, &p, &s));
            assert_eq!(back, s);
        }
    }
}
