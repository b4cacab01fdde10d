//! Probabilistic timed automata: the semantic object MODEST models
//! compile to, with a digital-clocks explorer used by `mcpta` and
//! `modes`.

use crate::ast::ActionId;
use std::collections::BTreeSet;
use tempo_dbm::Clock;
use tempo_expr::{expr_vars, Decls, Expr, Stmt, Store, VarId};
use tempo_flow::{
    eval, expr_can_trap, relevant_vars, stmt_assignments, truth, Command, Env, LuAutomaton,
    LuBounds, LuEdge, RangeAnalysis, Truth, NO_BOUND,
};
use tempo_ta::flow::atom_bounds;
use tempo_ta::{ClockAtom, StateFormula};

/// One probabilistic branch of a PTA edge.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaBranch {
    /// Relative weight.
    pub weight: u64,
    /// Variable assignments (in order).
    pub assignments: Vec<(AssignTarget, Expr)>,
    /// Clock resets.
    pub resets: Vec<(Clock, i64)>,
    /// Target location.
    pub to: usize,
}

/// Assignment target: scalar or array element.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignTarget {
    /// A scalar variable.
    Var(VarId),
    /// `array[index]`.
    ArrayElem(VarId, Expr),
}

/// An edge of a PTA: guard, action, and a distribution over branches.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaEdge {
    /// Source location.
    pub from: usize,
    /// Clock guard atoms.
    pub guard_clocks: Vec<ClockAtom>,
    /// Data guard.
    pub guard_data: Expr,
    /// Action (`None` for internal).
    pub action: Option<ActionId>,
    /// Weighted branches (weights need not be normalized).
    pub branches: Vec<PtaBranch>,
}

/// A location of a PTA.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaLocation {
    /// Name for diagnostics.
    pub name: String,
    /// Invariant atoms.
    pub invariant: Vec<ClockAtom>,
}

/// One component automaton of a PTA network.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaAutomaton {
    /// Component name (the MODEST process name).
    pub name: String,
    /// Locations.
    pub locations: Vec<PtaLocation>,
    /// Edges.
    pub edges: Vec<PtaEdge>,
    /// Initial location.
    pub initial: usize,
}

/// How an action synchronizes in the composed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// Used by at most one component: fires alone.
    Local,
    /// Used by exactly two components: CSP handshake between them.
    Pair(usize, usize),
}

/// A network of probabilistic timed automata with CSP-style action
/// synchronization, produced by compiling a
/// [`ModestModel`](crate::ModestModel).
#[derive(Debug, Clone)]
pub struct Pta {
    /// Variable declarations.
    pub decls: Decls,
    /// DBM dimension (clocks + reference).
    pub dim: usize,
    /// Action names.
    pub actions: Vec<String>,
    /// Component automata.
    pub automata: Vec<PtaAutomaton>,
    /// Synchronization structure per action.
    pub sync: Vec<SyncKind>,
}

impl Pta {
    /// Per-clock maximal constants over guards and invariants.
    #[must_use]
    pub fn max_constants(&self) -> Vec<i64> {
        let mut m = vec![0_i64; self.dim];
        let mut feed = |atom: &ClockAtom| {
            if atom.bound.is_inf() {
                return;
            }
            let c = atom.bound.constant().abs();
            if !atom.i.is_ref() {
                m[atom.i.index()] = m[atom.i.index()].max(c);
            }
            if !atom.j.is_ref() {
                m[atom.j.index()] = m[atom.j.index()].max(c);
            }
        };
        for a in &self.automata {
            for l in &a.locations {
                l.invariant.iter().for_each(&mut feed);
            }
            for e in &a.edges {
                e.guard_clocks.iter().for_each(&mut feed);
            }
        }
        m
    }
}

/// The result of active-clock reduction over a PTA: the reduced PTA plus
/// the clock map, mirroring [`tempo_ta::ClockReduction`] for the MODEST
/// pipeline. A clock read by no guard, invariant or protected atom can
/// never influence enabledness or branching, so removing it (and its
/// resets) preserves every probability and expected value; only the
/// per-state clock vector shrinks.
#[derive(Debug, Clone)]
pub struct PtaReduction {
    pta: Pta,
    /// `map[i]` is the reduced index of original clock `i` (`None` when
    /// removed); `map[0]` is the reference clock.
    map: Vec<Option<Clock>>,
    original_dim: usize,
}

impl PtaReduction {
    /// The reduced PTA.
    #[must_use]
    pub fn pta(&self) -> &Pta {
        &self.pta
    }

    /// Clock-space dimension after reduction.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.pta.dim
    }

    /// Clock-space dimension of the original PTA.
    #[must_use]
    pub fn original_dim(&self) -> usize {
        self.original_dim
    }

    /// Whether any clock was removed.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self.pta.dim < self.original_dim
    }

    /// Maps a constraint atom into the reduced clock space (`None` if it
    /// reads a removed clock).
    #[must_use]
    pub fn map_atom(&self, atom: &ClockAtom) -> Option<ClockAtom> {
        Some(ClockAtom {
            i: self.map.get(atom.i.index()).copied().flatten()?,
            j: self.map.get(atom.j.index()).copied().flatten()?,
            bound: atom.bound,
        })
    }

    /// Maps a state formula into the reduced clock space (`None` if it
    /// reads a removed clock).
    #[must_use]
    pub fn map_formula(&self, f: &StateFormula) -> Option<StateFormula> {
        Some(match f {
            StateFormula::True => StateFormula::True,
            StateFormula::False => StateFormula::False,
            StateFormula::At(a, l) => StateFormula::At(*a, *l),
            StateFormula::Data(e) => StateFormula::Data(e.clone()),
            StateFormula::Clock(atom) => StateFormula::Clock(self.map_atom(atom)?),
            StateFormula::Not(g) => StateFormula::not(self.map_formula(g)?),
            StateFormula::And(gs) => StateFormula::and(
                gs.iter()
                    .map(|g| self.map_formula(g))
                    .collect::<Option<Vec<_>>>()?,
            ),
            StateFormula::Or(gs) => StateFormula::or(
                gs.iter()
                    .map(|g| self.map_formula(g))
                    .collect::<Option<Vec<_>>>()?,
            ),
        })
    }
}

impl Pta {
    /// Active-clock reduction keeping the clocks of `extra` atoms alive
    /// (pass every property atom used by later queries). See
    /// [`PtaReduction`].
    #[must_use]
    pub fn reduced_with(&self, extra: &[ClockAtom]) -> PtaReduction {
        let mut read = vec![false; self.dim];
        read[0] = true;
        let feed = |read: &mut Vec<bool>, atom: &ClockAtom| {
            read[atom.i.index()] = true;
            read[atom.j.index()] = true;
        };
        for a in &self.automata {
            for l in &a.locations {
                for atom in &l.invariant {
                    feed(&mut read, atom);
                }
            }
            for e in &a.edges {
                for atom in &e.guard_clocks {
                    feed(&mut read, atom);
                }
            }
        }
        for atom in extra {
            feed(&mut read, atom);
        }

        let mut map: Vec<Option<Clock>> = vec![None; self.dim];
        map[0] = Some(Clock::REF);
        let mut kept = 0_usize;
        for i in 1..self.dim {
            if read[i] {
                kept += 1;
                map[i] = Some(Clock(kept));
            }
        }
        let remap = |atom: &ClockAtom| ClockAtom {
            i: map[atom.i.index()].expect("read clocks are kept"),
            j: map[atom.j.index()].expect("read clocks are kept"),
            bound: atom.bound,
        };
        let automata = self
            .automata
            .iter()
            .map(|a| PtaAutomaton {
                name: a.name.clone(),
                locations: a
                    .locations
                    .iter()
                    .map(|l| PtaLocation {
                        name: l.name.clone(),
                        invariant: l.invariant.iter().map(&remap).collect(),
                    })
                    .collect(),
                edges: a
                    .edges
                    .iter()
                    .map(|e| PtaEdge {
                        from: e.from,
                        guard_clocks: e.guard_clocks.iter().map(&remap).collect(),
                        guard_data: e.guard_data.clone(),
                        action: e.action,
                        branches: e
                            .branches
                            .iter()
                            .map(|b| PtaBranch {
                                weight: b.weight,
                                assignments: b.assignments.clone(),
                                resets: b
                                    .resets
                                    .iter()
                                    .filter_map(|&(c, v)| map[c.index()].map(|nc| (nc, v)))
                                    .collect(),
                                to: b.to,
                            })
                            .collect(),
                    })
                    .collect(),
                initial: a.initial,
            })
            .collect();
        PtaReduction {
            pta: Pta {
                decls: self.decls.clone(),
                dim: kept + 1,
                actions: self.actions.clone(),
                automata,
                sync: self.sync.clone(),
            },
            map,
            original_dim: self.dim,
        }
    }
}

/// Per-location LU clock-bound tables of a PTA: one solved table per
/// component automaton, combined per state by pointwise maximum (see
/// `tempo_ta::flow::NetworkLu` for the soundness argument — component
/// solutions are non-increasing along reset-free edges and unchanged
/// for non-participants of a synchronization).
#[derive(Debug, Clone)]
pub struct PtaLu {
    per_automaton: Vec<LuBounds>,
    dim: usize,
}

impl PtaLu {
    /// Solves the LU fixpoint of every component automaton; the
    /// `protect` atoms (property bounds, observable in every location)
    /// are folded into the tables. Each probabilistic branch becomes
    /// its own solver edge (same guard, its own resets and target).
    #[must_use]
    pub fn analyze(pta: &Pta, protect: &[ClockAtom]) -> PtaLu {
        let dim = pta.dim;
        let mut per_automaton: Vec<LuBounds> = pta
            .automata
            .iter()
            .map(|a| {
                let lu = LuAutomaton {
                    locations: a.locations.len(),
                    edges: a
                        .edges
                        .iter()
                        .flat_map(|e| {
                            let mut lower = Vec::new();
                            let mut upper = Vec::new();
                            for atom in &e.guard_clocks {
                                atom_bounds(atom, &mut lower, &mut upper);
                            }
                            e.branches
                                .iter()
                                .map(|b| LuEdge {
                                    from: e.from,
                                    to: b.to,
                                    resets: b.resets.iter().map(|(c, _)| c.index()).collect(),
                                    lower: lower.clone(),
                                    upper: upper.clone(),
                                })
                                .collect::<Vec<_>>()
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
        PtaLu { per_automaton, dim }
    }

    /// Writes the per-clock tick clamp for the discrete configuration
    /// `locs` into `out`: `max(L, U) + 1` of the pointwise component
    /// maxima, so a clock past every constant still observable from
    /// here stops counting one unit above the largest such constant.
    pub fn clamp(&self, locs: &[usize], out: &mut Vec<i64>) {
        out.clear();
        out.resize(self.dim, NO_BOUND);
        for (b, &l) in self.per_automaton.iter().zip(locs) {
            for (x, slot) in out.iter_mut().enumerate().skip(1) {
                let m = b.lower[l][x].max(b.upper[l][x]);
                if m > *slot {
                    *slot = m;
                }
            }
        }
        for v in out.iter_mut() {
            *v = (*v).max(0) + 1;
        }
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

/// One branch's assignments as a [`Stmt`] for the dataflow solvers.
fn branch_stmt(b: &PtaBranch) -> Stmt {
    Stmt::Seq(
        b.assignments
            .iter()
            .map(|(target, e)| match target {
                AssignTarget::Var(id) => Stmt::Assign(*id, e.clone()),
                AssignTarget::ArrayElem(id, idx) => Stmt::AssignIndex(*id, idx.clone(), e.clone()),
            })
            .collect(),
    )
}

/// The global interval range fixpoint of a PTA: every branch of every
/// edge is one guarded command.
#[must_use]
pub fn pta_ranges(pta: &Pta) -> RangeAnalysis {
    let mut commands = Vec::new();
    for a in &pta.automata {
        for e in &a.edges {
            for b in &e.branches {
                commands.push(Command {
                    guard: e.guard_data.clone(),
                    update: branch_stmt(b),
                    selects: Vec::new(),
                });
            }
        }
    }
    RangeAnalysis::run(&pta.decls, &commands)
}

/// The result of slicing a PTA (see [`slice()`]).
#[derive(Debug, Clone)]
pub struct PtaSlice {
    /// The sliced PTA: disabled edges keep their index but can never
    /// fire (guard rewritten to `false`, branches dropped).
    pub pta: Pta,
    /// Edges disabled: guard provably false under the range fixpoint,
    /// or a pair-synchronizing action whose partner component has no
    /// live edge for that action.
    pub disabled_edges: u64,
    /// Variables whose range fixpoint is strictly inside the declared
    /// range.
    pub vars_narrowed: u64,
    /// Write-only variables outside the cone of influence of every
    /// observable expression (guards and array indices of live edges).
    pub dead_vars: Vec<VarId>,
    /// Assignments to dead variables removed by freezing.
    pub frozen_assignments: u64,
}

/// Query-directed slicing of a PTA.
///
/// Two reductions, both exact for every probability and expected value:
///
/// * **Dead edges** — an edge whose data guard is provably false under
///   the global range fixpoint can never fire, and disabling it may
///   strand pair-synchronizing partners, which die in the same fixpoint
///   loop. Edge indices are preserved.
/// * **Variable freezing** — when `freeze` is given, assignments to
///   variables outside the cone of influence of every observable
///   expression (and not in `freeze`) are removed, merging digital
///   states that differ only in values nothing can ever read. Only
///   assignments that provably cannot trap (no division/remainder/array
///   read on the right-hand side, value inside the target's declared
///   range) are removed, preserving the branch-failure semantics of the
///   explorer. Pass the variables later queries read in `freeze`; with
///   `None` no assignment is touched and dead variables are only
///   reported.
#[must_use]
pub fn slice(pta: &Pta, freeze: Option<&BTreeSet<VarId>>) -> PtaSlice {
    let ranges = pta_ranges(pta);
    let env = ranges.env(&pta.decls);
    let vars_narrowed = ranges.narrowed(&pta.decls) as u64;
    let mut out = pta.clone();

    // Pass 1: guard-false edges, then strand pair partners to fixpoint.
    let mut disabled: Vec<Vec<bool>> = pta
        .automata
        .iter()
        .map(|a| {
            a.edges
                .iter()
                .map(|e| truth(&e.guard_data, &pta.decls, &env, &[]) == Truth::False)
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        let live_action = |ai: usize, act: ActionId, disabled: &[Vec<bool>]| {
            pta.automata[ai]
                .edges
                .iter()
                .enumerate()
                .any(|(ei, e)| e.action == Some(act) && !disabled[ai][ei])
        };
        for (ai, a) in pta.automata.iter().enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                if disabled[ai][ei] {
                    continue;
                }
                let Some(act) = e.action else { continue };
                let SyncKind::Pair(first, second) = pta.sync[act.0] else {
                    continue;
                };
                let partner = if ai == first { second } else { first };
                if !live_action(partner, act, &disabled) {
                    disabled[ai][ei] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut disabled_edges = 0_u64;
    for (ai, a) in out.automata.iter_mut().enumerate() {
        for (ei, e) in a.edges.iter_mut().enumerate() {
            if disabled[ai][ei] {
                disabled_edges += 1;
                e.guard_clocks.clear();
                e.guard_data = Expr::konst(0);
                e.branches.clear();
            }
        }
    }

    // Pass 2: cone of influence over the live edges.
    let mut seeds = BTreeSet::new();
    let mut assigns = Vec::new();
    for a in &out.automata {
        for e in &a.edges {
            expr_vars(&e.guard_data, &mut seeds);
            for b in &e.branches {
                for (target, _) in &b.assignments {
                    if let AssignTarget::ArrayElem(_, idx) = target {
                        expr_vars(idx, &mut seeds);
                    }
                }
                stmt_assignments(&branch_stmt(b), &mut assigns);
            }
        }
    }
    if let Some(protect) = freeze {
        seeds.extend(protect.iter().copied());
    }
    let relevant = relevant_vars(seeds, &assigns);
    let written: BTreeSet<VarId> = assigns.iter().map(|a| a.target).collect();
    let dead_vars: Vec<VarId> = written
        .into_iter()
        .filter(|v| !relevant.contains(v))
        .collect();

    // Pass 3: freeze dead variables, preserving trap semantics.
    let mut frozen_assignments = 0_u64;
    if freeze.is_some() {
        let empty = Env::new();
        for a in &mut out.automata {
            for e in &mut a.edges {
                for b in &mut e.branches {
                    b.assignments.retain(|(target, rhs)| {
                        let AssignTarget::Var(id) = target else {
                            return true;
                        };
                        if !dead_vars.contains(id) || expr_can_trap(rhs) {
                            return true;
                        }
                        let declared = tempo_flow::var_interval(&pta.decls, &empty, *id);
                        let value = eval(rhs, &pta.decls, &env, &[]);
                        let fits =
                            !value.is_empty() && value.lo >= declared.lo && value.hi <= declared.hi;
                        if fits {
                            frozen_assignments += 1;
                        }
                        !fits
                    });
                }
            }
        }
    }

    PtaSlice {
        pta: out,
        disabled_edges,
        vars_narrowed,
        dead_vars,
        frozen_assignments,
    }
}

/// A concrete digital state of a PTA network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PtaState {
    /// Location of each component.
    pub locs: Vec<usize>,
    /// Variable values.
    pub store: Store,
    /// Integer clock values (clamped; `clocks[0] == 0`).
    pub clocks: Vec<i64>,
}

/// A resolved transition: a label and a distribution over successors.
#[derive(Debug, Clone)]
pub struct PtaTransition {
    /// Human-readable label (action name, `tau`, or `tick`).
    pub label: String,
    /// Whether this is the unit-delay transition.
    pub is_tick: bool,
    /// Successor distribution (probabilities sum to 1).
    pub successors: Vec<(f64, PtaState)>,
}

/// Digital-clocks explorer for PTA networks.
///
/// # Panics
///
/// [`PtaExplorer::new`] panics if the PTA contains strict clock bounds
/// (the digital semantics requires closed models) or an action is used by
/// more than two components.
#[derive(Debug)]
pub struct PtaExplorer<'p> {
    pta: &'p Pta,
    clamp: Vec<i64>,
    /// Per-location LU tables; when present, ticks clamp each clock at
    /// the current location vector's bound instead of the global
    /// maximal constant, merging digital states that are
    /// guard-equivalent for everything still observable.
    lu: Option<PtaLu>,
}

impl<'p> PtaExplorer<'p> {
    /// Creates an explorer; `extra_atoms` widens the clock clamp so that
    /// property constants (e.g. a time bound) remain observable.
    #[must_use]
    pub fn new(pta: &'p Pta, extra_atoms: &[ClockAtom]) -> Self {
        for a in &pta.automata {
            for l in &a.locations {
                for atom in &l.invariant {
                    assert!(
                        atom.bound.is_inf() || !atom.bound.is_strict(),
                        "digital clocks require closed invariants ({})",
                        l.name
                    );
                }
            }
            for e in &a.edges {
                for atom in &e.guard_clocks {
                    assert!(
                        atom.bound.is_inf() || !atom.bound.is_strict(),
                        "digital clocks require closed guards (in {})",
                        a.name
                    );
                }
            }
        }
        let mut consts = pta.max_constants();
        for atom in extra_atoms {
            if atom.bound.is_inf() {
                continue;
            }
            let c = atom.bound.constant().abs();
            if !atom.i.is_ref() {
                consts[atom.i.index()] = consts[atom.i.index()].max(c);
            }
            if !atom.j.is_ref() {
                consts[atom.j.index()] = consts[atom.j.index()].max(c);
            }
        }
        PtaExplorer {
            pta,
            clamp: consts.into_iter().map(|c| c + 1).collect(),
            lu: None,
        }
    }

    /// Switches tick clamping to the per-location LU tables. The caller
    /// must solve the tables with the same protected atoms passed as
    /// `extra_atoms` to [`PtaExplorer::new`], so property constants stay
    /// observable everywhere.
    #[must_use]
    pub fn with_lu(mut self, lu: PtaLu) -> Self {
        self.lu = Some(lu);
        self
    }

    /// The PTA under exploration.
    #[must_use]
    pub fn pta(&self) -> &Pta {
        self.pta
    }

    /// The initial locations and valuation. It is a state of the model
    /// only if the initial locations' invariants hold at it.
    #[must_use]
    pub fn initial_state(&self) -> PtaState {
        PtaState {
            locs: self.pta.automata.iter().map(|a| a.initial).collect(),
            store: self.pta.decls.initial_store(),
            clocks: vec![0; self.pta.dim],
        }
    }

    pub(crate) fn invariants_hold(&self, locs: &[usize], clocks: &[i64]) -> bool {
        self.pta.automata.iter().zip(locs).all(|(a, &l)| {
            a.locations[l]
                .invariant
                .iter()
                .all(|atom| atom.holds_at(clocks))
        })
    }

    /// The unit-delay successor, if the invariants permit it.
    #[must_use]
    pub fn tick(&self, state: &PtaState) -> Option<PtaState> {
        let local = self.lu.as_ref().map(|lu| {
            let mut out = Vec::new();
            lu.clamp(&state.locs, &mut out);
            out
        });
        let clamp = local.as_deref().unwrap_or(&self.clamp);
        let ticked: Vec<i64> = state
            .clocks
            .iter()
            .enumerate()
            .map(|(i, &c)| if i == 0 { 0 } else { (c + 1).min(clamp[i]) })
            .collect();
        self.invariants_hold(&state.locs, &ticked)
            .then(|| PtaState {
                locs: state.locs.clone(),
                store: state.store.clone(),
                clocks: ticked,
            })
    }

    fn edge_enabled(&self, state: &PtaState, e: &PtaEdge) -> bool {
        e.guard_data
            .eval_bool(&self.pta.decls, &state.store, &[])
            .unwrap_or(false)
            && e.guard_clocks
                .iter()
                .all(|atom| atom.holds_at(&state.clocks))
    }

    /// Applies one branch of a component's edge.
    fn apply_branch(
        &self,
        state: &PtaState,
        component: usize,
        branch: &PtaBranch,
    ) -> Option<PtaState> {
        let mut next = state.clone();
        for (target, e) in &branch.assignments {
            let v = e.eval(&self.pta.decls, &next.store, &[]).ok()?;
            match target {
                AssignTarget::Var(id) => next.store.set_index(&self.pta.decls, *id, 0, v).ok()?,
                AssignTarget::ArrayElem(id, idx) => {
                    let i = idx.eval(&self.pta.decls, &next.store, &[]).ok()?;
                    next.store.set_index(&self.pta.decls, *id, i, v).ok()?;
                }
            }
        }
        for (clock, v) in &branch.resets {
            next.clocks[clock.index()] = (*v).min(self.clamp[clock.index()]);
        }
        next.locs[component] = branch.to;
        Some(next)
    }

    /// All action transitions enabled in the state (tick not included;
    /// see [`PtaExplorer::tick`]). Distributions violating a target
    /// invariant or failing an assignment lose that branch's mass and are
    /// dropped entirely if no branch survives.
    #[must_use]
    pub fn transitions(&self, state: &PtaState) -> Vec<PtaTransition> {
        let mut out = Vec::new();
        for (ai, a) in self.pta.automata.iter().enumerate() {
            for e in a.edges.iter().filter(|e| e.from == state.locs[ai]) {
                if !self.edge_enabled(state, e) {
                    continue;
                }
                match e.action {
                    None => {
                        if let Some(t) = self.single_transition(state, ai, e, "tau") {
                            out.push(t);
                        }
                    }
                    Some(act) => {
                        match self.pta.sync[act.0] {
                            SyncKind::Local => {
                                let label = self.pta.actions[act.0].clone();
                                if let Some(t) = self.single_transition(state, ai, e, &label) {
                                    out.push(t);
                                }
                            }
                            SyncKind::Pair(first, second) => {
                                // Fire from the first component's side only, to
                                // avoid duplicates.
                                if ai != first {
                                    continue;
                                }
                                let b = &self.pta.automata[second];
                                for f in b.edges.iter().filter(|f| {
                                    f.from == state.locs[second] && f.action == Some(act)
                                }) {
                                    if !self.edge_enabled(state, f) {
                                        continue;
                                    }
                                    if let Some(t) =
                                        self.paired_transition(state, (ai, e), (second, f), act)
                                    {
                                        out.push(t);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn single_transition(
        &self,
        state: &PtaState,
        component: usize,
        e: &PtaEdge,
        label: &str,
    ) -> Option<PtaTransition> {
        let total: u64 = e.branches.iter().map(|b| b.weight).sum();
        if total == 0 {
            return None;
        }
        let mut successors = Vec::new();
        for b in &e.branches {
            if b.weight == 0 {
                continue;
            }
            let next = self.apply_branch(state, component, b)?;
            if !self.invariants_hold(&next.locs, &next.clocks) {
                return None;
            }
            successors.push((b.weight as f64 / total as f64, next));
        }
        Some(PtaTransition {
            label: label.to_owned(),
            is_tick: false,
            successors,
        })
    }

    fn paired_transition(
        &self,
        state: &PtaState,
        (ai, e): (usize, &PtaEdge),
        (bi, f): (usize, &PtaEdge),
        act: ActionId,
    ) -> Option<PtaTransition> {
        let total_e: u64 = e.branches.iter().map(|b| b.weight).sum();
        let total_f: u64 = f.branches.iter().map(|b| b.weight).sum();
        if total_e == 0 || total_f == 0 {
            return None;
        }
        let mut successors = Vec::new();
        for be in &e.branches {
            if be.weight == 0 {
                continue;
            }
            for bf in &f.branches {
                if bf.weight == 0 {
                    continue;
                }
                let mid = self.apply_branch(state, ai, be)?;
                let next = self.apply_branch(&mid, bi, bf)?;
                if !self.invariants_hold(&next.locs, &next.clocks) {
                    return None;
                }
                let p = (be.weight as f64 / total_e as f64) * (bf.weight as f64 / total_f as f64);
                successors.push((p, next));
            }
        }
        Some(PtaTransition {
            label: self.pta.actions[act.0].clone(),
            is_tick: false,
            successors,
        })
    }

    /// Evaluates a [`StateFormula`] over a digital PTA state (the
    /// `At(automaton, location)` atom refers to component and location
    /// indices of the compiled PTA).
    #[must_use]
    pub fn satisfies(&self, state: &PtaState, f: &StateFormula) -> bool {
        match f {
            StateFormula::True => true,
            StateFormula::False => false,
            StateFormula::At(a, l) => state.locs[a.index()] == l.index(),
            StateFormula::Data(e) => e
                .eval_bool(&self.pta.decls, &state.store, &[])
                .unwrap_or(false),
            StateFormula::Clock(atom) => atom.holds_at(&state.clocks),
            StateFormula::Not(g) => !self.satisfies(state, g),
            StateFormula::And(gs) => gs.iter().all(|g| self.satisfies(state, g)),
            StateFormula::Or(gs) => gs.iter().any(|g| self.satisfies(state, g)),
        }
    }
}

/// Validates the synchronization structure: every action is used by at
/// most two components.
///
/// # Panics
///
/// Panics if an action appears in more than two components.
#[must_use]
pub fn compute_sync(actions: &[String], automata: &[PtaAutomaton]) -> Vec<SyncKind> {
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); actions.len()];
    for (ai, a) in automata.iter().enumerate() {
        for e in &a.edges {
            if let Some(act) = e.action {
                if !users[act.0].contains(&ai) {
                    users[act.0].push(ai);
                }
            }
        }
    }
    users
        .iter()
        .enumerate()
        .map(|(k, u)| match u.as_slice() {
            [] | [_] => SyncKind::Local,
            [a, b] => SyncKind::Pair(*a.min(b), *a.max(b)),
            _ => panic!(
                "action {} used by {} components; only 2-party synchronization is supported",
                actions[k],
                u.len()
            ),
        })
        .collect()
}
