//! An independent re-implementation of the concrete network semantics,
//! built only from the public model data of [`tempo_ta::Network`] (and
//! the [`tempo_expr`] data language). It shares *no* code with the
//! exploration engines (`Explorer`, `DigitalExplorer`, the simulator,
//! their common move rule `tempo_ta::moves`, the zone algebra): guards,
//! invariants, synchronization discipline, urgency, committed priority,
//! resets and updates are all re-derived from the raw edges, so it can
//! serve as a semantic oracle for their outputs. Both trace semantics
//! use the same move and urgency rule; they differ only in time scale
//! and in the digital clock clamp.
//!
//! Clock values are integers scaled by a common denominator, which makes
//! every comparison exact: a symbolic trace realized with denominator
//! `d` checks the atom `x - y < c` as `x_num - y_num < c * d`.

use crate::error::WitnessError;
use crate::trace::{ConcreteState, JointAction, TraceSemantics};
use tempo_expr::Store;
use tempo_ta::{ChannelKind, ClockAtom, LocationId, LocationKind, Network, StateFormula, SyncDir};

/// A replay state: the exact concrete configuration being re-executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RState {
    pub locs: Vec<LocationId>,
    pub store: Store,
    /// Scaled clock numerators; `clocks[0] == 0`.
    pub clocks: Vec<i64>,
}

/// The independent replayer: network + scale (+ the digital clamp).
#[derive(Debug)]
pub(crate) struct Replayer<'n> {
    pub net: &'n Network,
    pub denom: i64,
    /// Scaled clamp values (digital mode only): one above the maximal
    /// constants of the model and the checked formula, the documented
    /// [`tempo_ta::DigitalState`] contract.
    clamp: Option<Vec<i64>>,
    /// When set, clock guards are ignored during enumeration (the f64
    /// replay re-checks them at its own valuation).
    clockless: bool,
}

/// Checks `diff ≺ c * denom` for the atom's bound, exactly.
pub(crate) fn bound_satisfied_scaled(atom: &ClockAtom, diff: i64, denom: i64) -> bool {
    if atom.bound.is_inf() {
        return true;
    }
    let rhs = atom.bound.constant() * denom;
    if atom.bound.is_strict() {
        diff < rhs
    } else {
        diff <= rhs
    }
}

/// All select-binding assignments of the given ranges (cartesian).
pub(crate) fn select_values(ranges: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for &(lo, hi) in ranges {
        let mut next = Vec::new();
        for prefix in &out {
            for v in lo..=hi {
                let mut p = prefix.clone();
                p.push(v);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// Rebuilds a variable [`Store`] from its flattened value list
/// (declaration order), validating every value against its declared
/// range.
pub(crate) fn store_from_values(net: &Network, values: &[i64]) -> Result<Store, WitnessError> {
    let decls = net.decls();
    let mut store = decls.initial_store();
    if values.len() != store.as_slice().len() {
        return Err(WitnessError::Malformed(format!(
            "{} store values, network declares {}",
            values.len(),
            store.as_slice().len()
        )));
    }
    for info in decls.vars() {
        let id = decls
            .lookup(&info.name)
            .expect("declared variables resolve by name");
        for k in 0..info.len {
            let value = values[info.offset() + k];
            store
                .set_index(decls, id, k as i64, value)
                .map_err(|e| WitnessError::Malformed(format!("store value: {e}")))?;
        }
    }
    Ok(store)
}

impl<'n> Replayer<'n> {
    /// A replayer in `mode`. In digital mode each clock stops one above
    /// the largest constant the model or one of `atoms` (the clock
    /// constraints of the formula being checked) compares it with, as
    /// the digital engines clamp for that query.
    pub fn new(net: &'n Network, mode: TraceSemantics, denom: i64, atoms: &[ClockAtom]) -> Self {
        let clamp = (mode == TraceSemantics::Digital).then(|| {
            let mut consts = net.max_constants();
            for atom in atoms.iter().filter(|a| !a.bound.is_inf()) {
                for x in [atom.i, atom.j].into_iter().filter(|x| !x.is_ref()) {
                    consts[x.index()] = consts[x.index()].max(atom.bound.constant().abs());
                }
            }
            consts.into_iter().map(|c| (c + 1) * denom).collect()
        });
        Replayer {
            net,
            denom,
            clamp,
            clockless: false,
        }
    }

    /// A data-level replayer: enumerates joint moves without clock
    /// guards, for callers replaying at a non-integer valuation.
    pub fn data_only(net: &'n Network) -> Self {
        Replayer {
            net,
            denom: 1,
            clamp: None,
            clockless: true,
        }
    }

    /// The network's initial replay state.
    pub fn initial(&self) -> RState {
        RState {
            locs: self.net.automata().iter().map(|a| a.initial).collect(),
            store: self.net.decls().initial_store(),
            clocks: vec![0; self.net.dim()],
        }
    }

    /// Converts to the serializable state shape.
    pub fn to_concrete(&self, s: &RState) -> ConcreteState {
        ConcreteState {
            locs: s.locs.iter().map(|l| l.index()).collect(),
            store: s.store.as_slice().to_vec(),
            clocks: s.clocks.clone(),
        }
    }

    /// Rebuilds a replay state from its serialized shape, validating
    /// every index and variable range against the network.
    pub fn decode(&self, s: &ConcreteState) -> Result<RState, WitnessError> {
        let autos = self.net.automata();
        if s.locs.len() != autos.len() {
            return Err(WitnessError::Malformed(format!(
                "{} locations for {} automata",
                s.locs.len(),
                autos.len()
            )));
        }
        for (ai, (&l, a)) in s.locs.iter().zip(autos).enumerate() {
            if l >= a.locations.len() {
                return Err(WitnessError::Malformed(format!(
                    "location {l} out of range for automaton {ai}"
                )));
            }
        }
        if s.clocks.len() != self.net.dim() {
            return Err(WitnessError::Malformed(format!(
                "{} clocks, network has {}",
                s.clocks.len(),
                self.net.dim()
            )));
        }
        if s.clocks.first().copied().unwrap_or(0) != 0 {
            return Err(WitnessError::Malformed(
                "reference clock must be 0".to_owned(),
            ));
        }
        let store = store_from_values(self.net, &s.store)?;
        Ok(RState {
            locs: s.locs.iter().map(|&l| LocationId(l)).collect(),
            store,
            clocks: s.clocks.clone(),
        })
    }

    /// The automaton whose invariant is violated at the valuation, if
    /// any.
    pub fn invariant_violation(&self, locs: &[LocationId], clocks: &[i64]) -> Option<usize> {
        self.net.automata().iter().zip(locs).position(|(a, &l)| {
            a.locations[l.index()].invariant.iter().any(|atom| {
                !bound_satisfied_scaled(
                    atom,
                    clocks[atom.i.index()] - clocks[atom.j.index()],
                    self.denom,
                )
            })
        })
    }

    /// Advances every non-reference clock by `delay` (scaled), applying
    /// the digital clamp in digital mode.
    pub fn delayed_clocks(&self, clocks: &[i64], delay: i64) -> Vec<i64> {
        clocks
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if i == 0 {
                    0
                } else {
                    let v = c + delay;
                    match &self.clamp {
                        Some(clamp) => v.min(clamp[i]),
                        None => v,
                    }
                }
            })
            .collect()
    }

    fn edge_data_enabled(&self, state: &RState, ai: usize, ei: usize, sel: &[i64]) -> bool {
        let e = &self.net.automata()[ai].edges[ei];
        e.from == state.locs[ai]
            && e.guard_data
                .eval_bool(self.net.decls(), &state.store, sel)
                .unwrap_or(false)
    }

    fn edge_clock_enabled(&self, state: &RState, ai: usize, ei: usize) -> bool {
        if self.clockless {
            return true;
        }
        self.net.automata()[ai].edges[ei]
            .guard_clocks
            .iter()
            .all(|atom| {
                bound_satisfied_scaled(
                    atom,
                    state.clocks[atom.i.index()] - state.clocks[atom.j.index()],
                    self.denom,
                )
            })
    }

    /// Whether some automaton has a data-enabled receiving edge for
    /// `(channel, idx)`, other than `sender` (used for urgency and for
    /// broadcast maximality).
    fn matching_receiver(&self, state: &RState, sender: usize, channel: usize, idx: i64) -> bool {
        self.receiver_options(state, sender, channel, idx)
            .iter()
            .any(|opts| !opts.is_empty())
    }

    /// Per automaton, the data-enabled `(edge, sel)` receive options for
    /// `(channel, idx)`; the sender's entry is always empty.
    fn receiver_options(
        &self,
        state: &RState,
        sender: usize,
        channel: usize,
        idx: i64,
    ) -> Vec<Vec<(usize, Vec<i64>)>> {
        let decls = self.net.decls();
        self.net
            .automata()
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                if bi == sender {
                    return Vec::new();
                }
                let mut opts = Vec::new();
                for (ri, r) in b.edges.iter().enumerate() {
                    let Some(rs) = &r.sync else { continue };
                    if rs.dir != SyncDir::Recv || rs.channel.index() != channel {
                        continue;
                    }
                    for rsel in select_values(&r.selects) {
                        if rs.index.eval(decls, &state.store, &rsel) == Ok(idx)
                            && self.edge_data_enabled(state, bi, ri, &rsel)
                        {
                            opts.push((ri, rsel));
                        }
                    }
                }
                opts
            })
            .collect()
    }

    /// Whether time may elapse: no urgent or committed location, and no
    /// enabled move on an urgent channel. An urgent broadcast sender
    /// counts without receivers (it never blocks); a binary one needs a
    /// matching receiver. Urgent edges carry no clock guards, so the
    /// test is data-only.
    pub fn can_delay(&self, state: &RState) -> bool {
        let urgent_loc = state
            .locs
            .iter()
            .zip(self.net.automata())
            .any(|(&l, a)| a.locations[l.index()].kind != LocationKind::Normal);
        if urgent_loc {
            return false;
        }
        !self.urgent_sync_enabled(state)
    }

    fn urgent_sync_enabled(&self, state: &RState) -> bool {
        let decls = self.net.decls();
        for (ai, a) in self.net.automata().iter().enumerate() {
            for e in a.edges.iter().filter(|e| e.from == state.locs[ai]) {
                let Some(sync) = &e.sync else { continue };
                let ch = &self.net.channels()[sync.channel.index()];
                if sync.dir != SyncDir::Send || !ch.urgent {
                    continue;
                }
                for sel in select_values(&e.selects) {
                    if !e
                        .guard_data
                        .eval_bool(decls, &state.store, &sel)
                        .unwrap_or(false)
                    {
                        continue;
                    }
                    let Ok(idx) = sync.index.eval(decls, &state.store, &sel) else {
                        continue;
                    };
                    if idx < 0 || idx as usize >= ch.size {
                        continue;
                    }
                    if ch.kind == ChannelKind::Broadcast
                        || self.matching_receiver(state, ai, sync.channel.index(), idx)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Validates that a recorded joint action is a legal move in the
    /// state: edges exist and start here, guards hold, the participants
    /// form a legal synchronization (binary pairing, broadcast
    /// maximality), and committed priority is respected.
    pub fn check_action(
        &self,
        state: &RState,
        action: &JointAction,
        step: usize,
    ) -> Result<(), WitnessError> {
        let autos = self.net.automata();
        let decls = self.net.decls();
        let illegal = |reason: &str| WitnessError::IllegalMove {
            step,
            reason: reason.to_owned(),
        };
        if action.participants.is_empty() {
            return Err(illegal("no participants"));
        }
        // Structural checks per participant.
        let mut seen = vec![false; autos.len()];
        for &(ai, ei, ref sel) in &action.participants {
            if ai >= autos.len() || ei >= autos[ai].edges.len() {
                return Err(illegal("edge index out of range"));
            }
            if seen[ai] {
                return Err(illegal("duplicate participant automaton"));
            }
            seen[ai] = true;
            let e = &autos[ai].edges[ei];
            if e.from != state.locs[ai] {
                return Err(illegal("edge does not start in the current location"));
            }
            if sel.len() != e.selects.len()
                || sel
                    .iter()
                    .zip(&e.selects)
                    .any(|(&v, &(lo, hi))| v < lo || v > hi)
            {
                return Err(illegal("select binding outside its range"));
            }
            if !self.edge_data_enabled(state, ai, ei, sel) {
                return Err(WitnessError::GuardUnsatisfied {
                    step,
                    automaton: ai,
                });
            }
            if !self.edge_clock_enabled(state, ai, ei) {
                return Err(WitnessError::GuardUnsatisfied {
                    step,
                    automaton: ai,
                });
            }
        }
        // Committed priority: when any automaton rests in a committed
        // location, the move must involve a committed participant.
        let committed: Vec<bool> = state
            .locs
            .iter()
            .zip(autos)
            .map(|(&l, a)| a.locations[l.index()].kind == LocationKind::Committed)
            .collect();
        if committed.iter().any(|&c| c)
            && !action.participants.iter().any(|&(ai, _, _)| committed[ai])
        {
            return Err(illegal("committed priority violated"));
        }
        // Synchronization structure, keyed by the initiator's sync.
        let (ai0, ei0, ref sel0) = action.participants[0];
        let initiator = &autos[ai0].edges[ei0];
        match &initiator.sync {
            None => {
                if action.participants.len() != 1 {
                    return Err(illegal("internal move with multiple participants"));
                }
            }
            Some(sync) => {
                if sync.dir != SyncDir::Send {
                    return Err(illegal("initiator is not a sender"));
                }
                let ch = &self.net.channels()[sync.channel.index()];
                let idx = sync
                    .index
                    .eval(decls, &state.store, sel0)
                    .map_err(|e| illegal(&format!("channel index: {e}")))?;
                if idx < 0 || idx as usize >= ch.size {
                    return Err(illegal("channel index out of range"));
                }
                for &(bi, ri, ref rsel) in &action.participants[1..] {
                    let r = &autos[bi].edges[ri];
                    let matches = r.sync.as_ref().is_some_and(|rs| {
                        rs.dir == SyncDir::Recv
                            && rs.channel == sync.channel
                            && rs.index.eval(decls, &state.store, rsel) == Ok(idx)
                    });
                    if !matches {
                        return Err(illegal("receiver does not match the sender's channel"));
                    }
                }
                match ch.kind {
                    ChannelKind::Binary => {
                        if action.participants.len() != 2 {
                            return Err(illegal("binary sync needs exactly one receiver"));
                        }
                    }
                    ChannelKind::Broadcast => {
                        // Maximality: every automaton with a data-enabled
                        // matching receiver must participate (broadcast
                        // receivers carry no clock guards by model
                        // validation, so data-enabled is enabled).
                        let opts = self.receiver_options(state, ai0, sync.channel.index(), idx);
                        for (bi, o) in opts.iter().enumerate() {
                            let participates =
                                action.participants.iter().any(|&(pi, _, _)| pi == bi);
                            if !o.is_empty() && !participates {
                                return Err(illegal("broadcast synchronization not maximal"));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Fires a checked action: per participant (in order) evaluate and
    /// apply resets over the evolving store, run the update, move the
    /// location; then check the target invariants.
    pub fn apply_action(
        &self,
        state: &RState,
        action: &JointAction,
        step: usize,
    ) -> Result<RState, WitnessError> {
        let mut next = state.clone();
        let decls = self.net.decls();
        for &(ai, ei, ref sel) in &action.participants {
            let e = &self.net.automata()[ai].edges[ei];
            for (clock, value) in &e.resets {
                let v =
                    value
                        .eval(decls, &next.store, sel)
                        .map_err(|e| WitnessError::IllegalMove {
                            step,
                            reason: format!("reset evaluation: {e}"),
                        })?;
                if v < 0 {
                    return Err(WitnessError::IllegalMove {
                        step,
                        reason: "clock reset to a negative value".to_owned(),
                    });
                }
                let scaled = v * self.denom;
                next.clocks[clock.index()] = match &self.clamp {
                    Some(clamp) => scaled.min(clamp[clock.index()]),
                    None => scaled,
                };
            }
            e.update
                .execute(decls, &mut next.store, sel)
                .map_err(|err| WitnessError::IllegalMove {
                    step,
                    reason: format!("update: {err}"),
                })?;
            next.locs[ai] = e.to;
        }
        if let Some(a) = self.invariant_violation(&next.locs, &next.clocks) {
            return Err(WitnessError::InvariantViolated { step, automaton: a });
        }
        Ok(next)
    }

    /// Enumerates every joint move enabled in the state, with its
    /// controllability (for game certification and realization search).
    /// This is UPPAAL's rule, derived here independently of
    /// `tempo_ta::moves`, which the engines use: an edge per `select`
    /// valuation from the current location; a channel index inside the
    /// array; a binary send with one matching receive of another
    /// automaton; a broadcast send with every other automaton that has a
    /// matching enabled receive, one move per combination of their
    /// receiving edges; and, while any automaton is committed, a
    /// committed participant (sender or receiver) in every move.
    pub fn enumerate_moves(&self, state: &RState) -> Vec<(JointAction, bool)> {
        let autos = self.net.automata();
        let decls = self.net.decls();
        let committed: Vec<bool> = state
            .locs
            .iter()
            .zip(autos)
            .map(|(&l, a)| a.locations[l.index()].kind == LocationKind::Committed)
            .collect();
        let any_committed = committed.iter().any(|&c| c);
        let mut out = Vec::new();
        for (ai, a) in autos.iter().enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                if e.from != state.locs[ai] {
                    continue;
                }
                for sel in select_values(&e.selects) {
                    if !self.edge_data_enabled(state, ai, ei, &sel)
                        || !self.edge_clock_enabled(state, ai, ei)
                    {
                        continue;
                    }
                    match &e.sync {
                        None => {
                            if any_committed && !committed[ai] {
                                continue;
                            }
                            out.push((
                                JointAction {
                                    label: "tau".to_owned(),
                                    participants: vec![(ai, ei, sel.clone())],
                                },
                                e.controllable,
                            ));
                        }
                        Some(sync) if sync.dir == SyncDir::Send => {
                            let Ok(idx) = sync.index.eval(decls, &state.store, &sel) else {
                                continue;
                            };
                            let ch = &self.net.channels()[sync.channel.index()];
                            if idx < 0 || idx as usize >= ch.size {
                                continue;
                            }
                            let opts = self.receiver_options(state, ai, sync.channel.index(), idx);
                            match ch.kind {
                                ChannelKind::Binary => {
                                    for (bi, o) in opts.iter().enumerate() {
                                        if any_committed && !committed[ai] && !committed[bi] {
                                            continue;
                                        }
                                        for (ri, rsel) in o {
                                            if !self.edge_clock_enabled(state, bi, *ri) {
                                                continue;
                                            }
                                            out.push((
                                                JointAction {
                                                    label: format!("{}[{}]", ch.name, idx),
                                                    participants: vec![
                                                        (ai, ei, sel.clone()),
                                                        (bi, *ri, rsel.clone()),
                                                    ],
                                                },
                                                e.controllable && autos[bi].edges[*ri].controllable,
                                            ));
                                        }
                                    }
                                }
                                ChannelKind::Broadcast => {
                                    let mut combos: Vec<Vec<(usize, usize, Vec<i64>)>> =
                                        vec![vec![(ai, ei, sel.clone())]];
                                    for (bi, o) in opts.iter().enumerate() {
                                        if o.is_empty() {
                                            continue;
                                        }
                                        let mut next = Vec::new();
                                        for combo in &combos {
                                            for (ri, rsel) in o {
                                                let mut c = combo.clone();
                                                c.push((bi, *ri, rsel.clone()));
                                                next.push(c);
                                            }
                                        }
                                        combos = next;
                                    }
                                    for participants in combos {
                                        if any_committed
                                            && !participants.iter().any(|&(pi, _, _)| committed[pi])
                                        {
                                            continue;
                                        }
                                        let ctrl = participants
                                            .iter()
                                            .all(|&(pi, pe, _)| autos[pi].edges[pe].controllable);
                                        out.push((
                                            JointAction {
                                                label: format!("{}[{}]!!", ch.name, idx),
                                                participants,
                                            },
                                            ctrl,
                                        ));
                                    }
                                }
                            }
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        out
    }

    /// Whether the digital unit-delay tick is permitted, and its
    /// successor (digital mode only).
    pub fn tick(&self, state: &RState) -> Option<RState> {
        if !self.can_delay(state) {
            return None;
        }
        let clocks = self.delayed_clocks(&state.clocks, self.denom);
        if self.invariant_violation(&state.locs, &clocks).is_some() {
            return None;
        }
        Some(RState {
            locs: state.locs.clone(),
            store: state.store.clone(),
            clocks,
        })
    }

    /// Exact satisfaction of a state formula at the concrete state.
    pub fn eval_formula(&self, state: &RState, f: &StateFormula) -> bool {
        match f {
            StateFormula::True => true,
            StateFormula::False => false,
            StateFormula::At(a, l) => state.locs[a.index()] == *l,
            StateFormula::Data(e) => e
                .eval_bool(self.net.decls(), &state.store, &[])
                .unwrap_or(false),
            StateFormula::Clock(atom) => bound_satisfied_scaled(
                atom,
                state.clocks[atom.i.index()] - state.clocks[atom.j.index()],
                self.denom,
            ),
            StateFormula::Not(g) => !self.eval_formula(state, g),
            StateFormula::And(gs) => gs.iter().all(|g| self.eval_formula(state, g)),
            StateFormula::Or(gs) => gs.iter().any(|g| self.eval_formula(state, g)),
        }
    }
}
