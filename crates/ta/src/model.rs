//! Networks of timed automata: the modelling layer of the UPPAAL substrate.
//!
//! A [`Network`] is a set of [`Automaton`] components communicating over
//! channels (binary or broadcast, optionally urgent) and sharing a pool of
//! clocks and bounded-integer variables, exactly as in UPPAAL's modelling
//! language (Bozga et al., DATE 2012, §II).

use tempo_dbm::{Bound, Clock};
use tempo_expr::{Decls, Expr, Stmt, VarId};

/// Identifier of a channel (or channel array) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

impl ChannelId {
    /// Position in the network's channel table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an automaton within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AutomatonId(pub usize);

impl AutomatonId {
    /// Position in the network's automata list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a location within one automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(pub usize);

impl LocationId {
    /// Position in the automaton's location list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Kind of a channel: binary handshake or broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Binary (CCS-style) synchronization between one sender and one
    /// receiver.
    Binary,
    /// Broadcast: one sender, all enabled receivers participate.
    Broadcast,
}

/// A channel (array) declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Name for diagnostics and traces.
    pub name: String,
    /// Number of indexed instances (`1` for a scalar channel).
    pub size: usize,
    /// Binary or broadcast.
    pub kind: ChannelKind,
    /// Urgent channels forbid delay whenever a synchronization on them is
    /// enabled. Edges synchronizing on urgent channels must not carry
    /// clock guards (as in UPPAAL).
    pub urgent: bool,
}

/// Progress discipline of a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocationKind {
    /// Ordinary location: time may elapse subject to the invariant.
    #[default]
    Normal,
    /// Urgent location: no delay may elapse while any automaton is here.
    Urgent,
    /// Committed location: no delay, and the next transition must involve
    /// an automaton in a committed location.
    Committed,
}

/// A single clock constraint `xᵢ - xⱼ ≺ c` used in guards and invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockAtom {
    /// Left clock.
    pub i: Clock,
    /// Right clock (use [`Clock::REF`] for constraints against constants).
    pub j: Clock,
    /// The bound `≺ c`.
    pub bound: Bound,
}

impl ClockAtom {
    /// `x ≤ c`.
    #[must_use]
    pub fn le(x: Clock, c: i64) -> Self {
        ClockAtom {
            i: x,
            j: Clock::REF,
            bound: Bound::le(c),
        }
    }

    /// `x < c`.
    #[must_use]
    pub fn lt(x: Clock, c: i64) -> Self {
        ClockAtom {
            i: x,
            j: Clock::REF,
            bound: Bound::lt(c),
        }
    }

    /// `x ≥ c`.
    #[must_use]
    pub fn ge(x: Clock, c: i64) -> Self {
        ClockAtom {
            i: Clock::REF,
            j: x,
            bound: Bound::le(-c),
        }
    }

    /// `x > c`.
    #[must_use]
    pub fn gt(x: Clock, c: i64) -> Self {
        ClockAtom {
            i: Clock::REF,
            j: x,
            bound: Bound::lt(-c),
        }
    }

    /// `xᵢ - xⱼ ≺ c` with an explicit bound.
    #[must_use]
    pub fn diff(i: Clock, j: Clock, bound: Bound) -> Self {
        ClockAtom { i, j, bound }
    }

    /// Whether the atom holds at integer clock values (`clocks[0] == 0`).
    #[must_use]
    pub fn holds_at(&self, clocks: &[i64]) -> bool {
        self.bound
            .satisfied_by(clocks[self.i.index()] - clocks[self.j.index()])
    }

    /// The negation of this atom (`¬(xᵢ - xⱼ ≺ c)` = `xⱼ - xᵢ ≺' -c`).
    #[must_use]
    pub fn negated(self) -> Self {
        ClockAtom {
            i: self.j,
            j: self.i,
            bound: self.bound.negated().expect("guard atoms are finite"),
        }
    }
}

/// Direction of a channel synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncDir {
    /// Emit (`c!`).
    Send,
    /// Receive (`c?`).
    Recv,
}

/// A synchronization annotation on an edge: `chan[index]!` or
/// `chan[index]?`. The index expression may reference `select` bindings
/// and variables (e.g. `go[front()]!` in the paper's controller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sync {
    /// The channel (array).
    pub channel: ChannelId,
    /// The index into the channel array (constant `0` for scalars).
    pub index: Expr,
    /// Send or receive.
    pub dir: SyncDir,
}

/// An edge of a timed automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source location.
    pub from: LocationId,
    /// Target location.
    pub to: LocationId,
    /// `select` bindings: each entry is an inclusive range the bound value
    /// ranges over (UPPAAL's `e : id_t` selectors).
    pub selects: Vec<(i64, i64)>,
    /// Conjunction of clock constraints.
    pub guard_clocks: Vec<ClockAtom>,
    /// Data guard over variables and selects.
    pub guard_data: Expr,
    /// Optional channel synchronization.
    pub sync: Option<Sync>,
    /// Clock resets `x := e` (evaluated over the pre-state).
    pub resets: Vec<(Clock, Expr)>,
    /// Discrete update, executed after the partner's guard is checked.
    pub update: Stmt,
    /// Whether the edge belongs to the controller in a timed game
    /// (UPPAAL-TIGA solid edges). Ignored by plain model checking.
    pub controllable: bool,
    /// Relative weight of this edge among the branches of its
    /// probabilistic choice (`1` for an ordinary edge).
    pub weight: u64,
    /// Whether this edge is a further branch of the previous edge's
    /// choice. A choice is a run of sibling edges: the first carries
    /// `false`, the others `true`, and all share source, selects,
    /// guards, synchronisation and controllability. The probabilistic
    /// engines draw one branch by weight; every other engine reads each
    /// branch as an ordinary edge, which over-approximates the choice by
    /// nondeterminism.
    pub continues_choice: bool,
}

/// A location of a timed automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// Name for diagnostics, traces and property atoms.
    pub name: String,
    /// Normal, urgent or committed.
    pub kind: LocationKind,
    /// Conjunction of clock constraints that must hold while the automaton
    /// is in this location.
    pub invariant: Vec<ClockAtom>,
}

/// One timed automaton of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Automaton {
    /// Name for diagnostics.
    pub name: String,
    /// Locations; index `0` need not be initial.
    pub locations: Vec<Location>,
    /// Edges.
    pub edges: Vec<Edge>,
    /// Initial location.
    pub initial: LocationId,
}

impl Automaton {
    /// Looks up a location by name.
    #[must_use]
    pub fn location_by_name(&self, name: &str) -> Option<LocationId> {
        self.locations
            .iter()
            .position(|l| l.name == name)
            .map(LocationId)
    }
}

/// A network of timed automata sharing clocks, variables and channels.
///
/// Build networks with [`NetworkBuilder`]; the constructed model is
/// validated (channel arities, location indices, urgent-edge rules) at
/// build time.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    pub(crate) decls: Decls,
    pub(crate) clock_names: Vec<String>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) automata: Vec<Automaton>,
    pub(crate) id_vars: Vec<VarId>,
}

impl Network {
    /// The variable declarations of the network.
    #[must_use]
    pub fn decls(&self) -> &Decls {
        &self.decls
    }

    /// Number of clocks including the reference clock (the DBM dimension).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.clock_names.len() + 1
    }

    /// The channel table.
    #[must_use]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Variables declared (via [`NetworkBuilder::mark_id_var`]) to hold
    /// component identities — the scalarset contract that template-symmetry
    /// reduction builds its orbit permutations from.
    #[must_use]
    pub fn id_vars(&self) -> &[VarId] {
        &self.id_vars
    }

    /// The automata of the network.
    #[must_use]
    pub fn automata(&self) -> &[Automaton] {
        &self.automata
    }

    /// The automaton with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn automaton(&self, id: AutomatonId) -> &Automaton {
        &self.automata[id.0]
    }

    /// Looks up an automaton by name.
    #[must_use]
    pub fn automaton_by_name(&self, name: &str) -> Option<AutomatonId> {
        self.automata
            .iter()
            .position(|a| a.name == name)
            .map(AutomatonId)
    }

    /// Looks up a clock by its declared name.
    #[must_use]
    pub fn clock_by_name(&self, name: &str) -> Option<Clock> {
        self.clock_names
            .iter()
            .position(|n| n == name)
            .map(|i| Clock(i + 1))
    }

    /// The declared clock names (index 0 is clock `x1`).
    #[must_use]
    pub fn clock_names(&self) -> &[String] {
        &self.clock_names
    }

    /// Per-clock maximal constants for extrapolation, computed from all
    /// guards and invariants. Entry `0` (reference clock) is `0`.
    #[must_use]
    pub fn max_constants(&self) -> Vec<i64> {
        let mut m = vec![0_i64; self.dim()];
        for a in &self.automata {
            for l in &a.locations {
                raise_max_constants(&mut m, &l.invariant);
            }
            for e in &a.edges {
                raise_max_constants(&mut m, &e.guard_clocks);
            }
        }
        m
    }

    /// The largest constant appearing in any guard or invariant.
    #[must_use]
    pub fn max_constant(&self) -> i64 {
        self.max_constants().into_iter().max().unwrap_or(0)
    }
}

/// Raises each clock's entry of `m` to the largest `|c|` the `atoms`
/// compare it with.
pub(crate) fn raise_max_constants(m: &mut [i64], atoms: &[ClockAtom]) {
    for atom in atoms.iter().filter(|a| !a.bound.is_inf()) {
        let c = atom.bound.constant().abs();
        for x in [atom.i, atom.j].into_iter().filter(|x| !x.is_ref()) {
            m[x.index()] = m[x.index()].max(c);
        }
    }
}

/// Builder for [`Network`] models.
///
/// ```
/// use tempo_ta::{NetworkBuilder, ClockAtom};
/// use tempo_expr::Expr;
///
/// let mut b = NetworkBuilder::new();
/// let x = b.clock("x");
/// let mut t = b.automaton("Lamp");
/// let off = t.location("Off");
/// let on = t.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
/// t.set_initial(off);
/// t.edge(off, on).reset(x, 0).done();
/// t.edge(on, off).guard_clock(ClockAtom::ge(x, 2)).done();
/// t.done();
/// let net = b.build();
/// assert_eq!(net.dim(), 2);
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    decls: Decls,
    clock_names: Vec<String>,
    channels: Vec<Channel>,
    automata: Vec<Automaton>,
    id_vars: Vec<VarId>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Access to the variable declarations (to declare `int`s and arrays).
    pub fn decls_mut(&mut self) -> &mut Decls {
        &mut self.decls
    }

    /// Declares a fresh clock and returns its DBM index.
    pub fn clock(&mut self, name: &str) -> Clock {
        self.clock_names.push(name.to_owned());
        Clock(self.clock_names.len())
    }

    /// Declares a scalar binary channel.
    pub fn channel(&mut self, name: &str) -> ChannelId {
        self.channel_array(name, 1, ChannelKind::Binary, false)
    }

    /// Declares a scalar urgent binary channel.
    pub fn urgent_channel(&mut self, name: &str) -> ChannelId {
        self.channel_array(name, 1, ChannelKind::Binary, true)
    }

    /// Declares a scalar broadcast channel.
    pub fn broadcast_channel(&mut self, name: &str) -> ChannelId {
        self.channel_array(name, 1, ChannelKind::Broadcast, false)
    }

    /// Declares a channel array of the given size and kind.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn channel_array(
        &mut self,
        name: &str,
        size: usize,
        kind: ChannelKind,
        urgent: bool,
    ) -> ChannelId {
        assert!(size > 0, "channel array {name} must have size >= 1");
        self.channels.push(Channel {
            name: name.to_owned(),
            size,
            kind,
            urgent,
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Declares that a variable (scalar or array) holds *component
    /// identities*: every value it ever takes is either a replicated
    /// template's id or a neutral filler constant. This is UPPAAL's
    /// scalarset contract, stated explicitly by the modeller; symmetry
    /// reduction permutes the values of marked variables alongside the
    /// components themselves, and conservatively switches itself off
    /// when it sees an id flow anywhere it cannot track.
    pub fn mark_id_var(&mut self, var: VarId) {
        if !self.id_vars.contains(&var) {
            self.id_vars.push(var);
        }
    }

    /// Starts building an automaton. Call [`AutomatonBuilder::done`] to
    /// add it to the network.
    pub fn automaton(&mut self, name: &str) -> AutomatonBuilder<'_> {
        AutomatonBuilder {
            parent: self,
            automaton: Some(Automaton {
                name: name.to_owned(),
                locations: Vec::new(),
                edges: Vec::new(),
                initial: LocationId(0),
            }),
        }
    }

    /// Finalizes and validates the network.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an out-of-range location or channel,
    /// if an urgent-channel edge or broadcast-receiver edge carries
    /// clock guards (both unsupported, as in UPPAAL), if an edge has
    /// weight `0`, or if a branch of a choice differs from the previous
    /// edge in source, selects, guards, synchronisation or
    /// controllability.
    #[must_use]
    pub fn build(self) -> Network {
        let net = Network {
            decls: self.decls,
            clock_names: self.clock_names,
            channels: self.channels,
            automata: self.automata,
            id_vars: self.id_vars,
        };
        net.validate();
        net
    }
}

impl Network {
    fn validate(&self) {
        for a in &self.automata {
            assert!(
                a.initial.0 < a.locations.len(),
                "automaton {} has out-of-range initial location",
                a.name
            );
            for (ei, e) in a.edges.iter().enumerate() {
                assert!(
                    e.from.0 < a.locations.len() && e.to.0 < a.locations.len(),
                    "automaton {} has an edge with out-of-range locations",
                    a.name
                );
                assert!(e.weight > 0, "automaton {} has an edge of weight 0", a.name);
                if e.continues_choice {
                    let sibling = ei.checked_sub(1).map(|p| &a.edges[p]).is_some_and(|p| {
                        p.from == e.from
                            && p.selects == e.selects
                            && p.guard_clocks == e.guard_clocks
                            && p.guard_data == e.guard_data
                            && p.sync == e.sync
                            && p.controllable == e.controllable
                    });
                    assert!(
                        sibling,
                        "automaton {} has a branch whose source, selects, guards, \
                         synchronisation or controllability differ from the previous edge",
                        a.name
                    );
                }
                if let Some(sync) = &e.sync {
                    let ch = &self.channels[sync.channel.0];
                    if ch.urgent {
                        assert!(
                            e.guard_clocks.is_empty(),
                            "urgent channel {} used with clock guard in {}",
                            ch.name,
                            a.name
                        );
                    }
                    if ch.kind == ChannelKind::Broadcast && sync.dir == SyncDir::Recv {
                        assert!(
                            e.guard_clocks.is_empty(),
                            "broadcast receiver on {} with clock guard in {} \
                             (unsupported: receiver sets would split zones)",
                            ch.name,
                            a.name
                        );
                    }
                }
                for clock in e
                    .guard_clocks
                    .iter()
                    .flat_map(|atom| [atom.i, atom.j])
                    .chain(e.resets.iter().map(|(c, _)| *c))
                {
                    assert!(
                        clock.index() < self.dim(),
                        "automaton {} references undeclared clock {clock}",
                        a.name
                    );
                }
            }
        }
    }
}

/// Builder for one automaton; created by [`NetworkBuilder::automaton`].
///
/// The automaton is committed to the network either explicitly with
/// [`AutomatonBuilder::done`] (which returns its id) or implicitly when
/// the builder is dropped — a half-built automaton is never silently
/// discarded.
#[derive(Debug)]
pub struct AutomatonBuilder<'a> {
    parent: &'a mut NetworkBuilder,
    automaton: Option<Automaton>,
}

impl Drop for AutomatonBuilder<'_> {
    fn drop(&mut self) {
        if let Some(a) = self.automaton.take() {
            self.parent.automata.push(a);
        }
    }
}

impl AutomatonBuilder<'_> {
    fn automaton_mut(&mut self) -> &mut Automaton {
        self.automaton.as_mut().expect("present until done()")
    }
    /// Adds a normal location without invariant.
    pub fn location(&mut self, name: &str) -> LocationId {
        self.location_full(name, LocationKind::Normal, Vec::new())
    }

    /// Adds a normal location with an invariant.
    pub fn location_with_invariant(&mut self, name: &str, inv: Vec<ClockAtom>) -> LocationId {
        self.location_full(name, LocationKind::Normal, inv)
    }

    /// Adds an urgent location.
    pub fn urgent_location(&mut self, name: &str) -> LocationId {
        self.location_full(name, LocationKind::Urgent, Vec::new())
    }

    /// Adds a committed location.
    pub fn committed_location(&mut self, name: &str) -> LocationId {
        self.location_full(name, LocationKind::Committed, Vec::new())
    }

    /// Adds a location with explicit kind and invariant.
    pub fn location_full(
        &mut self,
        name: &str,
        kind: LocationKind,
        invariant: Vec<ClockAtom>,
    ) -> LocationId {
        let a = self.automaton_mut();
        a.locations.push(Location {
            name: name.to_owned(),
            kind,
            invariant,
        });
        LocationId(a.locations.len() - 1)
    }

    /// Sets the initial location (defaults to the first added location).
    pub fn set_initial(&mut self, loc: LocationId) {
        self.automaton_mut().initial = loc;
    }

    /// Starts building an edge from `from` to `to`.
    pub fn edge(&mut self, from: LocationId, to: LocationId) -> EdgeBuilder<'_> {
        EdgeBuilder {
            edges: &mut self.automaton_mut().edges,
            edge: Edge {
                from,
                to,
                selects: Vec::new(),
                guard_clocks: Vec::new(),
                guard_data: Expr::truth(),
                sync: None,
                resets: Vec::new(),
                update: Stmt::skip(),
                controllable: true,
                weight: 1,
                continues_choice: false,
            },
        }
    }

    /// Finalizes the automaton and adds it to the network builder,
    /// returning its id. (Dropping the builder without calling `done`
    /// also commits the automaton; `done` is only needed for the id.)
    pub fn done(mut self) -> AutomatonId {
        let a = self.automaton.take().expect("present until done()");
        self.parent.automata.push(a);
        AutomatonId(self.parent.automata.len() - 1)
    }
}

/// Builder for one edge; created by [`AutomatonBuilder::edge`]. Call
/// [`EdgeBuilder::done`] to commit the edge.
#[derive(Debug)]
pub struct EdgeBuilder<'a> {
    edges: &'a mut Vec<Edge>,
    edge: Edge,
}

impl EdgeBuilder<'_> {
    /// Adds a `select` binding over the inclusive range `[lo, hi]`; the
    /// `k`-th call binds [`Expr::select(k)`](tempo_expr::Expr::select).
    #[must_use]
    pub fn select(mut self, lo: i64, hi: i64) -> Self {
        self.edge.selects.push((lo, hi));
        self
    }

    /// Conjoins a clock constraint onto the guard.
    #[must_use]
    pub fn guard_clock(mut self, atom: ClockAtom) -> Self {
        self.edge.guard_clocks.push(atom);
        self
    }

    /// Conjoins a data guard (default `true`).
    #[must_use]
    pub fn guard_data(mut self, e: Expr) -> Self {
        self.edge.guard_data = if self.edge.guard_data == Expr::truth() {
            e
        } else {
            std::mem::replace(&mut self.edge.guard_data, Expr::truth()) & e
        };
        self
    }

    /// Emits on `channel[0]` (scalar channels).
    #[must_use]
    pub fn send(self, channel: ChannelId) -> Self {
        self.send_indexed(channel, Expr::konst(0))
    }

    /// Emits on `channel[index]`.
    #[must_use]
    pub fn send_indexed(mut self, channel: ChannelId, index: Expr) -> Self {
        self.edge.sync = Some(Sync {
            channel,
            index,
            dir: SyncDir::Send,
        });
        self
    }

    /// Receives on `channel[0]` (scalar channels).
    #[must_use]
    pub fn recv(self, channel: ChannelId) -> Self {
        self.recv_indexed(channel, Expr::konst(0))
    }

    /// Receives on `channel[index]`.
    #[must_use]
    pub fn recv_indexed(mut self, channel: ChannelId, index: Expr) -> Self {
        self.edge.sync = Some(Sync {
            channel,
            index,
            dir: SyncDir::Recv,
        });
        self
    }

    /// Resets a clock to a constant value.
    #[must_use]
    pub fn reset(mut self, clock: Clock, value: i64) -> Self {
        self.edge.resets.push((clock, Expr::konst(value)));
        self
    }

    /// Resets a clock to the value of an expression over the pre-state.
    #[must_use]
    pub fn reset_expr(mut self, clock: Clock, value: Expr) -> Self {
        self.edge.resets.push((clock, value));
        self
    }

    /// Sets the discrete update statement.
    #[must_use]
    pub fn update(mut self, stmt: Stmt) -> Self {
        self.edge.update = stmt;
        self
    }

    /// Marks the edge as uncontrollable (environment-owned) for timed
    /// games — the dashed edges of UPPAAL-TIGA (Fig. 2 of the paper).
    #[must_use]
    pub fn uncontrollable(mut self) -> Self {
        self.edge.controllable = false;
        self
    }

    /// Makes the edge a branch of weight `weight` of a probabilistic
    /// choice: the first branch with `continues_choice == false`, each
    /// further one, added right after the previous branch with the same
    /// source, selects, guards and synchronisation, with `true` (see
    /// [`Edge::continues_choice`]).
    #[must_use]
    pub fn branch(mut self, weight: u64, continues_choice: bool) -> Self {
        self.edge.weight = weight;
        self.edge.continues_choice = continues_choice;
        self
    }

    /// Commits the edge to the automaton.
    pub fn done(self) {
        self.edges.push(self.edge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_network() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let c = b.channel("c");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location_with_invariant("L1", vec![ClockAtom::le(x, 5)]);
        a.set_initial(l0);
        a.edge(l0, l1).send(c).reset(x, 0).done();
        let a_id = a.done();
        let mut bb = b.automaton("B");
        let m0 = bb.location("M0");
        bb.edge(m0, m0).recv(c).done();
        bb.done();
        let net = b.build();
        assert_eq!(net.dim(), 2);
        assert_eq!(net.automata().len(), 2);
        assert_eq!(net.automaton(a_id).name, "A");
        assert_eq!(net.automaton_by_name("B"), Some(AutomatonId(1)));
        assert_eq!(
            net.automaton(a_id).location_by_name("L1"),
            Some(LocationId(1))
        );
        assert_eq!(net.max_constants(), vec![0, 5]);
    }

    #[test]
    #[should_panic(expected = "urgent channel")]
    fn urgent_channel_rejects_clock_guards() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let u = b.urgent_channel("u");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0)
            .recv(u)
            .guard_clock(ClockAtom::ge(x, 1))
            .done();
        a.done();
        let _ = b.build();
    }

    #[test]
    fn clock_atom_helpers() {
        let x = Clock(1);
        let ge = ClockAtom::ge(x, 3);
        assert_eq!(ge.i, Clock::REF);
        assert_eq!(ge.j, x);
        assert_eq!(ge.bound, Bound::le(-3));
        let neg = ClockAtom::le(x, 5).negated();
        // ¬(x ≤ 5) = x > 5 = 0 - x < -5
        assert_eq!(neg.i, Clock::REF);
        assert_eq!(neg.j, x);
        assert_eq!(neg.bound, Bound::lt(-5));
    }

    #[test]
    fn max_constants_cover_guards_and_invariants() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let y = b.clock("y");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 20)]);
        a.edge(l0, l0).guard_clock(ClockAtom::ge(y, 7)).done();
        a.done();
        let net = b.build();
        assert_eq!(net.max_constants(), vec![0, 20, 7]);
        assert_eq!(net.max_constant(), 20);
    }

    #[test]
    #[should_panic(expected = "differ from the previous edge")]
    fn a_branch_must_share_its_choices_guard() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).branch(1, false).done();
        a.edge(l0, l0)
            .guard_clock(ClockAtom::ge(x, 1))
            .branch(1, true)
            .done();
        a.done();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "weight 0")]
    fn an_edge_needs_a_positive_weight() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).branch(0, false).done();
        a.done();
        let _ = b.build();
    }
}
