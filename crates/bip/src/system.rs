//! The composed BIP system: components glued by interactions and
//! priorities, with a centralized execution engine and an explicit-state
//! explorer.

use crate::component::{Component, ComponentId, PortId, StateId, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use tempo_expr::{Decls, Expr, Stmt, Store};
use tempo_obs::{Budget, ExploreConfig, Governor, Outcome, RunReport};

/// Identifier of an interaction (connector) in a [`BipSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InteractionId(pub usize);

/// The synchronization type of an interaction (Bozga et al., DATE 2012,
/// §IV: "rendez-vous, to express strong symmetric synchronization and
/// broadcast, to express triggered asymmetric synchronization").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionKind {
    /// All ports must be ready; all fire together.
    Rendezvous,
    /// The trigger port (the first port of the interaction) initiates;
    /// every *ready* synchron port joins (maximal progress).
    Broadcast,
}

/// An interaction: a set of ports, a kind, an optional guard and a data
/// transfer update executed before the participants' own updates.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// Name for diagnostics.
    pub name: String,
    /// Participating ports (at most one per component). For broadcasts
    /// the first port is the trigger.
    pub ports: Vec<PortId>,
    /// Rendezvous or broadcast.
    pub kind: InteractionKind,
    /// Guard over the global store.
    pub guard: Expr,
    /// Data transfer executed when the interaction fires.
    pub update: Stmt,
    /// Whether the engine's safety controller may block this interaction
    /// (`false` models faults and other environment events).
    pub controllable: bool,
}

/// A priority rule `low < high`: when both interactions are enabled (and
/// the condition holds), the low one is blocked.
#[derive(Debug, Clone, PartialEq)]
pub struct Priority {
    /// The interaction that yields.
    pub low: InteractionId,
    /// The interaction that dominates.
    pub high: InteractionId,
    /// The rule applies only when this condition holds.
    pub condition: Expr,
}

/// A global state of a BIP system: one control location per component
/// plus the data store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BipState {
    /// Control location of each component.
    pub control: Vec<StateId>,
    /// Data store.
    pub store: Store,
}

/// A composed BIP system.
///
/// Build with [`BipSystemBuilder`]; execute with [`Engine`](crate::Engine)
/// or explore with [`BipSystem::reachable_states`].
#[derive(Debug, Clone)]
pub struct BipSystem {
    pub(crate) decls: Decls,
    pub(crate) components: Vec<Component>,
    pub(crate) port_owner: Vec<ComponentId>,
    pub(crate) port_names: Vec<String>,
    pub(crate) interactions: Vec<Interaction>,
    pub(crate) priorities: Vec<Priority>,
}

impl BipSystem {
    /// The data declarations.
    #[must_use]
    pub fn decls(&self) -> &Decls {
        &self.decls
    }

    /// The atomic components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The interactions.
    #[must_use]
    pub fn interactions(&self) -> &[Interaction] {
        &self.interactions
    }

    /// The priority rules.
    #[must_use]
    pub fn priorities(&self) -> &[Priority] {
        &self.priorities
    }

    /// The component owning a port.
    #[must_use]
    pub fn port_owner(&self, p: PortId) -> ComponentId {
        self.port_owner[p.0]
    }

    /// The name of a port.
    #[must_use]
    pub fn port_name(&self, p: PortId) -> &str {
        &self.port_names[p.0]
    }

    /// Looks up a component by name.
    #[must_use]
    pub fn component_by_name(&self, name: &str) -> Option<ComponentId> {
        self.components
            .iter()
            .position(|c| c.name == name)
            .map(ComponentId)
    }

    /// The initial global state.
    #[must_use]
    pub fn initial_state(&self) -> BipState {
        BipState {
            control: self.components.iter().map(|c| c.initial).collect(),
            store: self.decls.initial_store(),
        }
    }

    /// The participants of interaction `i` in `state`: for each port, the
    /// component and a guard-enabled transition. Returns `None` if the
    /// interaction is not enabled (a rendezvous port not ready, broadcast
    /// trigger not ready, or the interaction guard false).
    #[must_use]
    pub fn enabled_participants(
        &self,
        state: &BipState,
        i: InteractionId,
    ) -> Option<Vec<(ComponentId, usize)>> {
        let inter = &self.interactions[i.0];
        if !inter
            .guard
            .eval_bool(&self.decls, &state.store, &[])
            .unwrap_or(false)
        {
            return None;
        }
        let mut participants = Vec::new();
        for (k, &port) in inter.ports.iter().enumerate() {
            let cid = self.port_owner[port.0];
            let comp = &self.components[cid.0];
            let choice = comp.transitions.iter().position(|t| {
                t.from == state.control[cid.0]
                    && t.port == port
                    && t.guard
                        .eval_bool(&self.decls, &state.store, &[])
                        .unwrap_or(false)
            });
            match (choice, inter.kind, k) {
                (Some(tix), _, _) => participants.push((cid, tix)),
                (None, InteractionKind::Rendezvous, _) => return None,
                (None, InteractionKind::Broadcast, 0) => return None, // trigger
                (None, InteractionKind::Broadcast, _) => {}           // synchron skips
            }
        }
        Some(participants)
    }

    /// All interactions enabled in `state` *after* applying priorities.
    #[must_use]
    pub fn enabled_interactions(&self, state: &BipState) -> Vec<InteractionId> {
        let raw: Vec<InteractionId> = (0..self.interactions.len())
            .map(InteractionId)
            .filter(|&i| self.enabled_participants(state, i).is_some())
            .collect();
        // Priorities filter among simultaneously enabled interactions.
        raw.iter()
            .copied()
            .filter(|&low| {
                !self.priorities.iter().any(|p| {
                    p.low == low
                        && raw.contains(&p.high)
                        && p.condition
                            .eval_bool(&self.decls, &state.store, &[])
                            .unwrap_or(false)
                })
            })
            .collect()
    }

    /// Executes interaction `i` from `state`.
    ///
    /// Returns `None` if the interaction is not enabled or an update
    /// fails. The interaction's data transfer runs first, then each
    /// participant's transition update in port order.
    #[must_use]
    pub fn execute(&self, state: &BipState, i: InteractionId) -> Option<BipState> {
        let participants = self.enabled_participants(state, i)?;
        let inter = &self.interactions[i.0];
        let mut next = state.clone();
        inter
            .update
            .execute(&self.decls, &mut next.store, &[])
            .ok()?;
        for (cid, tix) in participants {
            let t: &Transition = &self.components[cid.0].transitions[tix];
            t.update.execute(&self.decls, &mut next.store, &[]).ok()?;
            next.control[cid.0] = t.to;
        }
        Some(next)
    }

    /// Explores all reachable global states; `limit` bounds the search.
    ///
    /// Exceeding `limit` is not an error: the returned vector is then
    /// truncated at `limit` states. Use
    /// [`BipSystem::reachable_states_governed`] to distinguish a complete
    /// exploration from a truncated one.
    #[must_use]
    pub fn reachable_states(&self, limit: usize) -> Vec<BipState> {
        self.reachable_states_governed(&Budget::unlimited().with_max_states(limit as u64))
            .into_value()
    }

    /// Explores the reachable global states under a resource [`Budget`].
    ///
    /// On exhaustion the partial answer is the (genuinely reachable)
    /// states stored so far.
    pub fn reachable_states_governed(&self, budget: &Budget) -> Outcome<Vec<BipState>> {
        let gov = budget.governor();
        let mut out = Vec::new();
        let (_, report) = self.explore(None, false, &gov, |state| out.push(state));
        gov.finish(out, report)
    }

    /// Explicit-state deadlock check: a reachable state with no enabled
    /// interaction. Returns a witness if one exists within the first
    /// `limit` stored states ([`BipSystem::find_deadlock_governed`]
    /// distinguishes "no deadlock" from "search truncated").
    #[must_use]
    pub fn find_deadlock(&self, limit: usize) -> Option<BipState> {
        self.find_deadlock_governed(&Budget::unlimited().with_max_states(limit as u64))
            .into_value()
    }

    /// Deadlock search under a resource [`Budget`]: a witness found
    /// within the budget is definitive; exhaustion yields `None` as the
    /// partial answer ("no deadlock in the explored portion").
    ///
    /// Applies the default [`ExploreConfig`] — see
    /// [`BipSystem::find_deadlock_with`] for the knobs.
    pub fn find_deadlock_governed(&self, budget: &Budget) -> Outcome<Option<BipState>> {
        self.find_deadlock_with(ExploreConfig::default(), budget)
    }

    /// [`BipSystem::find_deadlock_governed`] with explicit reduction
    /// knobs. The `por` knob enables the persistent-set reduction of
    /// [`crate::BipPor`] — sound for deadlock search by Godefroid's
    /// theorem, and conservative: states where no persistent candidate
    /// shrinks the expansion are expanded in full. The `symmetry` knob
    /// is currently ignored by the BIP engine (interactions are wired to
    /// concrete ports, so there is no template identity to fold on).
    pub fn find_deadlock_with(
        &self,
        config: ExploreConfig,
        budget: &Budget,
    ) -> Outcome<Option<BipState>> {
        let por = config
            .por
            .then(|| crate::BipPor::analyze(self))
            .filter(crate::BipPor::is_active);
        let gov = budget.governor();
        match self.explore(por.as_ref(), true, &gov, drop) {
            (Some(deadlock), report) => gov.finish_complete(Some(deadlock), report),
            (None, report) => gov.finish(None, report),
        }
    }

    /// The one breadth-first search over the global states, from the
    /// initial state until the queue empties or `gov` trips. Every
    /// popped state goes to `popped` once expanded, also when the budget
    /// trips during its expansion. With `stop_at_deadlock`, the first
    /// popped state without an enabled interaction ends the search
    /// instead and is returned. `por` restricts each expansion to a
    /// persistent set where one exists.
    fn explore(
        &self,
        por: Option<&crate::BipPor>,
        stop_at_deadlock: bool,
        gov: &Governor,
        mut popped: impl FnMut(BipState),
    ) -> (Option<BipState>, RunReport) {
        let mut seen: HashSet<BipState> = HashSet::new();
        let mut queue: VecDeque<BipState> = VecDeque::new();
        let mut peak = 0_usize;
        let mut explored = 0_usize;
        let mut por_ample = 0_usize;
        let mut por_fallback = 0_usize;
        if gov.charge_state() {
            let init = self.initial_state();
            seen.insert(init.clone());
            queue.push_back(init);
            peak = 1;
        }
        let mut deadlock = None;
        while let Some(state) = queue.pop_front() {
            if !gov.check_time() {
                break;
            }
            explored += 1;
            let enabled = self.enabled_interactions(&state);
            if stop_at_deadlock && enabled.is_empty() {
                deadlock = Some(state);
                break;
            }
            let expand = match por.and_then(|p| p.persistent(&enabled)) {
                Some(mine) => {
                    por_ample += 1;
                    mine
                }
                None => {
                    if por.is_some() {
                        por_fallback += 1;
                    }
                    enabled
                }
            };
            let mut tripped = false;
            for i in expand {
                if let Some(next) = self.execute(&state, i) {
                    if !seen.contains(&next) {
                        if !gov.charge_state() {
                            tripped = true;
                            break;
                        }
                        seen.insert(next.clone());
                        queue.push_back(next);
                    }
                }
            }
            popped(state);
            if tripped {
                break;
            }
            peak = peak.max(queue.len());
        }
        let report = RunReport {
            states_explored: explored as u64,
            states_stored: seen.len() as u64,
            peak_waiting: peak as u64,
            por_ample_states: por_ample as u64,
            por_fallback_states: por_fallback as u64,
            wall_time: gov.elapsed(),
            ..RunReport::default()
        };
        (deadlock, report)
    }
}

/// Builder for [`BipSystem`] models.
///
/// ```
/// use tempo_bip::BipSystemBuilder;
/// let mut b = BipSystemBuilder::new();
/// let mut c = b.component("Worker");
/// let idle = c.state("Idle");
/// let busy = c.state("Busy");
/// let start = c.port("start");
/// let finish = c.port("finish");
/// c.transition(idle, busy, start);
/// c.transition(busy, idle, finish);
/// c.done();
/// b.rendezvous("go", &[start]);
/// b.rendezvous("rest", &[finish]);
/// let sys = b.build();
/// assert_eq!(sys.reachable_states(100).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct BipSystemBuilder {
    decls: Decls,
    components: Vec<Component>,
    port_owner: Vec<ComponentId>,
    port_names: Vec<String>,
    interactions: Vec<Interaction>,
    priorities: Vec<Priority>,
}

impl BipSystemBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        BipSystemBuilder::default()
    }

    /// Access to data declarations.
    pub fn decls_mut(&mut self) -> &mut Decls {
        &mut self.decls
    }

    /// Starts building an atomic component.
    pub fn component(&mut self, name: &str) -> ComponentBuilder<'_> {
        ComponentBuilder {
            parent: self,
            component: Component {
                name: name.to_owned(),
                states: Vec::new(),
                ports: Vec::new(),
                transitions: Vec::new(),
                initial: StateId(0),
            },
        }
    }

    /// Adds a rendezvous interaction over the given ports.
    pub fn rendezvous(&mut self, name: &str, ports: &[PortId]) -> InteractionId {
        self.interaction(name, ports, InteractionKind::Rendezvous)
    }

    /// Adds a broadcast interaction (first port is the trigger).
    pub fn broadcast(&mut self, name: &str, ports: &[PortId]) -> InteractionId {
        self.interaction(name, ports, InteractionKind::Broadcast)
    }

    /// Adds an interaction with explicit kind.
    ///
    /// # Panics
    ///
    /// Panics if two ports belong to the same component or `ports` is
    /// empty.
    pub fn interaction(
        &mut self,
        name: &str,
        ports: &[PortId],
        kind: InteractionKind,
    ) -> InteractionId {
        assert!(!ports.is_empty(), "interaction {name} has no ports");
        let mut owners: Vec<ComponentId> = ports.iter().map(|p| self.port_owner[p.0]).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(
            owners.len(),
            ports.len(),
            "interaction {name} uses two ports of one component"
        );
        self.interactions.push(Interaction {
            name: name.to_owned(),
            ports: ports.to_vec(),
            kind,
            guard: Expr::truth(),
            update: Stmt::skip(),
            controllable: true,
        });
        InteractionId(self.interactions.len() - 1)
    }

    /// Sets the guard of an interaction.
    pub fn set_guard(&mut self, i: InteractionId, guard: Expr) {
        self.interactions[i.0].guard = guard;
    }

    /// Sets the data transfer of an interaction.
    pub fn set_update(&mut self, i: InteractionId, update: Stmt) {
        self.interactions[i.0].update = update;
    }

    /// Marks an interaction as uncontrollable (a fault/environment event
    /// the safety controller cannot block).
    pub fn set_uncontrollable(&mut self, i: InteractionId) {
        self.interactions[i.0].controllable = false;
    }

    /// Adds the priority rule `low < high` (unconditional).
    pub fn priority(&mut self, low: InteractionId, high: InteractionId) {
        self.priorities.push(Priority {
            low,
            high,
            condition: Expr::truth(),
        });
    }

    /// Adds a conditional priority rule.
    pub fn priority_when(&mut self, low: InteractionId, high: InteractionId, condition: Expr) {
        self.priorities.push(Priority {
            low,
            high,
            condition,
        });
    }

    /// Finalizes the system.
    ///
    /// # Panics
    ///
    /// Panics if a priority rule references out-of-range interactions.
    #[must_use]
    pub fn build(self) -> BipSystem {
        for p in &self.priorities {
            assert!(
                p.low.0 < self.interactions.len() && p.high.0 < self.interactions.len(),
                "priority references unknown interaction"
            );
        }
        BipSystem {
            decls: self.decls,
            components: self.components,
            port_owner: self.port_owner,
            port_names: self.port_names,
            interactions: self.interactions,
            priorities: self.priorities,
        }
    }
}

/// Builder for one atomic component.
#[derive(Debug)]
pub struct ComponentBuilder<'a> {
    parent: &'a mut BipSystemBuilder,
    component: Component,
}

impl ComponentBuilder<'_> {
    /// Adds a control location.
    pub fn state(&mut self, name: &str) -> StateId {
        self.component.states.push(name.to_owned());
        StateId(self.component.states.len() - 1)
    }

    /// Sets the initial control location (defaults to the first).
    pub fn set_initial(&mut self, s: StateId) {
        self.component.initial = s;
    }

    /// Declares a port on this component.
    pub fn port(&mut self, name: &str) -> PortId {
        let pid = PortId(self.parent.port_owner.len());
        self.parent
            .port_owner
            .push(ComponentId(self.parent.components.len()));
        self.parent
            .port_names
            .push(format!("{}.{}", self.component.name, name));
        self.component.ports.push(pid);
        pid
    }

    /// Adds an unguarded transition.
    pub fn transition(&mut self, from: StateId, to: StateId, port: PortId) {
        self.transition_full(from, to, port, Expr::truth(), Stmt::skip());
    }

    /// Adds a transition with guard and update.
    pub fn transition_full(
        &mut self,
        from: StateId,
        to: StateId,
        port: PortId,
        guard: Expr,
        update: Stmt,
    ) {
        self.component.transitions.push(Transition {
            from,
            to,
            port,
            guard,
            update,
        });
    }

    /// Finalizes the component.
    pub fn done(self) -> ComponentId {
        self.parent.components.push(self.component);
        ComponentId(self.parent.components.len() - 1)
    }
}

/// The centralized BIP execution engine: repeatedly picks one enabled
/// interaction (uniformly at random among the maximal-priority enabled
/// set) and executes it — the operational semantics implemented by BIP's
/// engines (Bozga et al., DATE 2012, §IV).
#[derive(Debug)]
pub struct Engine<'s> {
    sys: &'s BipSystem,
    state: BipState,
    rng: StdRng,
    /// Optional filter applied before choosing (the safety controller).
    allowed: Option<HashMap<BipState, Vec<InteractionId>>>,
    /// Log of executed interaction names.
    pub trace: Vec<String>,
}

impl<'s> Engine<'s> {
    /// Creates an engine at the initial state.
    #[must_use]
    pub fn new(sys: &'s BipSystem, seed: u64) -> Self {
        Engine {
            sys,
            state: sys.initial_state(),
            rng: StdRng::seed_from_u64(seed),
            allowed: None,
            trace: Vec::new(),
        }
    }

    /// Installs a controller: in states present in the map, only the
    /// listed controllable interactions may fire (uncontrollable ones are
    /// never blocked).
    pub fn install_controller(&mut self, allowed: HashMap<BipState, Vec<InteractionId>>) {
        self.allowed = Some(allowed);
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> &BipState {
        &self.state
    }

    /// Executes one engine step. Returns the fired interaction, or `None`
    /// on deadlock (or full controller blockage).
    pub fn step(&mut self) -> Option<InteractionId> {
        let mut enabled = self.sys.enabled_interactions(&self.state);
        if let Some(ctrl) = &self.allowed {
            if let Some(ok) = ctrl.get(&self.state) {
                enabled.retain(|i| !self.sys.interactions[i.0].controllable || ok.contains(i));
            }
        }
        if enabled.is_empty() {
            return None;
        }
        let i = enabled[self.rng.gen_range(0..enabled.len())];
        let next = self.sys.execute(&self.state, i)?;
        self.trace.push(self.sys.interactions[i.0].name.clone());
        self.state = next;
        Some(i)
    }

    /// Runs up to `steps` engine steps, returning how many fired.
    pub fn run(&mut self, steps: usize) -> usize {
        (0..steps).take_while(|_| self.step().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Producer/consumer through a 1-place buffer variable.
    fn producer_consumer() -> (BipSystem, InteractionId, InteractionId) {
        let mut b = BipSystemBuilder::new();
        let full = b.decls_mut().int("full", 0, 1);
        let mut p = b.component("Producer");
        let idle = p.state("Idle");
        let put = p.port("put");
        p.transition(idle, idle, put);
        p.done();
        let mut c = b.component("Consumer");
        let waiting = c.state("Waiting");
        let get = c.port("get");
        c.transition(waiting, waiting, get);
        c.done();
        let produce = b.rendezvous("produce", &[put]);
        b.set_guard(produce, Expr::var(full).eq(Expr::konst(0)));
        b.set_update(produce, Stmt::assign(full, Expr::konst(1)));
        let consume = b.rendezvous("consume", &[get]);
        b.set_guard(consume, Expr::var(full).eq(Expr::konst(1)));
        b.set_update(consume, Stmt::assign(full, Expr::konst(0)));
        (b.build(), produce, consume)
    }

    #[test]
    fn engine_alternates_producer_consumer() {
        let (sys, produce, consume) = producer_consumer();
        let mut engine = Engine::new(&sys, 42);
        for step in 0..10 {
            let fired = engine.step().expect("never deadlocks");
            // The buffer forces strict alternation.
            if step % 2 == 0 {
                assert_eq!(fired, produce);
            } else {
                assert_eq!(fired, consume);
            }
        }
    }

    #[test]
    fn reachability_and_deadlock() {
        let (sys, _, _) = producer_consumer();
        let states = sys.reachable_states(100);
        assert_eq!(states.len(), 2, "full = 0 and full = 1");
        assert!(sys.find_deadlock(100).is_none());
    }

    #[test]
    fn rendezvous_requires_all_ports() {
        let mut b = BipSystemBuilder::new();
        let mut p = b.component("A");
        let a0 = p.state("S0");
        let a1 = p.state("S1");
        let pa = p.port("a");
        p.transition(a0, a1, pa);
        p.done();
        let mut q = b.component("B");
        let b0 = q.state("T0");
        let b1 = q.state("T1");
        let pb = q.port("b");
        // B only offers b from T1, which is unreachable.
        q.transition(b1, b0, pb);
        q.done();
        b.rendezvous("ab", &[pa, pb]);
        let sys = b.build();
        let init = sys.initial_state();
        assert!(sys.enabled_interactions(&init).is_empty());
        assert!(sys.find_deadlock(10).is_some());
    }

    #[test]
    fn broadcast_takes_ready_synchrons() {
        let mut b = BipSystemBuilder::new();
        let mut t = b.component("Trigger");
        let t0 = t.state("T0");
        let t1 = t.state("T1");
        let fire = t.port("fire");
        t.transition(t0, t1, fire);
        t.done();
        let mut r1 = b.component("Ready");
        let r1s = r1.state("S");
        let r1p = r1.port("hear");
        r1.transition(r1s, r1s, r1p);
        let r1_id = r1.done();
        let mut r2 = b.component("NotReady");
        let r2a = r2.state("A");
        let r2b = r2.state("B");
        let r2p = r2.port("hear");
        // Offers hear only from B (unreachable initially).
        r2.transition(r2b, r2a, r2p);
        r2.done();
        b.broadcast("alarm", &[fire, r1p, r2p]);
        let sys = b.build();
        let init = sys.initial_state();
        let parts = sys
            .enabled_participants(&init, InteractionId(0))
            .expect("trigger ready");
        // Trigger + the one ready synchron.
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, ComponentId(0));
        assert_eq!(parts[1].0, r1_id);
    }

    #[test]
    fn priorities_filter_enabled_set() {
        let mut b = BipSystemBuilder::new();
        let mut c = b.component("C");
        let s = c.state("S");
        let p1 = c.port("p1");
        let p2 = c.port("p2");
        c.transition(s, s, p1);
        c.transition(s, s, p2);
        c.done();
        let low = b.rendezvous("low", &[p1]);
        let high = b.rendezvous("high", &[p2]);
        b.priority(low, high);
        let sys = b.build();
        let enabled = sys.enabled_interactions(&sys.initial_state());
        assert_eq!(enabled, vec![high], "low is masked by high");
    }

    #[test]
    fn conditional_priority() {
        let mut b = BipSystemBuilder::new();
        let gate = b.decls_mut().int("gate", 0, 1);
        let mut c = b.component("C");
        let s = c.state("S");
        let p1 = c.port("p1");
        let p2 = c.port("p2");
        c.transition(s, s, p1);
        c.transition(s, s, p2);
        c.done();
        let low = b.rendezvous("low", &[p1]);
        let high = b.rendezvous("high", &[p2]);
        b.priority_when(low, high, Expr::var(gate).eq(Expr::konst(1)));
        let sys = b.build();
        // gate == 0: both enabled.
        assert_eq!(sys.enabled_interactions(&sys.initial_state()).len(), 2);
    }

    /// Two independent bounded counters: each component owns a local
    /// interaction incrementing its own variable up to 3. The only
    /// deadlock is (3, 3).
    fn independent_counters(shared_guard: bool) -> BipSystem {
        let mut b = BipSystemBuilder::new();
        let x0 = b.decls_mut().int("x0", 0, 3);
        let x1 = b.decls_mut().int("x1", 0, 3);
        let mut ports = Vec::new();
        for name in ["C0", "C1"] {
            let mut c = b.component(name);
            let s = c.state("S");
            let p = c.port("inc");
            c.transition(s, s, p);
            c.done();
            ports.push(p);
        }
        for (k, (&p, var)) in ports.iter().zip([x0, x1]).enumerate() {
            let i = b.rendezvous(if k == 0 { "inc0" } else { "inc1" }, &[p]);
            let guard = Expr::var(var).lt(Expr::konst(3));
            b.set_guard(
                i,
                if shared_guard {
                    // Reading the *other* counter couples the components.
                    guard & Expr::var(if k == 0 { x1 } else { x0 }).ge(Expr::konst(0))
                } else {
                    guard
                },
            );
            b.set_update(i, Stmt::assign(var, Expr::var(var) + Expr::konst(1)));
        }
        b.build()
    }

    #[test]
    fn persistent_set_reduces_independent_counters() {
        let sys = independent_counters(false);
        let full = sys.find_deadlock_with(ExploreConfig::unreduced(), &Budget::unlimited());
        let reduced = sys.find_deadlock_with(ExploreConfig::default(), &Budget::unlimited());
        assert!(full.value().is_some(), "the (3, 3) deadlock exists");
        assert!(
            reduced.value().is_some(),
            "reduction preserves the deadlock"
        );
        assert_eq!(full.value(), reduced.value(), "same unique witness");
        assert!(
            reduced.report().states_explored < full.report().states_explored,
            "reduced {} vs full {}",
            reduced.report().states_explored,
            full.report().states_explored
        );
        assert!(reduced.report().por_ample_states > 0);
        assert_eq!(full.report().por_ample_states, 0);
    }

    #[test]
    fn persistent_set_falls_back_on_shared_data() {
        let sys = independent_counters(true);
        assert!(
            !crate::BipPor::analyze(&sys).is_active(),
            "cross-component guard reads defeat the candidate analysis"
        );
        let reduced = sys.find_deadlock_with(ExploreConfig::default(), &Budget::unlimited());
        let full = sys.find_deadlock_with(ExploreConfig::unreduced(), &Budget::unlimited());
        assert_eq!(full.value(), reduced.value());
        assert_eq!(
            full.report().states_explored,
            reduced.report().states_explored,
            "inactive reduction must not change the exploration"
        );
    }

    #[test]
    fn persistent_set_ignores_prioritized_interactions() {
        // Like the independent counters, but a priority rule couples the
        // two local interactions: the analysis must refuse both.
        let mut b = BipSystemBuilder::new();
        let x0 = b.decls_mut().int("x0", 0, 3);
        let x1 = b.decls_mut().int("x1", 0, 3);
        let mut ports = Vec::new();
        for name in ["C0", "C1"] {
            let mut c = b.component(name);
            let s = c.state("S");
            let p = c.port("inc");
            c.transition(s, s, p);
            c.done();
            ports.push(p);
        }
        let i0 = b.rendezvous("inc0", &[ports[0]]);
        b.set_guard(i0, Expr::var(x0).lt(Expr::konst(3)));
        b.set_update(i0, Stmt::assign(x0, Expr::var(x0) + Expr::konst(1)));
        let i1 = b.rendezvous("inc1", &[ports[1]]);
        b.set_guard(i1, Expr::var(x1).lt(Expr::konst(3)));
        b.set_update(i1, Stmt::assign(x1, Expr::var(x1) + Expr::konst(1)));
        b.priority(i0, i1);
        let sys = b.build();
        assert!(!crate::BipPor::analyze(&sys).is_active());
        let full = sys.find_deadlock_with(ExploreConfig::unreduced(), &Budget::unlimited());
        let reduced = sys.find_deadlock_with(ExploreConfig::default(), &Budget::unlimited());
        assert_eq!(full.value(), reduced.value());
    }

    #[test]
    fn interaction_data_transfer_runs_first() {
        let mut b = BipSystemBuilder::new();
        let x = b.decls_mut().int("x", 0, 10);
        let y = b.decls_mut().int("y", 0, 10);
        let mut c = b.component("C");
        let s = c.state("S");
        let p = c.port("p");
        // The component's update reads x (already set by the connector).
        c.transition_full(s, s, p, Expr::truth(), Stmt::assign(y, Expr::var(x)));
        c.done();
        let i = b.rendezvous("go", &[p]);
        b.set_update(i, Stmt::assign(x, Expr::konst(7)));
        let sys = b.build();
        let next = sys.execute(&sys.initial_state(), i).unwrap();
        assert_eq!(next.store.get(y), 7);
    }
}
