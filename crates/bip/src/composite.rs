//! Hierarchical (composite) BIP components and the flattening
//! transformation.
//!
//! BIP "allows the construction of composite hierarchically structured
//! systems from atomic components" and relies on "source-to-source
//! transformers that allow progressive refinement" (Bozga et al., DATE
//! 2012, §IV). A [`Composite`] nests atomic components and other
//! composites, wires the ports visible at its level with interactions,
//! and *exports* a subset of ports upward; [`Composite::flatten`] is the
//! source-to-source transformation producing the equivalent flat
//! [`BipSystem`] that the engine and the analyses run on.

use crate::component::{PortId, StateId};
use crate::system::{BipSystem, BipSystemBuilder, InteractionKind};
use tempo_expr::{Decls, Expr, Stmt};

/// A port handle at one composite level: either a port of a local atomic
/// component or a port exported by a nested composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CPort {
    level_tag: usize,
    index: usize,
}

/// Specification of an atomic component inside a composite.
#[derive(Debug, Clone)]
struct AtomSpec {
    name: String,
    states: Vec<String>,
    initial: usize,
    ports: Vec<String>,
    /// (from, to, port index, guard, update)
    transitions: Vec<(usize, usize, usize, Expr, Stmt)>,
}

/// Where a level-local port handle points.
#[derive(Debug, Clone, Copy)]
enum PortTarget {
    /// Port `port_ix` of local atom `atom_ix`.
    Atom { atom_ix: usize, port_ix: usize },
    /// Export `export_ix` of child composite `child_ix`.
    Child { child_ix: usize, export_ix: usize },
}

/// An interaction declared at one composite level.
#[derive(Debug, Clone)]
struct InteractionSpec {
    name: String,
    ports: Vec<CPort>,
    kind: InteractionKind,
    guard: Expr,
    update: Stmt,
    controllable: bool,
}

/// A hierarchical BIP component.
///
/// ```
/// use tempo_bip::{Composite, InteractionKind};
///
/// // Leaf: a worker with start/finish ports.
/// let mut worker = Composite::new("Worker");
/// let mut cell = worker.atom("Cell");
/// let idle = cell.state("Idle");
/// let busy = cell.state("Busy");
/// let start = cell.port("start");
/// let finish = cell.port("finish");
/// cell.transition(idle, busy, start);
/// cell.transition(busy, idle, finish);
/// let (start, finish) = {
///     let ports = cell.done();
///     (ports[0], ports[1])
/// };
/// worker.export("start", start);
/// worker.export("finish", finish);
///
/// // Parent: two workers in lockstep.
/// let mut plant = Composite::new("Plant");
/// let w1 = plant.child(worker.clone());
/// let w2 = plant.child(worker);
/// let s1 = plant.child_port(w1, "start").unwrap();
/// let s2 = plant.child_port(w2, "start").unwrap();
/// plant.interaction("both_start", &[s1, s2], InteractionKind::Rendezvous);
/// let flat = plant.flatten();
/// assert_eq!(flat.components().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Composite {
    name: String,
    level_tag: usize,
    atoms: Vec<AtomSpec>,
    children: Vec<Composite>,
    ports: Vec<PortTarget>,
    port_names: Vec<String>,
    exports: Vec<(String, CPort)>,
    interactions: Vec<InteractionSpec>,
    priorities: Vec<(usize, usize, Expr)>,
    decls: Decls,
}

impl Composite {
    /// Creates an empty composite.
    #[must_use]
    pub fn new(name: &str) -> Self {
        // A pseudo-unique tag guards against mixing handles across
        // composites (checked when the handle is used).
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);
        Composite {
            name: name.to_owned(),
            level_tag: COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            atoms: Vec::new(),
            children: Vec::new(),
            ports: Vec::new(),
            port_names: Vec::new(),
            exports: Vec::new(),
            interactions: Vec::new(),
            priorities: Vec::new(),
            decls: Decls::new(),
        }
    }

    /// The composite's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Access to data declarations (flattening merges every level's
    /// declarations; names are prefixed with the composite's path).
    pub fn decls_mut(&mut self) -> &mut Decls {
        &mut self.decls
    }

    /// Starts defining a local atomic component; finish with
    /// [`AtomBuilder::done`], which returns the component's port handles.
    pub fn atom(&mut self, name: &str) -> AtomBuilder<'_> {
        AtomBuilder {
            composite: self,
            spec: AtomSpec {
                name: name.to_owned(),
                states: Vec::new(),
                initial: 0,
                ports: Vec::new(),
                transitions: Vec::new(),
            },
        }
    }

    /// Nests a child composite, returning its index.
    pub fn child(&mut self, child: Composite) -> usize {
        self.children.push(child);
        self.children.len() - 1
    }

    /// The handle for a port exported by child `child_ix` under `name`.
    #[must_use]
    pub fn child_port(&mut self, child_ix: usize, name: &str) -> Option<CPort> {
        let export_ix = self
            .children
            .get(child_ix)?
            .exports
            .iter()
            .position(|(n, _)| n == name)?;
        self.ports.push(PortTarget::Child {
            child_ix,
            export_ix,
        });
        self.port_names
            .push(format!("{}.{}", self.children[child_ix].name, name));
        Some(CPort {
            level_tag: self.level_tag,
            index: self.ports.len() - 1,
        })
    }

    /// Exports a visible port upward under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different composite.
    pub fn export(&mut self, name: &str, port: CPort) {
        assert_eq!(port.level_tag, self.level_tag, "foreign port handle");
        self.exports.push((name.to_owned(), port));
    }

    /// Adds an interaction over visible ports, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if a handle belongs to a different composite.
    pub fn interaction(&mut self, name: &str, ports: &[CPort], kind: InteractionKind) -> usize {
        for p in ports {
            assert_eq!(p.level_tag, self.level_tag, "foreign port handle");
        }
        self.interactions.push(InteractionSpec {
            name: name.to_owned(),
            ports: ports.to_vec(),
            kind,
            guard: Expr::truth(),
            update: Stmt::skip(),
            controllable: true,
        });
        self.interactions.len() - 1
    }

    /// Sets the guard of a local interaction.
    pub fn set_guard(&mut self, interaction: usize, guard: Expr) {
        self.interactions[interaction].guard = guard;
    }

    /// Sets the data transfer of a local interaction.
    pub fn set_update(&mut self, interaction: usize, update: Stmt) {
        self.interactions[interaction].update = update;
    }

    /// Marks a local interaction uncontrollable (a fault).
    pub fn set_uncontrollable(&mut self, interaction: usize) {
        self.interactions[interaction].controllable = false;
    }

    /// Adds the priority `low < high` between two local interactions.
    pub fn priority(&mut self, low: usize, high: usize) {
        self.priorities.push((low, high, Expr::truth()));
    }

    /// The flattening source-to-source transformation: produces the
    /// equivalent flat [`BipSystem`]. Component names are prefixed with
    /// their hierarchical path (`Plant.Worker.Cell`).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy is malformed (dangling exports).
    #[must_use]
    pub fn flatten(&self) -> BipSystem {
        let mut b = BipSystemBuilder::new();
        let mut flat = Flattened::default();
        self.flatten_into(&mut b, &mut flat, "");
        for (low, high, cond, guard, update, controllable, name, ports, kind) in
            flat.pending_interactions
        {
            let _ = (low, high, cond);
            let id = b.interaction(&name, &ports, kind);
            b.set_guard(id, guard);
            b.set_update(id, update);
            if !controllable {
                b.set_uncontrollable(id);
            }
        }
        for (low, high, cond) in flat.pending_priorities {
            b.priority_when(
                crate::system::InteractionId(low),
                crate::system::InteractionId(high),
                cond,
            );
        }
        b.build()
    }

    /// Recursively registers atoms and collects interactions. Returns the
    /// flat `PortId` of each of this composite's exports.
    fn flatten_into(
        &self,
        b: &mut BipSystemBuilder,
        flat: &mut Flattened,
        prefix: &str,
    ) -> Vec<PortId> {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}.{}", self.name)
        };
        // Hoist this level's declarations (names prefixed by the path).
        let mut var_map = Vec::new();
        for info in self.decls.vars().to_vec() {
            let id = if info.is_array {
                b.decls_mut()
                    .array(&format!("{path}.{}", info.name), info.len, info.lo, info.hi)
            } else {
                b.decls_mut()
                    .int(&format!("{path}.{}", info.name), info.lo, info.hi)
            };
            var_map.push(id);
        }
        let _ = var_map; // expressions refer to VarIds minted on `decls_mut`
                         // Local atoms.
        let mut atom_ports: Vec<Vec<PortId>> = Vec::new();
        for atom in &self.atoms {
            let mut cb = b.component(&format!("{path}.{}", atom.name));
            let states: Vec<StateId> = atom.states.iter().map(|s| cb.state(s)).collect();
            cb.set_initial(states[atom.initial]);
            let ports: Vec<PortId> = atom.ports.iter().map(|p| cb.port(p)).collect();
            for (from, to, port_ix, guard, update) in &atom.transitions {
                cb.transition_full(
                    states[*from],
                    states[*to],
                    ports[*port_ix],
                    guard.clone(),
                    update.clone(),
                );
            }
            cb.done();
            atom_ports.push(ports);
        }
        // Children (recursively), collecting their export tables.
        let child_exports: Vec<Vec<PortId>> = self
            .children
            .iter()
            .map(|c| c.flatten_into(b, flat, &path))
            .collect();
        // Resolve this level's visible ports to flat ports.
        let resolve = |p: &CPort| -> PortId {
            match self.ports[p.index] {
                PortTarget::Atom { atom_ix, port_ix } => atom_ports[atom_ix][port_ix],
                PortTarget::Child {
                    child_ix,
                    export_ix,
                } => child_exports[child_ix][export_ix],
            }
        };
        // Queue interactions (all levels' interactions are global after
        // flattening; indices are assigned in emission order).
        let base = flat.pending_interactions.len();
        for spec in &self.interactions {
            let ports: Vec<PortId> = spec.ports.iter().map(&resolve).collect();
            flat.pending_interactions.push((
                0,
                0,
                Expr::truth(),
                spec.guard.clone(),
                spec.update.clone(),
                spec.controllable,
                format!("{path}.{}", spec.name),
                ports,
                spec.kind,
            ));
        }
        for (low, high, cond) in &self.priorities {
            flat.pending_priorities
                .push((base + low, base + high, cond.clone()));
        }
        // Export table.
        self.exports.iter().map(|(_, p)| resolve(p)).collect()
    }
}

#[derive(Default)]
#[allow(clippy::type_complexity)]
struct Flattened {
    pending_interactions: Vec<(
        usize,
        usize,
        Expr,
        Expr,
        Stmt,
        bool,
        String,
        Vec<PortId>,
        InteractionKind,
    )>,
    pending_priorities: Vec<(usize, usize, Expr)>,
}

/// Builder for an atomic component inside a [`Composite`].
#[derive(Debug)]
pub struct AtomBuilder<'a> {
    composite: &'a mut Composite,
    spec: AtomSpec,
}

impl AtomBuilder<'_> {
    /// Adds a control location.
    pub fn state(&mut self, name: &str) -> usize {
        self.spec.states.push(name.to_owned());
        self.spec.states.len() - 1
    }

    /// Sets the initial location (defaults to the first).
    pub fn set_initial(&mut self, state: usize) {
        self.spec.initial = state;
    }

    /// Declares a port; its index doubles as the handle position in the
    /// vector returned by [`AtomBuilder::done`].
    pub fn port(&mut self, name: &str) -> usize {
        self.spec.ports.push(name.to_owned());
        self.spec.ports.len() - 1
    }

    /// Adds an unguarded transition.
    pub fn transition(&mut self, from: usize, to: usize, port: usize) {
        self.spec
            .transitions
            .push((from, to, port, Expr::truth(), Stmt::skip()));
    }

    /// Adds a guarded transition with update.
    pub fn transition_full(
        &mut self,
        from: usize,
        to: usize,
        port: usize,
        guard: Expr,
        update: Stmt,
    ) {
        self.spec.transitions.push((from, to, port, guard, update));
    }

    /// Finalizes the atom, returning level-local handles for its ports
    /// (in declaration order).
    pub fn done(self) -> Vec<CPort> {
        let atom_ix = self.composite.atoms.len();
        let mut handles = Vec::new();
        for port_ix in 0..self.spec.ports.len() {
            self.composite
                .ports
                .push(PortTarget::Atom { atom_ix, port_ix });
            self.composite
                .port_names
                .push(format!("{}.{}", self.spec.name, self.spec.ports[port_ix]));
            handles.push(CPort {
                level_tag: self.composite.level_tag,
                index: self.composite.ports.len() - 1,
            });
        }
        self.composite.atoms.push(self.spec);
        handles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_obs::{Budget, ExploreConfig};

    /// A worker composite with an internal watchdog: the worker's start
    /// and finish are exported; internally, finish also resets the
    /// watchdog (a local interaction invisible from outside).
    fn worker() -> Composite {
        let mut w = Composite::new("Worker");
        let mut cell = w.atom("Cell");
        let idle = cell.state("Idle");
        let busy = cell.state("Busy");
        let p_start = cell.port("start");
        let p_finish = cell.port("finish");
        cell.transition(idle, busy, p_start);
        cell.transition(busy, idle, p_finish);
        let cell_ports = cell.done();
        w.export("start", cell_ports[0]);
        w.export("finish", cell_ports[1]);
        w
    }

    #[test]
    fn flatten_names_follow_hierarchy() {
        let mut plant = Composite::new("Plant");
        let w1 = plant.child(worker());
        let w2 = plant.child(worker());
        let s1 = plant.child_port(w1, "start").unwrap();
        let s2 = plant.child_port(w2, "start").unwrap();
        let f1 = plant.child_port(w1, "finish").unwrap();
        let f2 = plant.child_port(w2, "finish").unwrap();
        plant.interaction("both_start", &[s1, s2], InteractionKind::Rendezvous);
        plant.interaction("f1", &[f1], InteractionKind::Rendezvous);
        plant.interaction("f2", &[f2], InteractionKind::Rendezvous);
        let flat = plant.flatten();
        let names: Vec<&str> = flat.components().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Plant.Worker.Cell", "Plant.Worker.Cell"]);
        assert_eq!(flat.interactions().len(), 3);
        assert!(flat.interactions()[0].name.starts_with("Plant.both_start"));
    }

    #[test]
    fn flattened_semantics_synchronize_across_levels() {
        let mut plant = Composite::new("Plant");
        let w1 = plant.child(worker());
        let w2 = plant.child(worker());
        let s1 = plant.child_port(w1, "start").unwrap();
        let s2 = plant.child_port(w2, "start").unwrap();
        let f1 = plant.child_port(w1, "finish").unwrap();
        let f2 = plant.child_port(w2, "finish").unwrap();
        plant.interaction("both_start", &[s1, s2], InteractionKind::Rendezvous);
        plant.interaction("both_finish", &[f1, f2], InteractionKind::Rendezvous);
        let flat = plant.flatten();
        // Lockstep: exactly two reachable states (both idle / both busy).
        let states = flat
            .reachable_states_governed(&Budget::unlimited().with_max_states(100))
            .into_value();
        assert_eq!(states.len(), 2);
        assert!(flat
            .find_deadlock_with(
                ExploreConfig::default(),
                &Budget::unlimited().with_max_states(100)
            )
            .into_value()
            .is_none());
    }

    #[test]
    fn three_level_hierarchy() {
        // Cluster contains two Plants, each containing two Workers.
        let mut plant = Composite::new("Plant");
        let w1 = plant.child(worker());
        let w2 = plant.child(worker());
        let s1 = plant.child_port(w1, "start").unwrap();
        let s2 = plant.child_port(w2, "start").unwrap();
        let f1 = plant.child_port(w1, "finish").unwrap();
        let f2 = plant.child_port(w2, "finish").unwrap();
        plant.interaction("both_start", &[s1, s2], InteractionKind::Rendezvous);
        plant.interaction("both_finish", &[f1, f2], InteractionKind::Rendezvous);
        plant.export("go", s1); // re-export: the joint start is triggered via w1's port
        let mut cluster = Composite::new("Cluster");
        let p1 = cluster.child(plant.clone());
        let p2 = cluster.child(plant);
        assert!(cluster.child_port(p1, "go").is_some());
        assert!(cluster.child_port(p2, "go").is_some());
        let flat = cluster.flatten();
        assert_eq!(flat.components().len(), 4);
        let names: Vec<&str> = flat.components().iter().map(|c| c.name.as_str()).collect();
        assert!(names.iter().all(|n| n.starts_with("Cluster.Plant.Worker")));
    }

    #[test]
    #[should_panic(expected = "foreign port handle")]
    fn foreign_handles_rejected() {
        let mut a = Composite::new("A");
        let mut atom = a.atom("X");
        let s = atom.state("S");
        let p = atom.port("p");
        atom.transition(s, s, p);
        let ports = atom.done();
        let mut b = Composite::new("B");
        b.interaction("bad", &[ports[0]], InteractionKind::Rendezvous);
    }

    #[test]
    fn priorities_survive_flattening() {
        let mut c = Composite::new("C");
        let mut atom = c.atom("X");
        let s = atom.state("S");
        let p1 = atom.port("p1");
        let p2 = atom.port("p2");
        atom.transition(s, s, p1);
        atom.transition(s, s, p2);
        let ports = atom.done();
        let low = c.interaction("low", &[ports[0]], InteractionKind::Rendezvous);
        let high = c.interaction("high", &[ports[1]], InteractionKind::Rendezvous);
        c.priority(low, high);
        let flat = c.flatten();
        let enabled = flat.enabled_interactions(&flat.initial_state());
        assert_eq!(enabled.len(), 1, "priority masks the low interaction");
        assert!(flat.interactions()[enabled[0].0].name.ends_with("high"));
    }
}
