//! # tempo-bip — the BIP component framework (Behaviour, Interaction, Priority)
//!
//! A reproduction of the BIP framework surveyed in Bozga et al. (DATE
//! 2012, §IV): hierarchically composed systems built from atomic
//! components (behaviour + ports), glued by *interactions* (rendezvous
//! and broadcast connectors) filtered by *priorities*, with
//!
//! * a centralized execution [`Engine`] implementing the operational
//!   semantics,
//! * explicit-state exploration and deadlock search,
//! * **D-Finder-style compositional deadlock detection**
//!   ([`check_deadlock_freedom_governed`]): component invariants + trap-based
//!   interaction invariants refute candidate deadlocks without composing
//!   the state space,
//! * **safety-controller synthesis** ([`synthesize_safety_controller`])
//!   and a fault-injection harness reproducing the paper's DALA rover
//!   experiment ("the controller successfully stops the robot from
//!   reaching undesired/unsafe states").
//!
//! ## Example
//!
//! ```
//! use tempo_bip::BipSystemBuilder;
//! use tempo_obs::{Budget, ExploreConfig};
//! let mut b = BipSystemBuilder::new();
//! let mut ping = b.component("Ping");
//! let p0 = ping.state("P0");
//! let hello = ping.port("hello");
//! ping.transition(p0, p0, hello);
//! ping.done();
//! let mut pong = b.component("Pong");
//! let q0 = pong.state("Q0");
//! let world = pong.port("world");
//! pong.transition(q0, q0, world);
//! pong.done();
//! b.rendezvous("greet", &[hello, world]);
//! let sys = b.build();
//! let budget = Budget::unlimited().with_max_states(100);
//! let out = sys.find_deadlock_with(ExploreConfig::default(), &budget);
//! assert!(out.into_value().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod component;
mod composite;
mod controller;
mod dfinder;
mod digest;
mod por;
mod system;

pub use component::{Component, ComponentId, PortId, StateId, Transition};
pub use composite::{AtomBuilder, CPort, Composite};
pub use controller::{
    fault_injection_campaign, synthesize_safety_controller, FaultInjectionReport, SafetyController,
    SynthesisResult,
};
pub use dfinder::{check_deadlock_freedom_governed, component_invariants, DfinderVerdict};
pub use por::BipPor;
pub use system::{
    BipState, BipSystem, BipSystemBuilder, ComponentBuilder, Engine, Interaction, InteractionId,
    InteractionKind, Priority,
};
