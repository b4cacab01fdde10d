//! # tempo-ta — symbolic model checking for networks of timed automata
//!
//! This crate is the workspace's UPPAAL substrate (Bozga et al., DATE
//! 2012, §II): networks of timed automata with a C-like data language
//! ([`tempo_expr`]), binary/broadcast/urgent channels, urgent and
//! committed locations, and a zone-based symbolic model checker for
//!
//! * reachability `E<> φ` with shortest symbolic witness traces,
//! * safety `A[] φ`,
//! * liveness (leads-to) `φ --> ψ`,
//! * deadlock-freedom `A[] not deadlock` (exact, via federation
//!   subtraction).
//!
//! ## Example
//!
//! ```
//! use tempo_ta::{NetworkBuilder, ModelChecker, StateFormula, ClockAtom};
//!
//! let mut b = NetworkBuilder::new();
//! let x = b.clock("x");
//! let mut lamp = b.automaton("Lamp");
//! let off = lamp.location("Off");
//! let on = lamp.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
//! lamp.edge(off, on).reset(x, 0).done();
//! lamp.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
//! let lamp_id = lamp.done();
//! let net = b.build();
//!
//! let mut mc = ModelChecker::new(&net);
//! assert!(mc.reachable(&StateFormula::at(lamp_id, on)).reachable);
//! let (verdict, _) = mc.deadlock_free();
//! assert!(verdict.holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod digest;
mod digital;
mod explore;
pub mod flow;
mod formula;
mod liveness;
mod model;
pub mod moves;
mod por;
mod prepare;
mod reach;
mod reduce;
pub mod slice;
mod symmetry;

pub use codec::{decode_state, encode_state, ZoneSummary};
pub use digital::{
    DigitalError, DigitalExplorer, DigitalMove, DigitalState, StateIndex, Transitions,
};
pub use explore::{Action, Explorer, SymState};
pub use flow::NetworkLu;
pub use formula::StateFormula;
pub use liveness::leads_to_governed;
pub use model::{
    Automaton, AutomatonBuilder, AutomatonId, Channel, ChannelId, ChannelKind, ClockAtom, Edge,
    EdgeBuilder, Location, LocationId, LocationKind, Network, NetworkBuilder, Sync, SyncDir,
};
pub use por::Por;
pub use prepare::QueryNetwork;
pub use reach::{ModelChecker, ReachResult, Stats, Trace, TraceStep, Verdict};
pub use reduce::ClockReduction;
pub use slice::{slice, Slice};
pub use symmetry::{near_miss_orbits, NearMiss, Perm, Symmetry};
pub use tempo_obs::{ExploreConfig, SpillConfig, SpillError, SpillMetrics};
