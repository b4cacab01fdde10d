//! # tempo-ecdar — compositional development with timed I/O automata
//!
//! The ECDAR member of the UPPAAL family (Bozga et al., DATE 2012, §II):
//! "a variant of UPPAAL supporting compositional development … designed
//! to check incrementally refinement and consistency between component
//! specifications given as timed automata. Also, the tool allows for
//! structural and logical composition of specifications."
//!
//! * [`Tioa`] — timed input/output automata (specifications with
//!   input/output-partitioned alphabets), built with [`TioaBuilder`];
//! * [`refines_governed`] — alternating timed simulation `impl ≤ spec`
//!   with counterexample traces;
//! * [`find_inconsistency_governed`] — consistency checking (no reachable
//!   state where the invariant blocks time with no output available);
//! * [`parallel`] / [`conjunction`] — structural and logical composition.
//!
//! ## Example: incremental development
//!
//! ```
//! use tempo_ecdar::{TioaBuilder, TioaAtom, refines_governed, parallel};
//! use tempo_obs::Budget;
//!
//! // Abstract contract: respond within 10.
//! let mut c = TioaBuilder::new("Contract");
//! let t = c.clock("t");
//! let i = c.location("I");
//! let p = c.location_with_invariant("P", vec![TioaAtom::le(t, 10)]);
//! c.input(i, p, "req").reset(t).done();
//! c.output(p, i, "resp").done();
//! let contract = c.build();
//!
//! // Concrete component: respond within [1, 4].
//! let mut m = TioaBuilder::new("Impl");
//! let x = m.clock("x");
//! let i = m.location("I");
//! let p = m.location_with_invariant("P", vec![TioaAtom::le(x, 4)]);
//! m.input(i, p, "req").reset(x).done();
//! m.output(p, i, "resp").guard(TioaAtom::ge(x, 1)).done();
//! let imp = m.build();
//!
//! assert!(refines_governed(&imp, &contract, &Budget::unlimited())
//!     .into_value()
//!     .is_ok());
//! # let _ = parallel(&imp, &contract);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod digest;
mod refine;
mod tioa;

pub use compose::{conjunction, parallel, ComposeError};
pub use refine::{find_inconsistency_governed, refines_governed, RefinementError};
pub use tioa::{
    IoDir, Tioa, TioaAtom, TioaBuilder, TioaEdge, TioaEdgeBuilder, TioaExplorer, TioaLocation,
    TioaState,
};
