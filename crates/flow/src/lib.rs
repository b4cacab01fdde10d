//! `tempo-flow`: the fixpoint dataflow / abstract-interpretation
//! framework behind the static state-space reductions of the toolkit
//! (Bozga et al., DATE 2012 lineage — UPPAAL's LU extrapolation and
//! cone-of-influence slicing).
//!
//! The crate is deliberately model-agnostic: it knows [`tempo_expr`]
//! expressions and statements plus plain `usize` clock/location indices,
//! nothing about timed-automata networks or PTAs. The model crates
//! (`tempo-ta`, `tempo-modest`) adapt their structures into the three
//! analyses offered here:
//!
//! - [`interval`] — a saturating interval domain with abstract
//!   evaluation of [`tempo_expr::Expr`], transfer of
//!   [`tempo_expr::Stmt`], guard refinement, and a widening global
//!   range fixpoint ([`interval::RangeAnalysis`]). It is the one answer
//!   to "which values can this expression take?": slicing, range
//!   narrowing, mcpta's variable freezing and the `tempo-lint` rules
//!   MOD002 (overflow, zero divisors, out-of-range assignments) and
//!   MOD003 (provably false guards) all read it.
//! - [`lu`] — the per-clock, per-location lower/upper bound solver
//!   (Behrmann–Bouyer–Larsen–Pelánek LU bounds) computed by backward
//!   propagation through guards, invariants and resets.
//! - [`coi`] — assignment collectors and the cone-of-influence closure
//!   used for query-directed slicing and the `dead_variable` lint.
//!
//! Every analysis result is a plain, deterministic value; the adapters
//! stamp them with [`tempo_obs::StableDigest`] fingerprints so they can
//! partition verdict-cache keys.

pub mod coi;
pub mod interval;
pub mod lu;

pub use coi::{expr_can_trap, relevant_vars, stmt_assignments, Assign};
pub use interval::{
    eval, refine, truth, var_interval, Command, Env, Interval, RangeAnalysis, Truth,
};
pub use lu::{LuAutomaton, LuBounds, LuEdge, NO_BOUND};
