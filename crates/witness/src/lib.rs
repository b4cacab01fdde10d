//! `tempo-witness` — concrete trace realization, certificates, and an
//! independent cross-engine replay validator.
//!
//! Every verdict-producing engine in the workspace (reachability, liveness,
//! CORA cost-optimal search, TIGA synthesis, SMC simulation, MDP value
//! iteration) answers with a *symbolic* artifact: a zone trace, a strategy
//! over symbolic states, a probability. This crate closes the loop between
//! those artifacts and the raw model semantics:
//!
//! 1. **Realization** ([`realize`]) turns a symbolic zone [`tempo_ta::Trace`]
//!    into a [`ConcreteTrace`] — an explicit timed run with one rational
//!    delay per step (encoded exactly as scaled integers) that satisfies
//!    every guard, invariant, and reset along the way.
//! 2. **Replay validation** ([`replay`], [`replay_run`]) re-executes a
//!    concrete trace against the raw [`tempo_ta::Network`] definition using
//!    an independent interpreter that shares *no* code with the exploration
//!    engines. A bug in zone extrapolation, in the digital-clocks engine, or
//!    in the simulator cannot also hide in the validator.
//! 3. **Certificates** ([`certify`]) wrap each engine's governed entry point
//!    so that, alongside the verdict, the caller receives a self-contained
//!    checkable object: a realized trace, a cost-annotated run whose step
//!    costs sum to the reported minimum, a closed-loop strategy table, or a
//!    memoryless scheduler whose induced Markov chain reproduces the
//!    reported probability.
//! 4. **Serialization** ([`format`](mod@format)) renders certificates in a line-oriented
//!    std-only text format and parses them back, so certificates can be
//!    stored as golden files and checked by third parties.
//!
//! Validation failures are *typed* ([`WitnessError`]): a wrong delay, an
//! unsatisfied guard, a cost mismatch, or an incomplete strategy each
//! produce a distinct error naming the offending step or state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
#[cfg(test)]
mod oracle;
mod realize;
mod semantics;
mod trace;
mod validate;

pub mod certify;
pub mod format;

pub use error::WitnessError;
pub use realize::realize;
pub use trace::{ConcreteState, ConcreteStep, ConcreteTrace, JointAction, TraceSemantics};
pub use validate::{replay, replay_priced_run, replay_run};
