//! `tempo-rare` — priced statistical model checking and
//! importance-splitting rare-event simulation.
//!
//! The paper's SMC story (UPPAAL-SMC, `modes`) estimates
//! `Pr[<=T](<> goal)` from independent simulations; its cost story
//! (UPPAAL-CORA) optimizes priced reachability symbolically. This crate
//! composes the two and fixes naive Monte Carlo's blind spot — events
//! too rare to observe in any affordable number of runs:
//!
//! * [`PricedChecker`] runs the stochastic simulator over a
//!   [`tempo_cora::PricedNetwork`], accumulating each run's cost
//!   (`Σ delay·rate + Σ edge costs`) to estimate cost-bounded
//!   reachability probabilities `Pr[cost <= C, time <= T](<> goal)`,
//!   expected costs, and cost distributions.
//! * [`RareChecker`] estimates rare reachability probabilities by
//!   importance splitting — fixed-effort and RESTART-style — over level
//!   sets of a compile-time distance-to-goal score ([`GoalScore`])
//!   derived from the model structure and the query, in the spirit of
//!   `modes`' rare-event support (Budde et al., *A Statistical Model
//!   Checker for Nondeterminism and Rare Events*, TACAS 2018).
//! * [`certified_cost_probability`] / [`certified_splitting_probability`]
//!   wrap both so the returned verdict carries a
//!   [`tempo_witness::certify::PricedRunCertificate`]: exported runs are
//!   replayed by the independent validator and their costs re-summed
//!   exactly before the caller sees the estimate.
//!
//! Everything is governed by [`tempo_obs::Budget`] and deterministic:
//! simulated segments are seeded from their index in the experiment, so
//! every estimate is a function of the model, the query and the seed,
//! byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod priced;
mod score;
mod split;

pub use certify::{certified_cost_probability, certified_splitting_probability};
pub use priced::{first_hit_cost, run_cost, PricedChecker};
pub use score::GoalScore;
pub use split::{LevelStats, RareChecker, SplitConfig, SplitEstimate, SplitMethod, WitnessedSplit};
