//! # tempo-smc — statistical model checking for stochastic timed automata
//!
//! The UPPAAL-SMC analogue of the workspace (Bozga et al., DATE 2012,
//! §II): networks of timed automata from [`tempo_ta`] are given the
//! paper's stochastic semantics — exponential delays in invariant-free
//! locations, uniform delays under invariants, shortest-delay race between
//! components — and properties are settled by simulation:
//!
//! * [`StatisticalChecker::probability_governed`] — estimate
//!   `Pr[<=T](<> φ)` with a confidence interval;
//! * [`StatisticalChecker::hypothesis_governed`] — Wald SPRT hypothesis
//!   testing;
//! * [`StatisticalChecker::expected_governed`] — expected values of run
//!   functionals (`µ`/`σ` as reported by `modes` in Table I of the paper);
//! * [`StatisticalChecker::cdf_governed`] — empirical CDFs such as Fig. 4.
//!
//! Each takes a resource budget ([`tempo_obs::Budget`]).
//!
//! See the crate-level documentation of the items for examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod sim;
mod stats;

pub use checker::{StatisticalChecker, DEFAULT_MAX_STEPS};
pub use sim::{ConcreteState, RatePolicy, Run, RunStep, Simulator};
pub use stats::{
    chernoff_runs, estimate, estimate_mean, wald_interval, wilson_interval, EmpiricalCdf, Estimate,
    MeanEstimate, Sprt, StatsError, TestVerdict,
};
