//! Certified entry points: priced estimates whose exported runs are
//! replayed — and their costs re-summed — by the independent
//! [`tempo_witness`] validator before the verdict is returned.
//!
//! The exported runs are regenerated from the same seeds the estimator
//! consumed, so a certificate is evidence about the *reported* estimate,
//! not about a fresh batch. Cost re-summation is exact: the validator
//! accumulates in the same `f64` operation order as the simulator, and
//! [`PricedRunCertificate::validate`] compares bit patterns.

use std::time::Instant;

use crate::priced::{run_cost, PricedChecker};
use crate::split::{RareChecker, SplitConfig, SplitEstimate};
use tempo_conc::trial_seed;
use tempo_cora::PricedNetwork;
use tempo_obs::Budget;
use tempo_smc::{Estimate, RatePolicy, Run, Simulator, DEFAULT_MAX_STEPS};
use tempo_ta::StateFormula;
use tempo_witness::certify::{stamp, Certificate, Certified, PricedRunCertificate};
use tempo_witness::WitnessError;

/// Cost-bounded probability estimation with exported, independently
/// replayed priced runs: estimates
/// `Pr[cost <= cost_bound, time <= time_bound](<> goal)` as
/// [`PricedChecker::cost_probability_governed`] does, then regenerates
/// the first `witness_runs` trial runs from the same seeds and certifies
/// each as a legal timed run whose re-summed cost matches bit for bit.
///
/// # Errors
///
/// [`WitnessError::Malformed`] on invalid statistical parameters, or a
/// replay error if the simulator produced an illegal run or a cost that
/// the independent accumulator cannot reproduce.
#[allow(clippy::too_many_arguments)]
pub fn certified_cost_probability(
    pnet: &PricedNetwork,
    rates: &RatePolicy,
    seed: u64,
    goal: &StateFormula,
    cost_bound: f64,
    time_bound: f64,
    runs: usize,
    confidence: f64,
    witness_runs: usize,
    budget: &Budget,
) -> Certified<Option<Estimate>, PricedRunCertificate> {
    let mut checker = PricedChecker::new(pnet, rates.clone(), seed);
    let mut out = checker
        .cost_probability_governed(goal, cost_bound, time_bound, runs, confidence, budget)
        .map_err(|e| WitnessError::Malformed(e.to_string()))?;
    let started = Instant::now();
    let net = pnet.network();
    // The estimator's one and only batch ran at epoch 1. Reseeding from
    // the same `(seed, epoch, trial)` triple reproduces trial `i`, which
    // ended at its first goal state, and continues it to the horizon.
    let exported: Vec<Run> = (0..witness_runs.min(runs))
        .map(|i| {
            let mut sim = Simulator::new(net, rates.clone(), trial_seed(seed, 1, i));
            sim.simulate(time_bound, DEFAULT_MAX_STEPS)
        })
        .collect();
    let costs: Vec<f64> = exported.iter().map(|r| run_cost(pnet, r)).collect();
    let cert = PricedRunCertificate {
        runs: exported,
        costs,
    };
    cert.validate(pnet)?;
    stamp(&mut out, &Certificate::PricedRuns(cert.clone()), started);
    Ok((out, cert))
}

/// Importance-splitting estimation with exported, independently replayed
/// goal trajectories: estimates `Pr[<=time_bound](<> goal)` by fixed
/// effort, then certifies up to `witness_runs` of the final-level
/// entries' full trajectories — each a contiguous legal run from the
/// network's initial state, concatenated across splitting segments —
/// with their accumulated costs under `pnet`.
///
/// For an unpriced query pass a [`PricedNetwork`] with no rates or edge
/// costs; every certified cost is then exactly `0`.
///
/// # Errors
///
/// [`WitnessError::Malformed`] on invalid statistical parameters, or a
/// replay error if a concatenated trajectory is not a legal run.
#[allow(clippy::too_many_arguments)]
pub fn certified_splitting_probability(
    pnet: &PricedNetwork,
    rates: &RatePolicy,
    seed: u64,
    goal: &StateFormula,
    time_bound: f64,
    config: &SplitConfig,
    witness_runs: usize,
    budget: &Budget,
) -> Certified<Option<SplitEstimate>, PricedRunCertificate> {
    let mut checker = RareChecker::new(pnet.network(), rates.clone(), seed);
    let out = checker
        .probability_with_witnesses(goal, time_bound, config, budget, witness_runs)
        .map_err(|e| WitnessError::Malformed(e.to_string()))?;
    let started = Instant::now();
    let mut exported: Vec<Run> = Vec::new();
    let mut out = out.map(|v| {
        v.map(|(est, runs)| {
            exported = runs;
            est
        })
    });
    let costs: Vec<f64> = exported.iter().map(|r| run_cost(pnet, r)).collect();
    let cert = PricedRunCertificate {
        runs: exported,
        costs,
    };
    cert.validate(pnet)?;
    stamp(&mut out, &Certificate::PricedRuns(cert.clone()), started);
    Ok((out, cert))
}
