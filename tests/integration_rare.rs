//! Integration tests for `tempo-rare`: importance splitting against
//! analytic and mcpta-exact rare-event probabilities, priced SMC,
//! determinism across repeats, certificate replay,
//! and the naive-vs-splitting budget comparison that motivates the
//! whole subsystem.

use std::sync::Arc;
use tempo_core::cora::PricedNetwork;
use tempo_core::mdp::Opt;
use tempo_core::obs::Budget;
use tempo_core::rare::{
    certified_cost_probability, certified_splitting_probability, run_cost, PricedChecker,
    RareChecker, SplitConfig, SplitEstimate, SplitMethod,
};
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::svc::{AnalysisService, JobKind, JobRequest, JobVerdict, ServiceConfig};
use tempo_core::witness::certify::Certificate;
use tempo_core::witness::format;
use tempo_models::{brp, brp_network, chain};

/// The headline claim: on an event of probability ~1e-6, fixed-effort
/// splitting produces a confidence interval that excludes 0 and contains
/// the exact probability, using under 1% of the runs the naive estimator
/// needs to *expect a single success* — and the naive estimator, given
/// splitting's exact budget, sees nothing at all.
#[test]
fn splitting_brackets_rare_chain_probability_at_a_fraction_of_naive_budget() {
    let c = chain(20);
    let exact = c.exact_probability(); // 2^-20 ≈ 9.54e-7
    assert!(exact < 1e-6);

    let mut rc = RareChecker::new(&c.net, RatePolicy::new(), 11);
    let est = rc
        .probability_governed(
            &c.goal(),
            c.time_bound(),
            &SplitConfig::default(),
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");

    assert!(est.lower > 0.0, "CI must exclude 0: {est:?}");
    assert!(
        est.lower <= exact && exact <= est.upper,
        "CI [{}, {}] misses exact p = {exact}",
        est.lower,
        est.upper
    );
    let naive_runs_to_one_success = 1.0 / exact; // ≈ 1.05e6
    assert!(
        (est.runs_total as f64) <= naive_runs_to_one_success / 100.0,
        "splitting used {} runs, over 1% of the naive {naive_runs_to_one_success}",
        est.runs_total
    );

    // Equal budget, naive estimator: the event is invisible.
    let mut smc = StatisticalChecker::new(&c.net, RatePolicy::new(), 11);
    let naive = smc
        .probability_governed(
            &c.goal(),
            c.time_bound(),
            usize::try_from(est.runs_total).unwrap(),
            0.95,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert_eq!(
        naive.successes, 0,
        "naive MC should see nothing at this budget"
    );
    assert_eq!(naive.lower, 0.0, "naive CI cannot exclude 0");
}

/// Splitting is a deterministic function of `(model, query, seed,
/// config)`: repeats are byte-identical, work counters included.
#[test]
fn splitting_is_byte_identical_across_repeats() {
    let c = chain(12);
    let config = SplitConfig {
        effort: 64,
        ..SplitConfig::default()
    };
    let run = || -> SplitEstimate {
        let mut rc = RareChecker::new(&c.net, RatePolicy::new(), 7);
        rc.probability_governed(&c.goal(), c.time_bound(), &config, &Budget::unlimited())
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes")
    };
    let (reference, repeat) = (run(), run());
    assert_eq!(reference.p_hat.to_bits(), repeat.p_hat.to_bits());
    assert_eq!(reference.lower.to_bits(), repeat.lower.to_bits());
    assert_eq!(reference.upper.to_bits(), repeat.upper.to_bits());
    assert_eq!(reference.runs_total, repeat.runs_total);
    assert_eq!(reference.splits_spawned, repeat.splits_spawned);
}

/// The RESTART estimator agrees with the analytic probability on a
/// moderately rare chain (its replication mean is unbiased; branch
/// factor 2 matches the per-level probability 1/2 exactly).
#[test]
fn restart_estimator_brackets_chain_probability() {
    let c = chain(10);
    let exact = c.exact_probability(); // 2^-10
    let config = SplitConfig {
        method: SplitMethod::Restart,
        branch: 2,
        replications: 512,
        ..SplitConfig::default()
    };
    let mut rc = RareChecker::new(&c.net, RatePolicy::new(), 23);
    let est = rc
        .probability_governed(&c.goal(), c.time_bound(), &config, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(
        est.lower <= exact && exact <= est.upper,
        "RESTART CI [{}, {}] misses exact p = {exact}",
        est.lower,
        est.upper
    );
    assert!(est.p_hat > exact / 3.0 && est.p_hat < exact * 3.0);
    assert!(est.splits_spawned > 0, "no clone was ever spawned");
}

/// Cross-check against the digital-clocks oracle: mcpta's exact Pmax on
/// BRP P1 matches the closed form, and the splitting CI brackets it on
/// an instance (P1 ≈ 1.9e-7) far beyond naive Monte Carlo.
#[test]
fn splitting_matches_mcpta_exact_probability_on_brp() {
    let b = brp_network(2, 4, 1);
    let exact = b.exact_p1(); // ≈ 1.94e-7
    assert!(exact < 1e-6);

    let m = brp(2, 4, 1);
    let mcpta_p1 = m
        .mcpta(0, 2_000_000)
        .reach_quantitative(Opt::Max, &m.p1_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    // Every SCC of the digital-clocks MDP is a single state, so mcpta
    // solves it in closed form and the two values agree to rounding:
    // the closed form itself loses digits in `1 − (1 − c)^N` at p ≈ 2e-7.
    assert!(
        ((mcpta_p1 - exact) / exact).abs() < 1e-8,
        "mcpta P1 = {mcpta_p1} vs analytic {exact}"
    );

    // BRP's score is non-monotone along failure paths (the retry counter
    // resets whenever a chunk finally gets through), which distorts the
    // level-entry distribution when levels are thin; a few coarse levels
    // with a large per-level effort keep the estimator well-centred.
    let config = SplitConfig {
        effort: 4096,
        max_levels: 4,
        ..SplitConfig::default()
    };
    let mut rc = RareChecker::new(&b.net, RatePolicy::new(), 5);
    let est = rc
        .probability_governed(&b.p1_goal(), b.time_bound(1), &config, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(est.lower > 0.0, "CI must exclude 0: {est:?}");
    assert!(
        est.lower <= mcpta_p1 && mcpta_p1 <= est.upper,
        "splitting CI [{}, {}] misses mcpta P1 = {mcpta_p1}",
        est.lower,
        est.upper
    );
}

/// Differential test: on a BRP instance where naive SMC is viable, the
/// SMC confidence interval brackets mcpta's exact Pmax at three seeds.
#[test]
fn smc_probability_brackets_mcpta_exact_p1_across_seeds() {
    let b = brp_network(2, 1, 1);
    let exact = b.exact_p1(); // ≈ 3.13e-3
    let m = brp(2, 1, 1);
    let mcpta_p1 = m
        .mcpta(0, 2_000_000)
        .reach_quantitative(Opt::Max, &m.p1_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    assert!(
        ((mcpta_p1 - exact) / exact).abs() < 1e-6,
        "mcpta P1 = {mcpta_p1} vs analytic {exact}"
    );
    for seed in [3, 17, 91] {
        let mut smc = StatisticalChecker::new(&b.net, RatePolicy::new(), seed);
        let est = smc
            .probability_governed(
                &b.p1_goal(),
                b.time_bound(1),
                5_000,
                0.99,
                &Budget::unlimited(),
            )
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
        assert!(
            est.lower <= mcpta_p1 && mcpta_p1 <= est.upper,
            "seed {seed}: CI [{}, {}] misses {mcpta_p1}",
            est.lower,
            est.upper
        );
    }
}

/// Priced SMC: with rate 1 in every location the accumulated cost is the
/// elapsed time, so cost-bounded and unbounded queries pin each other
/// down and the expected cost stays below the horizon.
#[test]
fn priced_checker_estimates_cost_bounded_probability_and_expected_cost() {
    let c = chain(6);
    let mut pnet = PricedNetwork::new(c.net.clone());
    let aut = c.aut;
    for (li, _) in c.net.automata()[aut.index()].locations.iter().enumerate() {
        pnet.set_rate(aut, tempo_core::ta::LocationId(li), 1);
    }
    let exact = c.exact_probability(); // 2^-6
    let mut chk = PricedChecker::new(&pnet, RatePolicy::new(), 9);

    // Unconstrained cost: plain time-bounded reachability.
    let est = chk
        .cost_probability_governed(
            &c.goal(),
            f64::INFINITY,
            c.time_bound(),
            8_000,
            0.99,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(
        est.lower <= exact && exact <= est.upper,
        "CI [{}, {}] misses exact p = {exact}",
        est.lower,
        est.upper
    );

    // Cost bound 0: unreachable without spending (every delay accrues).
    let zero = chk
        .cost_probability_governed(
            &c.goal(),
            0.0,
            c.time_bound(),
            1_000,
            0.95,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert_eq!(zero.successes, 0);

    // Expected cost = expected elapsed time, within the horizon.
    let mean = chk
        .expected_cost_governed(c.time_bound(), 2_000, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(mean.mean > 0.0 && mean.mean <= c.time_bound() + 1.0);

    // Cost CDF of goal hits: monotone, bounded by the success fraction.
    let cdf = chk
        .cost_cdf_governed(&c.goal(), c.time_bound(), 4_000, &Budget::unlimited())
        .into_value();
    assert!(cdf.hits() > 0);
    assert!(cdf.at(c.time_bound()) <= 1.0);
}

/// One priced (cost-bounded probability and cost CDF) and one
/// splitting query per estimator, each as its value's `Debug`
/// rendering — exact for `f64`, and for splitting including the level
/// counts, `runs_total` and `splits_spawned`.
fn rare_estimates() -> Vec<String> {
    let c = chain(3);
    let mut pnet = PricedNetwork::new(c.net.clone());
    let aut = c.aut;
    for (li, _) in c.net.automata()[aut.index()].locations.iter().enumerate() {
        pnet.set_rate(aut, tempo_core::ta::LocationId(li), 1);
    }
    for ei in 0..c.net.automata()[aut.index()].edges.len() {
        pnet.set_edge_cost(aut, ei, 1);
    }
    let mut chk = PricedChecker::new(&pnet, RatePolicy::new(), 29);
    let cost_p = chk
        .cost_probability_governed(
            &c.goal(),
            4.5,
            c.time_bound(),
            400,
            0.95,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    let cost_cdf = chk
        .cost_cdf_governed(&c.goal(), c.time_bound(), 400, &Budget::unlimited())
        .into_value();
    let fixed = SplitConfig {
        effort: 64,
        ..SplitConfig::default()
    };
    let restart = SplitConfig {
        method: SplitMethod::Restart,
        branch: 2,
        replications: 128,
        ..SplitConfig::default()
    };
    let c12 = chain(12);
    let c10 = chain(10);
    let fe = RareChecker::new(&c12.net, RatePolicy::new(), 7)
        .probability_governed(&c12.goal(), c12.time_bound(), &fixed, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    let rs = RareChecker::new(&c10.net, RatePolicy::new(), 23)
        .probability_governed(
            &c10.goal(),
            c10.time_bound(),
            &restart,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    vec![
        format!("{cost_p:?}"),
        format!("{cost_cdf:?}"),
        format!("{fe:?}"),
        format!("{rs:?}"),
    ]
}

/// The values of [`rare_estimates`] as computed before each trial and
/// splitting segment stopped at its decisive state (the first goal
/// state or level crossing). Stopping there cannot change an estimate
/// or a work counter.
const RARE_PINS: [&str; 4] = [
    // cost_probability
    "Estimate { mean: 0.0475, lower: 0.030617076951969073, upper: 0.07299154943431793, runs: 400, successes: 19, confidence: 0.95 }",
    // cost_cdf
    "EmpiricalCdf { samples: [4.38287979146097, 4.914535387091764, 4.240507182491193, 3.9583005070478072, 3.9676335361180644, 4.990825813832187, 3.449709612650302, 5.239386780684235, 3.9001711255326716, 4.676391377035374, 4.703767740161108, 5.130767229906638, 5.048582791966308, 4.724629839284793, 4.7405135120853235, 4.731436511142194, 4.456994076078688, 4.597539684742683, 4.2705863694983845, 3.970035278598192, 4.973915578753366, 3.8227094824473316, 4.827225563920333, 4.534501170234746, 4.326990921371047, 3.6255622498838487, 4.520413766096263, 4.590527130612989, 4.05435059533635, 4.357308578342019, 4.954871407282356, 5.175268648611897, 3.5971289789270946, 3.9201845685494185, 4.497552531700406, 4.527285267788386, 3.988632386102689, 4.73222862520554, 5.0616389513579785, 4.088841448597037, 4.9030161006187, 4.433152436516727, 4.9783143882283625, 4.118072831003362, 4.321821407623364, 4.917931949312249, 5.403223322561052, 4.646003014162291, 4.823492044360163, 4.482317123506422], population: 400 }",
    // fixed effort
    "SplitEstimate { p_hat: 0.0002680861291509684, lower: 0.00011497418418094198, upper: 0.0006250983484261404, confidence: 0.95, levels: [LevelStats { threshold: Some(1), trials: 64, crossers: 29 }, LevelStats { threshold: Some(2), trials: 64, crossers: 37 }, LevelStats { threshold: Some(3), trials: 64, crossers: 26 }, LevelStats { threshold: Some(4), trials: 64, crossers: 36 }, LevelStats { threshold: Some(5), trials: 64, crossers: 30 }, LevelStats { threshold: Some(6), trials: 64, crossers: 32 }, LevelStats { threshold: Some(7), trials: 64, crossers: 36 }, LevelStats { threshold: Some(8), trials: 64, crossers: 32 }, LevelStats { threshold: Some(9), trials: 64, crossers: 29 }, LevelStats { threshold: Some(10), trials: 64, crossers: 34 }, LevelStats { threshold: Some(11), trials: 64, crossers: 34 }, LevelStats { threshold: Some(12), trials: 64, crossers: 34 }, LevelStats { threshold: None, trials: 64, crossers: 64 }], runs_total: 768, splits_spawned: 704 }",
    // RESTART
    "SplitEstimate { p_hat: 0.001251220703125, lower: 0.0006617450492756911, upper: 0.0018406963569743088, confidence: 0.95, levels: [LevelStats { threshold: Some(1), trials: 0, crossers: 70 }, LevelStats { threshold: Some(2), trials: 0, crossers: 73 }, LevelStats { threshold: Some(3), trials: 0, crossers: 77 }, LevelStats { threshold: Some(4), trials: 0, crossers: 76 }, LevelStats { threshold: Some(5), trials: 0, crossers: 69 }, LevelStats { threshold: Some(6), trials: 0, crossers: 65 }, LevelStats { threshold: Some(7), trials: 0, crossers: 69 }, LevelStats { threshold: Some(8), trials: 0, crossers: 72 }, LevelStats { threshold: Some(9), trials: 0, crossers: 75 }, LevelStats { threshold: Some(10), trials: 0, crossers: 0 }], runs_total: 774, splits_spawned: 646 }",
];

#[test]
fn rare_estimates_match_pinned_values() {
    assert_eq!(rare_estimates(), RARE_PINS);
}

/// Certified priced estimation: exported runs replay through the
/// independent validator with costs re-summed bit-exactly, and the
/// certificate round-trips through the text format.
#[test]
fn certified_cost_probability_replays_and_round_trips() {
    let c = chain(5);
    let mut pnet = PricedNetwork::new(c.net.clone());
    let aut = c.aut;
    for (li, _) in c.net.automata()[aut.index()].locations.iter().enumerate() {
        pnet.set_rate(aut, tempo_core::ta::LocationId(li), 2);
    }
    for ei in 0..c.net.automata()[aut.index()].edges.len() {
        pnet.set_edge_cost(aut, ei, 3);
    }
    let (out, cert) = certified_cost_probability(
        &pnet,
        &RatePolicy::new(),
        9,
        &c.goal(),
        1e12,
        c.time_bound(),
        200,
        0.95,
        10,
        &Budget::unlimited(),
    )
    .expect("certification must succeed");
    assert!(out.value().is_some());
    assert_eq!(cert.runs.len(), 10);
    assert!(out.report().certificate_bytes > 0);
    assert!(cert.costs.iter().any(|&c| c > 0.0));
    // `validate` already replayed inside the wrapper; prove the text
    // round-trip preserves bit-exact costs and replayability.
    let text = format::render(&Certificate::PricedRuns(cert.clone()));
    let parsed = match format::parse(&c.net, &text).expect("parse") {
        Certificate::PricedRuns(p) => p,
        other => panic!("wrong certificate kind: {other:?}"),
    };
    assert_eq!(parsed.costs.len(), cert.costs.len());
    for (a, b) in parsed.costs.iter().zip(&cert.costs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    parsed
        .validate(&pnet)
        .expect("parsed certificate must replay");
}

/// Certified splitting: the exported goal trajectories are contiguous
/// legal runs from the initial state — each reaches the goal and
/// replays, cost re-summed exactly, through the independent validator.
#[test]
fn certified_splitting_exports_replayable_goal_trajectories() {
    let c = chain(12);
    let pnet = PricedNetwork::new(c.net.clone());
    let config = SplitConfig {
        effort: 64,
        ..SplitConfig::default()
    };
    let (out, cert) = certified_splitting_probability(
        &pnet,
        &RatePolicy::new(),
        13,
        &c.goal(),
        c.time_bound(),
        &config,
        5,
        &Budget::unlimited(),
    )
    .expect("certification must succeed");
    let est = out.value().as_ref().expect("estimate");
    assert!(est.lower > 0.0);
    assert!(!cert.runs.is_empty(), "no goal trajectory exported");
    assert!(cert.runs.len() <= 5);
    for (run, &cost) in cert.runs.iter().zip(&cert.costs) {
        assert!(
            run.satisfies_eventually(&c.net, &c.goal(), c.time_bound()),
            "exported run misses the goal"
        );
        assert_eq!(cost.to_bits(), run_cost(&pnet, run).to_bits());
    }
    assert!(out.report().splitting_levels > 0);
    assert!(out.report().splits_spawned > 0);
}

/// Budget governance: exhausting the run budget mid-experiment yields an
/// exhausted outcome with *no* value — a partial product of level
/// fractions is not an estimate — and honest work counters.
#[test]
fn splitting_under_tiny_budget_reports_exhaustion_without_a_value() {
    let c = chain(20);
    let mut rc = RareChecker::new(&c.net, RatePolicy::new(), 3);
    let out = rc
        .probability_governed(
            &c.goal(),
            c.time_bound(),
            &SplitConfig::default(),
            &Budget::unlimited().with_max_runs(10),
        )
        .expect("valid parameters");
    assert!(out.is_exhausted());
    assert!(
        out.value().is_none(),
        "partial product must not be reported"
    );
    assert!(out.report().runs_total <= 11);
}

/// Service integration: rare-event and priced jobs execute end to end,
/// their verdicts render/parse bit-exactly, and their cache keys
/// partition on seed and configuration.
#[test]
fn service_runs_rare_event_and_priced_smc_jobs() {
    let request = |kind: JobKind| JobRequest {
        tenant: "rare".to_owned(),
        priority: 0,
        budget: Budget::unlimited(),
        kind,
    };
    let c = chain(8);
    let net = Arc::new(c.net.clone());
    let pnet = Arc::new(PricedNetwork::new(c.net.clone()));
    let svc = AnalysisService::new(ServiceConfig::default());

    let rare_kind = JobKind::RareEvent {
        net: Arc::clone(&net),
        rates: RatePolicy::new(),
        seed: 11,
        goal: c.goal(),
        bound: c.time_bound(),
        config: SplitConfig {
            effort: 32,
            ..SplitConfig::default()
        },
    };
    let res = svc
        .run(request(rare_kind.clone()))
        .expect("rare job must run");
    let JobVerdict::RareProbability {
        p_hat,
        lower,
        upper,
        ..
    } = res.verdict
    else {
        panic!("wrong verdict kind: {:?}", res.verdict);
    };
    let exact = c.exact_probability();
    assert!(
        lower <= exact && exact <= upper,
        "[{lower}, {upper}] vs {exact}"
    );
    assert!(p_hat > 0.0);
    assert_eq!(
        JobVerdict::parse(&res.verdict.render()),
        Some(res.verdict.clone())
    );

    let priced_kind = JobKind::PricedSmc {
        pnet: Arc::clone(&pnet),
        rates: RatePolicy::new(),
        seed: 7,
        goal: c.goal(),
        cost_bound: f64::INFINITY,
        bound: c.time_bound(),
        runs: 500,
        confidence: 0.95,
    };
    let res = svc.run(request(priced_kind.clone())).expect("priced job");
    let JobVerdict::PricedProbability(est) = &res.verdict else {
        panic!("wrong verdict kind: {:?}", res.verdict);
    };
    assert!(est.lower <= exact && exact <= est.upper);
    assert_eq!(
        JobVerdict::parse(&res.verdict.render()),
        Some(res.verdict.clone())
    );

    // Cache keys: the same experiment shares a slot; a different seed or
    // splitting method does not.
    let budget = Budget::unlimited();
    assert_eq!(rare_kind.cache_key(&budget), rare_kind.cache_key(&budget));
    let other_seed = JobKind::RareEvent {
        net: Arc::clone(&net),
        rates: RatePolicy::new(),
        seed: 12,
        goal: c.goal(),
        bound: c.time_bound(),
        config: SplitConfig {
            effort: 32,
            ..SplitConfig::default()
        },
    };
    assert_ne!(rare_kind.cache_key(&budget), other_seed.cache_key(&budget));
    let other_method = JobKind::RareEvent {
        net: Arc::clone(&net),
        rates: RatePolicy::new(),
        seed: 11,
        goal: c.goal(),
        bound: c.time_bound(),
        config: SplitConfig {
            effort: 32,
            method: SplitMethod::Restart,
            ..SplitConfig::default()
        },
    };
    assert_ne!(
        rare_kind.cache_key(&budget),
        other_method.cache_key(&budget)
    );
    assert!(!rare_kind.persists_to_disk());
    assert!(!priced_kind.persists_to_disk());
    svc.shutdown();
}
