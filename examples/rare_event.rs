//! Rare-event estimation on a train-gate near-collision: a train keeps
//! a dangerously tight schedule only if every approach segment's delay
//! lands in the top tenth of its window (tightened guard `x >= 9` under
//! invariant `x <= 10`), arriving at the crossing just as the gate
//! closes. Each segment passes with probability exactly
//! `0.1 × 1/2 = 0.05` under the uniform-race semantics, so the
//! near-miss probability is analytic: `p = 0.05^k`.
//!
//! For k = 3, 4, 5 the example reports, per row: the splitting estimate
//! and its runs, what naive Monte Carlo sees when given *exactly the
//! same* run budget, and how many runs naive MC would need for a CI of
//! the same width. Run with `cargo run --release --example rare_event`.

use tempo_core::obs::Budget;
use tempo_core::rare::{RareChecker, SplitConfig};
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::ta::{AutomatonId, ClockAtom, LocationId, Network, NetworkBuilder, StateFormula};

/// The near-collision model: `k` approach segments with tightened
/// on-schedule guards, an absorbing `NearMiss` crossing and an absorbing
/// `Slack` sink (the train falls behind, the gate closes safely).
fn near_collision(k: usize) -> (Network, AutomatonId, LocationId) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut t = b.automaton("Train");
    let segs: Vec<LocationId> = (0..k)
        .map(|i| t.location_with_invariant(&format!("Seg{i}"), vec![ClockAtom::le(x, 10)]))
        .collect();
    let near_miss = t.location("NearMiss");
    let slack = t.location("Slack");
    for (i, &from) in segs.iter().enumerate() {
        let next = if i + 1 < k { segs[i + 1] } else { near_miss };
        // On schedule only in the top tenth of the delay window — the
        // "tightened guard" that makes the near-miss rare.
        t.edge(from, next)
            .guard_clock(ClockAtom::ge(x, 9))
            .reset(x, 0)
            .done();
        t.edge(from, slack).reset(x, 0).done();
    }
    // Absorbing self-loops keep both sinks deadlock-free.
    t.edge(near_miss, near_miss)
        .guard_clock(ClockAtom::ge(x, 0))
        .done();
    t.edge(slack, slack).guard_clock(ClockAtom::ge(x, 0)).done();
    let aut = t.done();
    (b.build(), aut, near_miss)
}

fn main() {
    println!("train-gate near-collision: p = 0.05^k (tightened guard x >= 9 of [0, 10])");
    println!(
        "{:>2} | {:>10} | {:>24} {:>8} | {:>14} | {:>12} {:>7}",
        "k", "exact p", "splitting CI", "runs", "naive @ runs", "naive equal-CI", "saving"
    );
    for k in [3_usize, 4, 5] {
        let (net, aut, near_miss) = near_collision(k);
        let goal = StateFormula::at(aut, near_miss);
        let bound = 10.0 * k as f64 + 1.0;
        let exact = 0.05_f64.powi(k as i32);

        let mut rc = RareChecker::new(&net, RatePolicy::new(), 42);
        let est = rc
            .probability_governed(&goal, bound, &SplitConfig::default(), &Budget::unlimited())
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
        assert!(
            est.lower <= exact && exact <= est.upper,
            "k = {k}: splitting CI [{}, {}] misses exact p = {exact}",
            est.lower,
            est.upper
        );

        // Naive Monte Carlo, handed splitting's exact budget.
        let budget = usize::try_from(est.runs_total).expect("run count fits");
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 42);
        let naive = smc
            .probability_governed(&goal, bound, budget, est.confidence, &Budget::unlimited())
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");

        // Runs naive MC needs for a CI as tight as splitting's
        // (Wald width: n = z^2 p(1-p) / h^2 at half-width h).
        let h = (est.upper - est.lower) / 2.0;
        let z = 1.96;
        let naive_needed = (z * z * exact * (1.0 - exact) / (h * h)).ceil();

        println!(
            "{k:>2} | {exact:>10.3e} | [{:>9.3e}, {:>9.3e}] {:>8} | {:>3} hits, p={:<4.2} | {naive_needed:>12.2e} {:>6.0}x",
            est.lower,
            est.upper,
            est.runs_total,
            naive.successes,
            naive.mean,
            naive_needed / est.runs_total as f64
        );
    }
    println!("(splitting CI brackets the analytic probability at every k; asserted above)");
}
