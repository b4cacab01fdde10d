//! The train-gate experiments of §II.A of the paper (Figs. 1–4):
//!
//! * **E1 — verification** (Fig. 1): safety (one train on the bridge),
//!   liveness (`Appr --> Cross` per train), deadlock-freedom;
//! * **E2 — synthesis** (Figs. 2–3, UPPAAL-TIGA): synthesize the
//!   controller as a winning strategy of a timed game instead of
//!   modelling it by hand;
//! * **E3 — performance analysis** (Fig. 4, UPPAAL-SMC): the cumulative
//!   probability distribution of each train's crossing time under the
//!   stochastic semantics with rates `1 + id`.
//!
//! Run with: `cargo run --release --example train_gate`

use std::num::NonZeroUsize;

use tempo_core::smc::StatisticalChecker;
use tempo_core::ta::{check_query, ModelChecker};
use tempo_core::tiga::GameSolver;
use tempo_models::{train_gate, train_gate_game};

fn main() {
    // One worker count drives every engine: all available cores.
    // Results are thread-count independent (see README "Parallel
    // analysis"), so this only affects wall-clock time.
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    println!("worker threads: {threads} (results are identical at any count)\n");
    verification(threads);
    synthesis(threads);
    performance(threads);
}

/// E1: the §II.A(a) verification queries.
fn verification(threads: usize) {
    println!("== E1: verification of the Fig. 1 model ==");
    for n in 2..=4 {
        let tg = train_gate(n);
        let mut mc = ModelChecker::new(&tg.net).with_threads(threads);

        // Safety: the paper's forall-forall query, built programmatically
        // (our query language has no binders).
        let (safety, stats) = mc.always(&tg.safety());
        println!(
            "N={n}: A[] mutual exclusion on the bridge : {:5} ({} states)",
            safety.holds(),
            stats.explored
        );
        // Deadlock-freedom and liveness via UPPAAL-style textual queries.
        let dl = check_query(&tg.net, "A[] not deadlock").expect("query parses");
        println!(
            "N={n}: A[] not deadlock                  : {:5}",
            dl.satisfied
        );
        for id in 0..n {
            let q = format!("Train{id}.Appr --> Train{id}.Cross");
            let live = check_query(&tg.net, &q).expect("query parses");
            println!("N={n}: {q}    : {:5}", live.satisfied);
        }
    }
    println!();
}

/// E2: the §II.A(b) synthesis with the timed game of Figs. 2–3.
fn synthesis(threads: usize) {
    println!("== E2: controller synthesis (UPPAAL-TIGA, Figs. 2-3) ==");
    let g = train_gate_game(2);
    let solver = GameSolver::new(&g.net).with_threads(threads);
    let result = solver.solve_safety(&g.collision());
    println!(
        "N=2: safety game (never two trains on the bridge): winning = {}, \
         |game graph| = {} states, |strategy| = {} states",
        result.winning,
        result.states,
        result.strategy.size()
    );
    // Exercise the synthesized strategy in closed loop.
    let run = solver.closed_loop(&result.strategy, 200);
    let exp = tempo_core::ta::DigitalExplorer::new(&g.net);
    let collisions = run
        .iter()
        .filter(|s| exp.satisfies(s, &g.collision()))
        .count();
    println!(
        "N=2: closed-loop run of {} steps under the strategy: {} collisions",
        run.len(),
        collisions
    );
    println!();
}

/// E3: the §II.A(c) performance analysis — Fig. 4's CDF.
fn performance(threads: usize) {
    println!("== E3: Pr[<=100](<> Train(i).Cross) — the Fig. 4 CDF ==");
    let n = 6;
    let tg = train_gate(n);
    let runs = 1000;
    let grid: Vec<f64> = (0..=15).map(|k| 10.0 + 6.0 * k as f64).collect();

    let mut series = Vec::new();
    for id in 0..n {
        let mut smc =
            StatisticalChecker::new(&tg.net, tg.rates(), 1000 + id as u64).with_threads(threads);
        let cdf = smc.cdf(&tg.cross(id), 100.0, runs);
        series.push(cdf.series(&grid));
    }

    // Table, one row per time point (columns: trains).
    print!("{:>6}", "t");
    for id in 0..n {
        print!("  Train{id}");
    }
    println!();
    for (k, &t) in grid.iter().enumerate() {
        print!("{t:>6.0}");
        for s in &series {
            print!("  {:>6.3}", s[k].1);
        }
        println!();
    }

    // ASCII rendering of the CDF (like Fig. 4's plot).
    println!("\ncumulative probability (each column = one train, '#' = reached)");
    for level in (1..=10).rev() {
        let threshold = level as f64 / 10.0;
        print!("{threshold:>5.1} |");
        for (k, _) in grid.iter().enumerate() {
            let reached = series.iter().filter(|s| s[k].1 >= threshold).count();
            let c = match reached {
                0 => ' ',
                x if x == n => '#',
                _ => '+',
            };
            print!("{c}");
        }
        println!();
    }
    println!("      +{}", "-".repeat(grid.len()));
    println!("       t = 10 .. 100 (trains with higher rates cross earlier)");
}
