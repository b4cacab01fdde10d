//! Prints the dataflow-pass measurement tables recorded in
//! EXPERIMENTS.md: states explored and wall-clock for unreduced vs
//! LU+slicing runs of the train-gate reachability check at N = 2..6
//! (flow isolated from POR/symmetry so the shrink is attributable),
//! and digital-MDP sizes for BRP with and without the flow passes.
//! Run with `cargo run --release --example flow_report`.

use std::time::Instant;
use tempo_core::mdp::Opt;
use tempo_core::modest::McptaConfig;
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::{ModelChecker, StateFormula};
use tempo_models::{brp, train_gate};

fn main() {
    // The collision goal is unreachable, so the search covers the whole
    // reachable space — the honest setting for measuring exploration.
    println!("train-gate E<> collision: unreduced vs LU+slicing (release)");
    println!(
        "{:>2} | {:>11} {:>9} | {:>11} {:>9} | {:>4} {:>7} {:>6}",
        "N", "full states", "full ms", "flow states", "flow ms", "lu", "narrow", "slice"
    );
    // N = 6 is omitted so the example stays CI-friendly: the unreduced
    // run alone takes ~100 s (1.74M states vs 60k with LU+slicing).
    for n in 2..=5 {
        let tg = train_gate(n);
        let goal = StateFormula::not(tg.safety());
        let t0 = Instant::now();
        let full = ModelChecker::new(&tg.net)
            .with_config(ExploreConfig::unreduced())
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let flow = ModelChecker::new(&tg.net)
            .with_config(ExploreConfig::unreduced().with_lu(true).with_slice(true))
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("in-memory store");
        let flow_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            full.value().reachable,
            flow.value().reachable,
            "N={n}: verdict moved"
        );
        let r = flow.report();
        let sliced = r.sliced_clocks + r.sliced_vars + r.sliced_edges;
        println!(
            "{n:>2} | {:>11} {full_ms:>9.1} | {:>11} {flow_ms:>9.1} | {:>4} {:>7} {sliced:>6}",
            full.report().states_explored,
            r.states_explored,
            r.lu_tightened,
            r.vars_narrowed,
        );
    }

    println!();
    println!("BRP(16, 2, 1) digital-clocks MDP: flow passes on vs off");
    let model = brp(16, 2, 1);
    let t0 = Instant::now();
    let plain = model.mcpta_with(
        0,
        McptaConfig {
            flow: false,
            ..McptaConfig::default()
        },
        2_000_000,
    );
    let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let flow = model.mcpta(0, 2_000_000);
    let flow_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (sp, sf) = (plain.stats(), flow.stats());
    println!(
        "flow off: {:>7} states {:>7} transitions  build {plain_ms:>8.1} ms",
        sp.states, sp.transitions
    );
    println!(
        "flow on:  {:>7} states {:>7} transitions  build {flow_ms:>8.1} ms",
        sf.states, sf.transitions
    );
    for (name, goal) in [
        ("P1", model.p1_goal()),
        ("P2", model.p2_goal()),
        ("PA", model.pa_goal()),
        ("PB", model.pb_goal()),
    ] {
        let (a, b) = (
            plain
                .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
                .into_value()
                .initial_value,
            flow.reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
                .into_value()
                .initial_value,
        );
        assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
        println!("Pmax({name}) = {b:.6e} (agrees within the 1e-9 VI tolerance)");
    }
}
