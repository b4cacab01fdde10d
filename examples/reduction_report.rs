//! Prints the state-space-reduction measurement tables recorded in
//! EXPERIMENTS.md: states explored and wall-clock for unreduced vs
//! POR+symmetry runs of the train-gate `A[]` safety check at N = 2..6,
//! and digital-MDP sizes for BRP with and without Dirac tick-chain
//! compression. Run with `cargo run --release --example reduction_report`.

use std::time::Instant;
use tempo_core::mdp::Opt;
use tempo_core::modest::McptaConfig;
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::ModelChecker;
use tempo_models::{brp, train_gate};

fn main() {
    println!("train-gate A[] safety: unreduced vs POR+symmetry (release)");
    println!(
        "{:>2} | {:>11} {:>9} | {:>11} {:>9} | {:>6} {:>9} {:>9}",
        "N", "full states", "full ms", "red states", "red ms", "orbits", "avoided", "ample"
    );
    for n in 2..=6 {
        let tg = train_gate(n);
        let safety = tg.safety();
        let t0 = Instant::now();
        let (v_full, s_full) = ModelChecker::new(&tg.net)
            .with_config(ExploreConfig::unreduced())
            .try_always_governed(&safety, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let (v_red, s_red) = ModelChecker::new(&tg.net)
            .try_always_governed(&safety, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        let red_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(v_full.holds(), v_red.holds(), "N={n}: verdict moved");
        println!(
            "{n:>2} | {:>11} {full_ms:>9.1} | {:>11} {red_ms:>9.1} | {:>6} {:>9} {:>9}",
            s_full.explored, s_red.explored, s_red.sym_orbits, s_red.sym_avoided, s_red.por_ample
        );
    }

    println!();
    println!("BRP(16, 2, 1) digital-clocks MDP: tick-chain compression");
    let model = brp(16, 2, 1);
    let t0 = Instant::now();
    let full = model.mcpta(0, 2_000_000);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let compressed = model.mcpta_with(
        0,
        McptaConfig {
            compress_ticks: true,
            ..McptaConfig::default()
        },
        2_000_000,
    );
    let comp_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (sf, sc) = (full.stats(), compressed.stats());
    println!(
        "full:       {:>7} states {:>7} transitions  build {full_ms:>8.1} ms",
        sf.states, sf.transitions
    );
    println!(
        "compressed: {:>7} states {:>7} transitions  build {comp_ms:>8.1} ms",
        sc.states, sc.transitions
    );
    for (name, goal) in [
        ("P1", model.p1_goal()),
        ("P2", model.p2_goal()),
        ("PA", model.pa_goal()),
        ("PB", model.pb_goal()),
    ] {
        let (a, b) = (
            full.reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
                .into_value()
                .initial_value,
            compressed
                .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
                .into_value()
                .initial_value,
        );
        assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
        println!("Pmax({name}) = {a:.6e} (agrees within the 1e-9 VI tolerance)");
    }
    let t0 = Instant::now();
    let p_full = full
        .reach_quantitative(Opt::Max, &model.p1_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let q_full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let p_comp = compressed
        .reach_quantitative(Opt::Max, &model.p1_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let q_comp_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!((p_full - p_comp).abs() < 1e-9);
    println!("Pmax(P1) query wall-clock: full {q_full_ms:.1} ms, compressed {q_comp_ms:.1} ms");
}
