//! Witness & certificate pipeline on the paper models (EXPERIMENTS.md,
//! "Certificates" table): every verdict-producing engine returns a
//! certificate that the independent replay validator accepts; this
//! example reports each certificate's size and validation time.

use tempo_core::cora::PricedNetwork;
use tempo_core::mdp::Opt;
use tempo_core::obs::{Budget, ExploreConfig, RunReport};
use tempo_core::ta::{AutomatonId, LocationId};
use tempo_core::witness::certify::{
    certified_mcpta_reach, certified_min_cost, certified_probability, certified_reachable_with,
    certified_safety_game,
};
use tempo_models::{brp, train_gate, train_gate_game, wcet_program};

fn row(name: &str, report: &RunReport) {
    println!(
        "{name:<44} {:>10} B {:>10.3} ms",
        report.certificate_bytes,
        report.certify_time.as_secs_f64() * 1e3
    );
}

fn main() {
    let b = Budget::unlimited();

    // E1: train-gate reachability (UPPAAL) — realized concrete trace.
    let tg = train_gate(6);
    let (out, cert) = certified_reachable_with(&tg.net, &tg.cross(0), ExploreConfig::default(), &b)
        .expect("certified");
    assert!(cert.is_some());
    row("train-gate(6) E<> cross(0), trace", out.report());

    // E2: train-gate game safety synthesis (TIGA) — exhaustive
    // closed-loop strategy certification over every environment move.
    let g = train_gate_game(2);
    let (out, cert) = certified_safety_game(&g.net, &g.collision(), &b).expect("certified");
    assert!(cert.is_some());
    row("train-gate-game(2) safety, strategy", out.report());

    // E3: train-gate performance (SMC) — exported runs, each replayed.
    let tg = train_gate(4);
    let (out, cert) = certified_probability(
        &tg.net,
        &tg.rates(),
        42,
        &tg.cross(0),
        100.0,
        738,
        0.95,
        10,
        &b,
    )
    .expect("certified");
    assert_eq!(cert.runs.len(), 10);
    row("train-gate(4) Pr[<=100](<> cross), 10 runs", out.report());

    // E4: BRP (MODEST/mcpta) — memoryless scheduler whose induced
    // Markov chain reproduces the reported probability.
    let m = brp(16, 2, 1);
    let mc = m.mcpta(0, 5_000_000);
    let (out, _) = certified_mcpta_reach(&mc, Opt::Max, &m.pa_goal(), 1e-6, &b).expect("certified");
    row("brp(16,2,1) Pmax, scheduler", out.report());

    // WCET (CORA) — cost-annotated optimal run, step costs sum to the
    // reported minimum.
    let w = wcet_program(8);
    let mut pnet = PricedNetwork::new(w.net.clone());
    for li in 0..w.net.automata()[0].locations.len() {
        pnet.set_rate(AutomatonId(0), LocationId(li), 1);
    }
    let (out, cert) = certified_min_cost(&pnet, &w.terminated(), &b).expect("certified");
    assert_eq!(cert.expect("optimum").total, w.analytic_bcet());
    row("wcet(8) min-time (BCET), cost trace", out.report());
}
