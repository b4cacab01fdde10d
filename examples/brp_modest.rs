//! The BRP experiment of §III.A of the paper: reproduces **Table I**
//! ("Results for the BRP model, parameters (N, MAX, TD) = (16, 2, 1)")
//! with the three MODEST backends:
//!
//! * `mctau` — the nondeterministic over-approximation analysed with the
//!   timed-automata engine (exact for the invariants TA1/TA2; `0` for
//!   unreachable events; trivial `[0, 1]` bounds otherwise);
//! * `mcpta` — exact probabilistic model checking via digital clocks and
//!   an MDP solved one SCC at a time;
//! * `modes` — discrete-event simulation with 10 000 runs (rare events
//!   typically go unobserved, exactly as the paper shows).
//!
//! Run with: `cargo run --release --example brp_modest`
//! (set `BRP_N`, `BRP_MAX`, `BRP_TD` to vary the parameters).

use tempo_core::mdp::Opt;
use tempo_core::modest::{Mctau, Modes, Scheduler};
use tempo_core::obs::Budget;
use tempo_models::brp::brp;

fn main() {
    let n: i64 = std::env::var("BRP_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let max: i64 = std::env::var("BRP_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let td: i64 = std::env::var("BRP_TD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let dmax_bound = 64;
    let runs = 10_000;

    println!(
        "== Table I: results for the BRP model, parameters (N, MAX, TD) = ({n}, {max}, {td}) ==\n"
    );
    let model = brp(n, max, td);

    // ---------------- mctau ----------------
    let t0 = std::time::Instant::now();
    let mctau = Mctau::new(&model.pta);
    let m_ta1 = mctau
        .check_invariant_governed(&model.ta1(), &Budget::unlimited())
        .into_value();
    let m_ta2 = mctau
        .check_invariant_governed(&model.ta2(), &Budget::unlimited())
        .into_value();
    let m_pa = mctau
        .probability_bounds_governed(&model.pa_goal(), &Budget::unlimited())
        .into_value();
    let m_pb = mctau
        .probability_bounds_governed(&model.pb_goal(), &Budget::unlimited())
        .into_value();
    let m_p1 = mctau
        .probability_bounds_governed(&model.p1_goal(), &Budget::unlimited())
        .into_value();
    let m_p2 = mctau
        .probability_bounds_governed(&model.p2_goal(), &Budget::unlimited())
        .into_value();
    let m_dmax = mctau
        .probability_bounds_governed(&model.success(), &Budget::unlimited())
        .into_value();
    let mctau_time = t0.elapsed();

    // ---------------- mcpta ----------------
    let t0 = std::time::Instant::now();
    let mc = model.mcpta(0, 50_000_000);
    let stats = mc.stats();
    let c_ta1 = mc.check_invariant(&model.ta1());
    let c_ta2 = mc.check_invariant(&model.ta2());
    let c_pa = mc
        .reach_quantitative(Opt::Max, &model.pa_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let c_pb = mc
        .reach_quantitative(Opt::Max, &model.pb_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let c_p1 = mc
        .reach_quantitative(Opt::Max, &model.p1_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let c_p2 = mc
        .reach_quantitative(Opt::Max, &model.p2_goal(), &Budget::unlimited())
        .into_value()
        .initial_value;
    let c_emax = mc
        .emax_time_governed(&model.done(), &Budget::unlimited())
        .into_value();
    let mcpta_time = t0.elapsed();
    // Dmax needs the global clock tracked up to the bound: separate build.
    let t0 = std::time::Instant::now();
    let mc_timed = model.mcpta(dmax_bound, 200_000_000);
    let c_dmax = mc_timed
        .reach_quantitative(Opt::Max, &model.dmax_goal(dmax_bound), &Budget::unlimited())
        .into_value()
        .initial_value;
    let dmax_time = t0.elapsed();

    // ---------------- modes ----------------
    // One pass: 10k runs, all eight properties evaluated per run (the
    // paper's "10k runs" column).
    let t0 = std::time::Instant::now();
    let horizon = 10 * (c_emax.ceil() as i64 + 10);
    let ta1 = model.ta1();
    let ta2 = model.ta2();
    let pa = model.pa_goal();
    let pb = model.pb_goal();
    let p1 = model.p1_goal();
    let p2 = model.p2_goal();
    let success = model.success();
    let done = model.done();
    let mut counts = [0_usize; 7]; // ta1, ta2, pa, pb, p1, p2, dmax
    let mut durations = Vec::with_capacity(runs);
    {
        let exp = tempo_core::ta::DigitalExplorer::new(&model.pta);
        let mut sim = Modes::new(&model.pta, &[], Scheduler::Alap, 2026);
        for _ in 0..runs {
            let run = sim.simulate(horizon, 1_000_000);
            if run.globally(&exp, &ta1) {
                counts[0] += 1;
            }
            if run.globally(&exp, &ta2) {
                counts[1] += 1;
            }
            if run.first_hit(&exp, &pa).is_some() {
                counts[2] += 1;
            }
            if run.first_hit(&exp, &pb).is_some() {
                counts[3] += 1;
            }
            if run.first_hit(&exp, &p1).is_some() {
                counts[4] += 1;
            }
            if run.first_hit(&exp, &p2).is_some() {
                counts[5] += 1;
            }
            if run
                .first_hit(&exp, &success)
                .is_some_and(|t| t <= dmax_bound)
            {
                counts[6] += 1;
            }
            durations.push(run.first_hit(&exp, &done).unwrap_or(horizon) as f64);
        }
    }
    let bern_obs = |hits: usize| {
        let mean = hits as f64 / runs as f64;
        tempo_core::modest::ModesObservation {
            observations: hits,
            runs,
            mean,
            std_dev: (mean * (1.0 - mean)).sqrt(),
        }
    };
    let (s_ta1, s_ta2) = (bern_obs(counts[0]), bern_obs(counts[1]));
    let (s_pa, s_pb) = (bern_obs(counts[2]), bern_obs(counts[3]));
    let (s_p1, s_p2) = (bern_obs(counts[4]), bern_obs(counts[5]));
    let s_dmax = bern_obs(counts[6]);
    let s_emax = {
        let n = durations.len() as f64;
        let mean = durations.iter().sum::<f64>() / n;
        let var = durations.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        tempo_core::modest::ModesObservation {
            observations: durations.len(),
            runs,
            mean,
            std_dev: var.sqrt(),
        }
    };
    let modes_time = t0.elapsed();

    // ---------------- the table ----------------
    println!("{:<9} {:<14} {:<14} modes", "property", "mctau", "mcpta");
    println!("{:-<70}", "");
    let fmt_bool = |b: bool| if b { "true" } else { "FALSE" }.to_owned();
    let bern = |o: &tempo_core::modest::ModesObservation| {
        if o.observations == 0 {
            format!("0 (no observations in {} runs)", o.runs)
        } else if o.observations == o.runs {
            format!("true (all {} runs)", o.runs)
        } else {
            format!("µ={:.3e}, σ={:.1e}", o.mean, o.std_dev)
        }
    };
    let safe_bern = |o: &tempo_core::modest::ModesObservation, name: &str| {
        if o.observations == o.runs {
            format!("true (all {} runs satisfied {name})", o.runs)
        } else {
            format!("VIOLATED in {} runs", o.runs - o.observations)
        }
    };
    println!(
        "{:<9} {:<14} {:<14} {}",
        "TA1",
        fmt_bool(m_ta1),
        fmt_bool(c_ta1),
        safe_bern(&s_ta1, "TA1")
    );
    println!(
        "{:<9} {:<14} {:<14} {}",
        "TA2",
        fmt_bool(m_ta2),
        fmt_bool(c_ta2),
        safe_bern(&s_ta2, "TA2")
    );
    println!(
        "{:<9} {:<14} {:<14} {}",
        "PA",
        m_pa.to_string(),
        format_p(c_pa),
        bern(&s_pa)
    );
    println!(
        "{:<9} {:<14} {:<14} {}",
        "PB",
        m_pb.to_string(),
        format_p(c_pb),
        bern(&s_pb)
    );
    println!(
        "{:<9} {:<14} {:<14} {}",
        "P1",
        m_p1.to_string(),
        format_p(c_p1),
        bern(&s_p1)
    );
    println!(
        "{:<9} {:<14} {:<14} {}",
        "P2",
        m_p2.to_string(),
        format_p(c_p2),
        bern(&s_p2)
    );
    println!(
        "{:<9} {:<14} {:<14} µ={:.4}, σ={:.2e}",
        "Dmax",
        m_dmax.to_string(),
        format_p(c_dmax),
        s_dmax.mean,
        s_dmax.std_dev
    );
    println!(
        "{:<9} {:<14} {:<14.3} µ={:.3}, σ={:.3}",
        "Emax", "n/a", c_emax, s_emax.mean, s_emax.std_dev
    );

    println!();
    println!(
        "mcpta MDP: {} states, {} actions, {} transitions",
        stats.states, stats.actions, stats.transitions
    );
    println!(
        "timing: mctau {:.2?}, mcpta {:.2?} (+{:.2?} for Dmax), modes {:.2?} for {} runs",
        mctau_time, mcpta_time, dmax_time, modes_time, runs
    );
    println!();
    println!("Shape checks vs the paper's Table I:");
    println!(
        "  * mctau: TA1/TA2 exact, PA/PB exactly 0, P1/P2/Dmax only [0, 1] — {}",
        ok(m_ta1
            && m_ta2
            && m_pa.upper == 0.0
            && m_pb.upper == 0.0
            && m_p1.upper == 1.0
            && m_p2.upper == 1.0)
    );
    println!(
        "  * mcpta: PA=PB=0, 0 < P2 <= P1 << 1, Dmax ≈ 1 — {}",
        ok(c_pa == 0.0 && c_pb == 0.0 && c_p2 > 0.0 && c_p2 <= c_p1 && c_p1 < 0.01 && c_dmax > 0.9)
    );
    println!(
        "  * modes: rare events (PA, PB, P2) unobserved in {runs} runs — {}",
        ok(s_pa.observations == 0 && s_pb.observations == 0)
    );
}

fn format_p(p: f64) -> String {
    if p == 0.0 {
        "0".to_owned()
    } else if p > 0.1 {
        format!("{p:.6}")
    } else {
        format!("{p:.3e}")
    }
}

fn ok(b: bool) -> &'static str {
    if b {
        "OK"
    } else {
        "MISMATCH"
    }
}
