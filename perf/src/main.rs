//! # tempo-bench — the end-to-end and per-layer benchmark of `tempo`
//!
//! Every performance claim about `tempo` is measured with this program,
//! and every change is checked against it for regressions. It drives
//! the system only through its public surfaces — the real `tempo`
//! binary (built from the checkout it runs in) and the
//! `tempo_svc::AnalysisService` that `tempo check` uses after
//! elaboration — and checks every verdict against an oracle that does
//! not come from the engine under test.
//!
//! ## How to run
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perf/Cargo.toml -- \
//!     --workload corpus --seed 1 --seconds 15 --trace 0 [--out result.json] [--smoke]
//! cargo run --release --offline -q --manifest-path perf/Cargo.toml -- \
//!     compare A1.json A2.json -- B1.json B2.json
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that measures the per-layer metrics. Either way
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; `--out` also writes
//! the full result file (environment, settings, per-input rows, and for
//! traced runs every span). Human-readable summaries go to standard
//! error. A run whose outputs were not all correct still prints its
//! summary but exits with code 1. `--smoke` runs one round at tiny
//! sizes. The unit tests, including smoke runs of the in-process
//! workloads, run with `cargo test --manifest-path perf/Cargo.toml`.
//! (`tempo-bench probe` is the host-speed probe process a run starts for
//! itself; see `speed`.)
//!
//! ## Workloads
//!
//! | name | surface | what does the work |
//! |---|---|---|
//! | `corpus` | `tempo check` on all `corpus/*.tempo`, seeded order | process startup, parse, elaborate, lint, service spin-up |
//! | `fischer` | `tempo check --assert k` on a generated Fischer(5) | the zone engine (`ta`, `dbm`, `flow`) |
//! | `mcpta` | service, `brp(N,2,2)` `Pmax(P1)` then `Pmax(P2)` | digital-clocks MDP build (`modest`) and value iteration (`mdp`) |
//! | `smc` | service, 400-run `Pr` estimates on BRP and train-gate | simulation (`smc`) |
//! | `service` | one service, two clients, Zipf(1.0) over 48 jobs, disk tier | the verdict cache (`svc`, fingerprints, `witness` replay), worker pool and coalescing |
//!
//! All loads are closed loops. The batch workloads have one client;
//! `service` has two client threads, the reference machine's `nproc`,
//! so no run generates more load than the machine has CPUs. Services,
//! in process or inside `tempo check`, run with their default two
//! workers. Every result file records the machine's `nproc`.
//!
//! ## Timings and the host's speed
//!
//! The reference VM (2 vCPUs) runs memory-touching code at one of two
//! speeds, ~1.5x apart, in phases of 3 to 90 seconds. Every reported
//! timing is therefore scaled by the speed of a fixed probe kernel,
//! timed between rounds in probe processes of its own, one per CPU, to
//! one power that is the same for every workload (module `speed`). The
//! result file keeps the raw values and the probe samples, and `compare`
//! judges the raw values too.
//!
//! ## End-to-end metrics
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median of 9 set-ups: building the workload's inputs from scratch, plus one warm-up check for in-process workloads |
//! | `round_s` | s | median wall time of one round of the workload's checks |
//! | `verdict_ms_p50` | ms | median latency of one check (one `tempo check`-sized request) |
//! | `verdicts_per_s` | 1/s | checks completed per second of measured time |
//! | `peak_rss_mb` | MB | median over rounds of a round's peak resident memory: the largest `tempo` child of the round (`wait4`'s `ru_maxrss`) for CLI workloads, the bench process's own `VmHWM`, reset before each round, otherwise |
//!
//! Counts of wrong or undecided verdicts are not metrics: they are the
//! summary's `failed` (and `correct` is false when any check failed or
//! any consistency check did). A check that does not return within its
//! limit is killed (`SIGKILL` for `tempo`, `JobHandle::cancel` for the
//! service) and counts as failed. The result file and the human summary
//! also print the tail latency by the tail rule: the highest percentile
//! with at least ten samples beyond it, with that percentile and `n`.
//! That tail is informational, not an end-to-end metric.
//!
//! A metric whose values do not repeat within its bound over 3 runs of
//! the same code is demoted to informational: it leaves `end_to_end`
//! and the reason is recorded in `perf/baseline/README.md`. The 90th
//! percentile latency was demoted this way.
//!
//! ## Per-layer metrics and the layers they move
//!
//! Each layer metric comes from the traced run, which calls the layer's
//! public functions from the bench itself, one by one, inside spans.
//!
//! | layer metrics | calls | should move |
//! |---|---|---|
//! | `cli.startup_ms` | `tempo --version`, spawn to exit | corpus `verdict_ms_p50` |
//! | `lang.*` | `lex`, `parse`, `build`, `to_network` | corpus `verdict_ms_p50` |
//! | `lint.gate_ms`, `lint.diagnostics` | `check_network_first`, `StatisticalChecker::check_first` | corpus `verdict_ms_p50` |
//! | `svc.start_ms`, `svc.shutdown_ms` | `AnalysisService::new` / `shutdown` | corpus and mcpta `verdict_ms_p50` |
//! | `svc.lint_gate_ms`, `svc.key_ms` | `JobKind::lint_gate`, `JobKind::cache_key` (every submit, hits too) | service `verdict_ms_p50` |
//! | `svc.*_ms_p50`, `svc.overhead_ms`, cache counters | per-source latencies, `ServiceCounters` | service `verdicts_per_s`, `round_s` |
//! | `ta.*`, `flow.*` | `ModelChecker` reachability / deadlock freedom with `ExploreConfig::default()` | fischer `round_s`, `verdict_ms_p50`; `ta.rss_per_stored_state_b` moves fischer `peak_rss_mb` |
//! | `modest.*`, `mdp.*` | `Mcpta::try_build`, `reach_quantitative` | mcpta `round_s`; no effect on smc or fischer |
//! | `smc.*` | `StatisticalChecker::probability_governed` | smc `round_s` |
//! | `witness.certify_ms`, `witness.cert_bytes` | certificate build + validate | mcpta `round_s`, service misses |
//! | `witness.render/parse/validate_ms` | `format::render`, `format::parse_standalone`, `validate` | service disk hits (`round_s`) |
//! | `trace.round_s`, `trace.layers_s` | traced round wall, sum of layer self times | — |
//!
//! A `<layer>_ms` value is the median over rounds of the layer's
//! per-round *self time*; counts are per-round totals, median over
//! rounds. Layers a workload never calls read 0.
//!
//! ## Reading a trace
//!
//! `--trace 1 --out t.json` writes every span as `{name, start_us,
//! end_us, parent, check, round}` and every count as `{round, name,
//! value}`. A span's self time is its duration minus the time its child
//! spans cover; the summary on standard error lists each layer's total
//! self time and share. On fischer, mcpta and smc the traced round does
//! the work of the untraced one, so `trace.layers_s` should come within
//! 10% of the untraced `round_s`; the traced run also checks that the
//! direct calls did the same work (state counts, runs, estimates) as
//! the CLI or service did for the same input.

mod compare;
mod report;
mod speed;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;

use tempo_core::lang::Json;

use report::{metrics_json, one_line, END_TO_END, PER_LAYER};
use workloads::{Ctx, Run};

const USAGE: &str = "usage: tempo-bench [run|trace] --workload W --seed S [--seconds T] [--trace 0|1] [--out FILE] [--smoke]\n       tempo-bench compare A.json... -- B.json...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tempo-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("probe") => speed::serve(std::io::stdin().lock(), std::io::stdout().lock())
            .map(|()| 0)
            .map_err(|e| format!("probe: {e}")),
        Some("run") => measure(&args[1..], false),
        Some("trace") => measure(&args[1..], true),
        _ => measure(args, false),
    }
}

fn measure(args: &[String], mut traced: bool) -> Result<i32, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut out = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => traced,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return Err(USAGE.to_owned());
    };
    let repo = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !repo.join("Cargo.toml").is_file() || !repo.join("crates").is_dir() {
        return Err(format!(
            "{} is not a tempo checkout: run from the repository root",
            repo.display()
        ));
    }
    let ctx = Ctx {
        repo,
        seed,
        seconds,
        smoke,
    };
    let host = Host {
        nproc: sys::nproc(),
    };
    let run = workloads::execute(&workload, &ctx, traced)?;
    let catalog = catalog(traced);
    let failed = run.rec.failed();
    let correct = failed == 0 && run.rec.problems.is_empty();
    let n = |v: usize| Json::int(i64::try_from(v).unwrap_or(i64::MAX));
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), n(run.rec.attempted())),
        ("failed".into(), n(failed)),
        ("metrics".into(), metrics_json(catalog, &run.metrics)),
    ]);
    if let Some(path) = &out {
        let doc = result_doc(&workload, &ctx, &host, traced, &run, &summary);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprint!("{}", human(&workload, &ctx, &host, traced, &run, catalog));
    for p in &run.rec.problems {
        eprintln!("  problem: {p}");
    }
    println!("{}", one_line(&summary));
    Ok(i32::from(!correct))
}

/// The metrics a run prints.
fn catalog(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The machine a run measured.
struct Host {
    nproc: usize,
}

/// The tail-rule latency of a run, as measured: `(percentile, value_ms, n)`.
fn tail(run: &Run) -> Option<(f64, f64, usize)> {
    let ms = run.rec.latencies_ms(false);
    stats::tail(&stats::sorted(&ms)).map(|(p, v)| (p, v, ms.len()))
}

fn result_doc(
    workload: &str,
    ctx: &Ctx,
    host: &Host,
    traced: bool,
    run: &Run,
    summary: &Json,
) -> Json {
    let num = |v: u64| Json::int(i64::try_from(v).unwrap_or(i64::MAX));
    let tempo = run.tempo.as_ref().map_or(Json::Null, |t| {
        Json::Obj(vec![
            (
                "path".into(),
                Json::str(
                    t.path
                        .strip_prefix(&ctx.repo)
                        .unwrap_or(&t.path)
                        .display()
                        .to_string(),
                ),
            ),
            ("size".into(), num(t.size)),
            ("mtime".into(), num(t.mtime)),
        ])
    });
    let env = Json::Obj(vec![
        ("git_rev".into(), Json::str(sys::git_rev(&ctx.repo))),
        ("nproc".into(), num(host.nproc as u64)),
        ("bench_version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        ("tempo".into(), tempo),
    ]);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let tail = tail(run).map_or(Json::Null, |(p, v, n)| {
        Json::Obj(vec![
            ("percentile".into(), Json::Num(p)),
            ("value_ms".into(), Json::Num(v)),
            ("n".into(), num(n as u64)),
        ])
    });
    let mut fields = vec![
        ("schema".into(), Json::str("tempo-bench result v1")),
        ("workload".into(), Json::str(workload)),
        (
            "mode".into(),
            Json::str(if traced { "trace" } else { "run" }),
        ),
        ("seed".into(), Json::str(ctx.seed.to_string())),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("smoke".into(), Json::Bool(ctx.smoke)),
        ("env".into(), env),
        (
            "settings".into(),
            Json::Obj(
                run.settings
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
        ("rounds".into(), num(run.factors.len() as u64)),
        ("setup_s_samples".into(), nums(&run.setup_s)),
        ("peak_rss_mb_samples".into(), nums(&run.peaks_mb)),
        ("round_s_samples".into(), nums(&run.rec.round_s(false))),
        ("round_speed_factors".into(), nums(&run.factors)),
        (
            "speed_probes".into(),
            Json::Arr(
                run.rec
                    .speed
                    .samples()
                    .iter()
                    .map(|&(t, p)| Json::Arr(vec![Json::Num(t), Json::Num(p)]))
                    .collect(),
            ),
        ),
        (
            "raw_metrics".into(),
            metrics_json(catalog(traced), &run.raw),
        ),
        ("tail".into(), tail),
        (
            "problems".into(),
            Json::Arr(run.rec.problems.iter().map(Json::str).collect()),
        ),
        ("rows".into(), run.rec.rows()),
    ];
    if let Json::Obj(s) = summary {
        fields.extend(s.iter().cloned());
    }
    if let Some(t) = &run.trace {
        fields.push(("trace".into(), t.to_json()));
    }
    Json::Obj(fields)
}

fn human(
    workload: &str,
    ctx: &Ctx,
    host: &Host,
    traced: bool,
    run: &Run,
    catalog: &[(&str, &str)],
) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "tempo-bench {workload} seed={} mode={} rounds={} checks={} failed={} nproc={}\n",
        ctx.seed,
        if traced { "trace" } else { "run" },
        run.factors.len(),
        run.rec.attempted(),
        run.rec.failed(),
        host.nproc
    );
    let _ = writeln!(
        s,
        "  {:<28} {:>14} {:>14}",
        "metric", "at ref. speed", "as measured"
    );
    for &(name, unit) in catalog {
        let v = run.metrics.get(name).copied().unwrap_or(0.0);
        let raw = run.raw.get(name).copied().unwrap_or(0.0);
        if !traced || v != 0.0 {
            let _ = writeln!(s, "  {name:<28} {v:>14.6} {raw:>14.6} {unit}");
        }
    }
    if let Some((p, v, n)) = tail(run) {
        let _ = writeln!(s, "  tail: p{p:.2} = {v:.3} ms (n = {n})");
    }
    if let Some(t) = &run.trace {
        let rows = t.self_time_table();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        let _ = writeln!(s, "  self time by layer:");
        for (layer, secs) in rows {
            let _ = writeln!(
                s,
                "    {layer:<22} {secs:>10.4} s {:>6.1}%",
                100.0 * secs / total.max(f64::MIN_POSITIVE)
            );
        }
    }
    s
}
