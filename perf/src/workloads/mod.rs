//! The five workloads and the loop that measures them.
//!
//! A run sets the workload up [`SETUP_REPEATS`] times (each from
//! scratch; `setup_s` is the median), then runs whole rounds until
//! `--seconds` have passed. A round is a fixed list of checks drawn from
//! the seed; a check is one `tempo check`-sized request whose verdict an
//! oracle outside the engine under test accepts or rejects.

use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tempo_core::lang::Json;
use tempo_core::svc::{JobError, JobHandle, JobResult};

use crate::report::{self, Recorder};
use crate::speed::Probes;
use crate::stats::{self, Rng};
use crate::sys::{self, TempoBin, Watchdog};
use crate::trace::Tracer;

mod corpus;
mod fischer;
mod mcpta;
mod service;
mod smc;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = ["corpus", "fischer", "mcpta", "smc", "service"];

/// How many times a run sets its workload up; `setup_s` is the median.
/// The first few set-ups after a `cargo` invocation can run several
/// times slower, so the median needs more than a handful.
pub const SETUP_REPEATS: usize = 9;

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The checkout: repository root, where `corpus/` and the manifest are.
    pub repo: PathBuf,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Tiny inputs and a single round (the harness's own tests).
    pub smoke: bool,
}

/// One workload: inputs, a round of checks, and its traced twin.
pub trait Workload {
    /// Builds the inputs and anything the checks need, from scratch.
    ///
    /// # Errors
    ///
    /// When the inputs cannot be built (a harness fault, not a verdict).
    fn setup(&mut self) -> Result<(), String>;

    /// One untraced round through the public surface (CLI or service).
    ///
    /// # Errors
    ///
    /// On a harness fault; wrong verdicts are recorded, not returned.
    fn round(&mut self, round: usize, rec: &mut Recorder) -> Result<(), String>;

    /// One traced round: the same inputs, each layer called directly
    /// from the bench, every call inside a span.
    ///
    /// # Errors
    ///
    /// On a harness fault.
    fn traced_round(
        &mut self,
        round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String>;

    /// After a traced run: checks that the direct calls did the same
    /// work as the public surface (e.g. identical state counts).
    ///
    /// # Errors
    ///
    /// On a harness fault; mismatches are recorded as problems.
    fn verify(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }

    /// Peak resident memory of the process(es) doing the work since the
    /// last call, MiB; the next call starts from the current memory.
    ///
    /// # Errors
    ///
    /// When the peak cannot be read or reset.
    fn take_peak_rss_mb(&mut self) -> Result<f64, String>;

    /// The input sizes and limits, for the result file.
    fn settings(&self) -> Vec<(&'static str, Json)>;

    /// Per-layer metrics the workload measured itself, outside spans and
    /// counts.
    fn derive(&self, _m: &mut BTreeMap<String, f64>) {}

    /// The `tempo` binary the workload spawns, if any.
    fn tempo(&self) -> Option<&TempoBin> {
        None
    }
}

fn make(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "corpus" => Box::new(corpus::Corpus::new(ctx)?),
        "fischer" => Box::new(fischer::Fischer::new(ctx)?),
        "mcpta" => Box::new(mcpta::McptaLoad::new(ctx)),
        "smc" => Box::new(smc::SmcLoad::new(ctx)),
        "service" => Box::new(service::ServiceLoad::new(ctx)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    })
}

/// What one run measured.
pub struct Run {
    /// Metric values by name, timings scaled to the reference speed.
    pub metrics: BTreeMap<String, f64>,
    /// The same metrics with timings as measured.
    pub raw: BTreeMap<String, f64>,
    /// Every check and round.
    pub rec: Recorder,
    /// Each setup repetition, seconds as measured.
    pub setup_s: Vec<f64>,
    /// Each untraced round's peak resident memory, MiB.
    pub peaks_mb: Vec<f64>,
    /// Per-round factor to the reference speed.
    pub factors: Vec<f64>,
    /// The workload's sizes and limits.
    pub settings: Vec<(&'static str, Json)>,
    /// The tempo binary, for CLI workloads.
    pub tempo: Option<TempoBin>,
    /// Spans and counts, for traced runs.
    pub trace: Option<Tracer>,
}

/// Sets up and measures workload `name`.
///
/// # Errors
///
/// On a harness fault (unbuildable inputs, a process that cannot be
/// spawned); wrong verdicts are in the returned record instead.
pub fn execute(name: &str, ctx: &Ctx, traced: bool) -> Result<Run, String> {
    let mut w = make(name, ctx)?;
    let mut rec = Recorder::default();
    // Smoke runs (the harness's own tests) are too short to need the
    // host-speed correction.
    let mut probes = Probes::start(if ctx.smoke { 0 } else { sys::nproc() })?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        rec.speed.probe(&mut probes)?;
        let from = rec.speed.now();
        w.setup()?;
        setups.push((from, rec.speed.now()));
    }
    // Each round's peak memory, without the set-up's. Traced rounds keep
    // the process's peak, which `ta.rss_per_stored_state_b` measures.
    let mut peaks_mb = Vec::new();
    w.take_peak_rss_mb()?;
    let mut tracer = Tracer::default();
    let started = rec.speed.now();
    for round in 0.. {
        rec.speed.probe_if_due(&mut probes)?;
        let from = rec.speed.now();
        if traced {
            tracer.set_round(round);
            w.traced_round(round, &mut tracer, &mut rec)?;
        } else {
            w.round(round, &mut rec)?;
        }
        let to = rec.speed.now();
        rec.round_done(from, to);
        if !traced {
            peaks_mb.push(w.take_peak_rss_mb()?);
        }
        if ctx.smoke || to - started >= ctx.seconds {
            break;
        }
    }
    rec.speed.probe(&mut probes)?;
    drop(probes);
    let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| b - a).collect();
    let factors = rec.round_factors();
    let (metrics, raw) = if traced {
        w.verify(&mut rec)?;
        let layers = |scaled: bool| {
            let f: Vec<f64> = if scaled {
                factors.clone()
            } else {
                vec![1.0; factors.len()]
            };
            let mut m = tracer.layer_metrics(&f);
            m.insert(
                "trace.round_s".into(),
                stats::median(&rec.round_s(scaled)).unwrap_or(0.0),
            );
            w.derive(&mut m);
            report::derive_ratios(&mut m);
            m
        };
        (layers(true), layers(false))
    } else {
        let peak = stats::median(&peaks_mb).unwrap_or(0.0);
        let timings = |scaled: bool| {
            let setup: Vec<f64> = setups
                .iter()
                .map(|&(a, b)| (b - a) * if scaled { rec.speed.factor(a, b) } else { 1.0 })
                .collect();
            let rounds = rec.round_s(scaled);
            let sorted = stats::sorted(&rec.latencies_ms(scaled));
            let mut m = BTreeMap::new();
            m.insert("setup_s".into(), stats::median(&setup).unwrap_or(0.0));
            m.insert("round_s".into(), stats::median(&rounds).unwrap_or(0.0));
            m.insert(
                "verdict_ms_p50".into(),
                stats::quantile(&sorted, 0.5).unwrap_or(0.0),
            );
            #[allow(clippy::cast_precision_loss)]
            m.insert(
                "verdicts_per_s".into(),
                sorted.len() as f64 / rounds.iter().sum::<f64>(),
            );
            m.insert("peak_rss_mb".into(), peak);
            m
        };
        (timings(true), timings(false))
    };
    let settings = w.settings();
    Ok(Run {
        metrics,
        raw,
        setup_s,
        peaks_mb,
        factors,
        settings,
        tempo: w.tempo().cloned(),
        trace: traced.then_some(tracer),
        rec,
    })
}

/// Values of an inclusive range in seeded order, cycle after cycle:
/// every value is drawn equally often, so a run's median does not hinge
/// on which sizes the seed happened to favour.
pub struct Cycle {
    lo: i64,
    hi: i64,
    rng: Rng,
    pending: Vec<i64>,
}

impl Cycle {
    /// Cycles over `lo..=hi`, shuffled by `rng`.
    #[must_use]
    pub fn new(lo: i64, hi: i64, rng: Rng) -> Self {
        Cycle {
            lo,
            hi,
            rng,
            pending: Vec::new(),
        }
    }

    /// The next value.
    pub fn next_value(&mut self) -> i64 {
        if self.pending.is_empty() {
            self.pending = (self.lo..=self.hi).collect();
            self.rng.shuffle(&mut self.pending);
        }
        self.pending.pop().expect("non-empty cycle")
    }
}

enum Watch {
    Arm(Arc<JobHandle>, Instant),
    Disarm,
}

/// Enforces the per-check limit on one client's service jobs through
/// `JobHandle::cancel`, from one thread that lives as long as the run.
pub struct Canceller {
    tx: Option<mpsc::Sender<Watch>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Canceller {
    /// Starts the cancelling thread.
    #[must_use]
    pub fn start() -> Self {
        let (tx, rx) = mpsc::channel::<Watch>();
        let thread = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                let Watch::Arm(handle, deadline) = msg else {
                    continue;
                };
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(_) => {}
                    Err(mpsc::RecvTimeoutError::Timeout) => handle.cancel(),
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        Canceller {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    /// Waits for a job, cancelling it once `limit` has passed. Results
    /// resolved at submission (memory hits) return at once.
    pub fn wait(&self, handle: JobHandle, limit: Duration) -> Result<JobResult, JobError> {
        if let Some(done) = handle.try_result() {
            return done;
        }
        let handle = Arc::new(handle);
        let tx = self.tx.as_ref().expect("canceller running");
        let armed = tx
            .send(Watch::Arm(Arc::clone(&handle), Instant::now() + limit))
            .is_ok();
        let result = handle.wait();
        if armed {
            let _ = tx.send(Watch::Disarm);
        }
        result
    }
}

impl Drop for Canceller {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The `tempo` binary plus the watchdog that bounds each invocation.
pub struct Cli {
    bin: TempoBin,
    dog: Watchdog,
    peak_kb: u64,
}

/// One `tempo` invocation.
pub struct CliRun {
    /// Exit code; `None` when killed.
    pub code: Option<i32>,
    /// The `tempo-result v1` document, when `--json -` produced one.
    pub doc: Option<Json>,
    /// Spawn to exit.
    pub wall: Duration,
}

impl Cli {
    /// Builds `tempo` from the checkout and checks its version.
    ///
    /// # Errors
    ///
    /// When the binary cannot be built or is stale.
    pub fn new(repo: &Path) -> Result<Self, String> {
        Ok(Cli {
            bin: sys::build_tempo(repo)?,
            dog: Watchdog::start(),
            peak_kb: 0,
        })
    }

    /// Runs `tempo <args>`, killing it after `limit`.
    ///
    /// # Errors
    ///
    /// When the process cannot be spawned or waited for.
    pub fn run<I, S>(&mut self, args: I, limit: Duration) -> Result<CliRun, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<OsStr>,
    {
        let mut cmd = Command::new(&self.bin.path);
        cmd.args(args);
        let run = sys::run_child(&mut cmd, limit, &self.dog)
            .map_err(|e| format!("cannot run {}: {e}", self.bin.path.display()))?;
        self.peak_kb = self.peak_kb.max(run.maxrss_kb);
        let doc = run
            .stdout
            .find("\n{")
            .map(|i| i + 1)
            .or_else(|| run.stdout.starts_with('{').then_some(0))
            .and_then(|i| Json::parse(&run.stdout[i..]).ok());
        Ok(CliRun {
            code: if run.timed_out { None } else { run.code },
            doc,
            wall: run.wall,
        })
    }

    /// Peak resident memory of the largest `tempo` process since the
    /// last call, MiB.
    pub fn take_peak_rss_mb(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let kb = std::mem::take(&mut self.peak_kb) as f64;
        kb / 1024.0
    }

    /// The binary.
    #[must_use]
    pub fn bin(&self) -> &TempoBin {
        &self.bin
    }
}

/// The per-assert `status` strings of a result document.
#[must_use]
pub fn assert_statuses(doc: &Json) -> Vec<String> {
    doc.get("asserts")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|a| {
            a.get("status")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned()
        })
        .collect()
}

/// Milliseconds as a metric value.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_cover_the_range_evenly() {
        let mut c = Cycle::new(3, 7, Rng::new(1, 0));
        let mut seen: Vec<i64> = (0..10).map(|_| c.next_value()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 3, 4, 4, 5, 5, 6, 6, 7, 7]);
    }

    /// The in-process workloads at their smoke sizes, end to end: the
    /// harness, the oracles and both modes.
    #[test]
    fn smoke_workloads_run_and_pass_their_oracles() {
        let ctx = Ctx {
            repo: Path::new(env!("CARGO_MANIFEST_DIR")).join(".."),
            seed: 1,
            seconds: 0.0,
            smoke: true,
        };
        for name in ["mcpta", "smc", "service"] {
            for traced in [false, true] {
                let run = execute(name, &ctx, traced).expect("harness");
                assert!(run.rec.attempted() > 0, "{name}");
                assert_eq!(
                    run.rec.failed(),
                    0,
                    "{name} traced={traced}: {:?}",
                    run.rec.rows()
                );
                assert!(
                    run.rec.problems.is_empty(),
                    "{name}: {:?}",
                    run.rec.problems
                );
                if !traced {
                    for (metric, _) in crate::report::END_TO_END {
                        assert!(run.metrics[*metric] > 0.0, "{name} {metric}");
                    }
                }
            }
        }
    }
}
