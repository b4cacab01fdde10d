//! `fischer`: Fischer's mutual-exclusion protocol, generated in
//! tempo-lang and checked through the real `tempo check` binary, one
//! assert per check. The seed picks the delay constant `K` and the order
//! of the process declarations; neither changes the zone graph (all
//! clock constants are `0` or `K`, so any `K` gives an isomorphic graph),
//! so every seed does the same engine work.
//!
//! The oracles are the protocol's theorems: mutual exclusion
//! (`A[] cs <= 1`), deadlock freedom, and that the critical section is
//! reachable (`E<> cs == 1`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tempo_core::lang::{self, ast::AssertKind, Json};
use tempo_core::lint::{self, LintConfig};
use tempo_core::obs::{Budget, ExploreConfig, RunReport};
use tempo_core::ta::{ModelChecker, StateFormula};
use tempo_core::witness::{certify::Certificate, certify::TraceCertificate, format, realize};

use super::{assert_statuses, Cli, Ctx, Workload};
use crate::report::Recorder;
use crate::stats::Rng;
use crate::sys::{self, Scratch, TempoBin};
use crate::trace::Tracer;

/// Per-check limit, enforced by killing the process.
const LIMIT: Duration = Duration::from_secs(120);

/// The asserts every generated model carries, in assert-index order.
const ASSERTS: [&str; 3] = ["A[] cs <= 1", "deadlock free", "E<> cs == 1"];

const PROCESSES: [&str; 4] = [
    "process Idle(i) = when {id == 0} tau {x[i - 1] := 0} -> Req(i)",
    "process Req(i) = inv {x[i - 1] <= K} tau {x[i - 1] := 0, id := i} -> Wait(i)",
    "process Wait(i) =\n  when {id == 0} tau {x[i - 1] := 0} -> Req(i)\n  [] when {x[i - 1] > K, id == i} tau {cs := cs + 1} -> Cs(i)",
    "process Cs(i) = tau {cs := cs - 1, id := 0} -> Idle(i)",
];

/// Fischer's protocol for `n` processes with delay constant `k`, the
/// process definitions emitted in `order` (a permutation of `0..4`).
#[must_use]
pub fn fischer_source(n: usize, k: i64, order: &[usize]) -> String {
    let mut s = format!(
        "-- Fischer's mutual exclusion protocol, {n} processes (generated)\n\
         param K = {k}\nclock x[{n}]\nvar id: 0..{n} = 0\nvar cs: 0..{n} = 0\n\n"
    );
    for &p in order {
        let _ = writeln!(s, "{}", PROCESSES[p]);
    }
    let procs: Vec<String> = (1..=n).map(|i| format!("Idle({i}) as P{i}")).collect();
    let _ = writeln!(s, "\nsystem {}\n", procs.join(" || "));
    for a in ASSERTS {
        let _ = writeln!(s, "assert {a}");
    }
    s
}

/// The seeded variant: `K ∈ 1..=4` and a shuffled declaration order.
#[must_use]
pub fn seeded_source(n: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed, u64::MAX);
    let k = rng.range(1, 4);
    let mut order = [0, 1, 2, 3];
    rng.shuffle(&mut order);
    fischer_source(n, k, &order)
}

pub struct Fischer {
    ctx: Ctx,
    cli: Cli,
    n: usize,
    /// Holds the generated model file `tempo` reads.
    scratch: Scratch,
    source: String,
    /// `(states_explored, states_stored)` per assert, as the CLI's JSON
    /// reports them and as the direct calls measured them.
    cli_counts: [Option<Counts>; 3],
    direct_counts: [Option<Counts>; 3],
    rss_per_state_b: f64,
}

impl Fischer {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        let scratch = Scratch::new(&ctx.repo, "fischer")?;
        Ok(Fischer {
            ctx: ctx.clone(),
            cli: Cli::new(&ctx.repo)?,
            n: if ctx.smoke { 3 } else { 5 },
            scratch,
            source: String::new(),
            cli_counts: [None; 3],
            direct_counts: [None; 3],
            rss_per_state_b: 0.0,
        })
    }

    fn file(&self) -> PathBuf {
        self.scratch.path().join("fischer.tempo")
    }

    fn order(&self, round: usize) -> [usize; 3] {
        let mut order = [0, 1, 2];
        Rng::new(self.ctx.seed, round as u64).shuffle(&mut order);
        order
    }

    fn cli_check(&mut self, assert: usize) -> Result<(Duration, bool, Option<Counts>), String> {
        let file = self.file().display().to_string();
        let a = assert.to_string();
        let run = self
            .cli
            .run(["check", &file, "--assert", &a, "--json", "-"], LIMIT)?;
        let counts = run.doc.as_ref().and_then(|d| {
            let report = d.get("asserts")?.as_arr()?.first()?.get("report")?;
            let n = |k: &str| report.get(k).and_then(Json::as_num).map(|v| v as u64);
            Some((n("states_explored")?, n("states_stored")?))
        });
        let ok = run.code == Some(0)
            && run.doc.as_ref().map(assert_statuses) == Some(vec!["pass".to_owned()]);
        Ok((run.wall, ok, counts))
    }
}

/// `(states_explored, states_stored)` of one check.
type Counts = (u64, u64);

/// Records `counts` for `assert`, flagging any change from an earlier
/// round: the same input must always take the same work.
fn pin(slot: &mut Option<Counts>, counts: Option<Counts>, what: &str, rec: &mut Recorder) {
    match (*slot, counts) {
        (_, None) => rec.problem(format!("{what}: no state counts")),
        (None, Some(c)) => *slot = Some(c),
        (Some(old), Some(c)) if old != c => {
            rec.problem(format!("{what}: counts changed {old:?} -> {c:?}"))
        }
        _ => {}
    }
}

fn counts(r: &RunReport) -> Counts {
    (r.states_explored, r.states_stored)
}

impl Workload for Fischer {
    fn setup(&mut self) -> Result<(), String> {
        self.source = seeded_source(self.n, self.ctx.seed);
        let model =
            lang::parse(&self.source).map_err(|e| format!("generated Fischer model: {e}"))?;
        lang::build(&model).map_err(|e| format!("generated Fischer model: {e}"))?;
        let file = self.file();
        std::fs::write(&file, &self.source)
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        self.cli.run(["--version"], LIMIT)?;
        Ok(())
    }

    fn round(&mut self, round: usize, rec: &mut Recorder) -> Result<(), String> {
        for a in self.order(round) {
            let (wall, ok, counts) = self.cli_check(a)?;
            pin(&mut self.cli_counts[a], counts, ASSERTS[a], rec);
            rec.check(ASSERTS[a], wall, if ok { "pass" } else { "not pass" }, ok);
        }
        Ok(())
    }

    fn traced_round(
        &mut self,
        round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let budget = Budget::unlimited();
        for a in self.order(round) {
            t.next_check();
            let started = Instant::now();
            let cli = &mut self.cli;
            t.span("cli.startup", |_| cli.run(["--version"], LIMIT))?;
            let src = &self.source;
            #[allow(clippy::cast_precision_loss)]
            t.count(
                "lang.tokens",
                lang::lex(src).map_or(0, |toks| toks.len()) as f64,
            );
            let model = t
                .span("lang.parse", |_| lang::parse(src))
                .map_err(|e| e.to_string())?;
            let set = t
                .span("lang.build", |_| lang::build(&model))
                .map_err(|e| e.to_string())?;
            let net = t
                .span("lang.elaborate", |_| lang::to_network(&set))
                .map_err(|e| e.to_string())?;
            t.span("lint.gate", |_| {
                lint::check_network_first(&net, &LintConfig::default())
            })
            .map_err(|e| format!("Fischer failed its lint gate: {e}"))?;
            let goal = match &model.asserts[a].kind {
                AssertKind::Always(f) => Some(StateFormula::not(
                    lang::lower_formula_network(&set, &net, f).map_err(|e| e.to_string())?,
                )),
                AssertKind::Reach(f) => {
                    Some(lang::lower_formula_network(&set, &net, f).map_err(|e| e.to_string())?)
                }
                _ => None,
            };
            let mut mc = ModelChecker::new(&net).with_config(ExploreConfig::default());
            let hwm_before = sys::self_peak_rss_mb()?;
            let (holds, report, trace) = t
                .span("ta.explore", |_| match &goal {
                    Some(g) => mc.try_reachable_governed(g, &budget).map(|out| {
                        let res = out.value();
                        // `A[] f` holds when `!f` is unreachable.
                        let holds = res.reachable == (a == 2);
                        (holds, out.report().clone(), res.trace.clone())
                    }),
                    None => mc
                        .try_deadlock_free_governed(&budget)
                        .map(|out| (out.value().0.holds(), out.report().clone(), None)),
                })
                .map_err(|e| e.to_string())?;
            if goal.is_none() && report.states_stored > 0 {
                let grown_b = (sys::self_peak_rss_mb()? - hwm_before) * 1024.0 * 1024.0;
                #[allow(clippy::cast_precision_loss)]
                let per_state = grown_b / report.states_stored as f64;
                self.rss_per_state_b = self.rss_per_state_b.max(per_state);
            }
            let mut certified = true;
            if let (Some(trace), Some(g)) = (trace, &goal) {
                certified = t.span("witness.certify", |t| {
                    let cert = realize(&net, &trace, g).and_then(|concrete| {
                        let cert = TraceCertificate { trace: concrete };
                        cert.validate(&net, g).map(|()| cert)
                    });
                    #[allow(clippy::cast_precision_loss)]
                    cert.map(|c| {
                        t.count(
                            "witness.cert_bytes",
                            format::render(&Certificate::Trace(c)).len() as f64,
                        )
                    })
                    .is_ok()
                });
            }
            #[allow(clippy::cast_precision_loss)]
            for (name, v) in [
                ("ta.states_explored", report.states_explored),
                ("ta.states_stored", report.states_stored),
                ("ta.peak_waiting", report.peak_waiting),
                ("ta.por_ample_states", report.por_ample_states),
                ("ta.sym_states_avoided", report.sym_states_avoided),
                ("flow.lu_tightened", report.lu_tightened),
                ("flow.vars_narrowed", report.vars_narrowed),
                ("flow.sliced_clocks", report.sliced_clocks),
                ("flow.sliced_edges", report.sliced_edges),
            ] {
                t.count(name, v as f64);
            }
            pin(
                &mut self.direct_counts[a],
                Some(counts(&report)),
                ASSERTS[a],
                rec,
            );
            let ok = holds && certified;
            rec.check(
                ASSERTS[a],
                started.elapsed(),
                if ok { "pass" } else { "not pass" },
                ok,
            );
        }
        Ok(())
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for (a, name) in ASSERTS.iter().enumerate() {
            let (_, ok, counts) = self.cli_check(a)?;
            pin(&mut self.cli_counts[a], counts, name, rec);
            if !ok {
                rec.problem(format!("{name}: the CLI did not pass it"));
            }
            if self.direct_counts[a].is_some() && self.direct_counts[a] != self.cli_counts[a] {
                rec.problem(format!(
                    "{name}: direct calls explored/stored {:?}, the CLI reported {:?}",
                    self.direct_counts[a], self.cli_counts[a]
                ));
            }
        }
        Ok(())
    }

    fn take_peak_rss_mb(&mut self) -> Result<f64, String> {
        Ok(self.cli.take_peak_rss_mb())
    }

    fn settings(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("processes", Json::int(i64::try_from(self.n).unwrap_or(0))),
            (
                "check_limit_ms",
                Json::int(i64::try_from(LIMIT.as_millis()).unwrap_or(0)),
            ),
        ]
    }

    /// The peak-memory growth per stored state, from the first round
    /// (later rounds repeat the work and leave the peak where it was).
    fn derive(&self, m: &mut std::collections::BTreeMap<String, f64>) {
        m.insert("ta.rss_per_stored_state_b".into(), self.rss_per_state_b);
    }

    fn tempo(&self) -> Option<&TempoBin> {
        Some(self.cli.bin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_of(src: &str) -> Vec<(usize, usize)> {
        let model = lang::parse(src).expect("parses");
        let set = lang::build(&model).expect("builds");
        let net = lang::to_network(&set).expect("elaborates");
        let mut out = Vec::new();
        for a in &model.asserts {
            let mut mc = ModelChecker::new(&net);
            let stats = match &a.kind {
                AssertKind::Always(f) => {
                    let g = lang::lower_formula_network(&set, &net, f).expect("formula");
                    mc.reachable(&StateFormula::not(g)).stats
                }
                AssertKind::Reach(f) => {
                    let g = lang::lower_formula_network(&set, &net, f).expect("formula");
                    mc.reachable(&g).stats
                }
                _ => mc.deadlock_free().1,
            };
            out.push((stats.explored, stats.stored));
        }
        out
    }

    #[test]
    fn generator_output_parses_and_builds() {
        for n in 3..=5 {
            for seed in [1, 2, 3] {
                let src = seeded_source(n, seed);
                let model = lang::parse(&src).unwrap_or_else(|e| panic!("N={n}: {e}\n{src}"));
                lang::build(&model).unwrap_or_else(|e| panic!("N={n}: {e}"));
                assert_eq!(model.asserts.len(), 3);
            }
        }
    }

    #[test]
    fn every_seed_gives_the_same_state_counts() {
        let reference = counts_of(&fischer_source(3, 1, &[0, 1, 2, 3]));
        for seed in 1..=6 {
            assert_eq!(counts_of(&seeded_source(3, seed)), reference, "seed {seed}");
        }
    }
}
