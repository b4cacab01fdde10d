//! `corpus`: every graded `corpus/*.tempo` problem through the real
//! `tempo check` binary, in a seeded order each round. The oracle is the
//! file's `-- expect:` header plus the documented exit code.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tempo_core::lang::{self, CorpusHeader, Expectation, Json};
use tempo_core::lint::{self, LintConfig};
use tempo_core::svc::{AnalysisService, ServiceConfig};

use super::{assert_statuses, Cli, Ctx, Workload};
use crate::report::Recorder;
use crate::stats::Rng;
use crate::sys::TempoBin;
use crate::trace::Tracer;

/// Per-check limit, enforced by killing the process.
const LIMIT: Duration = Duration::from_secs(20);

struct Problem {
    path: PathBuf,
    name: String,
    source: String,
    header: CorpusHeader,
}

pub struct Corpus {
    ctx: Ctx,
    cli: Cli,
    problems: Vec<Problem>,
}

impl Corpus {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        Ok(Corpus {
            ctx: ctx.clone(),
            cli: Cli::new(&ctx.repo)?,
            problems: Vec::new(),
        })
    }

    /// The files in this round's seeded order.
    fn order(&self, round: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.problems.len()).collect();
        Rng::new(self.ctx.seed, round as u64).shuffle(&mut order);
        order
    }
}

/// The exit code and per-assert statuses a header promises, given how
/// many asserts the document lists.
fn expected(h: &CorpusHeader, asserts: usize) -> (i32, Vec<&'static str>) {
    match &h.expect {
        Expectation::Pass => (0, vec!["pass"; asserts]),
        Expectation::Fail(bad) => (
            1,
            (0..asserts)
                .map(|i| if bad.contains(&i) { "fail" } else { "pass" })
                .collect(),
        ),
        Expectation::ParseError => (2, Vec::new()),
        Expectation::LintError => (3, Vec::new()),
    }
}

impl Workload for Corpus {
    fn setup(&mut self) -> Result<(), String> {
        let dir = self.ctx.repo.join("corpus");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tempo"))
            .collect();
        paths.sort();
        self.problems = paths
            .into_iter()
            .map(|path| {
                let source = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let header =
                    lang::parse_header(&source).map_err(|e| format!("{}: {e}", path.display()))?;
                let name = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                Ok(Problem {
                    path,
                    name,
                    source,
                    header,
                })
            })
            .collect::<Result<_, String>>()?;
        if self.problems.is_empty() {
            return Err(format!("no .tempo files in {}", dir.display()));
        }
        if self.ctx.smoke {
            self.problems.truncate(5);
        }
        // Pages the binary in, as any user's first invocation does.
        self.cli.run(["--version"], LIMIT)?;
        Ok(())
    }

    fn round(&mut self, round: usize, rec: &mut Recorder) -> Result<(), String> {
        for i in self.order(round) {
            let p = &self.problems[i];
            let mut args = vec!["check".to_owned(), p.path.display().to_string()];
            if let Some(engine) = &p.header.engine {
                args.extend(["--engine".to_owned(), engine.clone()]);
            }
            args.extend(["--json".to_owned(), "-".to_owned()]);
            let run = self.cli.run(&args, LIMIT)?;
            let statuses = run.doc.as_ref().map(assert_statuses).unwrap_or_default();
            let (code, want) = expected(&p.header, statuses.len());
            let ok = run.code == Some(code) && statuses == want;
            let verdict = format!("exit {:?} [{}]", run.code, statuses.join(","));
            rec.check(&p.name, run.wall, verdict, ok);
        }
        Ok(())
    }

    fn traced_round(
        &mut self,
        round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        for i in self.order(round) {
            t.next_check();
            let started = Instant::now();
            let cli = &mut self.cli;
            t.span("cli.startup", |_| cli.run(["--version"], LIMIT))?;
            let p = &self.problems[i];
            #[allow(clippy::cast_precision_loss)]
            t.count(
                "lang.tokens",
                lang::lex(&p.source).map_or(0, |toks| toks.len()) as f64,
            );
            let parsed = t.span("lang.parse", |_| lang::parse(&p.source));
            let built = parsed.and_then(|m| {
                t.span("lang.build", |_| lang::build(&m))
                    .map(|set| (m, set))
            });
            // The front end's verdict class: parse errors, lint errors,
            // or a model handed on to the engines.
            let class = match built {
                Err(_) => Expectation::ParseError,
                Ok((model, set)) => {
                    let net = t.span("lang.elaborate", |_| lang::to_network(&set));
                    let gate = match (&model.system, net) {
                        (Some(_), Ok(net)) => t.span("lint.gate", |_| {
                            lint::check_network_first(&net, &LintConfig::default())
                                .map(|r| r.diagnostics.len())
                                .map_err(|e| e.diagnostics.len())
                        }),
                        _ => Ok(0),
                    };
                    #[allow(clippy::cast_precision_loss)]
                    t.count("lint.diagnostics", gate.unwrap_or_else(|n| n) as f64);
                    let svc = t.span("svc.start", |_| {
                        AnalysisService::new(ServiceConfig::default())
                    });
                    t.span("svc.shutdown", |_| svc.shutdown());
                    if gate.is_err() {
                        Expectation::LintError
                    } else {
                        Expectation::Pass
                    }
                }
            };
            let want = match &p.header.expect {
                Expectation::Fail(_) => Expectation::Pass,
                e => e.clone(),
            };
            rec.check(
                &p.name,
                started.elapsed(),
                format!("{class:?}"),
                class == want,
            );
        }
        Ok(())
    }

    fn take_peak_rss_mb(&mut self) -> Result<f64, String> {
        Ok(self.cli.take_peak_rss_mb())
    }

    fn settings(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "files",
                Json::int(i64::try_from(self.problems.len()).unwrap_or(0)),
            ),
            (
                "check_limit_ms",
                Json::int(i64::try_from(LIMIT.as_millis()).unwrap_or(0)),
            ),
        ]
    }

    fn tempo(&self) -> Option<&TempoBin> {
        Some(self.cli.bin())
    }
}
