//! The `tempo check` pipeline: read → parse → elaborate → route each
//! assert through the analysis service → aggregate → render.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tempo_lang::ast::{AssertDef, AssertKind, CmpOp, Formula};
use tempo_lang::machine::MachineSet;
use tempo_lang::{Json, ParseError};
use tempo_mdp::Opt;
use tempo_obs::{CounterKind, ExploreConfig, Fingerprint, RunReport};
use tempo_smc::RatePolicy;
use tempo_svc::{
    AnalysisService, JobError, JobKind, JobRequest, JobVerdict, Rejected, ServiceConfig,
    VerdictSource,
};
use tempo_ta::{Network, StateFormula};

use crate::args::{CheckArgs, Engine};
use crate::Status;

/// Resident-state budget used when `--spill` is given: small enough to
/// actually exercise the out-of-core path on mid-sized models, large
/// enough that toy models never touch the disk.
const SPILL_RESIDENT: usize = 4096;

/// SMC defaults mirrored from the assert grammar's documentation.
const DEFAULT_RUNS: usize = 2000;
const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Value-iteration tolerance for `Pmax`/`Pmin` certificate validation.
const MCPTA_EPSILON: f64 = 1e-9;

/// The outcome of one assert line.
struct AssertOutcome {
    index: usize,
    query: String,
    engine: String,
    status: Status,
    verdict: Option<String>,
    value: Option<f64>,
    source: Option<&'static str>,
    report: Option<RunReport>,
    message: Option<String>,
}

/// Everything `tempo check` produced: the process exit status, the
/// versioned result document, and the human-readable summary.
pub struct CheckOutcome {
    /// Worst status across the run; its code is the process exit code.
    pub status: Status,
    /// The `tempo-result v1` document.
    pub doc: Json,
    /// Human-readable per-assert summary for the terminal.
    pub human: String,
}

/// One elaborated model, lowered lazily onto each substrate so a
/// parse-only invocation never pays for compilation and every assert
/// sharing a substrate shares one lowering.
struct Substrates<'a> {
    set: &'a MachineSet,
    net: Option<Result<Arc<Network>, ParseError>>,
    bip: Option<Result<Arc<tempo_bip::BipSystem>, ParseError>>,
}

impl<'a> Substrates<'a> {
    fn new(set: &'a MachineSet) -> Self {
        Substrates {
            set,
            net: None,
            bip: None,
        }
    }

    fn net(&mut self) -> Result<Arc<Network>, ParseError> {
        self.net
            .get_or_insert_with(|| tempo_lang::to_network(self.set).map(Arc::new))
            .clone()
    }

    fn bip(&mut self) -> Result<Arc<tempo_bip::BipSystem>, ParseError> {
        self.bip
            .get_or_insert_with(|| tempo_lang::to_bip(self.set).map(Arc::new))
            .clone()
    }
}

/// How a verdict decides the assert: which boolean it must carry, or
/// how a numeric value compares against the assert's threshold.
enum Decide {
    /// Assert holds iff the verdict's boolean equals this.
    Bool(bool),
    /// Assert holds iff `cmp(value, threshold)` on the verdict's number.
    Value(CmpOp, f64),
}

fn cmp_holds(v: f64, op: CmpOp, p: f64) -> bool {
    match op {
        CmpOp::Le => v <= p,
        CmpOp::Lt => v < p,
        CmpOp::Ge => v >= p,
        CmpOp::Gt => v > p,
        CmpOp::Eq => (v - p).abs() < f64::EPSILON,
        CmpOp::Ne => (v - p).abs() >= f64::EPSILON,
    }
}

/// Extracts (holds, numeric value) from a verdict under a decision
/// rule; `None` when the verdict kind does not match the rule (an
/// engine bug, surfaced as an engine error).
fn decide(verdict: &JobVerdict, rule: &Decide) -> Option<(bool, Option<f64>)> {
    match (rule, verdict) {
        (Decide::Bool(want), JobVerdict::DeadlockFree(b))
        | (Decide::Bool(want), JobVerdict::Reachable(b))
        | (Decide::Bool(want), JobVerdict::LeadsTo(b))
        | (Decide::Bool(want), JobVerdict::Refines(b))
        | (Decide::Bool(want), JobVerdict::Ioco(b))
        | (Decide::Bool(want), JobVerdict::BipDeadlock(b)) => Some((b == want, None)),
        (Decide::Value(op, p), JobVerdict::McptaValue(v)) => {
            Some((cmp_holds(*v, *op, *p), Some(*v)))
        }
        (Decide::Value(op, p), JobVerdict::Probability(e)) => {
            Some((cmp_holds(e.mean, *op, *p), Some(e.mean)))
        }
        _ => None,
    }
}

/// A job ready for submission, paired with its decision rule.
struct Plan {
    kind: JobKind,
    rule: Decide,
}

/// Why an assert could not be planned.
enum PlanError {
    /// The assert kind and the forced engine are incompatible.
    Usage(String),
    /// Elaboration onto the required substrate failed (`TLxxx`).
    Parse(ParseError),
}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError::Parse(e)
    }
}

fn goal_on_net(set: &MachineSet, net: &Network, f: &Formula) -> Result<StateFormula, ParseError> {
    tempo_lang::lower_formula_network(set, net, f)
}

/// Routes one assert to a job. `Auto` picks the natural engine; a
/// forced engine either matches or is refused as a usage error.
fn plan(
    idx: usize,
    assert: &AssertDef,
    sub: &mut Substrates<'_>,
    args: &CheckArgs,
    explore: &ExploreConfig,
) -> Result<Plan, PlanError> {
    let kind = &assert.kind;
    let set = sub.set;
    let misroute = |want: &str| {
        PlanError::Usage(format!(
            "assert {idx} needs engine {want} but --engine {} was forced",
            args.engine
        ))
    };
    match (kind, args.engine) {
        (AssertKind::DeadlockFree, Engine::Auto | Engine::Ta) => Ok(Plan {
            kind: JobKind::DeadlockFree {
                net: sub.net()?,
                explore: explore.clone(),
            },
            rule: Decide::Bool(true),
        }),
        (AssertKind::DeadlockFree, Engine::Bip) => Ok(Plan {
            kind: JobKind::BipDeadlock { sys: sub.bip()? },
            // BIP reports deadlock *existence*; the assert wants absence.
            rule: Decide::Bool(false),
        }),
        // `mctau` is the zone engine on the same network: a model here
        // has no probabilistic choice to over-approximate.
        (
            AssertKind::Reach(f) | AssertKind::Always(f),
            Engine::Auto | Engine::Ta | Engine::Mctau,
        ) => {
            let net = sub.net()?;
            let goal = goal_on_net(set, &net, f)?;
            let (goal, want) = match kind {
                AssertKind::Reach(_) => (goal, true),
                _ => (StateFormula::Not(Box::new(goal)), false),
            };
            Ok(Plan {
                kind: JobKind::Reach {
                    net,
                    goal,
                    explore: explore.clone(),
                },
                rule: Decide::Bool(want),
            })
        }
        (AssertKind::LeadsTo(phi, psi), Engine::Auto | Engine::Ta) => {
            let net = sub.net()?;
            let phi = goal_on_net(set, &net, phi)?;
            let psi = goal_on_net(set, &net, psi)?;
            if !(phi.is_discrete() && psi.is_discrete()) {
                return Err(PlanError::Parse(ParseError {
                    span: assert.span,
                    code: "TL103",
                    message: "the leads-to engine supports only location and data predicates; \
                              remove the clock constraints from both sides of `-->`"
                        .to_owned(),
                }));
            }
            Ok(Plan {
                kind: JobKind::LeadsTo { net, phi, psi },
                rule: Decide::Bool(true),
            })
        }
        (
            AssertKind::Pmax(f, cmp, p) | AssertKind::Pmin(f, cmp, p),
            Engine::Auto | Engine::Mcpta,
        ) => {
            let net = sub.net()?;
            let goal = goal_on_net(set, &net, f)?;
            let opt = match kind {
                AssertKind::Pmax(..) => Opt::Max,
                _ => Opt::Min,
            };
            Ok(Plan {
                kind: JobKind::McptaReach {
                    pta: net,
                    opt,
                    goal,
                    epsilon: MCPTA_EPSILON,
                },
                rule: Decide::Value(*cmp, *p),
            })
        }
        (
            AssertKind::Pr {
                bound,
                goal,
                cmp,
                prob,
                opts,
            },
            Engine::Auto | Engine::Smc,
        ) => {
            let net = sub.net()?;
            let goal = goal_on_net(set, &net, goal)?;
            #[allow(clippy::cast_precision_loss)]
            let bound = set.eval_const(bound)? as f64;
            #[allow(clippy::cast_possible_truncation)]
            let runs = opts.runs.map_or(DEFAULT_RUNS, |r| r as usize);
            Ok(Plan {
                kind: JobKind::Probability {
                    net,
                    rates: RatePolicy::new(),
                    seed: args.seed,
                    goal,
                    bound,
                    runs,
                    confidence: opts.confidence.unwrap_or(DEFAULT_CONFIDENCE),
                },
                rule: Decide::Value(*cmp, *prob),
            })
        }
        (AssertKind::Refines(imp, spec), Engine::Auto | Engine::Ecdar) => Ok(Plan {
            kind: JobKind::Refines {
                imp: Arc::new(tempo_lang::to_tioa(set, &imp.name)?),
                spec: Arc::new(tempo_lang::to_tioa(set, &spec.name)?),
            },
            rule: Decide::Bool(true),
        }),
        (AssertKind::Ioco(imp, spec), Engine::Auto | Engine::Ioco) => Ok(Plan {
            kind: JobKind::Ioco {
                imp: Arc::new(tempo_lang::to_lts(set, &imp.name)?),
                spec: Arc::new(tempo_lang::to_lts(set, &spec.name)?),
            },
            rule: Decide::Bool(true),
        }),
        (AssertKind::DeadlockFree | AssertKind::LeadsTo(..), _) => Err(misroute("ta or bip")),
        (AssertKind::Reach(_) | AssertKind::Always(_), _) => Err(misroute("ta or mctau")),
        (AssertKind::Pmax(..) | AssertKind::Pmin(..), _) => Err(misroute("mcpta")),
        (AssertKind::Pr { .. }, _) => Err(misroute("smc")),
        (AssertKind::Refines(..), _) => Err(misroute("ecdar")),
        (AssertKind::Ioco(..), _) => Err(misroute("ioco")),
    }
}

fn source_tag(s: VerdictSource) -> &'static str {
    match s {
        VerdictSource::Computed => "computed",
        VerdictSource::MemoryHit => "memory-hit",
        VerdictSource::DiskHit => "disk-hit",
        VerdictSource::Coalesced => "coalesced",
    }
}

/// The source line of an assert, trimmed — the `query` field of the
/// result document (faithful to what the user wrote, no re-rendering).
fn query_text(source: &str, line: u32) -> String {
    source
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_owned()
}

fn error_json(code: &str, message: &str, span: Option<tempo_lang::Span>) -> Json {
    let mut fields = vec![
        ("code".to_owned(), Json::str(code)),
        ("message".to_owned(), Json::str(message)),
    ];
    if let Some(s) = span {
        fields.push(("line".to_owned(), Json::int(i64::from(s.line))));
        fields.push(("col".to_owned(), Json::int(i64::from(s.col))));
    }
    Json::Obj(fields)
}

/// Every work counter, in declaration order. Timings stay out, so the
/// document is byte-identical across `--threads` and warm reruns.
fn report_json(r: &RunReport) -> Json {
    Json::Obj(
        r.counters()
            .filter(|&(_, _, kind)| kind == CounterKind::Work)
            .map(|(name, v, _)| {
                let v = Json::int(i64::try_from(v).unwrap_or(i64::MAX));
                (name.to_owned(), v)
            })
            .collect(),
    )
}

fn assert_json(a: &AssertOutcome) -> Json {
    let opt_str = |v: &Option<String>| v.as_deref().map_or(Json::Null, Json::str);
    Json::Obj(vec![
        (
            "index".to_owned(),
            Json::int(i64::try_from(a.index).unwrap_or(i64::MAX)),
        ),
        ("query".to_owned(), Json::str(&a.query)),
        ("engine".to_owned(), Json::str(&a.engine)),
        ("status".to_owned(), Json::str(a.status.label())),
        ("verdict".to_owned(), opt_str(&a.verdict)),
        (
            "value".to_owned(),
            // Bit-exact: the numeric value travels as its hex64 bit
            // pattern, like the verdict line's floats.
            a.value
                .map_or(Json::Null, |v| Json::str(Fingerprint::hex64(v))),
        ),
        ("source".to_owned(), a.source.map_or(Json::Null, Json::str)),
        (
            "report".to_owned(),
            a.report.as_ref().map_or(Json::Null, report_json),
        ),
        ("message".to_owned(), opt_str(&a.message)),
    ])
}

/// Assembles the full `tempo-result v1` document.
#[allow(clippy::too_many_arguments)]
fn result_doc(
    file: &str,
    sha: Option<&str>,
    fingerprint: Option<&str>,
    seed: u64,
    engine: Engine,
    status: Status,
    asserts: &[AssertOutcome],
    error: Json,
    duration_ms: u128,
) -> Json {
    Json::Obj(vec![
        ("schema".to_owned(), Json::str("tempo-result v1")),
        ("file".to_owned(), Json::str(file)),
        ("input_sha256".to_owned(), sha.map_or(Json::Null, Json::str)),
        (
            "model_fingerprint".to_owned(),
            fingerprint.map_or(Json::Null, Json::str),
        ),
        (
            "seed".to_owned(),
            Json::int(i64::try_from(seed).unwrap_or(i64::MAX)),
        ),
        ("engine".to_owned(), Json::str(engine.to_string())),
        ("status".to_owned(), Json::str(status.label())),
        ("exit_code".to_owned(), Json::int(i64::from(status.code()))),
        (
            "asserts".to_owned(),
            Json::Arr(asserts.iter().map(assert_json).collect()),
        ),
        ("error".to_owned(), error),
        (
            "duration_ms".to_owned(),
            Json::int(i64::try_from(duration_ms).unwrap_or(i64::MAX)),
        ),
    ])
}

/// Runs `tempo check` end to end (everything except process exit and
/// the `--json` file write, which belong to `main`).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_check(args: &CheckArgs) -> CheckOutcome {
    let started = Instant::now();
    let file = args.file.display().to_string();
    let finish = |status: Status,
                  sha: Option<&str>,
                  fp: Option<&str>,
                  asserts: Vec<AssertOutcome>,
                  error: Json,
                  human: String| {
        let doc = result_doc(
            &file,
            sha,
            fp,
            args.seed,
            args.engine,
            status,
            &asserts,
            error,
            started.elapsed().as_millis(),
        );
        CheckOutcome { status, doc, human }
    };

    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            let msg = format!("cannot read {file}: {e}");
            return finish(
                Status::Io,
                None,
                None,
                Vec::new(),
                error_json("IO", &msg, None),
                format!("{file}: io-error: {e}\n"),
            );
        }
    };
    let sha = tempo_lang::sha256_hex(source.as_bytes());

    let parse_failure = |status: Status, e: &ParseError| {
        let human = format!("{file}:{}: {} {}\n", e.span, e.code, e.message);
        finish(
            status,
            Some(&sha),
            None,
            Vec::new(),
            error_json(e.code, &e.message, Some(e.span)),
            human,
        )
    };

    let model = match tempo_lang::parse(&source) {
        Ok(m) => m,
        Err(e) => return parse_failure(Status::ParseError, &e),
    };
    let set = match tempo_lang::build(&model) {
        Ok(s) => s,
        Err(e) => return parse_failure(Status::ParseError, &e),
    };

    let mut sub = Substrates::new(&set);
    let fingerprint = sub
        .net()
        .ok()
        .map(|net| Fingerprint::of(net.as_ref()).to_hex());

    // A model without asserts still passes the engines' static-analysis
    // gate, so `tempo check` on the lint tier of the corpus reports
    // lint errors without needing an assert to hang them on.
    if model.system.is_some() {
        if let Ok(net) = sub.net() {
            if let Err(e) =
                tempo_lint::check_network_first(&net, &tempo_lint::LintConfig::default())
            {
                let text = e.to_string();
                return finish(
                    Status::LintError,
                    Some(&sha),
                    fingerprint.as_deref(),
                    Vec::new(),
                    error_json("LINT", &text, None),
                    format!("{file}: lint-error: {text}\n"),
                );
            }
        }
    }

    let selected: Vec<usize> = match args.assert_index {
        Some(i) if i >= model.asserts.len() => {
            let msg = format!(
                "--assert {i} is out of range: the model has {} asserts",
                model.asserts.len()
            );
            return finish(
                Status::Usage,
                Some(&sha),
                fingerprint.as_deref(),
                Vec::new(),
                error_json("USAGE", &msg, None),
                format!("{file}: usage: {msg}\n"),
            );
        }
        Some(i) => vec![i],
        None => (0..model.asserts.len()).collect(),
    };

    let mut explore = ExploreConfig::default();
    if let Some(dir) = &args.spill {
        explore = explore.with_spill(dir.clone(), SPILL_RESIDENT);
    }

    // Plan every selected assert before spinning up workers: planning
    // errors (elaboration, misrouting) never waste engine time.
    let mut plans = Vec::new();
    for &idx in &selected {
        let a = &model.asserts[idx];
        let query = query_text(&source, a.span.line);
        match plan(idx, a, &mut sub, args, &explore) {
            Ok(p) => plans.push((idx, query, p)),
            Err(PlanError::Parse(e)) => return parse_failure(Status::ParseError, &e),
            Err(PlanError::Usage(msg)) => {
                return finish(
                    Status::Usage,
                    Some(&sha),
                    fingerprint.as_deref(),
                    Vec::new(),
                    error_json("USAGE", &msg, None),
                    format!("{file}: usage: {msg}\n"),
                );
            }
        }
    }

    let service = AnalysisService::new(ServiceConfig {
        workers: args.threads,
        ..ServiceConfig::default()
    });
    let mut outcomes: Vec<AssertOutcome> = Vec::new();
    let mut handles = Vec::new();
    for (idx, query, p) in plans {
        let engine = p.kind.engine_tag().to_owned();
        let submitted = service.submit(JobRequest {
            tenant: "cli".to_owned(),
            priority: 0,
            budget: args.budget.clone(),
            kind: p.kind,
        });
        handles.push((idx, query, engine, p.rule, submitted));
    }
    for (index, query, engine, rule, submitted) in handles {
        let mut outcome = AssertOutcome {
            index,
            query,
            engine,
            status: Status::EngineError,
            verdict: None,
            value: None,
            source: None,
            report: None,
            message: None,
        };
        match submitted {
            Err(Rejected::Lint(e)) => {
                outcome.status = Status::LintError;
                outcome.message = Some(e.to_string());
            }
            Err(r) => {
                outcome.status = Status::Rejected;
                outcome.message = Some(r.to_string());
            }
            Ok(handle) => match handle.wait() {
                Err(JobError::Exhausted(reason)) => {
                    outcome.status = Status::Exhausted;
                    outcome.message = Some(format!("budget exhausted: {reason}"));
                }
                Err(e) => {
                    outcome.status = Status::EngineError;
                    outcome.message = Some(e.to_string());
                }
                Ok(result) => {
                    outcome.verdict = Some(result.verdict.render());
                    outcome.source = Some(source_tag(result.source));
                    outcome.report = Some(result.report);
                    match decide(&result.verdict, &rule) {
                        Some((holds, value)) => {
                            outcome.status = if holds { Status::Pass } else { Status::Fail };
                            outcome.value = value;
                        }
                        None => {
                            outcome.status = Status::EngineError;
                            outcome.message =
                                Some("verdict kind does not match the assert".to_owned());
                        }
                    }
                }
            },
        }
        outcomes.push(outcome);
    }
    service.shutdown();

    // Error statuses dominate fail, fail dominates pass; among errors
    // the first failing assert (in assert order) picks the exit code,
    // which keeps the aggregate deterministic.
    let status = outcomes
        .iter()
        .map(|o| o.status)
        .find(|s| !matches!(s, Status::Pass | Status::Fail))
        .or_else(|| {
            outcomes
                .iter()
                .map(|o| o.status)
                .find(|s| matches!(s, Status::Fail))
        })
        .unwrap_or(Status::Pass);

    let mut human = String::new();
    for o in &outcomes {
        let detail = o.verdict.as_deref().or(o.message.as_deref()).unwrap_or("");
        let _ = writeln!(
            human,
            "  assert {}: {}  {}  [{}{}]",
            o.index,
            o.status.label(),
            o.query,
            o.engine,
            o.source.map(|s| format!(", {s}")).unwrap_or_default(),
        );
        if !detail.is_empty() {
            let _ = writeln!(human, "    {detail}");
        }
    }
    let _ = writeln!(human, "{file}: {} (exit {})", status.label(), status.code());

    finish(
        status,
        Some(&sha),
        fingerprint.as_deref(),
        outcomes,
        Json::Null,
        human,
    )
}
