//! Corpus harness: every graded problem under `corpus/` must produce
//! its expected verdict, its documented exit code, and a schema-valid
//! `tempo-result v1` document — byte-identically across worker counts.
//!
//! The harness spawns the real `tempo` binary (`CARGO_BIN_EXE_tempo`),
//! so it exercises the full pipeline: argument parsing, file IO, the
//! frontend, svc admission, engines, and the JSON writer.

use std::path::{Path, PathBuf};
use std::process::Command;

use tempo_lang::{parse_header, Expectation, Json};
use tempo_obs::{CounterKind, RunReport};

/// The repository's corpus directory, resolved from this crate.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// All `.tempo` problems, sorted so failures are reported in tier order.
fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tempo"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 20,
        "corpus should hold the graded problem set"
    );
    files
}

struct RunResult {
    code: i32,
    doc: Json,
}

/// Runs `tempo check` on one corpus file and parses the emitted
/// result document.
fn run_tempo(file: &Path, engine: Option<&str>, threads: u32) -> RunResult {
    let json_path = std::env::temp_dir().join(format!(
        "tempo-corpus-{}-{}-t{threads}.json",
        std::process::id(),
        file.file_stem().unwrap().to_string_lossy(),
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tempo"));
    cmd.arg("check")
        .arg(file)
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--json")
        .arg(&json_path);
    if let Some(engine) = engine {
        cmd.arg("--engine").arg(engine);
    }
    let output = cmd.output().expect("spawn tempo binary");
    let code = output.status.code().expect("tempo exited with a code");
    let text = std::fs::read_to_string(&json_path)
        .unwrap_or_else(|e| panic!("{}: result document missing: {e}", file.display()));
    let _ = std::fs::remove_file(&json_path);
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| panic!("{}: result document is not valid JSON: {e}", file.display()));
    RunResult { code, doc }
}

/// Drops the two documented nondeterministic fields — `duration_ms`
/// and each assert's cache `source` tag — so documents from different
/// runs can be compared byte-for-byte.
fn normalize(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "duration_ms" && k != "source")
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        other => other.clone(),
    }
}

/// Checks the fixed scaffolding of a `tempo-result v1` document,
/// including that each assert's `report` holds exactly the run report's
/// work counters, in declaration order, and none that differ between
/// runs.
fn assert_schema(file: &Path, r: &RunResult) {
    let name = file.display();
    let doc = &r.doc;
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("tempo-result v1"),
        "{name}: schema tag"
    );
    assert!(
        doc.get("file").and_then(Json::as_str).is_some(),
        "{name}: file field"
    );
    let sha = doc
        .get("input_sha256")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{name}: input_sha256 missing"));
    assert_eq!(sha.len(), 64, "{name}: sha256 is 64 hex chars");
    assert!(
        sha.chars().all(|c| c.is_ascii_hexdigit()),
        "{name}: sha256 is hex"
    );
    assert!(
        doc.get("seed").and_then(Json::as_num).is_some(),
        "{name}: seed field"
    );
    assert!(
        doc.get("engine").and_then(Json::as_str).is_some(),
        "{name}: engine field"
    );
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{name}: status missing"));
    let exit_code = doc
        .get("exit_code")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{name}: exit_code missing"));
    #[allow(clippy::cast_possible_truncation)]
    let exit_code = exit_code as i32;
    assert_eq!(
        exit_code, r.code,
        "{name}: exit_code field matches process exit"
    );
    assert!(
        doc.get("duration_ms").and_then(Json::as_num).is_some(),
        "{name}: duration_ms field"
    );
    let asserts = doc
        .get("asserts")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{name}: asserts array missing"));
    let work: Vec<&str> = RunReport::default()
        .counters()
        .filter(|&(_, _, kind)| kind == CounterKind::Work)
        .map(|(counter, _, _)| counter)
        .collect();
    for varies in ["wall_time", "certify_time"] {
        assert!(!work.contains(&varies), "{varies} differs between runs");
    }
    for (i, a) in asserts.iter().enumerate() {
        assert!(
            a.get("index").and_then(Json::as_num).is_some(),
            "{name}: assert {i} index"
        );
        if let Some(Json::Obj(report)) = a.get("report") {
            let keys: Vec<&str> = report.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys, work,
                "{name}: assert {i} report holds every work counter, in order"
            );
        }
        assert!(
            a.get("query").and_then(Json::as_str).is_some(),
            "{name}: assert {i} query"
        );
        assert!(
            a.get("engine").and_then(Json::as_str).is_some(),
            "{name}: assert {i} engine"
        );
        assert!(
            a.get("status").and_then(Json::as_str).is_some(),
            "{name}: assert {i} status"
        );
    }
    if status == "pass" || status == "fail" {
        assert!(
            doc.get("model_fingerprint")
                .and_then(Json::as_str)
                .is_some(),
            "{name}: model_fingerprint on a checked model"
        );
    }
    if status == "parse-error" || status == "lint-error" {
        let error = doc
            .get("error")
            .unwrap_or_else(|| panic!("{name}: error object missing"));
        assert!(
            error.get("code").and_then(Json::as_str).is_some(),
            "{name}: error code"
        );
        assert!(
            error.get("message").and_then(Json::as_str).is_some(),
            "{name}: error message"
        );
    }
}

/// The 0-based indices of failing asserts in a result document.
fn failing_indices(doc: &Json) -> Vec<usize> {
    doc.get("asserts")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|a| a.get("status").and_then(Json::as_str) == Some("fail"))
        .map(|a| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = a.get("index").and_then(Json::as_num).expect("assert index") as usize;
            idx
        })
        .collect()
}

/// Every corpus problem produces its expected verdict, exit code and a
/// schema-valid result document.
#[test]
fn corpus_expected_verdicts() {
    for file in corpus_files() {
        let source = std::fs::read_to_string(&file).expect("readable corpus file");
        let header = parse_header(&source)
            .unwrap_or_else(|e| panic!("{}: bad corpus header: {e}", file.display()));
        let r = run_tempo(&file, header.engine.as_deref(), 2);
        assert_schema(&file, &r);
        let name = file.display();
        let status = r.doc.get("status").and_then(Json::as_str).unwrap();
        match &header.expect {
            Expectation::Pass => {
                assert_eq!(r.code, 0, "{name}: expected pass");
                assert_eq!(status, "pass", "{name}: status");
                assert!(
                    failing_indices(&r.doc).is_empty(),
                    "{name}: no failing asserts"
                );
            }
            Expectation::Fail(indices) => {
                assert_eq!(r.code, 1, "{name}: expected fail");
                assert_eq!(status, "fail", "{name}: status");
                assert_eq!(
                    &failing_indices(&r.doc),
                    indices,
                    "{name}: exactly the graded asserts fail"
                );
            }
            Expectation::ParseError => {
                assert_eq!(r.code, 2, "{name}: expected parse-error");
                assert_eq!(status, "parse-error", "{name}: status");
            }
            Expectation::LintError => {
                assert_eq!(r.code, 3, "{name}: expected lint-error");
                assert_eq!(status, "lint-error", "{name}: status");
            }
        }
    }
}

/// Verdicts are byte-identical across worker counts: a 1-worker and a
/// 4-worker run emit the same document modulo `duration_ms` and cache
/// `source` tags.
#[test]
fn corpus_deterministic_across_worker_counts() {
    for file in corpus_files() {
        let source = std::fs::read_to_string(&file).expect("readable corpus file");
        let header = parse_header(&source).expect("graded header");
        let one = run_tempo(&file, header.engine.as_deref(), 1);
        let four = run_tempo(&file, header.engine.as_deref(), 4);
        assert_eq!(
            one.code,
            four.code,
            "{}: exit code is worker-count independent",
            file.display()
        );
        assert_eq!(
            normalize(&one.doc).render(),
            normalize(&four.doc).render(),
            "{}: result document is worker-count independent",
            file.display()
        );
    }
}

/// Malformed command lines exit with the documented usage code.
#[test]
fn usage_errors_exit_6() {
    let bad: &[&[&str]] = &[
        &["frobnicate"],
        &["check"],
        &["check", "a.tempo", "--engine", "quantum"],
        &["check", "a.tempo", "--threads", "0"],
        &["check", "a.tempo", "--budget", "states=many"],
    ];
    for argv in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_tempo"))
            .args(*argv)
            .output()
            .expect("spawn tempo binary");
        assert_eq!(
            out.status.code(),
            Some(6),
            "argv {argv:?} should be a usage error"
        );
    }
}

/// An out-of-range `--assert` index is a usage error, reported through
/// the result document as well as the exit code.
#[test]
fn out_of_range_assert_index_exits_6() {
    let file = corpus_dir().join("P100_handshake.tempo");
    let out = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .args([
            "check",
            file.to_str().unwrap(),
            "--assert",
            "99",
            "--json",
            "-",
        ])
        .output()
        .expect("spawn tempo binary");
    assert_eq!(out.status.code(), Some(6), "out-of-range assert index");
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    let json_start = text.find('{').expect("result document on stdout");
    let doc = Json::parse(&text[json_start..]).expect("valid result document");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("usage"));
}

/// A missing input file is an IO error (exit 7), not a crash.
#[test]
fn missing_file_exits_7() {
    let out = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .args(["check", "/nonexistent/no-such-model.tempo"])
        .output()
        .expect("spawn tempo binary");
    assert_eq!(out.status.code(), Some(7), "missing input file");
}

/// Writes `source` to a temp file (not `corpus/`), runs
/// `tempo check <file> <args> --json -` under a 20 s watchdog, and
/// returns the exit code and the result document.
fn check_source(tag: &str, source: &str, args: &[&str]) -> (Option<i32>, Json) {
    let file =
        std::env::temp_dir().join(format!("tempo-corpus-{}-{tag}.tempo", std::process::id()));
    std::fs::write(&file, source).expect("writable temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .arg("check")
        .arg(&file)
        .args(args)
        .args(["--json", "-"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn tempo binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().expect("poll tempo").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("tempo check did not exit within 20 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect tempo output");
    let _ = std::fs::remove_file(&file);
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    let doc = Json::parse(&text[text.find('{').expect("result document")..])
        .expect("valid result document");
    (out.status.code(), doc)
}

/// A leads-to over a clock constraint is outside the engine's subset:
/// it is refused with a `TL103` parse error (exit 2) instead of reaching
/// the engine.
#[test]
fn clock_constrained_leads_to_exits_2_with_tl103() {
    let source = std::fs::read_to_string(corpus_dir().join("P200_train_gate.tempo"))
        .expect("readable corpus file");
    let last = "assert Train.Near --> Train.Crossing";
    assert!(source.contains(last), "P200 ends with its leads-to assert");
    let (code, doc) = check_source(
        "clock-leads-to",
        &source.replace(last, "assert x >= 1 --> Train.Crossing"),
        &["--assert", "3"],
    );
    assert_eq!(code, Some(2), "a subset violation is a parse error");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("parse-error")
    );
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("TL103")
    );
}

/// An engine that panics, here on an initial invariant no clock
/// valuation satisfies, makes `tempo check` exit 8 with status
/// `engine-error` instead of waiting forever on the job the panicking
/// worker never resolved.
#[test]
fn engine_panic_exits_8_with_engine_error() {
    let (code, doc) = check_source(
        "engine-panic",
        "clock x\nprocess P = inv {x < 0} STOP\nsystem P\nassert deadlock free\n",
        &[],
    );
    assert_eq!(code, Some(8), "an engine panic is an engine error");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("engine-error")
    );
}

/// A model whose initial valuation violates an invariant has no initial
/// state. mcpta then builds no MDP, so a `Pmax` assert is an engine
/// error (exit 8), as it is for the other engines, not a pass computed
/// from a state the model never enters.
#[test]
fn mcpta_without_an_initial_state_exits_8_with_engine_error() {
    let (code, doc) = check_source(
        "no-initial-state",
        "channel c\nclock x\nprocess P = inv { x >= 1 } c! -> STOP\n\
         process Q = c? -> Done\nprocess Done = STOP\nsystem P || {c} Q\n\
         assert Pmax[<> Q.Done] >= 0.5\n",
        &["--assert", "0"],
    );
    assert_eq!(code, Some(8), "no initial state is an engine error");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("engine-error")
    );
}

/// P102 with `leave` made a broadcast channel deadlocks once `x > D`:
/// the waiting train must take part in the gate's `leave!`, and its
/// target invariant `x <= D` refuses it. The deadlock check counts the
/// receivers of a broadcast, so `deadlock free` fails (exit 1).
#[test]
fn broadcast_twin_of_p102_fails_deadlock_free() {
    let source = std::fs::read_to_string(corpus_dir().join("P102_timelock.tempo"))
        .expect("readable corpus file");
    let line = "channel approach, leave";
    assert!(
        source.contains(line),
        "P102 declares both channels on one line"
    );
    let (code, doc) = check_source(
        "broadcast-timelock",
        &source.replace(line, "channel approach\nbroadcast channel leave"),
        &[],
    );
    assert_eq!(code, Some(1), "a failed assert exits 1");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("fail"));
    assert_eq!(failing_indices(&doc), vec![0]);
}

/// `P`'s only edge runs `v := v + 2` on `v: 0..1`. The update leaves
/// the range, so the move is refused and `P` is stuck (`Q` is never
/// reached). The deadlock check fires a move before counting it as an
/// escape, so `deadlock free` fails (exit 1).
#[test]
fn a_move_whose_update_fails_is_no_escape_from_deadlock() {
    let source = "var v: 0..1 = 0\n\
                  process P = tau {v := v + 2} -> Q\n\
                  process Q = tau -> Q\n\
                  system P\n\
                  assert deadlock free\n";
    let (code, doc) = check_source("update-refuses", source, &[]);
    assert_eq!(code, Some(1), "a failed assert exits 1");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("fail"));
    assert_eq!(failing_indices(&doc), vec![0]);
}

/// The receiver's reset `x := v` reads the sender's update `v := 5`, so
/// `x = 5` breaks `W`'s invariant `x <= 2`: the handshake never fires
/// and the network deadlocks at once. The deadlock check evaluates the
/// reset where the move does, after the sender's update, so `deadlock
/// free` fails (exit 1).
#[test]
fn a_receivers_reset_after_the_senders_update_deadlocks() {
    let source = "channel c\n\
                  clock x\n\
                  var v: 0..9 = 0\n\
                  process S = c! {v := 5} -> T\n\
                  process T = tau -> T\n\
                  process R = c? {x := v} -> W\n\
                  process W = inv {x <= 2} tau -> W\n\
                  system S || {c} R\n\
                  assert deadlock free\n";
    let (code, doc) = check_source("reset-reads-update", source, &[]);
    assert_eq!(code, Some(1), "a failed assert exits 1");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("fail"));
    assert_eq!(failing_indices(&doc), vec![0]);
}

/// The handshake every `Pmax` test below varies: `P` reaches `Done`
/// once `Q` takes its `go`.
const HANDSHAKE: &str = "channel go\n\
                         process P = go! -> Done\n\
                         process Done = STOP\n\
                         process Q = go? -> STOP\n\
                         system P || {go} Q\n";

/// The statuses of a result document's asserts, in order.
fn statuses(doc: &Json) -> Vec<&str> {
    doc.get("asserts")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|a| a.get("status").and_then(Json::as_str).expect("status"))
        .collect()
}

/// Checks `Pmax[<> goal] >= 0.5` and the zone engine's `E<> goal` on
/// `source`: mcpta reads the same network lowering as the zone engine,
/// so both pass.
fn pmax_agrees_with_zone(tag: &str, source: &str, goal: &str) {
    let source = format!("{source}assert Pmax[<> {goal}] >= 0.5\nassert E<> {goal}\n");
    let (code, doc) = check_source(tag, &source, &[]);
    assert_eq!(statuses(&doc), vec!["pass", "pass"], "{source}");
    assert_eq!(code, Some(0), "{source}");
}

/// A broadcast channel is planned for mcpta (it was a `TL103`).
#[test]
fn pmax_on_a_broadcast_channel() {
    let source = HANDSHAKE.replace("channel go", "broadcast channel go");
    pmax_agrees_with_zone("pmax-broadcast", &source, "P.Done");
}

/// An urgent channel is planned for mcpta (it was a `TL103`).
#[test]
fn pmax_on_an_urgent_channel() {
    let source = HANDSHAKE.replace("channel go", "urgent channel go");
    pmax_agrees_with_zone("pmax-urgent", &source, "P.Done");
}

/// A channel with two receivers is planned for mcpta (it was a `TL103`,
/// "used by 3").
#[test]
fn pmax_on_a_channel_with_two_receivers() {
    let source = HANDSHAKE.replace(
        "system P || {go} Q",
        "process R = go? -> STOP\nsystem P || {go} Q || {go} R",
    );
    pmax_agrees_with_zone("pmax-two-receivers", &source, "P.Done");
}

/// An internal choice (a committed state) is planned for mcpta (it was
/// a `TL103`): the scheduler picks `Left`.
#[test]
fn pmax_through_an_internal_choice() {
    let source = HANDSHAKE.replace(
        "process P = go! -> Done",
        "process P = (tau -> Left |~| tau -> Right)\n\
         process Left = go! -> Done\n\
         process Right = STOP",
    );
    pmax_agrees_with_zone("pmax-internal-choice", &source, "P.Done");
}

/// A clock reset to a variable is planned for mcpta (it was a `TL103`).
#[test]
fn pmax_after_a_non_constant_reset() {
    let source = HANDSHAKE.replace(
        "process P = go! -> Done",
        "clock x\n\
         var v: 0..3 = 1\n\
         process P = inv {x <= 3} tau {x := v} -> W\n\
         process W = when {x >= 1} go! -> Done",
    );
    pmax_agrees_with_zone("pmax-variable-reset", &source, "P.Done");
}

/// A goal that reads a clock is planned for mcpta (it was a `TL103`).
#[test]
fn pmax_of_a_goal_that_reads_a_clock() {
    let source = HANDSHAKE.replace(
        "process P = go! -> Done",
        "clock x\nprocess P = inv {x <= 3} when {x >= 2} go! -> Done",
    );
    pmax_agrees_with_zone("pmax-clock-goal", &source, "P.Done && x >= 2");
}

/// A strict guard is refused at admission with a `DIGITAL` lint error
/// (exit 3); it was a worker panic (exit 8). The zone engine, which
/// handles strict bounds, still answers `E<>`.
#[test]
fn pmax_on_a_strict_guard_is_a_lint_error() {
    let source = HANDSHAKE.replace(
        "process P = go! -> Done",
        "clock x\nprocess P = when {x < 2} go! -> Done",
    );
    let source = format!("{source}assert Pmax[<> P.Done] >= 0.5\nassert E<> P.Done\n");
    let (code, doc) = check_source("pmax-strict-guard", &source, &[]);
    assert_eq!(code, Some(3), "a lint refusal exits 3");
    assert_eq!(statuses(&doc), vec!["lint-error", "pass"]);
    let message = doc.get("asserts").and_then(Json::as_arr).expect("asserts")[0]
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(message.contains("DIGITAL"), "{message}");
}

/// A goal that is open in the clocks is refused at admission with a
/// `DIGITAL` lint error (exit 3), for `Pmax` and `Pmin`. Integer time
/// never enters `1 < x < 2`, so mcpta would compute 0 where the dense
/// maximum is 1: `Done` absorbs, and time passes through the interval.
/// The zone engine answers `E<>` on the same goal. A strict bound under a
/// negation is closed, and passes.
#[test]
fn pmax_of_an_open_clock_goal_is_a_lint_error() {
    let source = format!("clock x\n{HANDSHAKE}");
    for (tag, goal) in [
        ("pmax-open-goal", "P.Done && x > 1 && x < 2"),
        ("pmax-negated-goal", "P.Done && !(x <= 1) && !(x >= 2)"),
    ] {
        let source = format!(
            "{source}assert Pmax[<> {goal}] <= 0.5\n\
             assert Pmin[<> {goal}] <= 0.5\n\
             assert E<> {goal}\n"
        );
        let (code, doc) = check_source(tag, &source, &[]);
        assert_eq!(code, Some(3), "a lint refusal exits 3: {source}");
        assert_eq!(statuses(&doc), vec!["lint-error", "lint-error", "pass"]);
        let message = doc.get("asserts").and_then(Json::as_arr).expect("asserts")[0]
            .get("message")
            .and_then(Json::as_str)
            .expect("message");
        assert!(message.contains("DIGITAL"), "{message}");
    }
    pmax_agrees_with_zone("pmax-closed-negation", &source, "P.Done && !(x < 2)");
}

/// `--help` and `--version` succeed and print something sensible.
#[test]
fn help_and_version() {
    let help = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .arg("--help")
        .output()
        .expect("spawn tempo binary");
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8(help.stdout).expect("utf8 help");
    assert!(
        text.contains("tempo check"),
        "usage mentions the check subcommand"
    );
    assert!(text.contains("--json"), "usage documents --json");

    let version = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .arg("--version")
        .output()
        .expect("spawn tempo binary");
    assert_eq!(version.status.code(), Some(0));
    let text = String::from_utf8(version.stdout).expect("utf8 version");
    assert!(
        text.starts_with("tempo "),
        "version line starts with the tool name"
    );
}

/// Inside one service, resubmitting a corpus query hits the warm
/// verdict cache — and the cached verdict renders identically to the
/// computed one.
#[test]
fn warm_svc_cache_hit_renders_identically() {
    use std::sync::Arc;

    let file = corpus_dir().join("P100_handshake.tempo");
    let source = std::fs::read_to_string(&file).expect("readable corpus file");
    let model = tempo_lang::parse(&source).expect("corpus model parses");
    let set = tempo_lang::build(&model).expect("corpus model elaborates");
    let net = Arc::new(tempo_lang::to_network(&set).expect("network substrate"));

    let svc = tempo_svc::AnalysisService::new(tempo_svc::ServiceConfig::default());
    let submit = || {
        svc.submit(tempo_svc::JobRequest {
            tenant: "corpus".to_owned(),
            priority: 0,
            budget: tempo_obs::Budget::unlimited(),
            kind: tempo_svc::JobKind::DeadlockFree {
                net: Arc::clone(&net),
                explore: tempo_ta::ExploreConfig::default(),
            },
        })
        .expect("admitted")
        .wait()
        .expect("job succeeds")
    };
    let cold = submit();
    let warm = submit();
    assert_eq!(
        warm.source,
        tempo_svc::VerdictSource::MemoryHit,
        "second run is a cache hit"
    );
    assert_eq!(
        cold.verdict.render(),
        warm.verdict.render(),
        "cached verdict renders bit-exactly"
    );
    svc.shutdown();
}

/// Re-checking the same file in one process yields the same document:
/// the second invocation is served from the warm svc verdict cache but
/// must render identically.
#[test]
fn warm_cache_rerun_is_byte_identical() {
    let file = corpus_dir().join("P200_train_gate.tempo");
    let cold = run_tempo(&file, None, 2);
    let warm = run_tempo(&file, None, 2);
    assert_eq!(cold.code, warm.code);
    assert_eq!(
        normalize(&cold.doc).render(),
        normalize(&warm.doc).render(),
        "re-run emits a byte-identical document"
    );
}
