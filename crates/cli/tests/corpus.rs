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
    for varies in ["wall_time", "certify_time", "spill_faults"] {
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

/// A leads-to over a clock constraint is outside the engine's subset:
/// it is refused with a `TL103` parse error (exit 2) instead of reaching
/// the engine. The model is written to a temp dir, not `corpus/`.
#[test]
fn clock_constrained_leads_to_exits_2_with_tl103() {
    let source = std::fs::read_to_string(corpus_dir().join("P200_train_gate.tempo"))
        .expect("readable corpus file");
    let last = "assert Train.Near --> Train.Crossing";
    assert!(source.contains(last), "P200 ends with its leads-to assert");
    let file = std::env::temp_dir().join(format!(
        "tempo-corpus-{}-clock-leads-to.tempo",
        std::process::id()
    ));
    std::fs::write(
        &file,
        source.replace(last, "assert x >= 1 --> Train.Crossing"),
    )
    .expect("writable temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .args([
            "check",
            file.to_str().unwrap(),
            "--assert",
            "3",
            "--json",
            "-",
        ])
        .stdout(std::process::Stdio::piped())
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
    assert_eq!(
        out.status.code(),
        Some(2),
        "a subset violation is a parse error"
    );
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    let doc = Json::parse(&text[text.find('{').expect("result document")..])
        .expect("valid result document");
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
    let file = std::env::temp_dir().join(format!(
        "tempo-corpus-{}-engine-panic.tempo",
        std::process::id()
    ));
    std::fs::write(
        &file,
        "clock x\nprocess P = inv {x < 0} STOP\nsystem P\nassert deadlock free\n",
    )
    .expect("writable temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tempo"))
        .args(["check", file.to_str().unwrap(), "--json", "-"])
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
    assert_eq!(
        out.status.code(),
        Some(8),
        "an engine panic is an engine error"
    );
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    let doc = Json::parse(&text[text.find('{').expect("result document")..])
        .expect("valid result document");
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("engine-error")
    );
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
