//! Integration tests of the out-of-core state store: a spilled
//! exploration must be *indistinguishable* from the all-in-RAM run —
//! same verdict, same witness trace, byte-identical `Stats` — while the
//! `RunReport` proves real work went to disk. Corruption (torn tails,
//! bit flips, unusable scratch paths) must surface as typed
//! [`SpillError`]s, never as a wrong verdict.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tempo_core::obs::{Budget, ExploreConfig, RunReport, SpillConfig, StateStore};
use tempo_core::ta::{Explorer, ModelChecker, SpillError, StateFormula, SymState, Trace};
use tempo_core::witness::certify::{certified_reachable_with, Certificate};
use tempo_core::witness::format;
use tempo_models::{train_gate, wcet_program};

/// A fresh scratch directory under the system temp dir.
fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tempo-outofcore-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Step-by-step trace equality (`Trace` deliberately has no `PartialEq`;
/// the comparison spelled out keeps failures readable).
fn assert_same_trace(a: &Option<Trace>, b: &Option<Trace>) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.steps.len(), b.steps.len(), "trace lengths differ");
            for (i, (x, y)) in a.steps.iter().zip(&b.steps).enumerate() {
                assert_eq!(x.action, y.action, "step {i}: actions differ");
                assert_eq!(x.state, y.state, "step {i}: states differ");
            }
        }
        _ => panic!("one run produced a trace, the other did not"),
    }
}

/// A report's worker-count-independent part: everything but the wall
/// time and the spill faults (a parallel round may fault states that a
/// hit then never reaches).
fn counters(report: &RunReport) -> RunReport {
    RunReport {
        wall_time: std::time::Duration::ZERO,
        spill_faults: 0,
        ..report.clone()
    }
}

/// Acceptance criterion: with a resident budget far below the state
/// count, the sequential engine completes the train-gate with verdict,
/// witness trace and `Stats` byte-identical to the all-in-RAM run, and
/// the `RunReport` shows states actually spilled and faulted.
#[test]
fn sequential_spill_matches_resident_run_exactly() {
    let dir = unique_dir("seq");
    for n in [3, 5] {
        let tg = train_gate(n);
        let goal = StateFormula::and(vec![
            StateFormula::at(tg.trains[0], tg.train_locs.stop),
            StateFormula::at(tg.trains[1], tg.train_locs.cross),
        ]);

        let ram = ModelChecker::new(&tg.net)
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("resident store cannot fail");
        let spill_cfg = ExploreConfig::default().with_spill(&dir, 16);
        let spilled = ModelChecker::new(&tg.net)
            .with_config(spill_cfg)
            .try_reachable_governed(&goal, &Budget::unlimited())
            .expect("spill run completes");

        assert_eq!(
            spilled.value().reachable,
            ram.value().reachable,
            "N={n}: verdict must not depend on where states live"
        );
        assert_eq!(
            spilled.value().stats,
            ram.value().stats,
            "N={n}: Stats must be byte-identical"
        );
        assert_same_trace(&spilled.value().trace, &ram.value().trace);

        let (rr, sr) = (ram.report(), spilled.report());
        assert_eq!(rr.spilled_states, 0, "resident run spills nothing");
        assert!(
            sr.spilled_states > 0,
            "N={n}: the tiny budget must force spilling"
        );
        assert!(sr.spill_bytes > 0, "spilled states occupy log bytes");
        assert!(
            sr.spill_faults > 0,
            "N={n}: inclusion checks and the trace rebuild must fault"
        );
        assert_eq!(sr.states_explored, rr.states_explored);
        assert_eq!(sr.states_stored, rr.states_stored);
    }

    // Safety (full fixpoint, no early exit) under spilling, same story.
    let tg = train_gate(4);
    let ram = ModelChecker::new(&tg.net)
        .try_always_governed(&tg.safety(), &Budget::unlimited())
        .expect("resident store cannot fail");
    let spilled = ModelChecker::new(&tg.net)
        .with_config(ExploreConfig::default().with_spill(&dir, 8))
        .try_always_governed(&tg.safety(), &Budget::unlimited())
        .expect("spill run completes");
    assert_eq!(spilled.value().0.holds(), ram.value().0.holds());
    assert_eq!(spilled.value().1, ram.value().1, "Stats must match");
    assert!(spilled.report().spilled_states > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The certificate pipeline on top of a spilled run: the witness trace
/// faults its states back from disk, realizes to a concrete run, and
/// the certificate replays — byte-identical to the resident run's.
#[test]
fn spilled_run_produces_a_replayable_certificate() {
    let dir = unique_dir("cert");
    let tg = train_gate(3);
    let goal = tg.cross(0);
    let budget = Budget::unlimited();

    let (ram_out, ram_cert) =
        certified_reachable_with(&tg.net, &goal, ExploreConfig::default(), &budget)
            .expect("resident certified run");
    let spill_cfg = ExploreConfig::default().with_spill(&dir, 4);
    let (out, cert) = certified_reachable_with(&tg.net, &goal, spill_cfg, &budget)
        .expect("spilled certified run: realization and replay validate");

    assert!(out.value().reachable);
    assert_eq!(out.value().reachable, ram_out.value().reachable);
    assert!(out.report().spilled_states > 0, "budget 4 must spill");
    let (cert, ram_cert) = (cert.expect("witness"), ram_cert.expect("witness"));
    cert.validate(&tg.net, &goal)
        .expect("spilled-run certificate replays independently");
    assert_eq!(
        format::render(&Certificate::Trace(cert)),
        format::render(&Certificate::Trace(ram_cert)),
        "the certificate must not depend on where states lived"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch path that cannot be used (a regular file where the spill
/// directory should go) fails loudly with a typed I/O error from the
/// `try_` entry point — never a panic, never a silent resident fallback.
#[test]
fn unusable_spill_path_is_a_typed_error() {
    let dir = unique_dir("badpath");
    let file = dir.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();
    let tg = train_gate(2);
    let err = ModelChecker::new(&tg.net)
        .with_config(ExploreConfig::default().with_spill(&file, 0))
        .try_reachable_governed(&tg.cross(0), &Budget::unlimited())
        .expect_err("a file blocking the spill dir must fail");
    assert!(
        matches!(err, SpillError::Io { .. }),
        "expected SpillError::Io, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion: truncating the state log mid-record makes the
/// next fault fail with [`SpillError::Torn`]; flipping a payload bit
/// fails with [`SpillError::Corrupt`]. Exercised on real engine states
/// ([`SymState`] through its production codec), not a toy type.
#[test]
fn torn_and_corrupt_records_fail_loudly_on_engine_states() {
    let dir = unique_dir("torn");
    let tg = train_gate(2);
    let explorer = Explorer::new(&tg.net);
    let init = explorer.initial_state();
    let succ: Vec<SymState> = explorer
        .successors(&init)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    assert!(!succ.is_empty());

    // Budget 0: every inserted state goes straight to disk.
    let cfg = SpillConfig {
        path: dir.clone(),
        resident_budget: 0,
    };
    let mut store: StateStore<SymState, usize> = StateStore::create(Some(&cfg)).unwrap();
    let first = store.insert(init.clone(), 0).unwrap();
    for (i, s) in succ.iter().enumerate() {
        store.insert(s.clone(), i + 1).unwrap();
    }
    let last = store.insert(succ[0].clone(), 99).unwrap();
    assert_eq!(store.load(first).unwrap(), init, "round trip before harm");

    // Tear the tail off the last record: its fault must report Torn
    // with the offsets, while earlier intact records still load.
    let log = store.log_path().unwrap().to_path_buf();
    let len = std::fs::metadata(&log).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    match store.load(last) {
        Err(SpillError::Torn { .. }) => {}
        other => panic!("expected Torn, got {other:?}"),
    }
    assert_eq!(store.load(first).unwrap(), init, "prefix stays readable");

    // Flip one payload bit of the *first* record: checksum or content
    // fingerprint must catch it as Corrupt (or Torn if the flip lands
    // in a length prefix) — never return an altered state.
    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let mut hit_error = false;
    for id in [first, last] {
        match store.load(id) {
            Ok(state) => assert!(
                state == init || succ.contains(&state),
                "a load that succeeds must return the original state"
            ),
            Err(SpillError::Corrupt { .. } | SpillError::Torn { .. }) => hit_error = true,
            Err(e) => panic!("unexpected error class: {e:?}"),
        }
    }
    assert!(hit_error, "the flipped bit must be detected somewhere");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Verdict identity across worker counts and resident budgets: for
    /// any thread count 1–4 and any tiny budget, spilled and resident
    /// runs agree on reachability of both satisfiable and unsatisfiable
    /// goals on the train-gate, and on WCET termination bounds. The
    /// spilled run's `Stats`, trace and `RunReport` counters (spilled
    /// states and bytes included) equal the 1-worker spilled run's.
    #[test]
    fn spill_verdicts_match_resident_at_any_worker_count(
        threads in 1_usize..=4,
        budget in 0_usize..48,
        n in 2_usize..=3,
    ) {
        let dir = unique_dir("prop");
        let tg = train_gate(n);
        let goals = [tg.cross(0), StateFormula::not(tg.safety())];
        for goal in &goals {
            let ram = ModelChecker::new(&tg.net)
                .with_threads(threads)
                .try_reachable_governed(goal, &Budget::unlimited())
                .expect("resident run");
            let spill = ModelChecker::new(&tg.net)
                .with_threads(threads)
                .with_config(ExploreConfig::default().with_spill(&dir, budget))
                .try_reachable_governed(goal, &Budget::unlimited())
                .expect("spill run");
            prop_assert_eq!(
                spill.value().reachable,
                ram.value().reachable,
                "train_gate({}) threads={} budget={}", n, threads, budget
            );
            let one = ModelChecker::new(&tg.net)
                .with_config(ExploreConfig::default().with_spill(&dir, budget))
                .try_reachable_governed(goal, &Budget::unlimited())
                .expect("1-worker spill run");
            prop_assert_eq!(spill.value().stats, one.value().stats);
            assert_same_trace(&spill.value().trace, &one.value().trace);
            prop_assert_eq!(counters(spill.report()), counters(one.report()));
        }

        let prog = wcet_program(3);
        let ram = ModelChecker::new(&prog.net)
            .with_threads(threads)
            .try_reachable_governed(&prog.terminated(), &Budget::unlimited())
            .expect("resident run");
        let spill = ModelChecker::new(&prog.net)
            .with_threads(threads)
            .with_config(ExploreConfig::default().with_spill(&dir, budget))
            .try_reachable_governed(&prog.terminated(), &Budget::unlimited())
            .expect("spill run");
        prop_assert_eq!(spill.value().reachable, ram.value().reachable);
        let one = ModelChecker::new(&prog.net)
            .with_config(ExploreConfig::default().with_spill(&dir, budget))
            .try_reachable_governed(&prog.terminated(), &Budget::unlimited())
            .expect("1-worker spill run");
        prop_assert_eq!(spill.value().stats, one.value().stats);
        assert_same_trace(&spill.value().trace, &one.value().trace);
        prop_assert_eq!(counters(spill.report()), counters(one.report()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
