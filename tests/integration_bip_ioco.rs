//! Integration test: the §IV DALA experiment (BIP deadlock analysis,
//! controller synthesis, fault injection) and the §V testing experiment
//! (ioco campaign over the dispenser models, rtioco over the timed
//! controller).

use tempo_core::bip::{
    check_deadlock_freedom_governed, fault_injection_campaign, synthesize_safety_controller,
    DfinderVerdict,
};
use tempo_core::ioco::{check_ioco, LtsIut, TestGenerator, TimedTester};
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_models::dala::dala;
use tempo_models::vending::{
    controller_spec, dispenser_good, dispenser_mutant_output, dispenser_mutant_refund,
    dispenser_mutant_silent, dispenser_spec, FixedDelayController,
};

#[test]
fn e5_dala_full_chain() {
    let d = dala();
    // Deadlock-freedom: explicit and compositional agree.
    assert!(d
        .sys
        .find_deadlock_with(
            ExploreConfig::default(),
            &Budget::unlimited().with_max_states(500_000)
        )
        .into_value()
        .is_none());
    assert!(matches!(
        check_deadlock_freedom_governed(
            &d.sys,
            &Budget::unlimited().with_max_iterations(1_000_000)
        )
        .into_value(),
        DfinderVerdict::DeadlockFree { .. }
    ));
    // Synthesis and fault injection.
    let synthesis = synthesize_safety_controller(&d.sys, d.bad(), 500_000);
    assert!(synthesis.initial_safe);
    let uncontrolled = fault_injection_campaign(&d.sys, None, d.bad(), 60, 300, 3);
    let controlled =
        fault_injection_campaign(&d.sys, Some(&synthesis.controller), d.bad(), 60, 300, 3);
    assert!(
        uncontrolled.unsafe_runs > 0,
        "faults do reach unsafe states unguarded"
    );
    assert_eq!(
        controlled.unsafe_runs, 0,
        "the controller blocks every unsafe run"
    );
    assert!(
        controlled.total_steps > 1000,
        "the controlled system is not frozen"
    );
}

#[test]
fn e6_ioco_relation_and_campaigns_agree() {
    let spec = dispenser_spec();
    let cases: Vec<(tempo_core::ioco::Lts, bool)> = vec![
        (dispenser_good(), true),
        (dispenser_mutant_output(), false),
        (dispenser_mutant_silent(), false),
        (dispenser_mutant_refund(), false),
    ];
    for (imp, should_conform) in cases {
        let analytic = check_ioco(&imp, &spec).is_ok();
        assert_eq!(analytic, should_conform);
        // Testing is sound: conforming implementations never fail.
        // It is exhaustive in the limit: mutants fail within the budget.
        let mut gen = TestGenerator::new(&spec, 31);
        let mut iut = LtsIut::new(imp, 37);
        let (failures, _) = gen.campaign(&mut iut, 300, 25);
        if should_conform {
            assert_eq!(failures, 0, "sound testing");
        } else {
            assert!(failures > 0, "exhaustive-in-the-limit testing");
        }
    }
}

#[test]
fn e6_rtioco_deadline_boundary() {
    let spec = controller_spec(3);
    for (delay, should_pass) in [(0, true), (1, true), (3, true), (4, false), (7, false)] {
        let mut tester = TimedTester::new(&spec, &["req"], &["resp"], 41);
        let mut iut = FixedDelayController::new(delay);
        let (failures, _) = tester.campaign(&mut iut, 40, 50);
        assert_eq!(
            failures == 0,
            should_pass,
            "delay {delay}: {failures}/40 failures"
        );
    }
}

#[test]
fn verified_spec_then_tested_implementation() {
    // The paper's workflow: verify the model, then test implementations
    // against it. The timed spec is verified deadlock-free with the
    // UPPAAL substrate, then used as the rtioco test oracle.
    let spec = controller_spec(3);
    let mut mc = tempo_core::ta::ModelChecker::new(&spec);
    let (dl, _) = mc.deadlock_free();
    assert!(dl.holds(), "the spec itself is deadlock-free");
    let mut tester = TimedTester::new(&spec, &["req"], &["resp"], 13);
    let (failures, _) = tester.campaign(&mut FixedDelayController::new(2), 30, 50);
    assert_eq!(failures, 0);
}
