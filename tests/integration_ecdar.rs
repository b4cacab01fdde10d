//! Integration test: the ECDAR specification theory against the rest of
//! the toolkit — most importantly the *cross-theory consistency* between
//! refinement (ECDAR, §II) and timed conformance testing (rtioco, §V):
//! an implementation whose response delay is `d` refines the deadline-3
//! contract exactly when online rtioco testing passes it.

use tempo_core::ecdar::{
    conjunction, find_inconsistency_governed, parallel, refines_governed, Tioa, TioaAtom,
    TioaBuilder,
};
use tempo_core::ioco::TimedTester;
use tempo_core::obs::Budget;
use tempo_models::vending::{controller_spec, FixedDelayController};

/// TIOA model of the deadline-`d` request/response contract.
fn contract(deadline: i64) -> Tioa {
    let mut b = TioaBuilder::new("Contract");
    let t = b.clock("t");
    let idle = b.location("Idle");
    let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(t, deadline)]);
    b.input(idle, busy, "req").reset(t).done();
    b.output(busy, idle, "resp").done();
    b.build()
}

/// TIOA model of an implementation that responds after exactly `d`.
fn fixed_delay(d: i64) -> Tioa {
    let mut b = TioaBuilder::new("Fixed");
    let t = b.clock("t");
    let idle = b.location("Idle");
    let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(t, d)]);
    b.input(idle, busy, "req").reset(t).done();
    b.output(busy, idle, "resp")
        .guard(TioaAtom::ge(t, d))
        .done();
    b.build()
}

#[test]
fn refinement_and_rtioco_agree_on_the_deadline() {
    let spec_tioa = contract(3);
    let spec_net = controller_spec(3);
    for delay in 0..=6 {
        let should_conform = delay <= 3;
        // ECDAR view: alternating timed simulation.
        let refine_ok = refines_governed(&fixed_delay(delay), &spec_tioa, &Budget::unlimited())
            .into_value()
            .is_ok();
        assert_eq!(
            refine_ok, should_conform,
            "refinement verdict for delay {delay}"
        );
        // rtioco view: online testing in simulated time.
        let mut tester = TimedTester::new(&spec_net, &["req"], &["resp"], 11);
        let mut iut = FixedDelayController::new(delay);
        let (failures, _) = tester.campaign(&mut iut, 25, 40);
        assert_eq!(
            failures == 0,
            should_conform,
            "rtioco verdict for delay {delay}: {failures}/25 failures"
        );
    }
}

#[test]
fn refinement_is_a_preorder_on_the_ladder() {
    // Tighter deadlines refine looser ones: D2 ≤ D4 ≤ D8.
    let d2 = contract(2);
    let d4 = contract(4);
    let d8 = contract(8);
    assert!(refines_governed(&d2, &d4, &Budget::unlimited())
        .into_value()
        .is_ok());
    assert!(refines_governed(&d4, &d8, &Budget::unlimited())
        .into_value()
        .is_ok());
    assert!(
        refines_governed(&d2, &d8, &Budget::unlimited())
            .into_value()
            .is_ok(),
        "transitivity on the ladder"
    );
    assert!(refines_governed(&d8, &d4, &Budget::unlimited())
        .into_value()
        .is_err());
    // Reflexivity.
    for c in [&d2, &d4, &d8] {
        assert!(refines_governed(c, c, &Budget::unlimited())
            .into_value()
            .is_ok());
    }
}

#[test]
fn conjunction_is_the_tightest_common_contract() {
    let early = {
        // resp no earlier than 2.
        let mut b = TioaBuilder::new("NotBefore2");
        let t = b.clock("t");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(t, 9)]);
        b.input(idle, busy, "req").reset(t).done();
        b.output(busy, idle, "resp")
            .guard(TioaAtom::ge(t, 2))
            .done();
        b.build()
    };
    let late = contract(5); // resp no later than 5.
    let band = conjunction(&early, &late).expect("same interface");
    assert!(refines_governed(&band, &early, &Budget::unlimited())
        .into_value()
        .is_ok());
    assert!(refines_governed(&band, &late, &Budget::unlimited())
        .into_value()
        .is_ok());
    // An implementation inside the band refines the conjunction …
    assert!(
        refines_governed(&fixed_delay(3), &band, &Budget::unlimited())
            .into_value()
            .is_ok()
    );
    // … and ones outside it do not.
    assert!(
        refines_governed(&fixed_delay(1), &band, &Budget::unlimited())
            .into_value()
            .is_err()
    );
    assert!(
        refines_governed(&fixed_delay(6), &band, &Budget::unlimited())
            .into_value()
            .is_err()
    );
}

#[test]
fn composition_preserves_consistency_and_contracts() {
    let responder = fixed_delay(2);
    let logger = {
        let mut b = TioaBuilder::new("Logger");
        let y = b.clock("y");
        let w = b.location("Wait");
        // The logger commits to logging within 2 time units; without this
        // deadline the composite could delay `log` forever and would
        // (correctly) fail to refine the end-to-end contract below.
        let n = b.location_with_invariant("Note", vec![TioaAtom::le(y, 2)]);
        b.input(w, n, "resp").reset(y).done();
        b.output(n, w, "log").done();
        b.build()
    };
    let sys = parallel(&responder, &logger).expect("compatible");
    assert!(find_inconsistency_governed(&sys, &Budget::unlimited())
        .into_value()
        .is_none());
    // End-to-end contract over the composite alphabet: after req, a log
    // eventually (within 12).
    let e2e = {
        let mut b = TioaBuilder::new("E2E");
        let t = b.clock("t");
        let idle = b.location("Idle");
        let pending = b.location_with_invariant("Pending", vec![TioaAtom::le(t, 12)]);
        b.input(idle, pending, "req").reset(t).done();
        b.output(pending, pending, "resp").done();
        b.output(pending, idle, "log").done();
        b.build()
    };
    assert!(refines_governed(&sys, &e2e, &Budget::unlimited())
        .into_value()
        .is_ok());
}
