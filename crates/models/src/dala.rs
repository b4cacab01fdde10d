//! A simplified BIP model of the DALA rover's functional and execution
//! control level (Bozga et al., DATE 2012, §IV and Fig. 6).
//!
//! The real DALA runs GenoM modules (NDD navigation, RFLEX wheel
//! controller, POM position manager, laser scanner, antenna, …) under a
//! BIP execution controller. This reproduction keeps the architecture —
//! one atomic component per module, rendezvous/broadcast connectors,
//! priorities — and the two documented safety rules:
//!
//! 1. the rover must not move while the antenna is communicating;
//! 2. the rover must not *start* moving on stale laser data.
//!
//! Faults are modelled as uncontrollable interactions (spontaneous
//! communication requests, laser data expiry), so the synthesized
//! execution controller must keep the system safe *despite* them — the
//! paper's fault-injection experiment.

use tempo_bip::{BipState, BipSystem, BipSystemBuilder, InteractionId};
use tempo_expr::{Expr, Stmt, VarId};

/// Handles to the DALA model.
#[derive(Debug)]
pub struct Dala {
    /// The composed BIP system.
    pub sys: BipSystem,
    /// Danger flag: raised when a safety rule is violated.
    pub danger: VarId,
    /// The interaction that starts motion.
    pub start_move: InteractionId,
    /// The uncontrollable communication request.
    pub comm_request: InteractionId,
    /// The uncontrollable laser-data expiry.
    pub laser_expire: InteractionId,
}

/// Builds the simplified DALA functional level.
#[must_use]
pub fn dala() -> Dala {
    let mut b = BipSystemBuilder::new();
    let danger = b.decls_mut().int("danger", 0, 1);
    let stale = b.decls_mut().int("stale", 0, 1);
    let comm = b.decls_mut().int("comm", 0, 1);
    let moving = b.decls_mut().int("moving", 0, 1);

    // RFLEX: the wheel controller.
    let mut rflex = b.component("RFLEX");
    let r_idle = rflex.state("Idle");
    let r_moving = rflex.state("Moving");
    let p_start = rflex.port("start");
    let p_stop = rflex.port("stop");
    rflex.transition(r_idle, r_moving, p_start);
    rflex.transition(r_moving, r_idle, p_stop);
    rflex.done();

    // NDD: navigation — produces speed references; must trigger RFLEX.
    let mut ndd = b.component("NDD");
    let n_idle = ndd.state("Idle");
    let n_track = ndd.state("Tracking");
    let p_plan = ndd.port("plan");
    let p_done = ndd.port("done");
    ndd.transition(n_idle, n_track, p_plan);
    ndd.transition(n_track, n_idle, p_done);
    ndd.done();

    // Laser scanner: data freshness.
    let mut laser = b.component("Laser");
    let l_fresh = laser.state("Fresh");
    let l_stale = laser.state("Stale");
    let p_expire = laser.port("expire");
    let p_scan = laser.port("scan");
    laser.transition(l_fresh, l_stale, p_expire);
    laser.transition(l_stale, l_fresh, p_scan);
    laser.done();

    // Antenna: communication windows requested by the orbiter
    // (uncontrollable), granted by the controller.
    let mut antenna = b.component("Antenna");
    let a_idle = antenna.state("Idle");
    let a_pending = antenna.state("Pending");
    let a_comm = antenna.state("Comm");
    let p_request = antenna.port("request");
    let p_grant = antenna.port("grant");
    let p_end = antenna.port("end");
    antenna.transition(a_idle, a_pending, p_request);
    antenna.transition(a_pending, a_comm, p_grant);
    antenna.transition(a_comm, a_idle, p_end);
    antenna.done();

    // POM: position manager, updated on every motion start/stop
    // (broadcast synchron).
    let mut pom = b.component("POM");
    let pom_s = pom.state("Track");
    let p_update = pom.port("update");
    pom.transition(pom_s, pom_s, p_update);
    pom.done();

    // Interactions.
    // Starting a move: NDD plans and RFLEX starts together; POM listens
    // (broadcast). Raises danger if the laser data is stale or a
    // communication is ongoing.
    let start_move = b.broadcast("start_move", &[p_start, p_update]);
    b.set_update(
        start_move,
        Stmt::seq(vec![
            Stmt::assign(moving, Expr::konst(1)),
            Stmt::if_then(
                Expr::var(stale).eq(Expr::konst(1)) | Expr::var(comm).eq(Expr::konst(1)),
                Stmt::assign(danger, Expr::konst(1)),
            ),
        ]),
    );
    let plan = b.rendezvous("plan", &[p_plan]);
    let _ = plan;
    let stop_move = b.broadcast("stop_move", &[p_stop, p_update]);
    b.set_update(stop_move, Stmt::assign(moving, Expr::konst(0)));
    let nav_done = b.rendezvous("nav_done", &[p_done]);
    let _ = nav_done;

    // Laser: expiry is a fault; scanning refreshes.
    let laser_expire = b.rendezvous("laser_expire", &[p_expire]);
    b.set_update(laser_expire, Stmt::assign(stale, Expr::konst(1)));
    b.set_uncontrollable(laser_expire);
    let scan = b.rendezvous("scan", &[p_scan]);
    b.set_update(scan, Stmt::assign(stale, Expr::konst(0)));

    // Antenna: requests arrive uncontrollably; granting is controllable;
    // a grant while moving raises danger.
    let comm_request = b.rendezvous("comm_request", &[p_request]);
    b.set_uncontrollable(comm_request);
    let grant = b.rendezvous("grant", &[p_grant]);
    // Granting a communication window while the rover is moving violates
    // safety rule 1.
    b.set_update(
        grant,
        Stmt::seq(vec![
            Stmt::assign(comm, Expr::konst(1)),
            Stmt::if_then(
                Expr::var(moving).eq(Expr::konst(1)),
                Stmt::assign(danger, Expr::konst(1)),
            ),
        ]),
    );
    let end_comm = b.rendezvous("end_comm", &[p_end]);
    b.set_update(end_comm, Stmt::assign(comm, Expr::konst(0)));

    // Priority: pending communication outranks starting a new move
    // (steering the engine, §IV: priorities "steer system evolution so as
    // to meet performance requirements e.g. scheduling policies").
    b.priority(start_move, grant);

    Dala {
        sys: b.build(),
        danger,
        start_move,
        comm_request,
        laser_expire,
    }
}

impl Dala {
    /// The unsafe-state predicate for synthesis and fault injection.
    pub fn bad(&self) -> impl Fn(&BipState) -> bool + '_ {
        let danger = self.danger;
        move |s: &BipState| s.store.get(danger) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_bip::{
        check_deadlock_freedom_governed, fault_injection_campaign, synthesize_safety_controller,
        DfinderVerdict,
    };
    use tempo_obs::{Budget, ExploreConfig};

    #[test]
    fn dala_is_deadlock_free() {
        let d = dala();
        // Explicit check.
        assert!(d
            .sys
            .find_deadlock_with(
                ExploreConfig::default(),
                &Budget::unlimited().with_max_states(100_000)
            )
            .into_value()
            .is_none());
        // Compositional check at least terminates and never *wrongly*
        // certifies: if it proves freedom, the explicit check must agree.
        match check_deadlock_freedom_governed(
            &d.sys,
            &Budget::unlimited().with_max_iterations(1_000_000),
        )
        .into_value()
        {
            DfinderVerdict::DeadlockFree { .. } => {}
            DfinderVerdict::Unknown { suspects } => {
                // The data-guarded grant interaction may leave suspects;
                // they must all be unreachable.
                let reachable = d
                    .sys
                    .reachable_states_governed(&Budget::unlimited().with_max_states(100_000))
                    .into_value();
                for s in suspects {
                    assert!(
                        !reachable
                            .iter()
                            .any(|r| r.control == s && d.sys.enabled_interactions(r).is_empty()),
                        "suspect {s:?} is a real deadlock"
                    );
                }
            }
        }
    }

    #[test]
    fn controller_synthesis_succeeds() {
        let d = dala();
        let res = synthesize_safety_controller(&d.sys, d.bad(), 100_000);
        assert!(res.initial_safe, "DALA is controllable");
    }

    #[test]
    fn fault_injection_controller_blocks_danger() {
        let d = dala();
        let res = synthesize_safety_controller(&d.sys, d.bad(), 100_000);
        let without = fault_injection_campaign(&d.sys, None, d.bad(), 40, 200, 7);
        assert!(
            without.unsafe_runs > 0,
            "without the controller random execution reaches danger"
        );
        let with = fault_injection_campaign(&d.sys, Some(&res.controller), d.bad(), 40, 200, 7);
        assert_eq!(with.unsafe_runs, 0, "the controller keeps all runs safe");
        assert!(with.total_steps > 0, "the controlled system still runs");
    }
}
