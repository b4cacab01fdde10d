//! One joint-move rule for every timed-automata engine.
//!
//! The zone explorer, the digital-clocks explorer (CORA, TIGA) and the
//! simulator (SMC) all enumerate moves through `tempo_ta::moves` and
//! fire them through `tempo_ta::moves::jump`. Each model below exercises
//! one corner of that rule: the receivers of a broadcast in the deadlock
//! check, a committed receiver of an uncommitted sender, a second
//! receiving edge on one broadcast, a channel index past the end of its
//! array, urgent channels (also one whose move the jump refuses), a
//! reset that refuses its move, and a tie between urgent automata.
//! Every engine must give the same answer.

use tempo_core::cora::PricedNetwork;
use tempo_core::expr::{Expr, Stmt};
use tempo_core::lang::{build, parse, to_network};
use tempo_core::mdp::Opt;
use tempo_core::modest::Mcpta;
use tempo_core::obs::Budget;
use tempo_core::smc::{ConcreteState, RatePolicy, Run, RunStep, StatisticalChecker};
use tempo_core::ta::{
    ChannelKind, ClockAtom, LocationId, ModelChecker, Network, NetworkBuilder, StateFormula,
};
use tempo_core::tiga::GameSolver;
use tempo_core::witness::certify::certified_min_cost;
use tempo_core::witness::{replay_run, WitnessError};

/// Whether each engine reaches `goal`: the zone engine, CORA's minimum
/// cost (checked by its certificate), TIGA's reachability game, and the
/// SMC estimate of `Pr[<= 10](<> goal)` over `runs` runs at `seed`.
struct Verdicts {
    zone: bool,
    cost: Option<i64>,
    winning: bool,
    pr: f64,
}

fn verdicts(net: &Network, goal: &StateFormula, runs: usize, seed: u64) -> Verdicts {
    let zone = ModelChecker::new(net).reachable(goal).reachable;
    let pnet = PricedNetwork::new(net.clone());
    let (out, _) = certified_min_cost(&pnet, goal, &Budget::unlimited())
        .expect("a minimum cost, if any, carries a valid certificate");
    let cost = out.value().as_ref().map(|r| r.cost);
    let winning = GameSolver::new(net)
        .solve_reachability_governed(goal, &Budget::unlimited())
        .into_value()
        .winning;
    let pr = StatisticalChecker::new(net, RatePolicy::new(), seed)
        .probability_governed(goal, 10.0, runs, 0.95, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes")
        .mean;
    Verdicts {
        zone,
        cost,
        winning,
        pr,
    }
}

/// Corpus P102 with `leave` made a broadcast channel. The train must
/// take part in the gate's `leave!` whenever it is waiting for it, and
/// its target invariant `x <= D` refuses it once `x > D`: the network
/// deadlocks, which the deadlock check sees only if a broadcast's escape
/// zone includes its receivers' resets and target invariants.
#[test]
fn broadcast_receivers_constrain_the_deadlock_check() {
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/P102_timelock.tempo"),
    )
    .expect("readable corpus file");
    let line = "channel approach, leave";
    assert!(
        source.contains(line),
        "P102 declares both channels on one line"
    );
    let source = source.replace(line, "channel approach\nbroadcast channel leave");
    let set = build(&parse(&source).expect("parses")).expect("elaborates");
    let net = to_network(&set).expect("network substrate");
    let (verdict, _) = ModelChecker::new(&net).deadlock_free();
    assert!(!verdict.holds(), "the broadcast twin of P102 deadlocks");
}

/// `S: S0 -go!!-> S1` with an uncommitted sender and `R: RC -go?-> R1`
/// from a committed location; `R1` loops. The broadcast involves the
/// committed automaton, so it may fire.
fn committed_receiver() -> (Network, StateFormula) {
    let mut b = NetworkBuilder::new();
    let go = b.broadcast_channel("go");
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1).send(go).done();
    s.done();
    let mut r = b.automaton("R");
    let rc = r.committed_location("RC");
    let r1 = r.location("R1");
    r.edge(rc, r1).recv(go).done();
    r.edge(r1, r1).done();
    let rid = r.done();
    (b.build(), StateFormula::at(rid, r1))
}

#[test]
fn a_committed_receiver_lets_an_uncommitted_broadcast_fire() {
    let (net, goal) = committed_receiver();
    let (verdict, _) = ModelChecker::new(&net).deadlock_free();
    assert!(verdict.holds(), "the broadcast leaves the committed state");
    let v = verdicts(&net, &goal, 100, 3);
    assert!(v.zone);
    assert_eq!(v.cost, Some(0));
    assert!(v.winning);
    assert_eq!(v.pr, 1.0);
}

/// `R` has two receiving edges on the broadcast `go`, to `R1` and to
/// `R2`; each is one move. The goal is the second target.
#[test]
fn every_receiving_edge_of_a_broadcast_is_a_move() {
    let mut b = NetworkBuilder::new();
    let go = b.broadcast_channel("go");
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1).send(go).done();
    s.done();
    let mut r = b.automaton("R");
    let r0 = r.location("R0");
    let r1 = r.location("R1");
    let r2 = r.location("R2");
    r.edge(r0, r1).recv(go).done();
    r.edge(r0, r2).recv(go).done();
    let rid = r.done();
    let net = b.build();
    let v = verdicts(&net, &StateFormula::at(rid, r2), 200, 5);
    assert!(v.zone);
    assert_eq!(v.cost, Some(0));
    assert!(v.winning);
    assert!(
        v.pr > 0.3 && v.pr < 0.7,
        "the simulator picks either edge, Pr = {}",
        v.pr
    );
}

/// A binary channel array of size 2 whose sender and receiver both use
/// index 2: no such channel exists, so no engine may synchronise on it.
#[test]
fn a_channel_index_past_the_array_never_synchronises() {
    let mut b = NetworkBuilder::new();
    let c = b.channel_array("c", 2, ChannelKind::Binary, false);
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1).send_indexed(c, Expr::konst(2)).done();
    let sid = s.done();
    let mut r = b.automaton("R");
    let r0 = r.location("R0");
    let r1 = r.location("R1");
    r.edge(r0, r1).recv_indexed(c, Expr::konst(2)).done();
    r.done();
    let net = b.build();
    let v = verdicts(&net, &StateFormula::at(sid, s1), 100, 7);
    assert!(!v.zone);
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0);
}

/// An urgent broadcast sender with no receiver still moves, so time may
/// not pass in `S0`: `S0 && x >= 1` is unreachable.
#[test]
fn an_urgent_broadcast_without_receivers_blocks_time() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let u = b.channel_array("u", 1, ChannelKind::Broadcast, true);
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1).send(u).done();
    let sid = s.done();
    let net = b.build();
    let goal = StateFormula::and(vec![
        StateFormula::at(sid, s0),
        StateFormula::clock(ClockAtom::ge(x, 1)),
    ]);
    let v = verdicts(&net, &goal, 100, 9);
    assert!(!v.zone);
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0);
}

/// `S: S0 -u!-> S1` and `R: R0 -u?-> R1` on the urgent channel `u`, and
/// `T: T0 -(x >= 1)-> T1`, with the goal `T.T1 && S.S0`.
fn urgent_handshake() -> (Network, StateFormula) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let u = b.urgent_channel("u");
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1).send(u).done();
    let sid = s.done();
    let mut r = b.automaton("R");
    let r0 = r.location("R0");
    let r1 = r.location("R1");
    r.edge(r0, r1).recv(u).done();
    r.done();
    let mut t = b.automaton("T");
    let t0 = t.location("T0");
    let t1 = t.location("T1");
    t.edge(t0, t1).guard_clock(ClockAtom::ge(x, 1)).done();
    let tid = t.done();
    let goal = StateFormula::and(vec![StateFormula::at(tid, t1), StateFormula::at(sid, s0)]);
    (b.build(), goal)
}

/// An urgent handshake that passes its guards stops time even when
/// `moves::jump` refuses it: `S0 -u! {v := v + 2}-> S1` on `v: 0..1`
/// with `R0 -u?-> R1`, and `T0 -(x >= 1)-> T1`. No move ever fires at
/// time 0 and no time passes, so `T1` is unreachable in every engine,
/// mcpta's `Pmax` included.
#[test]
fn a_refused_urgent_move_still_stops_time() {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let v = b.decls_mut().int("v", 0, 1);
    let u = b.urgent_channel("u");
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let s1 = s.location("S1");
    s.edge(s0, s1)
        .send(u)
        .update(Stmt::assign(v, Expr::var(v) + Expr::konst(2)))
        .done();
    s.done();
    let mut r = b.automaton("R");
    let r0 = r.location("R0");
    let r1 = r.location("R1");
    r.edge(r0, r1).recv(u).done();
    r.done();
    let mut t = b.automaton("T");
    let t0 = t.location("T0");
    let t1 = t.location("T1");
    t.edge(t0, t1).guard_clock(ClockAtom::ge(x, 1)).done();
    let tid = t.done();
    let net = b.build();
    let goal = StateFormula::at(tid, t1);
    let v = verdicts(&net, &goal, 200, 12);
    assert!(!v.zone);
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0);
    let mc = Mcpta::try_build(&net, &[], &Budget::unlimited())
        .into_value()
        .expect("the initial state exists");
    assert_eq!(
        mc.reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value,
        0.0
    );
}

/// The handshake of [`urgent_handshake`] is enabled at time 0, so it
/// happens before any time passes and `T1` is never reached with `S`
/// still in `S0`: the simulator, like the zone engine, lets no time pass
/// while an urgent move is enabled.
#[test]
fn the_simulator_lets_no_time_pass_while_an_urgent_move_is_enabled() {
    let (net, goal) = urgent_handshake();
    assert!(!ModelChecker::new(&net).reachable(&goal).reachable);
    for seed in [7, 8, 9] {
        let est = StatisticalChecker::new(&net, RatePolicy::new(), seed)
            .probability_governed(&goal, 10.0, 400, 0.95, &Budget::unlimited())
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
        assert_eq!(est.mean, 0.0, "seed {seed}: {est}");
    }
}

/// The replayer holds a stochastic run to the same rule: delaying 0.5
/// before the enabled urgent handshake is `DelayForbidden`, taking it at
/// once is legal.
#[test]
fn replay_rejects_a_run_that_delays_before_an_urgent_move() {
    let (net, _) = urgent_handshake();
    let initial = ConcreteState {
        locs: net.automata().iter().map(|a| a.initial).collect(),
        store: net.decls().initial_store(),
        clocks: vec![0.0; net.dim()],
        time: 0.0,
    };
    let run_after = |delay: f64| {
        let mut state = initial.clone();
        state.locs[0] = LocationId(1);
        state.locs[1] = LocationId(1);
        state.clocks[1] = delay;
        state.time = delay;
        Run {
            initial: initial.clone(),
            steps: vec![RunStep {
                delay,
                label: "u[0]".to_owned(),
                participants: vec![(0, 0, vec![]), (1, 0, vec![])],
                state,
            }],
            deadlocked: false,
        }
    };
    assert_eq!(replay_run(&net, &run_after(0.0)), Ok(()));
    assert_eq!(
        replay_run(&net, &run_after(0.5)),
        Err(WitnessError::DelayForbidden { step: 0 })
    );
}

/// `A: L0 -{x := v - 1}-> L1` with `v = 0`, so the reset is `-1` and
/// the move is refused. With `read_x`, `L1` has the invariant `x <= 5`;
/// without it, nothing reads `x`. `L1` loops, so only `L0` can be a
/// deadlock.
fn negative_reset(read_x: bool) -> (Network, StateFormula) {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let v = b.decls_mut().int("v", 0, 3);
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let l1 = if read_x {
        a.location_with_invariant("L1", vec![ClockAtom::le(x, 5)])
    } else {
        a.location("L1")
    };
    a.edge(l0, l1)
        .reset_expr(x, Expr::var(v) - Expr::konst(1))
        .done();
    a.edge(l1, l1).done();
    let aid = a.done();
    (b.build(), StateFormula::at(aid, l1))
}

/// A reset to `-1` refuses its move in every engine: the zone engine,
/// its deadlock check, CORA, TIGA and the simulator all share
/// `moves::jump`, which refuses it, and the replayer refuses a run that
/// takes the move.
#[test]
fn a_negative_reset_refuses_the_move_in_every_engine() {
    let (net, goal) = negative_reset(true);
    let v = verdicts(&net, &goal, 200, 11);
    assert!(!v.zone);
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0, "the simulator refuses the reset too");
    let (verdict, _) = ModelChecker::new(&net).deadlock_free();
    assert!(!verdict.holds(), "L0 has no move that fires");
    let initial = ConcreteState {
        locs: net.automata().iter().map(|a| a.initial).collect(),
        store: net.decls().initial_store(),
        clocks: vec![0.0; net.dim()],
        time: 0.0,
    };
    let mut state = initial.clone();
    state.locs[0] = LocationId(1);
    state.clocks[1] = -1.0;
    let run = Run {
        initial,
        steps: vec![RunStep {
            delay: 0.0,
            label: "tau".to_owned(),
            participants: vec![(0, 0, vec![])],
            state,
        }],
        deadlocked: false,
    };
    assert!(matches!(
        replay_run(&net, &run),
        Err(WitnessError::StateMismatch { step: 0 })
    ));
}

/// Active-clock reduction may drop a clock that nothing reads only if
/// its resets cannot refuse a move: here `x` is unread, but its reset
/// `x := v - 1` refuses the only move, so the reduced engines must not
/// reach `L1` either.
#[test]
fn reduction_keeps_a_clock_whose_reset_can_refuse_a_move() {
    let (net, goal) = negative_reset(false);
    let mut unreduced = ModelChecker::new(&net).without_reduction();
    assert!(!unreduced.reachable(&goal).reachable);
    let v = verdicts(&net, &goal, 200, 13);
    assert!(!v.zone, "the reduced zone engine agrees");
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0);
    assert_eq!(net.reduced().dim(), net.dim(), "x is kept");
}

/// `A` and `B` each start in an urgent `U` with an internal edge to
/// `D`, where they loop. Either may move first, so the zone engine
/// reaches `B.D && A.U`. In an urgent state every automaton draws delay
/// 0 and the race has no winner: the simulator draws among all enabled
/// moves, so `B` moves first in about half the runs and `A`'s loop in
/// `D` cannot starve it.
#[test]
fn urgent_automata_move_first_with_equal_chance() {
    let mut b = NetworkBuilder::new();
    let mut ids = Vec::new();
    for name in ["A", "B"] {
        let mut a = b.automaton(name);
        let u = a.urgent_location("U");
        let d = a.location("D");
        a.edge(u, d).done();
        a.edge(d, d).done();
        ids.push((a.done(), u, d));
    }
    let net = b.build();
    let ((a, a_u, _), (bid, _, b_d)) = (ids[0], ids[1]);
    let goal = StateFormula::and(vec![StateFormula::at(bid, b_d), StateFormula::at(a, a_u)]);
    assert!(ModelChecker::new(&net).reachable(&goal).reachable);
    let est = StatisticalChecker::new(&net, RatePolicy::new(), 17)
        .with_max_steps(1_000)
        .probability_governed(&goal, 10.0, 400, 0.95, &Budget::unlimited())
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    assert!(
        est.mean > 0.4 && est.mean < 0.6,
        "B moves first in about half the runs: {est}"
    );
}

/// A receiver's reset reads the sender's update: `S` sends `c` with
/// `v := 5`, `R` receives with `x := v` into `W`, whose invariant is
/// `x <= 2`. The jump evaluates `R`'s reset after `S`'s update, so
/// `x = 5` breaks the invariant and the handshake never fires; the
/// deadlock check sees the same jump.
#[test]
fn a_receivers_reset_reads_the_senders_update() {
    let mut b = NetworkBuilder::new();
    let c = b.channel("c");
    let x = b.clock("x");
    let v = b.decls_mut().int("v", 0, 9);
    let mut s = b.automaton("S");
    let s0 = s.location("S0");
    let t = s.location("T");
    s.edge(s0, t)
        .send(c)
        .update(Stmt::assign(v, Expr::konst(5)))
        .done();
    s.edge(t, t).done();
    s.done();
    let mut r = b.automaton("R");
    let r0 = r.location("R0");
    let w = r.location_with_invariant("W", vec![ClockAtom::le(x, 2)]);
    r.edge(r0, w).recv(c).reset_expr(x, Expr::var(v)).done();
    r.edge(w, w).done();
    let rid = r.done();
    let net = b.build();
    let (verdict, _) = ModelChecker::new(&net).deadlock_free();
    assert!(!verdict.holds(), "nothing can move");
    let v = verdicts(&net, &StateFormula::at(rid, w), 200, 19);
    assert!(!v.zone);
    assert_eq!(v.cost, None);
    assert!(!v.winning);
    assert_eq!(v.pr, 0.0);
}
