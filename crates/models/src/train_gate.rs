//! The paper's train-gate example (Bozga et al., DATE 2012, §II.A,
//! Figs. 1–4): `n` trains approach a one-track bridge; a controller with
//! a FIFO queue stops and restarts them.
//!
//! Three variants are provided:
//!
//! * [`train_gate`] — the verification model of Fig. 1, including the
//!   C-like queue code of Fig. 1(c);
//! * [`train_gate_game`] — the timed game of Figs. 2–3: the environment
//!   decides arrivals and crossing times (dashed edges), the controller
//!   decides when to stop/restart trains via the unconstrained automaton;
//! * [`TrainGate::rates`] — the stochastic rates of §II.A(c) (rate
//!   `1 + id` for train `id`), for the Fig. 4 CDF experiment.

use tempo_expr::{Expr, Stmt};
use tempo_smc::RatePolicy;
use tempo_ta::{
    AutomatonId, ChannelKind, ClockAtom, LocationId, Network, NetworkBuilder, StateFormula,
};

/// Handles to the train-gate model's pieces.
#[derive(Debug)]
pub struct TrainGate {
    /// The network (trains + controller).
    pub net: Network,
    /// The train automata, indexed by train id.
    pub trains: Vec<AutomatonId>,
    /// The controller automaton.
    pub controller: AutomatonId,
    /// Location ids shared by all trains:
    /// `[Safe, Appr, Stop, Start, Cross]`.
    pub train_locs: TrainLocs,
}

/// The five locations of a train (Fig. 1(a)).
#[derive(Debug, Clone, Copy)]
pub struct TrainLocs {
    /// Not yet approaching.
    pub safe: LocationId,
    /// Approaching the bridge (invariant `x ≤ 20`).
    pub appr: LocationId,
    /// Stopped by the controller.
    pub stop: LocationId,
    /// Restarting (invariant `x ≤ 15`).
    pub start: LocationId,
    /// On the bridge (invariant `x ≤ 5`).
    pub cross: LocationId,
}

/// Builds the Fig. 1 train-gate model for `n` trains.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn train_gate(n: usize) -> TrainGate {
    assert!(n > 0, "at least one train");
    let mut b = NetworkBuilder::new();
    let n_i64 = n as i64;

    // Channels: one slot per train id (UPPAAL channel arrays).
    let appr_ch = b.channel_array("appr", n, ChannelKind::Binary, false);
    let go_ch = b.channel_array("go", n, ChannelKind::Binary, false);
    let stop_ch = b.channel_array("stop", n, ChannelKind::Binary, false);
    let leave_ch = b.channel_array("leave", n, ChannelKind::Binary, false);

    // Fig. 1(c): id_t list[N+1]; int[0,N] len;  (plus a loop counter for
    // the dequeue shift).
    let list = b.decls_mut().array("list", n + 1, 0, n_i64 - 1);
    let len = b.decls_mut().int("len", 0, n_i64);
    let idx = b.decls_mut().int("i", 0, n_i64);
    // `list` holds train *identities*: declaring that lets the symmetry
    // reduction permute queue contents along with the trains.
    b.mark_id_var(list);

    // Trains (Fig. 1(a)).
    let mut trains = Vec::new();
    let mut train_locs = None;
    for id in 0..n {
        let x = b.clock(&format!("x{id}"));
        let mut t = b.automaton(&format!("Train{id}"));
        let safe = t.location("Safe");
        let appr = t.location_with_invariant("Appr", vec![ClockAtom::le(x, 20)]);
        let stop = t.location("Stop");
        let start = t.location_with_invariant("Start", vec![ClockAtom::le(x, 15)]);
        let cross = t.location_with_invariant("Cross", vec![ClockAtom::le(x, 5)]);
        t.set_initial(safe);
        let id_e = id as i64;
        t.edge(safe, appr)
            .send_indexed(appr_ch, Expr::konst(id_e))
            .reset(x, 0)
            .done();
        t.edge(appr, cross)
            .guard_clock(ClockAtom::ge(x, 10))
            .reset(x, 0)
            .done();
        t.edge(appr, stop)
            .guard_clock(ClockAtom::le(x, 10))
            .recv_indexed(stop_ch, Expr::konst(id_e))
            .reset(x, 0)
            .done();
        t.edge(stop, start)
            .recv_indexed(go_ch, Expr::konst(id_e))
            .reset(x, 0)
            .done();
        t.edge(start, cross)
            .guard_clock(ClockAtom::ge(x, 7))
            .reset(x, 0)
            .done();
        t.edge(cross, safe)
            .guard_clock(ClockAtom::ge(x, 3))
            .send_indexed(leave_ch, Expr::konst(id_e))
            .done();
        trains.push(t.done());
        train_locs = Some(TrainLocs {
            safe,
            appr,
            stop,
            start,
            cross,
        });
    }

    // Fig. 1(c): the queue functions.
    let enqueue_sel = Stmt::seq(vec![
        Stmt::assign_index(list, Expr::var(len), Expr::select(0)),
        Stmt::assign(len, Expr::var(len) + Expr::konst(1)),
    ]);
    let front = Expr::index(list, Expr::konst(0));
    let tail = Expr::index(list, Expr::var(len) - Expr::konst(1));
    let dequeue = Stmt::seq(vec![
        Stmt::assign(idx, Expr::konst(0)),
        Stmt::assign(len, Expr::var(len) - Expr::konst(1)),
        Stmt::while_loop(
            Expr::var(idx).lt(Expr::var(len)),
            Stmt::seq(vec![
                Stmt::assign_index(
                    list,
                    Expr::var(idx),
                    Expr::index(list, Expr::var(idx) + Expr::konst(1)),
                ),
                Stmt::assign(idx, Expr::var(idx) + Expr::konst(1)),
            ]),
        ),
        Stmt::assign_index(list, Expr::var(idx), Expr::konst(0)),
    ]);

    // Controller (Fig. 1(b)).
    let mut c = b.automaton("Gate");
    let free = c.location("Free");
    let occ = c.location("Occ");
    let stopping = c.committed_location("Stopping");
    c.set_initial(free);
    // Free --(len == 0) appr[e]? / enqueue(e)--> Occ (the `len == 0`
    // guard of Fig. 1(b): with stopped trains waiting, the controller
    // restarts the front train before accepting new arrivals).
    c.edge(free, occ)
        .select(0, n_i64 - 1)
        .guard_data(Expr::var(len).eq(Expr::konst(0)))
        .recv_indexed(appr_ch, Expr::select(0))
        .update(enqueue_sel.clone())
        .done();
    // Free --len > 0 / go[front()]!--> Occ
    c.edge(free, occ)
        .guard_data(Expr::var(len).gt(Expr::konst(0)))
        .send_indexed(go_ch, front.clone())
        .done();
    // Occ --appr[e]? / enqueue(e)--> (committed) --stop[tail()]!--> Occ
    c.edge(occ, stopping)
        .select(0, n_i64 - 1)
        .recv_indexed(appr_ch, Expr::select(0))
        .update(enqueue_sel)
        .done();
    c.edge(stopping, occ).send_indexed(stop_ch, tail).done();
    // Occ --leave[e]? (e == front()) / dequeue()--> Free
    c.edge(occ, free)
        .select(0, n_i64 - 1)
        .guard_data(Expr::select(0).eq(front))
        .recv_indexed(leave_ch, Expr::select(0))
        .update(dequeue)
        .done();
    let controller = c.done();

    TrainGate {
        net: b.build(),
        trains,
        controller,
        train_locs: train_locs.expect("n > 0"),
    }
}

impl TrainGate {
    /// The paper's safety property: at most one train on the bridge
    /// (`A[] forall i forall j: Cross_i ∧ Cross_j ⇒ i == j`).
    #[must_use]
    pub fn safety(&self) -> StateFormula {
        let mut pair_violations = Vec::new();
        for (i, &ti) in self.trains.iter().enumerate() {
            for &tj in self.trains.iter().skip(i + 1) {
                pair_violations.push(StateFormula::and(vec![
                    StateFormula::at(ti, self.train_locs.cross),
                    StateFormula::at(tj, self.train_locs.cross),
                ]));
            }
        }
        StateFormula::not(StateFormula::or(pair_violations))
    }

    /// `Train(id).Appr` — the premise of the liveness query.
    #[must_use]
    pub fn appr(&self, id: usize) -> StateFormula {
        StateFormula::at(self.trains[id], self.train_locs.appr)
    }

    /// `Train(id).Cross` — the goal of the liveness and SMC queries.
    #[must_use]
    pub fn cross(&self, id: usize) -> StateFormula {
        StateFormula::at(self.trains[id], self.train_locs.cross)
    }

    /// The stochastic rates of §II.A(c): exponential rate `1 + id` for
    /// train `id` (in `Safe`, the only invariant-free train location).
    #[must_use]
    pub fn rates(&self) -> RatePolicy {
        let mut rates = RatePolicy::new();
        for (id, &t) in self.trains.iter().enumerate() {
            rates.set(t, self.train_locs.safe, 1.0 + id as f64);
        }
        rates
    }
}

/// Handles to the timed-game variant (Figs. 2–3).
#[derive(Debug)]
pub struct TrainGateGame {
    /// The game network: trains with uncontrollable arrivals/crossings +
    /// the unconstrained controller of Fig. 3.
    pub net: Network,
    /// The train automata.
    pub trains: Vec<AutomatonId>,
    /// Train location ids `[Safe, Appr, Stop, Start, Cross]`.
    pub train_locs: TrainLocs,
}

/// Builds the Figs. 2–3 timed game for `n` trains: the environment
/// (dashed/uncontrollable) decides when trains arrive, cross and leave;
/// the controller decides when to `stop` and `go` trains through the
/// unconstrained automaton of Fig. 3.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn train_gate_game(n: usize) -> TrainGateGame {
    assert!(n > 0, "at least one train");
    let mut b = NetworkBuilder::new();
    let n_i64 = n as i64;
    let appr_ch = b.channel_array("appr", n, ChannelKind::Binary, false);
    let go_ch = b.channel_array("go", n, ChannelKind::Binary, false);
    let stop_ch = b.channel_array("stop", n, ChannelKind::Binary, false);
    let leave_ch = b.channel_array("leave", n, ChannelKind::Binary, false);

    let mut trains = Vec::new();
    let mut train_locs = None;
    for id in 0..n {
        let x = b.clock(&format!("x{id}"));
        let mut t = b.automaton(&format!("Train{id}"));
        let safe = t.location("Safe");
        // Fig. 2 uses a wider Appr bound (x <= 30) than Fig. 1.
        let appr = t.location_with_invariant("Appr", vec![ClockAtom::le(x, 30)]);
        let stop = t.location("Stop");
        let start = t.location_with_invariant("Start", vec![ClockAtom::le(x, 15)]);
        let cross = t.location_with_invariant("Cross", vec![ClockAtom::le(x, 5)]);
        t.set_initial(safe);
        let id_e = id as i64;
        // Environment decides arrivals (dashed in Fig. 2).
        t.edge(safe, appr)
            .send_indexed(appr_ch, Expr::konst(id_e))
            .reset(x, 0)
            .uncontrollable()
            .done();
        // Environment decides when the train enters the bridge.
        t.edge(appr, cross)
            .guard_clock(ClockAtom::ge(x, 10))
            .reset(x, 0)
            .uncontrollable()
            .done();
        // Controllable via the controller's stop!/go! (the train's
        // receiving edges stay controllable so the sync is controllable).
        t.edge(appr, stop)
            .guard_clock(ClockAtom::le(x, 10))
            .recv_indexed(stop_ch, Expr::konst(id_e))
            .reset(x, 0)
            .done();
        t.edge(stop, start)
            .recv_indexed(go_ch, Expr::konst(id_e))
            .reset(x, 0)
            .done();
        t.edge(start, cross)
            .guard_clock(ClockAtom::ge(x, 7))
            .reset(x, 0)
            .uncontrollable()
            .done();
        t.edge(cross, safe)
            .guard_clock(ClockAtom::ge(x, 3))
            .send_indexed(leave_ch, Expr::konst(id_e))
            .uncontrollable()
            .done();
        trains.push(t.done());
        train_locs = Some(TrainLocs {
            safe,
            appr,
            stop,
            start,
            cross,
        });
    }

    // Fig. 3: the unconstrained controller — one location, it may always
    // listen to appr/leave and emit stop/go.
    let mut c = b.automaton("Controller");
    let hub = c.location("Hub");
    c.edge(hub, hub)
        .select(0, n_i64 - 1)
        .recv_indexed(appr_ch, Expr::select(0))
        .uncontrollable()
        .done();
    c.edge(hub, hub)
        .select(0, n_i64 - 1)
        .recv_indexed(leave_ch, Expr::select(0))
        .uncontrollable()
        .done();
    c.edge(hub, hub)
        .select(0, n_i64 - 1)
        .send_indexed(stop_ch, Expr::select(0))
        .done();
    c.edge(hub, hub)
        .select(0, n_i64 - 1)
        .send_indexed(go_ch, Expr::select(0))
        .done();
    c.done();

    TrainGateGame {
        net: b.build(),
        trains,
        train_locs: train_locs.expect("n > 0"),
    }
}

impl TrainGateGame {
    /// The bad states of the safety game: two distinct trains on the
    /// bridge simultaneously.
    #[must_use]
    pub fn collision(&self) -> StateFormula {
        let mut pairs = Vec::new();
        for (i, &ti) in self.trains.iter().enumerate() {
            for &tj in self.trains.iter().skip(i + 1) {
                pairs.push(StateFormula::and(vec![
                    StateFormula::at(ti, self.train_locs.cross),
                    StateFormula::at(tj, self.train_locs.cross),
                ]));
            }
        }
        StateFormula::or(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_obs::Budget;
    use tempo_ta::ModelChecker;

    #[test]
    fn model_shape() {
        let tg = train_gate(3);
        assert_eq!(tg.trains.len(), 3);
        assert_eq!(tg.net.automata().len(), 4);
        assert_eq!(tg.net.dim(), 4); // 3 train clocks + reference
        let gate = tg.net.automaton(tg.controller);
        assert_eq!(gate.locations.len(), 3);
    }

    #[test]
    fn two_trains_safety_holds() {
        let tg = train_gate(2);
        let mut mc = ModelChecker::new(&tg.net);
        let (verdict, stats) = mc
            .try_always_governed(&tg.safety(), &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        assert!(verdict.holds(), "at most one train crosses");
        assert!(stats.explored > 0);
    }

    #[test]
    fn a_train_can_cross() {
        let tg = train_gate(2);
        let mut mc = ModelChecker::new(&tg.net);
        assert!(mc.reachable(&tg.cross(0)).reachable);
        assert!(mc.reachable(&tg.cross(1)).reachable);
    }

    #[test]
    fn both_trains_can_be_queued() {
        let tg = train_gate(2);
        let mut mc = ModelChecker::new(&tg.net);
        let both_waiting = StateFormula::and(vec![
            StateFormula::at(tg.trains[0], tg.train_locs.stop),
            StateFormula::at(tg.trains[1], tg.train_locs.appr),
        ]);
        assert!(mc.reachable(&both_waiting).reachable);
    }

    #[test]
    fn symmetry_reduces_three_train_safety() {
        use tempo_ta::ExploreConfig;
        let tg = train_gate(3);
        let safety = tg.safety();
        let mut full = ModelChecker::new(&tg.net).with_config(ExploreConfig::unreduced());
        let (v_full, s_full) = full
            .try_always_governed(&safety, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        let mut red = ModelChecker::new(&tg.net);
        let (v_red, s_red) = red
            .try_always_governed(&safety, &Budget::unlimited())
            .expect("in-memory state store")
            .into_value();
        assert_eq!(v_full.holds(), v_red.holds());
        assert!(v_red.holds());
        assert!(s_red.sym_orbits > 0, "train orbit detected");
        assert!(
            s_red.explored < s_full.explored,
            "symmetry must shrink the exploration: {} vs {}",
            s_red.explored,
            s_full.explored
        );
    }

    #[test]
    fn game_model_shape() {
        let g = train_gate_game(2);
        assert_eq!(g.net.automata().len(), 3);
        // Environment edges are uncontrollable.
        let t0 = &g.net.automata()[0];
        let unctrl = t0.edges.iter().filter(|e| !e.controllable).count();
        assert_eq!(unctrl, 4);
    }
}
