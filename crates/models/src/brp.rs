//! The Bounded Retransmission Protocol (BRP) in MODEST
//! (Bozga et al., DATE 2012, §III.A and Table I).
//!
//! An alternating-bit-based protocol with an upper bound `MAX` on
//! retransmissions: the sender transfers `N` chunks over a lossy data
//! channel (2% loss, transmission delay up to `TD` — exactly the Fig. 5
//! channel process); the receiver acknowledges over an equally lossy
//! channel; timeouts trigger retransmissions.
//!
//! The properties of Table I:
//!
//! | name | meaning |
//! |------|---------|
//! | TA1  | no premature timeouts (the timer never expires while a message is in transit) |
//! | TA2  | correct handling of failures (`NOK` only before the last chunk, `DK` only on it) |
//! | PA   | probability that success is reported before the file is transferred (= 0) |
//! | PB   | probability that `NOK` is reported on the last chunk (= 0) |
//! | P1   | probability that the sender eventually reports *no* success |
//! | P2   | probability that the sender reports "uncertainty" (`DK`) |
//! | Dmax | probability of success within 64 time units |
//! | Emax | maximum expected time until the sender reports |

use tempo_dbm::Clock;
use tempo_expr::{Expr, VarId};
use tempo_modest::{
    compile, Assignment, Mcpta, McptaConfig, ModestModel, PaltBranch, Process, Pta,
};
use tempo_ta::{ClockAtom, StateFormula};

/// Sender report values.
pub mod report {
    /// No report yet.
    pub const NONE: i64 = 0;
    /// Successful transfer (`I_OK`).
    pub const OK: i64 = 1;
    /// Failure before the last chunk (`I_NOK`).
    pub const NOK: i64 = 2;
    /// Uncertainty: failure on the last chunk (`I_DK`).
    pub const DK: i64 = 3;
}

/// The BRP model with its parameters and property handles.
#[derive(Debug)]
pub struct Brp {
    /// Number of chunks `N`.
    pub n: i64,
    /// Maximum number of retransmissions `MAX`.
    pub max_retries: i64,
    /// Maximum channel transmission delay `TD`.
    pub td: i64,
    /// The compiled PTA network (Sender ∥ Receiver ∥ ChannelK ∥ ChannelL).
    pub pta: Pta,
    /// The MODEST source model the PTA was compiled from (for linting
    /// and inspection).
    pub model: ModestModel,
    /// Sender report variable (`report::*`).
    pub srep: VarId,
    /// Chunks successfully acknowledged so far.
    pub i: VarId,
    /// Flag raised if a timeout ever fires while a message is in transit.
    pub premature: VarId,
    /// The global clock (never reset), for time-bounded properties.
    pub gt: Clock,
}

/// Builds the BRP with parameters `(N, MAX, TD)`; the paper's Table I
/// uses `(16, 2, 1)`.
///
/// # Panics
///
/// Panics if any parameter is non-positive.
#[must_use]
pub fn brp(n: i64, max_retries: i64, td: i64) -> Brp {
    assert!(
        n > 0 && max_retries > 0 && td > 0,
        "parameters must be positive"
    );
    let mut m = ModestModel::new();
    // Timeout: strictly above the worst-case round trip
    // (data ≤ TD, receiver ack ≤ 1, ack ≤ TD).
    let to = 2 * td + 2;

    // Clocks.
    let sc = m.clock("sc"); // sender timer
    let kc = m.clock("kc"); // data-channel transit
    let lc = m.clock("lc"); // ack-channel transit
    let rv = m.clock("rv"); // receiver ack window
    let gt = m.clock("gt"); // global time (never reset)

    // Variables.
    let i = m.decls_mut().int("i", 0, n);
    let rc = m.decls_mut().int("rc", 0, max_retries);
    let srep = m.decls_mut().int("srep", 0, 3);
    let kfull = m.decls_mut().int("kfull", 0, 1);
    let lfull = m.decls_mut().int("lfull", 0, 1);
    let premature = m.decls_mut().int("premature", 0, 1);

    // Actions.
    let put = m.action("put");
    let get = m.action("get");
    let putack = m.action("putack");
    let getack = m.action("getack");
    let report_ok = m.action("report_ok");
    let timeout = m.action("timeout");
    let retry = m.action("retry");
    let report_nok = m.action("report_nok");
    let report_dk = m.action("report_dk");

    // Sender: send the next chunk or report success; urgency via the
    // `sc <= 0` entry invariant (sc is reset by every path into Sender).
    m.define(
        "Sender",
        Process::invariant(
            vec![ClockAtom::le(sc, 0)],
            Process::alt(vec![
                Process::when(
                    Expr::var(i).lt(Expr::konst(n)),
                    Process::act_with(put, vec![Assignment::Clock(sc, 0)], Process::call("Wait")),
                ),
                Process::when(
                    Expr::var(i).ge(Expr::konst(n)),
                    Process::act_with(
                        report_ok,
                        vec![Assignment::Var(srep, Expr::konst(report::OK))],
                        Process::stop(),
                    ),
                ),
            ]),
        ),
    );

    // Wait for the acknowledgement or time out.
    let after_timeout = Process::invariant(
        vec![ClockAtom::le(sc, to)],
        Process::alt(vec![
            Process::when(
                Expr::var(rc).lt(Expr::konst(max_retries)),
                Process::act_with(
                    retry,
                    vec![
                        Assignment::Var(rc, Expr::var(rc) + Expr::konst(1)),
                        Assignment::Clock(sc, 0),
                    ],
                    Process::call("Sender"),
                ),
            ),
            Process::when(
                Expr::var(rc).ge(Expr::konst(max_retries)) & Expr::var(i).lt(Expr::konst(n - 1)),
                Process::act_with(
                    report_nok,
                    vec![Assignment::Var(srep, Expr::konst(report::NOK))],
                    Process::stop(),
                ),
            ),
            Process::when(
                Expr::var(rc).ge(Expr::konst(max_retries)) & Expr::var(i).ge(Expr::konst(n - 1)),
                Process::act_with(
                    report_dk,
                    vec![Assignment::Var(srep, Expr::konst(report::DK))],
                    Process::stop(),
                ),
            ),
        ]),
    );
    m.define(
        "Wait",
        Process::invariant(
            vec![ClockAtom::le(sc, to)],
            Process::alt(vec![
                Process::act_with(
                    getack,
                    vec![
                        Assignment::Var(i, Expr::var(i) + Expr::konst(1)),
                        Assignment::Var(rc, Expr::konst(0)),
                        Assignment::Clock(sc, 0),
                    ],
                    Process::call("Sender"),
                ),
                Process::when_clock(
                    ClockAtom::ge(sc, to),
                    Process::act_with(
                        timeout,
                        vec![Assignment::Var(
                            premature,
                            Expr::var(premature) | Expr::var(kfull) | Expr::var(lfull),
                        )],
                        after_timeout,
                    ),
                ),
            ]),
        ),
    );

    // Receiver: acknowledge each chunk within one time unit.
    m.define(
        "Receiver",
        Process::act_with(
            get,
            vec![Assignment::Clock(rv, 0)],
            Process::invariant(
                vec![ClockAtom::le(rv, 1)],
                Process::act(putack, Process::call("Receiver")),
            ),
        ),
    );

    // The Fig. 5 channel with 2% message loss, for data and for acks.
    let channel = |action_in, action_out, clock, flag: VarId| {
        Process::palt(
            action_in,
            vec![
                PaltBranch {
                    weight: 98,
                    assignments: vec![
                        Assignment::Clock(clock, 0),
                        Assignment::Var(flag, Expr::konst(1)),
                    ],
                    then: Process::invariant(
                        vec![ClockAtom::le(clock, td)],
                        Process::act_with(
                            action_out,
                            vec![Assignment::Var(flag, Expr::konst(0))],
                            Process::skip(),
                        ),
                    ),
                },
                PaltBranch {
                    weight: 2,
                    assignments: vec![],
                    then: Process::skip(),
                },
            ],
        )
    };
    m.define(
        "ChannelK",
        channel(put, get, kc, kfull).then(Process::call("ChannelK")),
    );
    m.define(
        "ChannelL",
        channel(putack, getack, lc, lfull).then(Process::call("ChannelL")),
    );

    m.system(&["Sender", "Receiver", "ChannelK", "ChannelL"]);
    Brp {
        n,
        max_retries,
        td,
        pta: compile(&m),
        model: m,
        srep,
        i,
        premature,
        gt,
    }
}

impl Brp {
    /// TA1: no premature timeouts.
    #[must_use]
    pub fn ta1(&self) -> StateFormula {
        StateFormula::data(Expr::var(self.premature).eq(Expr::konst(0)))
    }

    /// TA2: failures are reported correctly (`NOK` never on the last
    /// chunk, `DK` only on it).
    #[must_use]
    pub fn ta2(&self) -> StateFormula {
        let nok_wrong = Expr::var(self.srep).eq(Expr::konst(report::NOK))
            & Expr::var(self.i).ge(Expr::konst(self.n - 1));
        let dk_wrong = Expr::var(self.srep).eq(Expr::konst(report::DK))
            & Expr::var(self.i).lt(Expr::konst(self.n - 1));
        StateFormula::data(!(nok_wrong | dk_wrong))
    }

    /// PA: success reported before the transfer completed (impossible).
    #[must_use]
    pub fn pa_goal(&self) -> StateFormula {
        StateFormula::data(
            Expr::var(self.srep).eq(Expr::konst(report::OK))
                & Expr::var(self.i).lt(Expr::konst(self.n)),
        )
    }

    /// PB: `NOK` reported on the last chunk (impossible).
    #[must_use]
    pub fn pb_goal(&self) -> StateFormula {
        StateFormula::data(
            Expr::var(self.srep).eq(Expr::konst(report::NOK))
                & Expr::var(self.i).ge(Expr::konst(self.n - 1)),
        )
    }

    /// P1: the sender eventually reports no success (`NOK` or `DK`).
    #[must_use]
    pub fn p1_goal(&self) -> StateFormula {
        StateFormula::data(
            Expr::var(self.srep).eq(Expr::konst(report::NOK))
                | Expr::var(self.srep).eq(Expr::konst(report::DK)),
        )
    }

    /// P2: the sender reports uncertainty (`DK`).
    #[must_use]
    pub fn p2_goal(&self) -> StateFormula {
        StateFormula::data(Expr::var(self.srep).eq(Expr::konst(report::DK)))
    }

    /// The success state (`srep == OK`).
    #[must_use]
    pub fn success(&self) -> StateFormula {
        StateFormula::data(Expr::var(self.srep).eq(Expr::konst(report::OK)))
    }

    /// Dmax goal: success within `bound` time units.
    #[must_use]
    pub fn dmax_goal(&self, bound: i64) -> StateFormula {
        StateFormula::and(vec![
            self.success(),
            StateFormula::clock(ClockAtom::le(self.gt, bound)),
        ])
    }

    /// Emax goal: the sender has reported (any verdict).
    #[must_use]
    pub fn done(&self) -> StateFormula {
        StateFormula::data(Expr::var(self.srep).ne(Expr::konst(report::NONE)))
    }

    /// Builds the `mcpta` analyzer for this model; `time_bound` widens
    /// the clock clamp for [`Brp::dmax_goal`] queries (use `0` when no
    /// time-bounded query is needed — the global clock then clamps at the
    /// model constants and the state space stays small).
    #[must_use]
    pub fn mcpta(&self, time_bound: i64, max_states: usize) -> Mcpta {
        self.mcpta_with(time_bound, McptaConfig::default(), max_states)
    }

    /// [`Brp::mcpta`] with explicit build options — BRP is mostly
    /// waiting (timeout countdowns, channel transit), so Dirac tick-chain
    /// compression ([`McptaConfig::compress_ticks`]) removes a large
    /// share of its digital states without changing any Table I value.
    ///
    /// # Panics
    ///
    /// Panics if the state space exceeds `max_states`.
    #[must_use]
    pub fn mcpta_with(&self, time_bound: i64, config: McptaConfig, max_states: usize) -> Mcpta {
        let extra = if time_bound > 0 {
            vec![ClockAtom::le(self.gt, time_bound)]
        } else {
            Vec::new()
        };
        Mcpta::try_build_with(
            &self.pta,
            &extra,
            config,
            &tempo_obs::Budget::unlimited().with_max_states(max_states as u64),
        )
        .into_value()
        .unwrap_or_else(|| panic!("digital-clocks MDP exceeds {max_states} states"))
    }
}

/// BRP as a plain network of timed automata, with the channel loss
/// probability encoded structurally for the uniform-choice stochastic
/// semantics of `tempo-smc`: at each channel's committed `Choice`
/// location, 49 duplicate "deliver" edges race against 1 "lose" edge,
/// so a message is lost with probability exactly `1/50 = 0.02` — the
/// same per-message loss as the MODEST model of [`brp`]. Loss is
/// signalled to the sender over a `lost` channel (the standard
/// premium-channel shortcut), so no probability mass hides in timing.
///
/// P1 is therefore analytically identical to the MODEST model's:
/// with per-try failure `q = 1 − 0.98²` a chunk aborts with
/// probability `q^(MAX+1)`, and
/// `P1 = 1 − (1 − q^(MAX+1))^N`. That makes this network the SMC side
/// of the engine-vs-engine differential against `mcpta`'s exact Pmax
/// on the compiled MODEST BRP.
#[derive(Debug)]
pub struct BrpNetwork {
    /// Number of chunks `N`.
    pub n: i64,
    /// Maximum number of retransmissions `MAX`.
    pub max_retries: i64,
    /// The network (Sender ∥ ChannelK ∥ Receiver ∥ ChannelL).
    pub net: tempo_ta::Network,
    /// The sender automaton.
    pub sender: tempo_ta::AutomatonId,
    /// The sender's absorbing failure location (report `NOK` or `DK`).
    pub failed: tempo_ta::LocationId,
    /// The sender's absorbing success location (report `OK`).
    pub done: tempo_ta::LocationId,
    /// Sender report variable (`report::*`).
    pub srep: VarId,
    /// Chunks successfully acknowledged so far.
    pub i: VarId,
    /// Retransmissions of the current chunk.
    pub rc: VarId,
}

impl BrpNetwork {
    /// P1: the sender eventually reports no success (`NOK` or `DK`).
    #[must_use]
    pub fn p1_goal(&self) -> StateFormula {
        StateFormula::at(self.sender, self.failed)
    }

    /// The success state (`srep == OK`).
    #[must_use]
    pub fn success(&self) -> StateFormula {
        StateFormula::at(self.sender, self.done)
    }

    /// The analytic P1 value (identical to the MODEST model's).
    #[must_use]
    pub fn exact_p1(&self) -> f64 {
        let q: f64 = 1.0 - 0.98 * 0.98;
        let per_chunk = q.powi(self.max_retries as i32 + 1);
        1.0 - (1.0 - per_chunk).powi(self.n as i32)
    }

    /// A time horizon by which every run has reported: each try takes
    /// at most `2·TD + 2` time units and there are at most
    /// `N·(MAX+1)` tries, plus slack for the committed cascades.
    #[must_use]
    pub fn time_bound(&self, td: i64) -> f64 {
        (self.n * (self.max_retries + 1) * (2 * td + 2) + 4) as f64
    }
}

/// Builds the TA-network BRP with parameters `(N, MAX, TD)`; see
/// [`BrpNetwork`] for the loss encoding.
///
/// # Panics
///
/// Panics if any parameter is non-positive.
#[must_use]
pub fn brp_network(n: i64, max_retries: i64, td: i64) -> BrpNetwork {
    assert!(
        n > 0 && max_retries > 0 && td > 0,
        "parameters must be positive"
    );
    let mut b = tempo_ta::NetworkBuilder::new();
    let to = 2 * td + 2;

    let sc = b.clock("sc"); // sender timer
    let kc = b.clock("kc"); // data-channel transit
    let lc = b.clock("lc"); // ack-channel transit

    let i = b.decls_mut().int("i", 0, n);
    let rc = b.decls_mut().int("rc", 0, max_retries);
    let srep = b.decls_mut().int("srep", 0, 3);

    let put = b.channel("put");
    let get = b.channel("get");
    let putack = b.channel("putack");
    let ack = b.channel("ack");
    let lost = b.channel("lost");

    // Sender: committed dispatch (send next chunk or report), a timed
    // wait bounded by the timeout, and a committed timeout handler.
    let mut s = b.automaton("Sender");
    let next = s.committed_location("Next");
    let wait = s.location_with_invariant("Wait", vec![ClockAtom::le(sc, to)]);
    let timeout = s.committed_location("Timeout");
    let done = s.location("Done");
    let failed = s.location("Failed");
    s.edge(next, wait)
        .guard_data(Expr::var(i).lt(Expr::konst(n)))
        .send(put)
        .reset(sc, 0)
        .update(tempo_expr::Stmt::assign(rc, Expr::konst(0)))
        .done();
    s.edge(next, done)
        .guard_data(Expr::var(i).ge(Expr::konst(n)))
        .update(tempo_expr::Stmt::assign(srep, Expr::konst(report::OK)))
        .done();
    s.edge(wait, next)
        .recv(ack)
        .update(tempo_expr::Stmt::assign(i, Expr::var(i) + Expr::konst(1)))
        .done();
    s.edge(wait, timeout).recv(lost).done();
    s.edge(timeout, wait)
        .guard_data(Expr::var(rc).lt(Expr::konst(max_retries)))
        .send(put)
        .reset(sc, 0)
        .update(tempo_expr::Stmt::assign(rc, Expr::var(rc) + Expr::konst(1)))
        .done();
    s.edge(timeout, failed)
        .guard_data(
            Expr::var(rc).ge(Expr::konst(max_retries)) & Expr::var(i).lt(Expr::konst(n - 1)),
        )
        .update(tempo_expr::Stmt::assign(srep, Expr::konst(report::NOK)))
        .done();
    s.edge(timeout, failed)
        .guard_data(
            Expr::var(rc).ge(Expr::konst(max_retries)) & Expr::var(i).ge(Expr::konst(n - 1)),
        )
        .update(tempo_expr::Stmt::assign(srep, Expr::konst(report::DK)))
        .done();
    let sender = s.done();

    // Data channel K: 49 deliver edges vs 1 lose edge at the committed
    // choice — per-message loss 0.02 under uniform move choice.
    let mut k = b.automaton("ChannelK");
    let kidle = k.location("KIdle");
    let kchoice = k.committed_location("KChoice");
    let ktransit = k.location_with_invariant("KTransit", vec![ClockAtom::le(kc, td)]);
    k.edge(kidle, kchoice).recv(put).reset(kc, 0).done();
    for _ in 0..49 {
        k.edge(kchoice, ktransit).done();
    }
    k.edge(kchoice, kidle).send(lost).done();
    k.edge(ktransit, kidle).send(get).done();
    k.done();

    // Receiver: ack every frame immediately (duplicates included).
    let mut r = b.automaton("Receiver");
    let ridle = r.location("RIdle");
    let rack = r.committed_location("RAck");
    r.edge(ridle, rack).recv(get).done();
    r.edge(rack, ridle).send(putack).done();
    r.done();

    // Ack channel L: same 49-vs-1 loss structure.
    let mut l = b.automaton("ChannelL");
    let lidle = l.location("LIdle");
    let lchoice = l.committed_location("LChoice");
    let ltransit = l.location_with_invariant("LTransit", vec![ClockAtom::le(lc, td)]);
    l.edge(lidle, lchoice).recv(putack).reset(lc, 0).done();
    for _ in 0..49 {
        l.edge(lchoice, ltransit).done();
    }
    l.edge(lchoice, lidle).send(lost).done();
    l.edge(ltransit, lidle).send(ack).done();
    l.done();

    let net = b.build();
    BrpNetwork {
        n,
        max_retries,
        net,
        sender,
        failed,
        done,
        srep,
        i,
        rc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_mdp::Opt;
    use tempo_modest::{Modes, Scheduler};
    use tempo_obs::Budget;

    /// `Pmax` (`Opt::Max`) or `Pmin` of eventually reaching `goal`.
    fn reach(mc: &Mcpta, opt: Opt, goal: &StateFormula) -> f64 {
        mc.reach_quantitative(opt, goal, &Budget::unlimited())
            .into_value()
            .initial_value
    }

    /// Small instance for fast exact tests.
    fn small() -> Brp {
        brp(2, 1, 1)
    }

    #[test]
    fn invariants_hold() {
        let b = small();
        let mc = b.mcpta(0, 2_000_000);
        assert!(mc.check_invariant(&b.ta1()), "no premature timeouts");
        assert!(mc.check_invariant(&b.ta2()), "failures handled correctly");
    }

    #[test]
    fn impossible_events_have_probability_zero() {
        let b = small();
        let mc = b.mcpta(0, 2_000_000);
        assert_eq!(reach(&mc, Opt::Max, &b.pa_goal()), 0.0);
        assert_eq!(reach(&mc, Opt::Max, &b.pb_goal()), 0.0);
    }

    #[test]
    fn failure_probabilities_small_and_ordered() {
        let b = small();
        let mc = b.mcpta(0, 2_000_000);
        let p1 = reach(&mc, Opt::Max, &b.p1_goal());
        let p2 = reach(&mc, Opt::Max, &b.p2_goal());
        assert!(p1 > 0.0 && p1 < 0.05, "P1 = {p1}");
        assert!(p2 > 0.0 && p2 <= p1, "P2 = {p2} vs P1 = {p1}");
        // With MAX = 1: a chunk aborts after 2 lost rounds. A round is
        // lost iff data or ack is lost: q = 0.02 + 0.98·0.02 = 0.0396.
        // First chunk abort = NOK, second = DK.
        let q: f64 = 1.0 - 0.98 * 0.98;
        let per_chunk = q * q;
        let expected_p1 = per_chunk + (1.0 - per_chunk) * per_chunk;
        assert!(
            (p1 - expected_p1).abs() < 1e-9,
            "P1 = {p1}, hand-computed {expected_p1}"
        );
        let expected_p2 = (1.0 - per_chunk) * per_chunk;
        assert!((p2 - expected_p2).abs() < 1e-9);
    }

    #[test]
    fn success_is_almost_sure_complement() {
        let b = small();
        let mc = b.mcpta(0, 2_000_000);
        let p1 = reach(&mc, Opt::Max, &b.p1_goal());
        let ps = reach(&mc, Opt::Min, &b.success());
        assert!((ps + p1 - 1.0).abs() < 1e-9, "success + failure = 1");
    }

    #[test]
    fn expected_time_finite_and_positive() {
        let b = small();
        let mc = b.mcpta(0, 2_000_000);
        let emax = mc
            .emax_time_governed(&b.done(), &Budget::unlimited())
            .into_value();
        assert!(emax.is_finite(), "every scheduler finishes");
        assert!(emax > 0.0 && emax < 100.0, "Emax = {emax}");
        let emin = mc
            .emin_time_governed(&b.done(), &Budget::unlimited())
            .into_value();
        assert!(emin <= emax);
    }

    #[test]
    fn dmax_increases_with_bound() {
        let b = small();
        let mc = b.mcpta(30, 4_000_000);
        let d_small = reach(&mc, Opt::Max, &b.dmax_goal(2));
        let d_large = reach(&mc, Opt::Max, &b.dmax_goal(30));
        assert!(d_small <= d_large);
        assert!(
            d_large > 0.9,
            "almost all transfers finish within 30: {d_large}"
        );
    }

    #[test]
    fn tick_compression_shrinks_brp_without_changing_table_one() {
        let b = small();
        let full = b.mcpta(0, 2_000_000);
        let compressed = b.mcpta_with(
            0,
            McptaConfig {
                compress_ticks: true,
                ..McptaConfig::default()
            },
            2_000_000,
        );
        assert!(
            compressed.stats().states < full.stats().states,
            "compressed {} vs full {}",
            compressed.stats().states,
            full.stats().states
        );
        for goal in [b.p1_goal(), b.p2_goal(), b.pa_goal(), b.pb_goal()] {
            assert!(
                (reach(&compressed, Opt::Max, &goal) - reach(&full, Opt::Max, &goal)).abs() < 1e-12
            );
        }
        assert!(
            (reach(&compressed, Opt::Min, &b.success()) - reach(&full, Opt::Min, &b.success()))
                .abs()
                < 1e-12
        );
        assert!(
            (compressed
                .emax_time_governed(&b.done(), &Budget::unlimited())
                .into_value()
                - full
                    .emax_time_governed(&b.done(), &Budget::unlimited())
                    .into_value())
            .abs()
                < 1e-9
        );
        assert!(compressed.check_invariant(&b.ta1()) && compressed.check_invariant(&b.ta2()));
    }

    #[test]
    fn network_brp_smc_estimate_matches_analytic_p1() {
        // The TA-network encoding must carry exactly the MODEST model's
        // probability structure: estimate P1 by simulation and check the
        // confidence interval brackets the closed form (≈ 3.13e-3 for
        // N = 2, MAX = 1 — large enough for plain Monte Carlo).
        let b = brp_network(2, 1, 1);
        let mut smc = tempo_smc::StatisticalChecker::new(&b.net, tempo_smc::RatePolicy::new(), 7);
        let est = smc
            .probability_governed(
                &b.p1_goal(),
                b.time_bound(1),
                20_000,
                0.99,
                &Budget::unlimited(),
            )
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
        let exact = b.exact_p1();
        assert!(
            est.lower <= exact && exact <= est.upper,
            "CI [{}, {}] misses analytic P1 = {exact}",
            est.lower,
            est.upper
        );
        assert!(est.mean > 0.0, "rare but observable at 20k runs");
    }

    #[test]
    fn modes_simulation_agrees_on_shape() {
        let b = small();
        let mut modes = Modes::new(&b.pta, &[], Scheduler::Alap, 11);
        let done = b.done();
        let obs = modes
            .observe_governed(
                500,
                200,
                10_000,
                |exp, run| run.first_hit(exp, &done).is_some(),
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(
            obs.observations, 500,
            "every run reports within the horizon"
        );
        let ta1 = b.ta1();
        let safe = modes
            .observe_governed(
                200,
                200,
                10_000,
                |exp, run| run.globally(exp, &ta1),
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(safe.observations, 200, "all runs satisfy TA1");
    }
}
