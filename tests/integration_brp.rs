//! Integration test: the §III.A BRP experiment (Table I) run through all
//! three MODEST backends on a small instance, checking the cross-backend
//! consistency the paper demonstrates.

use tempo_core::expr::Expr;
use tempo_core::mdp::Opt;
use tempo_core::modest::{
    compile, Assignment, Mcpta, Mctau, Modes, ModestModel, PaltBranch, Process, Scheduler,
};
use tempo_core::obs::Budget;
use tempo_core::ta::{DigitalExplorer, DigitalState, StateFormula, StateIndex, Transitions};
use tempo_models::brp::brp;

/// `Pmax` (`Opt::Max`) or `Pmin` of eventually reaching `goal`.
fn reach(mc: &Mcpta, opt: Opt, goal: &StateFormula) -> f64 {
    mc.reach_quantitative(opt, goal, &Budget::unlimited())
        .into_value()
        .initial_value
}

#[test]
fn table1_shape_on_small_instance() {
    let model = brp(4, 2, 1);
    // mctau: exact invariants, exact zeros for unreachable goals,
    // trivial bounds otherwise.
    let mctau = Mctau::new(&model.pta);
    assert!(mctau
        .check_invariant_governed(&model.ta1(), &Budget::unlimited())
        .into_value());
    assert!(mctau
        .check_invariant_governed(&model.ta2(), &Budget::unlimited())
        .into_value());
    assert_eq!(
        mctau
            .probability_bounds_governed(&model.pa_goal(), &Budget::unlimited())
            .into_value()
            .upper,
        0.0
    );
    assert_eq!(
        mctau
            .probability_bounds_governed(&model.pb_goal(), &Budget::unlimited())
            .into_value()
            .upper,
        0.0
    );
    assert_eq!(
        mctau
            .probability_bounds_governed(&model.p1_goal(), &Budget::unlimited())
            .into_value()
            .upper,
        1.0
    );

    // mcpta: exact probabilities.
    let mc = model.mcpta(0, 5_000_000);
    assert!(mc.check_invariant(&model.ta1()));
    assert!(mc.check_invariant(&model.ta2()));
    assert_eq!(reach(&mc, Opt::Max, &model.pa_goal()), 0.0);
    assert_eq!(reach(&mc, Opt::Max, &model.pb_goal()), 0.0);
    let p1 = reach(&mc, Opt::Max, &model.p1_goal());
    let p2 = reach(&mc, Opt::Max, &model.p2_goal());
    assert!(p1 > 0.0 && p1 < 0.01, "P1 = {p1}");
    assert!(p2 > 0.0 && p2 < p1, "P2 = {p2}");
    let emax = mc
        .emax_time_governed(&model.done(), &Budget::unlimited())
        .into_value();
    assert!(emax.is_finite() && emax > 0.0);

    // Consistency across backends: anything mctau reports unreachable
    // must have probability 0 in mcpta.
    for goal in [model.pa_goal(), model.pb_goal()] {
        if mctau
            .probability_bounds_governed(&goal, &Budget::unlimited())
            .into_value()
            .upper
            == 0.0
        {
            assert_eq!(reach(&mc, Opt::Max, &goal), 0.0);
        }
    }
}

/// The digital-clocks MDP of the compiled BRP network, pinned: its size
/// and the bits of `Pmax(P1)` and `Pmax(P2)` were captured when mcpta
/// still explored a separate PTA implementation, and building the MDP
/// from the timed-automata network reproduces them exactly.
#[test]
fn mcpta_mdp_is_pinned_on_table1_and_benchmark_sizes() {
    // (N, MAX, TD), (states, actions, transitions), (P1 bits, P2 bits).
    type Pin = ((i64, i64, i64), (usize, usize, usize), (u64, u64));
    let pins: [Pin; 6] = [
        (
            (16, 2, 1),
            (1231, 1612, 1912),
            (0x3f50_4576_4bca_fc4d, 0x3f10_4385_b401_8cd1),
        ),
        (
            (44, 2, 2),
            (5408, 7603, 8828),
            (0x3f66_5a88_d556_8827, 0x3f10_3c49_f622_042e),
        ),
        (
            (45, 2, 2),
            (5531, 7776, 9029),
            (0x3f66_dc69_146f_d6e8, 0x3f10_3c07_e329_d830),
        ),
        (
            (46, 2, 2),
            (5654, 7949, 9230),
            (0x3f67_5e47_42f9_cb84, 0x3f10_3bc5_d13e_9389),
        ),
        (
            (47, 2, 2),
            (5777, 8122, 9431),
            (0x3f67_e023_60fc_cd14, 0x3f10_3b83_c060_31f3),
        ),
        (
            (48, 2, 2),
            (5900, 8295, 9632),
            (0x3f68_61fd_6e81_428d, 0x3f10_3b41_b08e_af28),
        ),
    ];
    for ((n, max, td), (states, actions, transitions), (p1, p2)) in pins {
        let model = brp(n, max, td);
        let mc = model.mcpta(0, 1_000_000);
        let stats = mc.stats();
        assert_eq!(
            (stats.states, stats.actions, stats.transitions),
            (states, actions, transitions),
            "brp({n},{max},{td})"
        );
        assert_eq!(
            reach(&mc, Opt::Max, &model.p1_goal()).to_bits(),
            p1,
            "brp({n},{max},{td}) P1"
        );
        assert_eq!(
            reach(&mc, Opt::Max, &model.p2_goal()).to_bits(),
            p2,
            "brp({n},{max},{td}) P2"
        );
    }
}

/// Every SCC of the BRP's digital-clocks MDP is a single state, so
/// mcpta's values are exact up to rounding. With per-try loss
/// `q = 1 − 0.98²` and chunk-abort probability `c = q^(MAX+1)`:
/// `P1 = 1 − (1 − c)^N` and `P2 = c·(1 − c)^(N−1)`.
#[test]
fn mcpta_matches_the_closed_form() {
    let (n, max) = (16, 2);
    let model = brp(n, max, 1);
    let mc = model.mcpta(0, 5_000_000);
    let q: f64 = 1.0 - 0.98 * 0.98;
    let c = q.powi(max as i32 + 1);
    let p1 = 1.0 - (1.0 - c).powi(n as i32);
    let p2 = c * (1.0 - c).powi(n as i32 - 1);
    for (name, goal, exact) in [("P1", model.p1_goal(), p1), ("P2", model.p2_goal(), p2)] {
        let value = reach(&mc, Opt::Max, &goal);
        assert!(
            ((value - exact) / exact).abs() < 1e-9,
            "{name} = {value} vs closed form {exact}"
        );
    }
}

#[test]
fn modes_rare_events_and_expectation() {
    let model = brp(4, 2, 1);
    let mc = model.mcpta(0, 5_000_000);
    let emax = mc
        .emax_time_governed(&model.done(), &Budget::unlimited())
        .into_value();

    let mut modes = Modes::new(&model.pta, &[], Scheduler::Alap, 2024);
    let runs = 1000;
    let horizon = (emax.ceil() as i64) * 10 + 50;

    // Rare events go unobserved with realistic sample sizes (the paper's
    // point about simulation vs rare events).
    let pa = model.pa_goal();
    let obs = modes
        .observe_governed(
            runs,
            horizon,
            100_000,
            |exp, run| run.first_hit(exp, &pa).is_some(),
            &Budget::unlimited(),
        )
        .into_value();
    assert_eq!(obs.observations, 0);

    // The ALAP scheduler's mean completion time approximates Emax.
    let done = model.done();
    let est = modes
        .expected_governed(
            runs,
            horizon,
            100_000,
            |exp, run| run.first_hit(exp, &done).unwrap_or(horizon) as f64,
            &Budget::unlimited(),
        )
        .into_value();
    assert!(
        (est.mean - emax).abs() < emax * 0.25,
        "modes µ = {} vs mcpta Emax = {emax}",
        est.mean
    );

    // All simulated runs satisfy TA1 and TA2 (Table I's "all 10k runs").
    let ta1 = model.ta1();
    let safe = modes
        .observe_governed(
            200,
            horizon,
            100_000,
            |exp, run| run.globally(exp, &ta1),
            &Budget::unlimited(),
        )
        .into_value();
    assert_eq!(safe.observations, 200);
}

#[test]
fn dmax_converges_to_total_success_probability() {
    let model = brp(2, 1, 1);
    let mc_plain = model.mcpta(0, 2_000_000);
    let p_success = reach(&mc_plain, Opt::Max, &model.success());
    let mc_timed = model.mcpta(60, 5_000_000);
    let d_60 = reach(&mc_timed, Opt::Max, &model.dmax_goal(60));
    // By t=60 a (2,1,1) transfer has certainly resolved, so Dmax(60)
    // equals the total success probability.
    assert!(
        (d_60 - p_success).abs() < 1e-9,
        "Dmax(60) = {d_60} vs P(success) = {p_success}"
    );
}

#[test]
fn larger_files_fail_more_often() {
    // Monotonicity in N: more chunks, more opportunities to abort.
    let p1_small = {
        let m = brp(2, 1, 1);
        reach(&m.mcpta(0, 2_000_000), Opt::Max, &m.p1_goal())
    };
    let p1_large = {
        let m = brp(6, 1, 1);
        reach(&m.mcpta(0, 5_000_000), Opt::Max, &m.p1_goal())
    };
    assert!(p1_large > p1_small, "{p1_large} > {p1_small}");
}

#[test]
fn more_retries_help() {
    let p1_few = {
        let m = brp(3, 1, 1);
        reach(&m.mcpta(0, 2_000_000), Opt::Max, &m.p1_goal())
    };
    let p1_many = {
        let m = brp(3, 3, 1);
        reach(&m.mcpta(0, 5_000_000), Opt::Max, &m.p1_goal())
    };
    assert!(p1_many < p1_few, "{p1_many} < {p1_few}");
}

/// The BRP rewritten in MODEST *concrete syntax* and parsed with the
/// `tempo-modest` parser must agree with the programmatically built
/// model on every probabilistic quantity — a strong end-to-end check of
/// lexer, parser, compiler and analysis for the paper's §III.
#[test]
fn textual_brp_agrees_with_ast_brp() {
    use tempo_core::expr::Expr;
    use tempo_core::modest::{compile, parse_modest};

    let source = r"
        const N = 2;
        const MAX = 1;
        const TD = 1;
        const TO = 4; // 2*TD + 2
        clock sc, kc, lc, rv;
        action put, get, putack, getack;
        action report_ok, timeout, retry, report_nok, report_dk;
        int [0, N] i;
        int [0, MAX] rc;
        int [0, 3] srep;
        int [0, 1] kfull;
        int [0, 1] lfull;
        int [0, 1] premature;

        process Sender() {
          invariant(sc <= 0) alt {
            :: when(i < N) put {= sc = 0 =}; Wait()
            :: when(i >= N) report_ok {= srep = 1 =}; stop
          }
        }
        process Wait() {
          invariant(sc <= TO) alt {
            :: getack {= i = i + 1, rc = 0, sc = 0 =}; Sender()
            :: when(sc >= TO)
               timeout {= premature = premature || kfull || lfull =};
               invariant(sc <= TO) alt {
                 :: when(rc < MAX) retry {= rc = rc + 1, sc = 0 =}; Sender()
                 :: when(rc >= MAX && i < N - 1) report_nok {= srep = 2 =}; stop
                 :: when(rc >= MAX && i >= N - 1) report_dk {= srep = 3 =}; stop
               }
          }
        }
        process Receiver() {
          get {= rv = 0 =}; invariant(rv <= 1) putack; Receiver()
        }
        process ChannelK() {
          put palt {
            :98: {= kc = 0, kfull = 1 =}; invariant(kc <= TD) get {= kfull = 0 =}
            : 2: {==}
          }; ChannelK()
        }
        process ChannelL() {
          putack palt {
            :98: {= lc = 0, lfull = 1 =}; invariant(lc <= TD) getack {= lfull = 0 =}
            : 2: {==}
          }; ChannelL()
        }
        system Sender() || Receiver() || ChannelK() || ChannelL();
    ";
    let textual = parse_modest(source).expect("the textual BRP parses");
    let pta = compile(&textual);
    let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(5_000_000))
        .into_value()
        .expect("the digital-clocks MDP fits the state budget");
    let srep = textual.decls().lookup("srep").unwrap();
    let premature = textual.decls().lookup("premature").unwrap();
    let p1_text = reach(
        &mc,
        Opt::Max,
        &StateFormula::data(
            Expr::var(srep).eq(Expr::konst(2)) | Expr::var(srep).eq(Expr::konst(3)),
        ),
    );
    let p2_text = reach(
        &mc,
        Opt::Max,
        &StateFormula::data(Expr::var(srep).eq(Expr::konst(3))),
    );
    let emax_text = mc
        .emax_time_governed(
            &StateFormula::data(Expr::var(srep).ne(Expr::konst(0))),
            &Budget::unlimited(),
        )
        .into_value();
    assert!(mc.check_invariant(&StateFormula::data(Expr::var(premature).eq(Expr::konst(0)))));

    let ast = brp(2, 1, 1);
    let mc_ast = ast.mcpta(0, 5_000_000);
    let p1_ast = reach(&mc_ast, Opt::Max, &ast.p1_goal());
    let p2_ast = reach(&mc_ast, Opt::Max, &ast.p2_goal());
    let emax_ast = mc_ast
        .emax_time_governed(&ast.done(), &Budget::unlimited())
        .into_value();
    assert!(
        (p1_text - p1_ast).abs() < 1e-9,
        "P1 text {p1_text} vs ast {p1_ast}"
    );
    assert!(
        (p2_text - p2_ast).abs() < 1e-9,
        "P2 text {p2_text} vs ast {p2_ast}"
    );
    assert!(
        (emax_text - emax_ast).abs() < 1e-6,
        "Emax text {emax_text} vs ast {emax_ast}"
    );
}

/// A coin whose heavier branch overflows `v`: the jump refuses it, so
/// the toss is no transition at all.
fn refused_toss() -> tempo_core::modest::Pta {
    let mut m = ModestModel::new();
    let toss = m.action("toss");
    let v = m.decls_mut().int("v", 0, 1);
    m.define(
        "P",
        Process::palt(
            toss,
            vec![
                PaltBranch {
                    weight: 1,
                    assignments: vec![],
                    then: Process::stop(),
                },
                PaltBranch {
                    weight: 9,
                    assignments: vec![Assignment::Var(v, Expr::konst(5))],
                    then: Process::stop(),
                },
            ],
        ),
    );
    m.system(&["P"]);
    compile(&m)
}

/// The transitions a buffer holds, with each probability's bits.
fn contents(ts: &Transitions) -> Vec<Vec<(u64, DigitalState)>> {
    ts.iter()
        .map(|t| t.iter().map(|(p, s)| (p.to_bits(), s.clone())).collect())
        .collect()
}

#[test]
fn a_refilled_successor_buffer_equals_a_fresh_one() {
    // One buffer for every reachable state of both models, in
    // exploration order: the refused toss comes last, when the slots it
    // writes still hold BRP successors.
    let mut reused = Transitions::default();
    let mut widest = 0;
    let brp = brp(2, 1, 1);
    for (net, states) in [(&brp.pta, None), (&refused_toss(), Some(1))] {
        let exp = DigitalExplorer::new(net);
        let gov = Budget::unlimited().governor();
        let mut index = StateIndex::new();
        let mut state = exp.initial_state();
        index.intern(&state, &gov);
        while let Some(i) = index.pop() {
            index.load(i, &mut state);
            exp.transitions(&state, &mut reused);
            let mut fresh = Transitions::default();
            exp.transitions(&state, &mut fresh);
            assert_eq!(contents(&reused), contents(&fresh), "state {state:?}");
            for t in fresh.iter() {
                widest = widest.max(t.len());
                for (_, next) in t {
                    index.intern(next, &gov);
                }
            }
            if let Some(next) = exp.tick(&state) {
                index.intern(&next, &gov);
            }
        }
        if let Some(n) = states {
            assert_eq!(index.len(), n, "the refused toss never fires");
        }
    }
    assert_eq!(widest, 2, "the lossy channels draw between two successors");
}
