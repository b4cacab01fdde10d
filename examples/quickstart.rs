//! Quickstart: a five-minute tour of the tempo toolkit.
//!
//! Models a light switch with a timing requirement and runs it through
//! four of the toolkit's engines: symbolic model checking (UPPAAL),
//! minimum-cost reachability (CORA), statistical model checking (SMC)
//! and probabilistic model checking of a MODEST model (mcpta).
//!
//! Run with: `cargo run --release --example quickstart`

use tempo_core::cora::PricedNetwork;
use tempo_core::expr::Expr;
use tempo_core::mdp::Opt;
use tempo_core::modest::{compile, Assignment, Mcpta, ModestModel, PaltBranch, Process};
use tempo_core::obs::Budget;
use tempo_core::smc::{RatePolicy, StatisticalChecker};
use tempo_core::ta::{ClockAtom, ModelChecker, NetworkBuilder, StateFormula};

fn main() {
    println!("== tempo quickstart ==\n");

    // -----------------------------------------------------------------
    // 1. Symbolic model checking (UPPAAL): a lamp that must dim within
    //    10 time units and may only be switched off after 1.
    // -----------------------------------------------------------------
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut lamp = b.automaton("Lamp");
    let off = lamp.location("Off");
    let on = lamp.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
    lamp.edge(off, on).reset(x, 0).done();
    lamp.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
    let lamp_id = lamp.done();
    let net = b.build();

    let mut mc = ModelChecker::new(&net);
    let reach = mc.reachable(&StateFormula::at(lamp_id, on));
    println!("[ta]   E<> Lamp.On              : {}", reach.reachable);
    let (safe, _) = mc
        .try_always_governed(
            &StateFormula::or(vec![
                StateFormula::not(StateFormula::at(lamp_id, on)),
                StateFormula::clock(ClockAtom::le(x, 10)),
            ]),
            &Budget::unlimited(),
        )
        .expect("in-memory state store")
        .into_value();
    println!("[ta]   A[] (On => x <= 10)      : {}", safe.holds());
    let (dl, _) = mc.deadlock_free();
    println!("[ta]   A[] not deadlock         : {}", dl.holds());

    // -----------------------------------------------------------------
    // 2. Minimum-cost reachability (UPPAAL-CORA): the lamp consumes
    //    3 cost units per time unit while on — what is the cheapest way
    //    to have completed one on/off cycle?
    // -----------------------------------------------------------------
    // Energy model: switching on costs 2, staying on costs 3 per time
    // unit. The cheapest way to have lit the lamp for >= 1 time unit is
    // 2 + 3·1 = 5.
    let mut priced = PricedNetwork::new(net.clone());
    priced.set_rate(lamp_id, on, 3);
    priced.set_edge_cost(lamp_id, 0, 2); // edge 0: Off -> On
    let lit_for_one = priced
        .min_cost_reach_governed(
            &StateFormula::and(vec![
                StateFormula::at(lamp_id, on),
                StateFormula::clock(ClockAtom::ge(x, 1)),
            ]),
            &Budget::unlimited(),
        )
        .into_value()
        .expect("reachable");
    println!("[cora] min cost to be lit >=1tu : {}", lit_for_one.cost);
    let min_time = priced
        .min_time_reach_governed(&StateFormula::at(lamp_id, off), &Budget::unlimited())
        .into_value();
    println!("[cora] min time back to Off     : {min_time:?}");

    // -----------------------------------------------------------------
    // 3. Statistical model checking (UPPAAL-SMC): estimate the
    //    probability that the lamp is On within 2 time units.
    // -----------------------------------------------------------------
    let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 42);
    let est = smc
        .probability_governed(
            &StateFormula::at(lamp_id, on),
            2.0,
            1000,
            0.95,
            &Budget::unlimited(),
        )
        .expect("valid parameters")
        .into_value()
        .expect("an unlimited budget completes");
    println!("[smc]  Pr[<=2](<> Lamp.On)      : {est}");

    // -----------------------------------------------------------------
    // 4. Probabilistic model checking (MODEST/mcpta): a flaky switch
    //    that fails to latch 10% of the time.
    // -----------------------------------------------------------------
    let mut m = ModestModel::new();
    let press = m.action("press");
    let lit = m.decls_mut().int("lit", 0, 1);
    m.define(
        "Switch",
        Process::palt(
            press,
            vec![
                PaltBranch {
                    weight: 9,
                    assignments: vec![Assignment::Var(lit, Expr::konst(1))],
                    then: Process::stop(),
                },
                PaltBranch {
                    weight: 1,
                    assignments: vec![],
                    then: Process::call("Switch"),
                },
            ],
        ),
    );
    m.system(&["Switch"]);
    let pta = compile(&m);
    let mcpta = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(10_000))
        .into_value()
        .expect("the digital-clocks MDP fits the state budget");
    let goal = StateFormula::data(Expr::var(lit).eq(Expr::konst(1)));
    println!(
        "[mcpta] Pmax(<> lit)            : {}",
        mcpta
            .reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value
    );
    println!(
        "[mcpta] Pmin(<> lit)            : {} (a scheduler may retry forever)",
        mcpta
            .reach_quantitative(Opt::Min, &goal, &Budget::unlimited())
            .into_value()
            .initial_value
    );

    println!("\nSee the other examples (train_gate, brp_modest, dala_robot,");
    println!("ioco_testing) for the paper's full experiments.");
}
