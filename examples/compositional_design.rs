//! Compositional design, three ways — the paper's recurring theme that
//! rigorous embedded design needs *incremental, component-wise*
//! methods:
//!
//! 1. **ECDAR** (§II): develop a timed component against an abstract
//!    contract by refinement; compose components structurally and
//!    logically and re-verify at the interface level.
//! 2. **MODEST concrete syntax** (§III, Fig. 5): parse the paper's
//!    channel process verbatim and analyse it with `mcpta`.
//! 3. **BIP hierarchy** (§IV): build a two-level composite system and
//!    flatten it (the source-to-source transformation) before running
//!    D-Finder.
//!
//! Run with: `cargo run --release --example compositional_design`

use tempo_core::bip::{
    check_deadlock_freedom_governed, Composite, DfinderVerdict, InteractionKind,
};
use tempo_core::ecdar::{
    conjunction, find_inconsistency_governed, parallel, refines_governed, TioaAtom, TioaBuilder,
};
use tempo_core::expr::Expr;
use tempo_core::mdp::Opt;
use tempo_core::modest::{compile, parse_modest, Mcpta};
use tempo_core::obs::{Budget, ExploreConfig};
use tempo_core::ta::StateFormula;

fn main() {
    ecdar_flow();
    modest_flow();
    bip_flow();
}

fn ecdar_flow() {
    println!("== ECDAR: contract-based development (§II) ==");
    // Abstract contract: after req?, respond within 10.
    let mut c = TioaBuilder::new("Contract");
    let t = c.clock("t");
    let ci = c.location("Idle");
    let cp = c.location_with_invariant("Pending", vec![TioaAtom::le(t, 10)]);
    c.input(ci, cp, "req").reset(t).done();
    c.output(cp, ci, "resp").done();
    let contract = c.build();
    println!(
        "contract consistent: {}",
        find_inconsistency_governed(&contract, &Budget::unlimited())
            .into_value()
            .is_none()
    );

    // Component A: respond within [2, 6]; Component-level requirement B:
    // never respond before 1.
    let mut a = TioaBuilder::new("Responder");
    let x = a.clock("x");
    let ai = a.location("Idle");
    let ap = a.location_with_invariant("Pending", vec![TioaAtom::le(x, 6)]);
    a.input(ai, ap, "req").reset(x).done();
    a.output(ap, ai, "resp").guard(TioaAtom::ge(x, 2)).done();
    let responder = a.build();

    match refines_governed(&responder, &contract, &Budget::unlimited()).into_value() {
        Ok(()) => println!("Responder ≤ Contract: refinement holds"),
        Err(e) => println!("Responder ≤ Contract FAILS: {e}"),
    }

    // A too-slow variant is rejected with a diagnostic trace.
    let mut slow = TioaBuilder::new("Slow");
    let y = slow.clock("y");
    let si = slow.location("Idle");
    let sp = slow.location_with_invariant("Pending", vec![TioaAtom::le(y, 20)]);
    slow.input(si, sp, "req").reset(y).done();
    slow.output(sp, si, "resp")
        .guard(TioaAtom::ge(y, 12))
        .done();
    let slow = slow.build();
    match refines_governed(&slow, &contract, &Budget::unlimited()).into_value() {
        Ok(()) => println!("Slow ≤ Contract: refinement holds (unexpected!)"),
        Err(e) => println!("Slow ≤ Contract correctly rejected: {e}"),
    }

    // Logical composition: conjunction of two requirements on the same
    // interface refines both.
    let mut b = TioaBuilder::new("NotTooEarly");
    let z = b.clock("z");
    let bi = b.location("Idle");
    let bp = b.location_with_invariant("Pending", vec![TioaAtom::le(z, 10)]);
    b.input(bi, bp, "req").reset(z).done();
    b.output(bp, bi, "resp").guard(TioaAtom::ge(z, 1)).done();
    let not_too_early = b.build();
    let both = conjunction(&contract, &not_too_early).expect("compatible directions");
    println!(
        "Contract ∧ NotTooEarly refines each conjunct: {} / {}",
        refines_governed(&both, &contract, &Budget::unlimited())
            .into_value()
            .is_ok(),
        refines_governed(&both, &not_too_early, &Budget::unlimited())
            .into_value()
            .is_ok()
    );

    // Structural composition with a logger stays consistent.
    let mut l = TioaBuilder::new("Logger");
    let li = l.location("Wait");
    let ln = l.location("Note");
    l.input(li, ln, "resp").done();
    l.output(ln, li, "log").done();
    let logger = l.build();
    let sys = parallel(&responder, &logger).expect("compatible alphabets");
    println!(
        "Responder ∥ Logger: {} locations, consistent: {}\n",
        sys.locations().len(),
        find_inconsistency_governed(&sys, &Budget::unlimited())
            .into_value()
            .is_none()
    );
}

fn modest_flow() {
    println!("== MODEST concrete syntax: Fig. 5 verbatim (§III) ==");
    let source = r"
        const TD = 1;
        clock c;
        action put, get;
        int [0, 1] delivered;
        process Channel() {
          put palt {
            :98: {= c = 0 =}; invariant(c <= TD) get {= delivered = 1 =}
            : 2: {==}                 // message lost
          }; Channel()
        }
        process Producer() {
          put; invariant(c <= 10) get; stop
        }
        system Producer() || Channel();
    ";
    let model = parse_modest(source).expect("the paper's syntax parses");
    let pta = compile(&model);
    println!(
        "parsed: {} actions, {} processes, {} PTA components",
        model.actions().len(),
        2,
        pta.automata().len()
    );
    let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(100_000))
        .into_value()
        .expect("the digital-clocks MDP fits the state budget");
    let delivered = model.decls().lookup("delivered").unwrap();
    let goal = StateFormula::data(Expr::var(delivered).eq(Expr::konst(1)));
    println!(
        "Pmax(message eventually delivered) = {:.4} (one put, 2% loss)",
        mc.reach_quantitative(Opt::Max, &goal, &Budget::unlimited())
            .into_value()
            .initial_value
    );
    println!();
}

fn bip_flow() {
    println!("== BIP hierarchy + flattening (§IV) ==");
    // A worker cell exporting start/finish.
    let worker = {
        let mut w = Composite::new("Worker");
        let mut cell = w.atom("Cell");
        let idle = cell.state("Idle");
        let busy = cell.state("Busy");
        let p_start = cell.port("start");
        let p_finish = cell.port("finish");
        cell.transition(idle, busy, p_start);
        cell.transition(busy, idle, p_finish);
        let ports = cell.done();
        w.export("start", ports[0]);
        w.export("finish", ports[1]);
        w
    };
    // A production line: two workers started in lockstep, finished
    // independently.
    let mut line = Composite::new("Line");
    let w1 = line.child(worker.clone());
    let w2 = line.child(worker);
    let s1 = line.child_port(w1, "start").expect("exported");
    let s2 = line.child_port(w2, "start").expect("exported");
    let f1 = line.child_port(w1, "finish").expect("exported");
    let f2 = line.child_port(w2, "finish").expect("exported");
    line.interaction("both_start", &[s1, s2], InteractionKind::Rendezvous);
    line.interaction("finish1", &[f1], InteractionKind::Rendezvous);
    line.interaction("finish2", &[f2], InteractionKind::Rendezvous);

    let flat = line.flatten();
    println!(
        "flattened: {} components ({}), {} interactions",
        flat.components().len(),
        flat.components()
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        flat.interactions().len()
    );
    match check_deadlock_freedom_governed(&flat, &Budget::unlimited().with_max_iterations(100_000))
        .into_value()
    {
        DfinderVerdict::DeadlockFree { candidates, .. } => println!(
            "D-Finder on the flattened system: DEADLOCK-FREE ({candidates} candidates examined)"
        ),
        DfinderVerdict::Unknown { suspects } => {
            println!(
                "D-Finder: {} suspects for explicit checking",
                suspects.len()
            );
        }
    }
    println!(
        "explicit check agrees: deadlock = {:?}",
        flat.find_deadlock_with(
            ExploreConfig::default(),
            &Budget::unlimited().with_max_states(100_000)
        )
        .into_value()
        .map(|s| s.control)
    );
}
