//! A worst-case-execution-time model in the style of METAMOC
//! (Dalsgaard et al., cited by the paper in §II as an application of
//! UPPAAL-CORA: "several applications to optimization for embedded
//! systems, including Worst-Case Execution Times (WCET) analysis").
//!
//! A small straight-line program with a bounded loop runs on a pipeline
//! whose instruction latency depends nondeterministically on the cache:
//! a hit costs `HIT` cycles, a miss `MISS` cycles. The WCET is the
//! maximum time to reach the final location; the BCET the minimum. Both
//! are computed exactly with `tempo-cora`.

use tempo_cora::{MaxCost, PricedNetwork};
use tempo_expr::{Expr, Stmt, VarId};
use tempo_obs::Budget;
use tempo_ta::{AutomatonId, ClockAtom, LocationId, Network, NetworkBuilder, StateFormula};

/// Cycles for a cache hit.
pub const HIT: i64 = 1;
/// Cycles for a cache miss.
pub const MISS: i64 = 4;

/// Handles to the WCET model.
#[derive(Debug)]
pub struct WcetProgram {
    /// The program automaton network.
    pub net: Network,
    /// The program automaton.
    pub cpu: AutomatonId,
    /// The final location (program exit).
    pub exit: LocationId,
    /// Loop counter variable.
    pub counter: VarId,
    /// Number of loop iterations.
    pub iterations: i64,
}

/// Builds the WCET model: `prologue; loop(iterations) { body }; epilogue`
/// where every instruction fetch nondeterministically hits or misses the
/// cache.
///
/// # Panics
///
/// Panics if `iterations <= 0`.
#[must_use]
pub fn wcet_program(iterations: i64) -> WcetProgram {
    assert!(iterations > 0, "at least one loop iteration");
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let counter = b.decls_mut().int("i", 0, iterations);
    let mut cpu = b.automaton("Cpu");

    // Each instruction is a location whose dwell time is HIT or MISS,
    // modelled as two outgoing edges with exact-time guards under an
    // invariant of MISS.
    let instruction = |cpu: &mut tempo_ta::AutomatonBuilder<'_>, name: &str| {
        cpu.location_with_invariant(name, vec![ClockAtom::le(x, MISS)])
    };
    let prologue = instruction(&mut cpu, "Prologue");
    let loop_head = instruction(&mut cpu, "LoopHead");
    let body = instruction(&mut cpu, "Body");
    let epilogue = instruction(&mut cpu, "Epilogue");
    let exit = cpu.location("Exit");
    cpu.set_initial(prologue);

    // Fetch latencies: leave after exactly HIT (hit) or exactly MISS
    // (miss) cycles.
    let fetch = |cpu: &mut tempo_ta::AutomatonBuilder<'_>,
                 from: LocationId,
                 to: LocationId,
                 guard: Expr,
                 update: Stmt| {
        for latency in [HIT, MISS] {
            cpu.edge(from, to)
                .guard_clock(ClockAtom::ge(x, latency))
                .guard_clock(ClockAtom::le(x, latency))
                .guard_data(guard.clone())
                .update(update.clone())
                .reset(x, 0)
                .done();
        }
    };
    fetch(&mut cpu, prologue, loop_head, Expr::truth(), Stmt::skip());
    // Loop: enter the body while i < iterations, exit when done.
    fetch(
        &mut cpu,
        loop_head,
        body,
        Expr::var(counter).lt(Expr::konst(iterations)),
        Stmt::skip(),
    );
    fetch(
        &mut cpu,
        body,
        loop_head,
        Expr::truth(),
        Stmt::assign(counter, Expr::var(counter) + Expr::konst(1)),
    );
    fetch(
        &mut cpu,
        loop_head,
        epilogue,
        Expr::var(counter).ge(Expr::konst(iterations)),
        Stmt::skip(),
    );
    fetch(&mut cpu, epilogue, exit, Expr::truth(), Stmt::skip());
    let cpu = cpu.done();

    WcetProgram {
        net: b.build(),
        cpu,
        exit,
        counter,
        iterations,
    }
}

impl WcetProgram {
    /// The goal formula: program terminated.
    #[must_use]
    pub fn terminated(&self) -> StateFormula {
        StateFormula::at(self.cpu, self.exit)
    }

    /// Analytic WCET: every fetch misses.
    /// Instructions executed: prologue + (head+body)·n + head + epilogue.
    #[must_use]
    pub fn analytic_wcet(&self) -> i64 {
        self.instruction_count() * MISS
    }

    /// Analytic BCET: every fetch hits.
    #[must_use]
    pub fn analytic_bcet(&self) -> i64 {
        self.instruction_count() * HIT
    }

    fn instruction_count(&self) -> i64 {
        1 + 2 * self.iterations + 1 + 1
    }

    /// Computes (BCET, WCET) with the CORA engine.
    ///
    /// # Panics
    ///
    /// Panics if the program cannot terminate (never happens for this
    /// model).
    #[must_use]
    pub fn analyze(&self) -> (i64, i64) {
        let priced = PricedNetwork::new(self.net.clone());
        let goal = self.terminated();
        let bcet = priced
            .min_time_reach_governed(&goal, &Budget::unlimited())
            .into_value()
            .expect("program terminates");
        let wcet = match priced
            .max_time_reach_governed(&goal, &Budget::unlimited())
            .into_value()
            .expect("program terminates")
        {
            MaxCost::Bounded(c) => c,
            MaxCost::Unbounded => panic!("bounded loop cannot diverge"),
        };
        (bcet, wcet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcet_matches_analytic_bound() {
        for n in [1, 2, 4] {
            let p = wcet_program(n);
            let (bcet, wcet) = p.analyze();
            assert_eq!(bcet, p.analytic_bcet(), "BCET for n={n}");
            assert_eq!(wcet, p.analytic_wcet(), "WCET for n={n}");
            assert!(bcet < wcet);
        }
    }

    #[test]
    fn wcet_grows_linearly_with_iterations() {
        let w2 = wcet_program(2).analyze().1;
        let w4 = wcet_program(4).analyze().1;
        // Two extra iterations = 2 × (head + body) × MISS.
        assert_eq!(w4 - w2, 2 * 2 * MISS);
    }

    #[test]
    fn termination_is_certain() {
        let p = wcet_program(3);
        let mut mc = tempo_ta::ModelChecker::new(&p.net);
        assert!(mc.reachable(&p.terminated()).reachable);
        // The paper's liveness operator applies: the program always exits.
        let (live, _) = tempo_ta::leads_to_governed(
            &p.net,
            &StateFormula::at(p.cpu, LocationId(0)),
            &p.terminated(),
            &Budget::unlimited(),
        )
        .into_value();
        assert!(live.holds());
    }
}
