//! Stochastic semantics and run generation for networks of timed
//! automata, following UPPAAL-SMC (Bozga et al., DATE 2012, §II):
//! each component delays according to an exponential distribution when its
//! location is invariant-free, or uniformly over the interval permitted by
//! the invariant; the component with the shortest delay moves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::ControlFlow;
use tempo_dbm::Clock;
use tempo_expr::Store;
use tempo_ta::moves::{self, Participant};
use tempo_ta::{
    AutomatonId, ChannelId, ClockAtom, Edge, LocationId, LocationKind, Network, StateFormula,
};

/// A concrete state of a network: locations, variable store and
/// real-valued clock valuations (index 0 is the reference clock, always
/// `0.0`).
#[derive(Debug, Clone)]
pub struct ConcreteState {
    /// Location of each automaton.
    pub locs: Vec<LocationId>,
    /// Discrete variable values.
    pub store: Store,
    /// Clock values; `clocks[0] == 0.0`.
    pub clocks: Vec<f64>,
    /// Global elapsed time since the start of the run.
    pub time: f64,
}

impl ConcreteState {
    /// Evaluates a [`StateFormula`] over this concrete state.
    #[must_use]
    pub fn satisfies(&self, net: &Network, f: &StateFormula) -> bool {
        match f {
            StateFormula::True => true,
            StateFormula::False => false,
            StateFormula::At(a, l) => self.locs[a.index()] == *l,
            StateFormula::Data(e) => e.eval_bool(net.decls(), &self.store, &[]).unwrap_or(false),
            StateFormula::Clock(atom) => {
                let d = self.clocks[atom.i.index()] - self.clocks[atom.j.index()];
                if atom.bound.is_inf() {
                    true
                } else if atom.bound.is_strict() {
                    d < atom.bound.constant() as f64
                } else {
                    d <= atom.bound.constant() as f64
                }
            }
            StateFormula::Not(g) => !self.satisfies(net, g),
            StateFormula::And(gs) => gs.iter().all(|g| self.satisfies(net, g)),
            StateFormula::Or(gs) => gs.iter().any(|g| self.satisfies(net, g)),
        }
    }
}

/// One step of a simulated run.
#[derive(Debug, Clone)]
pub struct RunStep {
    /// The delay taken before the action.
    pub delay: f64,
    /// A label describing the action (channel or `tau`).
    pub label: String,
    /// The `(automaton, edge, selects)` triples of the joint move that
    /// fired (sender first for synchronizations). Empty for pure delay
    /// steps, and for runs parsed back from a certificate — the
    /// independent replayer re-derives the move from the label instead
    /// of trusting this field.
    pub participants: Vec<(usize, usize, Vec<i64>)>,
    /// The state reached after the action.
    pub state: ConcreteState,
}

/// A finite prefix of a stochastic run.
#[derive(Debug, Clone)]
pub struct Run {
    /// The initial state.
    pub initial: ConcreteState,
    /// The steps taken.
    pub steps: Vec<RunStep>,
    /// Whether the run ended because no component could move (deadlock).
    pub deadlocked: bool,
}

impl Run {
    /// Total elapsed time at the end of the run.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.steps.last().map_or(0.0, |s| s.state.time)
    }

    /// The earliest time at which a state satisfying `f` is observed, if
    /// any (states are inspected after every action; the initial state
    /// counts at time `0`).
    #[must_use]
    pub fn first_hit(&self, net: &Network, f: &StateFormula) -> Option<f64> {
        if self.initial.satisfies(net, f) {
            return Some(0.0);
        }
        self.steps
            .iter()
            .find(|s| s.state.satisfies(net, f))
            .map(|s| s.state.time)
    }

    /// Whether the run satisfies the time-bounded reachability property
    /// `<>≤bound f` (UPPAAL-SMC's `Pr[<=bound](<> f)` run predicate).
    #[must_use]
    pub fn satisfies_eventually(&self, net: &Network, f: &StateFormula, bound: f64) -> bool {
        self.first_hit(net, f).is_some_and(|t| t <= bound)
    }

    /// Whether `f` holds in every observed state up to `bound`
    /// (the run predicate of `Pr[<=bound]([] f)`).
    #[must_use]
    pub fn satisfies_globally(&self, net: &Network, f: &StateFormula, bound: f64) -> bool {
        if !self.initial.satisfies(net, f) {
            return false;
        }
        self.steps
            .iter()
            .take_while(|s| s.state.time <= bound)
            .all(|s| s.state.satisfies(net, f))
    }
}

/// Network-independent rendering: one line per step with location
/// indices, the action label, the delay taken and the absolute time.
impl std::fmt::Display for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let locs = |s: &ConcreteState| {
            s.locs
                .iter()
                .map(|l| l.index().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(f, "t=0 ({})", locs(&self.initial))?;
        for step in &self.steps {
            writeln!(
                f,
                "  --{} @ +{:.3}--> t={:.3} ({})",
                step.label,
                step.delay,
                step.state.time,
                locs(&step.state)
            )?;
        }
        if self.deadlocked {
            writeln!(f, "  [deadlocked]")?;
        }
        Ok(())
    }
}

/// Exponential-delay rates per automaton location. The paper's train-gate
/// example uses rate `1 + id` for train `id` in the invariant-free `Safe`
/// location.
#[derive(Debug, Clone, Default)]
pub struct RatePolicy {
    default: f64,
    rates: HashMap<(AutomatonId, LocationId), f64>,
}

impl RatePolicy {
    /// Uniform default rate `1.0` for all invariant-free locations.
    #[must_use]
    pub fn new() -> Self {
        RatePolicy {
            default: 1.0,
            rates: HashMap::new(),
        }
    }

    /// Sets the default rate.
    #[must_use]
    pub fn with_default(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "rates must be positive");
        self.default = rate;
        self
    }

    /// Sets the rate of one location.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn set(&mut self, a: AutomatonId, l: LocationId, rate: f64) {
        assert!(rate > 0.0, "rates must be positive");
        self.rates.insert((a, l), rate);
    }

    /// The rate of a location.
    #[must_use]
    pub fn rate(&self, a: AutomatonId, l: LocationId) -> f64 {
        self.rates.get(&(a, l)).copied().unwrap_or(self.default)
    }
}

impl tempo_obs::StableDigest for RatePolicy {
    /// Structural fingerprint of the rate assignment. Explicit entries
    /// equal to the default are dropped first (they are observationally
    /// identical to unset locations) and the rest fold commutatively —
    /// `HashMap` iteration order is meaningless.
    fn digest(&self, h: &mut tempo_obs::StableHasher) {
        h.write_tag("rate-policy");
        h.write_f64(self.default);
        h.write_unordered(
            self.rates
                .iter()
                .filter(|&(_, &r)| r.to_bits() != self.default.to_bits())
                .map(|(&(a, l), &r)| tempo_obs::Fingerprint::of(&(a.index(), l.index(), r))),
        );
    }
}

/// A stochastic simulator for a network of timed automata.
///
/// ```
/// use tempo_ta::NetworkBuilder;
/// use tempo_smc::{Simulator, RatePolicy};
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// a.edge(l0, l0).done();
/// a.done();
/// let net = b.build();
/// let mut sim = Simulator::new(&net, RatePolicy::new(), 42);
/// let run = sim.simulate(10.0, 1000);
/// assert!(run.duration() <= 10.0 + 1e-9 || run.deadlocked);
/// ```
#[derive(Debug)]
pub struct Simulator<'n> {
    net: &'n Network,
    rates: RatePolicy,
    rng: StdRng,
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with the given rate policy and RNG seed.
    #[must_use]
    pub fn new(net: &'n Network, rates: RatePolicy, seed: u64) -> Self {
        Simulator {
            net,
            rates,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The initial concrete state.
    #[must_use]
    pub fn initial_state(&self) -> ConcreteState {
        ConcreteState {
            locs: self.net.automata().iter().map(|a| a.initial).collect(),
            store: self.net.decls().initial_store(),
            clocks: vec![0.0; self.net.dim()],
            time: 0.0,
        }
    }

    /// Simulates one run up to `time_bound` elapsed time or `max_steps`
    /// actions, whichever comes first.
    pub fn simulate(&mut self, time_bound: f64, max_steps: usize) -> Run {
        let initial = self.initial_state();
        self.simulate_from(initial, time_bound, max_steps)
    }

    /// Simulates one run starting from an arbitrary concrete state,
    /// continuing until the *absolute* horizon `time_bound` (compared
    /// against `start.time`, which need not be zero) or `max_steps`
    /// actions: [`Self::simulate_until`] with a `stop` that never holds.
    pub fn simulate_from(
        &mut self,
        start: ConcreteState,
        time_bound: f64,
        max_steps: usize,
    ) -> Run {
        self.simulate_until(start, time_bound, max_steps, |_| false)
    }

    /// The run loop: simulates from `start` until the *absolute* horizon
    /// `time_bound` or `max_steps` actions, and ends the run right after
    /// the first state for which `stop` holds. If `start` itself
    /// satisfies `stop`, the run has no steps.
    ///
    /// The returned run is exactly the prefix of the
    /// [`Self::simulate_from`] run from the same seed, up to and
    /// including that state: the stop only decides when to quit drawing
    /// random numbers, never which ones are drawn. So a reader that looks
    /// at nothing after the first `stop` state, such as
    /// [`Run::first_hit`] with the same formula, gets the same answer
    /// from either run. The statistical checkers use this to end each
    /// trial at its decisive state. The importance-splitting engine uses
    /// it to continue trajectories from stored level-entry states;
    /// appending the returned steps to the prefix that produced `start`
    /// yields a legal run of the network from its initial state.
    pub fn simulate_until(
        &mut self,
        start: ConcreteState,
        time_bound: f64,
        max_steps: usize,
        mut stop: impl FnMut(&ConcreteState) -> bool,
    ) -> Run {
        let initial = start;
        let mut steps = Vec::new();
        let mut deadlocked = false;
        if stop(&initial) {
            return Run {
                initial,
                steps,
                deadlocked,
            };
        }
        let mut state = initial.clone();
        for _ in 0..max_steps {
            if state.time >= time_bound {
                break;
            }
            match self.step(&state, time_bound - state.time) {
                StepOutcome::Action {
                    delay,
                    label,
                    participants,
                    next,
                } => {
                    if state.time + delay > time_bound {
                        // The property horizon is reached during the delay.
                        let mut cut = state.clone();
                        let d = time_bound - state.time;
                        advance(&mut cut, d);
                        steps.push(RunStep {
                            delay: d,
                            label: "delay".to_owned(),
                            participants: Vec::new(),
                            state: cut,
                        });
                        break;
                    }
                    let done = stop(&next);
                    steps.push(RunStep {
                        delay,
                        label,
                        participants,
                        state: next.clone(),
                    });
                    if done {
                        break;
                    }
                    state = next;
                }
                StepOutcome::Quiet { next } => {
                    // Nothing happened until the horizon: record the final
                    // delay so time-indexed properties see the full run.
                    let delay = next.time - state.time;
                    steps.push(RunStep {
                        delay,
                        label: "delay".to_owned(),
                        participants: Vec::new(),
                        state: next,
                    });
                    break;
                }
                StepOutcome::Timelock => {
                    deadlocked = true;
                    break;
                }
            }
        }
        Run {
            initial,
            steps,
            deadlocked,
        }
    }

    /// Samples one stochastic step: the racing delays, the winning
    /// component, and a uniformly chosen enabled move, drawn by its
    /// position in the order of [`moves::for_each_move`]. Every delay is
    /// zero while an urgent or committed location is occupied or a move
    /// on an urgent channel is enabled, as in the zone and digital
    /// engines. When the race winner lands at an instant with no enabled
    /// action, the delay is kept and the race is re-run (UPPAAL-SMC
    /// re-samples). Re-racing stops at `budget` elapsed time
    /// ([`StepOutcome::Quiet`]); [`StepOutcome::Timelock`] signals that
    /// time is blocked with no action enabled.
    fn step(&mut self, state: &ConcreteState, budget: f64) -> StepOutcome {
        let mut current = state.clone();
        let mut total_delay = 0.0_f64;
        let mut stalled = 0_u32;
        loop {
            // Urgency: an urgent or committed location, or an enabled
            // move on an urgent channel, forces delay 0.
            let urgent = current
                .locs
                .iter()
                .zip(self.net.automata())
                .any(|(&l, a)| a.locations[l.index()].kind != LocationKind::Normal)
                || moves::for_each_urgent_move(
                    self.net,
                    &current.locs,
                    &current.store,
                    |e, _| clock_guards_hold(e, &current.clocks),
                    |_| ControlFlow::Break(()),
                )
                .is_break();
            // Sample each automaton's intended delay.
            let mut best: Option<(usize, f64)> = None;
            for (ai, _) in self.net.automata().iter().enumerate() {
                let delay = if urgent {
                    0.0
                } else {
                    match self.max_invariant_delay(&current, ai) {
                        Some(ub) => self.rng.gen_range(0.0..=ub.max(0.0)),
                        None => {
                            let rate = self.rates.rate(AutomatonId(ai), current.locs[ai]);
                            // Inverse-transform sampling of Exp(rate).
                            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                            -u.ln() / rate
                        }
                    }
                };
                if best.is_none_or(|(_, d)| delay < d) {
                    best = Some((ai, delay));
                }
            }
            let Some((winner, delay)) = best else {
                return StepOutcome::Timelock;
            };
            if total_delay + delay >= budget {
                // The horizon passes during this quiet delay: advance
                // exactly to the budget's end.
                let mut cut = current.clone();
                advance(&mut cut, budget - total_delay);
                return StepOutcome::Quiet { next: cut };
            }
            let mut advanced = current.clone();
            advance(&mut advanced, delay);
            // The race winner initiates the next action (the paper: "the
            // train picking the shortest delay moves"); if it has nothing
            // to initiate, any enabled component may move instead. While
            // time cannot pass every component draws 0, so the race has
            // no winner and every enabled move stays a candidate.
            let mut enabled = self.enabled_moves(&advanced);
            let initiated_by_winner = |m: &Enabled| m.participants[0].0 == winner;
            if !urgent && enabled.iter().any(initiated_by_winner) {
                enabled.retain(initiated_by_winner);
            }
            if !enabled.is_empty() {
                if let Some((label, participants, next)) = self.pick(&enabled, &advanced) {
                    return StepOutcome::Action {
                        delay: total_delay + delay,
                        label,
                        participants,
                        next,
                    };
                }
            }
            // No action at this instant: keep the delay and re-race.
            if delay <= f64::EPSILON {
                stalled += 1;
                if stalled > 100 {
                    return StepOutcome::Timelock;
                }
            } else {
                stalled = 0;
            }
            total_delay += delay;
            current = advanced;
        }
    }

    fn pick(
        &mut self,
        enabled: &[Enabled],
        state: &ConcreteState,
    ) -> Option<(String, Vec<Participant>, ConcreteState)> {
        let mv = &enabled[self.rng.gen_range(0..enabled.len())];
        let next = self.apply(state, &mv.participants)?;
        Some((
            moves::label(self.net, mv.sync),
            mv.participants.clone(),
            next,
        ))
    }

    /// The maximum delay automaton `ai` may take before violating its own
    /// invariant, or `None` if unbounded.
    fn max_invariant_delay(&self, state: &ConcreteState, ai: usize) -> Option<f64> {
        let a = &self.net.automata()[ai];
        let loc = &a.locations[state.locs[ai].index()];
        let mut ub: Option<f64> = None;
        for atom in &loc.invariant {
            if atom.bound.is_inf() {
                continue;
            }
            // Only upper bounds x - 0 ≺ c constrain delay.
            if !atom.i.is_ref() && atom.j.is_ref() {
                let slack = atom.bound.constant() as f64 - state.clocks[atom.i.index()];
                ub = Some(ub.map_or(slack, |u: f64| u.min(slack)));
            }
        }
        ub.map(|u| u.max(0.0))
    }

    /// All action moves of [`moves::for_each_move`] whose clock guards
    /// hold at the given concrete state, in the rule's order.
    fn enabled_moves(&self, state: &ConcreteState) -> Vec<Enabled> {
        let mut out = Vec::new();
        let _ = moves::for_each_move(
            self.net,
            &state.locs,
            &state.store,
            |e, _| clock_guards_hold(e, &state.clocks),
            |mv| {
                out.push(Enabled {
                    sync: mv.sync,
                    participants: mv.participants.to_vec(),
                });
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// Applies a joint move, returning the successor state, or `None` if
    /// [`moves::jump`] refuses it or a target invariant fails.
    fn apply(&self, state: &ConcreteState, participants: &[Participant]) -> Option<ConcreteState> {
        let jump = moves::jump(self.net, &state.locs, &state.store, participants)?;
        let mut clocks = state.clocks.clone();
        for (clock, v) in jump.resets {
            clocks[clock.index()] = v as f64;
        }
        let invariants_hold = self.net.automata().iter().zip(&jump.locs).all(|(a, &l)| {
            a.locations[l.index()]
                .invariant
                .iter()
                .all(|atom| atom_holds(atom, &clocks))
        });
        invariants_hold.then_some(ConcreteState {
            locs: jump.locs,
            store: jump.store,
            clocks,
            time: state.time,
        })
    }
}

/// Whether every clock guard of `e` holds at the real-valued clocks.
fn clock_guards_hold(e: &Edge, clocks: &[f64]) -> bool {
    e.guard_clocks.iter().all(|atom| atom_holds(atom, clocks))
}

/// Whether a guard or invariant atom holds at real-valued clocks, with
/// `1e-12` of slack on a non-strict bound against rounding.
fn atom_holds(atom: &ClockAtom, clocks: &[f64]) -> bool {
    let d = clocks[atom.i.index()] - clocks[atom.j.index()];
    if atom.bound.is_inf() {
        true
    } else if atom.bound.is_strict() {
        d < atom.bound.constant() as f64
    } else {
        d <= atom.bound.constant() as f64 + 1e-12
    }
}

/// Result of sampling one stochastic step.
enum StepOutcome {
    /// An action fired after `delay`.
    Action {
        delay: f64,
        label: String,
        participants: Vec<(usize, usize, Vec<i64>)>,
        next: ConcreteState,
    },
    /// Nothing fired before the time budget ran out; `next` is the state
    /// advanced to the budget's end.
    Quiet { next: ConcreteState },
    /// Time is blocked and no action is enabled.
    Timelock,
}

/// An enabled joint move, kept until the race picks one.
#[derive(Debug)]
struct Enabled {
    sync: Option<(ChannelId, i64)>,
    participants: Vec<Participant>,
}

fn advance(state: &mut ConcreteState, d: f64) {
    for (i, c) in state.clocks.iter_mut().enumerate() {
        if i != Clock::REF.index() {
            *c += d;
        }
    }
    state.time += d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::NetworkBuilder;

    fn ping_pong() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let c = b.channel("c");
        let mut p = b.automaton("Ping");
        let p0 = p.location_with_invariant("P0", vec![ClockAtom::le(x, 2)]);
        let p1 = p.location("P1");
        p.edge(p0, p1).send(c).reset(x, 0).done();
        p.edge(p1, p0).recv(c).done();
        p.done();
        let mut q = b.automaton("Pong");
        let q0 = q.location("Q0");
        q.edge(q0, q0).recv(c).done();
        q.edge(q0, q0).send(c).done();
        q.done();
        b.build()
    }

    #[test]
    fn runs_respect_time_bound() {
        let net = ping_pong();
        let mut sim = Simulator::new(&net, RatePolicy::new(), 7);
        for _ in 0..20 {
            let run = sim.simulate(50.0, 10_000);
            assert!(run.duration() <= 50.0 + 1e-9);
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let net = ping_pong();
        let mut s1 = Simulator::new(&net, RatePolicy::new(), 123);
        let mut s2 = Simulator::new(&net, RatePolicy::new(), 123);
        let r1 = s1.simulate(20.0, 1000);
        let r2 = s2.simulate(20.0, 1000);
        assert_eq!(r1.steps.len(), r2.steps.len());
        assert!((r1.duration() - r2.duration()).abs() < 1e-12);
    }

    #[test]
    fn invariant_bounds_delays() {
        // Single automaton with invariant x <= 3 and a reset loop: the
        // clock must never exceed 3.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 3)]);
        a.edge(l0, l0).reset(x, 0).done();
        a.done();
        let net = b.build();
        let mut sim = Simulator::new(&net, RatePolicy::new(), 5);
        let run = sim.simulate(100.0, 10_000);
        for step in &run.steps {
            assert!(step.state.clocks[1] <= 3.0 + 1e-9);
        }
    }

    /// One move from `L0` to the dead end `L1` within one time unit.
    fn one_shot() -> (Network, AutomatonId, LocationId) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 1)]);
        let l1 = a.location("L1");
        a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 0)).done();
        let aid = a.done();
        (b.build(), aid, l1)
    }

    #[test]
    fn first_hit_and_eventually() {
        let (net, aid, l1) = one_shot();
        let mut sim = Simulator::new(&net, RatePolicy::new(), 1);
        let run = sim.simulate(10.0, 100);
        let goal = StateFormula::at(aid, l1);
        let hit = run
            .first_hit(&net, &goal)
            .expect("L1 reached within 1 time unit");
        assert!(hit <= 1.0 + 1e-9);
        assert!(run.satisfies_eventually(&net, &goal, 2.0));
        assert!(run.satisfies_globally(&net, &StateFormula::True, 10.0));
    }

    /// Two automata race to set the flag `winner` to their id; `Fast`
    /// has rate 50 and `Slow` rate 0.5.
    fn race() -> (Network, RatePolicy, tempo_expr::VarId) {
        let mut b = NetworkBuilder::new();
        let winner = b.decls_mut().int("winner", 0, 2);
        let mk = |b: &mut NetworkBuilder, name: &str, id: i64| {
            let mut a = b.automaton(name);
            let l0 = a.location("L0");
            let l1 = a.location("L1");
            a.edge(l0, l1)
                .guard_data(tempo_expr::Expr::var(winner).eq(tempo_expr::Expr::konst(0)))
                .update(tempo_expr::Stmt::assign(
                    winner,
                    tempo_expr::Expr::konst(id),
                ))
                .done();
            (a.done(), l0)
        };
        let (fast, fast_l0) = mk(&mut b, "Fast", 1);
        let (slow, slow_l0) = mk(&mut b, "Slow", 2);
        let net = b.build();
        let mut rates = RatePolicy::new();
        rates.set(fast, fast_l0, 50.0);
        rates.set(slow, slow_l0, 0.5);
        (net, rates, winner)
    }

    #[test]
    fn exponential_rates_affect_race() {
        // The component with the much higher rate should win most of the
        // time.
        let (net, rates, winner) = race();
        let mut sim = Simulator::new(&net, rates, 99);
        let mut fast_wins = 0;
        for _ in 0..100 {
            let run = sim.simulate(1000.0, 100);
            let final_store = run.steps.last().map(|s| &s.state.store);
            if let Some(st) = final_store {
                if st.get(winner) == 1 {
                    fast_wins += 1;
                }
            }
        }
        assert!(
            fast_wins > 80,
            "fast component won only {fast_wins}/100 races"
        );
    }

    /// Asserts that two states are equal, comparing `f64`s bit for bit.
    fn assert_same_state(a: &ConcreteState, b: &ConcreteState) {
        assert_eq!(a.locs, b.locs);
        assert_eq!(a.store, b.store);
        let bits = |s: &ConcreteState| s.clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.time.to_bits(), b.time.to_bits());
    }

    /// For 16 seeds, checks that `simulate_until` returns exactly the
    /// prefix of the `simulate_from` run up to and including its first
    /// `stop` state. Returns on how many seeds that state came before
    /// the end of the full run.
    fn assert_stops_at_first_stop_state(
        net: &Network,
        rates: &RatePolicy,
        horizon: f64,
        stop: impl Fn(&ConcreteState) -> bool,
    ) -> usize {
        let mut cut_short = 0;
        for seed in 0..16 {
            let sim = || Simulator::new(net, rates.clone(), seed);
            let start = sim().initial_state();
            let full = sim().simulate_from(start.clone(), horizon, 1_000);
            let run = sim().simulate_until(start, horizon, 1_000, &stop);
            let first = std::iter::once(&full.initial)
                .chain(full.steps.iter().map(|s| &s.state))
                .position(&stop);
            let len = first.unwrap_or(full.steps.len());
            assert_eq!(run.steps.len(), len, "seed {seed}");
            assert_same_state(&run.initial, &full.initial);
            for (a, b) in run.steps.iter().zip(&full.steps) {
                assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "seed {seed}");
                assert_eq!(a.label, b.label, "seed {seed}");
                assert_eq!(a.participants, b.participants, "seed {seed}");
                assert_same_state(&a.state, &b.state);
            }
            assert_eq!(run.deadlocked, full.deadlocked && first.is_none());
            if len < full.steps.len() {
                cut_short += 1;
            }
        }
        cut_short
    }

    #[test]
    fn simulate_until_is_the_prefix_up_to_the_first_stop_state() {
        let rates = RatePolicy::new();
        let pp = ping_pong();
        let at_p1 = |s: &ConcreteState| s.locs[0] == LocationId(1);
        assert!(assert_stops_at_first_stop_state(&pp, &rates, 20.0, at_p1) > 0);
        let late = |s: &ConcreteState| s.time > 7.5;
        assert!(assert_stops_at_first_stop_state(&pp, &rates, 20.0, late) > 0);
        let x_high = |s: &ConcreteState| s.clocks[1] > 1.5;
        assert!(assert_stops_at_first_stop_state(&pp, &rates, 20.0, x_high) > 0);
        let (shot, aid, l1) = one_shot();
        let goal = StateFormula::at(aid, l1);
        let hit = |s: &ConcreteState| s.satisfies(&shot, &goal);
        assert_eq!(
            assert_stops_at_first_stop_state(&shot, &rates, 10.0, hit),
            16
        );
        let (race, race_rates, winner) = race();
        let won = |s: &ConcreteState| s.store.get(winner) != 0;
        assert_eq!(
            assert_stops_at_first_stop_state(&race, &race_rates, 1000.0, won),
            16
        );
        // A never-true stop returns the full run; one that holds at the
        // start returns no steps.
        for net in [&pp, &shot, &race] {
            assert_eq!(
                assert_stops_at_first_stop_state(net, &rates, 20.0, |_| false),
                0
            );
            let start = Simulator::new(net, rates.clone(), 3).initial_state();
            let run =
                Simulator::new(net, rates.clone(), 3).simulate_until(start, 20.0, 1_000, |_| true);
            assert!(run.steps.is_empty() && !run.deadlocked);
        }
    }
}
