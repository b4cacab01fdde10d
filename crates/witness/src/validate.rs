//! The independent replay validator.
//!
//! [`replay`] re-executes a [`ConcreteTrace`] step by step against the
//! raw network semantics (see [`crate::semantics`]) and rejects it with
//! a typed [`WitnessError`] the moment any rule is broken: a delay in an
//! urgent situation, an unsatisfied guard, an illegal synchronization,
//! or a successor state that does not match the recorded one. It shares
//! no code with the exploration engines whose answers it checks.
//!
//! [`replay_run`] does the same for a stochastic [`tempo_smc::Run`],
//! whose clock values are `f64`: discrete state parts are compared
//! exactly and real-valued parts within a `1e-9` tolerance.

use crate::error::WitnessError;
use crate::semantics::{RState, Replayer};
use crate::trace::{ConcreteTrace, TraceSemantics};
use tempo_cora::PricedNetwork;
use tempo_smc::Run;
use tempo_ta::{AutomatonId, ClockAtom, Network, StateFormula};

/// Tolerance for comparing `f64` clock values during stochastic replay.
const F64_TOL: f64 = 1e-9;

/// Replays a concrete trace against the network and, if given, checks
/// that the final state satisfies `goal`. Returns the first violation
/// as a typed error.
///
/// # Errors
///
/// Every semantic violation has its own [`WitnessError`] variant; see
/// the enum for the full catalogue.
pub fn replay(
    net: &Network,
    trace: &ConcreteTrace,
    goal: Option<&StateFormula>,
) -> Result<(), WitnessError> {
    let atoms = goal.map(StateFormula::clock_atoms).unwrap_or_default();
    let (r, states) = replay_internal(net, trace, &atoms)?;
    if let Some(g) = goal {
        let last = states
            .last()
            .expect("replay keeps at least the initial state");
        if !r.eval_formula(last, g) {
            return Err(WitnessError::GoalNotSatisfied);
        }
    }
    Ok(())
}

/// Replays a trace and returns the replayer plus the state sequence
/// (initial state first, then one state per step). Used by the
/// certificate checkers to recompute per-step quantities (e.g. costs).
/// `atoms` are the checked formula's clock constraints, which widen the
/// digital clamp.
pub(crate) fn replay_internal<'n>(
    net: &'n Network,
    trace: &ConcreteTrace,
    atoms: &[ClockAtom],
) -> Result<(Replayer<'n>, Vec<RState>), WitnessError> {
    if trace.denom < 1 {
        return Err(WitnessError::Malformed(format!(
            "denominator {} must be >= 1",
            trace.denom
        )));
    }
    if trace.semantics == TraceSemantics::Digital && trace.denom != 1 {
        return Err(WitnessError::Malformed(
            "digital traces must use denominator 1".to_owned(),
        ));
    }
    let r = Replayer::new(net, trace.semantics, trace.denom, atoms);
    let init = r.decode(&trace.initial)?;
    if init != r.initial() {
        return Err(WitnessError::WrongInitialState);
    }
    let mut states = vec![init];
    for (i, step) in trace.steps.iter().enumerate() {
        let cur = states.last().expect("non-empty");
        if step.delay < 0 {
            return Err(WitnessError::WrongDelay { step: i });
        }
        // Urgency is clock-independent (urgent-channel edges carry no
        // clock guards), and invariants are convex: one check for the
        // whole delay plus one at its endpoint suffices.
        if step.delay > 0 && !r.can_delay(cur) {
            return Err(WitnessError::DelayForbidden { step: i });
        }
        let clocks = r.delayed_clocks(&cur.clocks, step.delay);
        if let Some(a) = r.invariant_violation(&cur.locs, &clocks) {
            return Err(WitnessError::InvariantViolated {
                step: i,
                automaton: a,
            });
        }
        let mid = RState {
            locs: cur.locs.clone(),
            store: cur.store.clone(),
            clocks,
        };
        let next = match &step.action {
            Some(action) => {
                r.check_action(&mid, action, i)?;
                r.apply_action(&mid, action, i)?
            }
            None => mid,
        };
        if r.to_concrete(&next) != step.state {
            return Err(WitnessError::StateMismatch { step: i });
        }
        states.push(next);
    }
    Ok((r, states))
}

/// Replays a stochastic run sampled by [`tempo_smc::Simulator`]. The
/// discrete parts (locations, variables, move labels) are validated
/// exactly; clock values and delays within an absolute tolerance of
/// `1e-9`. The stochastic race itself is not re-derived (any legal
/// resolution is accepted), but every step must be a legal timed
/// transition of the network that reproduces the recorded successor: in
/// particular no step may delay while an urgent or committed location
/// is occupied or a move on an urgent channel is enabled.
///
/// # Errors
///
/// Typed [`WitnessError`]s as for [`replay`].
pub fn replay_run(net: &Network, run: &Run) -> Result<(), WitnessError> {
    let r = Replayer::data_only(net);
    check_run_start(net, run)?;
    let mut cur = &run.initial;
    for (i, step) in run.steps.iter().enumerate() {
        let mid = run_delay(net, &r, cur, step, i)?;
        let next = if step.label == "delay" {
            mid
        } else {
            find_matching_move(net, &r, &mid, step, i, None)?
        };
        if !states_close(&next, &step.state) {
            return Err(WitnessError::StateMismatch { step: i });
        }
        cur = &step.state;
    }
    Ok(())
}

/// Replays a priced stochastic run and re-sums its accumulated cost.
///
/// Beyond the legality checks of [`replay_run`], each non-delay step
/// must carry its recorded participants (the exact synchronizing edges)
/// and those participants must be one of the legal joint moves at the
/// step's state — the edge prices of a *different* move with the same
/// label cannot be substituted. The returned cost is accumulated in
/// recording order (`delay × Σ location rates`, then the participating
/// edges' prices), so a simulator that sums the same way reproduces it
/// bit-for-bit.
///
/// # Errors
///
/// Typed [`WitnessError`]s as for [`replay_run`];
/// [`WitnessError::IllegalMove`] when a step's recorded participants do
/// not form a legal joint move.
pub fn replay_priced_run(pnet: &PricedNetwork, run: &Run) -> Result<f64, WitnessError> {
    let net = pnet.network();
    let r = Replayer::data_only(net);
    check_run_start(net, run)?;
    let mut cur = &run.initial;
    let mut cost = 0.0_f64;
    for (i, step) in run.steps.iter().enumerate() {
        let mid = run_delay(net, &r, cur, step, i)?;
        // Locations are fixed during the delay, so the whole delay is
        // priced at the pre-state's rate sum.
        let rate_sum: i64 = cur
            .locs
            .iter()
            .enumerate()
            .map(|(ai, &l)| pnet.rate(AutomatonId(ai), l))
            .sum();
        cost += step.delay * rate_sum as f64;
        let next = if step.label == "delay" {
            mid
        } else {
            if step.participants.is_empty() {
                return Err(WitnessError::IllegalMove {
                    step: i,
                    reason: "priced step records no participants".to_owned(),
                });
            }
            let next = find_matching_move(net, &r, &mid, step, i, Some(&step.participants))?;
            cost += step
                .participants
                .iter()
                .map(|&(ai, ei, _)| pnet.edge_cost(AutomatonId(ai), ei))
                .sum::<i64>() as f64;
            next
        };
        if !states_close(&next, &step.state) {
            return Err(WitnessError::StateMismatch { step: i });
        }
        cur = &step.state;
    }
    Ok(cost)
}

/// Checks that a stochastic run starts in the network's initial state.
fn check_run_start(net: &Network, run: &Run) -> Result<(), WitnessError> {
    let initial = &run.initial;
    let init_ok = initial.locs.len() == net.automata().len()
        && initial
            .locs
            .iter()
            .zip(net.automata())
            .all(|(&l, a)| l == a.initial)
        && initial.store.as_slice() == net.decls().initial_store().as_slice()
        && initial.clocks.len() == net.dim()
        && initial.clocks.iter().all(|&c| c.abs() <= F64_TOL)
        && initial.time.abs() <= F64_TOL;
    if init_ok {
        Ok(())
    } else {
        Err(WitnessError::WrongInitialState)
    }
}

/// The state after step `i`'s delay from `cur`. The delay must be finite
/// and non-negative, may be positive only when the replayer lets time
/// pass in `cur`, and must keep every invariant.
fn run_delay(
    net: &Network,
    r: &Replayer<'_>,
    cur: &tempo_smc::ConcreteState,
    step: &tempo_smc::RunStep,
    i: usize,
) -> Result<tempo_smc::ConcreteState, WitnessError> {
    if step.delay < -F64_TOL || !step.delay.is_finite() {
        return Err(WitnessError::WrongDelay { step: i });
    }
    if step.delay > F64_TOL && !r.can_delay(&probe(net, cur)) {
        return Err(WitnessError::DelayForbidden { step: i });
    }
    let mut mid = cur.clone();
    for (k, c) in mid.clocks.iter_mut().enumerate() {
        if k != 0 {
            *c += step.delay;
        }
    }
    mid.time += step.delay;
    if let Some(a) = invariant_violation_f64(net, &mid) {
        return Err(WitnessError::InvariantViolated {
            step: i,
            automaton: a,
        });
    }
    Ok(mid)
}

/// The discrete part of an `f64` state, for the clockless replayer.
fn probe(net: &Network, s: &tempo_smc::ConcreteState) -> RState {
    RState {
        locs: s.locs.clone(),
        store: s.store.clone(),
        clocks: vec![0; net.dim()],
    }
}

fn atom_holds_f64(atom: &ClockAtom, clocks: &[f64]) -> bool {
    if atom.bound.is_inf() {
        return true;
    }
    let d = clocks[atom.i.index()] - clocks[atom.j.index()];
    let c = atom.bound.constant() as f64;
    if atom.bound.is_strict() {
        d < c
    } else {
        d <= c + F64_TOL
    }
}

fn invariant_violation_f64(net: &Network, s: &tempo_smc::ConcreteState) -> Option<usize> {
    net.automata().iter().zip(&s.locs).position(|(a, &l)| {
        a.locations[l.index()]
            .invariant
            .iter()
            .any(|atom| !atom_holds_f64(atom, &s.clocks))
    })
}

/// Searches the data-level joint moves for one with the recorded label
/// whose clock guards hold at the `f64` valuation and whose application
/// reproduces the recorded successor. With `expected` set, only the
/// joint move with exactly those participants qualifies — priced
/// replay must pin down the edges whose prices it re-sums.
fn find_matching_move(
    net: &Network,
    r: &Replayer<'_>,
    mid: &tempo_smc::ConcreteState,
    step: &tempo_smc::RunStep,
    i: usize,
    expected: Option<&[(usize, usize, Vec<i64>)]>,
) -> Result<tempo_smc::ConcreteState, WitnessError> {
    // Enumerate candidates at the data level (the clockless replayer
    // ignores clock guards; they are re-checked here in f64).
    let mut label_seen = false;
    for (action, _) in r.enumerate_moves(&probe(net, mid)) {
        if action.label != step.label {
            continue;
        }
        if let Some(exp) = expected {
            if action.participants != exp {
                continue;
            }
        }
        label_seen = true;
        let guards_ok = action.participants.iter().all(|&(ai, ei, _)| {
            net.automata()[ai].edges[ei]
                .guard_clocks
                .iter()
                .all(|atom| atom_holds_f64(atom, &mid.clocks))
        });
        if !guards_ok {
            continue;
        }
        if let Some(next) = apply_f64(net, mid, &action.participants) {
            if states_close(&next, &step.state) {
                return Ok(next);
            }
        }
    }
    if label_seen {
        Err(WitnessError::StateMismatch { step: i })
    } else {
        let reason = if expected.is_some() {
            format!(
                "recorded participants are not a legal `{}` move",
                step.label
            )
        } else {
            format!("no enabled move labelled `{}`", step.label)
        };
        Err(WitnessError::IllegalMove { step: i, reason })
    }
}

fn apply_f64(
    net: &Network,
    state: &tempo_smc::ConcreteState,
    participants: &[(usize, usize, Vec<i64>)],
) -> Option<tempo_smc::ConcreteState> {
    let decls = net.decls();
    let mut next = state.clone();
    for &(ai, ei, ref sel) in participants {
        let e = &net.automata()[ai].edges[ei];
        // Select bindings are enumerated, not recorded, so re-check them.
        if sel.len() != e.selects.len() {
            return None;
        }
        for (clock, value) in &e.resets {
            let v = value.eval(decls, &next.store, sel).ok()?;
            if v < 0 {
                return None;
            }
            next.clocks[clock.index()] = v as f64;
        }
        e.update.execute(decls, &mut next.store, sel).ok()?;
        next.locs[ai] = e.to;
    }
    net.automata()
        .iter()
        .zip(&next.locs)
        .all(|(a, &l)| {
            a.locations[l.index()]
                .invariant
                .iter()
                .all(|atom| atom_holds_f64(atom, &next.clocks))
        })
        .then_some(next)
}

fn states_close(a: &tempo_smc::ConcreteState, b: &tempo_smc::ConcreteState) -> bool {
    a.locs == b.locs
        && a.store.as_slice() == b.store.as_slice()
        && a.clocks.len() == b.clocks.len()
        && a.clocks
            .iter()
            .zip(&b.clocks)
            .all(|(x, y)| (x - y).abs() <= F64_TOL)
        && (a.time - b.time).abs() <= F64_TOL
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{random_network, Choices, Shapes};
    use std::collections::{BTreeSet, HashSet, VecDeque};
    use std::ops::ControlFlow;
    use tempo_dbm::Federation;
    use tempo_smc::{RatePolicy, Simulator};
    use tempo_ta::{moves, DigitalExplorer, DigitalState, Explorer};

    type Moves = BTreeSet<(String, Vec<(usize, usize, Vec<i64>)>)>;
    type Successors = BTreeSet<(String, Vec<(usize, usize, Vec<i64>)>, DigitalState)>;

    /// The moves the engines' rule enumerates at one digital state, with
    /// the digital explorer's clock-guard test at the integer clocks.
    fn engine_moves(net: &Network, s: &DigitalState) -> Moves {
        let mut engine = Moves::new();
        let _ = moves::for_each_move(
            net,
            &s.locs,
            &s.store,
            |e, _| e.guard_clocks.iter().all(|atom| atom.holds_at(&s.clocks)),
            |mv| {
                engine.insert((moves::label(net, mv.sync), mv.participants.to_vec()));
                ControlFlow::Continue(())
            },
        );
        engine
    }

    /// The moves the replayer derives on its own at one digital state,
    /// and those of them its `apply_action` accepts, with successors.
    fn replayed_moves(net: &Network, s: &DigitalState) -> (Moves, Successors) {
        let r = Replayer::new(net, TraceSemantics::Digital, 1, &[]);
        let state = RState {
            locs: s.locs.clone(),
            store: s.store.clone(),
            clocks: s.clocks.clone(),
        };
        let mut moves = Moves::new();
        let mut accepted = Successors::new();
        for (action, _) in r.enumerate_moves(&state) {
            if let Ok(next) = r.apply_action(&state, &action, 0) {
                let next = DigitalState {
                    locs: next.locs,
                    store: next.store,
                    clocks: next.clocks,
                };
                accepted.insert((action.label.clone(), action.participants.clone(), next));
            }
            moves.insert((action.label, action.participants));
        }
        (moves, accepted)
    }

    /// Whether every state of a bounded zone exploration of `net` has
    /// successors exactly when its deadlock federation is not its whole
    /// zone. Returns the number of states without successors.
    fn assert_deadlocks_have_no_escape(net: &Network, n: usize) -> usize {
        let exp = Explorer::new(net);
        let mut stuck = 0;
        let mut seen = Vec::new();
        let mut queue = VecDeque::from([exp.initial_state()]);
        while let Some(s) = queue.pop_front() {
            if seen.len() >= 40 || seen.contains(&s) {
                continue;
            }
            let succs = exp.successors(&s);
            let zone = Federation::from_zones(net.dim(), vec![s.zone.clone()]);
            let dead = exp.deadlock_federation(&s);
            assert_eq!(
                succs.is_empty(),
                dead.same_set(&zone),
                "network {n} at {s:?}"
            );
            stuck += usize::from(succs.is_empty());
            queue.extend(succs.into_iter().map(|(_, next)| next));
            seen.push(s);
        }
        stuck
    }

    /// On random networks with broadcast and urgent channels, committed
    /// locations, out-of-range channel indices, two-select edges,
    /// several receiving edges per automaton, failing updates and
    /// negative resets, the engines agree with the replayer at every
    /// state of a bounded digital exploration: the move rule
    /// (`tempo_ta::moves` under the digital guard test) gives the
    /// replayer's moves, and `DigitalExplorer::moves` fires exactly the
    /// ones the replayer's `apply_action` accepts, to the same
    /// successors. The simulator's runs replay, and the zone deadlock
    /// check calls a state stuck exactly when it has no successor.
    #[test]
    fn engine_moves_match_the_replayers_moves() {
        let mut rng = Shapes(0x2545_f491_4f6c_dd1d);
        let mut states = 0;
        let mut synchronised = 0;
        let mut refused = 0;
        let mut stuck = 0;
        for n in 0..550 {
            let net = random_network(&mut rng, Choices::Dirac);
            let exp = DigitalExplorer::new(&net);
            let mut seen = HashSet::new();
            let mut queue = VecDeque::from([exp.initial_state()]);
            while let Some(s) = queue.pop_front() {
                if seen.len() >= 40 || !seen.insert(s.clone()) {
                    continue;
                }
                let engine = engine_moves(&net, &s);
                let (replayed, accepted) = replayed_moves(&net, &s);
                assert_eq!(engine, replayed, "network {n} at {s:?}");
                let fired = exp.moves(&s);
                let fired_set: Successors = fired
                    .iter()
                    .map(|(mv, next)| (mv.label.clone(), mv.participants.clone(), next.clone()))
                    .collect();
                assert_eq!(fired_set, accepted, "network {n} at {s:?}");
                states += 1;
                synchronised += engine.iter().filter(|(_, p)| p.len() > 1).count();
                refused += engine
                    .iter()
                    .filter(|(_, p)| moves::jump(&net, &s.locs, &s.store, p).is_none())
                    .count();
                queue.extend(fired.into_iter().map(|(_, next)| next));
                queue.extend(exp.tick(&s));
            }
            for seed in 0..3 {
                let run = Simulator::new(&net, RatePolicy::new(), seed).simulate(10.0, 50);
                assert_eq!(replay_run(&net, &run), Ok(()), "network {n}, seed {seed}");
            }
            stuck += assert_deadlocks_have_no_escape(&net, n);
        }
        assert!(states > 2_000, "{states} states compared");
        assert!(synchronised > 3_000, "{synchronised} synchronisations");
        assert!(refused > 1_000, "{refused} moves refused by the jump");
        assert!(stuck > 200, "{stuck} states without successors");
    }
}
