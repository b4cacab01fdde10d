//! # tempo-tiga — timed-game strategy synthesis
//!
//! The UPPAAL-TIGA analogue of the workspace (Bozga et al., DATE 2012,
//! §II): timed *game* automata partition edges between a controller
//! (solid, [`controllable`]) and the environment (dashed,
//! [`EdgeBuilder::uncontrollable`]); the tool synthesizes winning control
//! strategies for reachability and safety objectives — e.g. deciding when
//! to stop and restart the paper's trains instead of hand-writing the
//! controller (Fig. 2/3).
//!
//! The paper's tool works on-the-fly over zones; this reproduction solves
//! the equivalent discrete game over the digital-clocks graph
//! ([`tempo_ta::DigitalExplorer`]), exact for closed models, using the
//! classic controllable-predecessor fixpoints:
//!
//! * **Reachability**: `W` grows from the goal; a state is winning if all
//!   uncontrollable moves stay in `W` *and* the controller can either fire
//!   a controllable move into `W` or let time pass into `W`.
//! * **Safety**: `W` shrinks from the non-bad states; a state stays
//!   winning if all uncontrollable moves remain in `W` and the controller
//!   can keep the game in `W` (delay or a controllable move).
//!
//! [`controllable`]: tempo_ta::Edge#structfield.controllable
//! [`EdgeBuilder::uncontrollable`]: tempo_ta::EdgeBuilder::uncontrollable

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use tempo_conc::run_blocks;
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_ta::flow::FlowMetrics;
use tempo_ta::{DigitalError, DigitalExplorer, DigitalMove, DigitalState, Network, StateFormula};

/// What the synthesized controller prescribes in a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyMove {
    /// Let time elapse (take no controllable action yet).
    Wait,
    /// Fire the given controllable move.
    Act(DigitalMove),
}

/// A memoryless winning strategy over digital states.
///
/// When the game was solved on an actively-reduced network (see
/// [`tempo_ta::ClockReduction`]), the strategy keys its states in the
/// reduced clock space and carries the projection; [`Strategy::decide`]
/// accepts full-network states and projects them transparently, so
/// callers never observe the reduction.
#[derive(Debug, Clone, Default)]
pub struct Strategy {
    moves: HashMap<DigitalState, StrategyMove>,
    /// Original clock indices of the kept clocks (reduced order), when
    /// the solve ran on a reduced network.
    proj: Option<Vec<usize>>,
}

impl Strategy {
    fn key(&self, state: &DigitalState) -> DigitalState {
        match &self.proj {
            None => state.clone(),
            Some(kept) => DigitalState {
                locs: state.locs.clone(),
                store: state.store.clone(),
                clocks: kept.iter().map(|&i| state.clocks[i]).collect(),
            },
        }
    }

    /// The prescription for a state, if the state is winning.
    #[must_use]
    pub fn decide(&self, state: &DigitalState) -> Option<&StrategyMove> {
        self.moves.get(&self.key(state))
    }

    /// Number of states with a prescription.
    #[must_use]
    pub fn size(&self) -> usize {
        self.moves.len()
    }

    /// Whether the state is in the winning region.
    #[must_use]
    pub fn is_winning(&self, state: &DigitalState) -> bool {
        self.moves.contains_key(&self.key(state))
    }

    /// Iterates over the `(state, prescription)` table. States are keyed
    /// in the strategy's own clock space (see [`Strategy::projection`]).
    pub fn prescriptions(&self) -> impl Iterator<Item = (&DigitalState, &StrategyMove)> {
        self.moves.iter()
    }

    /// Original clock indices of the kept clocks when the game was
    /// solved on a reduced network; `None` when states use the full
    /// clock space.
    #[must_use]
    pub fn projection(&self) -> Option<&[usize]> {
        self.proj.as_deref()
    }
}

/// Lists every prescription, one `state -> move` line, sorted for a
/// deterministic rendering of the underlying hash map.
impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut entries: Vec<String> = self
            .moves
            .iter()
            .map(|(s, m)| {
                let locs: Vec<String> = s.locs.iter().map(|l| l.index().to_string()).collect();
                let mv = match m {
                    StrategyMove::Wait => "wait".to_owned(),
                    StrategyMove::Act(m) => m.label.clone(),
                };
                format!("({}) {:?} -> {mv}", locs.join(", "), s.clocks)
            })
            .collect();
        entries.sort_unstable();
        writeln!(f, "strategy over {} states", entries.len())?;
        for e in entries {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Result of a game solution.
#[derive(Debug, Clone)]
pub struct GameResult {
    /// Whether the initial state is winning for the controller.
    pub winning: bool,
    /// The synthesized strategy on the winning region.
    pub strategy: Strategy,
    /// Number of states in the explored game graph.
    pub states: usize,
}

/// The timed-game solver.
#[derive(Debug)]
pub struct GameSolver<'n> {
    exp: DigitalExplorer<'n>,
    threads: usize,
    flow: bool,
}

/// Internal: the explored game graph.
struct Graph {
    states: Vec<DigitalState>,
    index: HashMap<DigitalState, usize>,
    /// Per state: (move, successor index, controllable).
    moves: Vec<Vec<(DigitalMove, usize)>>,
    /// Per state: tick successor index.
    tick: Vec<Option<usize>>,
}

impl<'n> GameSolver<'n> {
    /// Creates a solver for the network (validating closedness).
    ///
    /// # Panics
    ///
    /// Panics if the network contains strict clock bounds; use
    /// [`GameSolver::try_new`] for the non-panicking API.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        Self::try_new(net).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a solver, returning a typed [`DigitalError`] (one
    /// diagnostic per strict clock bound) instead of panicking when the
    /// model is not closed.
    ///
    /// # Errors
    ///
    /// Returns [`DigitalError`] when any guard or invariant uses a
    /// strict bound, for which the digital-game semantics is not exact.
    pub fn try_new(net: &'n Network) -> Result<Self, DigitalError> {
        Ok(GameSolver {
            exp: DigitalExplorer::try_new(net)?,
            threads: 1,
            flow: true,
        })
    }

    /// Disables query-directed slicing, solving the game on the
    /// unreduced network. The verdict and winning region are identical
    /// either way — this switch exists for differential testing and
    /// measurement.
    #[must_use]
    pub fn without_flow(mut self) -> Self {
        self.flow = false;
        self
    }

    /// Statically checks a network before solving games on it: the lint
    /// rules of `tempo-lint` plus the digital-clocks closedness
    /// requirements of the game semantics. On success returns the
    /// non-blocking findings (warnings) for display.
    ///
    /// # Errors
    ///
    /// Returns a typed [`LintError`](tempo_lint::LintError) — never
    /// panics — when the model has error-level findings (or any
    /// finding under [`LintConfig::strict`](tempo_lint::LintConfig)).
    pub fn check_first(
        net: &Network,
        config: &tempo_lint::LintConfig,
    ) -> Result<tempo_lint::LintReport, tempo_lint::LintError> {
        let mut report = tempo_lint::check_network(net);
        if let Err(e) = DigitalExplorer::try_new(net) {
            let lint: tempo_lint::LintError = e.into();
            report.diagnostics.extend(lint.diagnostics);
        }
        report.into_result(config)
    }

    /// Sets the number of worker threads used by the fixpoint sweeps.
    ///
    /// Each sweep tests every state against the previous sweep's winning
    /// region, one contiguous block of states per worker, so the verdict,
    /// the strategy and every run report counter are identical at any
    /// thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Explores the game graph, charging the governor's state budget.
    /// Returns the (possibly truncated) graph and the frontier's
    /// high-water mark; on truncation the governor is left exhausted.
    fn build_graph(exp: &DigitalExplorer<'_>, gov: &Governor) -> (Graph, usize) {
        let mut graph = Graph {
            states: Vec::new(),
            index: HashMap::new(),
            moves: Vec::new(),
            tick: Vec::new(),
        };
        let mut peak = 0usize;
        if !gov.charge_state() {
            return (graph, peak);
        }
        let init = exp.initial_state();
        graph.index.insert(init.clone(), 0);
        graph.states.push(init);
        graph.moves.push(Vec::new());
        graph.tick.push(None);
        peak = 1;
        let mut frontier = vec![0_usize];
        'build: while let Some(i) = frontier.pop() {
            if !gov.check_time() {
                break;
            }
            let state = graph.states[i].clone();
            if let Some(next) = exp.tick(&state) {
                let Some(j) = intern(&mut graph, next, &mut frontier, gov) else {
                    break 'build;
                };
                graph.tick[i] = Some(j);
            }
            for (mv, next) in exp.moves(&state) {
                let Some(j) = intern(&mut graph, next, &mut frontier, gov) else {
                    break 'build;
                };
                graph.moves[i].push((mv, j));
            }
            peak = peak.max(frontier.len());
        }
        (graph, peak)
    }

    /// Query-directed slicing followed by active-clock reduction for one
    /// query: provably disabled edges change neither player's options
    /// (their guards are false in every reachable store), and clocks read
    /// by no remaining guard, invariant or property atom cannot influence
    /// enabledness, so the reduced game is bisimilar to the full one
    /// under clock projection. Returns the solving network, the mapped
    /// property, the projection for the [`Strategy`] (if any reduction
    /// happened) and the dataflow metrics.
    ///
    /// The per-location LU tick clamp of the cost engine is deliberately
    /// *not* used here: strategies are state-indexed artifacts that the
    /// independent witness checker replays against exact digital states,
    /// so coarsening the state abstraction would break the certificate's
    /// strategy lookups.
    fn reduced_for(
        &self,
        prop: &StateFormula,
    ) -> (
        tempo_ta::ClockReduction,
        StateFormula,
        Option<Vec<usize>>,
        FlowMetrics,
    ) {
        let mut metrics = FlowMetrics::default();
        let sliced = self.flow.then(|| tempo_ta::slice(self.exp.network()));
        let base: &Network = sliced.as_ref().map_or(self.exp.network(), |s| &s.net);
        if let Some(s) = &sliced {
            metrics.sliced_edges = s.disabled_edges;
            metrics.vars_narrowed = s.vars_narrowed;
            metrics.sliced_vars = s.dead_vars.len() as u64;
        }
        let reduction = base.reduced_with(&prop.clock_atoms());
        if let Some(s) = &sliced {
            if s.disabled_edges > 0 {
                let plain = self
                    .exp
                    .network()
                    .reduced_with(&prop.clock_atoms())
                    .removed()
                    .len();
                metrics.sliced_clocks = reduction.removed().len().saturating_sub(plain) as u64;
            }
        }
        if reduction.is_reduced() {
            let mapped = reduction
                .map_formula(prop)
                .expect("property atoms are kept alive by reduced_with");
            let proj = Some(reduction.kept());
            (reduction, mapped, proj, metrics)
        } else {
            (reduction, prop.clone(), None, metrics)
        }
    }

    fn game_report(
        &self,
        gov: &Governor,
        states: usize,
        peak: usize,
        sweeps: u64,
        dim: usize,
    ) -> RunReport {
        RunReport {
            states_explored: states as u64,
            states_stored: states as u64,
            peak_waiting: peak as u64,
            sweeps,
            runs_simulated: 0,
            dbm_dim: dim as u64,
            dbm_dim_model: self.exp.network().dim() as u64,
            wall_time: gov.elapsed(),
            ..RunReport::default()
        }
    }

    /// Solves the reachability game: the controller wins by eventually
    /// reaching a state satisfying `goal`, whatever the environment does.
    #[must_use]
    pub fn solve_reachability(&self, goal: &StateFormula) -> GameResult {
        self.solve_reachability_governed(goal, &Budget::unlimited())
            .into_value()
    }

    /// Solves the reachability game under a resource [`Budget`].
    ///
    /// The winning region grows monotonically from the goal (least
    /// fixpoint), so on iteration/wall-clock exhaustion the states ranked
    /// so far are *genuinely* winning: the partial strategy is sound, and
    /// if the initial state is already ranked the verdict is definitive
    /// (`Complete`). Exhaustion during graph exploration yields an empty
    /// strategy with `winning == false` ("not proven winning").
    pub fn solve_reachability_governed(
        &self,
        goal: &StateFormula,
        budget: &Budget,
    ) -> Outcome<GameResult> {
        let gov = budget.governor();
        let (reduction, goal, proj, metrics) = self.reduced_for(goal);
        let exp = DigitalExplorer::new(reduction.network());
        let dim = reduction.network().dim();
        let (graph, peak) = Self::build_graph(&exp, &gov);
        let n = graph.states.len();
        let mut sweeps = 0u64;
        if gov.is_exhausted() {
            let report = metrics.stamp(self.game_report(&gov, n, peak, sweeps, dim));
            return gov.finish(
                GameResult {
                    winning: false,
                    strategy: Strategy::default(),
                    states: n,
                },
                report,
            );
        }
        let is_goal: Vec<bool> = graph
            .states
            .iter()
            .map(|s| exp.satisfies(s, &goal))
            .collect();
        // Least fixpoint of the controllable predecessor, tracking the
        // round in which each state became winning (its *rank*); the
        // strategy moves to strictly smaller ranks, guaranteeing progress
        // toward the goal.
        let mut rank: Vec<Option<usize>> = is_goal
            .iter()
            .map(|&g| if g { Some(0) } else { None })
            .collect();
        let becomes_winning = |i: usize, rank: &[Option<usize>]| -> bool {
            if rank[i].is_some() {
                return false;
            }
            // All uncontrollable moves must stay in W.
            let safe_u = graph.moves[i]
                .iter()
                .filter(|(m, _)| !m.controllable)
                .all(|&(_, j)| rank[j].is_some());
            if !safe_u {
                return false;
            }
            let can_act = graph.moves[i]
                .iter()
                .any(|(m, j)| m.controllable && rank[*j].is_some());
            let can_wait = graph.tick[i].is_some_and(|j| rank[j].is_some());
            // If time is blocked and only uncontrollable moves exist,
            // the environment is forced to move (into W, by safe_u).
            let forced =
                graph.tick[i].is_none() && graph.moves[i].iter().any(|(m, _)| !m.controllable);
            can_act || can_wait || forced
        };
        let mut round = 0_usize;
        loop {
            if !gov.charge_iteration() || !gov.check_time() {
                break;
            }
            sweeps += 1;
            round += 1;
            let added = sweep(n, self.threads, |i| becomes_winning(i, &rank));
            if added.is_empty() {
                break;
            }
            for i in added {
                rank[i] = Some(round);
            }
        }
        let mut strategy = Strategy {
            moves: HashMap::new(),
            proj,
        };
        for i in 0..n {
            let Some(r) = rank[i] else { continue };
            if is_goal[i] {
                strategy
                    .moves
                    .insert(graph.states[i].clone(), StrategyMove::Wait);
                continue;
            }
            // Progress: move to a strictly smaller rank if a controllable
            // move offers one; otherwise wait (tick or forced environment
            // moves decrease the rank by construction).
            let act = graph.moves[i]
                .iter()
                .find(|(m, j)| m.controllable && rank[*j].is_some_and(|rj| rj < r));
            let mv = match act {
                Some((m, _)) => StrategyMove::Act(m.clone()),
                None => StrategyMove::Wait,
            };
            strategy.moves.insert(graph.states[i].clone(), mv);
        }
        let winning = rank.first().is_some_and(Option::is_some);
        let result = GameResult {
            winning,
            strategy,
            states: n,
        };
        let report = metrics.stamp(self.game_report(&gov, n, peak, sweeps, dim));
        if winning {
            // Ranked states are winning even under an interrupted least
            // fixpoint, so a ranked initial state is a definitive verdict.
            gov.finish_complete(result, report)
        } else {
            gov.finish(result, report)
        }
    }

    /// Solves the safety game: the controller wins by forever avoiding
    /// states satisfying `bad`.
    #[must_use]
    pub fn solve_safety(&self, bad: &StateFormula) -> GameResult {
        self.solve_safety_governed(bad, &Budget::unlimited())
            .into_value()
    }

    /// Solves the safety game under a resource [`Budget`].
    ///
    /// The safety fixpoint shrinks from above (greatest fixpoint), so an
    /// interrupted run only has an *over*-approximation of the winning
    /// region — claiming any state winning would be unsound. On
    /// exhaustion the partial result therefore has `winning == false` and
    /// an empty strategy: "no winning strategy proven within the budget".
    pub fn solve_safety_governed(
        &self,
        bad: &StateFormula,
        budget: &Budget,
    ) -> Outcome<GameResult> {
        let gov = budget.governor();
        let (reduction, bad, proj, metrics) = self.reduced_for(bad);
        let exp = DigitalExplorer::new(reduction.network());
        let dim = reduction.network().dim();
        let (graph, peak) = Self::build_graph(&exp, &gov);
        let n = graph.states.len();
        let mut sweeps = 0u64;
        if gov.is_exhausted() {
            let report = metrics.stamp(self.game_report(&gov, n, peak, sweeps, dim));
            return gov.finish(
                GameResult {
                    winning: false,
                    strategy: Strategy::default(),
                    states: n,
                },
                report,
            );
        }
        let mut winning: Vec<bool> = graph
            .states
            .iter()
            .map(|s| !exp.satisfies(s, &bad))
            .collect();
        // Greatest fixpoint: remove states the environment can force out
        // of W or where the controller cannot stay in W.
        let stays_winning = |i: usize, winning: &[bool]| -> bool {
            let safe_u = graph.moves[i]
                .iter()
                .filter(|(m, _)| !m.controllable)
                .all(|&(_, j)| winning[j]);
            // The controller must be able to stay in W when it has to
            // move: delay into W, fire a controllable move into W, or
            // rest in a state where neither time nor actions force an
            // exit (no tick and no moves: a quiescent state).
            let can_wait = graph.tick[i].is_some_and(|j| winning[j]);
            let can_act = graph.moves[i]
                .iter()
                .any(|(m, j)| m.controllable && winning[*j]);
            let quiescent = graph.tick[i].is_none() && graph.moves[i].is_empty();
            // Environment forced to move into W when time is blocked.
            let forced =
                graph.tick[i].is_none() && graph.moves[i].iter().any(|(m, _)| !m.controllable);
            safe_u && (can_wait || can_act || quiescent || forced)
        };
        loop {
            if !gov.charge_iteration() || !gov.check_time() {
                break;
            }
            sweeps += 1;
            let removed = sweep(n, self.threads, |i| {
                winning[i] && !stays_winning(i, &winning)
            });
            if removed.is_empty() {
                break;
            }
            for i in removed {
                winning[i] = false;
            }
        }
        if gov.is_exhausted() {
            // Interrupted greatest fixpoint: `winning` is only an
            // over-approximation; claim nothing.
            let report = metrics.stamp(self.game_report(&gov, n, peak, sweeps, dim));
            return gov.finish(
                GameResult {
                    winning: false,
                    strategy: Strategy::default(),
                    states: n,
                },
                report,
            );
        }
        let mut strategy = Strategy {
            moves: HashMap::new(),
            proj,
        };
        for i in 0..n {
            if !winning[i] {
                continue;
            }
            let mv = if graph.tick[i].is_some_and(|j| winning[j]) {
                StrategyMove::Wait
            } else if let Some((m, _)) = graph.moves[i]
                .iter()
                .find(|(m, j)| m.controllable && winning[*j])
            {
                StrategyMove::Act(m.clone())
            } else {
                StrategyMove::Wait
            };
            strategy.moves.insert(graph.states[i].clone(), mv);
        }
        let report = metrics.stamp(self.game_report(&gov, n, peak, sweeps, dim));
        gov.finish_complete(
            GameResult {
                winning: winning.first().copied().unwrap_or(false),
                strategy,
                states: n,
            },
            report,
        )
    }

    /// Simulates the closed loop "strategy controller against a
    /// worst-case-free environment" from the initial state for up to
    /// `max_steps` discrete steps, returning the visited states. The
    /// environment plays its uncontrollable moves eagerly (first enabled);
    /// used in tests and examples to exercise synthesized strategies.
    #[must_use]
    pub fn closed_loop(&self, strategy: &Strategy, max_steps: usize) -> Vec<DigitalState> {
        let mut state = self.exp.initial_state();
        let mut visited = vec![state.clone()];
        for _ in 0..max_steps {
            let Some(mv) = strategy.decide(&state) else {
                break;
            };
            let next = match mv {
                StrategyMove::Act(m) => self
                    .exp
                    .moves(&state)
                    .into_iter()
                    .find(|(cand, _)| cand == m)
                    .map(|(_, s)| s),
                StrategyMove::Wait => {
                    // Environment may act before the tick; play the first
                    // uncontrollable move if any, else tick.
                    let umove = self
                        .exp
                        .moves(&state)
                        .into_iter()
                        .find(|(m, _)| !m.controllable);
                    match umove {
                        Some((_, s)) => Some(s),
                        None => self.exp.tick(&state),
                    }
                }
            };
            match next {
                Some(s) => {
                    state = s;
                    visited.push(state.clone());
                }
                None => break,
            }
        }
        visited
    }
}

/// One fixpoint sweep: the states of `0..n` passing `test`, in index
/// order. `test` reads the previous sweep's values only — the caller
/// applies the result afterwards — so splitting the scan over `threads`
/// workers finds the same states as scanning it on one.
fn sweep(n: usize, threads: usize, test: impl Fn(usize) -> bool + Sync) -> Vec<usize> {
    run_blocks(n, threads, |block| block.filter(|&i| test(i)).collect())
}

fn intern(
    graph: &mut Graph,
    state: DigitalState,
    frontier: &mut Vec<usize>,
    gov: &Governor,
) -> Option<usize> {
    if let Some(&i) = graph.index.get(&state) {
        return Some(i);
    }
    if !gov.charge_state() {
        return None;
    }
    let i = graph.states.len();
    graph.index.insert(state.clone(), i);
    graph.states.push(state);
    graph.moves.push(Vec::new());
    graph.tick.push(None);
    frontier.push(i);
    Some(i)
}

impl tempo_obs::StableDigest for GameSolver<'_> {
    /// Structural fingerprint of the game: the underlying network (whose
    /// edge digests already include controllability) under a game tag,
    /// so the same network analyzed as a plain model and as a game never
    /// shares a cache slot. Thread count is excluded — synthesis is
    /// deterministic in the verdict.
    fn digest(&self, h: &mut tempo_obs::StableHasher) {
        h.write_tag("timed-game");
        self.exp.network().digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ClockAtom, NetworkBuilder};

    /// A game: the controller must catch a window the environment opens.
    /// Env opens the door (uncontrollable) within 0..=2; controller may
    /// enter (controllable) only while the door is open (<= 1 time unit
    /// after opening, enforced with a clock).
    fn door_game() -> (Network, tempo_ta::AutomatonId, tempo_ta::LocationId) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Door");
        let closed = a.location_with_invariant("Closed", vec![ClockAtom::le(x, 2)]);
        let open = a.location_with_invariant("Open", vec![ClockAtom::le(x, 1)]);
        let inside = a.location("Inside");
        let missed = a.location("Missed");
        a.edge(closed, open).reset(x, 0).uncontrollable().done();
        a.edge(open, inside).guard_clock(ClockAtom::le(x, 1)).done();
        a.edge(open, missed)
            .guard_clock(ClockAtom::ge(x, 1))
            .uncontrollable()
            .done();
        let aid = a.done();
        (b.build(), aid, inside)
    }

    #[test]
    fn reachability_game_winning() {
        let (net, aid, inside) = door_game();
        let solver = GameSolver::new(&net);
        let res = solver.solve_reachability(&StateFormula::at(aid, inside));
        assert!(
            res.winning,
            "controller can enter as soon as the door opens"
        );
        assert!(res.strategy.size() > 0);
    }

    #[test]
    fn reachability_game_losing() {
        // The environment can keep the controller out: entering requires
        // x >= 3 but the door closes (invariant) at 1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Door");
        let open = a.location_with_invariant("Open", vec![ClockAtom::le(x, 1)]);
        let inside = a.location("Inside");
        let shut = a.location("Shut");
        a.edge(open, inside).guard_clock(ClockAtom::ge(x, 3)).done();
        a.edge(open, shut).uncontrollable().done();
        let aid = a.done();
        let net = b.build();
        let solver = GameSolver::new(&net);
        let res = solver.solve_reachability(&StateFormula::at(aid, inside));
        assert!(!res.winning);
    }

    #[test]
    fn safety_game() {
        // Controller must avoid Bad; the uncontrollable edge to Bad is
        // guarded by x >= 2, and the controller can reset x (self-loop)
        // whenever x >= 1.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let ok = a.location("Ok");
        let bad = a.location("Bad");
        a.edge(ok, bad)
            .guard_clock(ClockAtom::ge(x, 2))
            .uncontrollable()
            .done();
        a.edge(ok, ok)
            .guard_clock(ClockAtom::ge(x, 1))
            .reset(x, 0)
            .done();
        let aid = a.done();
        let net = b.build();
        let solver = GameSolver::new(&net);
        let res = solver.solve_safety(&StateFormula::at(aid, bad));
        assert!(res.winning, "reset x before it reaches 2");
        // Without the reset edge the controller loses.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let ok = a.location("Ok");
        let bad = a.location("Bad");
        a.edge(ok, bad)
            .guard_clock(ClockAtom::ge(x, 2))
            .uncontrollable()
            .done();
        let aid = a.done();
        let net = b.build();
        let solver = GameSolver::new(&net);
        let res = solver.solve_safety(&StateFormula::at(aid, bad));
        assert!(!res.winning);
        let _ = x;
    }

    #[test]
    fn closed_loop_reaches_goal() {
        let (net, aid, inside) = door_game();
        let solver = GameSolver::new(&net);
        let res = solver.solve_reachability(&StateFormula::at(aid, inside));
        let visited = solver.closed_loop(&res.strategy, 100);
        assert!(
            visited.iter().any(|s| s.locs[aid.index()] == inside),
            "closed loop must reach Inside"
        );
    }
}
