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
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_ta::{
    DigitalError, DigitalExplorer, DigitalMove, DigitalState, Network, QueryNetwork, StateFormula,
    StateIndex,
};

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
    flow: bool,
}

/// Internal: the game graph explored for one query.
struct Graph {
    index: StateIndex,
    /// Per state: (move, successor index).
    moves: Vec<Vec<(DigitalMove, usize)>>,
    /// Per state: tick successor index.
    tick: Vec<Option<usize>>,
    /// Per state: whether it satisfies the query's formula (empty when
    /// the build was truncated).
    hits: Vec<bool>,
    /// The strategy's clock projection (see [`Strategy::projection`]).
    proj: Option<Vec<usize>>,
    /// The run report, but for the sweeps and the wall time.
    report: RunReport,
}

impl Graph {
    /// The run report after `sweeps` fixpoint sweeps.
    fn report(&self, gov: &Governor, sweeps: u64) -> RunReport {
        RunReport {
            sweeps,
            wall_time: gov.elapsed(),
            ..self.report.clone()
        }
    }

    /// The result when no winning strategy is proven.
    fn unproven(&self) -> GameResult {
        GameResult {
            winning: false,
            strategy: Strategy::default(),
            states: self.index.len(),
        }
    }
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

    /// Explores the game graph of one query, charging the governor's
    /// state budget; on truncation the governor is left exhausted.
    ///
    /// The graph is built after query-directed slicing and active-clock
    /// reduction: provably disabled edges change neither player's
    /// options (their guards are false in every reachable store), and
    /// clocks read by no remaining guard, invariant or property atom
    /// cannot influence enabledness, so the reduced game is bisimilar to
    /// the full one under clock projection.
    ///
    /// The per-location LU tick clamp of the cost engine is deliberately
    /// *not* used here: strategies are state-indexed artifacts that the
    /// independent witness checker replays against exact digital states,
    /// so coarsening the state abstraction would break the certificate's
    /// strategy lookups.
    fn explore(&self, prop: &StateFormula, gov: &Governor) -> Graph {
        let model = self.exp.network();
        let prep = QueryNetwork::prepare(model, std::slice::from_ref(prop), self.flow, true);
        let (net, prop) = (prep.network(), prep.query(0));
        // The clamp keeps the query's clock constants observable.
        let exp = DigitalExplorer::for_query(net, &prep.atoms())
            .expect("closed: the solver was built from a closed network");
        let mut index = StateIndex::new();
        let (mut moves, mut tick) = (Vec::new(), Vec::new());
        let mut peak = 0usize;
        let mut state = exp.initial_state();
        if index.intern(&state, gov).is_some() {
            peak = 1;
        }
        'build: while let Some(i) = index.pop() {
            if !gov.check_time() {
                break;
            }
            index.load(i, &mut state);
            let mut next_tick = None;
            if let Some(next) = exp.tick(&state) {
                let Some(j) = index.intern(&next, gov) else {
                    break 'build;
                };
                next_tick = Some(j);
            }
            let mut next_moves = Vec::new();
            for (mv, next) in exp.moves(&state) {
                let Some(j) = index.intern(&next, gov) else {
                    break 'build;
                };
                next_moves.push((mv, j));
            }
            moves.resize_with(index.len(), Vec::new);
            tick.resize(index.len(), None);
            moves[i] = next_moves;
            tick[i] = next_tick;
            peak = peak.max(index.frontier_len());
        }
        let hits = if gov.is_exhausted() {
            Vec::new()
        } else {
            (0..index.len())
                .map(|i| {
                    index.load(i, &mut state);
                    exp.satisfies(&state, prop)
                })
                .collect()
        };
        let report = prep.metrics().stamp(RunReport {
            states_explored: index.len() as u64,
            states_stored: index.len() as u64,
            peak_waiting: peak as u64,
            dbm_dim: net.dim() as u64,
            dbm_dim_model: model.dim() as u64,
            ..RunReport::default()
        });
        let proj = prep
            .reduction()
            .is_reduced()
            .then(|| prep.reduction().kept());
        Graph {
            index,
            moves,
            tick,
            hits,
            proj,
            report,
        }
    }

    /// Solves the reachability game under a resource [`Budget`]: the
    /// controller wins by eventually reaching a state satisfying `goal`,
    /// whatever the environment does.
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
        let graph = self.explore(goal, &gov);
        let n = graph.index.len();
        let mut sweeps = 0u64;
        if gov.is_exhausted() {
            return gov.finish(graph.unproven(), graph.report(&gov, sweeps));
        }
        let is_goal = &graph.hits;
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
            let added = sweep(n, |i| becomes_winning(i, &rank));
            if added.is_empty() {
                break;
            }
            for i in added {
                rank[i] = Some(round);
            }
        }
        let mut strategy = Strategy {
            moves: HashMap::new(),
            proj: graph.proj.clone(),
        };
        for i in 0..n {
            let Some(r) = rank[i] else { continue };
            if is_goal[i] {
                strategy
                    .moves
                    .insert(graph.index.state(i), StrategyMove::Wait);
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
            strategy.moves.insert(graph.index.state(i), mv);
        }
        let winning = rank.first().is_some_and(Option::is_some);
        let result = GameResult {
            winning,
            strategy,
            states: n,
        };
        let report = graph.report(&gov, sweeps);
        if winning {
            // Ranked states are winning even under an interrupted least
            // fixpoint, so a ranked initial state is a definitive verdict.
            gov.finish_complete(result, report)
        } else {
            gov.finish(result, report)
        }
    }

    /// Solves the safety game under a resource [`Budget`]: the controller
    /// wins by forever avoiding states satisfying `bad`.
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
        let graph = self.explore(bad, &gov);
        let n = graph.index.len();
        let mut sweeps = 0u64;
        if gov.is_exhausted() {
            return gov.finish(graph.unproven(), graph.report(&gov, sweeps));
        }
        let mut winning: Vec<bool> = graph.hits.iter().map(|&bad| !bad).collect();
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
            let removed = sweep(n, |i| winning[i] && !stays_winning(i, &winning));
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
            return gov.finish(graph.unproven(), graph.report(&gov, sweeps));
        }
        let mut strategy = Strategy {
            moves: HashMap::new(),
            proj: graph.proj.clone(),
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
            strategy.moves.insert(graph.index.state(i), mv);
        }
        let report = graph.report(&gov, sweeps);
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
/// applies the result afterwards — so a state that changes during a
/// sweep affects its neighbours only in the next one.
fn sweep(n: usize, test: impl Fn(usize) -> bool) -> Vec<usize> {
    (0..n).filter(|&i| test(i)).collect()
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
        let res = solver
            .solve_reachability_governed(&StateFormula::at(aid, inside), &Budget::unlimited())
            .into_value();
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
        let res = solver
            .solve_reachability_governed(&StateFormula::at(aid, inside), &Budget::unlimited())
            .into_value();
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
        let res = solver
            .solve_safety_governed(&StateFormula::at(aid, bad), &Budget::unlimited())
            .into_value();
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
        let res = solver
            .solve_safety_governed(&StateFormula::at(aid, bad), &Budget::unlimited())
            .into_value();
        assert!(!res.winning);
        let _ = x;
    }

    #[test]
    fn closed_loop_reaches_goal() {
        let (net, aid, inside) = door_game();
        let solver = GameSolver::new(&net);
        let res = solver
            .solve_reachability_governed(&StateFormula::at(aid, inside), &Budget::unlimited())
            .into_value();
        let visited = solver.closed_loop(&res.strategy, 100);
        assert!(
            visited.iter().any(|s| s.locs[aid.index()] == inside),
            "closed loop must reach Inside"
        );
    }
}
