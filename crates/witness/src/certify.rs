//! Per-engine certificates and certified entry points.
//!
//! A *certificate* is a self-contained object that lets a checker — one
//! sharing no code with the engine that produced the verdict — confirm
//! the verdict against the raw network semantics:
//!
//! * [`TraceCertificate`] — a realized concrete run witnessing a
//!   reachability verdict or a leads-to counterexample.
//! * [`CostCertificate`] — a cost-annotated digital run whose step costs
//!   sum exactly to the minimum reported by the CORA engine.
//! * [`StrategyCertificate`] — the full closed loop of a synthesized
//!   TIGA strategy, certified exhaustively (every environment branch).
//! * [`SchedulerCertificate`] — a memoryless scheduler whose induced
//!   Markov chain reproduces the value reported by MDP value iteration.
//! * [`RunCertificate`] — simulated SMC runs, each replayed as a legal
//!   timed run of the network.
//!
//! The `certified_*` functions wrap the engines' governed entry points:
//! they run the analysis, build the certificate, validate it, and stamp
//! the certificate's serialized size and validation time into the
//! returned [`RunReport`](tempo_obs::RunReport).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use tempo_cora::{MinCostResult, PricedNetwork};
use tempo_mdp::{Mdp, Opt, Quantitative};
use tempo_modest::Mcpta;
use tempo_obs::{Budget, ExploreConfig, Outcome};
use tempo_smc::{Estimate, RatePolicy, Run, Simulator, StatisticalChecker};
use tempo_ta::{AutomatonId, DigitalState, Network, ReachResult, StateFormula, Stats, Verdict};
use tempo_tiga::{GameResult, GameSolver, Strategy, StrategyMove};

use crate::error::WitnessError;
use crate::realize::realize;
use crate::semantics::{RState, Replayer};
use crate::trace::{ConcreteState, ConcreteTrace, JointAction, TraceSemantics};
use crate::validate::{replay, replay_internal, replay_run};

/// Return shape of every `certified_*` wrapper: the engine's governed
/// [`Outcome`] paired with the certificate (entry points whose engines
/// may answer without a witness wrap the certificate in `Option`).
pub type Certified<T, C> = Result<(Outcome<T>, C), WitnessError>;

/// Any certificate, for uniform serialization ([`crate::format`]).
#[derive(Debug, Clone)]
pub enum Certificate {
    /// A realized concrete trace (reachability / liveness).
    Trace(TraceCertificate),
    /// A cost-annotated optimal run (CORA).
    Cost(CostCertificate),
    /// A closed-loop strategy table (TIGA).
    Strategy(StrategyCertificate),
    /// A memoryless scheduler with its claimed value (MDP / mcpta).
    Scheduler(SchedulerCertificate),
    /// A batch of stochastic runs (SMC).
    Runs(RunCertificate),
    /// A batch of priced stochastic runs with claimed costs (rare-event
    /// / priced SMC).
    PricedRuns(PricedRunCertificate),
}

/// A concrete trace witnessing that some state satisfying the goal is
/// reachable (or, for liveness counterexamples, that the engine's
/// symbolic counterexample prefix is a real run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCertificate {
    /// The realized run.
    pub trace: ConcreteTrace,
}

impl TraceCertificate {
    /// Validates the certificate: the trace replays against the raw
    /// network semantics and ends in a state satisfying `goal`.
    ///
    /// # Errors
    ///
    /// A typed [`WitnessError`] naming the first violated rule.
    pub fn validate(&self, net: &Network, goal: &StateFormula) -> Result<(), WitnessError> {
        replay(net, &self.trace, Some(goal))
    }
}

/// A cost-annotated digital run: the per-step costs must sum exactly to
/// the total, and every step cost must equal the cost recomputed from
/// the network's rates and edge prices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostCertificate {
    /// The optimal run (digital semantics, denominator 1).
    pub trace: ConcreteTrace,
    /// The claimed cost of each step, aligned with `trace.steps`.
    pub step_costs: Vec<i64>,
    /// The claimed total (the engine's reported minimum).
    pub total: i64,
}

impl CostCertificate {
    /// Builds the certificate by re-executing the engine's structured
    /// step list on the full (unreduced) network.
    ///
    /// # Errors
    ///
    /// [`WitnessError`] if the recorded steps do not execute — which
    /// would indicate an engine bug, not a caller error.
    pub fn build(pnet: &PricedNetwork, res: &MinCostResult) -> Result<Self, WitnessError> {
        let r = Replayer::new(pnet.network(), TraceSemantics::Digital, 1);
        let mut state = r.initial();
        let mut steps = Vec::with_capacity(res.steps.len());
        let mut step_costs = Vec::with_capacity(res.steps.len());
        for (i, cs) in res.steps.iter().enumerate() {
            let next = match &cs.action {
                None => r
                    .tick(&state)
                    .ok_or(WitnessError::DelayForbidden { step: i })?,
                Some(mv) => {
                    let action = JointAction {
                        label: mv.label.clone(),
                        participants: mv.participants.clone(),
                    };
                    r.check_action(&state, &action, i)?;
                    r.apply_action(&state, &action, i)?
                }
            };
            steps.push(crate::trace::ConcreteStep {
                delay: i64::from(cs.action.is_none()),
                action: cs.action.as_ref().map(|mv| JointAction {
                    label: mv.label.clone(),
                    participants: mv.participants.clone(),
                }),
                state: r.to_concrete(&next),
            });
            step_costs.push(cs.cost);
            state = next;
        }
        Ok(CostCertificate {
            trace: ConcreteTrace {
                semantics: TraceSemantics::Digital,
                denom: 1,
                initial: r.to_concrete(&r.initial()),
                steps,
            },
            step_costs,
            total: res.cost,
        })
    }

    /// Validates the certificate: the run replays, its final state
    /// satisfies `goal`, every step cost matches the cost recomputed
    /// from rates/edge prices, and the step costs sum to the total.
    ///
    /// # Errors
    ///
    /// [`WitnessError::CostMismatch`] on any cost disagreement (step
    /// index `usize::MAX` flags the total), plus the replay errors of
    /// [`crate::replay`].
    pub fn validate(&self, pnet: &PricedNetwork, goal: &StateFormula) -> Result<(), WitnessError> {
        if self.trace.semantics != TraceSemantics::Digital {
            return Err(WitnessError::Malformed(
                "cost certificates use the digital semantics".to_owned(),
            ));
        }
        if self.step_costs.len() != self.trace.steps.len() {
            return Err(WitnessError::Malformed(format!(
                "{} step costs for {} steps",
                self.step_costs.len(),
                self.trace.steps.len()
            )));
        }
        let net = pnet.network();
        let (r, states) = replay_internal(net, &self.trace)?;
        let last = states.last().expect("at least the initial state");
        if !r.eval_formula(last, goal) {
            return Err(WitnessError::GoalNotSatisfied);
        }
        for (i, (step, &recorded)) in self.trace.steps.iter().zip(&self.step_costs).enumerate() {
            let pre = &states[i];
            let rate_sum: i64 = pre
                .locs
                .iter()
                .enumerate()
                .map(|(ai, &l)| pnet.rate(AutomatonId(ai), l))
                .sum();
            let action_cost: i64 = step.action.as_ref().map_or(0, |a| {
                a.participants
                    .iter()
                    .map(|&(ai, ei, _)| pnet.edge_cost(AutomatonId(ai), ei))
                    .sum()
            });
            let recomputed = step.delay * rate_sum + action_cost;
            if recomputed != recorded {
                return Err(WitnessError::CostMismatch {
                    step: i,
                    recorded,
                    recomputed,
                });
            }
        }
        let sum: i64 = self.step_costs.iter().sum();
        if sum != self.total {
            return Err(WitnessError::CostMismatch {
                step: usize::MAX,
                recorded: self.total,
                recomputed: sum,
            });
        }
        Ok(())
    }
}

/// The objective a strategy certificate claims to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameObjective {
    /// Reach a state satisfying the formula, whatever the environment
    /// does.
    Reach,
    /// Avoid states satisfying the formula forever.
    Avoid,
}

/// The full closed loop of a synthesized strategy: every state reachable
/// under the prescriptions (against *every* environment move) and the
/// prescription taken there (`None` = wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyCertificate {
    /// The claimed objective.
    pub objective: GameObjective,
    /// `(state, prescription)` in closed-loop discovery order.
    pub prescriptions: Vec<(ConcreteState, Option<JointAction>)>,
}

/// DFS colors for closed-loop reachability certification.
#[derive(Clone, Copy, PartialEq)]
enum Color {
    /// On the DFS stack — hitting a grey state closes a cycle.
    Grey,
    /// Fully certified: every branch from here reaches the goal.
    Black,
}

/// Expands one state of the reach-certification DFS: goal states
/// terminate the branch (black), others get a frame with their
/// closed-loop successors.
fn push_reach_frame(
    r: &Replayer<'_>,
    goal: &StateFormula,
    table: &HashMap<&ConcreteState, &Option<JointAction>>,
    state: ConcreteState,
    colors: &mut HashMap<ConcreteState, Color>,
    stack: &mut Vec<(ConcreteState, Vec<ConcreteState>, usize)>,
) -> Result<(), WitnessError> {
    let rstate = r.decode(&state)?;
    if r.eval_formula(&rstate, goal) {
        colors.insert(state, Color::Black);
        return Ok(());
    }
    let Some(prescription) = table.get(&state) else {
        return Err(WitnessError::StrategyIncomplete {
            state: format!("{state:?}"),
        });
    };
    let succs = closed_loop_successors(r, &rstate, prescription.as_ref())?;
    if succs.is_empty() {
        return Err(WitnessError::GoalAvoidable {
            state: format!("{state:?}"),
        });
    }
    let succs: Vec<ConcreteState> = succs.iter().map(|s| r.to_concrete(s)).collect();
    colors.insert(state.clone(), Color::Grey);
    stack.push((state, succs, 0));
    Ok(())
}

/// The closed-loop successors of a digital game state under a
/// prescription: the prescribed controllable move (if acting) or the
/// tick (if waiting), plus every uncontrollable environment move.
fn closed_loop_successors(
    r: &Replayer<'_>,
    state: &RState,
    prescription: Option<&JointAction>,
) -> Result<Vec<RState>, WitnessError> {
    let mut succs = Vec::new();
    match prescription {
        Some(action) => {
            let enabled = r.enumerate_moves(state);
            let Some((_, controllable)) = enabled
                .iter()
                .find(|(cand, _)| cand.participants == action.participants)
            else {
                return Err(WitnessError::PrescriptionUnsound {
                    state: format!("{state:?}"),
                    reason: "prescribed move is not enabled".to_owned(),
                });
            };
            if !controllable {
                return Err(WitnessError::PrescriptionUnsound {
                    state: format!("{state:?}"),
                    reason: "prescribed move is not controllable".to_owned(),
                });
            }
            succs.push(r.apply_action(state, action, 0).map_err(|e| {
                WitnessError::PrescriptionUnsound {
                    state: format!("{state:?}"),
                    reason: e.to_string(),
                }
            })?);
        }
        None => {
            if let Some(next) = r.tick(state) {
                succs.push(next);
            }
        }
    }
    for (cand, controllable) in r.enumerate_moves(state) {
        if !controllable {
            succs.push(r.apply_action(state, &cand, 0).map_err(|e| {
                WitnessError::PrescriptionUnsound {
                    state: format!("{state:?}"),
                    reason: format!("environment move fails: {e}"),
                }
            })?);
        }
    }
    Ok(succs)
}

impl StrategyCertificate {
    /// Builds the certificate by walking the closed loop of `strategy`
    /// from the initial state over the full network, consulting the
    /// strategy for each state reached. For a reachability objective the
    /// walk stops at goal states; for safety it covers the whole closed
    /// loop (finite, since digital clocks are clamped).
    ///
    /// # Errors
    ///
    /// [`WitnessError::StrategyIncomplete`] if the closed loop escapes
    /// the strategy's domain.
    pub fn build(
        net: &Network,
        objective: GameObjective,
        formula: &StateFormula,
        strategy: &Strategy,
    ) -> Result<Self, WitnessError> {
        let r = Replayer::new(net, TraceSemantics::Digital, 1);
        let mut prescriptions = Vec::new();
        let mut seen: HashMap<ConcreteState, usize> = HashMap::new();
        let mut queue = vec![r.initial()];
        seen.insert(r.to_concrete(&queue[0]), 0);
        let mut head = 0;
        while head < queue.len() {
            let state = queue[head].clone();
            head += 1;
            if objective == GameObjective::Reach && r.eval_formula(&state, formula) {
                prescriptions.push((r.to_concrete(&state), None));
                continue;
            }
            let dstate = DigitalState {
                locs: state.locs.clone(),
                store: state.store.clone(),
                clocks: state.clocks.clone(),
            };
            let Some(mv) = strategy.decide(&dstate) else {
                return Err(WitnessError::StrategyIncomplete {
                    state: format!("{dstate:?}"),
                });
            };
            let prescription = match mv {
                StrategyMove::Wait => None,
                StrategyMove::Act(m) => Some(JointAction {
                    label: m.label.clone(),
                    participants: m.participants.clone(),
                }),
            };
            let succs = closed_loop_successors(&r, &state, prescription.as_ref())?;
            prescriptions.push((r.to_concrete(&state), prescription));
            for next in succs {
                if let Entry::Vacant(slot) = seen.entry(r.to_concrete(&next)) {
                    slot.insert(queue.len());
                    queue.push(next);
                }
            }
        }
        Ok(StrategyCertificate {
            objective,
            prescriptions,
        })
    }

    /// Exhaustively certifies the closed loop against the raw network
    /// semantics:
    ///
    /// * **Reach**: every infinite environment resolution hits the goal —
    ///   no reachable cycle or dead end avoids it
    ///   ([`WitnessError::GoalAvoidable`]).
    /// * **Avoid**: no reachable closed-loop state satisfies the formula
    ///   ([`WitnessError::BadStateReached`]); quiescent states are fine.
    ///
    /// In both cases every reachable state needs a prescription
    /// ([`WitnessError::StrategyIncomplete`]) and every prescription must
    /// be an enabled, controllable move
    /// ([`WitnessError::PrescriptionUnsound`]).
    ///
    /// # Errors
    ///
    /// The typed [`WitnessError`]s listed above.
    pub fn validate(&self, net: &Network, formula: &StateFormula) -> Result<(), WitnessError> {
        let r = Replayer::new(net, TraceSemantics::Digital, 1);
        let table: HashMap<&ConcreteState, &Option<JointAction>> =
            self.prescriptions.iter().map(|(s, p)| (s, p)).collect();
        match self.objective {
            GameObjective::Reach => self.validate_reach(&r, formula, &table),
            GameObjective::Avoid => self.validate_avoid(&r, formula, &table),
        }
    }

    /// Iterative DFS with colors: a grey hit is a goal-avoiding cycle, a
    /// successor-free non-goal state a goal-avoiding dead end.
    fn validate_reach(
        &self,
        r: &Replayer<'_>,
        goal: &StateFormula,
        table: &HashMap<&ConcreteState, &Option<JointAction>>,
    ) -> Result<(), WitnessError> {
        let mut colors: HashMap<ConcreteState, Color> = HashMap::new();
        // Stack of (state, successors, next successor index); pushing a
        // frame marks the state grey, popping it marks it black.
        let mut stack: Vec<(ConcreteState, Vec<ConcreteState>, usize)> = Vec::new();
        let init = r.to_concrete(&r.initial());
        push_reach_frame(r, goal, table, init, &mut colors, &mut stack)?;
        while let Some((state, succs, idx)) = stack.last_mut() {
            if *idx == succs.len() {
                colors.insert(state.clone(), Color::Black);
                stack.pop();
                continue;
            }
            let next = succs[*idx].clone();
            *idx += 1;
            match colors.get(&next) {
                Some(Color::Grey) => {
                    return Err(WitnessError::GoalAvoidable {
                        state: format!("{next:?}"),
                    });
                }
                Some(Color::Black) => {}
                None => push_reach_frame(r, goal, table, next, &mut colors, &mut stack)?,
            }
        }
        Ok(())
    }

    /// BFS over the closed loop: no reachable state may satisfy `bad`.
    fn validate_avoid(
        &self,
        r: &Replayer<'_>,
        bad: &StateFormula,
        table: &HashMap<&ConcreteState, &Option<JointAction>>,
    ) -> Result<(), WitnessError> {
        let init = r.to_concrete(&r.initial());
        let mut seen: HashMap<ConcreteState, ()> = HashMap::new();
        seen.insert(init.clone(), ());
        let mut queue = vec![init];
        let mut head = 0;
        while head < queue.len() {
            let state = queue[head].clone();
            head += 1;
            let rstate = r.decode(&state)?;
            if r.eval_formula(&rstate, bad) {
                return Err(WitnessError::BadStateReached {
                    state: format!("{state:?}"),
                });
            }
            let Some(prescription) = table.get(&state) else {
                return Err(WitnessError::StrategyIncomplete {
                    state: format!("{state:?}"),
                });
            };
            for next in closed_loop_successors(r, &rstate, prescription.as_ref())? {
                let key = r.to_concrete(&next);
                if !seen.contains_key(&key) {
                    seen.insert(key.clone(), ());
                    queue.push(key);
                }
            }
        }
        Ok(())
    }
}

/// A memoryless scheduler with the value it claims to achieve: fixing
/// the per-state action choices turns the MDP into a Markov chain whose
/// reachability probability the validator recomputes by power iteration
/// — independently of the engine's value iteration over all schedulers.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerCertificate {
    /// Optimization direction the engine ran.
    pub opt: Opt,
    /// The claimed value of the initial state.
    pub value: f64,
    /// Accepted absolute deviation between claimed and recomputed value.
    pub epsilon: f64,
    /// Chosen action index per state (`None` on absorbing states).
    pub choices: Vec<Option<usize>>,
    /// Goal membership per state.
    pub goal: Vec<bool>,
}

impl SchedulerCertificate {
    /// Wraps an engine result and its goal mask as a certificate.
    #[must_use]
    pub fn build(q: &Quantitative, goal: Vec<bool>, epsilon: f64) -> Self {
        SchedulerCertificate {
            opt: Opt::Max,
            value: q.initial_value,
            epsilon,
            choices: q.scheduler.clone(),
            goal,
        }
    }

    /// Same as [`SchedulerCertificate::build`] with an explicit
    /// direction recorded (the induced-chain check is identical; the
    /// direction documents what the value claims to be optimal for).
    #[must_use]
    pub fn build_with_opt(q: &Quantitative, opt: Opt, goal: Vec<bool>, epsilon: f64) -> Self {
        SchedulerCertificate {
            opt,
            ..Self::build(q, goal, epsilon)
        }
    }

    /// Validates the certificate against the MDP: the choices must be
    /// legal action indices, and the induced chain's reach probability
    /// from the initial state must match the claimed value within
    /// epsilon. The recomputation is a least-fixpoint power iteration
    /// starting from zero, so cycles in the chain converge to the true
    /// reach probability.
    ///
    /// # Errors
    ///
    /// [`WitnessError::Malformed`] on shape mismatches,
    /// [`WitnessError::PrescriptionUnsound`] on out-of-range choices and
    /// [`WitnessError::ValueMismatch`] when the recomputed probability
    /// deviates by more than epsilon.
    pub fn validate(&self, mdp: &Mdp) -> Result<(), WitnessError> {
        let n = mdp.num_states();
        if self.choices.len() != n || self.goal.len() != n {
            return Err(WitnessError::Malformed(format!(
                "certificate covers {} states, MDP has {n}",
                self.choices.len()
            )));
        }
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(WitnessError::Malformed(format!(
                "invalid epsilon {}",
                self.epsilon
            )));
        }
        for (s, choice) in self.choices.iter().enumerate() {
            if let Some(c) = choice {
                let id = tempo_mdp::StateId(s);
                if *c >= mdp.actions(id).len() {
                    return Err(WitnessError::PrescriptionUnsound {
                        state: format!("state {s}"),
                        reason: format!("action index {c} out of range"),
                    });
                }
            }
        }
        let mut p: Vec<f64> = self.goal.iter().map(|&g| f64::from(u8::from(g))).collect();
        let tol = (self.epsilon * 1e-3).max(1e-12);
        for _ in 0..1_000_000 {
            let mut delta = 0.0_f64;
            for s in 0..n {
                if self.goal[s] {
                    continue;
                }
                let next = match self.choices[s] {
                    None => 0.0,
                    Some(c) => mdp.actions(tempo_mdp::StateId(s))[c]
                        .transitions
                        .iter()
                        .map(|&(t, pr)| pr * p[t.0])
                        .sum(),
                };
                delta = delta.max((next - p[s]).abs());
                p[s] = next;
            }
            if delta < tol {
                break;
            }
        }
        let recomputed = p[mdp.initial().0];
        if (recomputed - self.value).abs() > self.epsilon {
            return Err(WitnessError::ValueMismatch {
                reported: self.value,
                recomputed,
                epsilon: self.epsilon,
            });
        }
        Ok(())
    }
}

/// A batch of stochastic runs: the statistical verdict itself is not
/// re-derived (it is a confidence statement), but every exported run
/// must be a legal timed run of the network — the simulator cannot have
/// sampled through a guard, invariant or urgency violation.
#[derive(Debug, Clone)]
pub struct RunCertificate {
    /// The exported runs.
    pub runs: Vec<Run>,
}

impl RunCertificate {
    /// Validates every run with [`crate::replay_run`].
    ///
    /// # Errors
    ///
    /// The first failing run's typed [`WitnessError`].
    pub fn validate(&self, net: &Network) -> Result<(), WitnessError> {
        for run in &self.runs {
            replay_run(net, run)?;
        }
        Ok(())
    }
}

/// A batch of priced stochastic runs, each paired with the accumulated
/// cost the priced simulator claims for it. Validation replays every
/// run with its *recorded* synchronizations (a different move with the
/// same label cannot stand in) and re-sums the cost — delay times the
/// pre-state's location-rate sum, plus the participating edges' prices
/// — in recording order, so the claimed value must match bit for bit.
#[derive(Debug, Clone)]
pub struct PricedRunCertificate {
    /// The exported runs, with participants recorded per step.
    pub runs: Vec<Run>,
    /// The claimed accumulated cost of each run, aligned with `runs`.
    pub costs: Vec<f64>,
}

impl PricedRunCertificate {
    /// Validates every run with [`crate::replay_priced_run`] and checks
    /// the re-summed cost equals the claimed one exactly.
    ///
    /// # Errors
    ///
    /// The first failing run's typed [`WitnessError`];
    /// [`WitnessError::RunCostMismatch`] on any cost disagreement.
    pub fn validate(&self, pnet: &PricedNetwork) -> Result<(), WitnessError> {
        if self.costs.len() != self.runs.len() {
            return Err(WitnessError::Malformed(format!(
                "{} costs for {} runs",
                self.costs.len(),
                self.runs.len()
            )));
        }
        for (i, (run, &recorded)) in self.runs.iter().zip(&self.costs).enumerate() {
            let recomputed = crate::validate::replay_priced_run(pnet, run)?;
            if recomputed.to_bits() != recorded.to_bits() {
                return Err(WitnessError::RunCostMismatch {
                    run: i,
                    recorded,
                    recomputed,
                });
            }
        }
        Ok(())
    }
}

/// Serializes a certificate, validates the stated invariant that it
/// stays parseable, and stamps its size and the validation wall time
/// into the outcome's report.
fn stamp<T>(out: &mut Outcome<T>, cert: &Certificate, started: Instant) {
    let bytes = crate::format::render(cert).len() as u64;
    let (Outcome::Complete { report, .. } | Outcome::Exhausted { report, .. }) = out;
    report.certificate_bytes = bytes;
    report.certify_time = started.elapsed();
}

/// Reachability with a validated concrete witness: runs the symbolic
/// engine, realizes the symbolic trace, replays it independently, and
/// returns the certificate alongside the verdict. `None` when the goal
/// is unreachable (or not proven reachable within the budget).
///
/// # Errors
///
/// A [`WitnessError`] if the engine's trace cannot be realized or fails
/// validation — either indicates an engine bug.
pub fn certified_reachable(
    net: &Network,
    goal: &StateFormula,
    budget: &Budget,
) -> Certified<ReachResult, Option<TraceCertificate>> {
    certified_reachable_with(net, goal, ExploreConfig::default(), budget)
}

/// [`certified_reachable`] with explicit exploration knobs. The
/// certificate pipeline is reduction-agnostic: a symmetry-folded engine
/// trace is realized back through the orbit permutations into a
/// concrete run of the *original* network, so validation never sees the
/// reduced state space.
///
/// # Errors
///
/// A [`WitnessError`] if the engine's trace cannot be realized or fails
/// validation — either indicates an engine bug — or a
/// [`WitnessError::Spill`] if the engine's out-of-core state store
/// failed (only possible with [`ExploreConfig::with_spill`]).
pub fn certified_reachable_with(
    net: &Network,
    goal: &StateFormula,
    config: ExploreConfig,
    budget: &Budget,
) -> Certified<ReachResult, Option<TraceCertificate>> {
    let mut mc = tempo_ta::ModelChecker::new(net).with_config(config);
    let mut out = mc.try_reachable_governed(goal, budget)?;
    let started = Instant::now();
    let cert = match &out.value().trace {
        Some(trace) if out.value().reachable => {
            let concrete = realize(net, trace, goal)?;
            let cert = TraceCertificate { trace: concrete };
            cert.validate(net, goal)?;
            Some(cert)
        }
        _ => None,
    };
    if let Some(c) = &cert {
        stamp(&mut out, &Certificate::Trace(c.clone()), started);
    }
    Ok((out, cert))
}

/// Leads-to checking with a certified counterexample: when `phi --> psi`
/// is violated, the engine's symbolic counterexample prefix (ending in a
/// `psi`-avoiding cycle or dead end) is realized as a concrete run whose
/// final state satisfies `!psi`, and replayed independently.
///
/// # Errors
///
/// A [`WitnessError`] if realization or validation fails.
pub fn certified_leads_to(
    net: &Network,
    phi: &StateFormula,
    psi: &StateFormula,
    budget: &Budget,
) -> Certified<(Verdict, Stats), Option<TraceCertificate>> {
    let mut out = tempo_ta::leads_to_governed(net, phi, psi, budget);
    let started = Instant::now();
    let cert = match &out.value().0 {
        Verdict::Violated(trace) => {
            let avoid = StateFormula::not(psi.clone());
            let concrete = realize(net, trace, &avoid)?;
            let cert = TraceCertificate { trace: concrete };
            cert.validate(net, &avoid)?;
            Some(cert)
        }
        Verdict::Satisfied => None,
    };
    if let Some(c) = &cert {
        stamp(&mut out, &Certificate::Trace(c.clone()), started);
    }
    Ok((out, cert))
}

/// Minimum-cost reachability with a validated cost certificate: the
/// optimal run replays against the raw semantics and its step costs are
/// recomputed from rates and edge prices, summing to the reported
/// minimum.
///
/// # Errors
///
/// A [`WitnessError`] if the certificate fails to build or validate.
pub fn certified_min_cost(
    pnet: &PricedNetwork,
    goal: &StateFormula,
    budget: &Budget,
) -> Certified<Option<MinCostResult>, Option<CostCertificate>> {
    let mut out = pnet.min_cost_reach_governed(goal, budget);
    let started = Instant::now();
    let cert = match out.value() {
        Some(res) => {
            let cert = CostCertificate::build(pnet, res)?;
            cert.validate(pnet, goal)?;
            Some(cert)
        }
        None => None,
    };
    if let Some(c) = &cert {
        stamp(&mut out, &Certificate::Cost(c.clone()), started);
    }
    Ok((out, cert))
}

/// Reachability-game synthesis with an exhaustively certified strategy:
/// the closed loop of the synthesized strategy is explored over *all*
/// environment moves and certified to reach the goal on every branch.
///
/// # Errors
///
/// A [`WitnessError`] if the strategy's closed loop escapes its domain
/// or can avoid the goal.
pub fn certified_reach_game(
    net: &Network,
    goal: &StateFormula,
    budget: &Budget,
) -> Certified<GameResult, Option<StrategyCertificate>> {
    let solver = GameSolver::new(net);
    let mut out = solver.solve_reachability_governed(goal, budget);
    let started = Instant::now();
    let cert = if out.value().winning {
        let cert =
            StrategyCertificate::build(net, GameObjective::Reach, goal, &out.value().strategy)?;
        cert.validate(net, goal)?;
        Some(cert)
    } else {
        None
    };
    if let Some(c) = &cert {
        stamp(&mut out, &Certificate::Strategy(c.clone()), started);
    }
    Ok((out, cert))
}

/// Safety-game synthesis with an exhaustively certified strategy: the
/// closed loop is certified to never reach a bad state, whatever the
/// environment does.
///
/// # Errors
///
/// A [`WitnessError`] if certification fails.
pub fn certified_safety_game(
    net: &Network,
    bad: &StateFormula,
    budget: &Budget,
) -> Certified<GameResult, Option<StrategyCertificate>> {
    let solver = GameSolver::new(net);
    let mut out = solver.solve_safety_governed(bad, budget);
    let started = Instant::now();
    let cert = if out.value().winning {
        let cert =
            StrategyCertificate::build(net, GameObjective::Avoid, bad, &out.value().strategy)?;
        cert.validate(net, bad)?;
        Some(cert)
    } else {
        None
    };
    if let Some(c) = &cert {
        stamp(&mut out, &Certificate::Strategy(c.clone()), started);
    }
    Ok((out, cert))
}

/// Probability estimation with exported, independently replayed runs:
/// estimates `Pr[<=bound](<> goal)` as usual, then simulates
/// `witness_runs` fresh runs with the same seed and certifies each as a
/// legal timed run of the network.
///
/// # Errors
///
/// [`WitnessError::Malformed`] on invalid statistical parameters, or a
/// replay error if the simulator produced an illegal run.
#[allow(clippy::too_many_arguments)]
pub fn certified_probability(
    net: &Network,
    rates: &RatePolicy,
    seed: u64,
    goal: &StateFormula,
    bound: f64,
    runs: usize,
    confidence: f64,
    witness_runs: usize,
    budget: &Budget,
) -> Certified<Option<Estimate>, RunCertificate> {
    let mut checker = StatisticalChecker::new(net, rates.clone(), seed);
    let mut out = checker
        .probability_governed(goal, bound, runs, confidence, budget)
        .map_err(|e| WitnessError::Malformed(e.to_string()))?;
    let started = Instant::now();
    let mut sim = Simulator::new(net, rates.clone(), seed);
    let exported: Vec<Run> = (0..witness_runs)
        .map(|_| sim.simulate(bound, tempo_smc::DEFAULT_MAX_STEPS))
        .collect();
    let cert = RunCertificate { runs: exported };
    cert.validate(net)?;
    stamp(&mut out, &Certificate::Runs(cert.clone()), started);
    Ok((out, cert))
}

/// MDP reachability with a certified scheduler: value iteration's argmax
/// policy is exported and its induced Markov chain's probability
/// recomputed within `epsilon` of the reported value.
///
/// # Errors
///
/// A [`WitnessError`] if the scheduler fails validation.
pub fn certified_mdp_reachability(
    mdp: &Mdp,
    opt: Opt,
    goal: &[bool],
    epsilon: f64,
    budget: &Budget,
) -> Certified<Quantitative, SchedulerCertificate> {
    let mut out = tempo_mdp::reachability_governed(mdp, opt, goal, budget);
    let started = Instant::now();
    let cert = SchedulerCertificate::build_with_opt(out.value(), opt, goal.to_vec(), epsilon);
    cert.validate(mdp)?;
    stamp(&mut out, &Certificate::Scheduler(cert.clone()), started);
    Ok((out, cert))
}

/// Probabilistic reachability on a compiled MODEST model (mcpta) with a
/// certified scheduler over the underlying MDP.
///
/// # Errors
///
/// A [`WitnessError`] if the scheduler fails validation.
pub fn certified_mcpta_reach(
    m: &Mcpta,
    opt: Opt,
    goal: &StateFormula,
    epsilon: f64,
    budget: &Budget,
) -> Certified<Quantitative, SchedulerCertificate> {
    let mask = m.goal_mask(goal);
    let mut out = m.reach_quantitative(opt, goal, budget);
    let started = Instant::now();
    let cert = SchedulerCertificate::build_with_opt(out.value(), opt, mask, epsilon);
    cert.validate(m.mdp())?;
    stamp(&mut out, &Certificate::Scheduler(cert.clone()), started);
    Ok((out, cert))
}
