//! `modes`: discrete-event simulation of MODEST models
//! (Bozga et al., DATE 2012, §III). Nondeterminism — both in delays and
//! between enabled actions — is resolved by an explicit [`Scheduler`],
//! matching the paper's remark that "we explicitly specified a scheduler
//! to resolve nondeterminism"; probabilistic (`palt`) choices are
//! resolved by their weights. Runs walk [`DigitalExplorer`]'s grouped
//! transitions on the unreduced network with the global clamp.

use crate::Pta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_ta::{ClockAtom, DigitalExplorer, DigitalState, StateFormula, Transitions};

/// [`RunReport`] for the simulator: only runs and wall time apply.
fn modes_report(gov: &Governor, completed: usize) -> RunReport {
    RunReport {
        runs_simulated: completed as u64,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// How the simulator resolves scheduling nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Take enabled actions as soon as possible; tick only when no action
    /// is enabled.
    Asap,
    /// Delay as long as the invariants allow; act only when time is
    /// blocked (maximizes completion times — the scheduler used for the
    /// Emax row of Table I).
    Alap,
    /// Choose uniformly among ticking and each enabled action.
    Uniform,
}

/// One simulated run over the digital-clocks semantics.
#[derive(Debug, Clone)]
pub struct ModesRun {
    /// Visited states, starting with the initial state.
    pub states: Vec<DigitalState>,
    /// Elapsed integer time at each visited state.
    pub times: Vec<i64>,
    /// Whether the run ended with no enabled move (deadlock/termination).
    pub stuck: bool,
}

impl ModesRun {
    /// Total elapsed time.
    #[must_use]
    pub fn duration(&self) -> i64 {
        self.times.last().copied().unwrap_or(0)
    }

    /// The earliest time at which `goal` holds, if observed.
    #[must_use]
    pub fn first_hit(&self, exp: &DigitalExplorer<'_>, goal: &StateFormula) -> Option<i64> {
        self.states
            .iter()
            .zip(&self.times)
            .find(|(s, _)| exp.satisfies(s, goal))
            .map(|(_, &t)| t)
    }

    /// Whether `safe` holds in every visited state.
    #[must_use]
    pub fn globally(&self, exp: &DigitalExplorer<'_>, safe: &StateFormula) -> bool {
        self.states.iter().all(|s| exp.satisfies(s, safe))
    }
}

/// Aggregate result of a `modes` experiment on a Bernoulli run property,
/// reported like the paper's Table I (`0 (no observations in 10k runs)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModesObservation {
    /// Number of runs satisfying the property.
    pub observations: usize,
    /// Total runs.
    pub runs: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

impl std::fmt::Display for ModesObservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.observations == 0 {
            write!(f, "0 (no observations in {} runs)", self.runs)
        } else if self.observations == self.runs {
            write!(f, "1 (all {} runs)", self.runs)
        } else {
            write!(f, "µ={:.1e}, σ={:.1e}", self.mean, self.std_dev)
        }
    }
}

/// The `modes` discrete-event simulator.
#[derive(Debug)]
pub struct Modes<'p> {
    exp: DigitalExplorer<'p>,
    scheduler: Scheduler,
    rng: StdRng,
}

impl<'p> Modes<'p> {
    /// Creates a simulator with the given scheduler and seed.
    /// `extra_atoms` must cover property clock constants.
    ///
    /// # Panics
    ///
    /// Panics if the PTA is not closed (strict bounds).
    #[must_use]
    pub fn new(pta: &'p Pta, extra_atoms: &[ClockAtom], scheduler: Scheduler, seed: u64) -> Self {
        Modes {
            exp: DigitalExplorer::for_query(pta, extra_atoms).unwrap_or_else(|e| panic!("{e}")),
            scheduler,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The explorer (for evaluating properties over runs).
    #[must_use]
    pub fn explorer(&self) -> &DigitalExplorer<'p> {
        &self.exp
    }

    /// Simulates one run until `time_bound` elapsed time, `max_steps`
    /// transitions, or no move is enabled.
    pub fn simulate(&mut self, time_bound: i64, max_steps: usize) -> ModesRun {
        let mut state = self.exp.initial_state();
        let mut time = 0_i64;
        let mut run = ModesRun {
            states: vec![state.clone()],
            times: vec![0],
            stuck: false,
        };
        let mut transitions = Transitions::default();
        for _ in 0..max_steps {
            if time >= time_bound {
                break;
            }
            self.exp.transitions(&state, &mut transitions);
            let tick = self.exp.tick(&state);
            let take_tick = match (self.scheduler, tick.is_some(), transitions.is_empty()) {
                (_, false, true) => {
                    run.stuck = true;
                    break;
                }
                (_, false, false) => false,
                (_, true, true) => true,
                (Scheduler::Asap, true, false) => false,
                (Scheduler::Alap, true, false) => true,
                (Scheduler::Uniform, true, false) => self.rng.gen_range(0..=transitions.len()) == 0,
            };
            if take_tick {
                state = tick.expect("tick checked above");
                time += 1;
            } else {
                let t = &transitions[self.rng.gen_range(0..transitions.len())];
                // Sample the probabilistic branch.
                let u: f64 = self.rng.gen_range(0.0..1.0);
                let mut acc = 0.0;
                let mut chosen = &t[t.len() - 1].1;
                for (p, next) in t {
                    acc += p;
                    if u < acc {
                        chosen = next;
                        break;
                    }
                }
                state = chosen.clone();
            }
            run.states.push(state.clone());
            run.times.push(time);
        }
        run
    }

    /// Runs a Bernoulli experiment: how many of `runs` simulations
    /// satisfy `property`?
    ///
    /// Runs under a resource [`Budget`]: on run-budget or deadline
    /// exhaustion the partial observation covers the runs that
    /// completed (its `runs` field is the completed count).
    pub fn observe_governed<F>(
        &mut self,
        runs: usize,
        time_bound: i64,
        max_steps: usize,
        mut property: F,
        budget: &Budget,
    ) -> Outcome<ModesObservation>
    where
        F: FnMut(&DigitalExplorer<'p>, &ModesRun) -> bool,
    {
        let gov = budget.governor();
        let mut hits = 0_usize;
        let mut completed = 0_usize;
        for _ in 0..runs {
            if !gov.check_time() || !gov.charge_run() {
                break;
            }
            let run = self.simulate(time_bound, max_steps);
            completed += 1;
            if property(&self.exp, &run) {
                hits += 1;
            }
        }
        let mean = if completed == 0 {
            0.0
        } else {
            hits as f64 / completed as f64
        };
        let report = modes_report(&gov, completed);
        gov.finish(
            ModesObservation {
                observations: hits,
                runs: completed,
                mean,
                // Sample standard deviation of a Bernoulli observable.
                std_dev: (mean * (1.0 - mean)).sqrt(),
            },
            report,
        )
    }

    /// Estimates the mean and standard deviation of a run functional
    /// (e.g. completion time for the Emax row of Table I).
    ///
    /// Runs under a resource [`Budget`]: on exhaustion the partial
    /// observation covers the completed runs (mean `0` when no
    /// run completed).
    pub fn expected_governed<F>(
        &mut self,
        runs: usize,
        time_bound: i64,
        max_steps: usize,
        mut value: F,
        budget: &Budget,
    ) -> Outcome<ModesObservation>
    where
        F: FnMut(&DigitalExplorer<'p>, &ModesRun) -> f64,
    {
        let gov = budget.governor();
        let mut samples: Vec<f64> = Vec::with_capacity(runs.min(1024));
        for _ in 0..runs {
            if !gov.check_time() || !gov.charge_run() {
                break;
            }
            let run = self.simulate(time_bound, max_steps);
            samples.push(value(&self.exp, &run));
        }
        let n = samples.len() as f64;
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / n
        };
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let report = modes_report(&gov, samples.len());
        gov.finish(
            ModesObservation {
                observations: samples.len(),
                runs: samples.len(),
                mean,
                std_dev: var.sqrt(),
            },
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Assignment, ModestModel, PaltBranch, Process};
    use crate::compile::compile;
    use tempo_expr::Expr;
    use tempo_ta::ClockAtom;

    fn coin_pta() -> (Pta, tempo_expr::VarId) {
        let mut m = ModestModel::new();
        let toss = m.action("toss");
        let heads = m.decls_mut().int("heads", 0, 1);
        m.define(
            "Coin",
            Process::palt(
                toss,
                vec![
                    PaltBranch {
                        weight: 1,
                        assignments: vec![Assignment::Var(heads, Expr::konst(1))],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 1,
                        assignments: vec![],
                        then: Process::stop(),
                    },
                ],
            ),
        );
        m.system(&["Coin"]);
        (compile(&m), heads)
    }

    #[test]
    fn coin_flips_near_half() {
        let (pta, heads) = coin_pta();
        let mut modes = Modes::new(&pta, &[], Scheduler::Asap, 42);
        let goal = StateFormula::data(Expr::var(heads).eq(Expr::konst(1)));
        let obs = modes
            .observe_governed(
                2000,
                100,
                100,
                |exp, run| run.first_hit(exp, &goal).is_some(),
                &Budget::unlimited(),
            )
            .into_value();
        assert!((obs.mean - 0.5).abs() < 0.05, "observed {obs}");
    }

    #[test]
    fn alap_scheduler_waits_out_invariants() {
        let mut m = ModestModel::new();
        let x = m.clock("x");
        let a = m.action("a");
        m.define(
            "P",
            Process::invariant(
                vec![ClockAtom::le(x, 5)],
                Process::when_clock(ClockAtom::ge(x, 1), Process::act(a, Process::stop())),
            ),
        );
        m.system(&["P"]);
        let pta = compile(&m);
        let goal = StateFormula::at(tempo_ta::AutomatonId(0), tempo_ta::LocationId(1));
        let mut alap = Modes::new(&pta, &[], Scheduler::Alap, 1);
        let obs = alap
            .expected_governed(
                50,
                100,
                100,
                |exp, run| run.first_hit(exp, &goal).unwrap_or(100) as f64,
                &Budget::unlimited(),
            )
            .into_value();
        assert!(
            (obs.mean - 5.0).abs() < 1e-9,
            "ALAP hits at the invariant bound"
        );
        let mut asap = Modes::new(&pta, &[], Scheduler::Asap, 1);
        let obs = asap
            .expected_governed(
                50,
                100,
                100,
                |exp, run| run.first_hit(exp, &goal).unwrap_or(100) as f64,
                &Budget::unlimited(),
            )
            .into_value();
        assert!((obs.mean - 1.0).abs() < 1e-9, "ASAP acts at the guard");
    }

    #[test]
    fn rare_events_unobserved() {
        // 0.1% branch: in 100 runs with a fixed seed we expect (almost
        // always) zero observations — the paper's Table I phenomenon.
        let mut m = ModestModel::new();
        let toss = m.action("toss");
        let rare = m.decls_mut().int("rare", 0, 1);
        m.define(
            "P",
            Process::palt(
                toss,
                vec![
                    PaltBranch {
                        weight: 1,
                        assignments: vec![Assignment::Var(rare, Expr::konst(1))],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 9999,
                        assignments: vec![],
                        then: Process::stop(),
                    },
                ],
            ),
        );
        m.system(&["P"]);
        let pta = compile(&m);
        let goal = StateFormula::data(Expr::var(rare).eq(Expr::konst(1)));
        let mut modes = Modes::new(&pta, &[], Scheduler::Asap, 7);
        let obs = modes
            .observe_governed(
                100,
                10,
                10,
                |exp, run| run.first_hit(exp, &goal).is_some(),
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(obs.observations, 0);
        assert_eq!(obs.to_string(), "0 (no observations in 100 runs)");
    }

    #[test]
    fn time_bound_ends_runs() {
        // After the toss the process is Stop, but time can still pass, so
        // the run ends at the time bound rather than getting stuck.
        let (pta, _) = coin_pta();
        let mut modes = Modes::new(&pta, &[], Scheduler::Asap, 3);
        let run = modes.simulate(50, 1000);
        assert!(!run.stuck);
        assert_eq!(run.duration(), 50);
    }
}
