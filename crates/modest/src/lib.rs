//! # tempo-modest — a MODEST-style single-formalism, multi-solution toolset
//!
//! This crate reproduces the MODEST approach of Bozga et al. (DATE 2012,
//! §III): one compositional modelling language for stochastic timed
//! systems, analysed by several backends:
//!
//! * [`Mctau`] — connects MODEST models to the UPPAAL substrate
//!   ([`tempo_ta`]) by over-approximating probabilistic choices with
//!   nondeterminism; fast model debugging, exact for invariants;
//! * [`Mcpta`] — exact probabilistic model checking of the PTA fragment
//!   via the digital-clocks translation to an MDP, solved by the
//!   PRISM-like engine in [`tempo_mdp`];
//! * [`Modes`] — discrete-event simulation with explicit schedulers for
//!   nondeterminism.
//!
//! Models are written in an AST mirroring MODEST's syntax ([`Process`],
//! [`ModestModel`]); [`compile`] translates the system composition into a
//! network of timed automata ([`Pta`]) whose `palt` choices are runs of
//! weighted sibling edges. All three backends read that one network and
//! tempo-ta's one move rule: `Mctau` runs the zone engine on it, `Mcpta`
//! and `Modes` walk [`tempo_ta::DigitalExplorer`]'s grouped transitions.
//!
//! ## Example: a biased coin, three ways
//!
//! ```
//! use tempo_modest::{ModestModel, Process, PaltBranch, Assignment, compile,
//!                    Mcpta, Mctau, Modes, Scheduler};
//! use tempo_expr::Expr;
//! use tempo_mdp::Opt;
//! use tempo_obs::Budget;
//! use tempo_ta::StateFormula;
//!
//! let mut m = ModestModel::new();
//! let toss = m.action("toss");
//! let heads = m.decls_mut().int("heads", 0, 1);
//! m.define("Coin", Process::palt(toss, vec![
//!     PaltBranch { weight: 3, assignments: vec![Assignment::Var(heads, Expr::konst(1))],
//!                  then: Process::stop() },
//!     PaltBranch { weight: 1, assignments: vec![], then: Process::stop() },
//! ]));
//! m.system(&["Coin"]);
//! let pta = compile(&m);
//!
//! let goal = StateFormula::data(Expr::var(heads).eq(Expr::konst(1)));
//! // mctau: the goal is reachable, so only trivial bounds.
//! let unlimited = Budget::unlimited();
//! let bounds = Mctau::new(&pta).probability_bounds_governed(&goal, &unlimited);
//! assert_eq!(bounds.into_value().upper, 1.0);
//! // mcpta: exact.
//! let mc = Mcpta::try_build(&pta, &[], &unlimited).into_value().expect("an MDP");
//! let pmax = mc.reach_quantitative(Opt::Max, &goal, &unlimited).into_value();
//! assert!((pmax.initial_value - 0.75).abs() < 1e-9);
//! // modes: statistical.
//! let mut sim = Modes::new(&pta, &[], Scheduler::Asap, 1);
//! let hit = |exp: &_, run: &tempo_modest::ModesRun| run.first_hit(exp, &goal).is_some();
//! let obs = sim.observe_governed(500, 10, 10, hit, &unlimited).into_value();
//! assert!((obs.mean - 0.75).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod compile;
mod mcpta;
mod mctau;
mod modes;
mod parser;

pub use ast::{ActionId, Assignment, ModestModel, PaltBranch, Process};
pub use compile::compile;
pub use mcpta::{Mcpta, McptaConfig, McptaStats};
pub use mctau::{Mctau, ProbabilityBounds};
pub use modes::{Modes, ModesObservation, ModesRun, Scheduler};
pub use parser::{parse_modest, ParseError};

/// A compiled MODEST model: a network of timed automata whose `palt`
/// choices are runs of weighted sibling edges (see
/// [`tempo_ta::Edge::continues_choice`]).
pub type Pta = tempo_ta::Network;
