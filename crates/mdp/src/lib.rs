//! # tempo-mdp — Markov decision processes and probabilistic model checking
//!
//! The PRISM-like substrate of the workspace: finite [`Mdp`] models with
//! nondeterministic actions, probabilistic transitions and action rewards,
//! analysed by qualitative graph precomputation (`Prob0`/`Prob1`) and a
//! value computation, both done one strongly connected component (SCC)
//! at a time in reverse topological order. A one-state SCC — every SCC of
//! an acyclic or self-loop-only model, such as the digital-clocks MDPs of
//! the BRP — is solved exactly in closed form; only an SCC of more than
//! one state runs Gauss–Seidel value iteration, on its own states. The
//! `mcpta` analogue in `tempo-modest` translates probabilistic timed
//! automata to these MDPs with the digital clocks construction (Bozga et
//! al., DATE 2012, §III).
//!
//! Supported queries, each under a resource budget
//! ([`tempo_obs::Budget`]):
//!
//! * [`reachability_governed`] — `Pmax` / `Pmin` of eventually reaching a
//!   goal set;
//! * [`bounded_reachability_governed`] — step-bounded variants;
//! * [`expected_reward_governed`] — `Emax` / `Emin` of the total reward
//!   accumulated until the goal (e.g. expected completion time);
//! * [`interval_reachability_governed`] — a certified `[lower, upper]`
//!   enclosure of `Pmax` / `Pmin`;
//! * qualitative sets: [`reach_exists`], [`reach_forall_positive`],
//!   [`prob1_exists`].
//!
//! ## Example
//!
//! ```
//! use tempo_mdp::{MdpBuilder, Opt, reachability_governed};
//! use tempo_obs::Budget;
//!
//! let mut b = MdpBuilder::new();
//! let s0 = b.add_state();
//! let win = b.add_state();
//! let lose = b.add_state();
//! b.add_action(s0, None, 0.0, vec![(win, 0.3), (lose, 0.7)])?;
//! let mdp = b.build(s0)?;
//! let goal = vec![false, true, false];
//! let res = reachability_governed(&mdp, Opt::Max, &goal, &Budget::unlimited()).into_value();
//! assert!((res.initial_value - 0.3).abs() < 1e-9);
//! # Ok::<(), tempo_mdp::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod model;

pub use analysis::{
    bounded_reachability_governed, expected_reward_governed, interval_reachability_governed,
    prob1_exists, reach_exists, reach_forall_positive, reachability_governed, IntervalResult, Opt,
    Quantitative, EPSILON, MAX_ITERATIONS,
};
pub use model::{BuildError, Mdp, MdpAction, MdpBuilder, StateId};
