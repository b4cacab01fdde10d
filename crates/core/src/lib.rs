//! # tempo — quantitative modeling and analysis of embedded systems
//!
//! `tempo-core` is the facade of the **tempo** toolkit, a Rust
//! reproduction of the tool landscape surveyed in Bozga, David,
//! Hartmanns, Hermanns, Larsen, Legay and Tretmans, *State-of-the-Art
//! Tools and Techniques for Quantitative Modeling and Analysis of
//! Embedded Systems*, DATE 2012. What makes these tools unique is their
//! ability to deal with both **timing** and **stochastic** aspects; the
//! toolkit mirrors the paper's four pillars:
//!
//! | paper tool | module | what it does |
//! |------------|--------|--------------|
//! | UPPAAL | [`ta`] (+ [`dbm`], [`expr`]) | symbolic model checking of timed-automata networks: `E<>`, `A[]`, leads-to, deadlock-freedom |
//! | UPPAAL-CORA | [`cora`] | minimum-cost reachability for priced timed automata |
//! | UPPAAL-TIGA | [`tiga`] | winning-strategy synthesis for timed games |
//! | UPPAAL-SMC | [`smc`] | statistical model checking under the paper's stochastic semantics |
//! | ECDAR | [`ecdar`] | timed I/O automata: refinement, consistency, structural & logical composition |
//! | MODEST toolset | [`modest`] (+ [`mdp`]) | one formalism, three solutions: `mctau` (TA over-approximation), `mcpta` (PTA → MDP, PRISM-style), `modes` (simulation) |
//! | BIP / D-Finder | [`bip`] | component-based design, compositional deadlock detection, safety-controller synthesis |
//! | TorX / TRON | [`ioco`] | model-based testing: ioco and rtioco, test generation and online testing |
//! | — (cross-cutting) | [`witness`] | concrete trace realization, per-engine certificates, independent replay validation |
//!
//! ## Quickstart
//!
//! ```
//! use tempo_core::ta::{NetworkBuilder, ModelChecker, StateFormula, ClockAtom};
//!
//! // A lamp that must dim within 5 time units of being switched on.
//! let mut b = NetworkBuilder::new();
//! let x = b.clock("x");
//! let mut lamp = b.automaton("Lamp");
//! let off = lamp.location("Off");
//! let on = lamp.location_with_invariant("On", vec![ClockAtom::le(x, 5)]);
//! lamp.edge(off, on).reset(x, 0).done();
//! lamp.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
//! let lamp_id = lamp.done();
//! let net = b.build();
//!
//! let mut mc = ModelChecker::new(&net);
//! assert!(mc.reachable(&StateFormula::at(lamp_id, on)).reachable);
//! let (deadlock_free, _) = mc.deadlock_free();
//! assert!(deadlock_free.holds());
//! ```
//!
//! The `tempo-models` crate contains the paper's complete examples
//! (train-gate, BRP, DALA, testing models); the `examples/` directory of
//! the repository reproduces every table and figure of the paper's
//! evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The BIP component framework, D-Finder and controller synthesis.
pub use tempo_bip as bip;
/// Concurrency substrate: the analysis service's job queue,
/// cancellation, sharded cache map, spill log and index-derived trial
/// seeds.
pub use tempo_conc as conc;
/// Priced timed automata and minimum-cost reachability (UPPAAL-CORA).
pub use tempo_cora as cora;
/// Difference-bound matrices and federations (zone algebra).
pub use tempo_dbm as dbm;
/// Timed I/O automata, refinement and composition (ECDAR).
pub use tempo_ecdar as ecdar;
/// Bounded-integer data language (variables, expressions, updates).
pub use tempo_expr as expr;
/// Abstract-interpretation dataflow passes: LU clock bounds, variable
/// ranges, cone-of-influence slicing support.
pub use tempo_flow as flow;
/// Model-based testing: ioco and rtioco.
pub use tempo_ioco as ioco;
/// The `tempo-lang` textual frontend: parser, machine IR, elaboration
/// onto every engine substrate, pretty-printer, corpus headers.
pub use tempo_lang as lang;
/// Static model analysis: lint rules over TA networks, BIP systems and
/// MODEST models, plus the `check_*_first` gates used by the engines.
pub use tempo_lint as lint;
/// Markov decision processes solved one SCC at a time (PRISM-style backend).
pub use tempo_mdp as mdp;
/// The MODEST process language and its three analysis backends.
pub use tempo_modest as modest;
/// Resource budgets, graceful exhaustion and run reports shared by all
/// analysis engines ([`obs::Budget`], [`obs::Outcome`], [`obs::RunReport`]).
pub use tempo_obs as obs;
/// Priced statistical model checking and importance-splitting
/// rare-event simulation (UPPAAL-CORA costs × UPPAAL-SMC runs, `modes`'
/// rare-event mode).
pub use tempo_rare as rare;
/// Stochastic semantics and statistical model checking (UPPAAL-SMC).
pub use tempo_smc as smc;
/// Multi-tenant concurrent analysis service with a certified,
/// content-addressed verdict cache ([`svc::AnalysisService`]).
pub use tempo_svc as svc;
/// Timed-automata networks and the symbolic model checker (UPPAAL).
pub use tempo_ta as ta;
/// Timed games and strategy synthesis (UPPAAL-TIGA).
pub use tempo_tiga as tiga;
/// Concrete trace realization, per-engine certificates and the
/// independent cross-engine replay validator.
pub use tempo_witness as witness;
