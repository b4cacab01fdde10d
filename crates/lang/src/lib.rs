//! `tempo-lang`: the textual frontend for the tempo toolbox.
//!
//! A CSPM-flavoured process language covering the modeling constructs
//! of the DATE 2012 survey's tool landscape — clocked prefix with
//! guards and updates, external (`[]`) and internal (`|~|`) choice,
//! parallel composition with per-junction sync sets, hiding, renaming,
//! integer parameters, and `assert` lines that name the analysis to
//! run (deadlock freedom, timed reachability, leads-to, refinement,
//! ioco, `Pmax`/`Pmin`, and statistical `Pr[..]` queries).
//!
//! The pipeline:
//!
//! ```text
//! source ─ lex/parse ─→ ast::Model ─ machine::build ─→ MachineSet
//!                                                        │
//!                    ┌────────────────┬──────────┴──┬─────────────┐
//!                    ▼                ▼             ▼             ▼
//!              elaborate::         to_bip        to_tioa       to_lts
//!              to_network          (deadlock)    (refinement)  (ioco)
//!              (ta/mctau/mcpta/smc)
//! ```
//!
//! * [`parse`] turns source text into an [`ast::Model`] or a
//!   [`ParseError`] carrying a line:column span and a stable `TLxxx`
//!   code; [`ParseError::to_diagnostic`] bridges into the `tempo-lint`
//!   diagnostic stream.
//! * [`machine::build`] unfolds parameterized recursion into the flat
//!   [`machine::MachineSet`] IR, classifying events against the system
//!   line's sync sets (synchronized, hidden, or internal).
//! * [`elaborate`] lowers the IR onto each analysis substrate, gating
//!   engine subsets with `TL103` diagnostics instead of silently
//!   approximating.
//! * [`pretty::render`] prints a model back to canonical source;
//!   `parse ∘ render` is the identity on parser output (checked by a
//!   property test).
//!
//! Support modules used by the `tempo` CLI: [`jsonv`] (canonical JSON
//! writer + strict reader for the versioned result document),
//! [`sha256`] (input fingerprinting), and [`corpus`] (expected-verdict
//! headers of the graded problem set).

pub mod ast;
pub mod corpus;
pub mod elaborate;
pub mod jsonv;
pub mod machine;
pub mod parser;
pub mod pretty;
pub mod sha256;
pub mod token;

pub use ast::Model;
pub use corpus::{parse_header, CorpusHeader, Expectation};
pub use elaborate::{lower_formula_network, to_bip, to_lts, to_network, to_tioa};
pub use jsonv::Json;
pub use machine::{build, MachineSet};
pub use parser::{parse, ParseError};
pub use pretty::render;
pub use sha256::sha256_hex;
pub use token::{lex, Span};
