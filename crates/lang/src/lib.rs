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

#[cfg(test)]
mod query {
    //! The paper's UPPAAL property syntax (`E<>`, `A[]`) on a lamp: each
    //! query is an `assert` line, lowered onto the network and decided
    //! by the zone engine as `tempo check` decides it (`A[] f` holds when
    //! `!f` is unreachable).

    mod tests {
        use crate::ast::AssertKind;
        use crate::{build, lower_formula_network, parse, to_network};
        use tempo_ta::{ModelChecker, ReachResult, StateFormula};

        /// Off -> On sets level := 2 and resets x; On (x <= 10) -> Off
        /// once x >= 1 sets level := 0.
        const LAMP: &str = "
clock x
var level: 0..3 = 0

process Off = tau {x := 0, level := 2} -> On
process On = inv {x <= 10} when {x >= 1} tau {level := 0} -> Off

system Off as Lamp
";

        /// Whether the lamp satisfies the one `assert` line `query`, with
        /// the zone search that decided it.
        fn check(query: &str) -> (bool, ReachResult) {
            let model = parse(&format!("{LAMP}{query}\n")).expect("parse");
            let set = build(&model).expect("machine build");
            let net = to_network(&set).expect("network");
            let [assert] = &model.asserts[..] else {
                panic!("one assert line expected");
            };
            let (f, reach) = match &assert.kind {
                AssertKind::Reach(f) => (f, true),
                AssertKind::Always(f) => (f, false),
                other => panic!("not a zone query: {other:?}"),
            };
            let goal = lower_formula_network(&set, &net, f).expect("lower");
            let goal = if reach { goal } else { StateFormula::not(goal) };
            let res = ModelChecker::new(&net).reachable(&goal);
            (res.reachable == reach, res)
        }

        fn holds(query: &str) -> bool {
            check(query).0
        }

        #[test]
        fn reachability_queries() {
            let (sat, res) = check("assert E<> Lamp.On");
            assert!(sat);
            assert!(res.trace.is_some());
            assert!(holds("assert E<> Lamp.On && level == 2"));
            assert!(!holds("assert E<> Lamp.Off && level == 3"));
        }

        #[test]
        fn safety_queries() {
            assert!(holds("assert A[] level <= 2"));
            assert!(holds("assert A[] !(Lamp.On && level == 0)"));
            assert!(!holds("assert A[] Lamp.Off"));
            // Clock bound: On implies x <= 10 (the invariant).
            assert!(holds("assert A[] !Lamp.On || x <= 10"));
            assert!(!holds("assert A[] !Lamp.On || x <= 9"));
        }
    }
}
