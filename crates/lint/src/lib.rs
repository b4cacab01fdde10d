//! # tempo-lint — static analysis of models before they reach an engine
//!
//! A diagnostics framework plus a registry of static passes ("lint
//! rules") over the three modelling substrates of the workspace:
//! networks of timed automata ([`check_network`]), BIP systems
//! ([`check_bip`]) and MODEST models ([`check_modest`]). Each pass
//! reports [`Diagnostic`]s with a stable rule code; the `*_first`
//! variants turn blocking findings into a typed [`LintError`] so that
//! engines can *refuse* a broken model instead of panicking or silently
//! producing a meaningless verdict.
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | TA001  | warning  | location unreachable in the automaton's edge graph |
//! | TA002  | error    | edge guard contradicts its source invariant (DBM-empty) |
//! | TA003  | warning  | channel without matching sender/receiver |
//! | TA004  | warning  | clock never read by any guard or invariant |
//! | TA005  | warning  | clock read but never reset (unbounded drift) |
//! | TA006  | warning  | internal cycle with no time progress (Zeno candidate) |
//! | TA007  | warning  | near-miss symmetry orbit: template instances that differ |
//! | TA008  | warning  | variable written but never read on a path to an observable expression |
//! | BIP001 | warning  | port bound to no interaction |
//! | BIP002 | warning  | component state unreachable in the transition graph |
//! | MOD001 | mixed    | duplicate/shadowed identifier (warning), call of an undefined process (error) |
//! | MOD002 | mixed    | 64-bit-overflow-prone expression or possible zero divisor (warning), assignment definitely out of range (error) |
//! | MOD003 | warning  | `when` guard provably false under range analysis (unreachable branch) |
//! | CORA001 | error   | negative location cost rate or edge cost on a priced network |
//!
//! ## Example
//!
//! ```
//! use tempo_ta::NetworkBuilder;
//!
//! let mut b = NetworkBuilder::new();
//! let _dead = b.clock("dead"); // never read: TA004
//! let mut a = b.automaton("A");
//! let l0 = a.location("L0");
//! a.edge(l0, l0).reset(_dead, 0).done();
//! a.done();
//! let net = b.build();
//!
//! let report = tempo_lint::check_network(&net);
//! assert!(report.diagnostics.iter().any(|d| d.code == "TA004"));
//! // Warnings do not block engines by default:
//! assert!(tempo_lint::check_network_first(&net, &tempo_lint::LintConfig::default()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bip;
mod modest;
mod ta;

pub use bip::check_bip;
pub use modest::check_modest;
pub use ta::check_network;
pub use tempo_obs::{Diagnostic, LintError, Severity};

/// How strictly a `*_first` entry point treats the lint report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// When set, warnings also block (the default blocks on
    /// [`Severity::Error`] only).
    pub warnings_as_errors: bool,
}

impl LintConfig {
    /// The strict configuration: any finding blocks.
    #[must_use]
    pub fn strict() -> Self {
        LintConfig {
            warnings_as_errors: true,
        }
    }
}

/// The outcome of running a lint pass over one model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, in rule-code order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether the pass found nothing at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any finding blocks under `config`.
    #[must_use]
    pub fn has_blocking(&self, config: &LintConfig) -> bool {
        if config.warnings_as_errors {
            !self.diagnostics.is_empty()
        } else {
            self.errors().next().is_some()
        }
    }

    /// Converts the report into the typed refusal of a `check_first`
    /// entry point: `Ok` with the non-blocking findings, or `Err` with
    /// the blocking ones.
    ///
    /// # Errors
    ///
    /// Returns a [`LintError`] carrying every blocking diagnostic.
    pub fn into_result(self, config: &LintConfig) -> Result<LintReport, LintError> {
        if self.has_blocking(config) {
            let blocking = if config.warnings_as_errors {
                self.diagnostics
            } else {
                self.errors().cloned().collect()
            };
            Err(LintError::new(blocking))
        } else {
            Ok(self)
        }
    }
}

/// One entry of the rule registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Stable code (`"TA002"`).
    pub code: &'static str,
    /// Severity the rule reports at (its worst case for mixed rules).
    pub severity: Severity,
    /// One-line description.
    pub description: &'static str,
}

/// The registry of every lint rule, in code order.
#[must_use]
pub fn rules() -> &'static [Rule] {
    const RULES: &[Rule] = &[
        Rule {
            code: "TA001",
            severity: Severity::Warning,
            description: "location unreachable in the automaton's edge graph",
        },
        Rule {
            code: "TA002",
            severity: Severity::Error,
            description: "edge guard contradicts its source-location invariant",
        },
        Rule {
            code: "TA003",
            severity: Severity::Warning,
            description: "channel without matching sender/receiver",
        },
        Rule {
            code: "TA004",
            severity: Severity::Warning,
            description: "clock never read by any guard or invariant",
        },
        Rule {
            code: "TA005",
            severity: Severity::Warning,
            description: "clock read but never reset",
        },
        Rule {
            code: "TA006",
            severity: Severity::Warning,
            description: "internal cycle with no enforced time progress (Zeno candidate)",
        },
        Rule {
            code: "TA007",
            severity: Severity::Warning,
            description: "components almost form a symmetry orbit but an edit breaks it",
        },
        Rule {
            code: "TA008",
            severity: Severity::Warning,
            description: "variable written but never read on a path to an observable expression",
        },
        Rule {
            code: "BIP001",
            severity: Severity::Warning,
            description: "port bound to no interaction",
        },
        Rule {
            code: "BIP002",
            severity: Severity::Warning,
            description: "component state unreachable in the transition graph",
        },
        Rule {
            code: "MOD001",
            severity: Severity::Error,
            description: "duplicate or shadowed identifier; undefined process call",
        },
        Rule {
            code: "MOD002",
            severity: Severity::Error,
            description: "overflow-prone integer expression or out-of-range assignment",
        },
        Rule {
            code: "MOD003",
            severity: Severity::Warning,
            description: "guard provably false under range analysis (unreachable branch)",
        },
        Rule {
            code: "CORA001",
            severity: Severity::Error,
            description: "negative location cost rate or edge cost (cost-bounded queries assume monotone cost)",
        },
    ];
    RULES
}

/// Lints a network of timed automata and refuses on blocking findings.
///
/// This is the `check_first` entry point for the symbolic engines of
/// `tempo-ta` ([`ModelChecker`](tempo_ta::ModelChecker),
/// [`leads_to_governed`](tempo_ta::leads_to_governed)):
/// call it before construction. Engines that additionally require
/// digital-clocks-closed models (cora, tiga, smc) wrap this with
/// [`DigitalExplorer::try_new`](tempo_ta::DigitalExplorer::try_new) in
/// their own `check_first` methods.
///
/// # Errors
///
/// Returns a [`LintError`] with every blocking diagnostic under
/// `config`; never panics.
pub fn check_network_first(
    net: &tempo_ta::Network,
    config: &LintConfig,
) -> Result<LintReport, LintError> {
    check_network(net).into_result(config)
}

/// Lints a BIP system and refuses on blocking findings.
///
/// # Errors
///
/// Returns a [`LintError`] with every blocking diagnostic under
/// `config`; never panics.
pub fn check_bip_first(
    sys: &tempo_bip::BipSystem,
    config: &LintConfig,
) -> Result<LintReport, LintError> {
    check_bip(sys).into_result(config)
}

/// Lints a MODEST model and refuses on blocking findings.
///
/// # Errors
///
/// Returns a [`LintError`] with every blocking diagnostic under
/// `config`; never panics.
pub fn check_modest_first(
    model: &tempo_modest::ModestModel,
    config: &LintConfig,
) -> Result<LintReport, LintError> {
    check_modest(model).into_result(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_are_unique() {
        let codes: Vec<&str> = rules().iter().map(|r| r.code).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(codes.len(), dedup.len(), "registry codes unique");
    }

    #[test]
    fn strict_config_blocks_on_warnings() {
        let report = LintReport {
            diagnostics: vec![Diagnostic::warning("TA004", None, "w")],
        };
        assert!(!report.has_blocking(&LintConfig::default()));
        assert!(report.has_blocking(&LintConfig::strict()));
        let err = report.into_result(&LintConfig::strict()).unwrap_err();
        assert_eq!(err.diagnostics.len(), 1);
    }
}
