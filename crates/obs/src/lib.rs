//! Resource governance for the tempo analysis engines.
//!
//! Every engine in the workspace explores a state space, iterates a
//! fixpoint, or simulates runs — and on an adversarial model each of
//! those loops is unbounded. This crate provides the shared vocabulary
//! that keeps them honest:
//!
//! * [`Budget`] — declarative resource limits (wall-clock deadline,
//!   stored states, fixpoint iterations, simulation runs),
//! * [`Governor`] — the cheap runtime meter an engine charges work
//!   against while it runs,
//! * [`RunReport`] — how much work an analysis actually performed,
//! * [`Outcome`] — a result that is either `Complete` or `Exhausted`
//!   with a *sound partial* answer (e.g. "no violation found within the
//!   states explored so far").
//!
//! The contract every engine upholds: with [`Budget::unlimited`] the
//! governed entry point behaves byte-identically to the ungoverned one;
//! with any finite budget it terminates promptly, never panics, and the
//! `Exhausted` wrapper marks the partial answer as non-definitive.
//!
//! ```
//! use tempo_obs::{Budget, Outcome};
//! use std::time::Duration;
//!
//! let budget = Budget::unlimited()
//!     .with_wall_time(Duration::from_secs(30))
//!     .with_max_states(1_000_000);
//! let gov = budget.governor();
//! let mut sum = 0u64;
//! for i in 0..10 {
//!     if !gov.charge_state() {
//!         break;
//!     }
//!     sum += i;
//! }
//! let report = gov.report();
//! let outcome = gov.finish(sum, report);
//! assert!(matches!(outcome, Outcome::Complete { value: 45, .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

pub use tempo_conc::CancelToken;

mod fingerprint;
mod store;

pub use fingerprint::{Fingerprint, StableDigest, StableHasher};
pub use store::{SpillMetrics, Spillable, StateStore};
pub use tempo_conc::{RecordRef, SpillError, StateLog};

/// Declarative resource limits for one analysis invocation.
///
/// A budget is a plain value: construct it once, hand a reference to a
/// governed engine entry point, and reuse it across calls. Every limit
/// defaults to "unlimited"; builders narrow one dimension at a time.
///
/// The builders are `#[must_use]`: they return a *new* budget rather
/// than mutating in place, so dropping the return value silently
/// discards the configured limit.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock allowance for the whole call.
    pub wall: Option<Duration>,
    /// Maximum states stored/explored (zone-graph nodes, product pairs,
    /// BIP global states, digital-clocks MDP states).
    pub max_states: Option<u64>,
    /// Maximum fixpoint iterations / value-iteration sweeps.
    pub max_iterations: Option<u64>,
    /// Maximum simulation runs (SMC, modes).
    pub max_runs: Option<u64>,
    /// Optional cooperative cancellation token: the governor polls it at
    /// the same cadence as the wall-clock deadline, so an analysis can
    /// be stopped externally (job cancellation, service shutdown).
    pub cancel: Option<CancelToken>,
}

/// Two budgets are equal when their limits agree and they share the
/// same cancellation token (both `None`, or clones of one token).
impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.wall == other.wall
            && self.max_states == other.max_states
            && self.max_iterations == other.max_iterations
            && self.max_runs == other.max_runs
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => a.same_as(b),
                _ => false,
            }
    }
}

impl Eq for Budget {}

impl Budget {
    /// A budget with no limits: governed entry points behave exactly
    /// like their ungoverned counterparts.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits total wall-clock time for the call.
    #[must_use = "the builder returns a new budget; dropping it discards the limit"]
    pub fn with_wall_time(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self
    }

    /// Limits the number of stored/explored states.
    #[must_use = "the builder returns a new budget; dropping it discards the limit"]
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = Some(max_states);
        self
    }

    /// Limits the number of fixpoint iterations or sweeps.
    #[must_use = "the builder returns a new budget; dropping it discards the limit"]
    pub fn with_max_iterations(mut self, max_iterations: u64) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// Limits the number of simulation runs.
    #[must_use = "the builder returns a new budget; dropping it discards the limit"]
    pub fn with_max_runs(mut self, max_runs: u64) -> Self {
        self.max_runs = Some(max_runs);
        self
    }

    /// Attaches a cooperative cancellation token. Cancelling the token
    /// makes the governor report [`ExhaustionReason::Cancelled`] at its
    /// next deadline poll, so the engine unwinds with a sound partial
    /// answer exactly as on any other budget exhaustion.
    #[must_use = "the builder returns a new budget; dropping it discards the token"]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when no limit is set on any dimension. A cancellation token
    /// does not count as a limit: until cancelled it never trips.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none()
            && self.max_states.is_none()
            && self.max_iterations.is_none()
            && self.max_runs.is_none()
    }

    /// Starts the clock: returns a [`Governor`] that meters work against
    /// this budget from now on.
    pub fn governor(&self) -> Governor {
        Governor::start(self)
    }
}

/// Which resource dimension ran out first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The wall-clock deadline passed.
    WallClock,
    /// The stored-state limit was reached.
    States,
    /// The iteration/sweep limit was reached.
    Iterations,
    /// The simulation-run limit was reached.
    Runs,
    /// The budget's [`CancelToken`] was cancelled: the caller (job
    /// owner, service shutdown) asked the analysis to stop.
    Cancelled,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExhaustionReason::WallClock => "wall-clock deadline exceeded",
            ExhaustionReason::States => "state budget exhausted",
            ExhaustionReason::Iterations => "iteration budget exhausted",
            ExhaustionReason::Runs => "simulation-run budget exhausted",
            ExhaustionReason::Cancelled => "cancelled by caller",
        };
        f.write_str(s)
    }
}

/// Severity of a [`Diagnostic`].
///
/// `Error`-level diagnostics make `check_first` engine entry points
/// refuse to run; warnings are reported but do not block analysis
/// (unless the caller opts into strict mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but analysable: the model runs, the result may not be
    /// what the modeller intended.
    Warning,
    /// Definitely wrong: the model (or query) cannot be analysed
    /// meaningfully.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding of a static analysis pass — the shared diagnostic
/// currency of the lint rules, the digital-clocks closedness check and
/// the parser error bridge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable rule code (`"TA002"`, `"BIP001"`, `"DIGITAL"`, `"PARSE"`).
    pub code: String,
    /// Where it is: an automaton/component/process name, optionally with
    /// a location (`"Train.Cross"`), or `None` for model-wide findings.
    pub component: Option<String>,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Creates a warning-level diagnostic.
    pub fn warning(code: &str, component: Option<&str>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code: code.to_owned(),
            component: component.map(str::to_owned),
            message: message.into(),
        }
    }

    /// Creates an error-level diagnostic.
    pub fn error(code: &str, component: Option<&str>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: code.to_owned(),
            component: component.map(str::to_owned),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(c) = &self.component {
            write!(f, " {c}:")?;
        }
        write!(f, " {}", self.message)
    }
}

/// The typed refusal of a `check_first` entry point: the diagnostics
/// that made the engine decline to analyse the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// The blocking findings (at least one, usually all at
    /// [`Severity::Error`]).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintError {
    /// Wraps blocking diagnostics into an error.
    #[must_use]
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        LintError { diagnostics }
    }
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model rejected by static analysis:")?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LintError {}

/// Whether a [`RunReport`] counter is fixed by the input or can differ
/// between runs of the same input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Work performed: the same input gives the same value at any worker
    /// count and on a warm rerun.
    Work,
    /// Work whose amount also depends on the worker count: a parallel
    /// round may do work that a hit or a deadline then never needs.
    WorkerDependent,
    /// Elapsed wall-clock time, which differs from run to run.
    Timing,
}

/// Declares [`RunReport`] from its counter table, one row per counter:
/// docs, `name: type` (`u64` or `Duration`), merge rule (`sum` or `max`)
/// and [`CounterKind`]. The struct, [`RunReport::merge`],
/// [`RunReport::counters`] and [`RunReport::parse_line`] are generated
/// from the rows, and `Display` walks [`RunReport::counters`].
macro_rules! run_report {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    // Text-form values are integers, durations in nanoseconds.
    (@to_u64 u64, $v:expr) => { $v };
    (@to_u64 Duration, $v:expr) => { u64::try_from($v.as_nanos()).unwrap_or(u64::MAX) };
    (@from_u64 u64, $v:expr) => { $v };
    (@from_u64 Duration, $v:expr) => { Duration::from_nanos($v) };
    (
        $(#[$attr:meta])*
        pub struct RunReport {
            $( $(#[doc = $doc:literal])* $name:ident: $ty:ident, $merge:ident, $kind:ident; )*
        }
    ) => {
        $(#[$attr])*
        pub struct RunReport {
            $( $(#[doc = $doc])* pub $name: $ty, )*
        }

        impl RunReport {
            /// Folds `other` into `self`, so the analysis service can
            /// aggregate per-job reports into a tenant- or service-level
            /// rollup. Each counter merges by the rule in its row: work
            /// is summed, so the rollup answers "how much work did these
            /// jobs perform in total"; peaks, dimensions and per-model
            /// facts take the maximum, so a rollup's peak is the worst
            /// single peak, not their sum.
            pub fn merge(&mut self, other: &RunReport) {
                $( run_report!(@merge $merge, self.$name, other.$name); )*
            }

            /// Every counter as `(name, value, kind)`, in declaration
            /// order, with durations in integer nanoseconds.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64, CounterKind)> {
                [$( (stringify!($name), run_report!(@to_u64 $ty, self.$name), CounterKind::$kind) ),*]
                    .into_iter()
            }

            /// Parses the text form that `Display` writes: every counter
            /// once, as `name=value`, in declaration order, separated by
            /// single spaces. `None` on anything else (a missing,
            /// repeated, reordered or unknown name, a value that is not a
            /// `u64`, stray whitespace); the caller treats the line as
            /// absent, never as a partial report.
            #[must_use]
            pub fn parse_line(line: &str) -> Option<RunReport> {
                let mut values = line
                    .split(' ')
                    .map(|pair| pair.split_once('=')?.1.parse::<u64>().ok());
                let report = RunReport {
                    $( $name: run_report!(@from_u64 $ty, values.next()??), )*
                };
                // Rendering back checks the names, their order, the
                // separators and the digits in one comparison.
                (report.to_string() == line).then_some(report)
            }
        }
    };
}

run_report! {
    /// How much work an analysis performed, regardless of how it ended.
    ///
    /// Engines fill in the fields that make sense for them and leave the
    /// rest at zero (an SMC run has no waiting list; a fixpoint solver
    /// simulates no runs).
    ///
    /// Each counter is declared once, in one table: its type, how
    /// [`RunReport::merge`] combines it and its [`CounterKind`]. The
    /// text form writes every counter as `name=value` in declaration
    /// order, durations in integer nanoseconds, and
    /// [`RunReport::parse_line`] reads it back:
    ///
    /// ```
    /// use tempo_obs::RunReport;
    ///
    /// let report = RunReport { states_explored: 12, ..RunReport::default() };
    /// let line = report.to_string();
    /// assert!(line.starts_with("states_explored=12 states_stored=0 "));
    /// assert_eq!(RunReport::parse_line(&line), Some(report));
    /// ```
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct RunReport {
        /// States popped/expanded during exploration.
        states_explored: u64, sum, Work;
        /// States retained in the passed list / graph / value vector.
        states_stored: u64, sum, Work;
        /// Peak length of the waiting list (sequential or shared queue).
        peak_waiting: u64, max, Work;
        /// Fixpoint sweeps / value-iteration rounds performed.
        sweeps: u64, sum, Work;
        /// Simulation runs completed.
        runs_simulated: u64, sum, Work;
        /// DBM dimension actually used by the analysis, after active-clock
        /// reduction (`0` for engines that track no clocks).
        dbm_dim: u64, max, Work;
        /// DBM dimension of the model as written, before reduction. Equal to
        /// [`RunReport::dbm_dim`] when no clock was removed.
        dbm_dim_model: u64, max, Work;
        /// Wall-clock time spent inside the call.
        wall_time: Duration, sum, Timing;
        /// Size of the certificate produced for this verdict, in bytes of
        /// its serialized text form (`0` when no certificate was produced).
        certificate_bytes: u64, sum, Work;
        /// Time spent producing and validating the certificate (zero when no
        /// certificate was produced).
        certify_time: Duration, sum, Timing;
        /// States expanded with a reduced (ample) successor set by
        /// partial-order reduction.
        por_ample_states: u64, sum, Work;
        /// States where an ample candidate existed but the cycle proviso
        /// forced a fall-back to full expansion.
        por_fallback_states: u64, sum, Work;
        /// Symmetry orbits of structurally identical components detected
        /// (`0` when symmetry reduction was off or found nothing).
        sym_orbits: u64, max, Work;
        /// Successor states folded onto an already-known orbit
        /// representative by symmetry canonicalization.
        sym_states_avoided: u64, sum, Work;
        /// States whose full representation was written to the spill log
        /// instead of staying resident (`0` when spilling was off).
        spilled_states: u64, sum, Work;
        /// Bytes appended to the spill log, record headers included.
        spill_bytes: u64, sum, Work;
        /// Full records faulted back in from the spill log (each fault is a
        /// disk read that the resident zone summary could not rule out).
        spill_faults: u64, sum, WorkerDependent;
        /// `(location, clock)` pairs whose LU extrapolation bound is
        /// strictly tighter than the clock's global maximal constant (`0`
        /// when LU extrapolation was off or found nothing to tighten).
        lu_tightened: u64, max, Work;
        /// Variables whose range-analysis fixpoint interval is strictly
        /// tighter than their declared range.
        vars_narrowed: u64, max, Work;
        /// Clocks removed by query-directed slicing beyond what plain
        /// active-clock reduction removes.
        sliced_clocks: u64, max, Work;
        /// Variables frozen (write-only, outside the query's cone of
        /// influence) by slicing.
        sliced_vars: u64, max, Work;
        /// Edges disabled by slicing (synchronization-dead or with a guard
        /// proven empty by range analysis).
        sliced_edges: u64, max, Work;
        /// Importance-splitting levels between the initial state and the
        /// goal (`0` for engines that do not split).
        splitting_levels: u64, max, Work;
        /// Split trajectories spawned from stored level-entry states
        /// (fixed-effort restarts beyond the first stage, RESTART clones).
        splits_spawned: u64, sum, Work;
        /// Total trajectory segments simulated across all splitting stages,
        /// including the naive-MC case where it equals `runs_simulated`.
        runs_total: u64, sum, Work;
    }
}

/// The text form: every counter as `name=value`, in declaration order,
/// separated by single spaces, durations in integer nanoseconds.
impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value, _)) in self.counters().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

/// Where and how much an exploration engine may spill to disk.
///
/// `path` is a directory: the engine creates its append-only spill log
/// inside it (scratch space, removed when the run ends).
/// `resident_budget` is the number of symbolic states kept fully in
/// memory; states beyond it are written to the log, with only a compact
/// zone summary staying resident for inclusion prefiltering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory for the spill log.
    pub path: PathBuf,
    /// Number of states kept fully resident before spilling begins.
    pub resident_budget: usize,
}

/// Knobs for the explicit-state exploration engines: which
/// semantics-preserving state-space reductions to attempt.
///
/// Both reductions are *conservative*: they only apply where the engine
/// can prove them sound for the model and query at hand, and silently
/// fall back to full exploration otherwise. Verdicts (status, witness
/// existence, tags) are identical with any combination of knobs; only
/// the amount of work recorded in [`RunReport`] changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Ample-set partial-order reduction: expand only one independent,
    /// invisible component where the ample conditions hold.
    pub por: bool,
    /// Template-symmetry reduction: fold states of structurally
    /// identical components onto a canonical orbit representative.
    pub symmetry: bool,
    /// LU (lower/upper) clock-bound extrapolation: per-location,
    /// per-polarity maximal constants from a backward dataflow fixpoint
    /// replace the single global maximal constant where sound
    /// (reachability only — liveness and deadlock search keep the
    /// classic extrapolation regardless of this knob).
    pub lu: bool,
    /// Query-directed slicing: disable edges that can provably never
    /// fire (guard empty under range analysis, or synchronizing on a
    /// channel with no possible partner) before exploration, letting
    /// active-clock reduction remove the clocks they held live.
    pub slice: bool,
    /// Out-of-core exploration: spill passed/waiting states past a
    /// resident budget to an on-disk log. `None` (the default) keeps
    /// everything in memory. Spilling never changes verdicts or
    /// exploration statistics, only where states physically live.
    pub spill: Option<SpillConfig>,
}

impl Default for ExploreConfig {
    /// All reductions on — they are sound by construction and each
    /// engine disables them itself where soundness cannot be
    /// established (e.g. liveness search). Spilling off.
    fn default() -> Self {
        ExploreConfig {
            por: true,
            symmetry: true,
            lu: true,
            slice: true,
            spill: None,
        }
    }
}

impl ExploreConfig {
    /// Everything off: the unreduced reference semantics.
    #[must_use]
    pub fn unreduced() -> Self {
        ExploreConfig {
            por: false,
            symmetry: false,
            lu: false,
            slice: false,
            spill: None,
        }
    }

    /// Sets the partial-order-reduction knob.
    #[must_use]
    pub fn with_por(mut self, on: bool) -> Self {
        self.por = on;
        self
    }

    /// Sets the symmetry-reduction knob.
    #[must_use]
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Sets the LU-extrapolation knob.
    #[must_use]
    pub fn with_lu(mut self, on: bool) -> Self {
        self.lu = on;
        self
    }

    /// Sets the query-directed-slicing knob.
    #[must_use]
    pub fn with_slice(mut self, on: bool) -> Self {
        self.slice = on;
        self
    }

    /// Enables disk spilling: states beyond `resident_budget` are
    /// written to an append-only log inside the directory `path`, and
    /// inclusion checks fault them back only on a possible-subsumption
    /// hit. Use the fallible `try_*` engine entry points with this knob
    /// set; spill I/O failures surface as typed errors there.
    #[must_use]
    pub fn with_spill(mut self, path: impl Into<PathBuf>, resident_budget: usize) -> Self {
        self.spill = Some(SpillConfig {
            path: path.into(),
            resident_budget,
        });
        self
    }
}

impl StableDigest for ExploreConfig {
    /// The knobs participate in content-addressed cache keys: a reduced
    /// and an unreduced run report different work, so their verdicts
    /// must not share a byte-identical cache slot. Spilling digests its
    /// presence and resident budget but *not* the scratch path: the
    /// work performed depends on the budget, never on where the scratch
    /// file happens to live.
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("explore-config");
        h.write_u8(u8::from(self.por));
        h.write_u8(u8::from(self.symmetry));
        h.write_u8(u8::from(self.lu));
        h.write_u8(u8::from(self.slice));
        match &self.spill {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                h.write_u64(s.resident_budget as u64);
            }
        }
    }
}

/// Result of a governed analysis: complete, or exhausted with a sound
/// partial answer.
///
/// `Exhausted.partial` always carries the weakest sound reading: "within
/// the work reported, nothing stronger was established". Callers that
/// only care about definitive verdicts should match on `Complete`.
#[derive(Clone, Debug, PartialEq)]
#[must_use = "an Outcome distinguishes definitive from partial answers; check it"]
pub enum Outcome<T> {
    /// The analysis ran to completion; `value` is definitive.
    Complete {
        /// The definitive result.
        value: T,
        /// Work performed.
        report: RunReport,
    },
    /// A budget dimension ran out before the analysis finished.
    Exhausted {
        /// Which limit tripped first.
        reason: ExhaustionReason,
        /// The sound-but-partial answer (e.g. "not found so far", the
        /// estimate over the runs completed).
        partial: T,
        /// Work performed before the limit tripped.
        report: RunReport,
    },
}

impl<T> Outcome<T> {
    /// The result value, whether definitive or partial.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete { value, .. } => value,
            Outcome::Exhausted { partial, .. } => partial,
        }
    }

    /// Consumes the outcome, returning the (definitive or partial) value.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete { value, .. } => value,
            Outcome::Exhausted { partial, .. } => partial,
        }
    }

    /// The run report, however the analysis ended.
    pub fn report(&self) -> &RunReport {
        match self {
            Outcome::Complete { report, .. } | Outcome::Exhausted { report, .. } => report,
        }
    }

    /// True when a budget dimension ran out.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Outcome::Exhausted { .. })
    }

    /// The exhaustion reason, if any.
    pub fn exhaustion(&self) -> Option<ExhaustionReason> {
        match self {
            Outcome::Complete { .. } => None,
            Outcome::Exhausted { reason, .. } => Some(*reason),
        }
    }

    /// Borrows the outcome's value: `Outcome<T>` → `Outcome<&T>` with
    /// the report cloned, preserving completeness. Useful to inspect or
    /// `map` over a result without consuming it.
    pub fn as_ref(&self) -> Outcome<&T> {
        match self {
            Outcome::Complete { value, report } => Outcome::Complete {
                value,
                report: report.clone(),
            },
            Outcome::Exhausted {
                reason,
                partial,
                report,
            } => Outcome::Exhausted {
                reason: *reason,
                partial,
                report: report.clone(),
            },
        }
    }

    /// Maps the value/partial, preserving completeness and the report.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete { value, report } => Outcome::Complete {
                value: f(value),
                report,
            },
            Outcome::Exhausted {
                reason,
                partial,
                report,
            } => Outcome::Exhausted {
                reason,
                partial: f(partial),
                report,
            },
        }
    }
}

// Latch encoding: 0 = not exhausted, 1..=5 = ExhaustionReason.
const LATCH_NONE: u8 = 0;
const LATCH_WALL: u8 = 1;
const LATCH_STATES: u8 = 2;
const LATCH_ITERS: u8 = 3;
const LATCH_RUNS: u8 = 4;
const LATCH_CANCEL: u8 = 5;

fn reason_of(code: u8) -> Option<ExhaustionReason> {
    match code {
        LATCH_WALL => Some(ExhaustionReason::WallClock),
        LATCH_STATES => Some(ExhaustionReason::States),
        LATCH_ITERS => Some(ExhaustionReason::Iterations),
        LATCH_RUNS => Some(ExhaustionReason::Runs),
        LATCH_CANCEL => Some(ExhaustionReason::Cancelled),
        _ => None,
    }
}

/// Runtime meter for one analysis call.
///
/// The governor is shared by reference across worker threads: all
/// counters are atomic and the exhaustion latch is first-trip-wins, so
/// every worker observes the same reason. Charging is wait-free; the
/// wall clock is only consulted by [`Governor::check_time`] (engines
/// call it once per popped state / sweep / run, not per instruction).
#[derive(Debug)]
pub struct Governor {
    start: Instant,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_states: u64,
    max_iterations: u64,
    max_runs: u64,
    states: AtomicU64,
    iterations: AtomicU64,
    runs: AtomicU64,
    latch: AtomicU8,
}

impl Governor {
    /// Starts metering against `budget` from this instant.
    pub fn start(budget: &Budget) -> Self {
        let start = Instant::now();
        Governor {
            start,
            deadline: budget.wall.map(|w| start + w),
            cancel: budget.cancel.clone(),
            max_states: budget.max_states.unwrap_or(u64::MAX),
            max_iterations: budget.max_iterations.unwrap_or(u64::MAX),
            max_runs: budget.max_runs.unwrap_or(u64::MAX),
            states: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            latch: AtomicU8::new(LATCH_NONE),
        }
    }

    fn trip(&self, code: u8) {
        let _ = self
            .latch
            .compare_exchange(LATCH_NONE, code, Ordering::AcqRel, Ordering::Acquire);
    }

    fn charge(&self, counter: &AtomicU64, limit: u64, code: u8) -> bool {
        let prev = counter.fetch_add(1, Ordering::Relaxed);
        if prev >= limit {
            // Past the limit: undo so counters report true work done.
            counter.fetch_sub(1, Ordering::Relaxed);
            self.trip(code);
            return false;
        }
        true
    }

    /// Charges one stored state. Returns `false` (and latches
    /// [`ExhaustionReason::States`]) once the limit is reached.
    pub fn charge_state(&self) -> bool {
        self.charge(&self.states, self.max_states, LATCH_STATES)
    }

    /// Charges one fixpoint iteration / sweep.
    pub fn charge_iteration(&self) -> bool {
        self.charge(&self.iterations, self.max_iterations, LATCH_ITERS)
    }

    /// Charges one simulation run.
    pub fn charge_run(&self) -> bool {
        self.charge(&self.runs, self.max_runs, LATCH_RUNS)
    }

    /// Checks the wall-clock deadline *and* the cancellation token (both
    /// are polled at the same cadence: once per popped state / sweep /
    /// run). Returns `false` and latches [`ExhaustionReason::Cancelled`]
    /// on cancellation, or [`ExhaustionReason::WallClock`] once the
    /// deadline has passed.
    pub fn check_time(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(LATCH_CANCEL);
                return false;
            }
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.trip(LATCH_WALL);
                false
            }
            _ => true,
        }
    }

    /// How many runs may still be charged before the run limit trips.
    /// `u64::MAX` when unlimited.
    pub fn runs_remaining(&self) -> u64 {
        self.max_runs
            .saturating_sub(self.runs.load(Ordering::Relaxed))
    }

    /// The reason the budget tripped, if it has.
    pub fn exhausted(&self) -> Option<ExhaustionReason> {
        reason_of(self.latch.load(Ordering::Acquire))
    }

    /// True once any dimension has tripped.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted().is_some()
    }

    /// Time elapsed since the governor started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// A report seeded with this governor's counters and elapsed time.
    /// Engines overwrite/extend the fields they track themselves.
    pub fn report(&self) -> RunReport {
        RunReport {
            states_explored: self.states.load(Ordering::Relaxed),
            sweeps: self.iterations.load(Ordering::Relaxed),
            runs_simulated: self.runs.load(Ordering::Relaxed),
            wall_time: self.elapsed(),
            ..RunReport::default()
        }
    }

    /// Wraps a finished analysis: `Complete` if no limit tripped,
    /// `Exhausted` (with `value` as the sound partial) otherwise.
    pub fn finish<T>(&self, value: T, mut report: RunReport) -> Outcome<T> {
        report.wall_time = self.elapsed();
        match self.exhausted() {
            None => Outcome::Complete { value, report },
            Some(reason) => Outcome::Exhausted {
                reason,
                partial: value,
                report,
            },
        }
    }

    /// Like [`Governor::finish`], but forces `Complete` even if a limit
    /// tripped — for engines that found a definitive answer (e.g. a
    /// reachability witness) in the same step the budget ran out.
    pub fn finish_complete<T>(&self, value: T, mut report: RunReport) -> Outcome<T> {
        report.wall_time = self.elapsed();
        Outcome::Complete { value, report }
    }
}

/// Service-level counters for a long-running analysis frontend: cache
/// effectiveness, admission-control decisions, and queue pressure.
///
/// All counters are atomic, so one `ServiceStats` can be shared by
/// reference across scheduler, workers and cache. Read a consistent-ish
/// view with [`ServiceStats::snapshot`] (each counter is read once; the
/// snapshot is not a cross-counter transaction).
#[derive(Debug, Default)]
pub struct ServiceStats {
    hits: AtomicU64,
    disk_hits: AtomicU64,
    disk_rejected: AtomicU64,
    disk_evicted: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    engine_panics: AtomicU64,
    queue_peak: AtomicU64,
}

impl ServiceStats {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a verdict served from the in-memory cache tier.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a verdict served from the on-disk tier after its
    /// certificate replayed successfully.
    pub fn record_disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an on-disk entry rejected by certificate replay (corrupted
    /// or stale) and transparently recomputed.
    pub fn record_disk_rejected(&self) {
        self.disk_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a rejected on-disk entry that was also deleted, so future
    /// cold starts do not repay the parse-and-replay failure.
    pub fn record_disk_evicted(&self) {
        self.disk_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job that had to run an engine (no cache tier hit).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job coalesced onto an identical in-flight computation.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a submission refused by admission control (queue full,
    /// tenant saturated, shutdown).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job cancelled before or during execution.
    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an engine run that panicked (the service resolved its job
    /// with an error and kept the worker).
    pub fn record_engine_panic(&self) {
        self.engine_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the queue-depth high-water mark to `depth` if larger.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    #[must_use]
    pub fn snapshot(&self) -> ServiceCounters {
        ServiceCounters {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_rejected: self.disk_rejected.load(Ordering::Relaxed),
            disk_evicted: self.disk_evicted.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            engine_panics: self.engine_panics.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Verdicts served from the in-memory cache.
    pub hits: u64,
    /// Verdicts served from the on-disk tier (certificate replayed).
    pub disk_hits: u64,
    /// On-disk entries rejected by certificate replay and recomputed.
    pub disk_rejected: u64,
    /// Rejected on-disk entries deleted from the disk tier.
    pub disk_evicted: u64,
    /// Jobs that ran an engine.
    pub misses: u64,
    /// Jobs coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Engine runs that panicked.
    pub engine_panics: u64,
    /// Queue-depth high-water mark.
    pub queue_peak: u64,
}

impl fmt::Display for ServiceCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} (disk {}, rejected {}, evicted {}), misses {}, coalesced {}, rejected {}, cancelled {}, engine panics {}, queue peak {}",
            self.hits,
            self.disk_hits,
            self.disk_rejected,
            self.disk_evicted,
            self.misses,
            self.coalesced,
            self.rejected,
            self.cancelled,
            self.engine_panics,
            self.queue_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let gov = Budget::unlimited().governor();
        for _ in 0..10_000 {
            assert!(gov.charge_state());
            assert!(gov.charge_iteration());
            assert!(gov.charge_run());
        }
        assert!(gov.check_time());
        assert!(gov.exhausted().is_none());
        let r = gov.report();
        assert_eq!(r.states_explored, 10_000);
        assert_eq!(r.sweeps, 10_000);
        assert_eq!(r.runs_simulated, 10_000);
    }

    #[test]
    fn state_limit_trips_and_latches() {
        let gov = Budget::unlimited().with_max_states(3).governor();
        assert!(gov.charge_state());
        assert!(gov.charge_state());
        assert!(gov.charge_state());
        assert!(!gov.charge_state());
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::States));
        // Counter reports true work done, not the failed charge.
        assert_eq!(gov.report().states_explored, 3);
        // Latch is first-trip-wins.
        assert!(!gov.charge_run() || gov.runs_remaining() > 0);
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::States));
    }

    #[test]
    fn zero_run_budget_trips_immediately() {
        let gov = Budget::unlimited().with_max_runs(0).governor();
        assert!(!gov.charge_run());
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::Runs));
        assert_eq!(gov.runs_remaining(), 0);
    }

    #[test]
    fn elapsed_deadline_trips_wall_clock() {
        let gov = Budget::unlimited()
            .with_wall_time(Duration::from_millis(0))
            .governor();
        assert!(!gov.check_time());
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::WallClock));
    }

    #[test]
    fn finish_wraps_by_latch_state() {
        let gov = Budget::unlimited().with_max_states(1).governor();
        assert!(gov.charge_state());
        let done = gov.finish(42u32, gov.report());
        assert!(matches!(done, Outcome::Complete { value: 42, .. }));

        assert!(!gov.charge_state());
        let partial = gov.finish(7u32, gov.report());
        assert!(partial.is_exhausted());
        assert_eq!(*partial.value(), 7);
        assert_eq!(partial.exhaustion(), Some(ExhaustionReason::States));
        // A definitive hit in the final step stays Complete.
        let hit = gov.finish_complete(9u32, gov.report());
        assert!(!hit.is_exhausted());
    }

    #[test]
    fn outcome_map_preserves_shape() {
        let c: Outcome<u32> = Outcome::Complete {
            value: 2,
            report: RunReport::default(),
        };
        assert_eq!(*c.map(|v| v * 2).value(), 4);
        let e: Outcome<u32> = Outcome::Exhausted {
            reason: ExhaustionReason::Runs,
            partial: 3,
            report: RunReport::default(),
        };
        let m = e.map(|v| v + 1);
        assert!(m.is_exhausted());
        assert_eq!(m.into_value(), 4);
    }

    #[test]
    fn governor_is_shareable_across_threads() {
        let gov = Budget::unlimited().with_max_states(1000).governor();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| while gov.charge_state() {});
            }
        });
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::States));
        assert_eq!(gov.report().states_explored, 1000);
    }

    #[test]
    fn cancellation_trips_via_check_time() {
        let token = CancelToken::new();
        let gov = Budget::unlimited().with_cancel(token.clone()).governor();
        assert!(gov.check_time());
        assert!(gov.exhausted().is_none());
        token.cancel();
        assert!(!gov.check_time());
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::Cancelled));
        // First trip wins: a later deadline check keeps the cancel reason.
        assert!(!gov.check_time());
        assert_eq!(gov.exhausted(), Some(ExhaustionReason::Cancelled));
        let out = gov.finish(3u32, gov.report());
        assert_eq!(out.exhaustion(), Some(ExhaustionReason::Cancelled));
    }

    #[test]
    fn budget_equality_respects_cancel_token_identity() {
        let token = CancelToken::new();
        let a = Budget::unlimited().with_max_states(5);
        let b = Budget::unlimited().with_max_states(5);
        assert_eq!(a, b);
        let c = b.clone().with_cancel(token.clone());
        assert_ne!(a, c);
        assert_eq!(c, Budget::unlimited().with_max_states(5).with_cancel(token));
        assert_ne!(
            c,
            Budget::unlimited()
                .with_max_states(5)
                .with_cancel(CancelToken::new())
        );
        // A cancel token is not a resource limit.
        assert!(Budget::unlimited()
            .with_cancel(CancelToken::new())
            .is_unlimited());
    }

    #[test]
    fn run_report_merge_sums_counters_and_maxes_peaks() {
        let a = RunReport {
            states_explored: 10,
            states_stored: 7,
            peak_waiting: 4,
            sweeps: 2,
            runs_simulated: 100,
            dbm_dim: 5,
            dbm_dim_model: 6,
            wall_time: Duration::from_millis(30),
            certificate_bytes: 128,
            certify_time: Duration::from_millis(3),
            por_ample_states: 6,
            por_fallback_states: 4,
            sym_orbits: 2,
            sym_states_avoided: 11,
            spilled_states: 40,
            spill_bytes: 4096,
            spill_faults: 9,
            lu_tightened: 3,
            vars_narrowed: 2,
            sliced_clocks: 1,
            sliced_vars: 4,
            sliced_edges: 6,
            splitting_levels: 12,
            splits_spawned: 300,
            runs_total: 450,
        };
        let b = RunReport {
            states_explored: 1,
            states_stored: 2,
            peak_waiting: 9,
            sweeps: 3,
            runs_simulated: 50,
            dbm_dim: 3,
            dbm_dim_model: 4,
            wall_time: Duration::from_millis(20),
            certificate_bytes: 64,
            certify_time: Duration::from_millis(1),
            por_ample_states: 1,
            por_fallback_states: 2,
            sym_orbits: 5,
            sym_states_avoided: 3,
            spilled_states: 2,
            spill_bytes: 256,
            spill_faults: 1,
            lu_tightened: 8,
            vars_narrowed: 1,
            sliced_clocks: 2,
            sliced_vars: 3,
            sliced_edges: 5,
            splitting_levels: 7,
            splits_spawned: 40,
            runs_total: 90,
        };
        let mut merged = a.clone();
        merged.merge(&b);
        // Additive counters equal the sum of the parts.
        assert_eq!(
            merged.states_explored,
            a.states_explored + b.states_explored
        );
        assert_eq!(merged.states_stored, a.states_stored + b.states_stored);
        assert_eq!(merged.sweeps, a.sweeps + b.sweeps);
        assert_eq!(merged.runs_simulated, a.runs_simulated + b.runs_simulated);
        assert_eq!(merged.wall_time, a.wall_time + b.wall_time);
        assert_eq!(
            merged.certificate_bytes,
            a.certificate_bytes + b.certificate_bytes
        );
        assert_eq!(merged.certify_time, a.certify_time + b.certify_time);
        assert_eq!(
            merged.por_ample_states,
            a.por_ample_states + b.por_ample_states
        );
        assert_eq!(
            merged.por_fallback_states,
            a.por_fallback_states + b.por_fallback_states
        );
        assert_eq!(
            merged.sym_states_avoided,
            a.sym_states_avoided + b.sym_states_avoided
        );
        assert_eq!(merged.spilled_states, a.spilled_states + b.spilled_states);
        assert_eq!(merged.spill_bytes, a.spill_bytes + b.spill_bytes);
        assert_eq!(merged.spill_faults, a.spill_faults + b.spill_faults);
        // High-water marks take the max.
        assert_eq!(merged.peak_waiting, 9);
        assert_eq!(merged.sym_orbits, 5);
        assert_eq!(merged.dbm_dim, 5);
        assert_eq!(merged.dbm_dim_model, 6);
        // Flow artifacts are per-model analysis facts, also maxed.
        assert_eq!(merged.lu_tightened, 8);
        assert_eq!(merged.vars_narrowed, 2);
        assert_eq!(merged.sliced_clocks, 2);
        assert_eq!(merged.sliced_vars, 4);
        assert_eq!(merged.sliced_edges, 6);
        // Splitting: the level count is a per-query analysis fact
        // (maxed); spawned splits and simulated segments are work
        // performed (summed).
        assert_eq!(merged.splitting_levels, 12);
        assert_eq!(merged.splits_spawned, a.splits_spawned + b.splits_spawned);
        assert_eq!(merged.runs_total, a.runs_total + b.runs_total);
        // Merging zero is the identity.
        let mut same = a.clone();
        same.merge(&RunReport::default());
        assert_eq!(same, a);
    }

    /// Counter values that reach both ends of the `u64` range.
    fn arb_counter_values() -> impl Strategy<Value = Vec<u64>> {
        let n = RunReport::default().counters().count();
        prop::collection::vec(
            prop_oneof![Just(0), Just(u64::MAX), 0..1_000_u64, 0..u64::MAX],
            n,
        )
    }

    proptest! {
        /// Any report's text form reads back as the same report, and a
        /// line with one pair dropped, repeated, moved, renamed or made
        /// non-numeric is refused.
        #[test]
        fn run_report_text_form_round_trips_and_refuses_anything_else(
            values in arb_counter_values(),
            at in 0..64_usize,
            defect in 0..5_u8,
        ) {
            let names: Vec<&str> = RunReport::default().counters().map(|(n, _, _)| n).collect();
            let mut pairs: Vec<String> = names
                .iter()
                .zip(&values)
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            let line = pairs.join(" ");
            let report = RunReport::parse_line(&line).expect("the text form parses");
            let read: Vec<u64> = report.counters().map(|(_, v, _)| v).collect();
            prop_assert_eq!(&read, &values);
            prop_assert_eq!(report.to_string(), line);
            prop_assert_eq!(RunReport::parse_line(&report.to_string()), Some(report));

            let at = at % (pairs.len() - 1);
            let (name, value) = (names[at], values[at]);
            match defect {
                0 => drop(pairs.remove(at)),
                1 => pairs.insert(at, pairs[at].clone()),
                2 => pairs.swap(at, at + 1),
                3 => pairs[at] = format!("{name}_={value}"),
                _ => pairs[at] = format!("{name}=x{value}"),
            }
            prop_assert_eq!(RunReport::parse_line(&pairs.join(" ")), None);
        }
    }

    #[test]
    fn run_report_parse_line_refuses_positional_and_padded_lines() {
        let line = RunReport::default().to_string();
        for bad in [
            String::new(),
            "v3 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0".to_owned(),
            format!(" {line}"),
            format!("{line} "),
            format!("{line} runs_total=0"),
            line.replacen("=0", "=00", 1),
            line.replacen("=0", "=+0", 1),
        ] {
            assert_eq!(RunReport::parse_line(&bad), None, "{bad:?}");
        }
    }

    #[test]
    fn outcome_as_ref_preserves_shape() {
        let c: Outcome<String> = Outcome::Complete {
            value: "yes".to_owned(),
            report: RunReport::default(),
        };
        let r = c.as_ref();
        assert!(!r.is_exhausted());
        assert_eq!(*r.value(), "yes");
        let e: Outcome<String> = Outcome::Exhausted {
            reason: ExhaustionReason::Runs,
            partial: "so far".to_owned(),
            report: RunReport::default(),
        };
        let r = e.as_ref();
        assert_eq!(r.exhaustion(), Some(ExhaustionReason::Runs));
        assert_eq!(*r.into_value(), "so far");
        // The original is still usable after as_ref.
        assert_eq!(e.into_value(), "so far");
    }

    #[test]
    fn service_stats_counts_and_snapshots() {
        let stats = ServiceStats::new();
        stats.record_hit();
        stats.record_hit();
        stats.record_disk_hit();
        stats.record_disk_rejected();
        stats.record_miss();
        stats.record_coalesced();
        stats.record_rejected();
        stats.record_cancelled();
        stats.record_engine_panic();
        stats.observe_queue_depth(7);
        stats.observe_queue_depth(3); // does not lower the peak
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.disk_hits, 1);
        assert_eq!(snap.disk_rejected, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.engine_panics, 1);
        assert_eq!(snap.queue_peak, 7);
        assert!(format!("{snap}").contains("queue peak 7"));
    }

    #[test]
    fn display_formats() {
        let r = RunReport {
            states_explored: 5,
            ..RunReport::default()
        };
        assert!(format!("{r}").starts_with("states_explored=5 states_stored=0 "));
        assert!(format!("{}", ExhaustionReason::WallClock).contains("deadline"));
    }
}
