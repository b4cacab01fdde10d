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

/// How much work an analysis performed, regardless of how it ended.
///
/// Engines fill in the fields that make sense for them and leave the
/// rest at zero (an SMC run has no waiting list; a fixpoint solver
/// simulates no runs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// States popped/expanded during exploration.
    pub states_explored: u64,
    /// States retained in the passed list / graph / value vector.
    pub states_stored: u64,
    /// Peak length of the waiting list (sequential or shared queue).
    pub peak_waiting: u64,
    /// Fixpoint sweeps / value-iteration rounds performed.
    pub sweeps: u64,
    /// Simulation runs completed.
    pub runs_simulated: u64,
    /// DBM dimension actually used by the analysis, after active-clock
    /// reduction (`0` for engines that track no clocks).
    pub dbm_dim: u64,
    /// DBM dimension of the model as written, before reduction. Equal to
    /// [`RunReport::dbm_dim`] when no clock was removed.
    pub dbm_dim_model: u64,
    /// Wall-clock time spent inside the call.
    pub wall_time: Duration,
    /// Size of the certificate produced for this verdict, in bytes of
    /// its serialized text form (`0` when no certificate was produced).
    pub certificate_bytes: u64,
    /// Time spent producing and validating the certificate (zero when no
    /// certificate was produced).
    pub certify_time: Duration,
    /// States expanded with a reduced (ample) successor set by
    /// partial-order reduction.
    pub por_ample_states: u64,
    /// States where an ample candidate existed but the cycle proviso
    /// forced a fall-back to full expansion.
    pub por_fallback_states: u64,
    /// Symmetry orbits of structurally identical components detected
    /// (`0` when symmetry reduction was off or found nothing).
    pub sym_orbits: u64,
    /// Successor states folded onto an already-known orbit
    /// representative by symmetry canonicalization.
    pub sym_states_avoided: u64,
    /// States whose full representation was written to the spill log
    /// instead of staying resident (`0` when spilling was off).
    pub spilled_states: u64,
    /// Bytes appended to the spill log, record headers included.
    pub spill_bytes: u64,
    /// Full records faulted back in from the spill log (each fault is a
    /// disk read that the resident zone summary could not rule out).
    pub spill_faults: u64,
    /// `(location, clock)` pairs whose LU extrapolation bound is
    /// strictly tighter than the clock's global maximal constant (`0`
    /// when LU extrapolation was off or found nothing to tighten).
    pub lu_tightened: u64,
    /// Variables whose range-analysis fixpoint interval is strictly
    /// tighter than their declared range.
    pub vars_narrowed: u64,
    /// Clocks removed by query-directed slicing beyond what plain
    /// active-clock reduction removes.
    pub sliced_clocks: u64,
    /// Variables frozen (write-only, outside the query's cone of
    /// influence) by slicing.
    pub sliced_vars: u64,
    /// Edges disabled by slicing (synchronization-dead or with a guard
    /// proven empty by range analysis).
    pub sliced_edges: u64,
    /// Importance-splitting levels between the initial state and the
    /// goal (`0` for engines that do not split).
    pub splitting_levels: u64,
    /// Split trajectories spawned from stored level-entry states
    /// (fixed-effort restarts beyond the first stage, RESTART clones).
    pub splits_spawned: u64,
    /// Total trajectory segments simulated across all splitting stages,
    /// including the naive-MC case where it equals `runs_simulated`.
    pub runs_total: u64,
}

impl RunReport {
    /// Folds `other` into `self`, so the analysis service can aggregate
    /// per-job reports into a tenant- or service-level rollup.
    ///
    /// Additive work counters (`states_explored`, `states_stored`,
    /// `sweeps`, `runs_simulated`, `wall_time`, `certificate_bytes`,
    /// `certify_time`) are summed — the merged report answers "how much
    /// work did these jobs perform in total". High-water marks
    /// (`peak_waiting`) and model dimensions (`dbm_dim`,
    /// `dbm_dim_model`) are maxed: a rollup's peak is the worst
    /// individual peak, not their sum.
    pub fn merge(&mut self, other: &RunReport) {
        self.states_explored += other.states_explored;
        self.states_stored += other.states_stored;
        self.peak_waiting = self.peak_waiting.max(other.peak_waiting);
        self.sweeps += other.sweeps;
        self.runs_simulated += other.runs_simulated;
        self.dbm_dim = self.dbm_dim.max(other.dbm_dim);
        self.dbm_dim_model = self.dbm_dim_model.max(other.dbm_dim_model);
        self.wall_time += other.wall_time;
        self.certificate_bytes += other.certificate_bytes;
        self.certify_time += other.certify_time;
        self.por_ample_states += other.por_ample_states;
        self.por_fallback_states += other.por_fallback_states;
        self.sym_orbits = self.sym_orbits.max(other.sym_orbits);
        self.sym_states_avoided += other.sym_states_avoided;
        self.spilled_states += other.spilled_states;
        self.spill_bytes += other.spill_bytes;
        self.spill_faults += other.spill_faults;
        self.lu_tightened = self.lu_tightened.max(other.lu_tightened);
        self.vars_narrowed = self.vars_narrowed.max(other.vars_narrowed);
        self.sliced_clocks = self.sliced_clocks.max(other.sliced_clocks);
        self.sliced_vars = self.sliced_vars.max(other.sliced_vars);
        self.sliced_edges = self.sliced_edges.max(other.sliced_edges);
        self.splitting_levels = self.splitting_levels.max(other.splitting_levels);
        self.splits_spawned += other.splits_spawned;
        self.runs_total += other.runs_total;
    }

    /// Renders the report as one machine-readable line for persistence
    /// (the disk cache stores it next to the verdict so a disk hit can
    /// restore the producing run's work counters). Durations are
    /// serialized as integer nanoseconds; the leading version tag lets
    /// [`RunReport::parse_line`] reject lines from a future layout.
    #[must_use]
    pub fn render_line(&self) -> String {
        format!(
            "v3 {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.states_explored,
            self.states_stored,
            self.peak_waiting,
            self.sweeps,
            self.runs_simulated,
            self.dbm_dim,
            self.dbm_dim_model,
            self.wall_time.as_nanos(),
            self.certificate_bytes,
            self.certify_time.as_nanos(),
            self.por_ample_states,
            self.por_fallback_states,
            self.sym_orbits,
            self.sym_states_avoided,
            self.spilled_states,
            self.spill_bytes,
            self.spill_faults,
            self.lu_tightened,
            self.vars_narrowed,
            self.sliced_clocks,
            self.sliced_vars,
            self.sliced_edges,
            self.splitting_levels,
            self.splits_spawned,
            self.runs_total,
        )
    }

    /// Parses a line produced by [`RunReport::render_line`]. `None` on
    /// any defect (wrong version, missing or non-numeric field) — the
    /// caller treats the line as absent, never as a partial report.
    /// Accepts the legacy `v1` layout (written before the dataflow-pass
    /// counters existed) with the five flow fields read as zero, and the
    /// legacy `v2` layout (before the splitting counters) with the three
    /// splitting fields read as zero, so old disk-cache entries keep
    /// validating.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<RunReport> {
        let mut parts = line.split_ascii_whitespace();
        let version = parts.next()?;
        let (has_flow, has_splitting) = match version {
            "v1" => (false, false),
            "v2" => (true, false),
            "v3" => (true, true),
            _ => return None,
        };
        let mut next_u64 = || parts.next()?.parse::<u64>().ok();
        let mut report = RunReport {
            states_explored: next_u64()?,
            states_stored: next_u64()?,
            peak_waiting: next_u64()?,
            sweeps: next_u64()?,
            runs_simulated: next_u64()?,
            dbm_dim: next_u64()?,
            dbm_dim_model: next_u64()?,
            wall_time: Duration::from_nanos(next_u64()?),
            certificate_bytes: next_u64()?,
            certify_time: Duration::from_nanos(next_u64()?),
            por_ample_states: next_u64()?,
            por_fallback_states: next_u64()?,
            sym_orbits: next_u64()?,
            sym_states_avoided: next_u64()?,
            spilled_states: next_u64()?,
            spill_bytes: next_u64()?,
            spill_faults: next_u64()?,
            ..RunReport::default()
        };
        if has_flow {
            report.lu_tightened = next_u64()?;
            report.vars_narrowed = next_u64()?;
            report.sliced_clocks = next_u64()?;
            report.sliced_vars = next_u64()?;
            report.sliced_edges = next_u64()?;
        }
        if has_splitting {
            report.splitting_levels = next_u64()?;
            report.splits_spawned = next_u64()?;
            report.runs_total = next_u64()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(report)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explored {} states (stored {}, peak waiting {}), {} sweeps, {} runs, {:.3}s",
            self.states_explored,
            self.states_stored,
            self.peak_waiting,
            self.sweeps,
            self.runs_simulated,
            self.wall_time.as_secs_f64()
        )?;
        if self.dbm_dim_model > 0 {
            write!(f, ", dbm dim {}/{}", self.dbm_dim, self.dbm_dim_model)?;
        }
        if self.certificate_bytes > 0 {
            write!(
                f,
                ", certificate {} bytes ({:.3}s)",
                self.certificate_bytes,
                self.certify_time.as_secs_f64()
            )?;
        }
        if self.por_ample_states > 0 || self.por_fallback_states > 0 {
            write!(
                f,
                ", por {} ample / {} fallback",
                self.por_ample_states, self.por_fallback_states
            )?;
        }
        if self.sym_orbits > 0 {
            write!(
                f,
                ", symmetry {} orbit(s), {} states avoided",
                self.sym_orbits, self.sym_states_avoided
            )?;
        }
        if self.spilled_states > 0 || self.spill_faults > 0 {
            write!(
                f,
                ", spilled {} states ({} bytes, {} faults)",
                self.spilled_states, self.spill_bytes, self.spill_faults
            )?;
        }
        if self.lu_tightened > 0 || self.vars_narrowed > 0 {
            write!(
                f,
                ", flow {} lu bound(s) tightened, {} var(s) narrowed",
                self.lu_tightened, self.vars_narrowed
            )?;
        }
        if self.sliced_clocks > 0 || self.sliced_vars > 0 || self.sliced_edges > 0 {
            write!(
                f,
                ", sliced {} clock(s) / {} var(s) / {} edge(s)",
                self.sliced_clocks, self.sliced_vars, self.sliced_edges
            )?;
        }
        if self.splitting_levels > 0 || self.splits_spawned > 0 {
            write!(
                f,
                ", splitting {} level(s), {} split(s), {} segment(s)",
                self.splitting_levels, self.splits_spawned, self.runs_total
            )?;
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
    /// Queue-depth high-water mark.
    pub queue_peak: u64,
}

impl fmt::Display for ServiceCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {} (disk {}, rejected {}, evicted {}), misses {}, coalesced {}, rejected {}, cancelled {}, queue peak {}",
            self.hits,
            self.disk_hits,
            self.disk_rejected,
            self.disk_evicted,
            self.misses,
            self.coalesced,
            self.rejected,
            self.cancelled,
            self.queue_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn run_report_line_round_trips_and_accepts_legacy_versions() {
        let report = RunReport {
            states_explored: 11,
            states_stored: 7,
            wall_time: Duration::from_nanos(12_345),
            lu_tightened: 4,
            vars_narrowed: 3,
            sliced_clocks: 2,
            sliced_vars: 1,
            sliced_edges: 9,
            splitting_levels: 6,
            splits_spawned: 120,
            runs_total: 240,
            ..RunReport::default()
        };
        let line = report.render_line();
        assert!(line.starts_with("v3 "));
        assert_eq!(RunReport::parse_line(&line), Some(report));
        // Legacy v1 lines (17 fields, no flow counters) still parse,
        // with the flow counters read as zero.
        let legacy = "v1 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17";
        let parsed = RunReport::parse_line(legacy).expect("v1 parses");
        assert_eq!(parsed.states_explored, 1);
        assert_eq!(parsed.spill_faults, 17);
        assert_eq!(parsed.lu_tightened, 0);
        assert_eq!(parsed.sliced_edges, 0);
        // Legacy v2 lines (22 fields, no splitting counters) parse with
        // the splitting counters read as zero.
        let legacy = "v2 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22";
        let parsed = RunReport::parse_line(legacy).expect("v2 parses");
        assert_eq!(parsed.sliced_edges, 22);
        assert_eq!(parsed.splitting_levels, 0);
        assert_eq!(parsed.runs_total, 0);
        // Defects: unknown version, truncated v3, trailing garbage.
        assert_eq!(RunReport::parse_line("v4 1 2"), None);
        let truncated = line.rsplit_once(' ').expect("fields").0;
        assert_eq!(RunReport::parse_line(truncated), None);
        assert_eq!(RunReport::parse_line(&format!("{line} 99")), None);
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
        assert_eq!(snap.queue_peak, 7);
        assert!(format!("{snap}").contains("queue peak 7"));
    }

    #[test]
    fn display_formats() {
        let r = RunReport {
            states_explored: 5,
            ..RunReport::default()
        };
        assert!(format!("{r}").contains("explored 5 states"));
        assert!(format!("{}", ExhaustionReason::WallClock).contains("deadline"));
    }
}
