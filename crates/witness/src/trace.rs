//! The concrete timed run: the common witness shape shared by every
//! engine's certificate.
//!
//! A [`ConcreteTrace`] is a fully explicit run of a network: an initial
//! state, then steps of the form *delay, then (optionally) fire a joint
//! move*, each with the full successor state. Clock values and delays
//! are integers over a common denominator [`ConcreteTrace::denom`], so
//! symbolic zone traces (which may require rational delays at strict
//! bounds) and digital-clock traces (denominator 1) share one exact,
//! float-free representation.

use std::fmt;
use tempo_ta::Network;

/// Which concrete semantics the trace claims to follow. Both use one
/// move and urgency rule (the engines share it through
/// `tempo_ta::moves`; the replayer re-derives it); the two differ only
/// in time scale and clock clamping, and both are replayed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSemantics {
    /// The symbolic engines' semantics (`tempo_ta::Explorer`): rational
    /// time over the trace's denominator, no clamping.
    Symbolic,
    /// The digital-clocks semantics (`tempo_ta::DigitalExplorer`):
    /// integer time (denominator 1), clocks clamped one above the
    /// model's maximal constants.
    Digital,
}

/// A fully concrete network state: locations, discrete store and exact
/// clock values (numerators over the trace's denominator).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConcreteState {
    /// Current location index of each automaton.
    pub locs: Vec<usize>,
    /// Flattened discrete variable values (declaration order, as in
    /// [`tempo_expr::Store::as_slice`]).
    pub store: Vec<i64>,
    /// Clock value numerators; `clocks[0]` is the reference clock and is
    /// always `0`.
    pub clocks: Vec<i64>,
}

/// A joint action: the participating edges, sender (or lone mover)
/// first, each with its select-binding values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JointAction {
    /// Display label (`tau`, `chan[idx]`, `chan[idx]!!`).
    pub label: String,
    /// `(automaton index, edge index, select values)` per participant.
    pub participants: Vec<(usize, usize, Vec<i64>)>,
}

/// One step of a concrete run: let `delay` time pass, then fire
/// `action` (or nothing, for a trailing/pure delay), landing in `state`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteStep {
    /// Delay numerator (over the trace denominator); never negative.
    pub delay: i64,
    /// The joint move fired after the delay, if any.
    pub action: Option<JointAction>,
    /// The state reached after the delay and the action.
    pub state: ConcreteState,
}

/// A concrete timed run of a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteTrace {
    /// Claimed semantics (decides the time scale and the clock clamp
    /// during replay).
    pub semantics: TraceSemantics,
    /// Common denominator of all clock values and delays (`>= 1`;
    /// digital traces use `1`).
    pub denom: i64,
    /// The initial state (all clocks zero).
    pub initial: ConcreteState,
    /// The steps, in execution order.
    pub steps: Vec<ConcreteStep>,
}

impl ConcreteTrace {
    /// Total elapsed time of the run, as `(numerator, denominator)`.
    #[must_use]
    pub fn duration(&self) -> (i64, i64) {
        (self.steps.iter().map(|s| s.delay).sum(), self.denom)
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Renders the trace with location and clock names resolved against
    /// the network (the human-oriented counterpart of the certificate
    /// text format).
    #[must_use]
    pub fn render(&self, net: &Network) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", render_state(net, &self.initial, self.denom));
        for step in &self.steps {
            let action = step.action.as_ref().map_or("(delay)", |a| a.label.as_str());
            let _ = writeln!(
                out,
                "  --[{} after {}]-->",
                action,
                render_time(step.delay, self.denom)
            );
            let _ = writeln!(out, "{}", render_state(net, &step.state, self.denom));
        }
        out
    }
}

fn render_time(num: i64, denom: i64) -> String {
    if denom == 1 || num % denom == 0 {
        format!("{}", num / denom.max(1))
    } else {
        format!("{num}/{denom}")
    }
}

fn render_state(net: &Network, s: &ConcreteState, denom: i64) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("(");
    for (ai, a) in net.automata().iter().enumerate() {
        if ai > 0 {
            out.push_str(", ");
        }
        let name = s
            .locs
            .get(ai)
            .and_then(|&l| a.locations.get(l))
            .map_or("?", |l| l.name.as_str());
        let _ = write!(out, "{}.{}", a.name, name);
    }
    out.push(')');
    let names = net.clock_names();
    for (i, &c) in s.clocks.iter().enumerate().skip(1) {
        let name = names.get(i).map_or("?", String::as_str);
        let _ = write!(out, " {}={}", name, render_time(c, denom));
    }
    out
}

impl fmt::Display for JointAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)?;
        for (ai, ei, sel) in &self.participants {
            write!(f, " {ai}.{ei}")?;
            if !sel.is_empty() {
                write!(f, "{sel:?}")?;
            }
        }
        Ok(())
    }
}
