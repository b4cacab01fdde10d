//! Structural and logical composition of timed I/O automata — the two
//! composition operators the paper attributes to ECDAR ("the tool allows
//! for structural and logical composition of specifications").
//!
//! * [`parallel`] (`A ∥ B`): structural composition. Shared actions
//!   synchronize (an output on either side makes the composite action an
//!   output); others interleave. Requires disjoint output alphabets.
//! * [`conjunction`] (`A ∧ B`): logical composition. Both specifications
//!   constrain the same component, so every action synchronizes; the
//!   result allows exactly the behaviour permitted by both.

use crate::tioa::{IoDir, Tioa, TioaAtom, TioaEdge, TioaLocation};
use std::collections::HashSet;
use tempo_dbm::Clock;

/// An error raised by a composition operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// `parallel` requires disjoint output alphabets.
    OutputClash {
        /// The offending action.
        action: String,
    },
    /// `conjunction` requires the action to have the same direction in
    /// both operands.
    DirectionClash {
        /// The offending action.
        action: String,
    },
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::OutputClash { action } => {
                write!(f, "both components output {action}")
            }
            ComposeError::DirectionClash { action } => {
                write!(f, "{action} has different directions in the operands")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

fn offset_atom(a: &TioaAtom, offset: usize) -> TioaAtom {
    TioaAtom {
        clock: Clock(a.clock.index() + offset),
        upper: a.upper,
        bound: a.bound,
    }
}

fn offset_edge_clocks(e: &TioaEdge, offset: usize) -> (Vec<TioaAtom>, Vec<Clock>) {
    (
        e.guard.iter().map(|a| offset_atom(a, offset)).collect(),
        e.resets.iter().map(|c| Clock(c.index() + offset)).collect(),
    )
}

/// Structural (parallel) composition `a ∥ b`.
///
/// # Errors
///
/// Returns [`ComposeError::OutputClash`] if the output alphabets overlap.
pub fn parallel(a: &Tioa, b: &Tioa) -> Result<Tioa, ComposeError> {
    let a_out: HashSet<&str> = a.outputs().collect();
    let b_out: HashSet<&str> = b.outputs().collect();
    if let Some(action) = a_out.intersection(&b_out).next() {
        return Err(ComposeError::OutputClash {
            action: (*action).to_owned(),
        });
    }
    let a_alpha: HashSet<&str> = a.inputs().chain(a.outputs()).collect();
    let b_alpha: HashSet<&str> = b.inputs().chain(b.outputs()).collect();
    let shared: HashSet<String> = a_alpha
        .intersection(&b_alpha)
        .map(|s| (*s).to_owned())
        .collect();
    Ok(product(a, b, &|action: &str,
                       da: Option<IoDir>,
                       db: Option<IoDir>| {
        if shared.contains(action) {
            // Synchronized: both sides must move; the composite direction
            // is Output if either side outputs (input-output sync), else
            // Input (input-input sync).
            match (da, db) {
                (Some(x), Some(y)) => {
                    let dir = if x == IoDir::Output || y == IoDir::Output {
                        IoDir::Output
                    } else {
                        IoDir::Input
                    };
                    SyncKind::Joint(dir)
                }
                _ => SyncKind::Blocked,
            }
        } else {
            SyncKind::Interleave
        }
    }))
}

/// Logical composition (conjunction) `a ∧ b`: both operands constrain the
/// same interface, every action synchronizes.
///
/// # Errors
///
/// Returns [`ComposeError::DirectionClash`] if an action is an input in
/// one operand and an output in the other.
pub fn conjunction(a: &Tioa, b: &Tioa) -> Result<Tioa, ComposeError> {
    // Validate directions agree on the shared alphabet.
    for action in a.inputs() {
        if b.outputs().any(|o| o == action) {
            return Err(ComposeError::DirectionClash {
                action: action.to_owned(),
            });
        }
    }
    for action in a.outputs() {
        if b.inputs().any(|i| i == action) {
            return Err(ComposeError::DirectionClash {
                action: action.to_owned(),
            });
        }
    }
    Ok(product(a, b, &|_action, da, db| match (da, db) {
        (Some(x), Some(_)) => SyncKind::Joint(x),
        // An action only one operand knows: the conjunction still allows
        // it (the other operand is indifferent), moving one side only.
        _ => SyncKind::Interleave,
    }))
}

enum SyncKind {
    Joint(IoDir),
    Interleave,
    Blocked,
}

/// How an action with the given directions in each operand composes.
type SyncPolicy<'a> = dyn Fn(&str, Option<IoDir>, Option<IoDir>) -> SyncKind + 'a;

/// Generic synchronous product. `policy(action, dir_in_a, dir_in_b)`
/// decides how each action composes.
fn product(a: &Tioa, b: &Tioa, policy: &SyncPolicy<'_>) -> Tioa {
    let offset = a.dim() - 1;
    let dir_in = |t: &Tioa, action: &str| -> Option<IoDir> {
        t.edges().iter().find(|e| e.action == action).map(|e| e.dir)
    };
    let mut locations = Vec::new();
    for la in a.locations() {
        for lb in b.locations() {
            let mut invariant = la.invariant.clone();
            invariant.extend(lb.invariant.iter().map(|at| offset_atom(at, offset)));
            locations.push(TioaLocation {
                name: format!("{}|{}", la.name, lb.name),
                invariant,
            });
        }
    }
    let nb = b.locations().len();
    let loc = |ia: usize, ib: usize| ia * nb + ib;
    let mut edges = Vec::new();
    let mut alphabet: Vec<String> = a
        .edges()
        .iter()
        .chain(b.edges())
        .map(|e| e.action.clone())
        .collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    for action in &alphabet {
        let da = dir_in(a, action);
        let db = dir_in(b, action);
        match policy(action, da, db) {
            SyncKind::Blocked => {}
            SyncKind::Joint(dir) => {
                for ea in a.edges().iter().filter(|e| &e.action == action) {
                    for eb in b.edges().iter().filter(|e| &e.action == action) {
                        let (bg, br) = offset_edge_clocks(eb, offset);
                        let mut guard = ea.guard.clone();
                        guard.extend(bg);
                        let mut resets = ea.resets.clone();
                        resets.extend(br);
                        edges.push(TioaEdge {
                            from: loc(ea.from, eb.from),
                            to: loc(ea.to, eb.to),
                            action: action.clone(),
                            dir,
                            guard,
                            resets,
                        });
                    }
                }
            }
            SyncKind::Interleave => {
                for ea in a.edges().iter().filter(|e| &e.action == action) {
                    for ib in 0..nb {
                        edges.push(TioaEdge {
                            from: loc(ea.from, ib),
                            to: loc(ea.to, ib),
                            action: action.clone(),
                            dir: ea.dir,
                            guard: ea.guard.clone(),
                            resets: ea.resets.clone(),
                        });
                    }
                }
                for eb in b.edges().iter().filter(|e| &e.action == action) {
                    let (bg, br) = offset_edge_clocks(eb, offset);
                    for ia in 0..a.locations().len() {
                        edges.push(TioaEdge {
                            from: loc(ia, eb.from),
                            to: loc(ia, eb.to),
                            action: action.clone(),
                            dir: eb.dir,
                            guard: bg.clone(),
                            resets: br.clone(),
                        });
                    }
                }
            }
        }
    }
    let mut clock_names: Vec<String> = (1..a.dim()).map(|i| format!("{}.x{i}", a.name())).collect();
    clock_names.extend((1..b.dim()).map(|i| format!("{}.x{i}", b.name())));
    Tioa {
        name: format!("({} | {})", a.name(), b.name()),
        clock_names,
        locations,
        edges,
        initial: loc(a.initial(), b.initial()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{find_inconsistency_governed, refines_governed};
    use crate::tioa::TioaBuilder;
    use tempo_obs::Budget;

    /// A machine that accepts coin? and emits brew!.
    fn machine() -> Tioa {
        let mut b = TioaBuilder::new("M");
        let x = b.clock("x");
        let idle = b.location("Idle");
        let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 4)]);
        b.input(idle, busy, "coin").reset(x).done();
        b.output(busy, idle, "brew")
            .guard(TioaAtom::ge(x, 1))
            .done();
        b.build()
    }

    /// A logger that listens to brew? and emits log!.
    fn logger() -> Tioa {
        let mut b = TioaBuilder::new("L");
        let y = b.clock("y");
        let wait = b.location("Wait");
        let note = b.location_with_invariant("Note", vec![TioaAtom::le(y, 2)]);
        b.input(wait, note, "brew").reset(y).done();
        b.output(note, wait, "log").done();
        b.build()
    }

    #[test]
    fn parallel_synchronizes_shared_actions() {
        let sys = parallel(&machine(), &logger()).expect("compatible");
        // brew is shared (M output, L input) → composite output.
        let brew = sys.edges().iter().find(|e| e.action == "brew").unwrap();
        assert_eq!(brew.dir, IoDir::Output);
        // coin only in M → interleaved input, one copy per L location.
        let coins = sys.edges().iter().filter(|e| e.action == "coin").count();
        assert_eq!(coins, logger().locations().len());
        assert_eq!(sys.dim(), 3, "clock sets are disjointly united");
        assert!(find_inconsistency_governed(&sys, &Budget::unlimited())
            .into_value()
            .is_none());
    }

    #[test]
    fn parallel_rejects_output_clash() {
        let err = parallel(&machine(), &machine()).unwrap_err();
        assert!(matches!(err, ComposeError::OutputClash { .. }));
    }

    #[test]
    fn conjunction_takes_tightest_timing() {
        // Spec A: brew within [1, 4]; Spec B: brew within [2, 6].
        let spec_b = {
            let mut b = TioaBuilder::new("B");
            let x = b.clock("x");
            let idle = b.location("Idle");
            let busy = b.location_with_invariant("Busy", vec![TioaAtom::le(x, 6)]);
            b.input(idle, busy, "coin").reset(x).done();
            b.output(busy, idle, "brew")
                .guard(TioaAtom::ge(x, 2))
                .done();
            b.build()
        };
        let both = conjunction(&machine(), &spec_b).expect("same directions");
        // The conjunction allows brew only in [2, 4]: it refines both.
        assert!(refines_governed(&both, &machine(), &Budget::unlimited())
            .into_value()
            .is_ok());
        assert!(refines_governed(&both, &spec_b, &Budget::unlimited())
            .into_value()
            .is_ok());
        // And neither original refines the conjunction (each allows
        // behaviour the other forbids).
        assert!(refines_governed(&machine(), &both, &Budget::unlimited())
            .into_value()
            .is_err());
    }

    #[test]
    fn conjunction_rejects_direction_clash() {
        let err = conjunction(&machine(), &logger()).unwrap_err();
        assert!(matches!(err, ComposeError::DirectionClash { action } if action == "brew"));
    }

    #[test]
    fn composed_system_refines_a_coarser_contract() {
        // Contract: after coin?, a log! eventually (within 6) — expressed
        // as a TIOA over the composite's externally visible actions.
        let contract = {
            let mut b = TioaBuilder::new("Contract");
            let t = b.clock("t");
            let idle = b.location("Idle");
            let pending = b.location_with_invariant("Pending", vec![TioaAtom::le(t, 6)]);
            b.input(idle, pending, "coin").reset(t).done();
            b.output(pending, pending, "brew").done();
            b.output(pending, idle, "log").done();
            b.build()
        };
        let sys = parallel(&machine(), &logger()).expect("compatible");
        assert!(
            refines_governed(&sys, &contract, &Budget::unlimited())
                .into_value()
                .is_ok(),
            "machine ∥ logger meets the end-to-end deadline contract"
        );
    }
}
