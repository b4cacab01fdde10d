//! Assignment collectors over [`Stmt`] and the cone-of-influence
//! closure used for query-directed slicing and the `dead_variable`
//! lint. The plain read/write collectors are [`tempo_expr::expr_vars`]
//! and [`tempo_expr::stmt_vars`].

use std::collections::BTreeSet;
use tempo_expr::{expr_vars, BinOp, Expr, Stmt, VarId};

/// Whether evaluating `e` can raise a runtime error (division/remainder
/// by zero, out-of-bounds array index). Removing an assignment whose
/// right-hand side can trap would change observable behavior, so
/// slicing only freezes variables whose assignments are trap-free.
#[must_use]
pub fn expr_can_trap(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Select(_) => false,
        Expr::Index(_, _) => true,
        Expr::Unary(_, inner) => expr_can_trap(inner),
        Expr::Binary(op, l, r) => {
            matches!(op, BinOp::Div | BinOp::Rem) || expr_can_trap(l) || expr_can_trap(r)
        }
    }
}

/// One assignment occurrence inside a statement: the written variable
/// and everything its value depends on — the right-hand side, array
/// index expressions, and the conditions of every enclosing `if`/`while`
/// (control dependence).
#[derive(Clone, Debug)]
pub struct Assign {
    /// The written variable.
    pub target: VarId,
    /// Variables the assigned value (or whether it happens) depends on.
    pub deps: BTreeSet<VarId>,
    /// Whether executing this assignment (index + value evaluation) can
    /// raise a runtime error.
    pub can_trap: bool,
}

/// Collects every assignment of `s`, threading the enclosing control
/// conditions' variables into each one's dependency set.
pub fn stmt_assignments(s: &Stmt, out: &mut Vec<Assign>) {
    collect_assigns(s, &BTreeSet::new(), out);
}

fn collect_assigns(s: &Stmt, control: &BTreeSet<VarId>, out: &mut Vec<Assign>) {
    match s {
        Stmt::Skip => {}
        Stmt::Assign(id, e) => {
            let mut deps = control.clone();
            expr_vars(e, &mut deps);
            out.push(Assign {
                target: *id,
                deps,
                can_trap: expr_can_trap(e),
            });
        }
        Stmt::AssignIndex(id, index, e) => {
            let mut deps = control.clone();
            expr_vars(index, &mut deps);
            expr_vars(e, &mut deps);
            out.push(Assign {
                target: *id,
                deps,
                // Indexed writes can always trap on a bad index.
                can_trap: true,
            });
        }
        Stmt::Seq(parts) => {
            for p in parts {
                collect_assigns(p, control, out);
            }
        }
        Stmt::If(cond, then, otherwise) => {
            let mut inner = control.clone();
            expr_vars(cond, &mut inner);
            collect_assigns(then, &inner, out);
            collect_assigns(otherwise, &inner, out);
        }
        Stmt::While(cond, body) => {
            let mut inner = control.clone();
            expr_vars(cond, &mut inner);
            collect_assigns(body, &inner, out);
        }
    }
}

/// The cone-of-influence closure: starting from `seeds` (variables read
/// by observable expressions — guards, synchronization indices, clock
/// resets, query atoms), repeatedly adds the dependencies of every
/// assignment whose target is already relevant, until stable.
///
/// A variable *not* in the result is written but never read on any path
/// to an observable guard: freezing it cannot change any verdict.
#[must_use]
pub fn relevant_vars(seeds: BTreeSet<VarId>, assigns: &[Assign]) -> BTreeSet<VarId> {
    let mut relevant = seeds;
    let mut changed = true;
    while changed {
        changed = false;
        for a in assigns {
            if relevant.contains(&a.target) {
                for dep in &a.deps {
                    if relevant.insert(*dep) {
                        changed = true;
                    }
                }
            }
        }
    }
    relevant
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_expr::Decls;

    #[test]
    fn closure_follows_data_and_control_dependencies() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 9);
        let b = d.int("b", 0, 9);
        let c = d.int("c", 0, 9);
        let dead = d.int("dead", 0, 9);
        // a := b (data dep); if (c) { a := 1 } (control dep);
        // dead := a + c — written, never read.
        let s = Stmt::seq(vec![
            Stmt::assign(a, Expr::var(b)),
            Stmt::if_then(Expr::var(c), Stmt::assign(a, Expr::konst(1))),
            Stmt::assign(dead, Expr::var(a) + Expr::var(c)),
        ]);
        let mut assigns = Vec::new();
        stmt_assignments(&s, &mut assigns);
        let relevant = relevant_vars([a].into_iter().collect(), &assigns);
        assert!(relevant.contains(&a) && relevant.contains(&b) && relevant.contains(&c));
        assert!(!relevant.contains(&dead), "write-only variable stays out");
    }

    #[test]
    fn trap_detection_is_syntactic_and_conservative() {
        let mut d = Decls::new();
        let a = d.int("a", 1, 9);
        assert!(!expr_can_trap(&(Expr::var(a) + Expr::konst(1))));
        assert!(expr_can_trap(&Expr::konst(1).bin(BinOp::Div, Expr::var(a))));
        assert!(expr_can_trap(&Expr::index(a, Expr::konst(0))));
    }
}
