//! Imperative update statements.

use crate::{expr_vars, Decls, EvalError, Expr, Store, VarId, DEFAULT_FUEL};
use std::collections::BTreeSet;

/// An imperative update statement, as attached to timed-automaton edges
/// (UPPAAL's update expressions and user-defined functions).
///
/// The `dequeue` function from Fig. 1(c) of the paper is expressible as a
/// `while` loop shifting array elements; see the crate-level example and
/// the train-gate model in `tempo-models`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// No-op.
    Skip,
    /// `var := expr` for a scalar variable.
    Assign(VarId, Expr),
    /// `var[index] := expr` for an array element.
    AssignIndex(VarId, Expr, Expr),
    /// Sequential composition.
    Seq(Vec<Stmt>),
    /// `if cond { then } else { otherwise }`.
    If(Expr, Box<Stmt>, Box<Stmt>),
    /// `while cond { body }`.
    While(Expr, Box<Stmt>),
}

impl Stmt {
    /// The empty statement.
    #[must_use]
    pub fn skip() -> Stmt {
        Stmt::Skip
    }

    /// `var := expr`.
    #[must_use]
    pub fn assign(var: VarId, e: Expr) -> Stmt {
        Stmt::Assign(var, e)
    }

    /// `var[index] := expr`.
    #[must_use]
    pub fn assign_index(var: VarId, index: Expr, e: Expr) -> Stmt {
        Stmt::AssignIndex(var, index, e)
    }

    /// Sequential composition of statements.
    #[must_use]
    pub fn seq(stmts: Vec<Stmt>) -> Stmt {
        Stmt::Seq(stmts)
    }

    /// `if cond { then }` with an empty else-branch.
    #[must_use]
    pub fn if_then(cond: Expr, then: Stmt) -> Stmt {
        Stmt::If(cond, Box::new(then), Box::new(Stmt::Skip))
    }

    /// `if cond { then } else { otherwise }`.
    #[must_use]
    pub fn if_else(cond: Expr, then: Stmt, otherwise: Stmt) -> Stmt {
        Stmt::If(cond, Box::new(then), Box::new(otherwise))
    }

    /// `while cond { body }`.
    #[must_use]
    pub fn while_loop(cond: Expr, body: Stmt) -> Stmt {
        Stmt::While(cond, Box::new(body))
    }

    /// Executes the statement against a store, using the default step
    /// budget ([`DEFAULT_FUEL`]).
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`] from expression evaluation or
    /// assignment checking, and returns [`EvalError::FuelExhausted`] for
    /// runaway loops. On error the store may be partially updated; callers
    /// (the symbolic engines) treat any error as "edge disabled" and work
    /// on a copy.
    pub fn execute(
        &self,
        decls: &Decls,
        store: &mut Store,
        selects: &[i64],
    ) -> Result<(), EvalError> {
        let mut fuel = DEFAULT_FUEL;
        self.execute_fueled(decls, store, selects, &mut fuel)
    }

    fn execute_fueled(
        &self,
        decls: &Decls,
        store: &mut Store,
        selects: &[i64],
        fuel: &mut u64,
    ) -> Result<(), EvalError> {
        if *fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        *fuel -= 1;
        match self {
            Stmt::Skip => Ok(()),
            Stmt::Assign(var, e) => {
                let v = e.eval(decls, store, selects)?;
                store.set_index(decls, *var, 0, v)
            }
            Stmt::AssignIndex(var, idx, e) => {
                let i = idx.eval(decls, store, selects)?;
                let v = e.eval(decls, store, selects)?;
                store.set_index(decls, *var, i, v)
            }
            Stmt::Seq(stmts) => {
                for s in stmts {
                    s.execute_fueled(decls, store, selects, fuel)?;
                }
                Ok(())
            }
            Stmt::If(cond, then, otherwise) => {
                if cond.eval_bool(decls, store, selects)? {
                    then.execute_fueled(decls, store, selects, fuel)
                } else {
                    otherwise.execute_fueled(decls, store, selects, fuel)
                }
            }
            Stmt::While(cond, body) => {
                while cond.eval_bool(decls, store, selects)? {
                    if *fuel == 0 {
                        return Err(EvalError::FuelExhausted);
                    }
                    body.execute_fueled(decls, store, selects, fuel)?;
                }
                Ok(())
            }
        }
    }
}

/// Collects every variable mentioned anywhere in `s` — read or written.
pub fn stmt_vars(s: &Stmt, out: &mut BTreeSet<VarId>) {
    match s {
        Stmt::Skip => {}
        Stmt::Assign(id, e) => {
            out.insert(*id);
            expr_vars(e, out);
        }
        Stmt::AssignIndex(id, index, e) => {
            out.insert(*id);
            expr_vars(index, out);
            expr_vars(e, out);
        }
        Stmt::Seq(parts) => {
            for p in parts {
                stmt_vars(p, out);
            }
        }
        Stmt::If(cond, a, b) => {
            expr_vars(cond, out);
            stmt_vars(a, out);
            stmt_vars(b, out);
        }
        Stmt::While(cond, body) => {
            expr_vars(cond, out);
            stmt_vars(body, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's FIFO queue (Fig. 1(c)) and returns
    /// `(decls, list, len)`.
    fn fifo(n: usize) -> (Decls, VarId, VarId) {
        let mut d = Decls::new();
        let list = d.array("list", n + 1, 0, n as i64);
        let len = d.int("len", 0, n as i64 + 1);
        (d, list, len)
    }

    fn enqueue(list: VarId, len: VarId, element: Expr) -> Stmt {
        Stmt::seq(vec![
            Stmt::assign_index(list, Expr::var(len), element),
            Stmt::assign(len, Expr::var(len) + Expr::konst(1)),
        ])
    }

    /// The paper's `dequeue`: shift left with a while loop.
    fn dequeue(list: VarId, len: VarId, i: VarId) -> Stmt {
        Stmt::seq(vec![
            Stmt::assign(i, Expr::konst(0)),
            Stmt::assign(len, Expr::var(len) - Expr::konst(1)),
            Stmt::while_loop(
                Expr::var(i).lt(Expr::var(len)),
                Stmt::seq(vec![
                    Stmt::assign_index(
                        list,
                        Expr::var(i),
                        Expr::index(list, Expr::var(i) + Expr::konst(1)),
                    ),
                    Stmt::assign(i, Expr::var(i) + Expr::konst(1)),
                ]),
            ),
            Stmt::assign_index(list, Expr::var(i), Expr::konst(0)),
        ])
    }

    #[test]
    fn fifo_queue_roundtrip() {
        let (mut d, list, len) = {
            let (d, list, len) = fifo(5);
            (d, list, len)
        };
        let i = d.int("i", 0, 6);
        let mut s = d.initial_store();
        for e in [3, 1, 4] {
            enqueue(list, len, Expr::konst(e))
                .execute(&d, &mut s, &[])
                .unwrap();
        }
        assert_eq!(s.get(len), 3);
        // front == 3, tail == 4 (paper's front()/tail()).
        assert_eq!(s.get_index(&d, list, 0).unwrap(), 3);
        assert_eq!(s.get_index(&d, list, s.get(len) - 1).unwrap(), 4);
        dequeue(list, len, i).execute(&d, &mut s, &[]).unwrap();
        assert_eq!(s.get(len), 2);
        assert_eq!(s.get_index(&d, list, 0).unwrap(), 1);
        assert_eq!(s.get_index(&d, list, 1).unwrap(), 4);
        assert_eq!(s.get_index(&d, list, 2).unwrap(), 0);
    }

    #[test]
    fn if_else_branches() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 9);
        let mut s = d.initial_store();
        let stmt = Stmt::if_else(
            Expr::var(a).eq(Expr::konst(0)),
            Stmt::assign(a, Expr::konst(5)),
            Stmt::assign(a, Expr::konst(9)),
        );
        stmt.execute(&d, &mut s, &[]).unwrap();
        assert_eq!(s.get(a), 5);
        stmt.execute(&d, &mut s, &[]).unwrap();
        assert_eq!(s.get(a), 9);
    }

    #[test]
    fn runaway_loop_exhausts_fuel() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 9);
        let mut s = d.initial_store();
        let stmt = Stmt::while_loop(Expr::truth(), Stmt::assign(a, Expr::var(a)));
        assert_eq!(stmt.execute(&d, &mut s, &[]), Err(EvalError::FuelExhausted));
    }

    #[test]
    fn range_violation_aborts() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 3);
        let mut s = d.initial_store();
        let stmt = Stmt::assign(a, Expr::konst(4));
        assert!(matches!(
            stmt.execute(&d, &mut s, &[]),
            Err(EvalError::RangeViolation { .. })
        ));
    }

    #[test]
    fn selects_flow_into_updates() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 99);
        let mut s = d.initial_store();
        let stmt = Stmt::assign(a, Expr::select(0) * Expr::konst(2));
        stmt.execute(&d, &mut s, &[21]).unwrap();
        assert_eq!(s.get(a), 42);
    }
}
