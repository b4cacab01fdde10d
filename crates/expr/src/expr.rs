//! Side-effect-free integer expressions.

use crate::{Decls, EvalError, Store, VarId};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, Mul, Neg, Not, Sub};

/// Binary operators of the data language. Comparison and boolean operators
/// evaluate to `0` (false) or `1` (true).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncated integer division.
    Div,
    /// Remainder.
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Logical conjunction (non-zero is true); both sides are evaluated.
    And,
    /// Logical disjunction (non-zero is true); both sides are evaluated.
    Or,
}

/// Unary operators of the data language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation (`0` ↦ `1`, non-zero ↦ `0`).
    Not,
}

/// A side-effect-free expression over declared variables, `select`
/// placeholders (UPPAAL's `e : id_t` edge selectors) and constants.
///
/// Expressions support Rust operator syntax for convenience:
///
/// ```
/// use tempo_expr::{Decls, Expr};
/// let mut d = Decls::new();
/// let a = d.int("a", 0, 9);
/// let e = Expr::var(a) + Expr::konst(1);
/// let s = d.initial_store();
/// assert_eq!(e.eval(&d, &s, &[])?, 1);
/// # Ok::<(), tempo_expr::EvalError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer constant.
    Const(i64),
    /// A scalar variable (or element `0` of an array).
    Var(VarId),
    /// An array element `var[index]`.
    Index(VarId, Box<Expr>),
    /// The `k`-th `select` binding of the enclosing edge.
    Select(usize),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// An integer constant. (Named `konst` because `const` is reserved.)
    #[must_use]
    pub fn konst(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// The boolean constant `true` (`1`).
    #[must_use]
    pub fn truth() -> Expr {
        Expr::Const(1)
    }

    /// A scalar variable reference.
    #[must_use]
    pub fn var(id: VarId) -> Expr {
        Expr::Var(id)
    }

    /// An array element reference `id[index]`.
    #[must_use]
    pub fn index(id: VarId, index: Expr) -> Expr {
        Expr::Index(id, Box::new(index))
    }

    /// The `k`-th `select` binding of the enclosing edge (UPPAAL's
    /// `e : id_t` selectors).
    #[must_use]
    pub fn select(k: usize) -> Expr {
        Expr::Select(k)
    }

    /// Builds `self op rhs`.
    #[must_use]
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    #[must_use]
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    /// `self <= rhs`.
    #[must_use]
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }

    /// `self > rhs`.
    #[must_use]
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }

    /// `self >= rhs`.
    #[must_use]
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// `self == rhs`.
    #[must_use]
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// `self != rhs`.
    #[must_use]
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }

    /// Evaluates the expression.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on division by zero, out-of-bounds array
    /// access, unbound `select` placeholder, or arithmetic overflow.
    pub fn eval(&self, decls: &Decls, store: &Store, selects: &[i64]) -> Result<i64, EvalError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(id) => Ok(store.get(*id)),
            Expr::Index(id, idx) => {
                let i = idx.eval(decls, store, selects)?;
                store.get_index(decls, *id, i)
            }
            Expr::Select(k) => selects
                .get(*k)
                .copied()
                .ok_or(EvalError::UnboundSelect { position: *k }),
            Expr::Unary(op, e) => {
                let v = e.eval(decls, store, selects)?;
                Ok(match op {
                    UnOp::Neg => v.checked_neg().ok_or(EvalError::Overflow)?,
                    UnOp::Not => i64::from(v == 0),
                })
            }
            Expr::Binary(op, l, r) => {
                let a = l.eval(decls, store, selects)?;
                let b = r.eval(decls, store, selects)?;
                let bool_to_i = i64::from;
                Ok(match op {
                    BinOp::Add => a.checked_add(b).ok_or(EvalError::Overflow)?,
                    BinOp::Sub => a.checked_sub(b).ok_or(EvalError::Overflow)?,
                    BinOp::Mul => a.checked_mul(b).ok_or(EvalError::Overflow)?,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        a.checked_div(b).ok_or(EvalError::Overflow)?
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(EvalError::DivisionByZero);
                        }
                        a.checked_rem(b).ok_or(EvalError::Overflow)?
                    }
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                    BinOp::Lt => bool_to_i(a < b),
                    BinOp::Le => bool_to_i(a <= b),
                    BinOp::Gt => bool_to_i(a > b),
                    BinOp::Ge => bool_to_i(a >= b),
                    BinOp::Eq => bool_to_i(a == b),
                    BinOp::Ne => bool_to_i(a != b),
                    BinOp::And => bool_to_i(a != 0 && b != 0),
                    BinOp::Or => bool_to_i(a != 0 || b != 0),
                })
            }
        }
    }

    /// Evaluates the expression as a boolean (non-zero is true).
    ///
    /// # Errors
    ///
    /// Same as [`Expr::eval`].
    pub fn eval_bool(
        &self,
        decls: &Decls,
        store: &Store,
        selects: &[i64],
    ) -> Result<bool, EvalError> {
        Ok(self.eval(decls, store, selects)? != 0)
    }
}

/// Collects every variable read by `e` into `out` (array reads count
/// both the element and the index expression's variables).
pub fn expr_vars(e: &Expr, out: &mut BTreeSet<VarId>) {
    match e {
        Expr::Const(_) | Expr::Select(_) => {}
        Expr::Var(id) => {
            out.insert(*id);
        }
        Expr::Index(id, index) => {
            out.insert(*id);
            expr_vars(index, out);
        }
        Expr::Unary(_, inner) => expr_vars(inner, out),
        Expr::Binary(_, l, r) => {
            expr_vars(l, out);
            expr_vars(r, out);
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::Const(v)
    }
}

impl From<VarId> for Expr {
    fn from(id: VarId) -> Expr {
        Expr::Var(id)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

impl Not for Expr {
    type Output = Expr;
    fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }
}

impl BitAnd for Expr {
    type Output = Expr;
    /// Logical conjunction (`&` used as `&&`; both sides evaluated).
    fn bitand(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
}

impl BitOr for Expr {
    type Output = Expr;
    /// Logical disjunction (`|` used as `||`; both sides evaluated).
    fn bitor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(id) => write!(f, "v{}", id.index()),
            Expr::Index(id, i) => write!(f, "v{}[{}]", id.index(), i),
            Expr::Select(k) => write!(f, "sel{k}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, l, r) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Min => "min",
                    BinOp::Max => "max",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                write!(f, "({l} {sym} {r})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Decls, Store, VarId, VarId) {
        let mut d = Decls::new();
        let a = d.int_init("a", -10, 10, 3);
        let arr = d.array("arr", 3, 0, 9);
        let s = d.initial_store();
        (d, s, a, arr)
    }

    #[test]
    fn arithmetic() {
        let (d, s, a, _) = setup();
        let e = (Expr::var(a) + Expr::konst(4)) * Expr::konst(2);
        assert_eq!(e.eval(&d, &s, &[]).unwrap(), 14);
        let e = Expr::var(a) - Expr::konst(10);
        assert_eq!(e.eval(&d, &s, &[]).unwrap(), -7);
        let e = -Expr::var(a);
        assert_eq!(e.eval(&d, &s, &[]).unwrap(), -3);
    }

    #[test]
    fn comparisons_and_logic() {
        let (d, s, a, _) = setup();
        assert_eq!(
            Expr::var(a).lt(Expr::konst(4)).eval(&d, &s, &[]).unwrap(),
            1
        );
        assert_eq!(
            Expr::var(a).ge(Expr::konst(4)).eval(&d, &s, &[]).unwrap(),
            0
        );
        let both = Expr::var(a).gt(Expr::konst(0)) & Expr::var(a).le(Expr::konst(3));
        assert_eq!(both.eval(&d, &s, &[]).unwrap(), 1);
        let either = Expr::var(a).eq(Expr::konst(9)) | Expr::truth();
        assert_eq!(either.eval(&d, &s, &[]).unwrap(), 1);
        assert_eq!((!Expr::konst(0)).eval(&d, &s, &[]).unwrap(), 1);
    }

    #[test]
    fn division_errors() {
        let (d, s, _, _) = setup();
        let e = Expr::konst(1).bin(BinOp::Div, Expr::konst(0));
        assert_eq!(e.eval(&d, &s, &[]), Err(EvalError::DivisionByZero));
        let e = Expr::konst(1).bin(BinOp::Rem, Expr::konst(0));
        assert_eq!(e.eval(&d, &s, &[]), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn array_indexing() {
        let (d, mut s, a, arr) = setup();
        s.set_index(&d, arr, 1, 7).unwrap();
        let e = Expr::index(arr, Expr::konst(1));
        assert_eq!(e.eval(&d, &s, &[]).unwrap(), 7);
        let bad = Expr::index(arr, Expr::var(a)); // a == 3, out of bounds
        assert!(matches!(
            bad.eval(&d, &s, &[]),
            Err(EvalError::IndexOutOfBounds { index: 3, .. })
        ));
    }

    #[test]
    fn selects() {
        let (d, s, _, _) = setup();
        let e = Expr::select(0) + Expr::select(1);
        assert_eq!(e.eval(&d, &s, &[4, 5]).unwrap(), 9);
        assert!(matches!(
            e.eval(&d, &s, &[4]),
            Err(EvalError::UnboundSelect { position: 1 })
        ));
    }

    #[test]
    fn overflow_detected() {
        let (d, s, _, _) = setup();
        let e = Expr::konst(i64::MAX) + Expr::konst(1);
        assert_eq!(e.eval(&d, &s, &[]), Err(EvalError::Overflow));
    }

    #[test]
    fn min_max() {
        let (d, s, a, _) = setup();
        assert_eq!(
            Expr::var(a)
                .bin(BinOp::Min, Expr::konst(1))
                .eval(&d, &s, &[])
                .unwrap(),
            1
        );
        assert_eq!(
            Expr::var(a)
                .bin(BinOp::Max, Expr::konst(1))
                .eval(&d, &s, &[])
                .unwrap(),
            3
        );
    }
}
