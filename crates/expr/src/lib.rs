//! # tempo-expr — bounded-integer data language for model annotations
//!
//! UPPAAL models extend timed automata with "a C-like imperative language
//! with user-defined types and functions" (Bozga et al., DATE 2012, §II).
//! This crate provides that data layer for the whole `tempo` workspace:
//!
//! * [`Decls`] — declarations of bounded integer variables and arrays
//!   (e.g. `id_t list[N+1]; int[0,N] len;` from Fig. 1(c) of the paper);
//! * [`Store`] — a hashable snapshot of variable values, the discrete part
//!   of a model state;
//! * [`Expr`] — side-effect-free integer/boolean expressions;
//! * [`Stmt`] — imperative updates (assignment, `if`, `while`, blocks),
//!   sufficient to express the FIFO-queue functions `enqueue`, `dequeue`,
//!   `front` and `tail` used by the paper's train-gate controller;
//! * [`expr_vars`] / [`stmt_vars`] — the variables an expression reads
//!   or a statement mentions, for the reduction and slicing passes.
//!
//! ## Example: the paper's `enqueue`
//!
//! ```
//! use tempo_expr::{Decls, Expr, Stmt};
//!
//! let mut decls = Decls::new();
//! let list = decls.array("list", 7, 0, 6);
//! let len = decls.int("len", 0, 6);
//!
//! // list[len] = element; len += 1;   (element = 3 here)
//! let enqueue = Stmt::seq(vec![
//!     Stmt::assign_index(list, Expr::var(len), Expr::konst(3)),
//!     Stmt::assign(len, Expr::var(len) + Expr::konst(1)),
//! ]);
//!
//! let mut store = decls.initial_store();
//! enqueue.execute(&decls, &mut store, &[])?;
//! assert_eq!(store.get_index(&decls, list, 0)?, 3);
//! assert_eq!(store.get(len), 1);
//! # Ok::<(), tempo_expr::EvalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decls;
mod digest;
mod error;
mod expr;
mod stmt;

pub use decls::{Decls, Store, VarId, VarInfo};
pub use error::EvalError;
pub use expr::{expr_vars, BinOp, Expr, UnOp};
pub use stmt::{stmt_vars, Stmt};

/// Maximum number of statement steps a single update may execute before
/// being aborted with [`EvalError::FuelExhausted`]; guards against
/// non-terminating `while` loops in model annotations.
pub const DEFAULT_FUEL: u64 = 1_000_000;
