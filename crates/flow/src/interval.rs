//! A saturating interval abstract domain over `i64`, with abstract
//! evaluation of [`Expr`]s, transfer of [`Stmt`]s, and a widening
//! global range fixpoint.
//!
//! All arithmetic is carried out in `i128` and clamped back to `i64`,
//! so a bound that leaves the representable range *saturates* (and the
//! interval stays a sound over-approximation) instead of wrapping.

use std::collections::HashMap;
use tempo_expr::{BinOp, Decls, Expr, Stmt, UnOp, VarId};

/// An inclusive integer interval `[lo, hi]`; `lo > hi` encodes ⊥ (no
/// value). Bounds saturate at `i64::MIN`/`i64::MAX`, which double as
/// −∞/+∞.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// Three-valued verdict of an abstract boolean evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    /// The predicate holds for every concrete valuation in the domain.
    True,
    /// The predicate fails for every concrete valuation in the domain.
    False,
    /// The analysis cannot decide.
    Unknown,
}

impl Truth {
    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

fn clamp(v: i128) -> i64 {
    if v > i128::from(i64::MAX) {
        i64::MAX
    } else if v < i128::from(i64::MIN) {
        i64::MIN
    } else {
        v as i64
    }
}

impl Interval {
    /// The interval containing exactly `v`.
    #[must_use]
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`.
    #[must_use]
    pub fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    /// The full `i64` range (⊤).
    #[must_use]
    pub fn top() -> Interval {
        Interval {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// The empty interval (⊥).
    #[must_use]
    pub fn bottom() -> Interval {
        Interval { lo: 1, hi: 0 }
    }

    /// Whether no concrete value is represented.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether every `i64` is represented.
    #[must_use]
    pub fn is_top(self) -> bool {
        self.lo == i64::MIN && self.hi == i64::MAX
    }

    /// Least upper bound (interval hull).
    #[must_use]
    pub fn join(self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound (intersection).
    #[must_use]
    pub fn meet(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Standard widening: a bound that grew jumps to ±∞ so ascending
    /// chains stabilize in one step per bound.
    #[must_use]
    pub fn widen(self, next: Interval) -> Interval {
        if self.is_empty() {
            return next;
        }
        if next.is_empty() {
            return self;
        }
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn map2(self, other: Interval, op: impl Fn(i128, i128) -> i128) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::bottom();
        }
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for x in [self.lo, self.hi] {
            for y in [other.lo, other.hi] {
                let v = clamp(op(i128::from(x), i128::from(y)));
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        Interval { lo, hi }
    }

    /// Truncated division. On each side of 0 the quotient is monotone
    /// in both operands, so its extremes lie at the dividend's
    /// endpoints over the divisor's non-zero endpoints and `±1`. A
    /// divisor that is always 0 traps, so no value results (⊥).
    fn div(self, d: Interval) -> Interval {
        [d.lo, d.hi, -1, 1]
            .into_iter()
            .filter(|&y| y != 0 && d.lo <= y && y <= d.hi)
            .fold(Interval::bottom(), |acc, y| {
                acc.join(self.map2(Interval::exact(y), |x, y| x / y))
            })
    }

    /// Remainder: `|x % y| < |y|` and `|x % y| <= |x|`, with the sign of
    /// the dividend. `|y|` is taken in `i128`, so a divisor range that
    /// contains `i64::MIN` is handled; a divisor that is always 0 traps.
    fn rem(self, d: Interval) -> Interval {
        if self.is_empty() || d.is_empty() || (d.lo == 0 && d.hi == 0) {
            return Interval::bottom();
        }
        let m = clamp(i128::from(d.lo).abs().max(i128::from(d.hi).abs()) - 1);
        Interval {
            lo: if self.lo < 0 { self.lo.max(-m) } else { 0 },
            hi: if self.hi > 0 { self.hi.min(m) } else { 0 },
        }
    }

    fn boolean() -> Interval {
        Interval { lo: 0, hi: 1 }
    }
}

/// Abstract variable environment: one interval per declared variable
/// (arrays are summarized by a single interval over all elements).
pub type Env = HashMap<VarId, Interval>;

/// The interval of `id` under `env`, defaulting to the declared range.
#[must_use]
pub fn var_interval(decls: &Decls, env: &Env, id: VarId) -> Interval {
    env.get(&id).copied().unwrap_or_else(|| {
        let info = decls.info(id);
        Interval::new(info.lo, info.hi)
    })
}

/// Abstractly evaluates `e` under `env`; `selects[k]` is the interval of
/// the `k`-th `select` binding of the enclosing edge (out-of-range
/// select indices evaluate to ⊤). Every value [`Expr::eval`] can return
/// for a store in `env` lies in the result, so an expression that
/// always traps (a divisor that is always 0) evaluates to ⊥.
#[must_use]
pub fn eval(e: &Expr, decls: &Decls, env: &Env, selects: &[Interval]) -> Interval {
    match e {
        Expr::Const(v) => Interval::exact(*v),
        Expr::Var(id) | Expr::Index(id, _) => var_interval(decls, env, *id),
        Expr::Select(k) => selects.get(*k).copied().unwrap_or_else(Interval::top),
        Expr::Unary(op, inner) => {
            let i = eval(inner, decls, env, selects);
            match op {
                UnOp::Not => match truth(inner, decls, env, selects) {
                    Truth::True => Interval::exact(0),
                    Truth::False => Interval::exact(1),
                    Truth::Unknown => Interval::boolean(),
                },
                UnOp::Neg => i.map2(Interval::exact(0), |x, _| -x),
            }
        }
        Expr::Binary(op, l, r) => {
            let a = eval(l, decls, env, selects);
            let b = eval(r, decls, env, selects);
            match op {
                BinOp::Add => a.map2(b, |x, y| x + y),
                BinOp::Sub => a.map2(b, |x, y| x - y),
                BinOp::Mul => a.map2(b, |x, y| x * y),
                BinOp::Min => a.map2(b, std::cmp::min),
                BinOp::Max => a.map2(b, std::cmp::max),
                BinOp::Div => a.div(b),
                BinOp::Rem => a.rem(b),
                _ => match truth(e, decls, env, selects) {
                    Truth::True => Interval::exact(1),
                    Truth::False => Interval::exact(0),
                    Truth::Unknown => Interval::boolean(),
                },
            }
        }
    }
}

/// Abstract truth of a boolean expression under `env`: [`Truth::False`]
/// is a *proof* that no concrete valuation in the domain satisfies `e`
/// (the fact behind `MOD003` and slicing's dead-edge rule).
#[must_use]
pub fn truth(e: &Expr, decls: &Decls, env: &Env, selects: &[Interval]) -> Truth {
    match e {
        Expr::Const(v) => {
            if *v == 0 {
                Truth::False
            } else {
                Truth::True
            }
        }
        Expr::Unary(UnOp::Not, inner) => truth(inner, decls, env, selects).not(),
        Expr::Binary(op, l, r) => {
            let cmp = |decide: fn(Interval, Interval) -> Truth| {
                let a = eval(l, decls, env, selects);
                let b = eval(r, decls, env, selects);
                if a.is_empty() || b.is_empty() {
                    Truth::Unknown
                } else {
                    decide(a, b)
                }
            };
            match op {
                BinOp::And => {
                    match (truth(l, decls, env, selects), truth(r, decls, env, selects)) {
                        (Truth::False, _) | (_, Truth::False) => Truth::False,
                        (Truth::True, Truth::True) => Truth::True,
                        _ => Truth::Unknown,
                    }
                }
                BinOp::Or => match (truth(l, decls, env, selects), truth(r, decls, env, selects)) {
                    (Truth::True, _) | (_, Truth::True) => Truth::True,
                    (Truth::False, Truth::False) => Truth::False,
                    _ => Truth::Unknown,
                },
                BinOp::Lt => cmp(decide_lt),
                BinOp::Le => cmp(|a, b| decide_lt(b, a).not()),
                BinOp::Gt => cmp(|a, b| decide_lt(b, a)),
                BinOp::Ge => cmp(|a, b| decide_lt(a, b).not()),
                BinOp::Eq => cmp(decide_eq),
                BinOp::Ne => cmp(|a, b| decide_eq(a, b).not()),
                _ => arithmetic_truth(e, decls, env, selects),
            }
        }
        _ => arithmetic_truth(e, decls, env, selects),
    }
}

fn decide_lt(a: Interval, b: Interval) -> Truth {
    if a.hi < b.lo {
        Truth::True
    } else if a.lo >= b.hi {
        Truth::False
    } else {
        Truth::Unknown
    }
}

fn decide_eq(a: Interval, b: Interval) -> Truth {
    if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
        Truth::True
    } else if a.hi < b.lo || b.hi < a.lo {
        Truth::False
    } else {
        Truth::Unknown
    }
}

/// Truth of an arithmetic expression used in boolean position (non-zero
/// is true).
fn arithmetic_truth(e: &Expr, decls: &Decls, env: &Env, selects: &[Interval]) -> Truth {
    let i = eval(e, decls, env, selects);
    if i.is_empty() {
        Truth::Unknown
    } else if i.lo == 0 && i.hi == 0 {
        Truth::False
    } else if i.lo > 0 || i.hi < 0 {
        Truth::True
    } else {
        Truth::Unknown
    }
}

/// Narrows `env` with the comparisons of `guard` (conjunctions and
/// `var ⋈ const` / `const ⋈ var` atoms on scalars; everything else is
/// ignored — refinement only ever shrinks intervals, so it is always
/// sound to skip). An array name reads only element 0, so it cannot
/// narrow the interval that stands for every element.
pub fn refine(env: &mut Env, guard: &Expr, decls: &Decls) {
    let Expr::Binary(op, l, r) = guard else {
        return;
    };
    let narrow = |env: &mut Env, id: VarId, op: BinOp, c: i64| {
        if decls.info(id).len != 1 {
            return;
        }
        let cur = var_interval(decls, env, id);
        let bound = match op {
            BinOp::Lt => Interval::new(i64::MIN, c.saturating_sub(1)),
            BinOp::Le => Interval::new(i64::MIN, c),
            BinOp::Gt => Interval::new(c.saturating_add(1), i64::MAX),
            BinOp::Ge => Interval::new(c, i64::MAX),
            BinOp::Eq => Interval::exact(c),
            _ => return,
        };
        env.insert(id, cur.meet(bound));
    };
    let flip = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    match (op, l.as_ref(), r.as_ref()) {
        (BinOp::And, _, _) => {
            refine(env, l, decls);
            refine(env, r, decls);
        }
        (_, Expr::Var(id), Expr::Const(c)) => narrow(env, *id, *op, *c),
        (_, Expr::Const(c), Expr::Var(id)) => narrow(env, *id, flip(*op), *c),
        _ => {}
    }
}

/// One guarded command of the global range fixpoint: `guard → update`,
/// with the intervals of the command's `select` bindings.
#[derive(Clone, Debug)]
pub struct Command {
    /// Data guard evaluated before the update runs.
    pub guard: Expr,
    /// The update statement.
    pub update: Stmt,
    /// Inclusive ranges of the command's `select` bindings.
    pub selects: Vec<(i64, i64)>,
}

/// A flow-insensitive global range analysis: one interval per variable
/// over-approximating every value the variable takes in any reachable
/// state, computed as the widening fixpoint of all guarded commands
/// from the initial store.
///
/// The result makes *semantic* facts available to clients: a guard
/// whose [`truth`] under these ranges is [`Truth::False`] can never
/// fire, and a variable whose interval is strictly inside its declared
/// range is over-declared.
#[derive(Clone, Debug)]
pub struct RangeAnalysis {
    /// The fixpoint interval of each variable, indexed like `Decls`.
    pub ranges: Vec<Interval>,
}

impl RangeAnalysis {
    /// Runs the fixpoint over `commands` starting from the initial
    /// store of `decls`.
    #[must_use]
    pub fn run(decls: &Decls, commands: &[Command]) -> RangeAnalysis {
        let init = decls.initial_store();
        let n = decls.len();
        let mut ranges: Vec<Interval> = (0..n)
            .map(|i| {
                let info = decls.info(decls.id_at(i));
                let mut iv = Interval::bottom();
                for k in 0..info.len {
                    iv = iv.join(Interval::exact(init.as_slice()[info.offset() + k]));
                }
                iv
            })
            .collect();
        // Chaotic iteration to an actual fixpoint: plain joins for the
        // first rounds (precision), then widening, which jumps every
        // still-growing bound to ±∞ — so at most two more changes per
        // variable and the loop terminates without a round cap. A cap
        // that could exit while `changed` is still true would return an
        // UNDER-approximation, and every client (slicing's dead-edge
        // rule, MOD003, mcpta domain narrowing) needs an
        // over-approximation to be sound.
        let mut round = 0;
        loop {
            let mut changed = false;
            for cmd in commands {
                let mut env: Env = (0..n).map(|i| (decls.id_at(i), ranges[i])).collect();
                refine(&mut env, &cmd.guard, decls);
                let selects: Vec<Interval> = cmd
                    .selects
                    .iter()
                    .map(|&(lo, hi)| Interval::new(lo, hi))
                    .collect();
                if truth(&cmd.guard, decls, &env, &selects) == Truth::False {
                    continue;
                }
                let mut out: Vec<(VarId, Interval)> = Vec::new();
                transfer(&cmd.update, decls, &mut env, &selects, &mut out);
                for (id, iv) in out {
                    let cur = ranges[id.index()];
                    let next = if round < 16 {
                        cur.join(iv)
                    } else {
                        cur.widen(cur.join(iv))
                    };
                    if next != cur {
                        ranges[id.index()] = next;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            round += 1;
        }
        RangeAnalysis { ranges }
    }

    /// The fixpoint interval of `id`.
    #[must_use]
    pub fn range(&self, id: VarId) -> Interval {
        self.ranges[id.index()]
    }

    /// The environment view of the fixpoint, for [`truth`]/[`eval`].
    #[must_use]
    pub fn env(&self, decls: &Decls) -> Env {
        self.ranges
            .iter()
            .enumerate()
            .map(|(i, &iv)| (decls.id_at(i), iv))
            .collect()
    }

    /// How many variables have a fixpoint interval strictly tighter
    /// than their declared `[lo, hi]` range (the `vars_narrowed`
    /// metric).
    #[must_use]
    pub fn narrowed(&self, decls: &Decls) -> usize {
        (0..decls.len())
            .filter(|&i| {
                let info = decls.info(decls.id_at(i));
                let iv = self.ranges[i];
                !iv.is_empty() && (iv.lo > info.lo || iv.hi < info.hi)
            })
            .count()
    }
}

/// Abstract transfer of a statement: appends `(target, interval)` facts
/// for every assignment that may execute, refining `env` along the way
/// (flow-sensitive within the statement, conservative across branches).
pub fn transfer(
    s: &Stmt,
    decls: &Decls,
    env: &mut Env,
    selects: &[Interval],
    out: &mut Vec<(VarId, Interval)>,
) {
    match s {
        Stmt::Skip => {}
        Stmt::Assign(id, e) | Stmt::AssignIndex(id, _, e) => {
            let mut iv = eval(e, decls, env, selects);
            // Writing one element of an array, by index or as element 0
            // through the array's name, is a weak update: the other
            // elements keep their old interval.
            if matches!(s, Stmt::AssignIndex(..)) || decls.info(*id).is_array {
                iv = iv.join(var_interval(decls, env, *id));
            }
            env.insert(*id, iv);
            out.push((*id, iv));
        }
        Stmt::Seq(parts) => {
            for p in parts {
                transfer(p, decls, env, selects, out);
            }
        }
        Stmt::If(cond, then, otherwise) => {
            let mut t_env = env.clone();
            refine(&mut t_env, cond, decls);
            let mut f_env = env.clone();
            let t = truth(cond, decls, env, selects);
            if t != Truth::False {
                transfer(then, decls, &mut t_env, selects, out);
            }
            if t != Truth::True {
                transfer(otherwise, decls, &mut f_env, selects, out);
            }
            // Join the branch environments.
            for (id, iv) in t_env {
                let merged = if t == Truth::True {
                    iv
                } else {
                    iv.join(f_env.get(&id).copied().unwrap_or_else(|| {
                        let info = decls.info(id);
                        Interval::new(info.lo, info.hi)
                    }))
                };
                env.insert(id, merged);
            }
        }
        Stmt::While(cond, body) => {
            // Conservative loop summary: run the body abstractly until
            // its written set stabilizes — joins first, then widening,
            // which bounds the iteration count without a round cap (a
            // cap could exit before the fixpoint and under-approximate).
            let mut round = 0;
            loop {
                let mut body_env = env.clone();
                refine(&mut body_env, cond, decls);
                let mut body_out = Vec::new();
                transfer(body, decls, &mut body_env, selects, &mut body_out);
                let mut changed = false;
                for (id, iv) in body_out {
                    let cur = var_interval(decls, env, id);
                    let next = if round < 4 {
                        cur.join(iv)
                    } else {
                        cur.widen(cur.join(iv))
                    };
                    if next != cur {
                        env.insert(id, next);
                        out.push((id, next));
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
                round += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_arithmetic_never_wraps() {
        let d = Decls::new();
        let env = Env::new();
        // 5 - i64::MIN overflows upward; the interval must saturate at
        // i64::MAX, not wrap to a negative bound.
        let e = Expr::konst(5) - Expr::konst(i64::MIN);
        let iv = eval(&e, &d, &env, &[]);
        assert_eq!((iv.lo, iv.hi), (i64::MAX, i64::MAX));
    }

    #[test]
    fn guard_truth_decides_empty_guards() {
        let mut d = Decls::new();
        let x = d.int("x", 0, 5);
        let env = Env::new();
        let g = Expr::var(x).gt(Expr::konst(100));
        assert_eq!(truth(&g, &d, &env, &[]), Truth::False);
        let g = Expr::var(x).ge(Expr::konst(0));
        assert_eq!(truth(&g, &d, &env, &[]), Truth::True);
        let g = Expr::var(x).gt(Expr::konst(3));
        assert_eq!(truth(&g, &d, &env, &[]), Truth::Unknown);
    }

    #[test]
    fn range_fixpoint_narrows_a_bounded_counter() {
        let mut d = Decls::new();
        // Declared far wider than the guarded increment ever reaches.
        let x = d.int("x", 0, 1000);
        let cmds = [Command {
            guard: Expr::var(x).lt(Expr::konst(3)),
            update: Stmt::assign(x, Expr::var(x) + Expr::konst(1)),
            selects: vec![],
        }];
        let ra = RangeAnalysis::run(&d, &cmds);
        assert_eq!((ra.range(x).lo, ra.range(x).hi), (0, 3));
        assert_eq!(ra.narrowed(&d), 1);
    }

    #[test]
    fn unguarded_growth_widens_to_top_instead_of_looping() {
        let mut d = Decls::new();
        let x = d.int("x", 0, 10);
        let cmds = [Command {
            guard: Expr::truth(),
            update: Stmt::assign(x, Expr::var(x) + Expr::konst(1)),
            selects: vec![],
        }];
        let ra = RangeAnalysis::run(&d, &cmds);
        assert_eq!(ra.range(x).hi, i64::MAX);
        assert_eq!(ra.narrowed(&d), 0);
    }

    #[test]
    fn range_fixpoint_is_not_round_capped() {
        // A dependency chain whose commands are listed tail-first makes
        // exactly one new variable change per round: `x_k` can only
        // become 1 the round after `x_{k-1}` did, so 100 links need
        // ~100 rounds. A round-capped iteration (the old 64-round exit)
        // would stop while still changing and leave the tail variables
        // at their initial [0, 0] — an UNDER-approximation that turns
        // the concretely reachable guard `x_99 == 1` provably false.
        let mut d = Decls::new();
        let vars: Vec<VarId> = (0..100).map(|i| d.int(&format!("x{i}"), 0, 1)).collect();
        let mut cmds: Vec<Command> = (1..vars.len())
            .rev()
            .map(|k| Command {
                guard: Expr::var(vars[k - 1]).eq(Expr::konst(1)),
                update: Stmt::assign(vars[k], Expr::konst(1)),
                selects: vec![],
            })
            .collect();
        cmds.push(Command {
            guard: Expr::truth(),
            update: Stmt::assign(vars[0], Expr::konst(1)),
            selects: vec![],
        });
        let ra = RangeAnalysis::run(&d, &cmds);
        let last = *vars.last().unwrap();
        assert!(
            ra.range(last).lo <= 1 && 1 <= ra.range(last).hi,
            "reachable value 1 missing from {:?}",
            ra.range(last)
        );
        let g = Expr::var(last).eq(Expr::konst(1));
        assert_ne!(truth(&g, &d, &ra.env(&d), &[]), Truth::False);
    }

    fn eval0(e: &Expr, d: &Decls) -> Interval {
        eval(e, d, &Env::new(), &[])
    }

    #[test]
    fn add_and_mul_track_declared_ranges() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 10);
        let e = Expr::var(a) * Expr::konst(3) + Expr::konst(1);
        assert_eq!(eval0(&e, &d), Interval::new(1, 31));
        let huge = d.int("huge", 0, 4_000_000_000);
        let e = Expr::var(huge) * Expr::var(huge);
        assert_eq!(eval0(&e, &d), Interval::new(0, i64::MAX));
    }

    #[test]
    fn subtraction_overflow_saturates_in_the_right_direction() {
        let mut d = Decls::new();
        let big = d.int("big", i64::MIN, -4_000_000_000);
        // 5 - big overflows *upward* at big = i64::MIN: the result range
        // must be [4e9 + 5, i64::MAX], not include spurious negatives.
        let e = Expr::konst(5) - Expr::var(big);
        assert_eq!(eval0(&e, &d), Interval::new(4_000_000_005, i64::MAX));
    }

    #[test]
    fn division_takes_quotients_at_endpoints_and_unit_divisors() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 5);
        let x = d.int("x", -7, 9);
        let y = d.int("y", -2, 3);
        let z = d.int("z", 0, 0);
        let div = |l: Expr, r: Expr| l.bin(BinOp::Div, r);
        // The zero divisor traps, so 10 / a is one of 10, 5, 3, 2.
        assert_eq!(
            eval0(&div(Expr::konst(10), Expr::var(a)), &d),
            Interval::new(2, 10)
        );
        assert_eq!(
            eval0(&div(Expr::konst(10), Expr::konst(2)), &d),
            Interval::exact(5)
        );
        // -7 / -1 and 9 / -1 are the extremes, at neither endpoint of y.
        assert_eq!(
            eval0(&div(Expr::var(x), Expr::var(y)), &d),
            Interval::new(-9, 9)
        );
        assert!(eval0(&div(Expr::konst(7), Expr::var(z)), &d).is_empty());
        let min_by_minus_one = div(Expr::konst(i64::MIN), Expr::konst(-1));
        assert_eq!(eval0(&min_by_minus_one, &d), Interval::exact(i64::MAX));
    }

    #[test]
    fn remainder_is_below_divisor_and_dividend_with_the_dividends_sign() {
        let mut d = Decls::new();
        let small = d.int("small", 5, 7);
        let wide = d.int("wide", -100, 100);
        let neg = d.int("neg", -7, -5);
        let divisor = d.int("divisor", -4, 3);
        let near_min = d.int("near_min", i64::MIN, i64::MIN + 2);
        let z = d.int("z", 0, 0);
        let rem = |l: VarId, r: Expr| Expr::var(l).bin(BinOp::Rem, r);
        assert_eq!(eval0(&rem(small, Expr::konst(20)), &d), Interval::new(0, 7));
        assert_eq!(
            eval0(&rem(wide, Expr::var(divisor)), &d),
            Interval::new(-3, 3)
        );
        assert_eq!(eval0(&rem(neg, Expr::konst(3)), &d), Interval::new(-2, 0));
        assert!(eval0(&rem(wide, Expr::var(z)), &d).is_empty());
        // i64::MAX % i64::MIN is i64::MAX: |i64::MIN| - 1 needs i128.
        let e = Expr::konst(i64::MAX).bin(BinOp::Rem, Expr::var(near_min));
        assert_eq!(eval0(&e, &d), Interval::new(0, i64::MAX));
    }

    #[test]
    fn guard_refinement_narrows() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 100);
        let mut env = Env::new();
        refine(
            &mut env,
            &(Expr::var(a).lt(Expr::konst(10)) & Expr::var(a).ge(Expr::konst(2))),
            &d,
        );
        assert_eq!(env[&a], Interval::new(2, 9));
        let e = Expr::var(a) + Expr::konst(1);
        assert_eq!(eval(&e, &d, &env, &[]), Interval::new(3, 10));
    }

    #[test]
    fn refinement_leaves_arrays_alone() {
        let mut d = Decls::new();
        let arr = d.array("arr", 3, 0, 10);
        // `arr < 3` constrains element 0 only; arr[1] can still be 10.
        let mut env = Env::new();
        refine(&mut env, &Expr::var(arr).lt(Expr::konst(3)), &d);
        let e = Expr::index(arr, Expr::konst(1));
        assert_eq!(eval(&e, &d, &env, &[]), Interval::new(0, 10));
    }

    #[test]
    fn whole_array_assignment_is_a_weak_update() {
        let mut d = Decls::new();
        let a = d.array("a", 2, 0, 9);
        let mut env = Env::new();
        env.insert(a, Interval::new(0, 0));
        let mut out = Vec::new();
        // `a := 7` writes element 0 only; element 1 stays 0.
        transfer(
            &Stmt::assign(a, Expr::konst(7)),
            &d,
            &mut env,
            &[],
            &mut out,
        );
        assert_eq!(env[&a], Interval::new(0, 7));
        assert_eq!(out, vec![(a, Interval::new(0, 7))]);
    }

    #[test]
    fn refinement_meets_with_declared_ranges() {
        let mut d = Decls::new();
        let x = d.int("x", 0, 100);
        let mut env = Env::new();
        refine(
            &mut env,
            &(Expr::var(x).lt(Expr::konst(10)) & Expr::var(x).ge(Expr::konst(2))),
            &d,
        );
        assert_eq!(env[&x], Interval::new(2, 9));
    }
}
