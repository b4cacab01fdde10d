//! Lint rules over MODEST models (`MOD001`–`MOD003`).

use crate::LintReport;
use std::collections::HashMap;
use tempo_expr::{BinOp, Decls, Expr, UnOp};
use tempo_flow::{Env, Interval, Truth};
use tempo_modest::{Assignment, ModestModel, Process};
use tempo_obs::Diagnostic;

/// Runs every MODEST rule over the model and collects the findings.
#[must_use]
pub fn check_modest(model: &ModestModel) -> LintReport {
    let mut diagnostics = Vec::new();
    identifiers(model, &mut diagnostics);
    undefined_calls(model, &mut diagnostics);
    overflow_prone(model, &mut diagnostics);
    LintReport { diagnostics }
}

/// MOD001 (warning half): the model's namespaces — variables, clocks,
/// actions, processes — share one identifier space in the concrete
/// syntax, so a name declared twice shadows its earlier declaration.
fn identifiers(model: &ModestModel, out: &mut Vec<Diagnostic>) {
    let mut entries: Vec<(&str, &'static str)> = Vec::new();
    for v in model.decls().vars() {
        entries.push((v.name.as_str(), "variable"));
    }
    for c in model.clock_names() {
        entries.push((c.as_str(), "clock"));
    }
    for a in model.actions() {
        entries.push((a.as_str(), "action"));
    }
    for (name, _) in model.processes() {
        entries.push((name.as_str(), "process"));
    }
    let mut seen: HashMap<&str, &'static str> = HashMap::new();
    for (name, kind) in entries {
        match seen.get(name) {
            Some(&prev) if prev == kind => out.push(Diagnostic::warning(
                "MOD001",
                Some(name),
                format!("duplicate {kind} declaration; the later one shadows the earlier"),
            )),
            Some(&prev) => out.push(Diagnostic::warning(
                "MOD001",
                Some(name),
                format!(
                    "identifier is declared as both {prev} and {kind}; \
                     the later declaration shadows the earlier one"
                ),
            )),
            None => {
                seen.insert(name, kind);
            }
        }
    }
}

/// MOD001 (error half): a tail call of a process that is never defined
/// crashes compilation; so does a `system` line naming one.
fn undefined_calls(model: &ModestModel, out: &mut Vec<Diagnostic>) {
    for (name, body) in model.processes() {
        walk_calls(body, &mut |callee| {
            if model.process(callee).is_none() {
                out.push(Diagnostic::error(
                    "MOD001",
                    Some(name),
                    format!("calls undefined process `{callee}`"),
                ));
            }
        });
    }
    for name in model.system_processes() {
        if model.process(name).is_none() {
            out.push(Diagnostic::error(
                "MOD001",
                Some(name),
                "system composition names an undefined process",
            ));
        }
    }
}

fn walk_calls(p: &Process, visit: &mut impl FnMut(&str)) {
    match p {
        Process::Stop | Process::Skip => {}
        Process::Act(_, _, then) => walk_calls(then, visit),
        Process::Palt(_, branches) => {
            for b in branches {
                walk_calls(&b.then, visit);
            }
        }
        Process::Alt(choices) => {
            for c in choices {
                walk_calls(c, visit);
            }
        }
        Process::When(_, p) | Process::WhenClock(_, p) | Process::Invariant(_, p) => {
            walk_calls(p, visit)
        }
        Process::Call(name) => visit(name),
    }
}

/// MOD002: `tempo_flow`'s interval domain over the declared
/// `int [lo, hi]` ranges, refined by enclosing `when` guards. Flags
/// expressions that can overflow 64-bit arithmetic or divide by zero
/// (warnings) and assignments or indices that are *always* outside their
/// declared range (errors — "may exceed" alone is deliberately not
/// reported: bounded protocols routinely guard increments by means
/// invisible to a static range analysis).
fn overflow_prone(model: &ModestModel, out: &mut Vec<Diagnostic>) {
    for (name, body) in model.processes() {
        walk_ranges(body, model.decls(), &Env::new(), name, out);
    }
}

fn walk_ranges(p: &Process, decls: &Decls, env: &Env, proc_name: &str, out: &mut Vec<Diagnostic>) {
    match p {
        Process::Stop | Process::Skip | Process::Call(_) => {}
        Process::Act(_, assignments, then) => {
            let next = check_assignments(assignments, decls, env, proc_name, out);
            walk_ranges(then, decls, &next, proc_name, out);
        }
        Process::Palt(_, branches) => {
            for b in branches {
                let next = check_assignments(&b.assignments, decls, env, proc_name, out);
                walk_ranges(&b.then, decls, &next, proc_name, out);
            }
        }
        Process::Alt(choices) => {
            for c in choices {
                walk_ranges(c, decls, env, proc_name, out);
            }
        }
        Process::When(guard, p) => {
            check_expr(guard, decls, env, proc_name, "guard", out);
            // MOD003: `Truth::False` is a *proof* that no valuation in
            // the declared ranges (refined by the enclosing guards)
            // satisfies the guard — the branch is semantically dead.
            // Don't descend: findings under an unreachable guard would
            // be noise. A warning, not an error: provably-false guards
            // are routine in parameter instantiations (`i < N-1` with
            // N = 1) and the slicing pass exploits them as dead edges,
            // so they must not block admission by default (matching
            // TA008 dead-variable).
            if tempo_flow::truth(guard, decls, env, &[]) == Truth::False {
                out.push(Diagnostic::warning(
                    "MOD003",
                    Some(proc_name),
                    "`when` guard is provably false under the declared \
                     variable ranges; the branch is unreachable",
                ));
                return;
            }
            let mut refined = env.clone();
            tempo_flow::refine(&mut refined, guard, decls);
            walk_ranges(p, decls, &refined, proc_name, out);
        }
        Process::WhenClock(_, p) | Process::Invariant(_, p) => {
            walk_ranges(p, decls, env, proc_name, out);
        }
    }
}

/// Checks one assignment block and returns the environment for the
/// continuation: assigned variables lose their guard refinement (their
/// new value is no longer constrained by the enclosing `when`).
fn check_assignments(
    assignments: &[Assignment],
    decls: &Decls,
    env: &Env,
    proc_name: &str,
    out: &mut Vec<Diagnostic>,
) -> Env {
    let mut next = env.clone();
    for a in assignments {
        match a {
            Assignment::Clock(_, _) => {}
            Assignment::Var(id, e) => {
                check_expr(e, decls, &next, proc_name, "assignment", out);
                let iv = tempo_flow::eval(e, decls, &next, &[]);
                let info = decls.info(*id);
                if always_outside(iv, info.lo, info.hi) {
                    out.push(Diagnostic::error(
                        "MOD002",
                        Some(proc_name),
                        format!(
                            "assignment to `{}` is always outside its declared range \
                             [{}, {}] (value in [{}, {}])",
                            info.name, info.lo, info.hi, iv.lo, iv.hi
                        ),
                    ));
                }
                next.remove(id);
            }
            Assignment::ArrayElem(id, index, e) => {
                check_expr(index, decls, &next, proc_name, "array index", out);
                check_expr(e, decls, &next, proc_name, "assignment", out);
                let ix = tempo_flow::eval(index, decls, &next, &[]);
                let info = decls.info(*id);
                let len = info.len as i64;
                if always_outside(ix, 0, len - 1) {
                    out.push(Diagnostic::error(
                        "MOD002",
                        Some(proc_name),
                        format!(
                            "index into `{}` is always out of bounds \
                             (index in [{}, {}], length {len})",
                            info.name, ix.lo, ix.hi
                        ),
                    ));
                }
                let iv = tempo_flow::eval(e, decls, &next, &[]);
                if always_outside(iv, info.lo, info.hi) {
                    out.push(Diagnostic::error(
                        "MOD002",
                        Some(proc_name),
                        format!(
                            "assignment to `{}[..]` is always outside its declared \
                             range [{}, {}] (value in [{}, {}])",
                            info.name, info.lo, info.hi, iv.lo, iv.hi
                        ),
                    ));
                }
                next.remove(id);
            }
        }
    }
    next
}

/// Whether every value of `iv` lies outside `[lo, hi]`. An empty
/// interval has no value: the expression always traps, which its
/// zero-divisor warning already reports.
fn always_outside(iv: Interval, lo: i64, hi: i64) -> bool {
    !iv.is_empty() && (iv.hi < lo || iv.lo > hi)
}

fn check_expr(
    e: &Expr,
    decls: &Decls,
    env: &Env,
    proc_name: &str,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut h = Hazards::default();
    hazards(e, decls, env, &mut h);
    if h.overflow {
        out.push(Diagnostic::warning(
            "MOD002",
            Some(proc_name),
            format!("{what} expression may overflow 64-bit integer arithmetic"),
        ));
    }
    if h.div_by_zero {
        out.push(Diagnostic::warning(
            "MOD002",
            Some(proc_name),
            format!("{what} expression may divide by zero"),
        ));
    }
}

/// The runtime errors of [`Expr::eval`] that MOD002 warns about.
#[derive(Default)]
struct Hazards {
    overflow: bool,
    div_by_zero: bool,
}

/// Walks every operator of `e` and reads its operand intervals from
/// `tempo_flow::eval`. `+ - *` can overflow iff some corner of the
/// operand intervals leaves `i64`, unary `-` iff its operand can be
/// `i64::MIN`, and `/` and `%` iff the dividend can be `i64::MIN` and
/// the divisor `-1`; `/` and `%` can divide by zero iff the divisor
/// interval contains 0. An operator with an empty operand never runs,
/// so it adds no hazard.
fn hazards(e: &Expr, decls: &Decls, env: &Env, h: &mut Hazards) {
    let iv = |e: &Expr| tempo_flow::eval(e, decls, env, &[]);
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Select(_) => {}
        Expr::Index(_, index) => hazards(index, decls, env, h),
        Expr::Unary(op, inner) => {
            hazards(inner, decls, env, h);
            let a = iv(inner);
            h.overflow |= *op == UnOp::Neg && !a.is_empty() && a.lo == i64::MIN;
        }
        Expr::Binary(op, l, r) => {
            hazards(l, decls, env, h);
            hazards(r, decls, env, h);
            let (a, b) = (iv(l), iv(r));
            if a.is_empty() || b.is_empty() {
                return;
            }
            let corner_fails = |f: fn(i64, i64) -> Option<i64>| {
                [a.lo, a.hi]
                    .into_iter()
                    .any(|x| [b.lo, b.hi].into_iter().any(|y| f(x, y).is_none()))
            };
            match op {
                BinOp::Add => h.overflow |= corner_fails(i64::checked_add),
                BinOp::Sub => h.overflow |= corner_fails(i64::checked_sub),
                BinOp::Mul => h.overflow |= corner_fails(i64::checked_mul),
                BinOp::Div | BinOp::Rem => {
                    h.overflow |= a.lo == i64::MIN && b.lo <= -1 && -1 <= b.hi;
                    h.div_by_zero |= b.lo <= 0 && 0 <= b.hi;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempo_expr::VarId;
    use tempo_obs::Severity;

    fn codes(report: &LintReport) -> Vec<(&str, Severity)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.code.as_str(), d.severity))
            .collect()
    }

    fn walk(e: &Expr, decls: &Decls) -> Hazards {
        let mut h = Hazards::default();
        hazards(e, decls, &Env::new(), &mut h);
        h
    }

    /// One process `P` doing a single action with `assignment`; `vars`
    /// are declared first, in order.
    fn one_assignment(
        vars: &[(&str, i64, i64)],
        assignment: impl FnOnce(&[VarId]) -> Assignment,
    ) -> LintReport {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let ids: Vec<VarId> = vars
            .iter()
            .map(|&(name, lo, hi)| m.decls_mut().int(name, lo, hi))
            .collect();
        m.define(
            "P",
            Process::act_with(a, vec![assignment(&ids)], Process::stop()),
        );
        m.system(&["P"]);
        check_modest(&m)
    }

    fn messages(report: &LintReport) -> Vec<&str> {
        report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect()
    }

    #[test]
    fn add_and_mul_within_declared_ranges_have_no_hazard() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 10);
        let h = walk(&(Expr::var(a) * Expr::konst(3) + Expr::konst(1)), &d);
        assert!(!h.overflow && !h.div_by_zero);
    }

    #[test]
    fn multiplication_of_huge_ranges_flags_overflow() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 4_000_000_000);
        assert!(walk(&(Expr::var(a) * Expr::var(a)), &d).overflow);
    }

    #[test]
    fn subtraction_leaving_i64_upward_flags_overflow() {
        let mut d = Decls::new();
        let big = d.int("big", i64::MIN, -4_000_000_000);
        assert!(walk(&(Expr::konst(5) - Expr::var(big)), &d).overflow);
    }

    #[test]
    fn division_by_possibly_zero_is_flagged() {
        let mut d = Decls::new();
        let a = d.int("a", 0, 5);
        assert!(walk(&Expr::konst(10).bin(BinOp::Div, Expr::var(a)), &d).div_by_zero);
        let h = walk(&Expr::konst(10).bin(BinOp::Div, Expr::konst(2)), &d);
        assert!(!h.div_by_zero && !h.overflow);
    }

    #[test]
    fn min_remainder_minus_one_warns_about_overflow() {
        // `Expr::eval` reports `Overflow` for i64::MIN % -1.
        let report = one_assignment(
            &[
                ("v", i64::MIN, i64::MIN),
                ("w", -1, -1),
                ("y", i64::MIN, i64::MAX),
            ],
            |ids| Assignment::Var(ids[2], Expr::var(ids[0]).bin(BinOp::Rem, Expr::var(ids[1]))),
        );
        assert_eq!(
            messages(&report),
            vec!["assignment expression may overflow 64-bit integer arithmetic"]
        );
    }

    #[test]
    fn remainder_by_a_range_holding_min_keeps_the_dividend() {
        // i64::MAX % i64::MIN is i64::MAX: the value fits `out`.
        let report = one_assignment(
            &[("v", i64::MIN, i64::MIN + 2), ("out", i64::MAX, i64::MAX)],
            |ids| {
                Assignment::Var(
                    ids[1],
                    Expr::konst(i64::MAX).bin(BinOp::Rem, Expr::var(ids[0])),
                )
            },
        );
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn always_trapping_division_warns_without_a_range_error() {
        let report = one_assignment(&[("z", 0, 0), ("x", 2, 5)], |ids| {
            Assignment::Var(ids[1], Expr::konst(7).bin(BinOp::Div, Expr::var(ids[0])))
        });
        assert_eq!(
            messages(&report),
            vec!["assignment expression may divide by zero"]
        );
    }

    #[test]
    fn decided_comparisons_are_values_not_booleans() {
        // The divisor `x > 5` is 1 for every x in [6, 10], and
        // `!(x == 0)` is 1: neither can divide by zero.
        let divisors: [fn(VarId) -> Expr; 2] = [
            |x| Expr::var(x).gt(Expr::konst(5)),
            |x| !Expr::var(x).eq(Expr::konst(0)),
        ];
        for divisor in divisors {
            let report = one_assignment(&[("x", 6, 10), ("y", 0, 10)], |ids| {
                Assignment::Var(ids[1], Expr::konst(10).bin(BinOp::Div, divisor(ids[0])))
            });
            assert!(report.is_clean(), "{:?}", report.diagnostics);
        }
        // `x > 5` is 0 for every x in [0, 3]: disjoint from [1, 1].
        let report = one_assignment(&[("x", 0, 3), ("y", 1, 1)], |ids| {
            Assignment::Var(ids[1], Expr::var(ids[0]).gt(Expr::konst(5)))
        });
        assert_eq!(codes(&report), vec![("MOD002", Severity::Error)]);
    }

    #[test]
    fn shadowed_identifier_is_warned() {
        let mut m = ModestModel::new();
        let _c = m.clock("t");
        let a = m.action("t"); // shadows the clock
        m.define("P", Process::act(a, Process::stop()));
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD001", Severity::Warning)]);
    }

    #[test]
    fn undefined_call_is_an_error() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        m.define("P", Process::act(a, Process::call("Ghost")));
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD001", Severity::Error)]);
    }

    #[test]
    fn guarded_increment_is_clean_unguarded_constant_is_not() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let x = m.decls_mut().int("x", 0, 5);
        // when (x < 5) a {= x = x + 1 =} — in range thanks to the guard.
        m.define(
            "P",
            Process::when(
                Expr::var(x).lt(Expr::konst(5)),
                Process::act_with(
                    a,
                    vec![Assignment::Var(x, Expr::var(x) + Expr::konst(1))],
                    Process::call("P"),
                ),
            ),
        );
        m.system(&["P"]);
        assert!(check_modest(&m).is_clean());

        // x = 99 is always out of [0, 5].
        let mut m = ModestModel::new();
        let a = m.action("a");
        let x = m.decls_mut().int("x", 0, 5);
        m.define(
            "P",
            Process::act_with(
                a,
                vec![Assignment::Var(x, Expr::konst(99))],
                Process::stop(),
            ),
        );
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD002", Severity::Error)]);
    }

    #[test]
    fn provably_false_guard_is_an_unreachable_branch_warning() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let x = m.decls_mut().int("x", 0, 5);
        // x > 100 can never hold for x in [0, 5].
        m.define(
            "P",
            Process::when(
                Expr::var(x).gt(Expr::konst(100)),
                Process::act(a, Process::stop()),
            ),
        );
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD003", Severity::Warning)]);
    }

    #[test]
    fn guard_refinement_feeds_nested_unreachability() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let x = m.decls_mut().int("x", 0, 100);
        // Outer guard x < 3 narrows x to [0, 2]; the nested x > 50 is
        // then provably false even though it is satisfiable on its own.
        m.define(
            "P",
            Process::when(
                Expr::var(x).lt(Expr::konst(3)),
                Process::when(
                    Expr::var(x).gt(Expr::konst(50)),
                    Process::act(a, Process::stop()),
                ),
            ),
        );
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD003", Severity::Warning)]);

        // The satisfiable nested guard alone is clean.
        let mut m = ModestModel::new();
        let a = m.action("a");
        let x = m.decls_mut().int("x", 0, 100);
        m.define(
            "P",
            Process::when(
                Expr::var(x).gt(Expr::konst(50)),
                Process::act(a, Process::stop()),
            ),
        );
        m.system(&["P"]);
        assert!(check_modest(&m).is_clean());
    }

    #[test]
    fn large_constant_subtraction_reports_a_range_error() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let big = m.decls_mut().int("big", i64::MIN, -4_000_000_000);
        let out = m.decls_mut().int("out", 0, 100);
        // 5 - big is at least 4e9 + 5, far above out's range; before the
        // exact-i128 interval fix the wrong-direction saturation made
        // the value interval straddle the range and the error vanished.
        m.define(
            "P",
            Process::act_with(
                a,
                vec![Assignment::Var(out, Expr::konst(5) - Expr::var(big))],
                Process::stop(),
            ),
        );
        m.system(&["P"]);
        let report = check_modest(&m);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "MOD002" && d.severity == Severity::Error));
    }

    #[test]
    fn overflow_prone_product_is_warned() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let big = m.decls_mut().int("big", 0, 4_000_000_000);
        let out = m.decls_mut().int("out", 0, i64::MAX);
        m.define(
            "P",
            Process::act_with(
                a,
                vec![Assignment::Var(out, Expr::var(big) * Expr::var(big))],
                Process::stop(),
            ),
        );
        m.system(&["P"]);
        let report = check_modest(&m);
        assert_eq!(codes(&report), vec![("MOD002", Severity::Warning)]);
    }

    /// Values that sit on or next to the edges where `i64` arithmetic
    /// traps, plus a few small ones.
    const EDGES: [i64; 9] = [
        i64::MIN,
        i64::MIN + 1,
        -2,
        -1,
        0,
        1,
        2,
        i64::MAX - 1,
        i64::MAX,
    ];

    /// Three scalars and one three-element array, declared in this order
    /// with the given ranges.
    fn soundness_decls(ranges: &[(i64, i64); 4]) -> (Decls, [VarId; 4]) {
        let mut d = Decls::new();
        let ids = [
            d.int("a", ranges[0].0, ranges[0].1),
            d.int("b", ranges[1].0, ranges[1].1),
            d.int("c", ranges[2].0, ranges[2].1),
            d.array("arr", 3, ranges[3].0, ranges[3].1),
        ];
        (d, ids)
    }

    fn arb_range() -> impl Strategy<Value = (i64, i64)> {
        (0..EDGES.len(), 0..EDGES.len()).prop_map(|(i, j)| {
            let (x, y) = (EDGES[i], EDGES[j]);
            (x.min(y), x.max(y))
        })
    }

    const BINOPS: [BinOp; 15] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
    ];

    /// Expressions over the constants in [`EDGES`], the three scalars
    /// and elements of the array, using every operator.
    fn arb_expr(ids: [VarId; 4]) -> impl Strategy<Value = Expr> {
        let constant = (0..EDGES.len()).prop_map(|i| Expr::konst(EDGES[i]));
        let var = (0..3_usize).prop_map(move |k| Expr::var(ids[k]));
        prop_oneof![constant, var].prop_recursive(4, 32, 2, move |inner| {
            prop_oneof![
                (0..BINOPS.len(), inner.clone(), inner.clone())
                    .prop_map(|(i, l, r)| l.bin(BINOPS[i], r)),
                (0..2_usize, inner.clone()).prop_map(|(k, e)| if k == 0 { -e } else { !e }),
                inner.prop_map(move |e| Expr::index(ids[3], e)),
            ]
        })
    }

    fn reference_ids() -> [VarId; 4] {
        soundness_decls(&[(0, 0); 4]).1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The one interval domain is sound against the concrete
        /// evaluator: every value `Expr::eval` returns lies in
        /// `tempo_flow::eval`, and every overflow or zero divisor it
        /// reports is a MOD002 hazard.
        #[test]
        fn flow_eval_and_hazards_cover_expr_eval(
            ranges in (arb_range(), arb_range(), arb_range(), arb_range()),
            e in arb_expr(reference_ids()),
            picks in prop::collection::vec((0..4_u8, 0..u64::MAX), 36..37),
        ) {
            let ranges = [ranges.0, ranges.1, ranges.2, ranges.3];
            let (d, ids) = soundness_decls(&ranges);
            prop_assert_eq!(ids, reference_ids());
            let iv = tempo_flow::eval(&e, &d, &Env::new(), &[]);
            let h = walk(&e, &d);
            // Six stores. Each sets the three scalars and the three array
            // elements to an endpoint of their range, the value next to
            // the lower one, or a uniform draw.
            for store_picks in picks.chunks(6) {
                let mut store = d.initial_store();
                for (slot, &(kind, r)) in store_picks.iter().enumerate() {
                    let (k, index) = if slot < 3 { (slot, 0) } else { (3, slot as i64 - 3) };
                    let (lo, hi) = ranges[k];
                    let width = (i128::from(hi) - i128::from(lo) + 1) as u128;
                    let v = match kind {
                        0 => lo,
                        1 => hi,
                        2 => if lo < hi { lo + 1 } else { lo },
                        _ => (i128::from(lo) + (u128::from(r) % width) as i128) as i64,
                    };
                    store.set_index(&d, ids[k], index, v).expect("value in range");
                }
                match e.eval(&d, &store, &[]) {
                    Ok(v) => prop_assert!(
                        iv.lo <= v && v <= iv.hi,
                        "{e} = {v} outside {iv:?} under {ranges:?}"
                    ),
                    Err(tempo_expr::EvalError::Overflow) => {
                        prop_assert!(h.overflow, "{e} overflows unflagged under {ranges:?}");
                    }
                    Err(tempo_expr::EvalError::DivisionByZero) => prop_assert!(
                        h.div_by_zero,
                        "{e} divides by zero unflagged under {ranges:?}"
                    ),
                    Err(_) => {}
                }
            }
        }
    }
}
