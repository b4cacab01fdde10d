//! The machine IR: each `system` component elaborated into a flat
//! state-transition graph with resolved clocks, folded parameters and
//! channel events already renamed/hidden/classified.
//!
//! Every substrate lowering (`tempo-ta` network, MODEST model, BIP
//! system, TIOA, LTS) consumes this IR instead of re-walking the AST —
//! the recursion unfolding, parameter substitution and sync-set
//! classification happen exactly once, here.

use crate::ast::*;
use crate::parser::ParseError;
use crate::token::Span;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Hard cap on clock/variable array lengths and on unfolded machine
/// states, so a typo'd parameter cannot blow up elaboration.
pub const MAX_UNFOLD: usize = 4096;

/// A resolved clock constraint: clock names are post-expansion
/// (`y[2]`), bounds are folded integers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rcc {
    /// Left clock name.
    pub clock: String,
    /// Right clock for difference constraints.
    pub minus: Option<String>,
    /// Comparison (never `!=`; `==` is expanded by the lowerings).
    pub op: CmpOp,
    /// The folded bound.
    pub bound: i64,
}

/// A resolved variable declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedVar {
    /// Name.
    pub name: String,
    /// Array length (`None` = scalar).
    pub len: Option<usize>,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// Initial value (scalars only).
    pub init: i64,
}

/// The event of a machine edge, after renaming, hiding and sync-set
/// classification: only synchronized channels survive as events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MEvent {
    /// Internal step (explicit `tau`, a hidden channel, or an
    /// unsynchronized channel).
    Tau,
    /// Send half of a synchronized channel.
    Send(String),
    /// Receive half of a synchronized channel.
    Recv(String),
}

impl MEvent {
    /// The channel name, if this is a channel event.
    #[must_use]
    pub fn channel(&self) -> Option<&str> {
        match self {
            MEvent::Tau => None,
            MEvent::Send(c) | MEvent::Recv(c) => Some(c),
        }
    }
}

/// A variable update on an edge. Expressions are formal-substituted
/// AST expressions (they reference only `var`s and `param`s).
#[derive(Clone, Debug, PartialEq)]
pub struct MUpdate {
    /// Target variable.
    pub var: String,
    /// Array index, if the target is an element.
    pub index: Option<IntExpr>,
    /// Right-hand side.
    pub rhs: IntExpr,
}

/// One machine transition.
#[derive(Clone, Debug, PartialEq)]
pub struct MEdge {
    /// Source state index.
    pub from: usize,
    /// Target state index.
    pub to: usize,
    /// Clock-constraint guard conjuncts.
    pub guard_clocks: Vec<Rcc>,
    /// Data guard conjuncts.
    pub guard_data: Vec<(IntExpr, CmpOp, IntExpr)>,
    /// The event.
    pub event: MEvent,
    /// Clock resets (clock name, value expression).
    pub resets: Vec<(String, IntExpr)>,
    /// Variable updates, applied in order.
    pub updates: Vec<MUpdate>,
}

/// One machine state.
#[derive(Clone, Debug, PartialEq)]
pub struct MState {
    /// Name (referenceable from `Comp.Loc` formula atoms; anonymous
    /// states are named `@k`).
    pub name: String,
    /// Invariant conjuncts.
    pub invariant: Vec<Rcc>,
    /// Whether the state resolves instantaneously (internal choice).
    pub committed: bool,
}

/// One elaborated component: a flat state graph. State 0 is initial.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Instance name (the `as` alias or the process name).
    pub name: String,
    /// States; index 0 is initial.
    pub states: Vec<MState>,
    /// Transitions.
    pub edges: Vec<MEdge>,
}

impl Machine {
    /// Finds a state index by name.
    #[must_use]
    pub fn state_by_name(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s.name == name)
    }

    /// Whether any state or edge mentions a clock.
    #[must_use]
    pub fn is_timed(&self) -> bool {
        self.states.iter().any(|s| !s.invariant.is_empty())
            || self
                .edges
                .iter()
                .any(|e| !e.guard_clocks.is_empty() || !e.resets.is_empty())
    }
}

/// The full elaborated model: machines plus the resolved global
/// declaration tables.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSet {
    /// Folded `param` values.
    pub params: BTreeMap<String, i64>,
    /// Expanded clock names (`y[N]` becomes `y[0]`..`y[N-1]`).
    pub clocks: Vec<String>,
    /// Declared channels with their kinds.
    pub channels: Vec<(String, ChannelKind)>,
    /// Channels synchronized by the `system` line (union of all sync
    /// sets); events on any other channel are internal.
    pub synced: BTreeSet<String>,
    /// Resolved variables.
    pub vars: Vec<ResolvedVar>,
    /// One machine per component, in `system` order.
    pub machines: Vec<Machine>,
}

impl MachineSet {
    /// Finds a machine by instance name.
    #[must_use]
    pub fn machine(&self, name: &str) -> Option<&Machine> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Folds a constant expression over the model's `param` table — the
    /// evaluator behind assert-level constants such as the time bound
    /// of a `Pr[<= b]` query.
    ///
    /// # Errors
    ///
    /// `TL101` when the expression mentions anything but literals and
    /// parameters (or divides by zero).
    pub fn eval_const(&self, e: &IntExpr) -> Result<i64, ParseError> {
        fold(e, &self.params, &HashMap::new(), Span::default())
    }

    /// The declared kind of a channel.
    #[must_use]
    pub fn channel_kind(&self, name: &str) -> Option<ChannelKind> {
        self.channels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, k)| *k)
    }

    /// Whether any machine mentions a clock.
    #[must_use]
    pub fn is_timed(&self) -> bool {
        self.machines.iter().any(Machine::is_timed)
    }
}

fn err(span: Span, code: &'static str, message: impl Into<String>) -> ParseError {
    ParseError {
        span,
        code,
        message: message.into(),
    }
}

/// Folds a compile-time integer expression over `params` and the
/// current formal-argument environment.
fn fold(
    e: &IntExpr,
    params: &BTreeMap<String, i64>,
    env: &HashMap<String, i64>,
    span: Span,
) -> Result<i64, ParseError> {
    match e {
        IntExpr::Lit(v) => Ok(*v),
        IntExpr::Name(id) => env
            .get(&id.name)
            .or_else(|| params.get(&id.name))
            .copied()
            .ok_or_else(|| {
                err(
                    id.span,
                    "TL101",
                    format!("`{}` is not a compile-time constant here", id.name),
                )
            }),
        IntExpr::Index(id, _) => Err(err(
            id.span,
            "TL101",
            format!(
                "array element `{}[..]` is not a compile-time constant",
                id.name
            ),
        )),
        IntExpr::Neg(x) => Ok(fold(x, params, env, span)?.wrapping_neg()),
        IntExpr::Bin(op, a, b) => {
            let a = fold(a, params, env, span)?;
            let b = fold(b, params, env, span)?;
            Ok(match op {
                IntOp::Add => a.wrapping_add(b),
                IntOp::Sub => a.wrapping_sub(b),
                IntOp::Mul => a.wrapping_mul(b),
                IntOp::Div => {
                    if b == 0 {
                        return Err(err(
                            span,
                            "TL101",
                            "division by zero in constant expression",
                        ));
                    }
                    a.wrapping_div(b)
                }
            })
        }
    }
}

/// Best-effort constant evaluation after substitution: `Some(v)` when
/// the expression involves only literals and `param`s, `None` when it
/// reads a runtime variable (or divides by zero, which is left for the
/// engine's own trap handling).
fn try_const(e: &IntExpr, params: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        IntExpr::Lit(v) => Some(*v),
        IntExpr::Name(id) => params.get(&id.name).copied(),
        IntExpr::Index(..) => None,
        IntExpr::Neg(x) => Some(try_const(x, params)?.wrapping_neg()),
        IntExpr::Bin(op, a, b) => {
            let a = try_const(a, params)?;
            let b = try_const(b, params)?;
            Some(match op {
                IntOp::Add => a.wrapping_add(b),
                IntOp::Sub => a.wrapping_sub(b),
                IntOp::Mul => a.wrapping_mul(b),
                IntOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_div(b)
                }
            })
        }
    }
}

fn cmp_holds(a: i64, op: CmpOp, b: i64) -> bool {
    match op {
        CmpOp::Le => a <= b,
        CmpOp::Lt => a < b,
        CmpOp::Ge => a >= b,
        CmpOp::Gt => a > b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

/// Substitutes formal parameters (bound in `env`) by literals, leaving
/// `var` and `param` references intact.
fn subst(e: &IntExpr, env: &HashMap<String, i64>) -> IntExpr {
    match e {
        IntExpr::Lit(v) => IntExpr::Lit(*v),
        IntExpr::Name(id) => match env.get(&id.name) {
            Some(v) => IntExpr::Lit(*v),
            None => IntExpr::Name(id.clone()),
        },
        IntExpr::Index(id, i) => IntExpr::Index(id.clone(), Box::new(subst(i, env))),
        IntExpr::Neg(x) => IntExpr::Neg(Box::new(subst(x, env))),
        IntExpr::Bin(op, a, b) => {
            IntExpr::Bin(*op, Box::new(subst(a, env)), Box::new(subst(b, env)))
        }
    }
}

/// Elaborates the parsed model into its machine set.
///
/// # Errors
///
/// `TL1xx` elaboration errors: non-constant bounds, bad clock indices,
/// unguarded recursion, out-of-range initial values, or a missing
/// `system` line.
pub fn build(model: &Model) -> Result<MachineSet, ParseError> {
    let mut params = BTreeMap::new();
    for p in &model.params {
        params.insert(p.name.name.clone(), p.value);
    }
    let empty = HashMap::new();

    // Clock expansion.
    let mut clocks = Vec::new();
    let mut clock_sizes: HashMap<String, Option<usize>> = HashMap::new();
    for c in &model.clocks {
        match &c.size {
            None => {
                clocks.push(c.name.name.clone());
                clock_sizes.insert(c.name.name.clone(), None);
            }
            Some(e) => {
                let n = fold(e, &params, &empty, c.name.span)?;
                if n < 1 || n as usize > MAX_UNFOLD {
                    return Err(err(
                        c.name.span,
                        "TL102",
                        format!("clock array `{}` has invalid length {n}", c.name.name),
                    ));
                }
                for i in 0..n {
                    clocks.push(format!("{}[{i}]", c.name.name));
                }
                clock_sizes.insert(c.name.name.clone(), Some(n as usize));
            }
        }
    }

    let mut channels = Vec::new();
    for d in &model.channels {
        for n in &d.names {
            channels.push((n.name.clone(), d.kind));
        }
    }

    // Variables.
    let mut vars = Vec::new();
    for v in &model.vars {
        let lo = fold(&v.lo, &params, &empty, v.name.span)?;
        let hi = fold(&v.hi, &params, &empty, v.name.span)?;
        if lo > hi {
            return Err(err(
                v.name.span,
                "TL108",
                format!("empty range {lo}..{hi} for `{}`", v.name.name),
            ));
        }
        let len = match &v.size {
            None => None,
            Some(e) => {
                let n = fold(e, &params, &empty, v.name.span)?;
                if n < 1 || n as usize > MAX_UNFOLD {
                    return Err(err(
                        v.name.span,
                        "TL108",
                        format!("array `{}` has invalid length {n}", v.name.name),
                    ));
                }
                Some(n as usize)
            }
        };
        let init = match (&v.init, len) {
            (Some(e), None) => {
                let i = fold(e, &params, &empty, v.name.span)?;
                if i < lo || i > hi {
                    return Err(err(
                        v.name.span,
                        "TL108",
                        format!("initial value {i} outside {lo}..{hi} for `{}`", v.name.name),
                    ));
                }
                i
            }
            (Some(_), Some(_)) => {
                return Err(err(
                    v.name.span,
                    "TL108",
                    format!("array `{}` cannot take an initializer", v.name.name),
                ));
            }
            // Scalars default to the canonical array element default so
            // every substrate agrees: 0 when in range, else `lo`.
            (None, _) => {
                if lo <= 0 && 0 <= hi {
                    0
                } else {
                    lo
                }
            }
        };
        vars.push(ResolvedVar {
            name: v.name.name.clone(),
            len,
            lo,
            hi,
            init,
        });
    }

    let sys = model
        .system
        .as_ref()
        .ok_or_else(|| err(Span::default(), "TL107", "model has no `system` line"))?;
    let synced: BTreeSet<String> = sys
        .syncs
        .iter()
        .flatten()
        .map(|id| id.name.clone())
        .collect();

    let mut machines = Vec::new();
    for comp in &sys.components {
        let mut b = MachineBuilder {
            model,
            params: &params,
            clock_sizes: &clock_sizes,
            rename: comp
                .rename
                .iter()
                .map(|(o, n)| (o.name.clone(), n.name.clone()))
                .collect(),
            hide: comp.hide.iter().map(|h| h.name.clone()).collect(),
            synced: &synced,
            states: Vec::new(),
            edges: Vec::new(),
            keymap: HashMap::new(),
            names: BTreeSet::new(),
            anon: 0,
            pending: Vec::new(),
        };
        let args: Result<Vec<i64>, ParseError> = comp
            .args
            .iter()
            .map(|a| fold(a, &params, &empty, comp.process.span))
            .collect();
        let init = b.key_state(&comp.process, &args?)?;
        debug_assert_eq!(init, 0);
        b.drain()?;
        machines.push(Machine {
            name: comp.instance_name().to_owned(),
            states: b.states,
            edges: b.edges,
        });
    }

    Ok(MachineSet {
        params,
        clocks,
        channels,
        synced,
        vars,
        machines,
    })
}

struct MachineBuilder<'m> {
    model: &'m Model,
    params: &'m BTreeMap<String, i64>,
    clock_sizes: &'m HashMap<String, Option<usize>>,
    rename: HashMap<String, String>,
    hide: BTreeSet<String>,
    synced: &'m BTreeSet<String>,
    states: Vec<MState>,
    edges: Vec<MEdge>,
    keymap: HashMap<(String, Vec<i64>), usize>,
    names: BTreeSet<String>,
    anon: usize,
    /// States allocated by `key_state` whose bodies await expansion.
    pending: Vec<(usize, Ident, Vec<i64>)>,
}

impl MachineBuilder<'_> {
    fn fresh_state(&mut self, base: &str) -> usize {
        let mut name = base.to_owned();
        let mut k = 1;
        while !self.names.insert(name.clone()) {
            name = format!("{base}#{k}");
            k += 1;
        }
        self.states.push(MState {
            name,
            invariant: Vec::new(),
            committed: false,
        });
        self.states.len() - 1
    }

    /// The state for a named call `(process, folded args)`, expanding
    /// its body on first sight.
    fn key_state(&mut self, callee: &Ident, args: &[i64]) -> Result<usize, ParseError> {
        let key = (callee.name.clone(), args.to_vec());
        if let Some(&idx) = self.keymap.get(&key) {
            return Ok(idx);
        }
        if self.states.len() >= MAX_UNFOLD {
            return Err(err(
                callee.span,
                "TL104",
                format!("machine exceeds {MAX_UNFOLD} states while unfolding"),
            ));
        }
        let base = if args.is_empty() {
            callee.name.clone()
        } else {
            let parts: Vec<String> = args
                .iter()
                .map(|v| {
                    if *v < 0 {
                        format!("m{}", v.unsigned_abs())
                    } else {
                        v.to_string()
                    }
                })
                .collect();
            format!("{}_{}", callee.name, parts.join("_"))
        };
        let idx = self.fresh_state(&base);
        self.keymap.insert(key.clone(), idx);
        // Expansion is deferred to the drain loop in `build` so that
        // long call chains (Count(0) → Count(1) → …) consume worklist
        // entries, not stack frames.
        self.model.process(&callee.name).ok_or_else(|| {
            err(
                callee.span,
                "TL105",
                format!("undefined process `{}`", callee.name),
            )
        })?;
        self.pending.push((idx, callee.clone(), args.to_vec()));
        Ok(idx)
    }

    /// Drains the worklist of states whose bodies still need expanding.
    fn drain(&mut self) -> Result<(), ParseError> {
        while let Some((idx, callee, args)) = self.pending.pop() {
            let def = self.model.process(&callee.name).ok_or_else(|| {
                err(
                    callee.span,
                    "TL105",
                    format!("undefined process `{}`", callee.name),
                )
            })?;
            let env: HashMap<String, i64> = def
                .params
                .iter()
                .map(|p| p.name.clone())
                .zip(args.iter().copied())
                .collect();
            let body = def.body.clone();
            let mut visiting = vec![(callee.name.clone(), args)];
            self.expand_into(idx, &body, &env, &mut visiting)?;
        }
        Ok(())
    }

    /// The state a continuation term lands in.
    fn state_of(&mut self, p: &Proc, env: &HashMap<String, i64>) -> Result<usize, ParseError> {
        match p {
            Proc::Call(callee, args) => {
                let folded: Result<Vec<i64>, ParseError> = args
                    .iter()
                    .map(|a| fold(a, self.params, env, callee.span))
                    .collect();
                self.key_state(callee, &folded?)
            }
            Proc::Stop => Ok(self.terminal("STOP")),
            Proc::Skip => Ok(self.terminal("SKIP")),
            other => {
                self.anon += 1;
                let idx = self.fresh_state(&format!("@{}", self.anon));
                let env = env.clone();
                let mut visiting = Vec::new();
                self.expand_into(idx, other, &env, &mut visiting)?;
                Ok(idx)
            }
        }
    }

    /// The machine's single `STOP` (or `SKIP`) sink state.
    fn terminal(&mut self, name: &str) -> usize {
        if let Some(i) = self.states.iter().position(|s| s.name == name) {
            return i;
        }
        self.fresh_state(name)
    }

    /// Adds the behaviour of `p` to existing state `idx`.
    fn expand_into(
        &mut self,
        idx: usize,
        p: &Proc,
        env: &HashMap<String, i64>,
        visiting: &mut Vec<(String, Vec<i64>)>,
    ) -> Result<(), ParseError> {
        match p {
            Proc::Stop | Proc::Skip => Ok(()),
            Proc::Invariant(atoms, inner) => {
                for a in atoms {
                    let rcc = self.resolve_cc(a, env)?;
                    self.states[idx].invariant.push(rcc);
                }
                self.expand_into(idx, inner, env, visiting)
            }
            Proc::ExtChoice(parts) => {
                for part in parts {
                    self.expand_into(idx, part, env, visiting)?;
                }
                Ok(())
            }
            Proc::IntChoice(parts) => {
                self.states[idx].committed = true;
                for part in parts {
                    let to = self.state_of(part, env)?;
                    self.edges.push(MEdge {
                        from: idx,
                        to,
                        guard_clocks: Vec::new(),
                        guard_data: Vec::new(),
                        event: MEvent::Tau,
                        resets: Vec::new(),
                        updates: Vec::new(),
                    });
                }
                Ok(())
            }
            Proc::Prefix {
                guards,
                event,
                updates,
                then,
            } => {
                let mut guard_clocks = Vec::new();
                let mut guard_data = Vec::new();
                for g in guards {
                    match g {
                        GuardAtom::Clock(cc) => guard_clocks.push(self.resolve_cc(cc, env)?),
                        GuardAtom::Data(a, op, b) => {
                            let a = subst(a, env);
                            let b = subst(b, env);
                            // Constant guards are decided here: false
                            // prunes the whole edge (this is what makes
                            // `Count(k) = when {k < N} ... Count(k+1)`
                            // idioms terminate), true disappears.
                            if let (Some(va), Some(vb)) =
                                (try_const(&a, self.params), try_const(&b, self.params))
                            {
                                if cmp_holds(va, *op, vb) {
                                    continue;
                                }
                                return Ok(());
                            }
                            guard_data.push((a, *op, b));
                        }
                    }
                }
                let mevent = match event {
                    EventSpec::Tau => MEvent::Tau,
                    EventSpec::Send(c) | EventSpec::Recv(c) => {
                        let renamed = self
                            .rename
                            .get(&c.name)
                            .cloned()
                            .unwrap_or_else(|| c.name.clone());
                        if self.hide.contains(&renamed) || !self.synced.contains(&renamed) {
                            MEvent::Tau
                        } else if matches!(event, EventSpec::Send(_)) {
                            MEvent::Send(renamed)
                        } else {
                            MEvent::Recv(renamed)
                        }
                    }
                };
                let mut resets = Vec::new();
                let mut var_updates = Vec::new();
                for u in updates {
                    match u {
                        Update::ClockReset(cr, e) => {
                            let name = self.resolve_clock(cr, env)?;
                            resets.push((name, subst(e, env)));
                        }
                        Update::Assign(v, i, e) => var_updates.push(MUpdate {
                            var: v.name.clone(),
                            index: i.as_deref().map(|x| subst(x, env)),
                            rhs: subst(e, env),
                        }),
                    }
                }
                let to = self.state_of(then, env)?;
                self.edges.push(MEdge {
                    from: idx,
                    to,
                    guard_clocks,
                    guard_data,
                    event: mevent,
                    resets,
                    updates: var_updates,
                });
                Ok(())
            }
            Proc::Call(callee, args) => {
                // A call in choice/initial position: inline the callee's
                // behaviour into this state.
                let folded: Result<Vec<i64>, ParseError> = args
                    .iter()
                    .map(|a| fold(a, self.params, env, callee.span))
                    .collect();
                let key = (callee.name.clone(), folded?);
                if visiting.contains(&key) {
                    return Err(err(
                        callee.span,
                        "TL104",
                        format!(
                            "unguarded recursion through `{}`: every cycle must pass an event prefix",
                            callee.name
                        ),
                    ));
                }
                if visiting.len() >= 64 {
                    return Err(err(
                        callee.span,
                        "TL104",
                        format!(
                            "call chain through `{}` exceeds 64 frames without an event prefix",
                            callee.name
                        ),
                    ));
                }
                let def = self.model.process(&callee.name).ok_or_else(|| {
                    err(
                        callee.span,
                        "TL105",
                        format!("undefined process `{}`", callee.name),
                    )
                })?;
                let callee_env: HashMap<String, i64> = def
                    .params
                    .iter()
                    .map(|p| p.name.clone())
                    .zip(key.1.iter().copied())
                    .collect();
                visiting.push(key);
                let body = def.body.clone();
                self.expand_into(idx, &body, &callee_env, visiting)?;
                visiting.pop();
                Ok(())
            }
        }
    }

    /// Resolves a clock reference to its expanded name.
    fn resolve_clock(
        &self,
        cr: &ClockRef,
        env: &HashMap<String, i64>,
    ) -> Result<String, ParseError> {
        let size = self.clock_sizes.get(&cr.name.name).ok_or_else(|| {
            err(
                cr.name.span,
                "TL103",
                format!("`{}` is not a clock", cr.name.name),
            )
        })?;
        match (size, &cr.index) {
            (None, None) => Ok(cr.name.name.clone()),
            (Some(n), Some(e)) => {
                let i = fold(e, self.params, env, cr.name.span)?;
                if i < 0 || i as usize >= *n {
                    return Err(err(
                        cr.name.span,
                        "TL102",
                        format!(
                            "index {i} out of range for clock array `{}[{n}]`",
                            cr.name.name
                        ),
                    ));
                }
                Ok(format!("{}[{i}]", cr.name.name))
            }
            (None, Some(_)) => Err(err(
                cr.name.span,
                "TL102",
                format!("`{}` is not a clock array", cr.name.name),
            )),
            (Some(_), None) => Err(err(
                cr.name.span,
                "TL102",
                format!("clock array `{}` needs an index", cr.name.name),
            )),
        }
    }

    fn resolve_cc(
        &self,
        cc: &ClockConstraint,
        env: &HashMap<String, i64>,
    ) -> Result<Rcc, ParseError> {
        let clock = self.resolve_clock(&cc.clock, env)?;
        let minus = match &cc.minus {
            None => None,
            Some(c) => Some(self.resolve_clock(c, env)?),
        };
        let bound = fold(&cc.bound, self.params, env, cc.clock.name.span)?;
        Ok(Rcc {
            clock,
            minus,
            op: cc.op,
            bound,
        })
    }
}

/// Resolves a clock reference appearing in a *formula* (no formal
/// environment; params only).
pub(crate) fn resolve_formula_cc(
    set: &MachineSet,
    cc: &ClockConstraint,
) -> Result<Rcc, ParseError> {
    let resolve = |cr: &ClockRef| -> Result<String, ParseError> {
        let name = match &cr.index {
            None => cr.name.name.clone(),
            Some(e) => {
                let i = fold(e, &set.params, &HashMap::new(), cr.name.span)?;
                format!("{}[{i}]", cr.name.name)
            }
        };
        if set.clocks.contains(&name) {
            Ok(name)
        } else {
            Err(err(
                cr.name.span,
                "TL102",
                format!("`{name}` is not a declared clock"),
            ))
        }
    };
    let clock = resolve(&cc.clock)?;
    let minus = match &cc.minus {
        None => None,
        Some(c) => Some(resolve(c)?),
    };
    let bound = fold(&cc.bound, &set.params, &HashMap::new(), cc.clock.name.span)?;
    Ok(Rcc {
        clock,
        minus,
        op: cc.op,
        bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unfolds_parameterized_recursion() {
        let src = "\
param N = 2
channel tick
process Count(k) = when {k < N} tick! -> Count(k + 1) [] when {k == N} tick! -> Count(0)
process Sink = tick? -> Sink
system Count(0) || {tick} Sink
";
        let set = build(&parse(src).expect("parse")).expect("build");
        let m = set.machine("Count").expect("machine");
        // Count(0), Count(1), Count(2): three key states.
        assert_eq!(m.states.len(), 3);
        assert!(m.state_by_name("Count_0").is_some());
        assert!(m.state_by_name("Count_2").is_some());
        assert_eq!(m.edges.len(), 3);
    }

    #[test]
    fn hiding_and_sync_classification() {
        let src = "\
channel a, b
process P = a! -> b! -> P
process Q = a? -> Q
system P \\ {b} || {a} Q
";
        let set = build(&parse(src).expect("parse")).expect("build");
        let p = set.machine("P").expect("P");
        let events: Vec<&MEvent> = p.edges.iter().map(|e| &e.event).collect();
        assert!(events.contains(&&MEvent::Send("a".into())));
        assert!(events.contains(&&MEvent::Tau));
    }

    #[test]
    fn unguarded_recursion_is_rejected() {
        let src = "process P = Q\nprocess Q = P\nsystem P";
        let e = build(&parse(src).expect("parse")).expect_err("loop");
        assert_eq!(e.code, "TL104");
    }

    #[test]
    fn clock_arrays_expand_and_bounds_fold() {
        let src = "\
param N = 2
channel go
clock y[N]
process P(i) = inv {y[i] <= 3 * N} when {y[i] >= N} go! -> P(i)
process Q = go? -> Q
system P(1) || {go} Q
";
        let set = build(&parse(src).expect("parse")).expect("build");
        assert_eq!(set.clocks, vec!["y[0]".to_owned(), "y[1]".to_owned()]);
        let p = set.machine("P").expect("P");
        assert_eq!(p.states[0].invariant[0].clock, "y[1]");
        assert_eq!(p.states[0].invariant[0].bound, 6);
        assert_eq!(p.edges[0].guard_clocks[0].bound, 2);
    }

    #[test]
    fn internal_choice_is_committed_tau() {
        let src = "\
channel a
process P = (a! -> P) |~| STOP
process Q = a? -> Q
system P || {a} Q
";
        let set = build(&parse(src).expect("parse")).expect("build");
        let p = set.machine("P").expect("P");
        assert!(p.states[0].committed);
        let taus = p
            .edges
            .iter()
            .filter(|e| e.from == 0 && e.event == MEvent::Tau)
            .count();
        assert_eq!(taus, 2);
    }
}
