//! Lowering of the machine IR onto the analysis substrates:
//!
//! * [`to_network`] — full-featured `tempo-ta` network (every model).
//!   Every timed engine reads it: the zone engine (`mctau` included),
//!   SMC simulation, and `mcpta`'s digital-clocks MDP, so a model has
//!   one timed-automata translation.
//! * [`to_bip`] — untimed BIP system for interaction-level deadlock
//!   search.
//! * [`to_tioa`] — one component as a timed I/O automaton for ECDAR
//!   refinement; gated to the pure-clock `<=`/`>=` subset.
//! * [`to_lts`] — one component as an untimed LTS for ioco.
//!
//! Each lowering either succeeds or reports a `TL103` subset violation
//! naming the construct and the engine that refuses it; nothing is
//! silently dropped. The TA network is the reference semantics — every
//! other lowering preserves it on the subset it accepts.

use crate::ast::{ChannelKind, CmpOp, Formula, IntExpr, IntOp};
use crate::machine::{self, MEvent, MachineSet, Rcc};
use crate::parser::ParseError;
use crate::token::Span;
use std::collections::{BTreeMap, HashMap};
use tempo_bip::{BipSystem, BipSystemBuilder, PortId};
use tempo_dbm::{Bound, Clock};
use tempo_ecdar::{Tioa, TioaAtom, TioaBuilder};
use tempo_expr::{BinOp, Decls, Expr, Stmt, VarId};
use tempo_ioco::{Label, Lts};
use tempo_ta::{ClockAtom, LocationKind, Network, NetworkBuilder, StateFormula};

fn err(code: &'static str, message: impl Into<String>) -> ParseError {
    ParseError {
        span: Span::default(),
        code,
        message: message.into(),
    }
}

/// Name → id table for the variables installed into an engine's
/// declaration block. Built once per lowering so expression translation
/// never needs to re-borrow the builder.
type VarMap = HashMap<String, VarId>;

/// Installs the model's variables into an engine declaration table and
/// returns the resulting name → id map.
fn install_vars(set: &MachineSet, decls: &mut Decls) -> VarMap {
    let mut map = HashMap::new();
    for v in &set.vars {
        let id = match v.len {
            None => decls.int_init(&v.name, v.lo, v.hi, v.init),
            Some(n) => decls.array(&v.name, n, v.lo, v.hi),
        };
        map.insert(v.name.clone(), id);
    }
    map
}

/// Rebuilds the [`VarMap`] for an already-built declaration table.
fn var_map_of(set: &MachineSet, decls: &Decls) -> VarMap {
    set.vars
        .iter()
        .filter_map(|v| decls.lookup(&v.name).map(|id| (v.name.clone(), id)))
        .collect()
}

/// Lowers a compile-time-substituted integer expression into the data
/// language: `param`s fold to constants, `var`s become store reads.
fn lower_int(
    e: &IntExpr,
    vars: &VarMap,
    params: &BTreeMap<String, i64>,
) -> Result<Expr, ParseError> {
    match e {
        IntExpr::Lit(v) => Ok(Expr::konst(*v)),
        IntExpr::Name(id) => {
            if let Some(v) = params.get(&id.name) {
                return Ok(Expr::konst(*v));
            }
            vars.get(&id.name)
                .map(|&v| Expr::var(v))
                .ok_or_else(|| err("TL107", format!("unknown variable `{}`", id.name)))
        }
        IntExpr::Index(id, i) => {
            let var = *vars
                .get(&id.name)
                .ok_or_else(|| err("TL107", format!("unknown array `{}`", id.name)))?;
            Ok(Expr::index(var, lower_int(i, vars, params)?))
        }
        IntExpr::Neg(x) => Ok(Expr::konst(0) - lower_int(x, vars, params)?),
        IntExpr::Bin(op, a, b) => {
            let a = lower_int(a, vars, params)?;
            let b = lower_int(b, vars, params)?;
            Ok(a.bin(
                match op {
                    IntOp::Add => BinOp::Add,
                    IntOp::Sub => BinOp::Sub,
                    IntOp::Mul => BinOp::Mul,
                    IntOp::Div => BinOp::Div,
                },
                b,
            ))
        }
    }
}

fn lower_cmp(a: Expr, op: CmpOp, b: Expr) -> Expr {
    match op {
        CmpOp::Le => a.le(b),
        CmpOp::Lt => a.lt(b),
        CmpOp::Ge => a.ge(b),
        CmpOp::Gt => a.gt(b),
        CmpOp::Eq => a.eq(b),
        CmpOp::Ne => a.ne(b),
    }
}

/// Conjoins the data-guard atoms of an edge into one expression.
fn lower_guard_data(
    atoms: &[(IntExpr, CmpOp, IntExpr)],
    vars: &VarMap,
    params: &BTreeMap<String, i64>,
) -> Result<Expr, ParseError> {
    let mut acc: Option<Expr> = None;
    for (a, op, b) in atoms {
        let e = lower_cmp(
            lower_int(a, vars, params)?,
            *op,
            lower_int(b, vars, params)?,
        );
        acc = Some(match acc {
            None => e,
            Some(g) => g.bin(BinOp::And, e),
        });
    }
    Ok(acc.unwrap_or_else(Expr::truth))
}

/// Lowers an edge's update block into a single statement.
fn lower_updates(
    updates: &[crate::machine::MUpdate],
    vars: &VarMap,
    params: &BTreeMap<String, i64>,
) -> Result<Stmt, ParseError> {
    let mut stmts = Vec::new();
    for u in updates {
        let var = *vars
            .get(&u.var)
            .ok_or_else(|| err("TL107", format!("unknown variable `{}`", u.var)))?;
        let rhs = lower_int(&u.rhs, vars, params)?;
        stmts.push(match &u.index {
            None => Stmt::assign(var, rhs),
            Some(i) => Stmt::assign_index(var, lower_int(i, vars, params)?, rhs),
        });
    }
    Ok(match stmts.len() {
        0 => Stmt::skip(),
        1 => stmts.pop().expect("nonempty"),
        _ => Stmt::seq(stmts),
    })
}

/// Expands a resolved clock constraint into DBM atoms (a `==` becomes
/// the `<=`/`>=` pair; difference bounds flip clocks for `>=`/`>`).
fn rcc_atoms(
    rcc: &Rcc,
    clock: impl Fn(&str) -> Option<Clock>,
) -> Result<Vec<ClockAtom>, ParseError> {
    let x =
        clock(&rcc.clock).ok_or_else(|| err("TL102", format!("unknown clock `{}`", rcc.clock)))?;
    match &rcc.minus {
        None => Ok(match rcc.op {
            CmpOp::Le => vec![ClockAtom::le(x, rcc.bound)],
            CmpOp::Lt => vec![ClockAtom::lt(x, rcc.bound)],
            CmpOp::Ge => vec![ClockAtom::ge(x, rcc.bound)],
            CmpOp::Gt => vec![ClockAtom::gt(x, rcc.bound)],
            CmpOp::Eq => vec![ClockAtom::le(x, rcc.bound), ClockAtom::ge(x, rcc.bound)],
            CmpOp::Ne => return Err(err("TL006", "`!=` clock constraints are not supported")),
        }),
        Some(yname) => {
            let y = clock(yname).ok_or_else(|| err("TL102", format!("unknown clock `{yname}`")))?;
            Ok(match rcc.op {
                CmpOp::Le => vec![ClockAtom::diff(x, y, Bound::le(rcc.bound))],
                CmpOp::Lt => vec![ClockAtom::diff(x, y, Bound::lt(rcc.bound))],
                CmpOp::Ge => vec![ClockAtom::diff(y, x, Bound::le(-rcc.bound))],
                CmpOp::Gt => vec![ClockAtom::diff(y, x, Bound::lt(-rcc.bound))],
                CmpOp::Eq => vec![
                    ClockAtom::diff(x, y, Bound::le(rcc.bound)),
                    ClockAtom::diff(y, x, Bound::le(-rcc.bound)),
                ],
                CmpOp::Ne => {
                    return Err(err("TL006", "`!=` clock constraints are not supported"));
                }
            })
        }
    }
}

// ------------------------------------------------------------------ TA

/// Lowers the machine set onto a `tempo-ta` network. This is the
/// reference substrate: every machine-IR construct is expressible.
pub fn to_network(set: &MachineSet) -> Result<Network, ParseError> {
    let mut b = NetworkBuilder::new();
    let vars = install_vars(set, b.decls_mut());
    let mut clock_ids = HashMap::new();
    for c in &set.clocks {
        clock_ids.insert(c.clone(), b.clock(c));
    }
    let mut chan_ids = HashMap::new();
    for (name, kind) in &set.channels {
        if !set.synced.contains(name) {
            continue;
        }
        let id = match kind {
            ChannelKind::Handshake => b.channel(name),
            ChannelKind::Urgent => b.urgent_channel(name),
            ChannelKind::Broadcast => b.broadcast_channel(name),
        };
        chan_ids.insert(name.clone(), id);
    }
    let params = &set.params;
    for m in &set.machines {
        let mut a = b.automaton(&m.name);
        let mut locs = Vec::new();
        for s in &m.states {
            let mut inv = Vec::new();
            for rcc in &s.invariant {
                inv.extend(rcc_atoms(rcc, |n| clock_ids.get(n).copied())?);
            }
            let kind = if s.committed {
                LocationKind::Committed
            } else {
                LocationKind::Normal
            };
            locs.push(a.location_full(&s.name, kind, inv));
        }
        a.set_initial(locs[0]);
        for e in &m.edges {
            let mut eb = a.edge(locs[e.from], locs[e.to]);
            for rcc in &e.guard_clocks {
                for atom in rcc_atoms(rcc, |n| clock_ids.get(n).copied())? {
                    eb = eb.guard_clock(atom);
                }
            }
            eb = match &e.event {
                MEvent::Tau => eb,
                MEvent::Send(c) => eb.send(chan_ids[c.as_str()]),
                MEvent::Recv(c) => eb.recv(chan_ids[c.as_str()]),
            };
            for (clock, rhs) in &e.resets {
                let id = clock_ids[clock.as_str()];
                eb = match rhs {
                    IntExpr::Lit(v) => eb.reset(id, *v),
                    other => eb.reset_expr(id, lower_int(other, &vars, params)?),
                };
            }
            if !e.guard_data.is_empty() {
                eb = eb.guard_data(lower_guard_data(&e.guard_data, &vars, params)?);
            }
            if !e.updates.is_empty() {
                eb = eb.update(lower_updates(&e.updates, &vars, params)?);
            }
            eb.done();
        }
        a.done();
    }
    Ok(b.build())
}

/// Lowers an assert formula onto the network's location/clock space.
pub fn lower_formula_network(
    set: &MachineSet,
    net: &Network,
    f: &Formula,
) -> Result<StateFormula, ParseError> {
    let vars = var_map_of(set, net.decls());
    lower_formula_net_inner(set, net, &vars, f)
}

fn lower_formula_net_inner(
    set: &MachineSet,
    net: &Network,
    vars: &VarMap,
    f: &Formula,
) -> Result<StateFormula, ParseError> {
    match f {
        Formula::True => Ok(StateFormula::data(Expr::truth())),
        Formula::False => Ok(StateFormula::data(Expr::konst(0))),
        Formula::AtLoc(c, l) => {
            let a = net
                .automaton_by_name(&c.name)
                .ok_or_else(|| err("TL106", format!("unknown component `{}`", c.name)))?;
            let loc = net.automaton(a).location_by_name(&l.name).ok_or_else(|| {
                err(
                    "TL106",
                    format!("component `{}` has no state `{}`", c.name, l.name),
                )
            })?;
            Ok(StateFormula::at(a, loc))
        }
        Formula::Clock(cc) => {
            let rcc = machine::resolve_formula_cc(set, cc)?;
            let atoms = rcc_atoms(&rcc, |n| net.clock_by_name(n))?;
            Ok(StateFormula::and(
                atoms.into_iter().map(StateFormula::clock).collect(),
            ))
        }
        Formula::Data(a, op, b) => {
            let ea = lower_int(a, vars, &set.params)?;
            let eb = lower_int(b, vars, &set.params)?;
            Ok(StateFormula::data(lower_cmp(ea, *op, eb)))
        }
        Formula::Not(g) => Ok(StateFormula::not(lower_formula_net_inner(
            set, net, vars, g,
        )?)),
        Formula::And(gs) => {
            let fs: Result<Vec<_>, _> = gs
                .iter()
                .map(|g| lower_formula_net_inner(set, net, vars, g))
                .collect();
            Ok(StateFormula::and(fs?))
        }
        Formula::Or(gs) => {
            let fs: Result<Vec<_>, _> = gs
                .iter()
                .map(|g| lower_formula_net_inner(set, net, vars, g))
                .collect();
            Ok(StateFormula::or(fs?))
        }
    }
}

// ----------------------------------------------------------------- BIP

/// Lowers an untimed machine set onto a BIP system for interaction-level
/// deadlock search. Handshakes become binary rendezvous between each
/// sender/receiver component pair; internal steps become unary
/// interactions. Timed models, committed states, and broadcast channels
/// are rejected.
pub fn to_bip(set: &MachineSet) -> Result<BipSystem, ParseError> {
    if set.is_timed() {
        return Err(err(
            "TL103",
            "the BIP deadlock engine supports untimed models only (clocks are used)",
        ));
    }
    for (c, kind) in &set.channels {
        if set.synced.contains(c) && *kind == ChannelKind::Broadcast {
            return Err(err(
                "TL103",
                format!("broadcast channel `{c}` is not expressible as BIP rendezvous"),
            ));
        }
    }
    let mut b = BipSystemBuilder::new();
    let vars = install_vars(set, b.decls_mut());
    // (machine, channel) → send/recv port; machine → tau port
    let mut send_ports: HashMap<(String, String), PortId> = HashMap::new();
    let mut recv_ports: HashMap<(String, String), PortId> = HashMap::new();
    let mut tau_ports: HashMap<String, PortId> = HashMap::new();
    for m in &set.machines {
        let mut c = b.component(&m.name);
        let mut sids = Vec::new();
        for s in &m.states {
            if s.committed {
                return Err(err(
                    "TL103",
                    format!(
                        "internal choice (committed state `{}` of `{}`) is not supported by \
                         the BIP deadlock engine",
                        s.name, m.name
                    ),
                ));
            }
            sids.push(c.state(&s.name));
        }
        c.set_initial(sids[0]);
        let mut local_send: HashMap<&str, PortId> = HashMap::new();
        let mut local_recv: HashMap<&str, PortId> = HashMap::new();
        let mut local_tau: Option<PortId> = None;
        for e in &m.edges {
            let port = match &e.event {
                MEvent::Tau => *local_tau.get_or_insert_with(|| c.port("tau")),
                MEvent::Send(ch) => *local_send
                    .entry(ch.as_str())
                    .or_insert_with(|| c.port(&format!("{ch}_snd"))),
                MEvent::Recv(ch) => *local_recv
                    .entry(ch.as_str())
                    .or_insert_with(|| c.port(&format!("{ch}_rcv"))),
            };
            let guard = lower_guard_data(&e.guard_data, &vars, &set.params)?;
            let update = lower_updates(&e.updates, &vars, &set.params)?;
            c.transition_full(sids[e.from], sids[e.to], port, guard, update);
        }
        c.done();
        for (ch, p) in local_send {
            send_ports.insert((m.name.clone(), ch.to_owned()), p);
        }
        for (ch, p) in local_recv {
            recv_ports.insert((m.name.clone(), ch.to_owned()), p);
        }
        if let Some(p) = local_tau {
            tau_ports.insert(m.name.clone(), p);
        }
    }
    for (chan, _) in &set.channels {
        if !set.synced.contains(chan) {
            continue;
        }
        for ms in &set.machines {
            let Some(&ps) = send_ports.get(&(ms.name.clone(), chan.clone())) else {
                continue;
            };
            for mr in &set.machines {
                if ms.name == mr.name {
                    continue;
                }
                let Some(&pr) = recv_ports.get(&(mr.name.clone(), chan.clone())) else {
                    continue;
                };
                b.rendezvous(&format!("{chan}__{}__{}", ms.name, mr.name), &[ps, pr]);
            }
        }
    }
    for m in &set.machines {
        if let Some(&p) = tau_ports.get(&m.name) {
            b.rendezvous(&format!("tau__{}", m.name), &[p]);
        }
    }
    Ok(b.build())
}

// --------------------------------------------------------------- ECDAR

/// Lowers one component as a timed I/O automaton for refinement
/// checking: sends become outputs, receives become inputs. The ECDAR
/// subset is pure timed automata — no data guards or updates, no
/// internal steps, constant-zero resets, and non-strict single-clock
/// bounds only.
pub fn to_tioa(set: &MachineSet, comp: &str) -> Result<Tioa, ParseError> {
    let m = set
        .machine(comp)
        .ok_or_else(|| err("TL106", format!("unknown component `{comp}`")))?;
    let mut b = TioaBuilder::new(comp);
    let mut clock_ids = HashMap::new();
    for c in &set.clocks {
        clock_ids.insert(c.clone(), b.clock(c));
    }
    let tioa_atoms = |rcc: &Rcc| -> Result<Vec<TioaAtom>, ParseError> {
        if rcc.minus.is_some() {
            return Err(err(
                "TL103",
                "clock-difference constraints are not supported by the refinement engine",
            ));
        }
        let x = clock_ids
            .get(&rcc.clock)
            .copied()
            .ok_or_else(|| err("TL102", format!("unknown clock `{}`", rcc.clock)))?;
        match rcc.op {
            CmpOp::Le => Ok(vec![TioaAtom::le(x, rcc.bound)]),
            CmpOp::Ge => Ok(vec![TioaAtom::ge(x, rcc.bound)]),
            CmpOp::Eq => Ok(vec![TioaAtom::le(x, rcc.bound), TioaAtom::ge(x, rcc.bound)]),
            CmpOp::Lt | CmpOp::Gt | CmpOp::Ne => Err(err(
                "TL103",
                format!(
                    "the refinement engine supports only non-strict clock bounds; \
                     `{}` {} {} is strict",
                    rcc.clock,
                    rcc.op.symbol(),
                    rcc.bound
                ),
            )),
        }
    };
    let mut locs = Vec::new();
    for s in &m.states {
        if s.committed {
            return Err(err(
                "TL103",
                format!(
                    "committed state `{}` is not supported by the refinement engine",
                    s.name
                ),
            ));
        }
        let mut inv = Vec::new();
        for rcc in &s.invariant {
            inv.extend(tioa_atoms(rcc)?);
        }
        locs.push(b.location_with_invariant(&s.name, inv));
    }
    b.set_initial(locs[0]);
    for e in &m.edges {
        if !e.guard_data.is_empty() || !e.updates.is_empty() {
            return Err(err(
                "TL103",
                "data guards and updates are not supported by the refinement engine",
            ));
        }
        let chan = match &e.event {
            MEvent::Tau => {
                return Err(err(
                    "TL103",
                    format!(
                        "component `{comp}` has an internal step; the refinement engine \
                         needs a fully synchronized alphabet (add the channels to the \
                         system sync sets)"
                    ),
                ));
            }
            MEvent::Send(c) | MEvent::Recv(c) => c.clone(),
        };
        let mut eb = match &e.event {
            MEvent::Send(_) => b.output(locs[e.from], locs[e.to], &chan),
            _ => b.input(locs[e.from], locs[e.to], &chan),
        };
        for rcc in &e.guard_clocks {
            for atom in tioa_atoms(rcc)? {
                eb = eb.guard(atom);
            }
        }
        for (clock, rhs) in &e.resets {
            if !matches!(rhs, IntExpr::Lit(0)) {
                return Err(err(
                    "TL103",
                    format!(
                        "reset of `{clock}` to a non-zero value is not supported by the \
                         refinement engine"
                    ),
                ));
            }
            eb = eb.reset(clock_ids[clock.as_str()]);
        }
        eb.done();
    }
    Ok(b.build())
}

// ---------------------------------------------------------------- ioco

/// Lowers one component as an untimed labelled transition system for
/// ioco conformance: sends become outputs, receives become inputs,
/// internal steps become τ. Timed behaviour and data are rejected.
pub fn to_lts(set: &MachineSet, comp: &str) -> Result<Lts, ParseError> {
    let m = set
        .machine(comp)
        .ok_or_else(|| err("TL106", format!("unknown component `{comp}`")))?;
    if m.is_timed() {
        return Err(err(
            "TL103",
            format!("component `{comp}` is timed; the ioco engine supports untimed models only"),
        ));
    }
    let mut lts = Lts::new();
    let sids: Vec<_> = m.states.iter().map(|s| lts.state(&s.name)).collect();
    lts.set_initial(sids[0]);
    for e in &m.edges {
        if !e.guard_data.is_empty() || !e.updates.is_empty() {
            return Err(err(
                "TL103",
                "data guards and updates are not supported by the ioco engine",
            ));
        }
        let label = match &e.event {
            MEvent::Tau => Label::Tau,
            MEvent::Send(c) => Label::output(c),
            MEvent::Recv(c) => Label::input(c),
        };
        lts.transition(sids[e.from], label, sids[e.to]);
    }
    Ok(lts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::build;
    use crate::parser::parse;
    use tempo_obs::{Budget, ExploreConfig};
    use tempo_ta::ModelChecker;

    fn set_of(src: &str) -> MachineSet {
        build(&parse(src).expect("parse")).expect("machine build")
    }

    #[test]
    fn network_reachability_of_handshake() {
        let src = "
channel go
clock x

process Sender = inv { x <= 5 } when { x >= 2 } go! { x := 0 } -> Sender
process Receiver = go? -> Done
process Done = STOP

system Sender || {go} Receiver
";
        let set = set_of(src);
        let net = to_network(&set).expect("network");
        let goal = lower_formula_network(
            &set,
            &net,
            &Formula::AtLoc(
                crate::ast::Ident::new("Receiver"),
                crate::ast::Ident::new("Done"),
            ),
        )
        .expect("goal");
        let mut mc = ModelChecker::new(&net);
        assert!(mc.reachable(&goal).reachable);
    }

    #[test]
    fn bip_finds_cross_coupled_deadlock() {
        // Both components want to send first: classic rendezvous deadlock.
        let src = "
channel a, b

process P = a! -> b? -> P
process Q = b! -> a? -> Q

system P || {a, b} Q
";
        let set = set_of(src);
        let sys = to_bip(&set).expect("bip");
        let dead = sys
            .find_deadlock_with(ExploreConfig::default(), &Budget::unlimited())
            .into_value();
        assert!(dead.is_some(), "cross-coupled rendezvous must deadlock");
    }

    #[test]
    fn bip_rejects_timed_models() {
        let src = "
clock x
process P = when { x >= 1 } tau -> P
system P
";
        let set = set_of(src);
        let e = to_bip(&set).expect_err("timed model must be rejected");
        assert_eq!(e.code, "TL103");
    }

    #[test]
    fn tioa_self_refinement() {
        let src = "
channel req, grant
clock x

process Impl = req? { x := 0 } -> inv { x <= 10 } grant! -> Impl

system Impl || {req, grant} Impl as Spec
";
        let set = set_of(src);
        let imp = to_tioa(&set, "Impl").expect("impl tioa");
        let spec = to_tioa(&set, "Spec").expect("spec tioa");
        let out = tempo_ecdar::refines_governed(&imp, &spec, &Budget::unlimited());
        assert!(out.into_value().is_ok(), "a component refines itself");
    }

    #[test]
    fn lts_self_conformance() {
        let src = "
channel coin, coffee

process M = coin? -> coffee! -> M

system M || {coin, coffee} M as S
";
        let set = set_of(src);
        let imp = to_lts(&set, "M").expect("impl lts");
        let spec = to_lts(&set, "S").expect("spec lts");
        assert!(tempo_ioco::check_ioco(&imp, &spec).is_ok());
    }
}
