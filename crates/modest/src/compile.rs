//! Compilation of MODEST process expressions to a network of timed
//! automata whose `palt` choices are runs of weighted sibling edges (the
//! formal semantics of MODEST is in terms of stochastic timed automata;
//! for the decidable PTA fragment used by `mcpta`, each process becomes
//! one component automaton).
//!
//! An action shared by two system processes becomes a binary channel
//! that the first of them sends on; any other action is an internal
//! move. Each non-zero `palt` branch is one edge carrying its weight
//! (see [`tempo_ta::Edge::continues_choice`]), so the probabilistic
//! engines draw a branch by weight while the zone engine reads the
//! branches as nondeterministic alternatives.

use crate::ast::{Assignment, ModestModel, PaltBranch, Process};
use std::collections::HashMap;
use tempo_dbm::Clock;
use tempo_expr::{Expr, Stmt};
use tempo_ta::{ClockAtom, Network, NetworkBuilder};

/// Compiles the model's system composition into a network (the `Pta`
/// the MODEST backends analyse).
///
/// # Panics
///
/// Panics if a system process is undefined, a `Call` targets an unknown
/// process, or an action is shared by more than two system processes.
#[must_use]
pub fn compile(model: &ModestModel) -> Network {
    let components: Vec<Component> = model
        .system
        .iter()
        .map(|name| {
            let body = model
                .process(name)
                .unwrap_or_else(|| panic!("undefined system process {name}"));
            compile_process(model, name, body)
        })
        .collect();
    // The components using each action, in system order.
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); model.actions.len()];
    for (ci, c) in components.iter().enumerate() {
        for choice in &c.choices {
            if !users[choice.action].contains(&ci) {
                users[choice.action].push(ci);
            }
        }
    }
    let mut b = NetworkBuilder::new();
    *b.decls_mut() = model.decls.clone();
    for name in &model.clock_names {
        b.clock(name);
    }
    // A handshake action: its channel and the component that sends.
    let channels: Vec<Option<(tempo_ta::ChannelId, usize)>> = users
        .iter()
        .zip(&model.actions)
        .map(|(u, name)| match u.as_slice() {
            [] | [_] => None,
            [first, _] => Some((b.channel(name), *first)),
            _ => panic!(
                "action {name} used by {} components; only 2-party synchronization is supported",
                u.len()
            ),
        })
        .collect();
    for (ci, c) in components.iter().enumerate() {
        let mut ab = b.automaton(&c.name);
        let locs: Vec<tempo_ta::LocationId> = c
            .locations
            .iter()
            .map(|(name, inv)| ab.location_with_invariant(name, inv.clone()))
            .collect();
        ab.set_initial(locs[c.initial]);
        for choice in &c.choices {
            for (k, br) in choice.branches.iter().filter(|b| b.weight > 0).enumerate() {
                let mut eb = ab
                    .edge(locs[choice.from], locs[br.to])
                    .guard_data(choice.guard_data.clone())
                    .branch(br.weight, k > 0)
                    .update(br.update.clone());
                for atom in &choice.guard_clocks {
                    eb = eb.guard_clock(*atom);
                }
                for &(clock, v) in &br.resets {
                    eb = eb.reset(clock, v);
                }
                if let Some((ch, sender)) = channels[choice.action] {
                    eb = if sender == ci {
                        eb.send(ch)
                    } else {
                        eb.recv(ch)
                    };
                }
                eb.done();
            }
        }
        ab.done();
    }
    b.build()
}

/// One compiled component before it becomes an automaton.
struct Component {
    name: String,
    /// Location names and invariants.
    locations: Vec<(String, Vec<ClockAtom>)>,
    choices: Vec<Choice>,
    initial: usize,
}

/// An action with its guard and its weighted branches.
struct Choice {
    from: usize,
    guard_clocks: Vec<ClockAtom>,
    guard_data: Expr,
    action: usize,
    branches: Vec<Branch>,
}

struct Branch {
    weight: u64,
    update: Stmt,
    resets: Vec<(Clock, i64)>,
    to: usize,
}

struct Compiler<'m> {
    model: &'m ModestModel,
    locations: Vec<(String, Vec<ClockAtom>)>,
    choices: Vec<Choice>,
    /// Entry location of each called process (compiled on demand).
    process_entries: HashMap<String, usize>,
    /// Processes whose bodies still need compiling at their entry.
    pending: Vec<(String, usize)>,
}

/// The static context accumulated by `when` / `invariant` wrappers on the
/// path to an initial action.
#[derive(Clone, Default)]
struct Ctx {
    guard_clocks: Vec<ClockAtom>,
    guard_data: Option<Expr>,
    invariant: Vec<ClockAtom>,
}

fn compile_process(model: &ModestModel, name: &str, body: &Process) -> Component {
    let mut c = Compiler {
        model,
        locations: Vec::new(),
        choices: Vec::new(),
        process_entries: HashMap::new(),
        pending: Vec::new(),
    };
    let entry = c.fresh_location(&format!("{name}_0"));
    c.process_entries.insert(name.to_owned(), entry);
    c.compile_at(body, entry, Ctx::default());
    while let Some((pname, ploc)) = c.pending.pop() {
        let pbody = c
            .model
            .process(&pname)
            .unwrap_or_else(|| panic!("call of undefined process {pname}"))
            .clone();
        c.compile_at(&pbody, ploc, Ctx::default());
    }
    Component {
        name: name.to_owned(),
        locations: c.locations,
        choices: c.choices,
        initial: entry,
    }
}

impl Compiler<'_> {
    fn fresh_location(&mut self, name: &str) -> usize {
        self.locations.push((name.to_owned(), Vec::new()));
        self.locations.len() - 1
    }

    /// Resolves the entry location for a process call, scheduling its
    /// body for compilation if unseen.
    fn call_entry(&mut self, name: &str) -> usize {
        if let Some(&loc) = self.process_entries.get(name) {
            return loc;
        }
        let loc = self.fresh_location(&format!("{name}_0"));
        self.process_entries.insert(name.to_owned(), loc);
        self.pending.push((name.to_owned(), loc));
        loc
    }

    /// Compiles `p` so that its behaviour starts at the existing location
    /// `entry`. Terminal `Skip`s become a fresh terminal location.
    fn compile_at(&mut self, p: &Process, entry: usize, ctx: Ctx) {
        match p {
            Process::Stop | Process::Skip => {
                // No outgoing behaviour. (A Skip that matters has been
                // rewritten away by `Process::then`.)
                self.locations[entry].1.extend(ctx.invariant);
            }
            Process::Act(a, assignments, then) => {
                self.choice(entry, ctx, a.0, [(1, assignments.as_slice(), &**then)]);
            }
            Process::Palt(a, branches) => {
                let branches = branches
                    .iter()
                    .map(|b: &PaltBranch| (b.weight, b.assignments.as_slice(), &b.then));
                self.choice(entry, ctx, a.0, branches);
            }
            Process::Alt(choices) => {
                for choice in choices {
                    self.compile_at(choice, entry, ctx.clone());
                }
            }
            Process::When(e, inner) => {
                let mut ctx = ctx;
                ctx.guard_data = Some(match ctx.guard_data.take() {
                    Some(g) => g & e.clone(),
                    None => e.clone(),
                });
                self.compile_at(inner, entry, ctx);
            }
            Process::WhenClock(atom, inner) => {
                let mut ctx = ctx;
                ctx.guard_clocks.push(*atom);
                self.compile_at(inner, entry, ctx);
            }
            Process::Invariant(atoms, inner) => {
                let mut ctx = ctx;
                ctx.invariant.extend(atoms.iter().copied());
                self.compile_at(inner, entry, ctx);
            }
            Process::Call(name) => {
                // A bare call in initial position: behave as the called
                // process from this entry. Compile the body directly at
                // `entry` (guards/invariants from the context apply to its
                // initial actions).
                let body = self
                    .model
                    .process(name)
                    .unwrap_or_else(|| panic!("call of undefined process {name}"))
                    .clone();
                self.compile_at(&body, entry, ctx);
            }
        }
    }

    /// Adds the action `action` at `entry` with its branches, each a
    /// weight, assignments and a continuation.
    fn choice<'p>(
        &mut self,
        entry: usize,
        ctx: Ctx,
        action: usize,
        branches: impl IntoIterator<Item = (u64, &'p [Assignment], &'p Process)>,
    ) {
        self.locations[entry]
            .1
            .extend(ctx.invariant.iter().copied());
        let branches = branches
            .into_iter()
            .map(|(weight, assignments, then)| Branch {
                weight,
                update: update(assignments),
                resets: assignments
                    .iter()
                    .filter_map(|a| match a {
                        Assignment::Clock(c, v) => Some((*c, *v)),
                        _ => None,
                    })
                    .collect(),
                to: self.continuation_target(then),
            })
            .collect();
        self.choices.push(Choice {
            from: entry,
            guard_clocks: ctx.guard_clocks,
            guard_data: ctx.guard_data.unwrap_or_else(Expr::truth),
            action,
            branches,
        });
    }

    /// The location where a continuation process starts: a shared entry
    /// for tail calls, a fresh location otherwise.
    fn continuation_target(&mut self, then: &Process) -> usize {
        match then {
            Process::Call(name) => self.call_entry(name),
            _ => {
                let loc = self.fresh_location(&format!("l{}", self.locations.len()));
                self.compile_at(then, loc, Ctx::default());
                loc
            }
        }
    }
}

/// The data assignments of a branch as one update, in order.
fn update(assignments: &[Assignment]) -> Stmt {
    let mut stmts: Vec<Stmt> = assignments
        .iter()
        .filter_map(|a| match a {
            Assignment::Var(v, e) => Some(Stmt::assign(*v, e.clone())),
            Assignment::ArrayElem(v, i, e) => Some(Stmt::assign_index(*v, i.clone(), e.clone())),
            Assignment::Clock(_, _) => None,
        })
        .collect();
    match stmts.len() {
        0 => Stmt::skip(),
        1 => stmts.pop().expect("one statement"),
        _ => Stmt::seq(stmts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{DigitalExplorer, DigitalState, LocationId, SyncDir, Transitions};

    /// The transitions of `state`, in a fresh buffer.
    fn transitions(exp: &DigitalExplorer<'_>, state: &DigitalState) -> Transitions {
        let mut out = Transitions::default();
        exp.transitions(state, &mut out);
        out
    }

    #[test]
    fn fig5_channel_compiles_to_three_locations() {
        // put palt { :98: {c:=0}; invariant(c<=1) get  :2: skip }; Channel()
        let mut m = ModestModel::new();
        let c = m.clock("c");
        let put = m.action("put");
        let get = m.action("get");
        let body = Process::palt(
            put,
            vec![
                PaltBranch {
                    weight: 98,
                    assignments: vec![Assignment::Clock(c, 0)],
                    then: Process::invariant(
                        vec![ClockAtom::le(c, 1)],
                        Process::act(get, Process::skip()),
                    ),
                },
                PaltBranch {
                    weight: 2,
                    assignments: vec![],
                    then: Process::skip(),
                },
            ],
        )
        .then(Process::call("Channel"));
        m.define("Channel", body);
        m.system(&["Channel"]);
        let _ = (put, get);
        let net = compile(&m);
        assert_eq!(net.automata().len(), 1);
        let a = &net.automata()[0];
        // Continuations compile before their edges: the `get` edge comes
        // first, then the two branches of `put`, the second continuing
        // the first's choice.
        assert_eq!(a.edges.len(), 3);
        let (get_edge, put_edges) = (&a.edges[0], &a.edges[1..]);
        assert_eq!(
            get_edge.to, a.initial,
            "get returns to the entry (tail call)"
        );
        assert_eq!(
            put_edges
                .iter()
                .map(|e| (e.weight, e.continues_choice))
                .collect::<Vec<_>>(),
            vec![(98, false), (2, true)]
        );
        assert_eq!(put_edges[1].to, a.initial, "lost → restart");
        let transit = put_edges[0].to;
        assert_eq!(
            a.locations[transit.index()].invariant,
            vec![ClockAtom::le(c, 1)]
        );
        // Used by one component only: internal moves.
        assert!(a.edges.iter().all(|e| e.sync.is_none()));
    }

    #[test]
    fn probabilities_normalize() {
        let mut m = ModestModel::new();
        let toss = m.action("toss");
        let heads = m.decls_mut().int("heads", 0, 1);
        m.define(
            "Coin",
            Process::palt(
                toss,
                vec![
                    PaltBranch {
                        weight: 1,
                        assignments: vec![Assignment::Var(heads, Expr::konst(1))],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 3,
                        assignments: vec![],
                        then: Process::stop(),
                    },
                ],
            ),
        );
        m.system(&["Coin"]);
        let net = compile(&m);
        let exp = DigitalExplorer::new(&net);
        let ts = transitions(&exp, &exp.initial_state());
        assert_eq!(ts.len(), 1);
        let probs: Vec<f64> = ts[0].iter().map(|(p, _)| *p).collect();
        assert_eq!(probs, vec![0.25, 0.75]);
        assert_eq!(
            exp.moves(&exp.initial_state()).len(),
            2,
            "one move per branch"
        );
    }

    #[test]
    fn paired_actions_synchronize() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let done = m.decls_mut().int("done", 0, 2);
        m.define(
            "P",
            Process::act_with(
                a,
                vec![Assignment::Var(done, Expr::var(done) + Expr::konst(1))],
                Process::stop(),
            ),
        );
        m.define(
            "Q",
            Process::act_with(
                a,
                vec![Assignment::Var(done, Expr::var(done) + Expr::konst(1))],
                Process::stop(),
            ),
        );
        m.system(&["P", "Q"]);
        let _ = a;
        let net = compile(&m);
        let dirs: Vec<Option<SyncDir>> = net
            .automata()
            .iter()
            .map(|a| a.edges[0].sync.as_ref().map(|s| s.dir))
            .collect();
        assert_eq!(
            dirs,
            vec![Some(SyncDir::Send), Some(SyncDir::Recv)],
            "the first user sends"
        );
        let exp = DigitalExplorer::new(&net);
        let ts = transitions(&exp, &exp.initial_state());
        assert_eq!(ts.len(), 1, "one joint handshake");
        let (p, next) = &ts[0][0];
        assert_eq!(*p, 1.0);
        assert_eq!(next.store.get(done), 2, "both updates applied");
    }

    #[test]
    fn a_handshake_multiplies_both_choices_sender_outermost() {
        let mut m = ModestModel::new();
        let a = m.action("a");
        let (s, r) = (m.decls_mut().int("s", 0, 2), m.decls_mut().int("r", 0, 2));
        let coin = |v, w1, w2| {
            Process::palt(
                a,
                vec![
                    PaltBranch {
                        weight: w1,
                        assignments: vec![Assignment::Var(v, Expr::konst(1))],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: w2,
                        assignments: vec![Assignment::Var(v, Expr::konst(2))],
                        then: Process::stop(),
                    },
                ],
            )
        };
        m.define("P", coin(s, 1, 3));
        m.define("Q", coin(r, 1, 1));
        m.system(&["P", "Q"]);
        let net = compile(&m);
        let exp = DigitalExplorer::new(&net);
        let ts = transitions(&exp, &exp.initial_state());
        assert_eq!(ts.len(), 1);
        let got: Vec<(f64, i64, i64)> = ts[0]
            .iter()
            .map(|(p, n)| (*p, n.store.get(s), n.store.get(r)))
            .collect();
        assert_eq!(
            got,
            vec![(0.125, 1, 1), (0.125, 1, 2), (0.375, 2, 1), (0.375, 2, 2)]
        );
    }

    #[test]
    fn a_refused_branch_drops_the_whole_transition() {
        // The heavy branch overflows `v`, so the transition is gone,
        // not renormalised onto the light branch.
        let mut m = ModestModel::new();
        let toss = m.action("toss");
        let v = m.decls_mut().int("v", 0, 1);
        m.define(
            "P",
            Process::palt(
                toss,
                vec![
                    PaltBranch {
                        weight: 1,
                        assignments: vec![],
                        then: Process::stop(),
                    },
                    PaltBranch {
                        weight: 9,
                        assignments: vec![Assignment::Var(v, Expr::konst(5))],
                        then: Process::stop(),
                    },
                ],
            ),
        );
        m.system(&["P"]);
        let net = compile(&m);
        let exp = DigitalExplorer::new(&net);
        let s0 = exp.initial_state();
        assert!(transitions(&exp, &s0).is_empty());
        assert_eq!(
            exp.moves(&s0).len(),
            1,
            "the light branch alone still moves"
        );
        assert_eq!(exp.moves(&s0)[0].1.locs[0], LocationId(1));
    }

    #[test]
    fn when_guards_apply() {
        let mut m = ModestModel::new();
        let go = m.action("go");
        let flag = m.decls_mut().int("flag", 0, 1);
        m.define(
            "P",
            Process::when(
                Expr::var(flag).eq(Expr::konst(1)),
                Process::act(go, Process::stop()),
            ),
        );
        m.system(&["P"]);
        let net = compile(&m);
        let exp = DigitalExplorer::new(&net);
        assert!(
            transitions(&exp, &exp.initial_state()).is_empty(),
            "flag == 0 blocks go"
        );
    }

    #[test]
    fn clock_guards_and_tick() {
        let mut m = ModestModel::new();
        let x = m.clock("x");
        let go = m.action("go");
        m.define(
            "P",
            Process::when_clock(ClockAtom::ge(x, 2), Process::act(go, Process::stop())),
        );
        m.system(&["P"]);
        let net = compile(&m);
        let exp = DigitalExplorer::new(&net);
        let s0 = exp.initial_state();
        assert!(transitions(&exp, &s0).is_empty());
        let s1 = exp.tick(&s0).unwrap();
        let s2 = exp.tick(&s1).unwrap();
        assert_eq!(transitions(&exp, &s2).len(), 1);
    }
}
