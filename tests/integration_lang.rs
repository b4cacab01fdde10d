//! Frontend integration tests: the pretty-printer round-trip contract
//! (`parse(render(m)) == m`) over randomly generated well-formed
//! models, and golden canonical renderings of one corpus problem per
//! tier.
//!
//! The generator builds ASTs directly (spans default to zero; AST
//! equality ignores them), respecting everything the parser validates:
//! events and sync sets name declared channels (TL003), calls and
//! components name defined processes with matching arity (TL005),
//! instance names are unique (TL004), and asserts only reference
//! component instances of the `system` line (TL007).
//!
//! Set `TEMPO_BLESS=1` to regenerate the golden files after an
//! intentional canonical-form change.

use proptest::{proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use tempo_core::lang::ast::{
    AssertDef, AssertKind, ChannelDecl, ChannelKind, ClockConstraint, ClockDecl, ClockRef, CmpOp,
    Component, EventSpec, Formula, GuardAtom, Ident, IntExpr, IntOp, Model, ParamDecl, Proc,
    ProcessDef, SmcOpts, SystemDef, Update, VarDecl,
};
use tempo_core::lang::{parse, render};

// ---------------------------------------------------------------- generator

/// Declared-name pools threaded through the generator so every
/// reference the parser validates resolves.
struct Pools {
    params: Vec<String>,
    channels: Vec<String>,
    clocks: Vec<String>,
    /// `(name, upper bound)` — assignments stay inside the range.
    vars: Vec<(String, i64)>,
    procs: Vec<String>,
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn ident(name: impl AsRef<str>) -> Ident {
    Ident::new(name.as_ref())
}

fn gen_cmp(rng: &mut StdRng) -> CmpOp {
    *pick(rng, &[CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt])
}

/// A compile-time integer expression over params and literals.
fn gen_bound(rng: &mut StdRng, pools: &Pools) -> IntExpr {
    match rng.gen_range(0..6u32) {
        0..=2 => IntExpr::Lit(rng.gen_range(0..=9i64)),
        3 if !pools.params.is_empty() => IntExpr::Name(ident(pick(rng, &pools.params))),
        4 if !pools.params.is_empty() => IntExpr::Bin(
            *pick(rng, &[IntOp::Add, IntOp::Sub, IntOp::Mul]),
            Box::new(IntExpr::Name(ident(pick(rng, &pools.params)))),
            Box::new(IntExpr::Lit(rng.gen_range(1..=4i64))),
        ),
        _ => IntExpr::Lit(rng.gen_range(0..=9i64)),
    }
}

fn gen_clock_constraint(rng: &mut StdRng, pools: &Pools, invariant: bool) -> ClockConstraint {
    let op = if invariant {
        *pick(rng, &[CmpOp::Le, CmpOp::Lt])
    } else {
        gen_cmp(rng)
    };
    ClockConstraint {
        clock: ClockRef {
            name: ident(pick(rng, &pools.clocks)),
            index: None,
        },
        minus: None,
        op,
        bound: gen_bound(rng, pools),
    }
}

fn gen_guards(rng: &mut StdRng, pools: &Pools) -> Vec<GuardAtom> {
    let mut guards = Vec::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        if !pools.clocks.is_empty() && rng.gen_bool(0.5) {
            guards.push(GuardAtom::Clock(gen_clock_constraint(rng, pools, false)));
        } else if !pools.vars.is_empty() {
            let (v, hi) = pick(rng, &pools.vars).clone();
            guards.push(GuardAtom::Data(
                IntExpr::Name(ident(&v)),
                gen_cmp(rng),
                IntExpr::Lit(rng.gen_range(0..=hi)),
            ));
        }
    }
    guards
}

fn gen_updates(rng: &mut StdRng, pools: &Pools) -> Vec<Update> {
    let mut updates = Vec::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        if !pools.clocks.is_empty() && rng.gen_bool(0.5) {
            updates.push(Update::ClockReset(
                ClockRef {
                    name: ident(pick(rng, &pools.clocks)),
                    index: None,
                },
                IntExpr::Lit(0),
            ));
        } else if !pools.vars.is_empty() {
            let (v, hi) = pick(rng, &pools.vars).clone();
            updates.push(Update::Assign(
                ident(&v),
                None,
                IntExpr::Lit(rng.gen_range(0..=hi)),
            ));
        }
    }
    updates
}

fn gen_event(rng: &mut StdRng, pools: &Pools) -> EventSpec {
    match rng.gen_range(0..5u32) {
        0 => EventSpec::Tau,
        n if n % 2 == 1 => EventSpec::Send(ident(pick(rng, &pools.channels))),
        _ => EventSpec::Recv(ident(pick(rng, &pools.channels))),
    }
}

fn gen_leaf(rng: &mut StdRng, pools: &Pools) -> Proc {
    match rng.gen_range(0..4u32) {
        0 => Proc::Stop,
        1 => Proc::Skip,
        _ => Proc::Call(ident(pick(rng, &pools.procs)), Vec::new()),
    }
}

fn gen_proc(rng: &mut StdRng, pools: &Pools, depth: u32) -> Proc {
    if depth == 0 {
        return gen_leaf(rng, pools);
    }
    match rng.gen_range(0..8u32) {
        0 => gen_leaf(rng, pools),
        1 | 2 if !pools.clocks.is_empty() => {
            let n = rng.gen_range(1..=2usize);
            let atoms = (0..n)
                .map(|_| gen_clock_constraint(rng, pools, true))
                .collect();
            Proc::Invariant(atoms, Box::new(gen_proc(rng, pools, depth - 1)))
        }
        3 => {
            let n = rng.gen_range(2..=3usize);
            Proc::ExtChoice((0..n).map(|_| gen_proc(rng, pools, depth - 1)).collect())
        }
        4 => {
            let n = rng.gen_range(2..=3usize);
            Proc::IntChoice((0..n).map(|_| gen_proc(rng, pools, depth - 1)).collect())
        }
        _ => Proc::Prefix {
            guards: gen_guards(rng, pools),
            event: gen_event(rng, pools),
            updates: gen_updates(rng, pools),
            then: Box::new(gen_proc(rng, pools, depth - 1)),
        },
    }
}

fn gen_formula(rng: &mut StdRng, pools: &Pools, instances: &[String], depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.4) {
        // Atom.
        return match rng.gen_range(0..5u32) {
            0 => Formula::True,
            1 => Formula::False,
            2 if !pools.clocks.is_empty() => {
                Formula::Clock(gen_clock_constraint(rng, pools, false))
            }
            3 if !pools.vars.is_empty() => {
                let (v, hi) = pick(rng, &pools.vars).clone();
                Formula::Data(
                    IntExpr::Name(ident(&v)),
                    gen_cmp(rng),
                    IntExpr::Lit(rng.gen_range(0..=hi)),
                )
            }
            _ if !instances.is_empty() => {
                Formula::AtLoc(ident(pick(rng, instances)), ident(pick(rng, &pools.procs)))
            }
            _ => Formula::True,
        };
    }
    match rng.gen_range(0..3u32) {
        0 => Formula::Not(Box::new(gen_formula(rng, pools, instances, depth - 1))),
        1 => {
            let n = rng.gen_range(2..=3usize);
            Formula::And(
                (0..n)
                    .map(|_| gen_formula(rng, pools, instances, depth - 1))
                    .collect(),
            )
        }
        _ => {
            let n = rng.gen_range(2..=3usize);
            Formula::Or(
                (0..n)
                    .map(|_| gen_formula(rng, pools, instances, depth - 1))
                    .collect(),
            )
        }
    }
}

const PROBS: [f64; 8] = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];
const CONFIDENCES: [f64; 3] = [0.9, 0.95, 0.99];

fn gen_assert(rng: &mut StdRng, pools: &Pools, instances: &[String]) -> AssertKind {
    match rng.gen_range(0..8u32) {
        0 => AssertKind::DeadlockFree,
        1 => AssertKind::Reach(gen_formula(rng, pools, instances, 2)),
        2 => AssertKind::Always(gen_formula(rng, pools, instances, 2)),
        3 => AssertKind::LeadsTo(
            gen_formula(rng, pools, instances, 1),
            gen_formula(rng, pools, instances, 1),
        ),
        4 => AssertKind::Pmax(
            gen_formula(rng, pools, instances, 1),
            gen_cmp(rng),
            *pick(rng, &PROBS),
        ),
        5 => AssertKind::Pmin(
            gen_formula(rng, pools, instances, 1),
            gen_cmp(rng),
            *pick(rng, &PROBS),
        ),
        6 => AssertKind::Pr {
            bound: gen_bound(rng, pools),
            goal: gen_formula(rng, pools, instances, 1),
            cmp: gen_cmp(rng),
            prob: *pick(rng, &PROBS),
            opts: SmcOpts {
                runs: rng.gen_bool(0.5).then(|| rng.gen_range(10..=500u64)),
                confidence: rng.gen_bool(0.5).then(|| *pick(rng, &CONFIDENCES)),
            },
        },
        _ => {
            if rng.gen_bool(0.5) {
                AssertKind::Refines(ident(pick(rng, instances)), ident(pick(rng, instances)))
            } else {
                AssertKind::Ioco(ident(pick(rng, instances)), ident(pick(rng, instances)))
            }
        }
    }
}

/// A random well-formed model: declarations, zero-arity process
/// definitions, a `system` line over distinct instances, and asserts
/// restricted to names the parser accepts.
fn gen_model(rng: &mut StdRng) -> Model {
    let mut pools = Pools {
        params: Vec::new(),
        channels: Vec::new(),
        clocks: Vec::new(),
        vars: Vec::new(),
        procs: vec!["P".to_owned(), "Q".to_owned()],
    };
    let mut model = Model::default();

    for name in ["N", "M"] {
        if rng.gen_bool(0.5) {
            pools.params.push(name.to_owned());
            model.params.push(ParamDecl {
                name: ident(name),
                value: rng.gen_range(1..=5i64),
            });
        }
    }
    for name in ["a", "b", "c"] {
        if name == "a" || rng.gen_bool(0.6) {
            pools.channels.push(name.to_owned());
            model.channels.push(ChannelDecl {
                kind: *pick(
                    rng,
                    &[
                        ChannelKind::Handshake,
                        ChannelKind::Handshake,
                        ChannelKind::Urgent,
                        ChannelKind::Broadcast,
                    ],
                ),
                names: vec![ident(name)],
            });
        }
    }
    for name in ["x", "y"] {
        if rng.gen_bool(0.6) {
            pools.clocks.push(name.to_owned());
            model.clocks.push(ClockDecl {
                name: ident(name),
                size: None,
            });
        }
    }
    for name in ["v", "w"] {
        if rng.gen_bool(0.5) {
            let hi = rng.gen_range(1..=5i64);
            pools.vars.push((name.to_owned(), hi));
            model.vars.push(VarDecl {
                name: ident(name),
                size: None,
                lo: IntExpr::Lit(0),
                hi: IntExpr::Lit(hi),
                init: rng.gen_bool(0.5).then_some(IntExpr::Lit(0)),
            });
        }
    }
    if rng.gen_bool(0.4) {
        pools.procs.push("R".to_owned());
    }

    for name in pools.procs.clone() {
        let body = gen_proc(rng, &pools, 3);
        model.processes.push(ProcessDef {
            name: ident(&name),
            params: Vec::new(),
            body,
        });
    }

    // A system over distinct process instances; every assert needs one.
    let n_components = rng.gen_range(1..=pools.procs.len());
    let components: Vec<Component> = pools.procs[..n_components]
        .iter()
        .map(|p| Component {
            process: ident(p),
            args: Vec::new(),
            hide: if rng.gen_bool(0.2) {
                vec![ident(pick(rng, &pools.channels))]
            } else {
                Vec::new()
            },
            rename: if rng.gen_bool(0.2) {
                let old = pick(rng, &pools.channels).clone();
                let new = pick(rng, &pools.channels).clone();
                vec![(ident(&old), ident(&new))]
            } else {
                Vec::new()
            },
            alias: None,
        })
        .collect();
    let instances: Vec<String> = components
        .iter()
        .map(|c| c.instance_name().to_owned())
        .collect();
    let syncs: Vec<Vec<Ident>> = (1..n_components)
        .map(|_| {
            pools
                .channels
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(ident)
                .collect()
        })
        .collect();
    model.system = Some(SystemDef { components, syncs });

    for _ in 0..rng.gen_range(0..=3u32) {
        model.asserts.push(AssertDef {
            kind: gen_assert(rng, &pools, &instances),
            span: Default::default(),
        });
    }
    model
}

// ---------------------------------------------------------------- round-trip

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(render(m)) == m`, and a second render is a fixpoint.
    #[test]
    fn pretty_printer_round_trips(seed in 0u64..1_000_000u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = gen_model(&mut rng);
        let text = render(&m);
        let reparsed = parse(&text).unwrap_or_else(|e| {
            panic!("generated model must parse, got {} at {}: {}\n{text}", e.code, e.span, e.message)
        });
        assert_eq!(reparsed, m, "parse ∘ render must be the identity\n{text}");
        assert_eq!(render(&reparsed), text, "render must be a fixpoint after one round");
    }
}

// ------------------------------------------------------------------- golden

/// One corpus problem per tier whose canonical rendering is pinned.
const GOLDEN: [&str; 6] = [
    "P001_constructs",
    "P100_handshake",
    "P200_train_gate",
    "P300_refinement",
    "P400_pmax",
    "P401_pr_smc",
];

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; the repo root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The canonical rendering of each pinned corpus problem matches its
/// committed golden file, and the golden file parses back to the same
/// model.
#[test]
fn corpus_goldens_are_canonical() {
    let bless = std::env::var_os("TEMPO_BLESS").is_some();
    for name in GOLDEN {
        let source = std::fs::read_to_string(repo_root().join(format!("corpus/{name}.tempo")))
            .unwrap_or_else(|e| panic!("{name}: corpus file unreadable: {e}"));
        let model = parse(&source).unwrap_or_else(|e| panic!("{name}: corpus model parses: {e}"));
        let canonical = render(&model);
        let golden_path = repo_root().join(format!("tests/golden/{name}.tempo"));
        if bless {
            std::fs::write(&golden_path, &canonical)
                .unwrap_or_else(|e| panic!("{name}: cannot bless golden: {e}"));
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("{name}: golden file missing ({e}); run with TEMPO_BLESS=1 to create it")
        });
        assert_eq!(
            canonical, golden,
            "{name}: canonical rendering drifted from tests/golden/{name}.tempo \
             (re-bless with TEMPO_BLESS=1 if intentional)"
        );
        let reparsed = parse(&golden).unwrap_or_else(|e| panic!("{name}: golden must parse: {e}"));
        assert_eq!(
            reparsed, model,
            "{name}: golden parses back to the corpus model"
        );
    }
}
