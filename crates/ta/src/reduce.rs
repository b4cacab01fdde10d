//! Active-clock reduction (Daws–Yovine): shrink the DBM dimension by
//! removing clocks that no guard, invariant or property ever reads.
//!
//! The paper's tools run this analysis before touching a zone graph:
//! UPPAAL's *active-clock reduction* computes, for every location, the
//! set of clocks whose value can still influence the future behaviour,
//! and projects the rest away. This module does it globally:
//! [`Network::reduced`] / [`Network::reduced_with`] remove a clock that
//! no guard, invariant or property atom reads and whose resets are all
//! non-negative constants from the network outright, shrinking every
//! DBM the engines manipulate. Its value is never observed and its
//! resets never refuse a move (`x := v - 1` would at `v = 0`), so every
//! verdict is identical by construction; only the zone dimension (and
//! thus time/memory per state) changes.

use crate::formula::StateFormula;
use crate::model::{Automaton, ClockAtom, Edge, Location, Network};
use tempo_dbm::Clock;
use tempo_expr::Expr;

/// Marks the clocks read by one constraint atom.
fn feed_atom(read: &mut [bool], atom: &ClockAtom) {
    read[atom.i.index()] = true;
    read[atom.j.index()] = true;
}

/// The result of active-clock reduction: a network with dead clocks
/// removed, plus the mapping from original clocks to reduced ones.
///
/// Locations, edges, automata, channels and variables keep their exact
/// indices — only the clock table changes — so verdicts, traces and
/// property atoms over locations and data carry over unchanged.
#[derive(Debug, Clone)]
pub struct ClockReduction {
    net: Network,
    /// `map[i]` is the reduced index of original clock `i`, or `None`
    /// when the clock was removed. `map[0]` is always the reference
    /// clock.
    map: Vec<Option<Clock>>,
    removed: Vec<String>,
    original_dim: usize,
}

impl ClockReduction {
    /// The reduced network.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// DBM dimension after reduction.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.net.dim()
    }

    /// DBM dimension of the original network.
    #[must_use]
    pub fn original_dim(&self) -> usize {
        self.original_dim
    }

    /// Names of the clocks that were removed.
    #[must_use]
    pub fn removed(&self) -> &[String] {
        &self.removed
    }

    /// Whether any clock was removed.
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        self.dim() < self.original_dim
    }

    /// Maps an original clock to its reduced index (`None` if removed).
    #[must_use]
    pub fn map_clock(&self, c: Clock) -> Option<Clock> {
        self.map.get(c.index()).copied().flatten()
    }

    /// Original indices of the kept clocks, in reduced order (`kept()[k]`
    /// is the original index of reduced clock `k`; `kept()[0] == 0` is
    /// the reference clock). Projecting a concrete clock valuation of the
    /// original network through this vector yields the corresponding
    /// valuation of the reduced network: kept clocks share resets,
    /// constraints and therefore clamping constants in both networks.
    #[must_use]
    pub fn kept(&self) -> Vec<usize> {
        let mut kept = vec![0; self.dim()];
        for (orig, m) in self.map.iter().enumerate() {
            if let Some(nc) = m {
                kept[nc.index()] = orig;
            }
        }
        kept
    }

    /// Maps a constraint atom into the reduced clock space (`None` if it
    /// mentions a removed clock).
    #[must_use]
    pub fn map_atom(&self, atom: &ClockAtom) -> Option<ClockAtom> {
        Some(ClockAtom {
            i: self.map_clock(atom.i)?,
            j: self.map_clock(atom.j)?,
            bound: atom.bound,
        })
    }

    /// Maps a state formula into the reduced clock space. Returns `None`
    /// when the formula reads a removed clock — which cannot happen for
    /// formulas whose atoms were passed to [`Network::reduced_with`].
    #[must_use]
    pub fn map_formula(&self, f: &StateFormula) -> Option<StateFormula> {
        Some(match f {
            StateFormula::True => StateFormula::True,
            StateFormula::False => StateFormula::False,
            StateFormula::At(a, l) => StateFormula::At(*a, *l),
            StateFormula::Data(e) => StateFormula::Data(e.clone()),
            StateFormula::Clock(atom) => StateFormula::Clock(self.map_atom(atom)?),
            StateFormula::Not(g) => StateFormula::not(self.map_formula(g)?),
            StateFormula::And(gs) => StateFormula::and(
                gs.iter()
                    .map(|g| self.map_formula(g))
                    .collect::<Option<Vec<_>>>()?,
            ),
            StateFormula::Or(gs) => StateFormula::or(
                gs.iter()
                    .map(|g| self.map_formula(g))
                    .collect::<Option<Vec<_>>>()?,
            ),
        })
    }
}

impl Network {
    /// Active-clock reduction: removes every clock that no guard and no
    /// invariant reads. See [`Network::reduced_with`] to additionally
    /// protect clocks read by property atoms.
    #[must_use]
    pub fn reduced(&self) -> ClockReduction {
        self.reduced_with(&[])
    }

    /// Active-clock reduction keeping the clocks of `extra` atoms alive
    /// (use the property's [`StateFormula::clock_atoms`] so the query
    /// can still be evaluated on the reduced network).
    ///
    /// The reduced network has identical automata, locations, edges,
    /// channels and variables; only dead clocks (and their resets) are
    /// gone. Every reachability/safety/liveness/game verdict over the
    /// reduced network equals the verdict over the original, because a
    /// removed clock is read by no constraint anywhere and is reset only
    /// to non-negative constants, which never refuse a move.
    #[must_use]
    pub fn reduced_with(&self, extra: &[ClockAtom]) -> ClockReduction {
        self.reduced_to(&self.read_clocks(extra))
    }

    /// The read pass of active-clock reduction: `read[c]` is `true` iff
    /// clock `c` is the reference clock, is compared by a guard, an
    /// invariant or one of the `extra` atoms, or is reset to a value
    /// other than a non-negative constant.
    pub(crate) fn read_clocks(&self, extra: &[ClockAtom]) -> Vec<bool> {
        let mut read = vec![false; self.dim()];
        read[0] = true;
        for a in &self.automata {
            for l in &a.locations {
                for atom in &l.invariant {
                    feed_atom(&mut read, atom);
                }
            }
            for e in &a.edges {
                for atom in &e.guard_clocks {
                    feed_atom(&mut read, atom);
                }
                for (clock, value) in &e.resets {
                    if !matches!(value, Expr::Const(v) if *v >= 0) {
                        read[clock.index()] = true;
                    }
                }
            }
        }
        for atom in extra {
            feed_atom(&mut read, atom);
        }
        read
    }

    /// Removes every clock that `read` (from `read_clocks`)
    /// marks unread, together with its resets.
    pub(crate) fn reduced_to(&self, read: &[bool]) -> ClockReduction {
        let dim = self.dim();
        let mut map: Vec<Option<Clock>> = vec![None; dim];
        map[0] = Some(Clock::REF);
        let mut clock_names = Vec::new();
        let mut removed = Vec::new();
        for i in 1..dim {
            if read[i] {
                clock_names.push(self.clock_names[i - 1].clone());
                map[i] = Some(Clock(clock_names.len()));
            } else {
                removed.push(self.clock_names[i - 1].clone());
            }
        }

        let remap = |atom: &ClockAtom| ClockAtom {
            i: map[atom.i.index()].expect("read clocks are kept"),
            j: map[atom.j.index()].expect("read clocks are kept"),
            bound: atom.bound,
        };
        let automata = self
            .automata
            .iter()
            .map(|a| Automaton {
                name: a.name.clone(),
                locations: a
                    .locations
                    .iter()
                    .map(|l| Location {
                        name: l.name.clone(),
                        kind: l.kind,
                        invariant: l.invariant.iter().map(&remap).collect(),
                    })
                    .collect(),
                edges: a
                    .edges
                    .iter()
                    .map(|e| Edge {
                        from: e.from,
                        to: e.to,
                        selects: e.selects.clone(),
                        guard_clocks: e.guard_clocks.iter().map(&remap).collect(),
                        guard_data: e.guard_data.clone(),
                        sync: e.sync.clone(),
                        resets: e
                            .resets
                            .iter()
                            .filter_map(|(c, v)| map[c.index()].map(|nc| (nc, v.clone())))
                            .collect(),
                        update: e.update.clone(),
                        controllable: e.controllable,
                        weight: e.weight,
                        continues_choice: e.continues_choice,
                    })
                    .collect(),
                initial: a.initial,
            })
            .collect();

        ClockReduction {
            net: Network {
                decls: self.decls.clone(),
                clock_names,
                channels: self.channels.clone(),
                automata,
                id_vars: self.id_vars.clone(),
            },
            map,
            removed,
            original_dim: dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use crate::reach::ModelChecker;

    /// A network with one live clock `x` and one dead clock `d` that is
    /// reset but never read.
    fn net_with_dead_clock() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let d = b.clock("d");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 5)]);
        let l1 = a.location("L1");
        a.edge(l0, l1)
            .guard_clock(ClockAtom::ge(x, 2))
            .reset(d, 0)
            .done();
        a.edge(l1, l0).reset(x, 0).done();
        a.done();
        b.build()
    }

    #[test]
    fn dead_clock_is_removed() {
        let net = net_with_dead_clock();
        let red = net.reduced();
        assert_eq!(red.original_dim(), 3);
        assert_eq!(red.dim(), 2);
        assert!(red.is_reduced());
        assert_eq!(red.removed(), &["d".to_owned()]);
        assert_eq!(red.network().clock_names(), &["x".to_owned()]);
        // Resets of the removed clock are gone.
        assert!(red.network().automata()[0].edges[0].resets.is_empty());
    }

    #[test]
    fn extra_atoms_keep_clocks_alive() {
        let net = net_with_dead_clock();
        let d = net.clock_by_name("d").unwrap();
        let red = net.reduced_with(&[ClockAtom::le(d, 10)]);
        assert_eq!(red.dim(), 3, "property atom keeps d alive");
        assert!(!red.is_reduced());
    }

    #[test]
    fn atom_and_formula_remapping() {
        let net = net_with_dead_clock();
        let red = net.reduced();
        let x = net.clock_by_name("x").unwrap();
        let d = net.clock_by_name("d").unwrap();
        let mapped = red.map_atom(&ClockAtom::le(x, 5)).unwrap();
        assert_eq!(mapped.i, red.network().clock_by_name("x").unwrap());
        assert!(red.map_atom(&ClockAtom::le(d, 5)).is_none());
        let f = StateFormula::and(vec![
            StateFormula::clock(ClockAtom::ge(x, 1)),
            StateFormula::True,
        ]);
        assert!(red.map_formula(&f).is_some());
        assert!(red
            .map_formula(&StateFormula::clock(ClockAtom::le(d, 1)))
            .is_none());
    }

    #[test]
    fn kept_projects_reduced_indices_back() {
        // Clocks: d (dead), x (live) — forces a non-trivial remap.
        let mut b = NetworkBuilder::new();
        let d = b.clock("d");
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0)
            .guard_clock(ClockAtom::ge(x, 1))
            .reset(d, 0)
            .done();
        a.done();
        let net = b.build();
        let red = net.reduced();
        assert_eq!(red.kept(), vec![0, x.index()]);
        let _ = d;
    }

    #[test]
    fn verdicts_identical_after_reduction() {
        let net = net_with_dead_clock();
        let red = net.reduced();
        let aid = net.automaton_by_name("A").unwrap();
        let goal = StateFormula::at(aid, crate::model::LocationId(1));
        let full = ModelChecker::new(&net).reachable(&goal).reachable;
        let reduced = ModelChecker::new(red.network()).reachable(&goal).reachable;
        assert_eq!(full, reduced);
        let (v1, _) = ModelChecker::new(&net).deadlock_free();
        let (v2, _) = ModelChecker::new(red.network()).deadlock_free();
        assert_eq!(v1.holds(), v2.holds());
    }
}
