//! Stable structural fingerprints for networks and state formulas.
//!
//! These [`StableDigest`] implementations let the analysis service key
//! its verdict cache by model content: two builds of the same network
//! fingerprint identically, and renaming automata, locations, clocks or
//! channels does not change the fingerprint (names are diagnostics; the
//! verdict depends only on structure). Where the semantics are
//! order-independent — the atoms of a guard or invariant conjunction,
//! the operands of `And`/`Or` formulas — the digest folds commutatively,
//! so syntactic reordering also shares cache entries. Everything indexed
//! (automata, locations, edges, channels) hashes in order, because
//! indices are the identity the model refers to.

use crate::model::{
    Automaton, Channel, ChannelKind, ClockAtom, Edge, Location, LocationKind, Network, Sync,
    SyncDir,
};
use crate::StateFormula;
use tempo_obs::{Fingerprint, StableDigest, StableHasher};

impl StableDigest for ClockAtom {
    fn digest(&self, h: &mut StableHasher) {
        h.write_usize(self.i.index());
        h.write_usize(self.j.index());
        h.write_i64(self.bound.raw());
    }
}

impl StableDigest for Sync {
    fn digest(&self, h: &mut StableHasher) {
        h.write_usize(self.channel.index());
        self.index.digest(h);
        h.write_u8(match self.dir {
            SyncDir::Send => 0,
            SyncDir::Recv => 1,
        });
    }
}

impl StableDigest for Edge {
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("edge");
        h.write_usize(self.from.index());
        h.write_usize(self.to.index());
        h.write_usize(self.selects.len());
        for (lo, hi) in &self.selects {
            h.write_i64(*lo);
            h.write_i64(*hi);
        }
        // A guard is a conjunction: reordering its atoms preserves the
        // edge's semantics.
        h.write_unordered(self.guard_clocks.iter().map(Fingerprint::of));
        self.guard_data.digest(h);
        self.sync.digest(h);
        // Resets stay ordered: duplicate targets resolve last-wins.
        h.write_usize(self.resets.len());
        for (clock, e) in &self.resets {
            h.write_usize(clock.index());
            e.digest(h);
        }
        self.update.digest(h);
        h.write_bool(self.controllable);
        // A Dirac edge digests as it did before edges carried weights.
        if self.weight != 1 || self.continues_choice {
            h.write_tag("branch");
            h.write_u64(self.weight);
            h.write_bool(self.continues_choice);
        }
    }
}

impl StableDigest for Location {
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("location");
        h.write_u8(match self.kind {
            LocationKind::Normal => 0,
            LocationKind::Urgent => 1,
            LocationKind::Committed => 2,
        });
        h.write_unordered(self.invariant.iter().map(Fingerprint::of));
    }
}

impl StableDigest for Automaton {
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("automaton");
        self.locations.digest(h);
        self.edges.digest(h);
        h.write_usize(self.initial.index());
    }
}

impl StableDigest for Channel {
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("channel");
        h.write_usize(self.size);
        h.write_u8(match self.kind {
            ChannelKind::Binary => 0,
            ChannelKind::Broadcast => 1,
        });
        h.write_bool(self.urgent);
    }
}

impl StableDigest for Network {
    fn digest(&self, h: &mut StableHasher) {
        h.write_tag("network");
        self.decls().digest(h);
        // Clocks are identified by index; only their count is structure.
        h.write_usize(self.dim());
        self.channels().digest(h);
        self.automata().digest(h);
    }
}

impl StableDigest for StateFormula {
    fn digest(&self, h: &mut StableHasher) {
        match self {
            StateFormula::True => h.write_u8(0),
            StateFormula::False => h.write_u8(1),
            StateFormula::At(a, l) => {
                h.write_u8(2);
                h.write_usize(a.index());
                h.write_usize(l.index());
            }
            StateFormula::Data(e) => {
                h.write_u8(3);
                e.digest(h);
            }
            StateFormula::Clock(atom) => {
                h.write_u8(4);
                atom.digest(h);
            }
            StateFormula::Not(f) => {
                h.write_u8(5);
                f.digest(h);
            }
            StateFormula::And(fs) => {
                h.write_u8(6);
                h.write_unordered(fs.iter().map(Fingerprint::of));
            }
            StateFormula::Or(fs) => {
                h.write_u8(7);
                h.write_unordered(fs.iter().map(Fingerprint::of));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use tempo_obs::Fingerprint;

    fn lamp(name: &str, bound: i64) -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton(name);
        let off = a.location("Off");
        let on = a.location_with_invariant("On", vec![ClockAtom::le(x, bound)]);
        a.edge(off, on).reset(x, 0).done();
        a.edge(on, off).guard_clock(ClockAtom::ge(x, 1)).done();
        a.done();
        b.build()
    }

    #[test]
    fn rebuilding_and_renaming_preserve_fingerprint() {
        assert_eq!(
            Fingerprint::of(&lamp("Lamp", 10)),
            Fingerprint::of(&lamp("Lamp", 10))
        );
        assert_eq!(
            Fingerprint::of(&lamp("Lamp", 10)),
            Fingerprint::of(&lamp("Renamed", 10))
        );
        assert_ne!(
            Fingerprint::of(&lamp("Lamp", 10)),
            Fingerprint::of(&lamp("Lamp", 11))
        );
    }

    #[test]
    fn guard_atom_order_is_irrelevant() {
        let build = |swap: bool| {
            let mut b = NetworkBuilder::new();
            let x = b.clock("x");
            let y = b.clock("y");
            let mut a = b.automaton("A");
            let l0 = a.location("L0");
            let (g1, g2) = (ClockAtom::ge(x, 2), ClockAtom::le(y, 7));
            let e = a.edge(l0, l0);
            let e = if swap {
                e.guard_clock(g2).guard_clock(g1)
            } else {
                e.guard_clock(g1).guard_clock(g2)
            };
            e.done();
            a.done();
            b.build()
        };
        assert_eq!(
            Fingerprint::of(&build(false)),
            Fingerprint::of(&build(true))
        );
    }

    #[test]
    fn formula_conjunction_order_is_irrelevant() {
        let net = lamp("Lamp", 10);
        let x = net.clock_by_name("x").unwrap();
        let f1 = StateFormula::and(vec![
            StateFormula::clock(ClockAtom::ge(x, 2)),
            StateFormula::clock(ClockAtom::le(x, 4)),
        ]);
        let f2 = StateFormula::and(vec![
            StateFormula::clock(ClockAtom::le(x, 4)),
            StateFormula::clock(ClockAtom::ge(x, 2)),
        ]);
        assert_eq!(Fingerprint::of(&f1), Fingerprint::of(&f2));
        // And vs Or with the same operands must differ.
        let g = StateFormula::or(vec![
            StateFormula::clock(ClockAtom::le(x, 4)),
            StateFormula::clock(ClockAtom::ge(x, 2)),
        ]);
        assert_ne!(Fingerprint::of(&f1), Fingerprint::of(&g));
    }

    #[test]
    fn dirac_edges_digest_as_before_and_weights_are_structure() {
        let coin = |w: [(u64, bool); 2]| {
            let mut b = NetworkBuilder::new();
            let mut a = b.automaton("Coin");
            let toss = a.location("Toss");
            let heads = a.location("Heads");
            a.edge(toss, heads).branch(w[0].0, w[0].1).done();
            a.edge(toss, toss).branch(w[1].0, w[1].1).done();
            a.done();
            Fingerprint::of(&b.build())
        };
        let plain = {
            let mut b = NetworkBuilder::new();
            let mut a = b.automaton("Coin");
            let toss = a.location("Toss");
            let heads = a.location("Heads");
            a.edge(toss, heads).done();
            a.edge(toss, toss).done();
            a.done();
            Fingerprint::of(&b.build())
        };
        assert_eq!(coin([(1, false), (1, false)]), plain);
        assert_ne!(coin([(1, false), (1, true)]), plain);
        assert_ne!(coin([(1, false), (1, true)]), coin([(1, false), (2, true)]));
    }
}
