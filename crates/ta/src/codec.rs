//! Deterministic byte codec for symbolic states, and the [`Spillable`]
//! implementation that lets them spill out of a
//! [`tempo_obs::StateStore`].
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! u32 n_locs   | n_locs  × u32 location index
//! u32 n_vals   | n_vals  × i64 store value
//! u32 dim      | dim×dim × i64 raw DBM bound (row-major)
//! ```
//!
//! The encoding is canonical — one state, one byte string — because
//! zones are stored in canonical DBM form and the raw bound packing is
//! injective. Decoding re-closes the DBM defensively (identity on
//! canonical input), so deserialized bytes never carry semantic
//! authority; any structural defect is reported as a typed error
//! string that the spill store turns into
//! [`tempo_conc::SpillError::Corrupt`].

use crate::explore::SymState;
use crate::model::LocationId;
use tempo_dbm::{Bound, Dbm};
use tempo_expr::Store;
use tempo_obs::Spillable;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a record payload with typed truncation errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(format!(
                "state record truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Serializes a symbolic state into its canonical record payload.
#[must_use]
pub fn encode_state(state: &SymState) -> Vec<u8> {
    let dim = state.zone.dim();
    let mut out = Vec::with_capacity(
        4 * 3 + 4 * state.locs.len() + 8 * (state.store.as_slice().len() + dim * dim),
    );
    put_u32(
        &mut out,
        u32::try_from(state.locs.len()).expect("loc count fits u32"),
    );
    for l in &state.locs {
        put_u32(
            &mut out,
            u32::try_from(l.index()).expect("location index fits u32"),
        );
    }
    let vals = state.store.as_slice();
    put_u32(
        &mut out,
        u32::try_from(vals.len()).expect("store size fits u32"),
    );
    for &v in vals {
        put_i64(&mut out, v);
    }
    put_u32(&mut out, u32::try_from(dim).expect("dim fits u32"));
    for b in state.zone.as_slice() {
        put_i64(&mut out, b.raw());
    }
    out
}

/// Deserializes a symbolic state from a record payload.
///
/// # Errors
///
/// A description of the malformation (truncation, trailing bytes,
/// oversized dimensions) when `bytes` is not a valid encoding.
pub fn decode_state(bytes: &[u8]) -> Result<SymState, String> {
    let mut cur = Cursor { bytes, pos: 0 };
    let n_locs = cur.u32()? as usize;
    let mut locs = Vec::with_capacity(n_locs.min(1 << 16));
    for _ in 0..n_locs {
        locs.push(LocationId(cur.u32()? as usize));
    }
    let n_vals = cur.u32()? as usize;
    let mut vals = Vec::with_capacity(n_vals.min(1 << 16));
    for _ in 0..n_vals {
        vals.push(cur.i64()?);
    }
    let dim = cur.u32()? as usize;
    if dim == 0 {
        return Err("state record has zero DBM dimension".to_owned());
    }
    let cells = dim
        .checked_mul(dim)
        .ok_or_else(|| format!("state record DBM dimension {dim} overflows"))?;
    let mut bounds = Vec::with_capacity(cells.min(1 << 20));
    for _ in 0..cells {
        bounds.push(Bound::from_raw(cur.i64()?));
    }
    if cur.pos != bytes.len() {
        return Err(format!(
            "state record has {} trailing bytes",
            bytes.len() - cur.pos
        ));
    }
    Ok(SymState {
        locs,
        store: Store::from_values(vals),
        zone: Dbm::from_bounds(dim, bounds),
    })
}

/// Resident summary of a spilled zone: the raw lower bounds (row 0,
/// `x0 - xi ≤ c`) and upper bounds (column 0, `xi - x0 ≤ c`) of every
/// clock. On canonical DBMs, `A ⊆ B` holds iff every entry of `A` is
/// at most the corresponding entry of `B`, so comparing these 2·dim
/// tracked cells is a sound necessary condition for the full
/// entrywise test — it can rule a subset relation out, never in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneSummary {
    /// Raw row-0 bounds (`x0 - xi`), indexed by clock.
    row0: Vec<i64>,
    /// Raw column-0 bounds (`xi - x0`), indexed by clock.
    col0: Vec<i64>,
}

impl ZoneSummary {
    /// Extracts the summary of a zone.
    #[must_use]
    pub fn of(zone: &Dbm) -> Self {
        let dim = zone.dim();
        ZoneSummary {
            row0: (0..dim).map(|i| zone.bound(0, i).raw()).collect(),
            col0: (0..dim).map(|i| zone.bound(i, 0).raw()).collect(),
        }
    }

    /// Necessary condition for `probe ⊆ summarized`: every tracked
    /// probe bound is at most the summarized bound.
    #[must_use]
    pub fn may_contain(&self, probe: &Dbm) -> bool {
        debug_assert_eq!(probe.dim(), self.row0.len());
        (0..probe.dim()).all(|i| {
            probe.bound(0, i).raw() <= self.row0[i] && probe.bound(i, 0).raw() <= self.col0[i]
        })
    }

    /// Necessary condition for `summarized ⊆ probe`: every tracked
    /// summarized bound is at most the probe bound.
    #[must_use]
    pub fn may_be_contained_in(&self, probe: &Dbm) -> bool {
        debug_assert_eq!(probe.dim(), self.row0.len());
        (0..probe.dim()).all(|i| {
            self.row0[i] <= probe.bound(0, i).raw() && self.col0[i] <= probe.bound(i, 0).raw()
        })
    }
}

impl Spillable for SymState {
    type Key = (Vec<LocationId>, Store);
    type Summary = ZoneSummary;

    fn key(&self) -> Self::Key {
        self.discrete()
    }

    fn summary(&self) -> ZoneSummary {
        ZoneSummary::of(&self.zone)
    }

    fn covered_by(&self, other: &Self) -> bool {
        self.zone.is_subset_of(&other.zone)
    }

    fn may_cover(stored: &ZoneSummary, state: &Self) -> bool {
        stored.may_contain(&state.zone)
    }

    fn may_be_covered(stored: &ZoneSummary, state: &Self) -> bool {
        stored.may_be_contained_in(&state.zone)
    }

    fn encode(&self) -> Vec<u8> {
        encode_state(self)
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        decode_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_dbm::Clock;

    fn sample_state() -> SymState {
        let mut zone = Dbm::zero(3);
        zone.up();
        zone.constrain(Clock(1), Clock::REF, Bound::le(5));
        zone.constrain(Clock(2), Clock(1), Bound::lt(2));
        SymState {
            locs: vec![LocationId(0), LocationId(3), LocationId(1)],
            store: Store::from_values(vec![7, -3, 0]),
            zone,
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let back = decode_state(&bytes).expect("decode");
        assert_eq!(back.locs, state.locs);
        assert_eq!(back.store.as_slice(), state.store.as_slice());
        assert_eq!(back.zone, state.zone);
        // Canonical: same state, same bytes.
        assert_eq!(encode_state(&back), bytes);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let state = sample_state();
        let bytes = encode_state(&state);
        for cut in [0, 1, 5, bytes.len() - 1] {
            let err = decode_state(&bytes[..cut]).expect_err("truncated must fail");
            assert!(err.contains("truncated"), "cut {cut}: {err}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        let err = decode_state(&padded).expect_err("trailing must fail");
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn summary_prefilter_is_sound() {
        let state = sample_state();
        let summary = ZoneSummary::of(&state.zone);
        // A zone is contained in itself: both prefilters must agree.
        assert!(summary.may_contain(&state.zone));
        assert!(summary.may_be_contained_in(&state.zone));
        // A strictly larger zone cannot be contained in the summarized
        // one, and the prefilter must see that from row-0/col-0 alone.
        let mut bigger = Dbm::universe(3);
        bigger.up();
        assert!(
            !summary.may_contain(&bigger),
            "x1 ≤ 5 rules the universe out"
        );
        assert!(summary.may_be_contained_in(&bigger));
    }
}
