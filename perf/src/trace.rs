//! In-memory spans and counts for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! it makes into a layer's public functions. A span named `ta.explore`
//! yields the per-layer metric `ta.explore_ms`: the median over rounds
//! of the span's per-round *self time*, its duration minus the part
//! covered by its child spans. Counts are summed per round and reported
//! as the median over rounds under their own names.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tempo_core::lang::Json;

use crate::stats;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The check this span belongs to (spans of one check share it).
    pub check: u64,
    /// The round this span belongs to.
    pub round: usize,
}

/// Records spans and counts; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(round, name, value, is a duration in ms)`.
    counts: Vec<(usize, &'static str, f64, bool)>,
    round: usize,
    check: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
            round: 0,
            check: 0,
        }
    }
}

impl Tracer {
    /// Starts the next round; spans and counts that follow belong to it.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Starts the next check.
    pub fn next_check(&mut self) {
        self.check += 1;
    }

    /// Times `f` as a span named `name`, nested in any open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            check: self.check,
            round: self.round,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Adds `value` to counter `name` in the current round.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((self.round, name, value, false));
    }

    /// Records a duration the workload measured itself (`name`, in
    /// milliseconds): scaled like span times, unlike plain counts.
    pub fn timing(&mut self, name: &'static str, ms: f64) {
        self.counts.push((self.round, name, ms, true));
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per-round self time of each layer, in seconds: `layer → round → s`.
    fn per_round_self(&self) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_default().entry(s.round).or_default() += own.as_secs_f64();
        }
        out
    }

    /// Median over rounds of each layer's self time (`<layer>_ms`), of
    /// each counter, and of the sum of all layers' self times
    /// (`trace.layers_s`). Durations of round `r` are multiplied by
    /// `factors[r]`; there is one factor per round.
    #[must_use]
    pub fn layer_metrics(&self, factors: &[f64]) -> BTreeMap<String, f64> {
        let rounds = factors.len();
        let mut out = BTreeMap::new();
        let mut total = vec![0.0; rounds];
        for (layer, by_round) in self.per_round_self() {
            let per: Vec<f64> = (0..rounds)
                .map(|r| factors[r] * by_round.get(&r).copied().unwrap_or(0.0))
                .collect();
            for (t, v) in total.iter_mut().zip(&per) {
                *t += v;
            }
            out.insert(
                format!("{layer}_ms"),
                1e3 * stats::median(&per).unwrap_or(0.0),
            );
        }
        out.insert(
            "trace.layers_s".to_owned(),
            stats::median(&total).unwrap_or(0.0),
        );
        let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(round, name, v, is_time) in &self.counts {
            counts.entry(name).or_insert_with(|| vec![0.0; rounds])[round] +=
                if is_time { v * factors[round] } else { v };
        }
        for (name, per) in counts {
            out.insert(name.to_owned(), stats::median(&per).unwrap_or(0.0));
        }
        out
    }

    /// Total self time per layer over the whole run, largest first.
    #[must_use]
    pub fn self_time_table(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = self
            .per_round_self()
            .into_iter()
            .map(|(layer, by_round)| (layer, by_round.values().sum()))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Every span and count, for the result file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        let us = |d: Duration| Json::Num(d.as_micros() as f64);
        let idx = |v: usize| Json::int(i64::try_from(v).unwrap_or(i64::MAX));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_us".into(), us(s.start)),
                    ("end_us".into(), us(s.end)),
                    ("parent".into(), s.parent.map_or(Json::Null, idx)),
                    (
                        "check".into(),
                        Json::int(i64::try_from(s.check).unwrap_or(i64::MAX)),
                    ),
                    ("round".into(), idx(s.round)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|&(round, name, v, _)| {
                Json::Obj(vec![
                    ("round".into(), idx(round)),
                    ("name".into(), Json::str(name)),
                    ("value".into(), Json::Num(v)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("counts".into(), Json::Arr(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(20));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(30)));
        });
        t.count("c", 2.0);
        t.count("c", 3.0);
        let m = t.layer_metrics(&[1.0]);
        let (outer, inner) = (m["outer_ms"], m["inner_ms"]);
        assert!((20.0..28.0).contains(&outer), "outer self {outer}");
        assert!((30.0..38.0).contains(&inner), "inner self {inner}");
        assert!((m["trace.layers_s"] - (outer + inner) / 1e3).abs() < 1e-9);
        assert_eq!(m["c"], 5.0);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
