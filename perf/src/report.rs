//! The metric catalog, the per-check record of a run, and the two
//! outputs built from it: the one-line summary that ends standard
//! output, and the result file.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use tempo_core::lang::Json;

use crate::speed::Speed;

/// End-to-end metrics: every run prints each of them, name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints each of them; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.startup_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.build_ms", "ms"),
    ("lang.elaborate_ms", "ms"),
    ("lang.tokens", "count"),
    ("lang.tokens_per_ms", "1/ms"),
    ("lint.gate_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("svc.start_ms", "ms"),
    ("svc.shutdown_ms", "ms"),
    ("svc.lint_gate_ms", "ms"),
    ("svc.key_ms", "ms"),
    ("svc.overhead_ms", "ms"),
    ("svc.hit_ms_p50", "ms"),
    ("svc.miss_ms_p50", "ms"),
    ("svc.disk_hit_ms_p50", "ms"),
    ("svc.hits", "count"),
    ("svc.disk_hits", "count"),
    ("svc.disk_rejected", "count"),
    ("svc.misses", "count"),
    ("svc.coalesced", "count"),
    ("svc.queue_peak", "count"),
    ("svc.hit_ratio", "ratio"),
    ("ta.explore_ms", "ms"),
    ("ta.states_explored", "count"),
    ("ta.states_stored", "count"),
    ("ta.peak_waiting", "count"),
    ("ta.states_per_s", "1/s"),
    ("ta.stored_per_explored", "ratio"),
    ("ta.por_ample_states", "count"),
    ("ta.sym_states_avoided", "count"),
    ("ta.rss_per_stored_state_b", "B"),
    ("flow.lu_tightened", "count"),
    ("flow.vars_narrowed", "count"),
    ("flow.sliced_clocks", "count"),
    ("flow.sliced_edges", "count"),
    ("modest.mdp_build_ms", "ms"),
    ("modest.mdp_states", "count"),
    ("modest.mdp_transitions", "count"),
    ("mdp.solve_ms", "ms"),
    ("mdp.sweeps", "count"),
    ("smc.simulate_ms", "ms"),
    ("smc.runs", "count"),
    ("smc.runs_per_s", "1/s"),
    ("smc.hit_frac", "ratio"),
    ("witness.certify_ms", "ms"),
    ("witness.cert_bytes", "B"),
    ("witness.render_ms", "ms"),
    ("witness.parse_ms", "ms"),
    ("witness.validate_ms", "ms"),
    ("trace.round_s", "s"),
    ("trace.layers_s", "s"),
];

/// Per-layer ratios as `(name, numerator, denominator, scale)`, each
/// from two medians of the traced run. A ratio whose denominator reads 0
/// (a layer the workload never calls) is left out and so reads 0.
const RATIOS: &[(&str, &str, &str, f64)] = &[
    ("lang.tokens_per_ms", "lang.tokens", "lang.parse_ms", 1.0),
    (
        "ta.states_per_s",
        "ta.states_explored",
        "ta.explore_ms",
        1e3,
    ),
    (
        "ta.stored_per_explored",
        "ta.states_stored",
        "ta.states_explored",
        1.0,
    ),
    ("smc.runs_per_s", "smc.runs", "smc.simulate_ms", 1e3),
    ("smc.hit_frac", "smc.successes", "smc.runs", 1.0),
    ("svc.hit_ratio", "svc.hits", "svc.requests", 1.0),
];

/// Adds the [`RATIOS`] to traced-run metrics.
pub fn derive_ratios(m: &mut BTreeMap<String, f64>) {
    for &(name, num, den, scale) in RATIOS {
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        let (n, d) = (get(num), get(den));
        if d > 0.0 {
            m.insert(name.to_owned(), scale * n / d);
        }
    }
}

/// One check: how long its verdict took, and which row (input, verdict,
/// oracle outcome) it belongs to. Eight bytes: the service workload
/// records tens of thousands in the process whose memory it measures.
struct Timed {
    /// Latency of the verdict, milliseconds, as measured.
    ms: f32,
    /// Index into `Recorder::rows`.
    row: u32,
}

/// Everything a run measured, check by check.
#[derive(Default)]
pub struct Recorder {
    /// The host-speed probe samples of the run.
    pub speed: Speed,
    checks: Vec<Timed>,
    /// Distinct `(input, verdict, ok)` triples, in order of first sight.
    rows: Vec<(String, String, bool)>,
    row_index: HashMap<(String, String, bool), u32>,
    /// Start and end of each completed round, seconds into the run, and
    /// how many checks had been recorded when it ended.
    rounds: Vec<(f64, f64, usize)>,
    /// Failed consistency checks not tied to one verdict.
    pub problems: Vec<String>,
}

impl Recorder {
    /// Records a check of the current round.
    pub fn check(
        &mut self,
        input: impl Into<String>,
        wall: Duration,
        verdict: impl Into<String>,
        ok: bool,
    ) {
        let key = (input.into(), verdict.into(), ok);
        let row = match self.row_index.get(&key) {
            Some(&r) => r,
            None => {
                let r = u32::try_from(self.rows.len()).expect("fewer than 2^32 rows");
                self.rows.push(key.clone());
                self.row_index.insert(key, r);
                r
            }
        };
        #[allow(clippy::cast_possible_truncation)]
        self.checks.push(Timed {
            ms: (wall.as_secs_f64() * 1e3) as f32,
            row,
        });
    }

    /// Records a completed round, which holds every check recorded since
    /// the previous one.
    pub fn round_done(&mut self, from: f64, to: f64) {
        self.rounds.push((from, to, self.checks.len()));
    }

    /// Records a failed consistency check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Checks recorded.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.checks.len()
    }

    /// Checks whose verdict was wrong or missing.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| !self.rows[c.row as usize].2)
            .count()
    }

    /// Every check's latency in milliseconds: as measured, or scaled to
    /// the reference speed by the probes around its round (probes run
    /// only between rounds).
    #[must_use]
    pub fn latencies_ms(&self, scaled: bool) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.checks.len());
        let mut first = 0;
        for &(a, b, end) in &self.rounds {
            let f = if scaled { self.speed.factor(a, b) } else { 1.0 };
            out.extend(self.checks[first..end].iter().map(|c| f64::from(c.ms) * f));
            first = end;
        }
        out.extend(self.checks[first..].iter().map(|c| f64::from(c.ms)));
        out
    }

    /// Every round's wall time in seconds, as measured or scaled.
    #[must_use]
    pub fn round_s(&self, scaled: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|&(a, b, _)| (b - a) * if scaled { self.speed.factor(a, b) } else { 1.0 })
            .collect()
    }

    /// Each round's factor to the reference speed.
    #[must_use]
    pub fn round_factors(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|&(a, b, _)| self.speed.factor(a, b))
            .collect()
    }

    /// Per-input rows: checks with the same input, verdict and outcome
    /// folded into one row with their count and latency (as measured)
    /// median and max.
    #[must_use]
    pub fn rows(&self) -> Json {
        let mut ms: Vec<Vec<f64>> = vec![Vec::new(); self.rows.len()];
        for c in &self.checks {
            ms[c.row as usize].push(f64::from(c.ms));
        }
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| self.rows[a].cmp(&self.rows[b]));
        Json::Arr(
            order
                .into_iter()
                .map(|r| {
                    let (input, verdict, ok) = &self.rows[r];
                    let sorted = crate::stats::sorted(&ms[r]);
                    Json::Obj(vec![
                        ("input".into(), Json::str(input.clone())),
                        ("verdict".into(), Json::str(verdict.clone())),
                        ("ok".into(), Json::Bool(*ok)),
                        (
                            "n".into(),
                            Json::int(i64::try_from(sorted.len()).unwrap_or(i64::MAX)),
                        ),
                        (
                            "ms_p50".into(),
                            Json::Num(crate::stats::quantile(&sorted, 0.5).unwrap_or(0.0)),
                        ),
                        (
                            "ms_max".into(),
                            Json::Num(sorted.last().copied().unwrap_or(0.0)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// `{"value": v, "unit": u}` for every catalog metric, in catalog order.
#[must_use]
pub fn metrics_json(catalog: &[(&str, &str)], values: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        catalog
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders a document on one line (the summary must be the last line of
/// standard output). Strings escape their newlines, so joining the
/// pretty-printed lines without their indentation is exact.
#[must_use]
pub fn one_line(doc: &Json) -> String {
    doc.render()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn summary_is_one_line_and_round_trips() {
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_owned(), 0.125);
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("metrics".into(), metrics_json(END_TO_END, &values)),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("parse"), doc);
    }

    #[test]
    fn rows_fold_repeated_outcomes_and_rounds_scale_their_checks() {
        let mut r = Recorder::default();
        for ms in [3, 1, 2] {
            r.check("a", Duration::from_millis(ms), "pass", true);
        }
        r.check("b", Duration::from_millis(5), "fail", false);
        r.round_done(0.0, 1.0);
        assert_eq!((r.attempted(), r.failed()), (4, 1));
        let rows = r.rows();
        let rows = rows.as_arr().expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(rows[0].get("ms_p50").and_then(Json::as_num), Some(2.0));
        assert_eq!(r.latencies_ms(false), vec![3.0, 1.0, 2.0, 5.0]);
    }
}
