//! `tempo-bench compare A.json… -- B.json…`: one row per workload ×
//! metric with each side's median and quartiles, judged against the
//! bounds in `BENCHMARK.json`. `A` is the parent's runs, `B` the
//! change's.
//!
//! The allowed change is the metric's bound times A's median (for
//! `setup_s`, at least [`SETUP_FLOOR_S`]).
//!
//! * **worse** — B's median is worse than A's by more than the allowed
//!   change, and either A's spread between quartiles is within the
//!   allowed change or every B run is worse than every A run;
//! * **better** — at least [`MIN_PAIRS`] pairs were run (files paired in
//!   the order given), B beats A in at least 9 of 10 of them (ties count
//!   for neither), and the medians differ by more than A's spread
//!   between quartiles;
//! * **unresolved** — A's own spread is wider than the allowed change,
//!   and neither of the above holds;
//! * **unchanged** — otherwise.
//!
//! Every metric is judged twice: as reported (normalized to the host's
//! speed, see `speed`) and as measured (`raw.<metric>`, from each file's
//! `raw_metrics`). The bounds fit the normalized values; the raw ones
//! spread wider than their bounds on a host that changes speed, so there
//! a slowdown reads `worse` only when every B run is slower than every A
//! run, and `unresolved` otherwise. Each workload also gets an `outcome` row: it is worse
//! when any B run was not correct or B's runs failed a larger share of
//! their checks than A's, and then no metric of that workload may read
//! better (a gain does not count when more checks fail). Per-layer
//! metrics have no bound and are printed as `info`. The exit code is 1
//! when any row is `worse`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tempo_core::lang::Json;

use crate::stats;

/// Fewest pairs of runs a gain may rest on.
const MIN_PAIRS: usize = 10;

/// Least slowdown of `setup_s` that counts as a regression, in seconds:
/// the set-up of the CLI workloads takes about a millisecond, where a
/// relative bound alone would flag scheduling noise.
const SETUP_FLOOR_S: f64 = 0.05;

/// How a metric is judged.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
    /// Least absolute worsening that counts, in the metric's unit.
    floor: f64,
}

const INFO: Rule = Rule {
    lower_is_better: true,
    bound: None,
    floor: 0.0,
};

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn rules(benchmark: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            out.insert(
                name.to_owned(),
                Rule {
                    lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                    bound: m.get("bound").and_then(Json::as_num),
                    floor: if name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    },
                },
            );
        }
    }
    out
}

/// `(workload, metric) → (unit, values in file order)`.
type Series = BTreeMap<(String, String), (String, Vec<f64>)>;

/// What one side's runs of a workload got right.
#[derive(Default)]
struct Outcome {
    runs: usize,
    incorrect: usize,
    attempted: f64,
    failed: f64,
}

impl Outcome {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }

    fn describe(&self) -> String {
        format!(
            "{}/{} failed, {}/{} runs incorrect",
            self.failed, self.attempted, self.incorrect, self.runs
        )
    }
}

/// One side of a comparison.
#[derive(Default)]
struct Side {
    metrics: Series,
    outcomes: BTreeMap<String, Outcome>,
}

fn add_metrics(
    out: &mut Series,
    f: &str,
    workload: &str,
    prefix: &str,
    metrics: &Json,
) -> Result<(), String> {
    let Json::Obj(metrics) = metrics else {
        return Err(format!("{f}: malformed metrics"));
    };
    for (name, m) in metrics {
        let (Some(v), Some(unit)) = (
            m.get("value").and_then(Json::as_num),
            m.get("unit").and_then(Json::as_str),
        ) else {
            return Err(format!("{f}: malformed metric {name}"));
        };
        out.entry((workload.to_owned(), format!("{prefix}{name}")))
            .or_insert_with(|| (unit.to_owned(), Vec::new()))
            .1
            .push(v);
    }
    Ok(())
}

fn collect(files: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for f in files {
        let doc = read_json(Path::new(f))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{f}: not a tempo-bench result file"))?;
        let (Some(&Json::Bool(correct)), Some(attempted), Some(failed)) = (
            doc.get("correct"),
            doc.get("attempted").and_then(Json::as_num),
            doc.get("failed").and_then(Json::as_num),
        ) else {
            return Err(format!("{f}: no correct/attempted/failed"));
        };
        let o = side.outcomes.entry(workload.to_owned()).or_default();
        o.runs += 1;
        o.incorrect += usize::from(!correct);
        o.attempted += attempted;
        o.failed += failed;
        let metrics = doc
            .get("metrics")
            .ok_or_else(|| format!("{f}: no metrics"))?;
        add_metrics(&mut side.metrics, f, workload, "", metrics)?;
        if let Some(raw) = doc.get("raw_metrics") {
            add_metrics(&mut side.metrics, f, workload, "raw.", raw)?;
        }
    }
    Ok(side)
}

/// The verdict on one metric, `a` the parent's runs and `b` the change's.
fn judge(a: &[f64], b: &[f64], rule: &Rule) -> &'static str {
    let (Some(ma), Some(mb), Some((q1, q3))) =
        (stats::median(a), stats::median(b), stats::quartiles(a))
    else {
        return "missing";
    };
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let Some(bound) = rule.bound else {
        return "info";
    };
    let allowed = (bound * ma.abs()).max(rule.floor);
    let wide = q3 - q1 > allowed;
    let worse_by = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse_by > allowed {
        let all_worse = b.iter().all(|y| a.iter().all(|x| better(*x, *y)));
        return if !wide || all_worse {
            "worse"
        } else {
            "unresolved"
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > q3 - q1 {
        return "better";
    }
    let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if wide && !all_better {
        return "unresolved";
    }
    "unchanged"
}

fn spread(values: &[f64]) -> String {
    match (stats::median(values), stats::quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        _ => "-".to_owned(),
    }
}

/// Runs the comparison; returns the process exit code.
///
/// # Errors
///
/// On unreadable or malformed input files.
pub fn main(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: tempo-bench compare A.json... -- B.json...")?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err("compare needs result files on both sides of `--`".to_owned());
    }
    let rules = rules(&read_json(Path::new("BENCHMARK.json"))?);
    let (a, b) = (collect(a_files)?, collect(b_files)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:<30} {:<6} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut regressions = 0;
    let mut failing = Vec::new();
    for (workload, oa) in &a.outcomes {
        let none = Outcome::default();
        let ob = b.outcomes.get(workload).unwrap_or(&none);
        let worse = ob.runs == 0 || ob.incorrect > 0 || ob.failed_share() > oa.failed_share();
        if worse {
            failing.push(workload.clone());
        }
        regressions += usize::from(worse);
        let _ = writeln!(
            out,
            "{workload:<9} {:<30} {:<6} {:>36} {:>36} {:>8}  {}",
            "outcome",
            "",
            oa.describe(),
            ob.describe(),
            "",
            if worse { "worse" } else { "unchanged" }
        );
    }
    for ((workload, metric), (unit, av)) in &a.metrics {
        let bv = b
            .metrics
            .get(&(workload.clone(), metric.clone()))
            .map_or(&[][..], |(_, v)| v.as_slice());
        let base = metric.strip_prefix("raw.").unwrap_or(metric);
        let mut verdict = judge(av, bv, rules.get(base).unwrap_or(&INFO));
        if verdict == "better" && failing.contains(workload) {
            verdict = "not counted (more checks failed)";
        }
        regressions += usize::from(verdict == "worse");
        let change = match (stats::median(av), stats::median(bv)) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", 100.0 * (y - x) / x),
            _ => "-".to_owned(),
        };
        let _ = writeln!(
            out,
            "{workload:<9} {metric:<30} {unit:<6} {:>36} {:>36} {change:>8}  {verdict}",
            spread(av),
            spread(bv)
        );
    }
    print!("{out}");
    println!("{regressions} regression(s)");
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
        floor: 0.0,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&a, &a, &LOWER), "unchanged");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &slower, &LOWER), "worse");
        let faster: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(judge(&a, &faster, &LOWER), "better");
        assert_eq!(judge(&a[..3], &faster[..3], &LOWER), "unchanged");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&noisy, &noisy, &LOWER), "unresolved");
        // Wider than the bound: a slower median alone is not a regression,
        // a change slower in every run is.
        let noisy_slower: Vec<f64> = noisy.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(&noisy, &noisy_slower, &LOWER), "unresolved");
        assert_eq!(judge(&noisy, &[16.0; 10], &LOWER), "worse");
        let higher = Rule {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(judge(&a, &slower, &higher), "better");
        assert_eq!(judge(&a, &a, &INFO), "info");
    }

    #[test]
    fn the_floor_absorbs_small_absolute_slowdowns() {
        let setup = Rule {
            floor: SETUP_FLOOR_S,
            ..LOWER
        };
        let a = [0.001; 10];
        let doubled = [0.002; 10];
        assert_eq!(judge(&a, &doubled, &LOWER), "worse");
        assert_eq!(judge(&a, &doubled, &setup), "unchanged");
        assert_eq!(judge(&a, &[0.06; 10], &setup), "worse");
    }

    fn result_file(dir: &Path, name: &str, correct: bool, failed: u32, value: f64) -> String {
        let path = dir.join(name);
        let metric = format!(r#"{{"round_s": {{"value": {value}, "unit": "s"}}}}"#);
        std::fs::write(
            &path,
            format!(
                r#"{{"workload": "w", "correct": {correct}, "attempted": 100, "failed": {failed}, "metrics": {metric}, "raw_metrics": {metric}}}"#
            ),
        )
        .expect("write");
        path.display().to_string()
    }

    #[test]
    fn outcomes_count_incorrect_runs_and_failure_shares() {
        let dir = std::env::temp_dir().join(format!("tempo-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let a = collect(&[result_file(&dir, "a.json", true, 1, 1.0)]).expect("a");
        let b = collect(&[
            result_file(&dir, "b1.json", true, 1, 0.5),
            result_file(&dir, "b2.json", false, 3, 0.5),
        ])
        .expect("b");
        let _ = std::fs::remove_dir_all(&dir);
        let (oa, ob) = (&a.outcomes["w"], &b.outcomes["w"]);
        assert_eq!((oa.runs, oa.incorrect), (1, 0));
        assert_eq!((ob.runs, ob.incorrect), (2, 1));
        assert!(ob.failed_share() > oa.failed_share());
        let key = |m: &str| ("w".to_owned(), m.to_owned());
        assert_eq!(b.metrics[&key("raw.round_s")].1, vec![0.5, 0.5]);
        assert_eq!(a.metrics[&key("round_s")].1, vec![1.0]);
    }
}
