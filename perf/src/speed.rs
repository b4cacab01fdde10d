//! Host-speed normalization of the reported timings.
//!
//! On the 2-vCPU reference VM the host's contention changes the speed of
//! memory-touching code in phases of 3 to 90 seconds, independently on
//! each vCPU: the probe kernel below runs at either ~0.4 ms or ~0.6 ms
//! per pass. A 10-second run can sit entirely in either phase, so raw
//! timings are bimodal across runs and no number of samples inside a run
//! removes that.
//!
//! The bench therefore times a fixed probe kernel between rounds, one
//! probe process per CPU at once ([`Probes`]), and scales every timing by
//! the probes' speed around it: a timing is reported as
//! `raw × (REFERENCE_PROBE_S / probe)^EXPONENT`, the value it would have
//! had had the probe read [`REFERENCE_PROBE_S`]. [`EXPONENT`] is one
//! number for every workload: the slow phase slows the engines somewhat
//! more than the probe, and of the exponents tried (0 to 1.4) 1.2 left
//! the smallest worst-workload spread over four sittings of ten runs per
//! workload (see `perf/baseline/README.md`). The probes are processes of
//! their own, so nothing `tempo` does to its heap, in the bench process
//! or in a child, can slow them. Raw timings stay in every result file
//! (`raw_metrics`) next to the probe samples, and `compare` judges both.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Least time between two probe samples taken between rounds: phases
/// last seconds, a sample costs ~3 ms.
pub const PROBE_EVERY_S: f64 = 0.1;

/// The probe's median on the reference VM in its fast phase, in
/// seconds. It only sets the unit: normalized timings read as they would
/// on that machine in that phase.
pub const REFERENCE_PROBE_S: f64 = 0.000_38;

/// How strongly timings follow the probe's speed, for every workload.
pub const EXPONENT: f64 = 1.2;

/// Most probe processes a run starts, one per CPU up to this.
const MAX_PROBES: usize = 4;

/// Hashing and pointer chasing: a map of 2048 small vectors, built,
/// walked four times and dropped.
fn hash_pass() -> f64 {
    let started = Instant::now();
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..2048u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = usize::try_from(x % 24).expect("small") + 1;
        map.insert(x, vec![i; len]);
    }
    let mut acc = 0u64;
    for _ in 0..4 {
        for (k, v) in &map {
            acc ^= k.wrapping_add(v.iter().sum::<u64>());
        }
    }
    black_box(acc);
    drop(black_box(map));
    started.elapsed().as_secs_f64()
}

/// Allocator churn: 6000 short-lived vectors of 16 to 63 words.
fn alloc_pass() -> f64 {
    let started = Instant::now();
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(257);
    let mut words = 0usize;
    for i in 0..6000u64 {
        let v = vec![i; 16 + usize::try_from(i % 48).expect("small")];
        words += v.len();
        live.push(v);
        if live.len() > 256 {
            live.clear();
        }
    }
    black_box(words);
    started.elapsed().as_secs_f64()
}

/// One probe sample: the median of five passes of the geometric mean of
/// the two kernels.
fn kernel_sample() -> f64 {
    let mut passes: Vec<f64> = (0..5)
        .map(|_| (hash_pass() * alloc_pass()).sqrt())
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

/// The probe process (`tempo-bench probe`): one sample, in seconds, for
/// every line it reads, until its input closes.
///
/// # Errors
///
/// When a sample cannot be written back.
pub fn serve(input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
    for line in input.lines() {
        line?;
        writeln!(output, "{}", kernel_sample())?;
        output.flush()?;
    }
    Ok(())
}

/// The probe processes of one run. Every sample asks each of them at
/// once, so with one probe per CPU the scheduler runs one on each, and
/// the sample is their mean: the machine's speed, not one CPU's.
pub struct Probes {
    children: Vec<(Child, ChildStdin, BufReader<ChildStdout>)>,
}

impl Probes {
    /// Starts one probe process per CPU (at most [`MAX_PROBES`]), or none
    /// when `count` is 0.
    ///
    /// # Errors
    ///
    /// When a probe process cannot be started.
    pub fn start(count: usize) -> Result<Self, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find the bench binary: {e}"))?;
        let mut probes = Probes {
            children: Vec::new(),
        };
        for _ in 0..count.min(MAX_PROBES) {
            let mut child = Command::new(&exe)
                .arg("probe")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot start a probe process: {e}"))?;
            let stdin = child.stdin.take().expect("stdin is piped");
            let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            probes.children.push((child, stdin, stdout));
        }
        Ok(probes)
    }

    /// One sample: the mean of every probe's, in seconds; `None` without
    /// probes.
    ///
    /// # Errors
    ///
    /// When a probe process fails.
    pub fn sample(&mut self) -> Result<Option<f64>, String> {
        if self.children.is_empty() {
            return Ok(None);
        }
        let fault = |e: std::io::Error| format!("probe process failed: {e}");
        for (_, stdin, _) in &mut self.children {
            stdin.write_all(b"\n").map_err(fault)?;
            stdin.flush().map_err(fault)?;
        }
        let mut sum = 0.0;
        for (_, _, stdout) in &mut self.children {
            let mut line = String::new();
            stdout.read_line(&mut line).map_err(fault)?;
            sum += line
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("probe process answered `{}`: {e}", line.trim()))?;
        }
        #[allow(clippy::cast_precision_loss)]
        Ok(Some(sum / self.children.len() as f64))
    }
}

impl Drop for Probes {
    /// Closes every probe's input, which ends it, and waits for it.
    fn drop(&mut self) {
        for (mut child, stdin, stdout) in self.children.drain(..) {
            drop(stdin);
            drop(stdout);
            let _ = child.wait();
        }
    }
}

/// Probe samples of one run, by time.
pub struct Speed {
    epoch: Instant,
    /// `(seconds since epoch, probe seconds)`.
    samples: Vec<(f64, f64)>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Speed {
    /// Seconds since the run started.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Takes a sample from `probes`.
    ///
    /// # Errors
    ///
    /// When a probe process fails.
    pub fn probe(&mut self, probes: &mut Probes) -> Result<(), String> {
        if let Some(s) = probes.sample()? {
            let at = self.now();
            self.samples.push((at, s));
        }
        Ok(())
    }

    /// Takes a sample unless one was taken less than [`PROBE_EVERY_S`]
    /// ago.
    ///
    /// # Errors
    ///
    /// When a probe process fails.
    pub fn probe_if_due(&mut self, probes: &mut Probes) -> Result<(), String> {
        if self
            .samples
            .last()
            .is_none_or(|s| self.now() - s.0 >= PROBE_EVERY_S)
        {
            self.probe(probes)?;
        }
        Ok(())
    }

    /// The factor that scales a timing taken in `[from, to]` to the
    /// reference speed: the reference probe time over the mean of the
    /// last sample at or before `from` and the first at or after `to`,
    /// to the power [`EXPONENT`]; 1 without samples.
    #[must_use]
    pub fn factor(&self, from: f64, to: f64) -> f64 {
        let before = self
            .samples
            .iter()
            .rev()
            .find(|s| s.0 <= from)
            .or(self.samples.first());
        let after = self
            .samples
            .iter()
            .find(|s| s.0 >= to)
            .or(self.samples.last());
        match (before, after) {
            (Some(b), Some(a)) => (2.0 * REFERENCE_PROBE_S / (b.1 + a.1)).powf(EXPONENT),
            _ => 1.0,
        }
    }

    /// Every sample, for the result file.
    #[must_use]
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_samples_around_an_interval() {
        let mut s = Speed::default();
        assert!(s.factor(0.0, 1.0) == 1.0);
        s.samples = vec![
            (0.0, REFERENCE_PROBE_S),
            (1.0, 2.0 * REFERENCE_PROBE_S),
            (2.0, 2.0 * REFERENCE_PROBE_S),
        ];
        assert!((s.factor(0.1, 0.9) - (2.0f64 / 3.0).powf(EXPONENT)).abs() < 1e-12);
        assert!((s.factor(1.1, 1.9) - 0.5f64.powf(EXPONENT)).abs() < 1e-12);
    }

    #[test]
    fn the_probe_answers_every_request_line() {
        let mut out = Vec::new();
        serve(&b"\n\n"[..], &mut out).expect("serve");
        let samples: Vec<f64> = String::from_utf8(out)
            .expect("utf-8")
            .lines()
            .map(|l| l.parse().expect("a number"))
            .collect();
        assert_eq!(samples.len(), 2);
        assert!(samples.iter().all(|&s| s > 0.0));
    }
}
