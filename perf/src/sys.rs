//! The benchmark's contact with the operating system: building and
//! spawning the `tempo` binary, per-child peak memory, the run
//! environment recorded in every result file, and scratch space.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `struct rusage` of Linux (x86-64 and aarch64 share the layout): two
/// `timeval`s, then fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reaps child `pid`, returning its raw wait status and peak resident
/// set size in KiB. `wait4` is the only interface that reports one
/// child's peak memory after it exits (the standard library's `wait`
/// does not); polling `/proc/<pid>/status` misses children that live
/// for a few milliseconds.
fn reap(pid: i32) -> std::io::Result<(i32, u64)> {
    let mut status = 0i32;
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the C `int` and `struct rusage` that `wait4` fills.
        #[allow(unsafe_code)]
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, u64::try_from(usage.ru_maxrss).unwrap_or(0)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[derive(Default)]
struct DogState {
    /// The child being watched and its deadline.
    armed: Option<(Child, Instant)>,
    fired: bool,
    stop: bool,
}

/// Enforces the per-check limit from outside the checked process: one
/// thread that kills the armed child when its deadline passes.
pub struct Watchdog {
    state: Arc<(Mutex<DogState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread.
    #[must_use]
    pub fn start() -> Self {
        let state = Arc::new((Mutex::new(DogState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let mut g = lock.lock().expect("watchdog state poisoned");
            loop {
                if g.stop {
                    return;
                }
                match &mut g.armed {
                    None => g = cv.wait(g).expect("watchdog state poisoned"),
                    Some((child, deadline)) => {
                        let now = Instant::now();
                        if now >= *deadline {
                            // The child is not reaped yet (`run_child`
                            // disarms before it reaps), so its pid is
                            // still its own.
                            let _ = child.kill();
                            *deadline = now + Duration::from_secs(3600);
                            g.fired = true;
                        } else {
                            let left = *deadline - now;
                            g = cv.wait_timeout(g, left).expect("watchdog state poisoned").0;
                        }
                    }
                }
            }
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    fn arm(&self, child: Child, deadline: Instant) {
        let (lock, cv) = &*self.state;
        let mut g = lock.lock().expect("watchdog state poisoned");
        g.armed = Some((child, deadline));
        g.fired = false;
        cv.notify_all();
    }

    /// Disarms; returns the child and whether it was killed for its
    /// deadline.
    fn disarm(&self) -> (Option<Child>, bool) {
        let (lock, _) = &*self.state;
        let mut g = lock.lock().expect("watchdog state poisoned");
        (g.armed.take().map(|(c, _)| c), g.fired)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        if let Ok(mut g) = lock.lock() {
            g.stop = true;
            cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One finished child process.
#[derive(Debug)]
pub struct ChildRun {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Everything it wrote to standard output.
    pub stdout: String,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set size, KiB.
    pub maxrss_kb: u64,
    /// Killed by the watchdog for exceeding its limit.
    pub timed_out: bool,
}

/// Spawns `cmd`, collects its standard output, and reaps it, killing it
/// if it runs longer than `limit`.
///
/// # Errors
///
/// The spawn or wait error.
pub fn run_child(cmd: &mut Command, limit: Duration, dog: &Watchdog) -> std::io::Result<ChildRun> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    let mut pipe = child.stdout.take().expect("stdout is piped");
    dog.arm(child, started + limit);
    // `tempo` closes its standard output only by exiting, so the end of
    // the pipe is the end of the process (or its kill).
    let mut stdout = String::new();
    let read = pipe.read_to_string(&mut stdout);
    let (child, timed_out) = dog.disarm();
    let (status, maxrss_kb) = reap(pid)?;
    drop(child);
    let wall = started.elapsed();
    read?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        code,
        stdout,
        wall,
        maxrss_kb,
        timed_out,
    })
}

/// `VmHWM` (peak resident set size) in KiB from the text of a
/// `/proc/<pid>/status` file.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// This process's peak resident set size in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&text).ok_or("no VmHWM line in /proc/self/status")?;
    #[allow(clippy::cast_precision_loss)]
    Ok(kb as f64 / 1024.0)
}

/// This process's peak resident set size in MiB since the last call,
/// which resets the peak (`VmHWM`) to the current resident set size.
///
/// # Errors
///
/// When the peak cannot be read or reset.
pub fn take_self_peak_rss_mb() -> Result<f64, String> {
    let peak = self_peak_rss_mb()?;
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))?;
    Ok(peak)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit checked out in `repo`, read from `.git/HEAD` without
/// running git; `"unknown"` outside a git checkout.
#[must_use]
pub fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(name)
                    .map(|rev| rev.trim().to_owned())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cargo's target directory for builds started from `repo`.
#[must_use]
pub fn target_dir(repo: &Path) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    repo.join(dir)
}

/// The `[workspace.package] version` of the repository's root manifest:
/// the version a `tempo` built from this checkout reports.
///
/// # Errors
///
/// When the manifest is unreadable or declares no workspace version.
pub fn workspace_version(repo: &Path) -> Result<String, String> {
    let manifest = repo.join("Cargo.toml");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut in_section = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_section = line == "[workspace.package]";
        } else if in_section {
            if let Some(v) = line
                .strip_prefix("version")
                .and_then(|r| r.trim_start().strip_prefix('='))
            {
                return Ok(v.trim().trim_matches('"').to_owned());
            }
        }
    }
    Err(format!(
        "{} declares no [workspace.package] version",
        manifest.display()
    ))
}

/// The `tempo` binary under test.
#[derive(Clone, Debug)]
pub struct TempoBin {
    /// Where it is.
    pub path: PathBuf,
    /// Size in bytes.
    pub size: u64,
    /// Modification time, seconds since the Unix epoch.
    pub mtime: u64,
}

/// Builds `tempo` from the checkout in `repo` (a no-op when it is up to
/// date), then fails fast unless the binary exists and reports this
/// checkout's version.
///
/// # Errors
///
/// A message naming what is wrong: the build failed, the binary is
/// missing, or it reports another version.
pub fn build_tempo(repo: &Path) -> Result<TempoBin, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tempo-cli",
            "--bin",
            "tempo",
        ])
        .current_dir(repo)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release -p tempo-cli` failed in {}",
            repo.display()
        ));
    }
    let path = target_dir(repo).join("release").join("tempo");
    let meta = std::fs::metadata(&path).map_err(|e| {
        format!(
            "{} is missing after the build ({e}); build it with `cargo build --release`",
            path.display()
        )
    })?;
    let want = format!("tempo {}", workspace_version(repo)?);
    let out = Command::new(&path)
        .arg("--version")
        .output()
        .map_err(|e| format!("cannot run {}: {e}", path.display()))?;
    let got = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    if got != want {
        return Err(format!(
            "{} reports `{got}`, expected `{want}`: stale binary?",
            path.display()
        ));
    }
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    Ok(TempoBin {
        path,
        size: meta.len(),
        mtime,
    })
}

/// A scratch directory inside the target directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates a fresh, empty scratch directory for `name`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(repo: &Path, name: &str) -> Result<Self, String> {
        let dir = target_dir(repo)
            .join("tempo-bench")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS_FIXTURE: &str = "Name:\ttempo\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  123456 kB\nVmSize:\t  120000 kB\nVmHWM:\t   45312 kB\nVmRSS:\t   40000 kB\nThreads:\t3\n";

    #[test]
    fn vm_hwm_parser_reads_the_fixture() {
        assert_eq!(parse_vm_hwm_kb(STATUS_FIXTURE), Some(45_312));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(self_peak_rss_mb().expect("procfs") > 0.0);
    }

    #[test]
    fn child_runs_report_exit_output_and_memory() {
        let dog = Watchdog::start();
        let run = run_child(
            Command::new("sh").args(["-c", "echo hi; exit 3"]),
            Duration::from_secs(10),
            &dog,
        )
        .expect("spawn");
        assert_eq!(run.code, Some(3));
        assert_eq!(run.stdout, "hi\n");
        assert!(run.maxrss_kb > 0 && !run.timed_out);
        let slow = run_child(
            Command::new("sleep").arg("5"),
            Duration::from_millis(50),
            &dog,
        )
        .expect("spawn");
        assert!(slow.timed_out && slow.code.is_none());
        assert!(slow.wall < Duration::from_secs(4));
    }

    #[test]
    fn workspace_version_reads_the_root_manifest() {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let v = workspace_version(&repo).expect("version");
        assert!(v.split('.').count() == 3, "{v}");
    }
}
