//! Argument parsing for the `tempo` binary.
//!
//! Hand-rolled (the workspace vendors no CLI framework): a tiny
//! subcommand dispatcher over `tempo check <file> [flags]`, with every
//! malformed invocation mapped to [`Status::Usage`](crate::Status) by
//! the caller.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use tempo_obs::Budget;

/// Which engine substrate an assert is routed to.
///
/// `Auto` picks the natural engine per assert kind; the explicit values
/// force one (and invocations whose asserts the engine cannot express
/// are usage errors, not silent approximations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Pick per assert kind (the default).
    Auto,
    /// Zone-graph exploration on the timed-automata network.
    Ta,
    /// The digital-clocks network of the compiled MODEST model.
    Mctau,
    /// Untimed BIP interaction model (deadlock search).
    Bip,
    /// Digital-clocks MDP probabilities (`Pmax`/`Pmin`).
    Mcpta,
    /// Statistical model checking (`Pr[..]`).
    Smc,
    /// TIOA refinement (ECDAR).
    Ecdar,
    /// LTS conformance (ioco).
    Ioco,
}

impl Engine {
    fn parse(s: &str) -> Option<Engine> {
        Some(match s {
            "auto" => Engine::Auto,
            "ta" => Engine::Ta,
            "mctau" => Engine::Mctau,
            "bip" => Engine::Bip,
            "mcpta" => Engine::Mcpta,
            "smc" => Engine::Smc,
            "ecdar" => Engine::Ecdar,
            "ioco" => Engine::Ioco,
            _ => return None,
        })
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Auto => "auto",
            Engine::Ta => "ta",
            Engine::Mctau => "mctau",
            Engine::Bip => "bip",
            Engine::Mcpta => "mcpta",
            Engine::Smc => "smc",
            Engine::Ecdar => "ecdar",
            Engine::Ioco => "ioco",
        })
    }
}

/// A parsed `tempo check` invocation.
#[derive(Clone, Debug)]
pub struct CheckArgs {
    /// The `.tempo` source file.
    pub file: PathBuf,
    /// Check only this assert index (default: all).
    pub assert_index: Option<usize>,
    /// Engine routing.
    pub engine: Engine,
    /// Worker threads of the analysis service.
    pub threads: usize,
    /// Resource limits per assert.
    pub budget: Budget,
    /// Out-of-core scratch directory for the zone-graph engines.
    pub spill: Option<PathBuf>,
    /// Where to write the versioned result JSON (`-` for stdout).
    pub json: Option<PathBuf>,
    /// Simulation seed for statistical asserts.
    pub seed: u64,
}

/// What the command line asked for.
#[derive(Clone, Debug)]
pub enum Command {
    /// `tempo check ...`.
    Check(CheckArgs),
    /// `tempo help` / `--help`.
    Help,
    /// `tempo version` / `--version`.
    Version,
}

/// One-line usage synopsis plus the flag table, printed on `help` and
/// on usage errors.
pub const USAGE: &str = "\
usage: tempo check <file.tempo> [options]

options:
  --assert N         check only assert index N (0-based; default: all)
  --engine E         auto|ta|mctau|bip|mcpta|smc|ecdar|ioco (default: auto)
  --threads K        analysis-service worker threads (default: 2)
  --budget SPEC      comma list of states=N, iters=N, runs=N, time=Ns|Nms
  --spill DIR        spill zone-graph states past memory to DIR
  --json PATH        write the versioned result JSON to PATH (- = stdout)
  --seed N           simulation seed for Pr[..] asserts (default: 42)

exit codes:
  0 pass   1 fail   2 parse-error   3 lint-error   4 exhausted
  5 rejected   6 usage   7 io-error   8 engine-error
";

fn parse_budget(spec: &str) -> Result<Budget, String> {
    let mut b = Budget::unlimited();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("budget item `{part}` is not key=value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("budget item `{part}` needs an integer value"))
        };
        match key {
            "states" => b.max_states = Some(num(value)?),
            "iters" => b.max_iterations = Some(num(value)?),
            "runs" => b.max_runs = Some(num(value)?),
            "time" => {
                let (digits, unit) = value.split_at(
                    value
                        .find(|c: char| !c.is_ascii_digit())
                        .ok_or_else(|| format!("budget time `{value}` needs a unit (s or ms)"))?,
                );
                let n = num(digits)?;
                b.wall = Some(match unit {
                    "s" => Duration::from_secs(n),
                    "ms" => Duration::from_millis(n),
                    _ => return Err(format!("budget time unit `{unit}` is not s or ms")),
                });
            }
            _ => return Err(format!("unknown budget dimension `{key}`")),
        }
    }
    Ok(b)
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// A human-readable description of the first malformed argument; the
/// caller prints it with [`USAGE`] and exits with the usage code.
pub fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = match it.next().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some("version" | "--version" | "-V") => return Ok(Command::Version),
        Some("check") => "check",
        Some(other) => return Err(format!("unknown command `{other}`")),
    };
    debug_assert_eq!(sub, "check");

    let mut file = None;
    let mut args = CheckArgs {
        file: PathBuf::new(),
        assert_index: None,
        engine: Engine::Auto,
        threads: 2,
        budget: Budget::unlimited(),
        spill: None,
        json: None,
        seed: 42,
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--assert" => {
                let v = value("--assert")?;
                args.assert_index = Some(
                    v.parse()
                        .map_err(|_| format!("--assert index `{v}` is not a number"))?,
                );
            }
            "--engine" => {
                let v = value("--engine")?;
                args.engine = Engine::parse(&v).ok_or_else(|| format!("unknown engine `{v}`"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| (1..=64).contains(&k))
                    .ok_or_else(|| format!("--threads `{v}` must be 1..=64"))?;
            }
            "--budget" => args.budget = parse_budget(&value("--budget")?)?,
            "--spill" => args.spill = Some(PathBuf::from(value("--spill")?)),
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed `{v}` is not a number"))?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            positional => {
                if file.replace(PathBuf::from(positional)).is_some() {
                    return Err("check takes exactly one input file".to_owned());
                }
            }
        }
    }
    args.file = file.ok_or_else(|| "check needs an input file".to_owned())?;
    Ok(Command::Check(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_a_full_check_invocation() {
        let Command::Check(a) = parse_args(&strings(&[
            "check",
            "model.tempo",
            "--assert",
            "1",
            "--engine",
            "mcpta",
            "--threads",
            "4",
            "--budget",
            "states=1000,time=2s",
            "--seed",
            "7",
        ]))
        .expect("parse") else {
            panic!("expected check command");
        };
        assert_eq!(a.file, PathBuf::from("model.tempo"));
        assert_eq!(a.assert_index, Some(1));
        assert_eq!(a.engine, Engine::Mcpta);
        assert_eq!(a.threads, 4);
        assert_eq!(a.budget.max_states, Some(1000));
        assert_eq!(a.budget.wall, Some(Duration::from_secs(2)));
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse_args(&strings(&["check"])).is_err());
        assert!(parse_args(&strings(&["check", "a.tempo", "b.tempo"])).is_err());
        assert!(parse_args(&strings(&["check", "a.tempo", "--engine", "warp"])).is_err());
        assert!(parse_args(&strings(&["check", "a.tempo", "--threads", "0"])).is_err());
        assert!(parse_args(&strings(&["check", "a.tempo", "--budget", "fuel=3"])).is_err());
        assert!(parse_args(&strings(&["frobnicate"])).is_err());
    }
}
