//! Expected-verdict headers for the graded `corpus/` problem set.
//!
//! Every corpus file opens with comment lines the test harness (and
//! CI) assert against:
//!
//! ```text
//! -- expect: pass            -- every assert holds
//! -- expect: fail 1          -- asserts 1 (0-based) fails, the rest hold
//! -- expect: parse-error     -- the file must be rejected by the parser
//! -- expect: lint-error      -- parses, but an engine lint gate rejects it
//! -- engine: mcpta           -- optional: forwarded as `--engine`
//! ```
//!
//! The header grammar is deliberately tiny; anything else on a `--`
//! line is an ordinary comment.

/// What a corpus problem expects from `tempo check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Every assert in the file holds.
    Pass,
    /// The listed 0-based assert indices fail; all others hold.
    Fail(Vec<usize>),
    /// The file does not parse (exit code 2).
    ParseError,
    /// The file parses but an engine lint gate rejects it (exit code 3).
    LintError,
}

/// Parsed corpus header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusHeader {
    /// The expected outcome.
    pub expect: Expectation,
    /// Engine override to forward to the CLI, if any.
    pub engine: Option<String>,
}

/// Extracts the expectation header from a corpus file's leading
/// comments. Errors if no `-- expect:` line is present or it is
/// malformed — a corpus problem without a graded expectation is a
/// harness bug, not a model.
pub fn parse_header(source: &str) -> Result<CorpusHeader, String> {
    let mut expect = None;
    let mut engine = None;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(comment) = trimmed.strip_prefix("--") else {
            break; // first non-comment line ends the header
        };
        let comment = comment.trim();
        if let Some(rest) = comment.strip_prefix("expect:") {
            if expect.is_some() {
                return Err("duplicate `-- expect:` header".into());
            }
            expect = Some(parse_expect(rest.trim())?);
        } else if let Some(rest) = comment.strip_prefix("engine:") {
            if engine.is_some() {
                return Err("duplicate `-- engine:` header".into());
            }
            engine = Some(rest.trim().to_owned());
        }
    }
    Ok(CorpusHeader {
        expect: expect.ok_or("missing `-- expect:` header")?,
        engine,
    })
}

fn parse_expect(text: &str) -> Result<Expectation, String> {
    let mut words = text.split_whitespace();
    match words.next() {
        Some("pass") => {
            if words.next().is_some() {
                return Err("`expect: pass` takes no arguments".into());
            }
            Ok(Expectation::Pass)
        }
        Some("fail") => {
            let mut indices = Vec::new();
            for w in words {
                indices.push(
                    w.parse::<usize>()
                        .map_err(|_| format!("bad assert index `{w}` in `expect: fail`"))?,
                );
            }
            if indices.is_empty() {
                return Err("`expect: fail` needs at least one assert index".into());
            }
            Ok(Expectation::Fail(indices))
        }
        Some("parse-error") => Ok(Expectation::ParseError),
        Some("lint-error") => Ok(Expectation::LintError),
        other => Err(format!("unknown expectation `{}`", other.unwrap_or(""))),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_header, Expectation};

    #[test]
    fn parses_pass_and_engine() {
        let h = parse_header(
            "-- P101: a tiny model\n-- expect: pass\n-- engine: ta\n\nprocess P = STOP\nsystem P\n",
        )
        .expect("header");
        assert_eq!(h.expect, Expectation::Pass);
        assert_eq!(h.engine.as_deref(), Some("ta"));
    }

    #[test]
    fn parses_fail_indices() {
        let h = parse_header("-- expect: fail 0 2\nprocess P = STOP\nsystem P\n").expect("header");
        assert_eq!(h.expect, Expectation::Fail(vec![0, 2]));
    }

    #[test]
    fn header_stops_at_first_model_line() {
        let e = parse_header("process P = STOP\n-- expect: pass\nsystem P\n");
        assert!(e.is_err(), "expect line after model text must not count");
    }

    #[test]
    fn rejects_malformed_expectations() {
        assert!(parse_header("-- expect: maybe\n").is_err());
        assert!(parse_header("-- expect: fail\n").is_err());
        assert!(parse_header("-- expect: pass extra\n").is_err());
    }
}
