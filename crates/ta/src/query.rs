//! UPPAAL's textual property language: "safety, liveness and
//! time-bounded liveness properties" (Bozga et al., DATE 2012, §II).
//!
//! Queries are parsed against a [`Network`] (names are resolved to
//! automata, locations, variables and clocks) and dispatched to the
//! symbolic engine:
//!
//! ```text
//! A[] forall-style safety        A[] not (Train0.Cross and Train1.Cross)
//! E<> reachability               E<> Gate.Occ and len > 0
//! leads-to                       Train0.Appr --> Train0.Cross
//! deadlock-freedom               A[] not deadlock
//! ```
//!
//! State predicates support `Automaton.Location` atoms, integer
//! comparisons over declared variables (including `arr[i]`), clock
//! comparisons (`x0 <= 10`), and `not` / `and` / `or` / parentheses
//! (symbolic `!`, `&&`, `||` also accepted).

use crate::formula::StateFormula;
use crate::liveness::leads_to_governed;
use crate::model::{ClockAtom, Network};
use crate::reach::{ModelChecker, Stats, Trace, Verdict};
use tempo_dbm::Clock;
use tempo_expr::{BinOp, Expr};
use tempo_obs::{Budget, Outcome};

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `A[] φ`.
    Always(StateFormula),
    /// `E<> φ`.
    Eventually(StateFormula),
    /// `φ --> ψ`.
    LeadsTo(StateFormula, StateFormula),
    /// `A[] not deadlock`.
    DeadlockFree,
}

/// The result of running a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Whether the property is satisfied.
    pub satisfied: bool,
    /// Witness (for satisfied `E<>`) or counterexample (for violated
    /// `A[]` / deadlock) trace.
    pub trace: Option<Trace>,
    /// Exploration statistics.
    pub stats: Stats,
}

/// An error raised while parsing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Description, including the offending fragment.
    pub message: String,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query error: {}", self.message)
    }
}

impl std::error::Error for QueryError {}

/// Parses a textual query against a network.
///
/// # Errors
///
/// Returns [`QueryError`] on syntax errors or unresolved names.
pub fn parse_query(net: &Network, text: &str) -> Result<Query, QueryError> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix("A[]") {
        let rest = rest.trim();
        if rest == "not deadlock" || rest == "!deadlock" {
            return Ok(Query::DeadlockFree);
        }
        return Ok(Query::Always(parse_formula(net, rest)?));
    }
    if let Some(rest) = text.strip_prefix("E<>") {
        return Ok(Query::Eventually(parse_formula(net, rest)?));
    }
    if let Some(pos) = text.find("-->") {
        let phi = parse_formula(net, &text[..pos])?;
        let psi = parse_formula(net, &text[pos + 3..])?;
        return Ok(Query::LeadsTo(phi, psi));
    }
    Err(QueryError {
        message: format!("expected A[] / E<> / --> query, got {text:?}"),
    })
}

/// Parses and immediately checks a query.
///
/// # Errors
///
/// Returns [`QueryError`] if the query does not parse or is a leads-to
/// over clock constraints (see [`check_query_governed`]).
pub fn check_query(net: &Network, text: &str) -> Result<QueryResult, QueryError> {
    check_query_governed(net, text, &Budget::unlimited()).map(Outcome::into_value)
}

/// Parses and checks a query under a resource [`Budget`].
///
/// With [`Budget::unlimited`] this is exactly [`check_query`]. On
/// exhaustion the partial [`QueryResult`] carries the weakest sound
/// reading for the query form: "goal not found so far" for `E<>`,
/// "no violation found so far" for `A[]` / `-->` / deadlock-freedom.
///
/// # Errors
///
/// Returns [`QueryError`] if the query does not parse, or if it is a
/// leads-to whose sides are not both discrete (the engine reads no
/// clock constraints there).
pub fn check_query_governed(
    net: &Network,
    text: &str,
    budget: &Budget,
) -> Result<Outcome<QueryResult>, QueryError> {
    let query = parse_query(net, text)?;
    let mut mc = ModelChecker::new(net);
    const IN_MEMORY: &str = "a checker without a spill config never fails";
    let verdict_outcome = match query {
        Query::Always(f) => mc.try_always_governed(&f, budget).expect(IN_MEMORY),
        Query::Eventually(f) => {
            let out = mc.try_reachable_governed(&f, budget).expect(IN_MEMORY);
            return Ok(out.map(|res| QueryResult {
                satisfied: res.reachable,
                trace: res.trace,
                stats: res.stats,
            }));
        }
        Query::LeadsTo(phi, psi) => {
            if !(phi.is_discrete() && psi.is_discrete()) {
                return Err(QueryError {
                    message: "leads-to supports only location and data predicates, \
                              not clock constraints"
                        .to_owned(),
                });
            }
            leads_to_governed(net, &phi, &psi, budget)
        }
        Query::DeadlockFree => mc.try_deadlock_free_governed(budget).expect(IN_MEMORY),
    };
    Ok(verdict_outcome.map(|(verdict, stats)| match verdict {
        Verdict::Satisfied => QueryResult {
            satisfied: true,
            trace: None,
            stats,
        },
        Verdict::Violated(t) => QueryResult {
            satisfied: false,
            trace: Some(t),
            stats,
        },
    }))
}

/// Parses a state formula against the network's names.
///
/// # Errors
///
/// Returns [`QueryError`] on syntax errors or unresolved names.
pub fn parse_formula(net: &Network, text: &str) -> Result<StateFormula, QueryError> {
    let tokens = tokenize(text)?;
    let mut p = FParser {
        net,
        tokens,
        pos: 0,
    };
    let f = p.or_formula()?;
    if p.pos != p.tokens.len() {
        return Err(QueryError {
            message: format!("trailing input starting at {:?}", p.tokens[p.pos]),
        });
    }
    Ok(f)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum T {
    Ident(String),
    Int(i64),
    Dot,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Le,
    Lt,
    Ge,
    Gt,
    EqEq,
    Ne,
    And,
    Or,
    Not,
    Plus,
    Minus,
    Star,
}

fn tokenize(text: &str) -> Result<Vec<T>, QueryError> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < chars.len() {
        let c = chars[i];
        let c2 = chars.get(i + 1).copied().unwrap_or('\0');
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '.' => {
                out.push(T::Dot);
                i += 1;
            }
            '(' => {
                out.push(T::LParen);
                i += 1;
            }
            ')' => {
                out.push(T::RParen);
                i += 1;
            }
            '[' => {
                out.push(T::LBracket);
                i += 1;
            }
            ']' => {
                out.push(T::RBracket);
                i += 1;
            }
            '<' if c2 == '=' => {
                out.push(T::Le);
                i += 2;
            }
            '<' => {
                out.push(T::Lt);
                i += 1;
            }
            '>' if c2 == '=' => {
                out.push(T::Ge);
                i += 2;
            }
            '>' => {
                out.push(T::Gt);
                i += 1;
            }
            '=' if c2 == '=' => {
                out.push(T::EqEq);
                i += 2;
            }
            '!' if c2 == '=' => {
                out.push(T::Ne);
                i += 2;
            }
            '!' => {
                out.push(T::Not);
                i += 1;
            }
            '&' if c2 == '&' => {
                out.push(T::And);
                i += 2;
            }
            '|' if c2 == '|' => {
                out.push(T::Or);
                i += 2;
            }
            '+' => {
                out.push(T::Plus);
                i += 1;
            }
            '-' => {
                out.push(T::Minus);
                i += 1;
            }
            '*' => {
                out.push(T::Star);
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.push(T::Int(text.parse().map_err(|_| QueryError {
                    message: format!("integer {text} out of range"),
                })?));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                match word.as_str() {
                    "and" => out.push(T::And),
                    "or" => out.push(T::Or),
                    "not" => out.push(T::Not),
                    _ => out.push(T::Ident(word)),
                }
            }
            other => {
                return Err(QueryError {
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct FParser<'n> {
    net: &'n Network,
    tokens: Vec<T>,
    pos: usize,
}

impl FParser<'_> {
    fn peek(&self) -> Option<&T> {
        self.tokens.get(self.pos)
    }

    fn eat(&mut self, t: &T) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError {
            message: msg.into(),
        }
    }

    fn or_formula(&mut self) -> Result<StateFormula, QueryError> {
        let mut parts = vec![self.and_formula()?];
        while self.eat(&T::Or) {
            parts.push(self.and_formula()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            StateFormula::or(parts)
        })
    }

    fn and_formula(&mut self) -> Result<StateFormula, QueryError> {
        let mut parts = vec![self.unary_formula()?];
        while self.eat(&T::And) {
            parts.push(self.unary_formula()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            StateFormula::and(parts)
        })
    }

    fn unary_formula(&mut self) -> Result<StateFormula, QueryError> {
        if self.eat(&T::Not) {
            return Ok(StateFormula::not(self.unary_formula()?));
        }
        if self.eat(&T::LParen) {
            let f = self.or_formula()?;
            if !self.eat(&T::RParen) {
                return Err(self.err("expected )"));
            }
            return Ok(f);
        }
        self.atom()
    }

    /// `Automaton.Location`, `clock cmp int`, or `expr cmp expr`.
    fn atom(&mut self) -> Result<StateFormula, QueryError> {
        // Location atom: Ident '.' Ident where the first resolves to an
        // automaton.
        if let (Some(T::Ident(a)), Some(T::Dot)) = (self.peek(), self.tokens.get(self.pos + 1)) {
            let a = a.clone();
            if let Some(aid) = self.net.automaton_by_name(&a) {
                self.pos += 2;
                let loc_name = match self.peek() {
                    Some(T::Ident(l)) => l.clone(),
                    other => return Err(self.err(format!("expected location, got {other:?}"))),
                };
                self.pos += 1;
                let lid = self
                    .net
                    .automaton(aid)
                    .location_by_name(&loc_name)
                    .ok_or_else(|| self.err(format!("automaton {a} has no location {loc_name}")))?;
                return Ok(StateFormula::at(aid, lid));
            }
        }
        // Clock atom: clock-name cmp int.
        if let Some(T::Ident(name)) = self.peek() {
            if let Some(clock) = self.net.clock_by_name(name) {
                self.pos += 1;
                let op = self.bump_cmp()?;
                let c = self.int_operand()?;
                return Ok(clock_formula(clock, &op, c));
            }
        }
        // Data comparison.
        let lhs = self.additive()?;
        let op = self.bump_cmp()?;
        let rhs = self.additive()?;
        let bin = match op {
            T::Le => BinOp::Le,
            T::Lt => BinOp::Lt,
            T::Ge => BinOp::Ge,
            T::Gt => BinOp::Gt,
            T::EqEq => BinOp::Eq,
            T::Ne => BinOp::Ne,
            _ => return Err(self.err("expected a comparison")),
        };
        Ok(StateFormula::data(lhs.bin(bin, rhs)))
    }

    fn bump_cmp(&mut self) -> Result<T, QueryError> {
        match self.peek().cloned() {
            Some(t @ (T::Le | T::Lt | T::Ge | T::Gt | T::EqEq | T::Ne)) => {
                self.pos += 1;
                Ok(t)
            }
            other => Err(self.err(format!("expected a comparison, got {other:?}"))),
        }
    }

    fn int_operand(&mut self) -> Result<i64, QueryError> {
        let neg = self.eat(&T::Minus);
        match self.peek().cloned() {
            Some(T::Int(v)) => {
                self.pos += 1;
                Ok(if neg { -v } else { v })
            }
            other => Err(self.err(format!("expected an integer bound, got {other:?}"))),
        }
    }

    fn additive(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.multiplicative()?;
        loop {
            if self.eat(&T::Plus) {
                lhs = lhs + self.multiplicative()?;
            } else if self.eat(&T::Minus) {
                lhs = lhs - self.multiplicative()?;
            } else {
                return Ok(lhs);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.primary()?;
        while self.eat(&T::Star) {
            lhs = lhs * self.primary()?;
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr, QueryError> {
        match self.peek().cloned() {
            Some(T::Int(v)) => {
                self.pos += 1;
                Ok(Expr::konst(v))
            }
            Some(T::Minus) => {
                self.pos += 1;
                Ok(-self.primary()?)
            }
            Some(T::LParen) => {
                self.pos += 1;
                let e = self.additive()?;
                if !self.eat(&T::RParen) {
                    return Err(self.err("expected )"));
                }
                Ok(e)
            }
            Some(T::Ident(name)) => {
                let id = self
                    .net
                    .decls()
                    .lookup(&name)
                    .ok_or_else(|| self.err(format!("unknown variable {name}")))?;
                self.pos += 1;
                if self.eat(&T::LBracket) {
                    let idx = self.additive()?;
                    if !self.eat(&T::RBracket) {
                        return Err(self.err("expected ]"));
                    }
                    Ok(Expr::index(id, idx))
                } else {
                    Ok(Expr::var(id))
                }
            }
            other => Err(self.err(format!("expected an expression, got {other:?}"))),
        }
    }
}

fn clock_formula(clock: Clock, op: &T, c: i64) -> StateFormula {
    let atom = match op {
        T::Le => ClockAtom::le(clock, c),
        T::Lt => ClockAtom::lt(clock, c),
        T::Ge => ClockAtom::ge(clock, c),
        T::Gt => ClockAtom::gt(clock, c),
        T::EqEq => {
            return StateFormula::and(vec![
                StateFormula::clock(ClockAtom::ge(clock, c)),
                StateFormula::clock(ClockAtom::le(clock, c)),
            ])
        }
        T::Ne => {
            return StateFormula::or(vec![
                StateFormula::clock(ClockAtom::lt(clock, c)),
                StateFormula::clock(ClockAtom::gt(clock, c)),
            ])
        }
        _ => unreachable!("bump_cmp filters the operators"),
    };
    StateFormula::clock(atom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;

    fn lamp() -> Network {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let level = b.decls_mut().int("level", 0, 3);
        let mut a = b.automaton("Lamp");
        let off = a.location("Off");
        let on = a.location_with_invariant("On", vec![ClockAtom::le(x, 10)]);
        a.edge(off, on)
            .reset(x, 0)
            .update(tempo_expr::Stmt::assign(level, Expr::konst(2)))
            .done();
        a.edge(on, off)
            .guard_clock(ClockAtom::ge(x, 1))
            .update(tempo_expr::Stmt::assign(level, Expr::konst(0)))
            .done();
        a.done();
        b.build()
    }

    #[test]
    fn reachability_queries() {
        let net = lamp();
        let r = check_query(&net, "E<> Lamp.On").unwrap();
        assert!(r.satisfied);
        assert!(r.trace.is_some());
        let r = check_query(&net, "E<> Lamp.On and level == 2").unwrap();
        assert!(r.satisfied);
        let r = check_query(&net, "E<> Lamp.Off and level == 3").unwrap();
        assert!(!r.satisfied);
    }

    #[test]
    fn safety_queries() {
        let net = lamp();
        assert!(check_query(&net, "A[] level <= 2").unwrap().satisfied);
        assert!(
            check_query(&net, "A[] not (Lamp.On and level == 0)")
                .unwrap()
                .satisfied
        );
        assert!(!check_query(&net, "A[] Lamp.Off").unwrap().satisfied);
        // Clock bound: On implies x <= 10 (the invariant).
        assert!(
            check_query(&net, "A[] !Lamp.On || x <= 10")
                .unwrap()
                .satisfied
        );
        assert!(
            !check_query(&net, "A[] !Lamp.On || x <= 9")
                .unwrap()
                .satisfied
        );
    }

    #[test]
    fn deadlock_and_leads_to() {
        let net = lamp();
        assert!(check_query(&net, "A[] not deadlock").unwrap().satisfied);
        assert!(check_query(&net, "Lamp.On --> Lamp.Off").unwrap().satisfied);
        // Clock constraints are refused as an error, not a panic.
        assert!(check_query(&net, "x >= 1 --> Lamp.Off").is_err());
    }

    #[test]
    fn error_messages() {
        let net = lamp();
        assert!(parse_query(&net, "A[] Lamp.Nowhere").is_err());
        assert!(parse_query(&net, "E<> bogus == 1").is_err());
        assert!(parse_query(&net, "whatever").is_err());
        let err = parse_query(&net, "E<> Lamp.On extra").unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn symbolic_and_word_operators_agree() {
        let net = lamp();
        let a = parse_formula(&net, "not Lamp.On or level >= 1").unwrap();
        let b = parse_formula(&net, "!Lamp.On || level >= 1").unwrap();
        assert_eq!(a, b);
    }
}
