//! A parser for a MODEST concrete-syntax subset, sufficient for the
//! models of Bozga et al. (DATE 2012, §III) — in particular the Fig. 5
//! channel process parses verbatim:
//!
//! ```text
//! const TD = 1;
//! clock c;
//! action put, get;
//! process Channel() {
//!   put palt {
//!     :98: {= c = 0 =}; invariant(c <= TD) get
//!     : 2: {==}                 // message lost
//!   }; Channel()
//! }
//! system Channel();
//! ```
//!
//! Supported declarations: `const NAME = INT;`, `clock c;`,
//! `action a, b;`, `int [lo, hi] name (= init)?;`,
//! `int [lo, hi] name[len];`. Process bodies support `stop`, `skip`,
//! action prefixes with `{= assignments =}` blocks, `palt`, `alt`,
//! `when(...)`, `invariant(...)`, tail calls, and `;` sequencing;
//! `when`/`invariant` scope over the remainder of their sequence.
//! The composition is given by `system P() || Q() || ...;`.

use crate::ast::{ActionId, Assignment, ModestModel, PaltBranch, Process};
use std::collections::HashMap;
use std::fmt;
use tempo_dbm::Clock;
use tempo_expr::{BinOp, Expr, VarId};
use tempo_ta::ClockAtom;

/// A parse error with line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Error description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for tempo_obs::Diagnostic {
    fn from(e: ParseError) -> Self {
        tempo_obs::Diagnostic::error(
            "PARSE",
            None,
            format!("{}:{}: {}", e.line, e.col, e.message),
        )
    }
}

impl From<ParseError> for tempo_obs::LintError {
    fn from(e: ParseError) -> Self {
        tempo_obs::LintError {
            diagnostics: vec![e.into()],
        }
    }
}

/// Parses a MODEST model from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending token.
pub fn parse_modest(source: &str) -> Result<ModestModel, ParseError> {
    let (tokens, eof) = lex(source)?;
    Parser::new(tokens, eof).model()
}

// --------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    // Punctuation / operators.
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    AsgnOpen,  // {=
    AsgnClose, // =}
    Assign,    // =
    EqEq,
    Ne,
    Le,
    Lt,
    Ge,
    Gt,
    AndAnd,
    Not,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    ParPar, // ||  (also used as OrOr in expressions; disambiguated by context)
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(source: &str) -> Result<(Vec<Spanned>, (usize, usize)), ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let n = chars.len();
    macro_rules! push {
        ($t:expr, $len:expr) => {{
            out.push(Spanned { tok: $t, line, col });
            i += $len;
            col += $len;
        }};
    }
    while i < n {
        let c = chars[i];
        let c2 = chars.get(i + 1).copied().unwrap_or('\0');
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if c2 == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if c2 == '*' => {
                i += 2;
                col += 2;
                while i + 1 < n && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
                i += 2;
                col += 2;
            }
            '{' if c2 == '=' => push!(Tok::AsgnOpen, 2),
            '=' if c2 == '}' => push!(Tok::AsgnClose, 2),
            '{' => push!(Tok::LBrace, 1),
            '}' => push!(Tok::RBrace, 1),
            '(' => push!(Tok::LParen, 1),
            ')' => push!(Tok::RParen, 1),
            '[' => push!(Tok::LBracket, 1),
            ']' => push!(Tok::RBracket, 1),
            ';' => push!(Tok::Semi, 1),
            ',' => push!(Tok::Comma, 1),
            ':' => push!(Tok::Colon, 1),
            '=' if c2 == '=' => push!(Tok::EqEq, 2),
            '=' => push!(Tok::Assign, 1),
            '!' if c2 == '=' => push!(Tok::Ne, 2),
            '!' => push!(Tok::Not, 1),
            '<' if c2 == '=' => push!(Tok::Le, 2),
            '<' => push!(Tok::Lt, 1),
            '>' if c2 == '=' => push!(Tok::Ge, 2),
            '>' => push!(Tok::Gt, 1),
            '&' if c2 == '&' => push!(Tok::AndAnd, 2),
            '|' if c2 == '|' => push!(Tok::ParPar, 2),
            '+' => push!(Tok::Plus, 1),
            '-' => push!(Tok::Minus, 1),
            '*' => push!(Tok::Star, 1),
            '/' => push!(Tok::Slash, 1),
            '%' => push!(Tok::Percent, 1),
            '0'..='9' => {
                let start = i;
                while i < n && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let value = text.parse().map_err(|_| ParseError {
                    message: format!("integer {text} out of range"),
                    line,
                    col,
                })?;
                out.push(Spanned {
                    tok: Tok::Int(value),
                    line,
                    col,
                });
                col += i - start;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.push(Spanned {
                    tok: Tok::Ident(text),
                    line,
                    col,
                });
                col += i - start;
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character {other:?}"),
                    line,
                    col,
                })
            }
        }
    }
    Ok((out, (line, col)))
}

// --------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------

/// What a bare identifier resolves to.
#[derive(Debug, Clone, Copy)]
enum Symbol {
    Clock(Clock),
    Var(VarId),
    Action(ActionId),
    Const(i64),
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Position just past the last character of the source, for errors at
    /// end-of-input (always 1-based, even when the token stream is empty).
    eof: (usize, usize),
    model: ModestModel,
    symbols: HashMap<String, Symbol>,
}

impl Parser {
    fn new(tokens: Vec<Spanned>, eof: (usize, usize)) -> Self {
        Parser {
            tokens,
            pos: 0,
            eof,
            model: ModestModel::new(),
            symbols: HashMap::new(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|s| &s.tok)
    }

    fn here(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos)
            .map_or(self.eof, |s| (s.line, s.col))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(v)
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                let v = self.expect_int(what)?;
                Ok(-v)
            }
            Some(Tok::Ident(name)) => match self.symbols.get(&name) {
                Some(Symbol::Const(v)) => {
                    let v = *v;
                    self.pos += 1;
                    Ok(v)
                }
                _ => Err(self.err(format!("expected {what}, found identifier {name}"))),
            },
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn model(mut self) -> Result<ModestModel, ParseError> {
        while let Some(tok) = self.peek().cloned() {
            match tok {
                Tok::Ident(kw) if kw == "const" => self.const_decl()?,
                Tok::Ident(kw) if kw == "clock" => self.clock_decl()?,
                Tok::Ident(kw) if kw == "action" => self.action_decl()?,
                Tok::Ident(kw) if kw == "int" => self.int_decl()?,
                Tok::Ident(kw) if kw == "process" => self.process_decl()?,
                Tok::Ident(kw) if kw == "system" => self.system_decl()?,
                other => return Err(self.err(format!("expected a declaration, found {other:?}"))),
            }
        }
        Ok(self.model)
    }

    fn const_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // const
        let name = self.expect_ident("constant name")?;
        self.expect(&Tok::Assign, "=")?;
        let value = self.expect_int("constant value")?;
        self.expect(&Tok::Semi, ";")?;
        self.symbols.insert(name, Symbol::Const(value));
        Ok(())
    }

    fn clock_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // clock
        loop {
            let name = self.expect_ident("clock name")?;
            let c = self.model.clock(&name);
            self.symbols.insert(name, Symbol::Clock(c));
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi, ";")
    }

    fn action_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // action
        loop {
            let name = self.expect_ident("action name")?;
            let a = self.model.action(&name);
            self.symbols.insert(name, Symbol::Action(a));
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi, ";")
    }

    fn int_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // int
        self.expect(&Tok::LBracket, "[")?;
        let lo = self.expect_int("lower bound")?;
        self.expect(&Tok::Comma, ",")?;
        let hi = self.expect_int("upper bound")?;
        self.expect(&Tok::RBracket, "]")?;
        let name = self.expect_ident("variable name")?;
        let id = if self.peek() == Some(&Tok::LBracket) {
            self.bump();
            let len = self.expect_int("array length")?;
            self.expect(&Tok::RBracket, "]")?;
            if len <= 0 {
                return Err(self.err("array length must be positive"));
            }
            self.model.decls_mut().array(&name, len as usize, lo, hi)
        } else if self.peek() == Some(&Tok::Assign) {
            self.bump();
            let init = self.expect_int("initial value")?;
            self.model.decls_mut().int_init(&name, lo, hi, init)
        } else {
            self.model.decls_mut().int(&name, lo, hi)
        };
        self.expect(&Tok::Semi, ";")?;
        self.symbols.insert(name, Symbol::Var(id));
        Ok(())
    }

    fn process_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // process
        let name = self.expect_ident("process name")?;
        self.expect(&Tok::LParen, "(")?;
        self.expect(&Tok::RParen, ")")?;
        self.expect(&Tok::LBrace, "{")?;
        let body = self.sequence()?;
        self.expect(&Tok::RBrace, "}")?;
        self.model.define(&name, body);
        Ok(())
    }

    fn system_decl(&mut self) -> Result<(), ParseError> {
        self.bump(); // system
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident("process name")?;
            if self.peek() == Some(&Tok::LParen) {
                self.bump();
                self.expect(&Tok::RParen, ")")?;
            }
            names.push(name);
            if self.peek() == Some(&Tok::ParPar) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Semi, ";")?;
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        self.model.system(&refs);
        Ok(())
    }

    /// A `;`-separated sequence of process atoms, folded right-to-left
    /// with [`Process::then`]. Ends at `}` or at a palt branch marker.
    fn sequence(&mut self) -> Result<Process, ParseError> {
        let mut atoms = vec![self.atom()?];
        while self.peek() == Some(&Tok::Semi) {
            self.bump();
            if self.at_sequence_end() {
                break;
            }
            atoms.push(self.atom()?);
        }
        let mut proc = atoms.pop().expect("at least one atom");
        while let Some(prev) = atoms.pop() {
            proc = prev.then(proc);
        }
        Ok(proc)
    }

    fn at_sequence_end(&self) -> bool {
        matches!(self.peek(), None | Some(Tok::RBrace | Tok::Colon))
    }

    /// One process atom.
    fn atom(&mut self) -> Result<Process, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Ident(kw)) if kw == "stop" => {
                self.bump();
                Ok(Process::stop())
            }
            Some(Tok::Ident(kw)) if kw == "skip" => {
                self.bump();
                Ok(Process::skip())
            }
            Some(Tok::Ident(kw)) if kw == "alt" => {
                self.bump();
                self.expect(&Tok::LBrace, "{")?;
                let mut choices = Vec::new();
                // Each choice starts with `::`.
                while self.peek() == Some(&Tok::Colon) && self.peek2() == Some(&Tok::Colon) {
                    self.bump();
                    self.bump();
                    choices.push(self.sequence()?);
                }
                self.expect(&Tok::RBrace, "}")?;
                if choices.is_empty() {
                    return Err(self.err("alt requires at least one `::` choice"));
                }
                Ok(Process::alt(choices))
            }
            Some(Tok::Ident(kw)) if kw == "when" => {
                self.bump();
                self.expect(&Tok::LParen, "(")?;
                let (clock_atoms, data) = self.guard_expr()?;
                self.expect(&Tok::RParen, ")")?;
                let rest = self.sequence()?;
                let mut proc = rest;
                if let Some(e) = data {
                    proc = Process::when(e, proc);
                }
                for atom in clock_atoms.into_iter().rev() {
                    proc = Process::when_clock(atom, proc);
                }
                Ok(proc)
            }
            Some(Tok::Ident(kw)) if kw == "invariant" => {
                self.bump();
                self.expect(&Tok::LParen, "(")?;
                let (clock_atoms, data) = self.guard_expr()?;
                if data.is_some() {
                    return Err(self.err("invariants must be clock constraints"));
                }
                self.expect(&Tok::RParen, ")")?;
                let rest = self.sequence()?;
                Ok(Process::invariant(clock_atoms, rest))
            }
            Some(Tok::Ident(name)) => {
                // Call, action prefix or palt.
                match self.symbols.get(&name).copied() {
                    Some(Symbol::Action(a)) => {
                        self.bump();
                        if matches!(self.peek(), Some(Tok::Ident(kw)) if kw == "palt") {
                            self.bump();
                            self.expect(&Tok::LBrace, "{")?;
                            let mut branches = Vec::new();
                            while self.peek() == Some(&Tok::Colon) {
                                self.bump();
                                let weight = self.expect_int("branch weight")?;
                                if weight < 0 {
                                    return Err(self.err("weights must be non-negative"));
                                }
                                self.expect(&Tok::Colon, ":")?;
                                let assignments = if self.peek() == Some(&Tok::AsgnOpen) {
                                    self.assignments()?
                                } else {
                                    Vec::new()
                                };
                                let then = if self.peek() == Some(&Tok::Semi) {
                                    self.bump();
                                    if self.at_sequence_end() {
                                        Process::skip()
                                    } else {
                                        self.sequence()?
                                    }
                                } else {
                                    Process::skip()
                                };
                                branches.push(PaltBranch {
                                    weight: weight as u64,
                                    assignments,
                                    then,
                                });
                            }
                            self.expect(&Tok::RBrace, "}")?;
                            if branches.is_empty() {
                                return Err(self.err("palt requires at least one branch"));
                            }
                            Ok(Process::palt(a, branches))
                        } else {
                            let assignments = if self.peek() == Some(&Tok::AsgnOpen) {
                                self.assignments()?
                            } else {
                                Vec::new()
                            };
                            Ok(Process::act_with(a, assignments, Process::skip()))
                        }
                    }
                    _ => {
                        // Tail call `Name()`.
                        self.bump();
                        self.expect(&Tok::LParen, "( for a process call")?;
                        self.expect(&Tok::RParen, ")")?;
                        Ok(Process::call(&name))
                    }
                }
            }
            other => Err(self.err(format!("expected a process expression, found {other:?}"))),
        }
    }

    /// `{= asgn, asgn, ... =}` (possibly empty: `{==}`).
    fn assignments(&mut self) -> Result<Vec<Assignment>, ParseError> {
        self.expect(&Tok::AsgnOpen, "{=")?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::AsgnClose) {
            let name = self.expect_ident("assignment target")?;
            match self.symbols.get(&name).copied() {
                Some(Symbol::Clock(c)) => {
                    self.expect(&Tok::Assign, "=")?;
                    let v = self.expect_int("clock reset value")?;
                    out.push(Assignment::Clock(c, v));
                }
                Some(Symbol::Var(id)) => {
                    if self.peek() == Some(&Tok::LBracket) {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(&Tok::RBracket, "]")?;
                        self.expect(&Tok::Assign, "=")?;
                        let value = self.expr()?;
                        out.push(Assignment::ArrayElem(id, index, value));
                    } else {
                        self.expect(&Tok::Assign, "=")?;
                        let value = self.expr()?;
                        out.push(Assignment::Var(id, value));
                    }
                }
                _ => return Err(self.err(format!("unknown assignment target {name}"))),
            }
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::AsgnClose, "=}")?;
        Ok(out)
    }

    /// A guard: a `&&`-conjunction whose clock-comparison conjuncts become
    /// [`ClockAtom`]s and whose data conjuncts become one [`Expr`].
    fn guard_expr(&mut self) -> Result<(Vec<ClockAtom>, Option<Expr>), ParseError> {
        let mut atoms = Vec::new();
        let mut data: Option<Expr> = None;
        loop {
            // Clock conjunct: IDENT(clock) cmp INT.
            let is_clock = matches!(
                (self.peek(), self.peek2()),
                (Some(Tok::Ident(name)), Some(Tok::Le | Tok::Lt | Tok::Ge | Tok::Gt | Tok::EqEq))
                    if matches!(self.symbols.get(name), Some(Symbol::Clock(_)))
            );
            if is_clock {
                let name = self.expect_ident("clock")?;
                let Some(Symbol::Clock(c)) = self.symbols.get(&name).copied() else {
                    unreachable!("checked above")
                };
                let op = self.bump().expect("comparison");
                let bound = self.expect_int("clock bound")?;
                match op {
                    Tok::Le => atoms.push(ClockAtom::le(c, bound)),
                    Tok::Lt => atoms.push(ClockAtom::lt(c, bound)),
                    Tok::Ge => atoms.push(ClockAtom::ge(c, bound)),
                    Tok::Gt => atoms.push(ClockAtom::gt(c, bound)),
                    Tok::EqEq => {
                        atoms.push(ClockAtom::ge(c, bound));
                        atoms.push(ClockAtom::le(c, bound));
                    }
                    _ => unreachable!("checked above"),
                }
            } else {
                let e = self.comparison()?;
                data = Some(match data {
                    Some(d) => d & e,
                    None => e,
                });
            }
            if self.peek() == Some(&Tok::AndAnd) {
                self.bump();
            } else {
                return Ok((atoms, data));
            }
        }
    }

    // Expression grammar: ||, &&, comparison, additive, multiplicative,
    // unary, primary.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Some(&Tok::ParPar) {
            self.bump();
            lhs = lhs | self.and_expr()?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.comparison()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.bump();
            lhs = lhs & self.comparison()?;
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Ge) => BinOp::Ge,
            Some(Tok::Gt) => BinOp::Gt,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(lhs.bin(op, rhs))
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    lhs = lhs + self.multiplicative()?;
                }
                Some(Tok::Minus) => {
                    self.bump();
                    lhs = lhs - self.multiplicative()?;
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = lhs.bin(op, self.unary()?);
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.bump();
                Ok(-self.unary()?)
            }
            Some(Tok::Not) => {
                self.bump();
                Ok(!self.unary()?)
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.bump();
                Ok(Expr::konst(v))
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match self.symbols.get(&name).copied() {
                Some(Symbol::Var(id)) => {
                    self.bump();
                    if self.peek() == Some(&Tok::LBracket) {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(&Tok::RBracket, "]")?;
                        Ok(Expr::index(id, index))
                    } else {
                        Ok(Expr::var(id))
                    }
                }
                Some(Symbol::Const(v)) => {
                    self.bump();
                    Ok(Expr::konst(v))
                }
                _ => Err(self.err(format!("unknown variable {name}"))),
            },
            other => Err(self.err(format!("expected an expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::mcpta::Mcpta;
    use tempo_mdp::Opt;
    use tempo_obs::Budget;
    use tempo_ta::StateFormula;

    /// The paper's Fig. 5 channel, verbatim modulo declarations.
    const FIG5: &str = r"
        const TD = 1;
        clock c;
        action put, get;
        process Channel() {
          put palt {
            :98: {= c = 0 =}; invariant(c <= TD) get
            : 2: {==}                 // message lost
          }; Channel()
        }
        system Channel();
    ";

    #[test]
    fn fig5_parses_and_compiles() {
        let model = parse_modest(FIG5).expect("Fig. 5 parses");
        assert_eq!(model.actions().len(), 2);
        let net = compile(&model);
        assert_eq!(net.automata().len(), 1);
        let a = &net.automata()[0];
        // The continuation's `get` edge compiles before the two `put`
        // branches.
        let put = &a.edges[1..];
        assert_eq!(
            put.iter()
                .map(|e| (e.weight, e.continues_choice))
                .collect::<Vec<_>>(),
            vec![(98, false), (2, true)]
        );
        assert_eq!(put[1].to, a.initial, "lost → restart");
    }

    #[test]
    fn parsed_coin_has_exact_probability() {
        let src = r"
            action toss;
            int [0, 1] heads;
            process Coin() {
              toss palt {
                :3: {= heads = 1 =}; stop
                :1: {==}; stop
              }
            }
            system Coin();
        ";
        let model = parse_modest(src).expect("parses");
        let pta = compile(&model);
        let mc = Mcpta::try_build(&pta, &[], &Budget::unlimited().with_max_states(10_000))
            .into_value()
            .expect("the digital-clocks MDP fits the state budget");
        let heads = model.decls().lookup("heads").unwrap();
        let goal = StateFormula::data(Expr::var(heads).eq(Expr::konst(1)));
        let pmax = mc.reach_quantitative(Opt::Max, &goal, &Budget::unlimited());
        assert!((pmax.into_value().initial_value - 0.75).abs() < 1e-9);
    }

    #[test]
    fn alt_when_and_calls() {
        let src = r"
            clock x;
            action go, reset;
            int [0, 5] n;
            process P() {
              alt {
                :: when(n < 5 && x >= 2) go {= n = n + 1, x = 0 =}; P()
                :: when(n >= 5) reset {= n = 0 =}; P()
              }
            }
            system P();
        ";
        let model = parse_modest(src).expect("parses");
        let net = compile(&model);
        let a = &net.automata()[0];
        // Two edges out of the entry location, `go` first.
        assert!(a.edges.iter().all(|e| e.from == a.initial));
        assert_eq!(a.edges.len(), 2);
        // The go edge carries both the clock guard and the data guard.
        let go = &a.edges[0];
        assert_eq!(go.guard_clocks.len(), 1);
        assert_ne!(go.guard_data, Expr::truth());
        assert_eq!(go.resets, vec![(Clock(1), Expr::konst(0))]);
    }

    #[test]
    fn parallel_system_composition() {
        let src = r"
            action a;
            process P() { a; stop }
            process Q() { a; stop }
            system P() || Q();
        ";
        let model = parse_modest(src).expect("parses");
        assert_eq!(model.system_processes().len(), 2);
        let net = compile(&model);
        assert_eq!(net.channels().len(), 1, "a shared action is a channel");
        let dirs: Vec<_> = net
            .automata()
            .iter()
            .map(|a| a.edges[0].sync.as_ref().map(|s| s.dir))
            .collect();
        assert_eq!(
            dirs,
            vec![Some(tempo_ta::SyncDir::Send), Some(tempo_ta::SyncDir::Recv)]
        );
    }

    #[test]
    fn arrays_and_consts() {
        let src = r"
            const N = 3;
            action tick;
            int [0, 9] buf[4];
            int [0, 9] i;
            process P() {
              when(i < N) tick {= buf[i] = i * 2, i = i + 1 =}; P()
            }
            system P();
        ";
        let model = parse_modest(src).expect("parses");
        let net = compile(&model);
        assert_eq!(net.automata().len(), 1);
    }

    #[test]
    fn error_reporting_has_positions() {
        let err = parse_modest("process P() { ??? }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("parse error"));
        let err = parse_modest("action a;\nprocess P() { b; stop }\nsystem P();").unwrap_err();
        assert_eq!(err.line, 2, "unknown name b on line 2: {err}");
    }

    #[test]
    fn errors_at_end_of_input_point_past_the_last_token() {
        // Missing `;` after the declaration: the error sits at end of
        // input, one column past `a` — not the old (0, 0) placeholder.
        let err = parse_modest("action a").unwrap_err();
        assert_eq!((err.line, err.col), (1, 9), "{err}");
        // A trailing newline moves end-of-input to the next line.
        let err = parse_modest("action a,\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 1), "{err}");
    }

    #[test]
    fn parse_errors_convert_to_diagnostics() {
        let err = parse_modest("process P() { ??? }").unwrap_err();
        let diag: tempo_obs::Diagnostic = err.clone().into();
        assert_eq!(diag.severity, tempo_obs::Severity::Error);
        assert_eq!(diag.code, "PARSE");
        assert!(diag.message.contains(&format!("{}:{}", err.line, err.col)));
        let lint: tempo_obs::LintError = err.into();
        assert_eq!(lint.diagnostics.len(), 1);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "
            // line comment
            /* block
               comment */
            action a;
            process P() { a; stop }
            system P();
        ";
        assert!(parse_modest(src).is_ok());
    }
}
