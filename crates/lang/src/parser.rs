//! Recursive-descent parser for `tempo-lang`.
//!
//! One error per run (like the MODEST parser): the first lexical or
//! syntactic problem aborts parsing and is reported as a
//! [`ParseError`] carrying the offending [`Span`]. Declarations must
//! precede process definitions so that guard atoms can be classified
//! (clock constraint vs. data comparison) by the declared kind of
//! their leading name during the single pass.
//!
//! Grammar sketch (see `DESIGN.md` for the full reference):
//!
//! ```text
//! model    := decl* processdef* system? assert*
//! decl     := param | channel | clock | var
//! proc     := echoice ('|~|' echoice)*
//! echoice  := term ('[]' term)*
//! term     := STOP | SKIP | '(' proc ')' | 'inv' '{' cc,* '}' term
//!           | ['when' '{' atom,* '}'] event ['{' upd,* '}'] '->' term
//!           | Name ['(' expr,* ')']
//! event    := 'tau' | chan '!' | chan '?'
//! system   := 'system' comp ('||' ['{' chan,* '}'] comp)*
//! comp     := Name ['(' expr,* ')'] ['\' '{' chan,* '}']
//!           [ '[[' old ':=' new ,* ']]' ] ['as' Name]
//! assert   := 'assert' (deadlock free | E<> f | A[] f | f --> f
//!           | Pmax[<> f] cmp p | Pmin[<> f] cmp p
//!           | Pr[<= e](<> f) cmp p ['{' opts '}']
//!           | Name refines Name | Name ioco Name)
//! ```

use crate::ast::*;
use crate::token::{lex, LexError, Span, Tok, Token};
use std::collections::HashSet;
use tempo_obs::Diagnostic;

/// Words that cannot be used as declaration or process names.
const RESERVED: &[&str] = &[
    "param",
    "channel",
    "urgent",
    "broadcast",
    "clock",
    "var",
    "process",
    "system",
    "assert",
    "when",
    "inv",
    "tau",
    "STOP",
    "SKIP",
    "true",
    "false",
    "as",
    "deadlock",
    "free",
    "refines",
    "ioco",
    "E",
    "A",
    "Pmax",
    "Pmin",
    "Pr",
    "runs",
    "confidence",
];

/// A frontend error: the first problem the lexer or parser hit.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Where the problem is.
    pub span: Span,
    /// Stable diagnostic code (`TL001`..).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Bridges the error into the shared `tempo-lint` diagnostic
    /// currency. The span travels in the message (the [`Diagnostic`]
    /// struct has no span field).
    #[must_use]
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error(self.code, None, format!("{}: {}", self.span, self.message))
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: error[{}]: {}", self.span, self.code, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            span: e.span,
            code: "TL001",
            message: e.message,
        }
    }
}

/// Parses a complete `tempo-lang` model.
///
/// # Errors
///
/// Returns the first lexical/syntactic/name error with its span.
pub fn parse(source: &str) -> Result<Model, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        clocks: HashSet::new(),
        vars: HashSet::new(),
        channels: HashSet::new(),
        params: HashSet::new(),
        calls: Vec::new(),
    };
    p.model()
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    clocks: HashSet<String>,
    vars: HashSet<String>,
    channels: HashSet<String>,
    params: HashSet<String>,
    /// Call sites (callee, arg count) recorded for post-parse
    /// definition/arity checking (recursion may be forward).
    calls: Vec<(Ident, usize)>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, ParseError> {
        if self.peek() == t {
            Ok(self.bump().span)
        } else {
            Err(self.err("TL002", format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, code: &'static str, message: impl Into<String>) -> ParseError {
        ParseError {
            span: self.span(),
            code,
            message: message.into(),
        }
    }

    /// True when the upcoming token is the identifier `kw`.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Ident, ParseError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.bump().span;
                Ok(Ident { name, span })
            }
            other => Err(self.err("TL002", format!("expected a name, found {other}"))),
        }
    }

    /// A fresh declaration name: not reserved, not already declared.
    fn decl_ident(&mut self) -> Result<Ident, ParseError> {
        let id = self.ident()?;
        if RESERVED.contains(&id.name.as_str()) {
            return Err(ParseError {
                span: id.span,
                code: "TL004",
                message: format!("`{}` is a reserved word", id.name),
            });
        }
        if self.clocks.contains(&id.name)
            || self.vars.contains(&id.name)
            || self.channels.contains(&id.name)
            || self.params.contains(&id.name)
        {
            return Err(ParseError {
                span: id.span,
                code: "TL004",
                message: format!("`{}` is already declared", id.name),
            });
        }
        Ok(id)
    }

    // ---------------------------------------------------------- model

    fn model(&mut self) -> Result<Model, ParseError> {
        let mut m = Model::default();
        let mut seen_process = false;
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) => {
                    let decl_like = matches!(
                        kw.as_str(),
                        "param" | "channel" | "urgent" | "broadcast" | "clock" | "var"
                    );
                    if decl_like && seen_process {
                        return Err(
                            self.err("TL002", "declarations must precede process definitions")
                        );
                    }
                    match kw.as_str() {
                        "param" => m.params.push(self.param_decl()?),
                        "channel" | "urgent" | "broadcast" => {
                            m.channels.push(self.channel_decl()?);
                        }
                        "clock" => self.clock_decl(&mut m.clocks)?,
                        "var" => m.vars.push(self.var_decl()?),
                        "process" => {
                            seen_process = true;
                            m.processes.push(self.process_def()?);
                        }
                        "system" => {
                            if m.system.is_some() {
                                return Err(self.err("TL002", "duplicate `system` line"));
                            }
                            m.system = Some(self.system_def()?);
                        }
                        "assert" => m.asserts.push(self.assert_def()?),
                        other => {
                            return Err(self.err(
                                "TL002",
                                format!("expected a declaration, `process`, `system` or `assert`, found `{other}`"),
                            ));
                        }
                    }
                }
                other => {
                    return Err(self.err("TL002", format!("unexpected {other} at top level")));
                }
            }
        }
        self.check_calls(&m)?;
        self.check_instances(&m)?;
        Ok(m)
    }

    fn param_decl(&mut self) -> Result<ParamDecl, ParseError> {
        self.bump(); // `param`
        let name = self.decl_ident()?;
        self.expect(&Tok::Eq)?;
        let neg = self.eat(&Tok::Minus);
        let value = match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                if neg {
                    -v
                } else {
                    v
                }
            }
            other => return Err(self.err("TL002", format!("expected an integer, found {other}"))),
        };
        self.params.insert(name.name.clone());
        Ok(ParamDecl { name, value })
    }

    fn channel_decl(&mut self) -> Result<ChannelDecl, ParseError> {
        let kind = if self.eat_kw("urgent") {
            if !self.eat_kw("channel") {
                return Err(self.err("TL002", "expected `channel` after `urgent`"));
            }
            ChannelKind::Urgent
        } else if self.eat_kw("broadcast") {
            if !self.eat_kw("channel") {
                return Err(self.err("TL002", "expected `channel` after `broadcast`"));
            }
            ChannelKind::Broadcast
        } else {
            self.bump(); // `channel`
            ChannelKind::Handshake
        };
        let mut names = vec![self.decl_ident()?];
        self.channels.insert(names[0].name.clone());
        while self.eat(&Tok::Comma) {
            let id = self.decl_ident()?;
            self.channels.insert(id.name.clone());
            names.push(id);
        }
        Ok(ChannelDecl { kind, names })
    }

    fn clock_decl(&mut self, out: &mut Vec<ClockDecl>) -> Result<(), ParseError> {
        self.bump(); // `clock`
        loop {
            let name = self.decl_ident()?;
            let size = if self.eat(&Tok::LBracket) {
                let e = self.int_expr(&HashSet::new())?;
                self.expect(&Tok::RBracket)?;
                Some(e)
            } else {
                None
            };
            self.clocks.insert(name.name.clone());
            out.push(ClockDecl { name, size });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(())
    }

    fn var_decl(&mut self) -> Result<VarDecl, ParseError> {
        self.bump(); // `var`
        let name = self.decl_ident()?;
        let size = if self.eat(&Tok::LBracket) {
            let e = self.int_expr(&HashSet::new())?;
            self.expect(&Tok::RBracket)?;
            Some(e)
        } else {
            None
        };
        self.expect(&Tok::Colon)?;
        let lo = self.int_expr(&HashSet::new())?;
        self.expect(&Tok::DotDot)?;
        let hi = self.int_expr(&HashSet::new())?;
        let init = if self.eat(&Tok::Eq) {
            Some(self.int_expr(&HashSet::new())?)
        } else {
            None
        };
        self.vars.insert(name.name.clone());
        Ok(VarDecl {
            name,
            size,
            lo,
            hi,
            init,
        })
    }

    fn process_def(&mut self) -> Result<ProcessDef, ParseError> {
        self.bump(); // `process`
        let name = self.ident()?;
        if RESERVED.contains(&name.name.as_str()) {
            return Err(ParseError {
                span: name.span,
                code: "TL004",
                message: format!("`{}` is a reserved word", name.name),
            });
        }
        let mut params = Vec::new();
        let mut formals = HashSet::new();
        if self.eat(&Tok::LParen) {
            loop {
                let id = self.ident()?;
                if RESERVED.contains(&id.name.as_str())
                    || self.clocks.contains(&id.name)
                    || self.vars.contains(&id.name)
                    || self.channels.contains(&id.name)
                    || self.params.contains(&id.name)
                    || formals.contains(&id.name)
                {
                    return Err(ParseError {
                        span: id.span,
                        code: "TL004",
                        message: format!("parameter `{}` shadows another declaration", id.name),
                    });
                }
                formals.insert(id.name.clone());
                params.push(id);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::Eq)?;
        let body = self.proc(&formals)?;
        Ok(ProcessDef { name, params, body })
    }

    // -------------------------------------------------------- process

    fn proc(&mut self, formals: &HashSet<String>) -> Result<Proc, ParseError> {
        let mut parts = vec![self.echoice(formals)?];
        while self.eat(&Tok::IntChoice) {
            parts.push(self.echoice(formals)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Proc::IntChoice(parts)
        })
    }

    fn echoice(&mut self, formals: &HashSet<String>) -> Result<Proc, ParseError> {
        let mut parts = vec![self.term(formals)?];
        while self.eat(&Tok::ExtChoice) {
            parts.push(self.term(formals)?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Proc::ExtChoice(parts)
        })
    }

    fn term(&mut self, formals: &HashSet<String>) -> Result<Proc, ParseError> {
        if self.eat(&Tok::LParen) {
            let p = self.proc(formals)?;
            self.expect(&Tok::RParen)?;
            return Ok(p);
        }
        if self.at_kw("STOP") {
            self.bump();
            return Ok(Proc::Stop);
        }
        if self.at_kw("SKIP") {
            self.bump();
            return Ok(Proc::Skip);
        }
        if self.eat_kw("inv") {
            self.expect(&Tok::LBrace)?;
            let mut atoms = vec![self.clock_constraint(formals)?];
            while self.eat(&Tok::Comma) {
                atoms.push(self.clock_constraint(formals)?);
            }
            self.expect(&Tok::RBrace)?;
            let body = self.term(formals)?;
            return Ok(Proc::Invariant(atoms, Box::new(body)));
        }
        if self.eat_kw("when") {
            self.expect(&Tok::LBrace)?;
            let mut guards = vec![self.guard_atom(formals)?];
            while self.eat(&Tok::Comma) {
                guards.push(self.guard_atom(formals)?);
            }
            self.expect(&Tok::RBrace)?;
            return self.prefix_tail(guards, formals);
        }
        // `tau`, `c!`, `c?` or a call.
        if self.at_kw("tau") {
            return self.prefix_tail(Vec::new(), formals);
        }
        if matches!(self.peek(), Tok::Ident(_)) && matches!(self.peek2(), Tok::Bang | Tok::Question)
        {
            return self.prefix_tail(Vec::new(), formals);
        }
        let callee = self.ident()?;
        let mut args = Vec::new();
        if self.eat(&Tok::LParen) {
            loop {
                args.push(self.int_expr(formals)?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.calls.push((callee.clone(), args.len()));
        Ok(Proc::Call(callee, args))
    }

    /// Event, optional update block, arrow, continuation.
    fn prefix_tail(
        &mut self,
        guards: Vec<GuardAtom>,
        formals: &HashSet<String>,
    ) -> Result<Proc, ParseError> {
        let event = if self.eat_kw("tau") {
            EventSpec::Tau
        } else {
            let chan = self.ident()?;
            if !self.channels.contains(&chan.name) {
                return Err(ParseError {
                    span: chan.span,
                    code: "TL003",
                    message: format!("`{}` is not a declared channel", chan.name),
                });
            }
            if self.eat(&Tok::Bang) {
                EventSpec::Send(chan)
            } else if self.eat(&Tok::Question) {
                EventSpec::Recv(chan)
            } else {
                return Err(self.err("TL002", "expected `!` or `?` after channel name"));
            }
        };
        let mut updates = Vec::new();
        if self.eat(&Tok::LBrace) {
            loop {
                updates.push(self.update(formals)?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
        }
        self.expect(&Tok::Arrow)?;
        let then = self.term(formals)?;
        Ok(Proc::Prefix {
            guards,
            event,
            updates,
            then: Box::new(then),
        })
    }

    fn clock_ref(&mut self, formals: &HashSet<String>) -> Result<ClockRef, ParseError> {
        let name = self.ident()?;
        if !self.clocks.contains(&name.name) {
            return Err(ParseError {
                span: name.span,
                code: "TL003",
                message: format!("`{}` is not a declared clock", name.name),
            });
        }
        let index = if self.eat(&Tok::LBracket) {
            let e = self.int_expr(formals)?;
            self.expect(&Tok::RBracket)?;
            Some(Box::new(e))
        } else {
            None
        };
        Ok(ClockRef { name, index })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Tok::Le => CmpOp::Le,
            Tok::Lt => CmpOp::Lt,
            Tok::Ge => CmpOp::Ge,
            Tok::Gt => CmpOp::Gt,
            Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            other => {
                return Err(self.err("TL002", format!("expected a comparison, found {other}")));
            }
        };
        self.bump();
        Ok(op)
    }

    fn clock_constraint(
        &mut self,
        formals: &HashSet<String>,
    ) -> Result<ClockConstraint, ParseError> {
        let clock = self.clock_ref(formals)?;
        let minus = if self.eat(&Tok::Minus) {
            Some(self.clock_ref(formals)?)
        } else {
            None
        };
        let op_span = self.span();
        let op = self.cmp_op()?;
        if op == CmpOp::Ne {
            return Err(ParseError {
                span: op_span,
                code: "TL006",
                message: "`!=` is not allowed in clock constraints".to_owned(),
            });
        }
        let bound = self.int_expr(formals)?;
        Ok(ClockConstraint {
            clock,
            minus,
            op,
            bound,
        })
    }

    fn guard_atom(&mut self, formals: &HashSet<String>) -> Result<GuardAtom, ParseError> {
        if matches!(self.peek(), Tok::Ident(n) if self.clocks.contains(n.as_str())) {
            Ok(GuardAtom::Clock(self.clock_constraint(formals)?))
        } else {
            let lhs = self.int_expr(formals)?;
            let op = self.cmp_op()?;
            let rhs = self.int_expr(formals)?;
            Ok(GuardAtom::Data(lhs, op, rhs))
        }
    }

    fn update(&mut self, formals: &HashSet<String>) -> Result<Update, ParseError> {
        if matches!(self.peek(), Tok::Ident(n) if self.clocks.contains(n.as_str())) {
            let c = self.clock_ref(formals)?;
            self.expect(&Tok::Assign)?;
            let e = self.int_expr(formals)?;
            return Ok(Update::ClockReset(c, e));
        }
        let name = self.ident()?;
        if !self.vars.contains(&name.name) {
            return Err(ParseError {
                span: name.span,
                code: "TL003",
                message: format!("`{}` is not a declared variable", name.name),
            });
        }
        let idx = if self.eat(&Tok::LBracket) {
            let e = self.int_expr(formals)?;
            self.expect(&Tok::RBracket)?;
            Some(Box::new(e))
        } else {
            None
        };
        self.expect(&Tok::Assign)?;
        let e = self.int_expr(formals)?;
        Ok(Update::Assign(name, idx, e))
    }

    // ---------------------------------------------------- expressions

    fn int_expr(&mut self, formals: &HashSet<String>) -> Result<IntExpr, ParseError> {
        let mut lhs = self.int_mul(formals)?;
        loop {
            let op = if self.eat(&Tok::Plus) {
                IntOp::Add
            } else if self.eat(&Tok::Minus) {
                IntOp::Sub
            } else {
                break;
            };
            let rhs = self.int_mul(formals)?;
            lhs = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn int_mul(&mut self, formals: &HashSet<String>) -> Result<IntExpr, ParseError> {
        let mut lhs = self.int_atom(formals)?;
        loop {
            let op = if self.eat(&Tok::Star) {
                IntOp::Mul
            } else if self.eat(&Tok::Slash) {
                IntOp::Div
            } else {
                break;
            };
            let rhs = self.int_atom(formals)?;
            lhs = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn int_atom(&mut self, formals: &HashSet<String>) -> Result<IntExpr, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(IntExpr::Lit(v))
            }
            Tok::Minus => {
                self.bump();
                let e = self.int_atom(formals)?;
                Ok(IntExpr::Neg(Box::new(e)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.int_expr(formals)?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.clocks.contains(&name) {
                    return Err(self.err(
                        "TL003",
                        format!("`{name}` is a clock; clocks cannot appear in data expressions"),
                    ));
                }
                if !(self.vars.contains(&name)
                    || self.params.contains(&name)
                    || formals.contains(&name))
                {
                    return Err(self.err(
                        "TL003",
                        format!(
                            "`{name}` is not a declared variable, parameter or process parameter"
                        ),
                    ));
                }
                let id = self.ident()?;
                if self.eat(&Tok::LBracket) {
                    let idx = self.int_expr(formals)?;
                    self.expect(&Tok::RBracket)?;
                    Ok(IntExpr::Index(id, Box::new(idx)))
                } else {
                    Ok(IntExpr::Name(id))
                }
            }
            other => Err(self.err("TL002", format!("expected an expression, found {other}"))),
        }
    }

    // --------------------------------------------------------- system

    fn system_def(&mut self) -> Result<SystemDef, ParseError> {
        self.bump(); // `system`
        let mut components = vec![self.component()?];
        let mut syncs = Vec::new();
        while self.eat(&Tok::Parallel) {
            let mut set = Vec::new();
            if self.eat(&Tok::LBrace) {
                loop {
                    let id = self.channel_name()?;
                    set.push(id);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RBrace)?;
            }
            syncs.push(set);
            components.push(self.component()?);
        }
        Ok(SystemDef { components, syncs })
    }

    fn channel_name(&mut self) -> Result<Ident, ParseError> {
        let id = self.ident()?;
        if !self.channels.contains(&id.name) {
            return Err(ParseError {
                span: id.span,
                code: "TL003",
                message: format!("`{}` is not a declared channel", id.name),
            });
        }
        Ok(id)
    }

    fn component(&mut self) -> Result<Component, ParseError> {
        let process = self.ident()?;
        let mut args = Vec::new();
        if self.eat(&Tok::LParen) {
            loop {
                args.push(self.int_expr(&HashSet::new())?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.calls.push((process.clone(), args.len()));
        let mut hide = Vec::new();
        if self.eat(&Tok::Backslash) {
            self.expect(&Tok::LBrace)?;
            loop {
                hide.push(self.channel_name()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RBrace)?;
        }
        let mut rename = Vec::new();
        if self.eat(&Tok::RenameOpen) {
            loop {
                let old = self.channel_name()?;
                self.expect(&Tok::Assign)?;
                let new = self.channel_name()?;
                rename.push((old, new));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RenameClose)?;
        }
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Component {
            process,
            args,
            hide,
            rename,
            alias,
        })
    }

    // -------------------------------------------------------- asserts

    fn assert_def(&mut self) -> Result<AssertDef, ParseError> {
        let span = self.bump().span; // `assert`
        let kind = self.assert_kind()?;
        Ok(AssertDef { kind, span })
    }

    fn prob_bound(&mut self) -> Result<f64, ParseError> {
        let neg = self.eat(&Tok::Minus);
        let v = match self.peek().clone() {
            Tok::Float(v) => {
                self.bump();
                v
            }
            Tok::Int(v) => {
                self.bump();
                v as f64
            }
            other => {
                return Err(self.err("TL002", format!("expected a probability, found {other}")));
            }
        };
        Ok(if neg { -v } else { v })
    }

    fn assert_kind(&mut self) -> Result<AssertKind, ParseError> {
        if self.at_kw("deadlock") {
            self.bump();
            if !self.eat_kw("free") {
                return Err(self.err("TL002", "expected `free` after `deadlock`"));
            }
            return Ok(AssertKind::DeadlockFree);
        }
        if self.at_kw("E") && self.peek2() == &Tok::Diamond {
            self.bump();
            self.bump();
            return Ok(AssertKind::Reach(self.formula()?));
        }
        if self.at_kw("A") && self.peek2() == &Tok::ExtChoice {
            self.bump();
            self.bump();
            return Ok(AssertKind::Always(self.formula()?));
        }
        if (self.at_kw("Pmax") || self.at_kw("Pmin")) && self.peek2() == &Tok::LBracket {
            let is_max = self.at_kw("Pmax");
            self.bump();
            self.bump();
            self.expect(&Tok::Diamond)?;
            let f = self.formula()?;
            self.expect(&Tok::RBracket)?;
            let cmp = self.cmp_op()?;
            let p = self.prob_bound()?;
            return Ok(if is_max {
                AssertKind::Pmax(f, cmp, p)
            } else {
                AssertKind::Pmin(f, cmp, p)
            });
        }
        if self.at_kw("Pr") && self.peek2() == &Tok::LBracket {
            self.bump();
            self.bump();
            self.expect(&Tok::Le)?;
            let bound = self.int_expr(&HashSet::new())?;
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::LParen)?;
            self.expect(&Tok::Diamond)?;
            let goal = self.formula()?;
            self.expect(&Tok::RParen)?;
            let cmp = self.cmp_op()?;
            let prob = self.prob_bound()?;
            let mut opts = SmcOpts {
                runs: None,
                confidence: None,
            };
            if self.eat(&Tok::LBrace) {
                loop {
                    if self.eat_kw("runs") {
                        self.expect(&Tok::Eq)?;
                        match self.peek().clone() {
                            Tok::Int(v) if v > 0 => {
                                self.bump();
                                opts.runs = Some(v as u64);
                            }
                            other => {
                                return Err(self.err(
                                    "TL002",
                                    format!("expected a positive run count, found {other}"),
                                ));
                            }
                        }
                    } else if self.eat_kw("confidence") {
                        self.expect(&Tok::Eq)?;
                        opts.confidence = Some(self.prob_bound()?);
                    } else {
                        return Err(self.err(
                            "TL002",
                            format!("expected `runs` or `confidence`, found {}", self.peek()),
                        ));
                    }
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RBrace)?;
            }
            return Ok(AssertKind::Pr {
                bound,
                goal,
                cmp,
                prob,
                opts,
            });
        }
        // `X refines Y`, `X ioco Y`, or a bare leads-to formula.
        if matches!(self.peek(), Tok::Ident(_))
            && matches!(self.peek2(), Tok::Ident(k) if k == "refines" || k == "ioco")
        {
            let imp = self.ident()?;
            let is_refines = self.eat_kw("refines");
            if !is_refines {
                self.bump(); // `ioco`
            }
            let spec = self.ident()?;
            return Ok(if is_refines {
                AssertKind::Refines(imp, spec)
            } else {
                AssertKind::Ioco(imp, spec)
            });
        }
        let lhs = self.formula()?;
        self.expect(&Tok::LeadsTo)?;
        let rhs = self.formula()?;
        Ok(AssertKind::LeadsTo(lhs, rhs))
    }

    // ------------------------------------------------------- formulas

    fn formula(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.formula_and()?];
        while self.eat(&Tok::Parallel) {
            parts.push(self.formula_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Formula::Or(parts)
        })
    }

    fn formula_and(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.formula_unary()?];
        while self.eat(&Tok::AmpAmp) {
            parts.push(self.formula_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Formula::And(parts)
        })
    }

    fn formula_unary(&mut self) -> Result<Formula, ParseError> {
        if self.eat(&Tok::Bang) {
            let f = self.formula_unary()?;
            return Ok(Formula::Not(Box::new(f)));
        }
        self.formula_atom()
    }

    fn formula_atom(&mut self) -> Result<Formula, ParseError> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let f = self.formula()?;
                self.expect(&Tok::RParen)?;
                Ok(f)
            }
            Tok::Ident(name) if name == "true" => {
                self.bump();
                Ok(Formula::True)
            }
            Tok::Ident(name) if name == "false" => {
                self.bump();
                Ok(Formula::False)
            }
            Tok::Ident(name) if self.peek2() == &Tok::Dot => {
                let comp = self.ident()?;
                self.bump(); // `.`
                let loc = self.ident()?;
                let _ = name;
                Ok(Formula::AtLoc(comp, loc))
            }
            Tok::Ident(name) if self.clocks.contains(&name) => {
                Ok(Formula::Clock(self.clock_constraint(&HashSet::new())?))
            }
            Tok::Ident(_) | Tok::Int(_) | Tok::Minus => {
                let lhs = self.int_expr(&HashSet::new())?;
                let op = self.cmp_op()?;
                let rhs = self.int_expr(&HashSet::new())?;
                Ok(Formula::Data(lhs, op, rhs))
            }
            other => Err(self.err("TL002", format!("expected a formula, found {other}"))),
        }
    }

    // ------------------------------------------- post-parse validation

    fn check_calls(&self, m: &Model) -> Result<(), ParseError> {
        for (callee, argc) in &self.calls {
            match m.process(&callee.name) {
                None => {
                    return Err(ParseError {
                        span: callee.span,
                        code: "TL005",
                        message: format!("`{}` is not a defined process", callee.name),
                    });
                }
                Some(def) if def.params.len() != *argc => {
                    return Err(ParseError {
                        span: callee.span,
                        code: "TL005",
                        message: format!(
                            "`{}` takes {} argument(s), {} given",
                            callee.name,
                            def.params.len(),
                            argc
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        let mut seen = HashSet::new();
        for def in &m.processes {
            if !seen.insert(def.name.name.clone()) {
                return Err(ParseError {
                    span: def.name.span,
                    code: "TL004",
                    message: format!("process `{}` is defined twice", def.name.name),
                });
            }
        }
        Ok(())
    }

    /// Component-instance references in asserts must name an instance
    /// of the `system` line.
    fn check_instances(&self, m: &Model) -> Result<(), ParseError> {
        let Some(sys) = &m.system else {
            if let Some(a) = m.asserts.first() {
                return Err(ParseError {
                    span: a.span,
                    code: "TL007",
                    message: "`assert` requires a `system` line".to_owned(),
                });
            }
            return Ok(());
        };
        let mut instances = HashSet::new();
        for c in &sys.components {
            if !instances.insert(c.instance_name().to_owned()) {
                return Err(ParseError {
                    span: c.process.span,
                    code: "TL004",
                    message: format!(
                        "duplicate component instance `{}`; use `as` to disambiguate",
                        c.instance_name()
                    ),
                });
            }
        }
        let mut refs: Vec<&Ident> = Vec::new();
        fn formula_refs<'a>(f: &'a Formula, out: &mut Vec<&'a Ident>) {
            match f {
                Formula::AtLoc(comp, _) => out.push(comp),
                Formula::Not(g) => formula_refs(g, out),
                Formula::And(gs) | Formula::Or(gs) => {
                    for g in gs {
                        formula_refs(g, out);
                    }
                }
                _ => {}
            }
        }
        for a in &m.asserts {
            match &a.kind {
                AssertKind::Reach(f) | AssertKind::Always(f) => formula_refs(f, &mut refs),
                AssertKind::LeadsTo(f, g) => {
                    formula_refs(f, &mut refs);
                    formula_refs(g, &mut refs);
                }
                AssertKind::Pmax(f, _, _) | AssertKind::Pmin(f, _, _) => formula_refs(f, &mut refs),
                AssertKind::Pr { goal, .. } => formula_refs(goal, &mut refs),
                AssertKind::Refines(i, s) | AssertKind::Ioco(i, s) => {
                    refs.push(i);
                    refs.push(s);
                }
                AssertKind::DeadlockFree => {}
            }
        }
        for r in refs {
            if !instances.contains(&r.name) {
                return Err(ParseError {
                    span: r.span,
                    code: "TL007",
                    message: format!("`{}` is not a component instance of the system", r.name),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIN: &str = "\
param D = 5
channel approach, leave
clock x
var n: 0..3 = 0

process Train =
  inv {x <= D} when {x >= 1} approach! {x := 0, n := n + 1} -> Train

process Gate = approach? -> leave! -> Gate

system Train || {approach} Gate

assert E<> Gate.Gate
assert deadlock free
";

    #[test]
    fn parses_a_small_model() {
        let m = parse(TRAIN).expect("parse");
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.channels[0].names.len(), 2);
        assert_eq!(m.processes.len(), 2);
        assert_eq!(m.asserts.len(), 2);
        let sys = m.system.expect("system");
        assert_eq!(sys.components.len(), 2);
        assert_eq!(sys.syncs[0][0].name, "approach");
    }

    #[test]
    fn undeclared_names_have_spans() {
        let e = parse("process P = foo! -> P\nsystem P").expect_err("undeclared");
        assert_eq!(e.code, "TL003");
        assert_eq!(e.span.line, 1);
    }

    #[test]
    fn decls_after_processes_are_rejected() {
        let e = parse("process P = STOP\nclock x\nsystem P").expect_err("order");
        assert_eq!(e.code, "TL002");
    }

    #[test]
    fn call_arity_is_checked() {
        let e = parse("process P(a) = STOP\nsystem P").expect_err("arity");
        assert_eq!(e.code, "TL005");
    }

    #[test]
    fn assert_variants_parse() {
        let src = "\
channel c
process P = c! -> P
process Q = c? -> Q
system P || {c} Q as Spec
assert A[] !(P.P && Spec.Q)
assert P.P --> Spec.Q
assert Pmax[<> Spec.Q] >= 0.5
assert Pr[<= 10](<> P.P) >= 0.9 {runs = 100, confidence = 0.99}
assert P refines Spec
assert P ioco Spec
";
        let m = parse(src).expect("parse");
        assert_eq!(m.asserts.len(), 6);
        assert!(matches!(m.asserts[2].kind, AssertKind::Pmax(_, CmpOp::Ge, p) if p == 0.5));
        match &m.asserts[3].kind {
            AssertKind::Pr { opts, .. } => {
                assert_eq!(opts.runs, Some(100));
                assert_eq!(opts.confidence, Some(0.99));
            }
            other => panic!("expected Pr, got {other:?}"),
        }
    }

    #[test]
    fn unknown_instance_in_assert_is_rejected() {
        let e = parse("channel c\nprocess P = c! -> P\nsystem P\nassert E<> Zed.q")
            .expect_err("instance");
        assert_eq!(e.code, "TL007");
    }
}
