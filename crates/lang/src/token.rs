//! Hand-written lexer for the `tempo-lang` surface syntax.
//!
//! The lexer produces a flat token stream with line/column spans; every
//! downstream diagnostic (parse error, unresolved name, subset
//! violation) points back at a [`Span`] from here. Comments run from
//! `--` to end of line, except that `-->` is always the leads-to arrow
//! (so a comment must not start with `>`).

use std::fmt;

/// A source position (1-based line and column), the anchor every
/// `tempo-lint` diagnostic of the frontend carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (`process`, `Train`, `x0`, ...).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal (probability bounds).
    Float(f64),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `[[` — renaming opener.
    RenameOpen,
    /// `]]` — renaming closer.
    RenameClose,
    /// `[]` — external choice.
    ExtChoice,
    /// `|~|` — internal choice.
    IntChoice,
    /// `||` — parallel composition.
    Parallel,
    /// `<>` — the eventually diamond in assert queries.
    Diamond,
    /// `->` — prefix arrow.
    Arrow,
    /// `-->` — leads-to.
    LeadsTo,
    /// `:=` — assignment.
    Assign,
    /// `=` — definition / binding.
    Eq,
    /// `==` — equality comparison.
    EqEq,
    /// `!=` — disequality comparison.
    NotEq,
    /// `<=`.
    Le,
    /// `<`.
    Lt,
    /// `>=`.
    Ge,
    /// `>`.
    Gt,
    /// `!` — send decoration.
    Bang,
    /// `?` — receive decoration.
    Question,
    /// `,`.
    Comma,
    /// `:`.
    Colon,
    /// `.`.
    Dot,
    /// `..` — range separator.
    DotDot,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `\` — hiding.
    Backslash,
    /// `&&` — conjunction in formulas.
    AmpAmp,
    /// End of input (carries the past-the-end position).
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(v) => write!(f, "`{v}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::RenameOpen => f.write_str("`[[`"),
            Tok::RenameClose => f.write_str("`]]`"),
            Tok::ExtChoice => f.write_str("`[]`"),
            Tok::IntChoice => f.write_str("`|~|`"),
            Tok::Parallel => f.write_str("`||`"),
            Tok::Diamond => f.write_str("`<>`"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::LeadsTo => f.write_str("`-->`"),
            Tok::Assign => f.write_str("`:=`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::NotEq => f.write_str("`!=`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Question => f.write_str("`?`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::DotDot => f.write_str("`..`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Backslash => f.write_str("`\\`"),
            Tok::AmpAmp => f.write_str("`&&`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What it is.
    pub tok: Tok,
    /// Where it starts.
    pub span: Span,
}

/// A lexical error: an unexpected character or a malformed literal.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Where the offending text starts.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

/// Tokenizes `source` into a token stream ending in [`Tok::Eof`].
///
/// # Errors
///
/// Returns the first [`LexError`] encountered; the lexer does not try
/// to resynchronize (the parser reports one error per run, like the
/// MODEST parser in `tempo-modest`).
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            out.push(Token {
                tok: $tok,
                span: Span { line, col },
            });
            i += $len;
            col += $len as u32;
        }};
    }
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'-') && bytes.get(i + 2) == Some(&b'>') {
                    push!(Tok::LeadsTo, 3);
                } else if bytes.get(i + 1) == Some(&b'-') {
                    // Comment to end of line.
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                        col += 1;
                    }
                } else if bytes.get(i + 1) == Some(&b'>') {
                    push!(Tok::Arrow, 2);
                } else {
                    push!(Tok::Minus, 1);
                }
            }
            b'(' => push!(Tok::LParen, 1),
            b')' => push!(Tok::RParen, 1),
            b'{' => push!(Tok::LBrace, 1),
            b'}' => push!(Tok::RBrace, 1),
            b'[' => {
                if bytes.get(i + 1) == Some(&b'[') {
                    push!(Tok::RenameOpen, 2);
                } else if bytes.get(i + 1) == Some(&b']') {
                    push!(Tok::ExtChoice, 2);
                } else {
                    push!(Tok::LBracket, 1);
                }
            }
            b']' => {
                if bytes.get(i + 1) == Some(&b']') {
                    push!(Tok::RenameClose, 2);
                } else {
                    push!(Tok::RBracket, 1);
                }
            }
            b'|' => {
                if bytes.get(i + 1) == Some(&b'~') && bytes.get(i + 2) == Some(&b'|') {
                    push!(Tok::IntChoice, 3);
                } else if bytes.get(i + 1) == Some(&b'|') {
                    push!(Tok::Parallel, 2);
                } else {
                    return Err(LexError {
                        span: Span { line, col },
                        message: "stray `|`; did you mean `||` or `|~|`?".to_owned(),
                    });
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    push!(Tok::Diamond, 2);
                } else if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Le, 2);
                } else {
                    push!(Tok::Lt, 1);
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Ge, 2);
                } else {
                    push!(Tok::Gt, 1);
                }
            }
            b':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::Assign, 2);
                } else {
                    push!(Tok::Colon, 1);
                }
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::EqEq, 2);
                } else {
                    push!(Tok::Eq, 1);
                }
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Tok::NotEq, 2);
                } else {
                    push!(Tok::Bang, 1);
                }
            }
            b'?' => push!(Tok::Question, 1),
            b',' => push!(Tok::Comma, 1),
            b'.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    push!(Tok::DotDot, 2);
                } else {
                    push!(Tok::Dot, 1);
                }
            }
            b'+' => push!(Tok::Plus, 1),
            b'*' => push!(Tok::Star, 1),
            b'/' => push!(Tok::Slash, 1),
            b'\\' => push!(Tok::Backslash, 1),
            b'&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    push!(Tok::AmpAmp, 2);
                } else {
                    return Err(LexError {
                        span: Span { line, col },
                        message: "stray `&`; did you mean `&&`?".to_owned(),
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let start_col = col;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                    col += 1;
                }
                let mut is_float = false;
                // A fractional part, but not the `..` range operator.
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i += 1;
                    col += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                        col += 1;
                    }
                }
                if bytes.get(i) == Some(&b'e') || bytes.get(i) == Some(&b'E') {
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'+') || bytes.get(j) == Some(&b'-') {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                        col += (j - i) as u32;
                        i = j;
                    }
                }
                let text = &source[start..i];
                let span = Span {
                    line,
                    col: start_col,
                };
                if is_float {
                    let v: f64 = text.parse().map_err(|_| LexError {
                        span,
                        message: format!("malformed number `{text}`"),
                    })?;
                    out.push(Token {
                        tok: Tok::Float(v),
                        span,
                    });
                } else {
                    let v: i64 = text.parse().map_err(|_| LexError {
                        span,
                        message: format!("integer literal `{text}` out of range"),
                    })?;
                    out.push(Token {
                        tok: Tok::Int(v),
                        span,
                    });
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                let start_col = col;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                    col += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(source[start..i].to_owned()),
                    span: Span {
                        line,
                        col: start_col,
                    },
                });
            }
            _ => {
                return Err(LexError {
                    span: Span { line, col },
                    message: format!(
                        "unexpected character `{}`",
                        source[i..].chars().next().unwrap_or('?')
                    ),
                });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span { line, col },
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).expect("lex").into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn arrows_comments_and_choice_disambiguate() {
        assert_eq!(
            kinds("a -> b --> c -- comment -> ignored\nd"),
            vec![
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::LeadsTo,
                Tok::Ident("c".into()),
                Tok::Ident("d".into()),
                Tok::Eof,
            ]
        );
        assert_eq!(
            kinds("[] [[ ]] [ ] |~| || x[0]"),
            vec![
                Tok::ExtChoice,
                Tok::RenameOpen,
                Tok::RenameClose,
                Tok::LBracket,
                Tok::RBracket,
                Tok::IntChoice,
                Tok::Parallel,
                Tok::Ident("x".into()),
                Tok::LBracket,
                Tok::Int(0),
                Tok::RBracket,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(
            kinds("0..10 0.5 1e-3 7"),
            vec![
                Tok::Int(0),
                Tok::DotDot,
                Tok::Int(10),
                Tok::Float(0.5),
                Tok::Float(1e-3),
                Tok::Int(7),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("ab\n  cd").expect("lex");
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn stray_chars_are_lex_errors() {
        assert!(lex("a | b").is_err());
        assert!(lex("a # b").is_err());
    }
}
