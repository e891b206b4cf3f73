//! Textual front end for affine programs.
//!
//! Grammar (whitespace-insensitive, `#` line comments):
//!
//! ```text
//! program   := item*
//! item      := "param" ident ("," ident)* ";"
//!            | "array" ident ("[" aff "]")+ ";"
//!            | node
//! node      := "for" ident "=" aff "to" aff "{" node* "}"
//!            | ident ("[" aff "]")+ "=" scalar ";"
//! aff       := affterm (("+"|"-") affterm)*
//! affterm   := int | ident | int "*" ident | ident "*" int | "-" affterm
//! scalar    := sterm (("+"|"-") sterm)*
//! sterm     := sfactor (("*"|"/") sfactor)*
//! sfactor   := number | ident "(" scalar ("," scalar)* ")"
//!            | ident ("[" aff "]")* | "(" scalar ")" | "-" sfactor
//! ```
//!
//! An identifier without brackets in scalar position is rejected (scalars
//! live in arrays; symbolic constants are integers and may only appear in
//! affine positions).
//!
//! # Examples
//!
//! ```
//! let src = r"
//!     param N, T;
//!     array X[N + 1];
//!     for t = 0 to T {
//!       for i = 3 to N {
//!         X[i] = X[i - 3];
//!       }
//!     }
//! ";
//! let p = dmc_ir::parse(src).unwrap();
//! assert_eq!(p.params, vec!["N", "T"]);
//! assert_eq!(p.statements().len(), 1);
//! ```

use std::fmt;

use crate::aff::Aff;
use crate::program::{ArrayRef, BinOp, Loop, Node, Program, ScalarExpr, Statement};

/// A parse error with a 1-based line/column position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
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

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i128),
    Float(f64),
    Sym(char),
    KwParam,
    KwArray,
    KwFor,
    KwTo,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn next_token(&mut self) -> Result<Spanned, ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek() else {
            return Ok(Spanned {
                tok: Tok::Eof,
                line,
                col,
            });
        };
        if b.is_ascii_alphabetic() || b == b'_' {
            let mut s = String::new();
            while let Some(b) = self.peek() {
                if b.is_ascii_alphanumeric() || b == b'_' {
                    s.push(b as char);
                    self.bump();
                } else {
                    break;
                }
            }
            let tok = match s.as_str() {
                "param" => Tok::KwParam,
                "array" => Tok::KwArray,
                "for" => Tok::KwFor,
                "to" => Tok::KwTo,
                _ => Tok::Ident(s),
            };
            return Ok(Spanned { tok, line, col });
        }
        if b.is_ascii_digit() {
            let mut s = String::new();
            let mut is_float = false;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() {
                    s.push(b as char);
                    self.bump();
                } else if b == b'.' && !is_float {
                    is_float = true;
                    s.push('.');
                    self.bump();
                } else {
                    break;
                }
            }
            let tok = if is_float {
                // Too many digits read as infinity, which no literal
                // prints back as.
                let v = s.parse::<f64>().ok().filter(|v| v.is_finite());
                Tok::Float(v.ok_or_else(|| ParseError {
                    message: format!("invalid float literal {s:?}"),
                    line,
                    col,
                })?)
            } else {
                Tok::Int(s.parse().map_err(|_| ParseError {
                    message: format!("invalid integer literal {s:?}"),
                    line,
                    col,
                })?)
            };
            return Ok(Spanned { tok, line, col });
        }
        self.bump();
        Ok(Spanned {
            tok: Tok::Sym(b as char),
            line,
            col,
        })
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut toks = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let eof = t.tok == Tok::Eof;
            toks.push(t);
            if eof {
                break;
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn here(&self) -> (usize, usize) {
        (self.toks[self.pos].line, self.toks[self.pos].col)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    /// The error for an affine operation, at `at`, whose result leaves
    /// `i128`.
    fn overflow(&self, (line, col): (usize, usize)) -> ParseError {
        ParseError {
            message: "affine expression overflows i128".to_owned(),
            line,
            col,
        }
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        if self.peek() == &Tok::Sym(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut p = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::KwParam => {
                    self.bump();
                    loop {
                        p.params.push(self.expect_ident()?);
                        if self.peek() == &Tok::Sym(',') {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect_sym(';')?;
                }
                Tok::KwArray => {
                    self.bump();
                    let name = self.expect_ident()?;
                    let mut extents = Vec::new();
                    while self.peek() == &Tok::Sym('[') {
                        self.bump();
                        extents.push(self.aff()?);
                        self.expect_sym(']')?;
                    }
                    if extents.is_empty() {
                        return Err(self.err("array needs at least one extent"));
                    }
                    p.declare_array(name, extents);
                    self.expect_sym(';')?;
                }
                _ => {
                    let node = self.node()?;
                    p.body.push(node);
                }
            }
        }
        Ok(p)
    }

    fn node(&mut self) -> Result<Node, ParseError> {
        if self.peek() == &Tok::KwFor {
            self.bump();
            let var = self.expect_ident()?;
            self.expect_sym('=')?;
            let lower = self.aff()?;
            if self.peek() != &Tok::KwTo {
                return Err(self.err("expected `to`"));
            }
            self.bump();
            let upper = self.aff()?;
            self.expect_sym('{')?;
            let mut body = Vec::new();
            while self.peek() != &Tok::Sym('}') {
                if self.peek() == &Tok::Eof {
                    return Err(self.err("unexpected end of input in loop body"));
                }
                body.push(self.node()?);
            }
            self.bump(); // '}'
            return Ok(Node::Loop(Loop {
                var,
                lower,
                upper,
                body,
            }));
        }
        // Assignment: ident [aff]+ = scalar ;
        let array = self.expect_ident()?;
        let mut idx = Vec::new();
        while self.peek() == &Tok::Sym('[') {
            self.bump();
            idx.push(self.aff()?);
            self.expect_sym(']')?;
        }
        if idx.is_empty() {
            return Err(self.err("assignment target must be an array element"));
        }
        self.expect_sym('=')?;
        let rhs = self.scalar()?;
        self.expect_sym(';')?;
        Ok(Node::Stmt(Statement {
            write: ArrayRef::new(array, idx),
            rhs,
        }))
    }

    // ----- affine expressions -----
    //
    // Every sum, difference, negation and constant product is checked: a
    // result outside `i128` is a parse error at its operator, never a
    // different program.

    fn aff(&mut self) -> Result<Aff, ParseError> {
        let mut acc = self.aff_term()?;
        loop {
            let at = self.here();
            let sum = match self.peek() {
                Tok::Sym('+') => {
                    self.bump();
                    acc.checked_add(&self.aff_term()?)
                }
                Tok::Sym('-') => {
                    self.bump();
                    acc.checked_sub(&self.aff_term()?)
                }
                _ => return Ok(acc),
            };
            acc = sum.ok_or_else(|| self.overflow(at))?;
        }
    }

    fn aff_term(&mut self) -> Result<Aff, ParseError> {
        let at = self.here();
        match self.peek().clone() {
            Tok::Sym('-') => {
                self.bump();
                let term = self.aff_term()?;
                Aff::zero()
                    .checked_sub(&term)
                    .ok_or_else(|| self.overflow(at))
            }
            Tok::Sym('(') => {
                self.bump();
                let inner = self.aff()?;
                self.expect_sym(')')?;
                self.aff_trailing_mul(inner)
            }
            Tok::Int(v) => {
                self.bump();
                // Optional `* ident` / `* (aff)` — constant times affine —
                // or the adjacent form `2i` the pretty-printer emits.
                if self.peek() == &Tok::Sym('*') {
                    let at = self.here();
                    self.bump();
                    let rhs = self.aff_term()?;
                    return rhs.checked_mul(v).ok_or_else(|| self.overflow(at));
                }
                if let Tok::Ident(name) = self.peek().clone() {
                    self.bump();
                    return Ok(Aff::var(name) * v);
                }
                Ok(Aff::constant(v))
            }
            Tok::Ident(name) => {
                self.bump();
                let base = Aff::var(name);
                self.aff_trailing_mul(base)
            }
            _ => Err(self.err("expected affine expression")),
        }
    }

    /// Handles `expr * int` after a variable or parenthesized group.
    fn aff_trailing_mul(&mut self, base: Aff) -> Result<Aff, ParseError> {
        if self.peek() == &Tok::Sym('*') {
            let at = self.here();
            self.bump();
            match self.peek().clone() {
                Tok::Int(v) => {
                    self.bump();
                    base.checked_mul(v).ok_or_else(|| self.overflow(at))
                }
                _ => Err(self.err("affine multiplication requires an integer factor")),
            }
        } else {
            Ok(base)
        }
    }

    // ----- scalar expressions -----

    fn scalar(&mut self) -> Result<ScalarExpr, ParseError> {
        let mut acc = self.sterm()?;
        loop {
            match self.peek() {
                Tok::Sym('+') => {
                    self.bump();
                    acc = ScalarExpr::Bin(BinOp::Add, Box::new(acc), Box::new(self.sterm()?));
                }
                Tok::Sym('-') => {
                    self.bump();
                    acc = ScalarExpr::Bin(BinOp::Sub, Box::new(acc), Box::new(self.sterm()?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn sterm(&mut self) -> Result<ScalarExpr, ParseError> {
        let mut acc = self.sfactor()?;
        loop {
            match self.peek() {
                Tok::Sym('*') => {
                    self.bump();
                    acc = ScalarExpr::Bin(BinOp::Mul, Box::new(acc), Box::new(self.sfactor()?));
                }
                Tok::Sym('/') => {
                    self.bump();
                    acc = ScalarExpr::Bin(BinOp::Div, Box::new(acc), Box::new(self.sfactor()?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn sfactor(&mut self) -> Result<ScalarExpr, ParseError> {
        match self.peek().clone() {
            Tok::Sym('-') => {
                self.bump();
                Ok(ScalarExpr::Neg(Box::new(self.sfactor()?)))
            }
            Tok::Sym('(') => {
                self.bump();
                let e = self.scalar()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Tok::Int(v) => {
                self.bump();
                Ok(ScalarExpr::Lit(v as f64))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(ScalarExpr::Lit(v))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::Sym('(') {
                    // Intrinsic call.
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::Sym(')') {
                        loop {
                            args.push(self.scalar()?);
                            if self.peek() == &Tok::Sym(',') {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_sym(')')?;
                    return Ok(ScalarExpr::Call(name, args));
                }
                let mut idx = Vec::new();
                while self.peek() == &Tok::Sym('[') {
                    self.bump();
                    idx.push(self.aff()?);
                    self.expect_sym(']')?;
                }
                if idx.is_empty() {
                    return Err(self.err(format!(
                        "bare identifier {name:?} in scalar position (array read needs subscripts)"
                    )));
                }
                Ok(ScalarExpr::Read(ArrayRef::new(name, idx)))
            }
            _ => Err(self.err("expected scalar expression")),
        }
    }
}

/// Parses a program from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn parses_figure2() {
        let p = parse(
            "param T, N;\narray X[N + 1];\nfor t = 0 to T { for i = 3 to N { X[i] = X[i - 3]; } }",
        )
        .unwrap();
        assert_eq!(p.params, vec!["T", "N"]);
        let stmts = p.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].loop_vars(), vec!["t", "i"]);
    }

    #[test]
    fn parses_lu_figure11() {
        let src = r"
            param N;
            array X[N + 1][N + 1];
            for i1 = 0 to N {
              for i2 = i1 + 1 to N {
                X[i2][i1] = X[i2][i1] / X[i1][i1];
                for i3 = i1 + 1 to N {
                  X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
                }
              }
            }
        ";
        let p = parse(src).unwrap();
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].loop_vars(), vec!["i1", "i2"]);
        assert_eq!(stmts[1].loop_vars(), vec!["i1", "i2", "i3"]);
        // Five read accesses total, as the paper says (§7).
        let total_reads: usize = stmts.iter().map(|s| s.stmt.rhs.reads().len()).sum();
        assert_eq!(total_reads, 5);
    }

    #[test]
    fn parses_coefficients_and_comments() {
        let src =
            "param N; # sizes\narray A[1000 * N + 1];\nfor i = 1 to N { A[1000 * i + 2] = 1.5; }";
        let p = parse(src).unwrap();
        let stmts = p.statements();
        assert_eq!(stmts[0].stmt.write.idx[0].coeff("i"), 1000);
        assert_eq!(stmts[0].stmt.write.idx[0].constant_term(), 2);
    }

    #[test]
    fn parses_calls_and_precedence() {
        let src = "param N; array X[N]; for i = 0 to N - 1 { X[i] = f(X[i], 2.0) + 3 * X[i]; }";
        let p = parse(src).unwrap();
        let s = &p.statements()[0].stmt;
        match &s.rhs {
            ScalarExpr::Bin(BinOp::Add, l, r) => {
                assert!(matches!(**l, ScalarExpr::Call(_, _)));
                assert!(matches!(**r, ScalarExpr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected rhs {other:?}"),
        }
    }

    #[test]
    fn rejects_bare_scalar_identifier() {
        let e = parse("param N; array X[N]; for i = 0 to N { X[i] = N; }").unwrap_err();
        assert!(e.message.contains("bare identifier"));
    }

    #[test]
    fn reports_positions() {
        let e = parse("param N\narray X[N];").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parsed_program_runs() {
        let p = parse(
            "param N; array A[N]; array B[N];\nfor i = 0 to N - 1 { A[i] = 2.0; }\nfor j = 0 to N - 1 { B[j] = A[j] * 3.0; }",
        )
        .unwrap();
        let mut env = HashMap::new();
        env.insert("N".to_owned(), 5i128);
        let mem = crate::interp::run(&p, &env).unwrap();
        assert_eq!(mem.array("B").unwrap().get(&[4]).unwrap(), 6.0);
    }

    /// An affine constant outside `i128` is a parse error at its
    /// operator, in both profiles: never a debug panic, never a release
    /// wrap into a different program.
    #[test]
    fn overflowing_affine_expressions_are_parse_errors() {
        let max = i128::MAX;
        let cases = [
            // A constant product (ROADMAP 6(a)'s input).
            (
                "for t = 1 to 317014118346046923*731687303715884105727".to_owned(),
                (2, 32),
            ),
            // A sum, a difference and a negation past the ends.
            (format!("for t = 1 to {max} + 1"), (2, 54)),
            (format!("for t = 1 to N + {max} + 1"), (2, 58)),
            (format!("for t = -{max} - 2 to 1"), (2, 50)),
            (format!("for t = -(-{max} - 1) to 1"), (2, 9)),
            // A coefficient, through a trailing and a parenthesized product.
            (format!("for t = 1 to (2 * N) * {max}"), (2, 22)),
            (format!("for t = 1 to 2 * (N * {max})"), (2, 16)),
        ];
        for (header, (line, col)) in cases {
            let src = format!("param N; array A[N];\n{header} {{ A[t] = 1.0; }}");
            let e = parse(&src).expect_err(&src);
            assert!(e.message.contains("overflows i128"), "{src}: {e}");
            assert_eq!((e.line, e.col), (line, col), "{src}: {e}");
        }
        // The ends themselves parse.
        let p = parse(&format!(
            "param N; array A[N];\nfor t = -{max} - 1 to {max} - 1 + 1 {{ A[t] = 1.0; }}"
        ))
        .unwrap();
        let l = &p.statements()[0].loops[0];
        assert_eq!(
            (l.lower.clone(), l.upper.clone()),
            (Aff::constant(i128::MIN), Aff::constant(max))
        );
    }

    /// A scalar literal prints as text that reads back as the same value:
    /// a whole value past `i128` keeps its decimal point, and a literal
    /// too long for a finite `f64` is a parse error, not an infinity that
    /// prints as `inf`.
    #[test]
    fn scalar_literals_print_and_reparse_to_themselves() {
        let nines = "9".repeat(39);
        for lit in [
            "0.25".to_owned(),
            "2".to_owned(),
            format!("{}", i128::MAX),
            format!("{nines}0.25"),
            format!("{}.0", i128::MAX as f64),
        ] {
            let src = format!("array A[4]; for i = 0 to 3 {{ A[i] = {lit} * A[i]; }}");
            let p = parse(&src).unwrap();
            let again = parse(&p.to_string()).unwrap_or_else(|e| panic!("{lit}: {p}: {e}"));
            assert_eq!(again, p, "{lit}");
        }
        let src = format!(
            "array A[4]; for i = 0 to 3 {{ A[i] = {}.5; }}",
            "9".repeat(400)
        );
        let e = parse(&src).expect_err("an infinite literal");
        assert!(e.message.contains("invalid float literal"), "{e}");
    }

    #[test]
    fn negative_bounds_and_unary_minus() {
        let p =
            parse("param N; array A[N + 10]; for i = -3 to 3 { A[i + 5] = -A[i + 5]; }").unwrap();
        let s = &p.statements()[0];
        assert_eq!(s.loops[0].lower, Aff::constant(-3));
        assert!(matches!(s.stmt.rhs, ScalarExpr::Neg(_)));
    }
}
