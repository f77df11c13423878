//! Recursive-descent parser for OpenQASM 2.0.
//!
//! One parser serves every entry point. It hands each statement to a
//! sink as it is parsed: the conversion's declaration walk, its emitting
//! walk, or the AST builder behind [`parse_program`]. Only the AST sink
//! keeps statements; the other two copy out what they need and move on.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use crate::ast::{Arg, Ast, BinOp, EvalError, GateOp, Program, Statement};
use crate::lex::{tokenize, Token, TokenKind};

/// A parse (or later conversion) failure, with source line when known.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    pub(crate) line: Option<usize>,
    pub(crate) message: String,
}

impl ParseQasmError {
    pub(crate) fn new(line: Option<usize>, message: impl Into<String>) -> ParseQasmError {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based source line, when known.
    pub fn line(&self) -> Option<usize> {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for ParseQasmError {}

/// A register argument as written, `q` or `q[3]`, borrowing its name
/// from the source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArgRef<'a> {
    pub register: &'a str,
    pub index: Option<usize>,
}

impl fmt::Display for ArgRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{i}]", self.register),
            None => write!(f, "{}", self.register),
        }
    }
}

/// A top-level parameter expression, evaluated where it stands: there
/// are no bindings outside a gate body, so an identifier is an error,
/// reported when the application is converted.
pub(crate) type Value = Result<f64, EvalError>;

/// One statement as the parser hands it to its sink. Names borrow from
/// the source (`'a`); an application's parameters and arguments borrow
/// the parser's reusable buffers (`'b`), so a top-level statement costs
/// no allocation. Gate bodies, which conversion replays per call, are
/// kept as [`GateOp`]s.
pub(crate) enum Stmt<'a, 'b, P> {
    /// The `OPENQASM` header's version token.
    Version(TokenKind<'a>),
    /// `include "qelib1.inc";`
    Qelib,
    QReg {
        name: &'a str,
        size: usize,
    },
    CReg {
        name: &'a str,
        size: usize,
    },
    Gate {
        name: &'a str,
        params: Vec<&'a str>,
        qargs: Vec<&'a str>,
        body: Cow<'a, [GateOp]>,
    },
    Apply {
        name: &'a str,
        params: &'b [P],
        args: &'b [ArgRef<'a>],
        line: usize,
    },
    Measure {
        qubit: ArgRef<'a>,
        clbit: ArgRef<'a>,
    },
    Barrier(&'b [ArgRef<'a>]),
}

/// What the parser makes of a parameter expression: an [`Expr`] tree
/// (the AST and gate bodies) or its value ([`Eval`]).
pub(crate) trait Build<'a> {
    type Expr;
    fn num(&self, v: f64) -> Self::Expr;
    fn pi(&self) -> Self::Expr;
    fn ident(&self, name: &'a str) -> Self::Expr;
    fn neg(&self, e: Self::Expr) -> Self::Expr;
    fn bin(&self, op: BinOp, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn func(&self, name: &'a str, arg: Self::Expr) -> Self::Expr;
}

/// Top-level parameters: no identifier is bound.
pub(crate) const TOP_LEVEL: Eval<fn(&str) -> Option<f64>> = Eval(|_| None);

/// Evaluates an expression under the bindings its lookup knows. The one
/// definition of QASM arithmetic: [`Expr::eval`] folds a tree through it.
pub(crate) struct Eval<F>(pub F);

impl<'a, F: Fn(&str) -> Option<f64>> Build<'a> for Eval<F> {
    type Expr = Result<f64, EvalError>;

    fn num(&self, v: f64) -> Self::Expr {
        Ok(v)
    }

    fn pi(&self) -> Self::Expr {
        Ok(std::f64::consts::PI)
    }

    fn ident(&self, name: &'a str) -> Self::Expr {
        (self.0)(name).ok_or_else(|| EvalError {
            what: name.to_string(),
        })
    }

    fn neg(&self, e: Self::Expr) -> Self::Expr {
        Ok(-e?)
    }

    fn bin(&self, op: BinOp, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr {
        let (l, r) = (lhs?, rhs?);
        Ok(match op {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => l / r,
            BinOp::Pow => l.powf(r),
        })
    }

    fn func(&self, name: &'a str, arg: Self::Expr) -> Self::Expr {
        let v = arg?;
        Ok(match name {
            "sin" => v.sin(),
            "cos" => v.cos(),
            "tan" => v.tan(),
            "exp" => v.exp(),
            "ln" => v.ln(),
            "sqrt" => v.sqrt(),
            other => {
                return Err(EvalError {
                    what: other.to_string(),
                })
            }
        })
    }
}

/// Tokenizes a whole source. Nothing is parsed before every token is
/// read, so a lex error anywhere outranks an earlier parse error.
pub(crate) fn lex(source: &str) -> Result<Vec<Token<'_>>, ParseQasmError> {
    tokenize(source).map_err(|e| ParseQasmError::new(Some(e.line), e.message))
}

/// Parses a token stream, handing each statement to `sink` in source
/// order with its parameters built by `build`. Stops at the first
/// syntax error, or at the first error the sink returns.
///
/// `include "qelib1.inc";` selects the embedded standard library; any
/// other include is an error (the parser has no filesystem access).
pub(crate) fn walk<'a, B, S>(tokens: &[Token<'a>], build: &B, sink: S) -> Result<(), ParseQasmError>
where
    B: Build<'a>,
    S: FnMut(Stmt<'a, '_, B::Expr>) -> Result<(), ParseQasmError>,
{
    let mut parser = Parser { tokens, pos: 0 };
    parser.run(build, sink)
}

/// Parses source into an AST (no semantic checks beyond syntax): the
/// parser with a sink that keeps every statement.
///
/// # Errors
///
/// Returns [`ParseQasmError`] with line information on malformed input.
pub fn parse_program(source: &str) -> Result<Program, ParseQasmError> {
    let tokens = lex(source)?;
    let mut program = Program::default();
    walk(&tokens, &Ast, |stmt| {
        let statement = match stmt {
            Stmt::Version(version) => {
                program.version = match version {
                    TokenKind::Real(v) => format!("{v:.1}"),
                    other => other.to_string(),
                };
                return Ok(());
            }
            Stmt::Qelib => {
                program.includes_qelib = true;
                return Ok(());
            }
            Stmt::QReg { name, size } => Statement::QReg {
                name: name.to_string(),
                size,
            },
            Stmt::CReg { name, size } => Statement::CReg {
                name: name.to_string(),
                size,
            },
            Stmt::Gate {
                name,
                params,
                qargs,
                body,
            } => Statement::GateDef {
                name: name.to_string(),
                params: params.into_iter().map(str::to_string).collect(),
                qargs: qargs.into_iter().map(str::to_string).collect(),
                body: body.into_owned(),
            },
            Stmt::Apply {
                name,
                params,
                args,
                line,
            } => Statement::Apply(GateOp {
                name: name.to_string(),
                params: params.to_vec(),
                args: args.iter().copied().map(Arg::from).collect(),
                line,
            }),
            Stmt::Measure { qubit, clbit } => Statement::Measure {
                qubit: qubit.into(),
                clbit: clbit.into(),
            },
            Stmt::Barrier(args) => {
                Statement::Barrier(args.iter().copied().map(Arg::from).collect())
            }
        };
        program.statements.push(statement);
        Ok(())
    })?;
    Ok(program)
}

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
}

impl<'a> Parser<'_, 'a> {
    fn run<B, S>(&mut self, build: &B, mut sink: S) -> Result<(), ParseQasmError>
    where
        B: Build<'a>,
        S: FnMut(Stmt<'a, '_, B::Expr>) -> Result<(), ParseQasmError>,
    {
        // Optional OPENQASM header.
        if self.peek_ident() == Some("OPENQASM") {
            self.skip();
            let t = self.next_token()?;
            if !matches!(t.kind, TokenKind::Real(_) | TokenKind::Int(_)) {
                return Err(self.expected("version", t));
            }
            self.expect(TokenKind::Semicolon)?;
            sink(Stmt::Version(t.kind))?;
        }
        let mut params = Vec::new();
        let mut args = Vec::new();
        while self.pos < self.tokens.len() {
            self.statement(build, &mut params, &mut args, &mut sink)?;
        }
        Ok(())
    }

    fn statement<B, S>(
        &mut self,
        build: &B,
        params: &mut Vec<B::Expr>,
        args: &mut Vec<ArgRef<'a>>,
        sink: &mut S,
    ) -> Result<(), ParseQasmError>
    where
        B: Build<'a>,
        S: FnMut(Stmt<'a, '_, B::Expr>) -> Result<(), ParseQasmError>,
    {
        let Some(name) = self.peek_ident() else {
            let t = self.next_token()?;
            return Err(ParseQasmError::new(
                Some(t.line),
                format!("expected statement, found {}", t.kind),
            ));
        };
        let stmt = match name {
            "qreg" | "creg" => {
                self.skip();
                let reg = self.expect_ident()?;
                self.expect(TokenKind::LBracket)?;
                let size = self.expect_int()? as usize;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Semicolon)?;
                if name == "qreg" {
                    Stmt::QReg { name: reg, size }
                } else {
                    Stmt::CReg { name: reg, size }
                }
            }
            "include" => {
                let line = self.line();
                self.skip();
                let t = self.next_token()?;
                let TokenKind::Str(file) = t.kind else {
                    return Err(self.expected("filename", t));
                };
                self.expect(TokenKind::Semicolon)?;
                if file != "qelib1.inc" {
                    return Err(ParseQasmError::new(
                        Some(line),
                        format!(
                            "cannot include \"{file}\": only the embedded qelib1.inc is available"
                        ),
                    ));
                }
                // Only flagged, never spliced: conversion resolves the
                // library's definitions from a table parsed once per
                // process, so no request re-parses ~30 gate bodies.
                Stmt::Qelib
            }
            "gate" => {
                self.skip();
                let gname = self.expect_ident()?;
                let mut formals = Vec::new();
                if self.peek_is(TokenKind::LParen) {
                    self.skip();
                    if !self.peek_is(TokenKind::RParen) {
                        self.list(&mut formals, Self::expect_ident)?;
                    }
                    self.expect(TokenKind::RParen)?;
                }
                let mut qargs = Vec::new();
                self.list(&mut qargs, Self::expect_ident)?;
                self.expect(TokenKind::LBrace)?;
                let mut body = Vec::new();
                while !self.peek_is(TokenKind::RBrace) {
                    if self.peek_ident() == Some("barrier") {
                        // Barriers inside gate bodies are scheduling hints;
                        // skip them during inlining.
                        while self.next_token()?.kind != TokenKind::Semicolon {}
                        continue;
                    }
                    let (mut op_params, mut op_args) = (Vec::new(), Vec::new());
                    let (name, line) = self.op(&Ast, &mut op_params, &mut op_args)?;
                    body.push(GateOp {
                        name: name.to_string(),
                        params: op_params,
                        args: op_args.into_iter().map(Arg::from).collect(),
                        line,
                    });
                }
                self.expect(TokenKind::RBrace)?;
                Stmt::Gate {
                    name: gname,
                    params: formals,
                    qargs,
                    body: Cow::Owned(body),
                }
            }
            "opaque" => {
                let line = self.line();
                return Err(ParseQasmError::new(
                    Some(line),
                    "opaque gates are not supported",
                ));
            }
            "measure" => {
                self.skip();
                let qubit = self.arg()?;
                self.expect(TokenKind::Arrow)?;
                let clbit = self.arg()?;
                self.expect(TokenKind::Semicolon)?;
                Stmt::Measure { qubit, clbit }
            }
            "barrier" => {
                self.skip();
                args.clear();
                self.list(args, Self::arg)?;
                self.expect(TokenKind::Semicolon)?;
                Stmt::Barrier(args)
            }
            "reset" => {
                let line = self.line();
                return Err(ParseQasmError::new(
                    Some(line),
                    "reset is not supported by the unitary mapping IR",
                ));
            }
            "if" => {
                let line = self.line();
                return Err(ParseQasmError::new(
                    Some(line),
                    "classically controlled operations are not supported",
                ));
            }
            _ => {
                let (name, line) = self.op(build, params, args)?;
                Stmt::Apply {
                    name,
                    params,
                    args,
                    line,
                }
            }
        };
        sink(stmt)
    }

    /// `name (params)? arg (, arg)* ;`, with the parameters and arguments
    /// left in the given buffers. Returns the name and its line.
    fn op<B: Build<'a>>(
        &mut self,
        build: &B,
        params: &mut Vec<B::Expr>,
        args: &mut Vec<ArgRef<'a>>,
    ) -> Result<(&'a str, usize), ParseQasmError> {
        let line = self.line();
        let name = self.expect_ident()?;
        params.clear();
        if self.peek_is(TokenKind::LParen) {
            self.skip();
            if !self.peek_is(TokenKind::RParen) {
                self.list(params, |p| p.expr(build))?;
            }
            self.expect(TokenKind::RParen)?;
        }
        args.clear();
        self.list(args, Self::arg)?;
        self.expect(TokenKind::Semicolon)?;
        Ok((name, line))
    }

    /// `item (, item)*`, appended to `out`.
    fn list<T>(
        &mut self,
        out: &mut Vec<T>,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseQasmError>,
    ) -> Result<(), ParseQasmError> {
        loop {
            out.push(item(self)?);
            if !self.peek_is(TokenKind::Comma) {
                return Ok(());
            }
            self.skip();
        }
    }

    fn arg(&mut self) -> Result<ArgRef<'a>, ParseQasmError> {
        let register = self.expect_ident()?;
        let index = if self.peek_is(TokenKind::LBracket) {
            self.skip();
            let i = self.expect_int()? as usize;
            self.expect(TokenKind::RBracket)?;
            Some(i)
        } else {
            None
        };
        Ok(ArgRef { register, index })
    }

    // --- expressions (precedence climbing) -------------------------------

    fn expr<B: Build<'a>>(&mut self, b: &B) -> Result<B::Expr, ParseQasmError> {
        let mut lhs = self.expr_multiplicative(b)?;
        loop {
            let op = if self.peek_is(TokenKind::Plus) {
                BinOp::Add
            } else if self.peek_is(TokenKind::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_multiplicative(b)?;
            lhs = b.bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_multiplicative<B: Build<'a>>(&mut self, b: &B) -> Result<B::Expr, ParseQasmError> {
        let mut lhs = self.expr_unary(b)?;
        loop {
            let op = if self.peek_is(TokenKind::Star) {
                BinOp::Mul
            } else if self.peek_is(TokenKind::Slash) {
                BinOp::Div
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_unary(b)?;
            lhs = b.bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_unary<B: Build<'a>>(&mut self, b: &B) -> Result<B::Expr, ParseQasmError> {
        if self.peek_is(TokenKind::Minus) {
            self.skip();
            let e = self.expr_unary(b)?;
            return Ok(b.neg(e));
        }
        let base = self.expr_atom(b)?;
        if self.peek_is(TokenKind::Caret) {
            self.skip();
            let exp = self.expr_unary(b)?; // right-associative
            return Ok(b.bin(BinOp::Pow, base, exp));
        }
        Ok(base)
    }

    fn expr_atom<B: Build<'a>>(&mut self, b: &B) -> Result<B::Expr, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Real(v) => Ok(b.num(v)),
            TokenKind::Int(v) => Ok(b.num(v as f64)),
            TokenKind::LParen => {
                let e = self.expr(b)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident("pi") => Ok(b.pi()),
            TokenKind::Ident(name) => {
                if self.peek_is(TokenKind::LParen) {
                    self.skip();
                    let arg = self.expr(b)?;
                    self.expect(TokenKind::RParen)?;
                    Ok(b.func(name, arg))
                } else {
                    Ok(b.ident(name))
                }
            }
            _ => Err(self.expected("expression", t)),
        }
    }

    // --- token plumbing ----------------------------------------------------

    /// Line of the next token, or of the last one at end of input.
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.line)
    }

    /// `found` (just consumed) stands where `what` belongs. The error
    /// names the line of the token before it — where the missing piece
    /// belonged — so a missing `;` points at its own statement rather
    /// than at whatever follows on a later line.
    fn expected(&self, what: impl fmt::Display, found: Token<'_>) -> ParseQasmError {
        let before = self.pos.checked_sub(2).and_then(|i| self.tokens.get(i));
        ParseQasmError::new(
            Some(before.map_or(found.line, |t| t.line)),
            format!("expected {what}, found {}", found.kind),
        )
    }

    fn skip(&mut self) {
        self.pos += 1;
    }

    fn next_token(&mut self) -> Result<Token<'a>, ParseQasmError> {
        match self.tokens.get(self.pos) {
            Some(&t) => {
                self.pos += 1;
                Ok(t)
            }
            None => Err(ParseQasmError::new(
                Some(self.line()),
                "unexpected end of input",
            )),
        }
    }

    fn peek_is(&self, kind: TokenKind<'_>) -> bool {
        self.tokens.get(self.pos).is_some_and(|t| t.kind == kind)
    }

    fn peek_ident(&self) -> Option<&'a str> {
        match self.tokens.get(self.pos)?.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), ParseQasmError> {
        let t = self.next_token()?;
        if t.kind == kind {
            Ok(())
        } else {
            Err(self.expected(kind, t))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Ident(s) => Ok(s),
            _ => Err(self.expected("identifier", t)),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Int(v) => Ok(v),
            _ => Err(self.expected("integer", t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_header_and_registers() {
        let p = parse_program("OPENQASM 2.0;\nqreg q[4];\ncreg c[4];").unwrap();
        assert_eq!(p.version, "2.0");
        assert_eq!(
            p.statements[0],
            Statement::QReg {
                name: "q".into(),
                size: 4
            }
        );
    }

    #[test]
    fn parses_gate_application_with_params() {
        let p = parse_program("rz(pi/2) q[0];").unwrap();
        let Statement::Apply(op) = &p.statements[0] else {
            panic!("expected apply");
        };
        assert_eq!(op.name, "rz");
        assert_eq!(op.args[0].index, Some(0));
        assert_eq!(op.params.len(), 1);
    }

    #[test]
    fn parses_gate_definition() {
        let p = parse_program("gate foo(a) x, y { rz(a) x; cx x, y; }").unwrap();
        let Statement::GateDef {
            name,
            params,
            qargs,
            body,
        } = &p.statements[0]
        else {
            panic!("expected gate def");
        };
        assert_eq!(name, "foo");
        assert_eq!(params, &["a".to_string()]);
        assert_eq!(qargs, &["x".to_string(), "y".to_string()]);
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn includes_qelib() {
        // The include is flagged, not spliced: conversion resolves the
        // standard library from a table parsed once per process.
        let p = parse_program("include \"qelib1.inc\";").unwrap();
        assert!(p.includes_qelib);
        assert!(p.statements.is_empty());
        assert!(!parse_program("qreg q[1];").unwrap().includes_qelib);
        assert!(parse_program("include \"other.inc\";").is_err());
        // The library itself parses and defines a few dozen gates.
        let lib = parse_program(crate::qelib::QELIB1).unwrap();
        let defs = lib
            .statements
            .iter()
            .filter(|s| matches!(s, Statement::GateDef { .. }))
            .count();
        assert!(defs >= 20, "only {defs} gates in qelib1");
    }

    #[test]
    fn parses_measure_and_barrier() {
        let p = parse_program("measure q[0] -> c[0];\nbarrier q;").unwrap();
        assert!(matches!(p.statements[0], Statement::Measure { .. }));
        assert!(matches!(p.statements[1], Statement::Barrier(_)));
    }

    #[test]
    fn rejects_unsupported() {
        assert!(parse_program("reset q[0];").is_err());
        assert!(parse_program("if (c == 1) x q[0];").is_err());
        assert!(parse_program("opaque magic q;").is_err());
    }

    #[test]
    fn expression_precedence() {
        let p = parse_program("rz(1 + 2 * 3) q[0];").unwrap();
        let Statement::Apply(op) = &p.statements[0] else {
            panic!();
        };
        let v = op.params[0].eval(&Default::default()).unwrap();
        assert_eq!(v, 7.0);
        let p = parse_program("rz(-pi/2) q[0];").unwrap();
        let Statement::Apply(op) = &p.statements[0] else {
            panic!();
        };
        let v = op.params[0].eval(&Default::default()).unwrap();
        assert!((v + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("qreg q[2];\nqreg r[;\n").unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("line 2"));
        // The offending line, not the line of whatever follows it.
        let err = parse_program("qreg q[2];\nh q[0];\nqreg r[;\nh q[1];\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: expected integer, found ;");
        // A missing `;` belongs to its own statement, even when the next
        // token sits lines later.
        let err = parse_program("qreg q[2];\nh q[0]\n\n\nh q[1];").unwrap_err();
        assert_eq!(err.to_string(), "line 2: expected ;, found `h`");
        let err = parse_program("include \"other.inc\";\n\nqreg q[1];").unwrap_err();
        assert_eq!(err.line(), Some(1));
        let err = parse_program("qreg q[2];\n\n}").unwrap_err();
        assert_eq!(err.to_string(), "line 3: expected statement, found }");
        let err = parse_program("qreg q[2];\ncx q[0],\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unexpected end of input");
    }

    #[test]
    fn a_lex_error_outranks_an_earlier_parse_error() {
        // The whole document is tokenized before any of it is parsed.
        let err = parse_program("qreg q[2];\nqreg r[;\nh q[0];\n@;\n").unwrap_err();
        assert_eq!(err.to_string(), "line 4: unexpected character `@`");
    }

    #[test]
    fn a_header_only_counts_at_the_start() {
        assert!(parse_program("qreg q[1];\nOPENQASM 2.0;\nh q[0];\n").is_err());
        assert_eq!(parse_program("OPENQASM 3;").unwrap().version, "3");
    }

    #[test]
    fn an_unterminated_barrier_in_a_gate_body_ends_at_end_of_input() {
        let err = parse_program("gate g a { barrier a").unwrap_err();
        assert_eq!(err.to_string(), "line 1: unexpected end of input");
    }
}
