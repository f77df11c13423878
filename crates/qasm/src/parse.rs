//! Recursive-descent parser for OpenQASM 2.0.

use std::error::Error;
use std::fmt;

use crate::ast::{Arg, BinOp, Expr, GateOp, Program, Statement};
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

/// Parses source into an AST (no semantic checks beyond syntax).
///
/// `include "qelib1.inc";` selects the embedded standard library; any
/// other include is an error (the parser has no filesystem access). The
/// whole source is tokenized before any of it is parsed, so a lex error
/// anywhere outranks an earlier parse error.
///
/// # Errors
///
/// Returns [`ParseQasmError`] with line information on malformed input.
pub fn parse_program(source: &str) -> Result<Program, ParseQasmError> {
    let tokens = tokenize(source).map_err(|e| ParseQasmError::new(Some(e.line), e.message))?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        program: Program::default(),
    };
    parser.run()?;
    Ok(parser.program)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    program: Program,
}

impl<'a> Parser<'a> {
    fn run(&mut self) -> Result<(), ParseQasmError> {
        // Optional OPENQASM header.
        if self.peek_ident() == Some("OPENQASM") {
            self.skip();
            let t = self.next_token()?;
            let version = match t.kind {
                TokenKind::Real(v) => format!("{v:.1}"),
                TokenKind::Int(v) => format!("{v}"),
                _ => return Err(self.expected("version", t)),
            };
            self.expect(TokenKind::Semicolon)?;
            self.program.version = version;
        }
        while self.pos < self.tokens.len() {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), ParseQasmError> {
        let Some(name) = self.peek_ident() else {
            let t = self.next_token()?;
            return Err(ParseQasmError::new(
                Some(t.line),
                format!("expected statement, found {}", t.kind),
            ));
        };
        match name {
            "qreg" | "creg" => {
                self.skip();
                let reg = self.expect_ident()?;
                self.expect(TokenKind::LBracket)?;
                let size = self.expect_int()? as usize;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Semicolon)?;
                self.program.statements.push(if name == "qreg" {
                    Statement::QReg { name: reg, size }
                } else {
                    Statement::CReg { name: reg, size }
                });
            }
            "include" => {
                let line = self.line();
                self.skip();
                let t = self.next_token()?;
                let TokenKind::Str(file) = t.kind else {
                    return Err(self.expected("filename", t));
                };
                self.expect(TokenKind::Semicolon)?;
                if file == "qelib1.inc" {
                    // Only flagged, never spliced: conversion resolves
                    // the library's definitions from a table parsed once
                    // per process (see [`Program::includes_qelib`]) —
                    // re-parsing ~30 gate bodies on every request
                    // dominated the serving tier's warm-hit path.
                    self.program.includes_qelib = true;
                } else {
                    return Err(ParseQasmError::new(
                        Some(line),
                        format!(
                            "cannot include \"{file}\": only the embedded qelib1.inc is available"
                        ),
                    ));
                }
            }
            "gate" => {
                self.skip();
                let gname = self.expect_ident()?;
                let mut params = Vec::new();
                if self.peek_is(TokenKind::LParen) {
                    self.skip();
                    if !self.peek_is(TokenKind::RParen) {
                        loop {
                            params.push(self.expect_ident()?);
                            if self.peek_is(TokenKind::Comma) {
                                self.skip();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                }
                let mut qargs = Vec::new();
                loop {
                    qargs.push(self.expect_ident()?);
                    if self.peek_is(TokenKind::Comma) {
                        self.skip();
                    } else {
                        break;
                    }
                }
                self.expect(TokenKind::LBrace)?;
                let mut body = Vec::new();
                while !self.peek_is(TokenKind::RBrace) {
                    if self.peek_ident() == Some("barrier") {
                        // Barriers inside gate bodies are scheduling hints;
                        // skip them during inlining.
                        while self.next_token()?.kind != TokenKind::Semicolon {}
                        continue;
                    }
                    body.push(self.gate_op()?);
                }
                self.expect(TokenKind::RBrace)?;
                self.program.statements.push(Statement::GateDef {
                    name: gname,
                    params,
                    qargs,
                    body,
                });
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
                self.program
                    .statements
                    .push(Statement::Measure { qubit, clbit });
            }
            "barrier" => {
                self.skip();
                let mut args = Vec::new();
                loop {
                    args.push(self.arg()?);
                    if self.peek_is(TokenKind::Comma) {
                        self.skip();
                    } else {
                        break;
                    }
                }
                self.expect(TokenKind::Semicolon)?;
                self.program.statements.push(Statement::Barrier(args));
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
                let op = self.gate_op()?;
                self.program.statements.push(Statement::Apply(op));
            }
        }
        Ok(())
    }

    /// `name (params)? arg (, arg)* ;`
    fn gate_op(&mut self) -> Result<GateOp, ParseQasmError> {
        let line = self.line();
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.peek_is(TokenKind::LParen) {
            self.skip();
            if !self.peek_is(TokenKind::RParen) {
                loop {
                    params.push(self.expr()?);
                    if self.peek_is(TokenKind::Comma) {
                        self.skip();
                    } else {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let mut args = Vec::new();
        loop {
            args.push(self.arg()?);
            if self.peek_is(TokenKind::Comma) {
                self.skip();
            } else {
                break;
            }
        }
        self.expect(TokenKind::Semicolon)?;
        Ok(GateOp {
            name,
            params,
            args,
            line,
        })
    }

    fn arg(&mut self) -> Result<Arg, ParseQasmError> {
        let register = self.expect_ident()?;
        let index = if self.peek_is(TokenKind::LBracket) {
            self.skip();
            let i = self.expect_int()? as usize;
            self.expect(TokenKind::RBracket)?;
            Some(i)
        } else {
            None
        };
        Ok(Arg { register, index })
    }

    // --- expressions (precedence climbing) -------------------------------

    fn expr(&mut self) -> Result<Expr, ParseQasmError> {
        self.expr_additive()
    }

    fn expr_additive(&mut self) -> Result<Expr, ParseQasmError> {
        let mut lhs = self.expr_multiplicative()?;
        loop {
            let op = if self.peek_is(TokenKind::Plus) {
                BinOp::Add
            } else if self.peek_is(TokenKind::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_multiplicative()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn expr_multiplicative(&mut self) -> Result<Expr, ParseQasmError> {
        let mut lhs = self.expr_unary()?;
        loop {
            let op = if self.peek_is(TokenKind::Star) {
                BinOp::Mul
            } else if self.peek_is(TokenKind::Slash) {
                BinOp::Div
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_unary()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn expr_unary(&mut self) -> Result<Expr, ParseQasmError> {
        if self.peek_is(TokenKind::Minus) {
            self.skip();
            return Ok(Expr::Neg(Box::new(self.expr_unary()?)));
        }
        self.expr_power()
    }

    fn expr_power(&mut self) -> Result<Expr, ParseQasmError> {
        let base = self.expr_atom()?;
        if self.peek_is(TokenKind::Caret) {
            self.skip();
            let exp = self.expr_unary()?; // right-associative
            return Ok(Expr::Bin {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn expr_atom(&mut self) -> Result<Expr, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Real(v) => Ok(Expr::Num(v)),
            TokenKind::Int(v) => Ok(Expr::Num(v as f64)),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident("pi") => Ok(Expr::Pi),
            TokenKind::Ident(name) => {
                if self.peek_is(TokenKind::LParen) {
                    self.skip();
                    let arg = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr::Func {
                        func: name.to_string(),
                        arg: Box::new(arg),
                    })
                } else {
                    Ok(Expr::Ident(name.to_string()))
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

    /// An identifier, copied out of the source as it enters the AST.
    fn expect_ident(&mut self) -> Result<String, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Ident(s) => Ok(s.to_string()),
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
