//! Recursive-descent parser for OpenQASM 2.0.
//!
//! One parser serves every walk. At top level it hands each statement to
//! a sink as it is parsed: the conversion's declaration walk, or its
//! emitting walk. Inside a gate body it yields one application at a
//! time, each time the gate is called. Neither keeps a tree: a parameter
//! expression is evaluated where it stands, under its walk's bindings —
//! none at top level, the call's arguments in a gate body.

use std::error::Error;
use std::fmt;

use crate::lex::{tokenize, Token, TokenKind};

/// How deeply a parameter expression may nest: parentheses, function
/// calls, unary `-` and `^` each take a level. The parser recurses once
/// per level, so without a bound one line of `(`s could overflow a
/// connection thread's stack and abort the daemon.
pub(crate) const MAX_DEPTH: usize = 64;

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

/// A parameter's value, or the identifier or function it could not
/// evaluate. Evaluation errors are reported when the application is
/// converted, in program order, not when it is parsed.
pub(crate) type Value<'a> = Result<f64, &'a str>;

/// The bindings a parameter expression is evaluated under.
pub(crate) type Env<'e> = &'e dyn Fn(&str) -> Option<f64>;

/// Top-level bindings: none.
pub(crate) fn unbound(_: &str) -> Option<f64> {
    None
}

/// The error for a parameter of gate `gate` that names `what`, which is
/// neither a bound parameter nor a known function.
pub(crate) fn eval_error(line: usize, gate: &str, what: &str) -> ParseQasmError {
    ParseQasmError::new(Some(line), format!("in `{gate}`: cannot evaluate `{what}`"))
}

/// One statement as the parser hands it to its sink. Names borrow from
/// the source (`'a`); an application's parameters and arguments borrow
/// the parser's reusable buffers, and a gate's body its token run (`'b`),
/// so a top-level statement costs no allocation.
pub(crate) enum Stmt<'a, 'b> {
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
        /// The tokens between the braces, for [`Parser::body_op`].
        body: &'b [Token<'a>],
    },
    Apply {
        name: &'a str,
        params: &'b [Value<'a>],
        args: &'b [ArgRef<'a>],
        line: usize,
    },
    Measure {
        qubit: ArgRef<'a>,
        clbit: ArgRef<'a>,
    },
    Barrier(&'b [ArgRef<'a>]),
}

/// What the parser hands each top-level statement to. A trait object,
/// not a type parameter: with the declaration sink inlined into the
/// parser, the first walk ran about 8% slower on 4–5-qubit `to_qasm`
/// payloads (release, 2 vCPUs).
pub(crate) type Sink<'a, 's> = dyn FnMut(Stmt<'a, '_>) -> Result<(), ParseQasmError> + 's;

/// Tokenizes a whole source. Nothing is parsed before every token is
/// read, so a lex error anywhere outranks an earlier parse error.
pub(crate) fn lex(source: &str) -> Result<Vec<Token<'_>>, ParseQasmError> {
    tokenize(source).map_err(|e| ParseQasmError::new(Some(e.line), e.message))
}

/// The parser over one run of tokens: a whole source, walked by
/// [`Parser::run`], or a gate body, walked by [`Parser::body_op`].
pub(crate) struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    /// Expression levels open at the cursor; at most [`MAX_DEPTH`].
    depth: usize,
}

impl<'t, 'a> Parser<'t, 'a> {
    pub(crate) fn new(tokens: &'t [Token<'a>]) -> Parser<'t, 'a> {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Parses the whole token stream, handing each statement to `sink`
    /// in source order. Stops at the first syntax error, or at the first
    /// error the sink returns.
    ///
    /// `include "qelib1.inc";` selects the embedded standard library; any
    /// other include is an error (the parser has no filesystem access).
    pub(crate) fn run(mut self, sink: &mut Sink<'a, '_>) -> Result<(), ParseQasmError> {
        // Optional OPENQASM header.
        if self.peek_ident() == Some("OPENQASM") {
            self.skip();
            let t = self.next_token()?;
            if !matches!(t.kind, TokenKind::Real(_) | TokenKind::Int(_)) {
                return Err(self.expected("version", t));
            }
            self.expect(TokenKind::Semicolon)?;
        }
        let mut params = Vec::new();
        let mut args = Vec::new();
        while self.pos < self.tokens.len() {
            self.statement(&mut params, &mut args, sink)?;
        }
        Ok(())
    }

    fn statement(
        &mut self,
        params: &mut Vec<Value<'a>>,
        args: &mut Vec<ArgRef<'a>>,
        sink: &mut Sink<'a, '_>,
    ) -> Result<(), ParseQasmError> {
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
                // Checked here, kept as tokens: conversion parses the
                // body again, with its parameters bound, on each call.
                let start = self.pos;
                while self.body_op(&unbound, params, args)?.is_some() {}
                let body = &self.tokens[start..self.pos];
                self.expect(TokenKind::RBrace)?;
                Stmt::Gate {
                    name: gname,
                    params: formals,
                    qargs,
                    body,
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
                let (name, line) = self.op(&unbound, params, args)?;
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

    /// The next application of a gate body, its parameters evaluated
    /// under `env`, or `None` at the body's end: a `}`, or the end of a
    /// body's token run. Barriers in a body are scheduling hints, and
    /// inlining skips them.
    pub(crate) fn body_op(
        &mut self,
        env: Env<'_>,
        params: &mut Vec<Value<'a>>,
        args: &mut Vec<ArgRef<'a>>,
    ) -> Result<Option<(&'a str, usize)>, ParseQasmError> {
        loop {
            if self.pos == self.tokens.len() || self.peek_is(TokenKind::RBrace) {
                return Ok(None);
            }
            if self.peek_ident() != Some("barrier") {
                return self.op(env, params, args).map(Some);
            }
            while self.next_token()?.kind != TokenKind::Semicolon {}
        }
    }

    /// `name (params)? arg (, arg)* ;`, with the parameters and arguments
    /// left in the given buffers. Returns the name and its line.
    fn op(
        &mut self,
        env: Env<'_>,
        params: &mut Vec<Value<'a>>,
        args: &mut Vec<ArgRef<'a>>,
    ) -> Result<(&'a str, usize), ParseQasmError> {
        let line = self.line();
        let name = self.expect_ident()?;
        params.clear();
        if self.peek_is(TokenKind::LParen) {
            self.skip();
            if !self.peek_is(TokenKind::RParen) {
                self.list(params, |p| p.expr(env))?;
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

    // --- expressions (precedence climbing), evaluated as parsed ----------
    //
    // The one definition of QASM arithmetic. A failed lookup is carried
    // as a value, not raised, so that it cannot outrank a later syntax
    // error; of two failed operands, the left one is reported.

    fn expr(&mut self, env: Env<'_>) -> Result<Value<'a>, ParseQasmError> {
        let mut lhs = self.expr_multiplicative(env)?;
        loop {
            let op: fn(f64, f64) -> f64 = if self.peek_is(TokenKind::Plus) {
                |l, r| l + r
            } else if self.peek_is(TokenKind::Minus) {
                |l, r| l - r
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_multiplicative(env)?;
            lhs = lhs.and_then(|l| Ok(op(l, rhs?)));
        }
        Ok(lhs)
    }

    fn expr_multiplicative(&mut self, env: Env<'_>) -> Result<Value<'a>, ParseQasmError> {
        let mut lhs = self.expr_unary(env)?;
        loop {
            let op: fn(f64, f64) -> f64 = if self.peek_is(TokenKind::Star) {
                |l, r| l * r
            } else if self.peek_is(TokenKind::Slash) {
                |l, r| l / r
            } else {
                break;
            };
            self.skip();
            let rhs = self.expr_unary(env)?;
            lhs = lhs.and_then(|l| Ok(op(l, rhs?)));
        }
        Ok(lhs)
    }

    /// Every nested level passes through here, so this is where the
    /// depth is bounded.
    fn expr_unary(&mut self, env: Env<'_>) -> Result<Value<'a>, ParseQasmError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseQasmError::new(
                Some(self.line()),
                format!("expression nests more than {MAX_DEPTH} levels deep"),
            ));
        }
        self.depth += 1;
        let value = self.expr_unary_unbounded(env);
        self.depth -= 1;
        value
    }

    fn expr_unary_unbounded(&mut self, env: Env<'_>) -> Result<Value<'a>, ParseQasmError> {
        if self.peek_is(TokenKind::Minus) {
            self.skip();
            return Ok(self.expr_unary(env)?.map(|v| -v));
        }
        let base = self.expr_atom(env)?;
        if self.peek_is(TokenKind::Caret) {
            self.skip();
            let exp = self.expr_unary(env)?; // right-associative
            return Ok(base.and_then(|b| Ok(b.powf(exp?))));
        }
        Ok(base)
    }

    fn expr_atom(&mut self, env: Env<'_>) -> Result<Value<'a>, ParseQasmError> {
        let t = self.next_token()?;
        match t.kind {
            TokenKind::Real(v) => Ok(Ok(v)),
            TokenKind::Int(v) => Ok(Ok(v as f64)),
            TokenKind::LParen => {
                let e = self.expr(env)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident("pi") => Ok(Ok(std::f64::consts::PI)),
            TokenKind::Ident(name) if self.peek_is(TokenKind::LParen) => {
                self.skip();
                let arg = self.expr(env)?;
                self.expect(TokenKind::RParen)?;
                let func: fn(f64) -> f64 = match name {
                    "sin" => f64::sin,
                    "cos" => f64::cos,
                    "tan" => f64::tan,
                    "exp" => f64::exp,
                    "ln" => f64::ln,
                    "sqrt" => f64::sqrt,
                    _ => return Ok(arg.and(Err(name))),
                };
                Ok(arg.map(func))
            }
            TokenKind::Ident(name) => Ok(env(name).ok_or(name)),
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
    use std::f64::consts::FRAC_PI_2;

    use qxmap_circuit::{Circuit, Gate, OneQubitKind};

    use super::*;
    use crate::{parse, Parsed};

    /// The one gate `rz(<expr>) q[0];` converts to, as its angle.
    fn rz(expr: &str) -> Result<f64, ParseQasmError> {
        let circuit = parse(&format!("qreg q[1];\nrz({expr}) q[0];"))?;
        match circuit.gates() {
            [Gate::One {
                kind: OneQubitKind::Rz(v),
                qubit: 0,
            }] => Ok(*v),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn error(src: &str) -> String {
        Parsed::new(src).err().expect("a syntax error").to_string()
    }

    #[test]
    fn parses_header_and_registers() {
        let c = parse("OPENQASM 2.0;\nqreg q[4];\ncreg c[4];").unwrap();
        assert_eq!((c.num_qubits(), c.num_clbits()), (4, 4));
        assert!(c.gates().is_empty());
    }

    #[test]
    fn parses_gate_application_with_params() {
        let c = parse("qreg q[2];\nrz(pi/2) q[1];").unwrap();
        assert_eq!(c.gates(), [Gate::one(OneQubitKind::Rz(FRAC_PI_2), 1)]);
    }

    #[test]
    fn parses_gate_definition() {
        let c = parse("qreg q[2];\ngate foo(a) x, y { rz(a) x; cx x, y; }\nfoo(0.5) q[1], q[0];")
            .unwrap();
        assert_eq!(
            c.gates(),
            [Gate::one(OneQubitKind::Rz(0.5), 1), Gate::cnot(1, 0)]
        );
        // A definition on its own emits nothing.
        let c = parse("gate foo(a) x, y { rz(a) x; cx x, y; }").unwrap();
        assert_eq!((c.num_qubits(), c.gates().len()), (0, 0));
    }

    #[test]
    fn includes_qelib() {
        // The include is flagged, not spliced: conversion resolves the
        // standard library from a table parsed once per process, and a
        // source without the include cannot call it.
        let c = parse("include \"qelib1.inc\";").unwrap();
        assert_eq!((c.num_qubits(), c.gates().len()), (0, 0));
        let ccx = "qreg q[3];\nccx q[0], q[1], q[2];";
        assert_eq!(
            parse(ccx).unwrap_err().to_string(),
            "line 2: unknown gate `ccx`"
        );
        let c = parse(&format!("include \"qelib1.inc\";\n{ccx}")).unwrap();
        assert_eq!(c.num_cnots(), 6);
        assert_eq!(
            error("include \"other.inc\";"),
            "line 1: cannot include \"other.inc\": only the embedded qelib1.inc is available"
        );
    }

    #[test]
    fn parses_measure_and_barrier() {
        let c = parse("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[1];\nbarrier q;").unwrap();
        assert_eq!(
            c.gates(),
            [
                Gate::Measure { qubit: 0, clbit: 1 },
                Gate::Barrier(vec![0, 1])
            ]
        );
    }

    #[test]
    fn rejects_unsupported() {
        assert!(Parsed::new("reset q[0];").is_err());
        assert!(Parsed::new("if (c == 1) x q[0];").is_err());
        assert!(Parsed::new("opaque magic q;").is_err());
    }

    #[test]
    fn expression_precedence() {
        assert_eq!(rz("1 + 2 * 3"), Ok(7.0));
        assert_eq!(rz("(1 + 2) * 3"), Ok(9.0));
        assert_eq!(rz("8 - 2 - 1"), Ok(5.0));
        assert_eq!(rz("-pi/2"), Ok(-FRAC_PI_2));
        // `^` binds tighter than unary minus and associates to the right.
        assert_eq!(rz("-2^2"), Ok(-4.0));
        assert_eq!(rz("2^3^2"), Ok(512.0));
    }

    #[test]
    fn eval_arithmetic() {
        assert_eq!(rz("pi / 2"), Ok(FRAC_PI_2));
        assert_eq!(rz("2 * pi / 4"), Ok(FRAC_PI_2));
        assert_eq!(rz("1.5e1 / 3"), Ok(5.0));
    }

    #[test]
    fn eval_bindings() {
        let g = |call: &str| -> Result<Circuit, ParseQasmError> {
            parse(&format!(
                "qreg q[1];\ngate g(theta) a {{\n  rz(-theta) a;\n}}\n{call}"
            ))
        };
        assert_eq!(
            g("g(0.5) q[0];").unwrap().gates(),
            [Gate::one(OneQubitKind::Rz(-0.5), 0)]
        );
        // Only a call binds; a formal means nothing at top level.
        assert_eq!(
            rz("theta").unwrap_err().to_string(),
            "line 2: in `rz`: cannot evaluate `theta`"
        );
        // An unbound name in a body fails on the body's own line, and
        // only when the gate is called.
        let body = "qreg q[1];\ngate g(theta) a {\n  rz(phi) a;\n}\n";
        assert!(parse(body).is_ok());
        assert_eq!(
            parse(&format!("{body}g(1) q[0];")).unwrap_err().to_string(),
            "line 3: in `g`: cannot evaluate `phi`"
        );
    }

    #[test]
    fn eval_functions() {
        assert_eq!(rz("cos(0)"), Ok(1.0));
        assert_eq!(rz("sqrt(16) + ln(1) + exp(0)"), Ok(5.0));
        assert_eq!(
            rz("sinh(0)").unwrap_err().to_string(),
            "line 2: in `rz`: cannot evaluate `sinh`"
        );
        // An operand fails before the function that would take it, and
        // of two failed operands the left one is reported.
        assert_eq!(
            rz("sinh(x)").unwrap_err().to_string(),
            "line 2: in `rz`: cannot evaluate `x`"
        );
        assert_eq!(
            rz("a + b").unwrap_err().to_string(),
            "line 2: in `rz`: cannot evaluate `a`"
        );
    }

    #[test]
    fn eval_pow() {
        assert_eq!(rz("2^10"), Ok(1024.0));
        assert_eq!(rz("4^0.5"), Ok(2.0));
    }

    #[test]
    fn arg_display() {
        let arg = |index| ArgRef {
            register: "q",
            index,
        };
        assert_eq!(arg(Some(2)).to_string(), "q[2]");
        assert_eq!(arg(None).to_string(), "q");
    }

    #[test]
    fn expressions_nest_up_to_the_bound() {
        let nested = |depth: usize| format!("{}0{}", "(".repeat(depth), ")".repeat(depth));
        // The parameter itself is the first level.
        assert_eq!(rz(&nested(MAX_DEPTH - 1)), Ok(0.0));
        assert_eq!(
            rz(&nested(MAX_DEPTH)).unwrap_err().to_string(),
            "line 2: expression nests more than 64 levels deep"
        );
        let minus = format!("{}1", "-".repeat(MAX_DEPTH - 1));
        assert_eq!(rz(&minus), Ok(-1.0));
        assert!(rz(&format!("-{minus}")).is_err());
        let pow = format!("{}1", "1^".repeat(MAX_DEPTH - 1));
        assert_eq!(rz(&pow), Ok(1.0));
        assert!(rz(&format!("1^{pow}")).is_err());
    }

    #[test]
    fn deep_nesting_fails_cleanly_on_a_small_stack() {
        // A connection thread's default stack is 2 MiB, and overflowing
        // it aborts the whole process, which no `catch_unwind` can stop.
        let deep = 100_000;
        let sources = [
            format!(
                "qreg q[1];\nrz({}0{}) q[0];",
                "(".repeat(deep),
                ")".repeat(deep)
            ),
            format!("qreg q[1];\nrz({}1) q[0];", "-".repeat(deep)),
            format!("qreg q[1];\nrz({}1) q[0];", "2^".repeat(deep)),
            format!("gate g a {{\n u1({}1) a; }}", "sin(".repeat(deep)),
        ];
        let errors = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || sources.map(|s| crate::parse_skeleton(&s).map(|_| ())))
            .unwrap()
            .join()
            .expect("the parser returns instead of overflowing its stack");
        for error in errors {
            let error = error.unwrap_err();
            assert_eq!(error.line(), Some(2), "{error}");
            assert!(error.to_string().contains("levels deep"), "{error}");
        }
    }

    #[test]
    fn error_reports_line() {
        let err = Parsed::new("qreg q[2];\nqreg r[;\n").err().unwrap();
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("line 2"));
        // The offending line, not the line of whatever follows it.
        assert_eq!(
            error("qreg q[2];\nh q[0];\nqreg r[;\nh q[1];\n"),
            "line 3: expected integer, found ;"
        );
        // A missing `;` belongs to its own statement, even when the next
        // token sits lines later.
        assert_eq!(
            error("qreg q[2];\nh q[0]\n\n\nh q[1];"),
            "line 2: expected ;, found `h`"
        );
        let err = Parsed::new("include \"other.inc\";\n\nqreg q[1];")
            .err()
            .unwrap();
        assert_eq!(err.line(), Some(1));
        assert_eq!(
            error("qreg q[2];\n\n}"),
            "line 3: expected statement, found }"
        );
        assert_eq!(
            error("qreg q[2];\ncx q[0],\n"),
            "line 2: unexpected end of input"
        );
    }

    #[test]
    fn a_lex_error_outranks_an_earlier_parse_error() {
        // The whole document is tokenized before any of it is parsed.
        assert_eq!(
            error("qreg q[2];\nqreg r[;\nh q[0];\n@;\n"),
            "line 4: unexpected character `@`"
        );
    }

    #[test]
    fn a_header_only_counts_at_the_start() {
        assert!(Parsed::new("qreg q[1];\nOPENQASM 2.0;\nh q[0];\n").is_err());
        // Any numeric version is accepted.
        assert!(parse("OPENQASM 3;").is_ok());
        assert!(parse("OPENQASM 2.0;\nOPENQASM 2.0;").is_err());
    }

    #[test]
    fn an_unterminated_barrier_in_a_gate_body_ends_at_end_of_input() {
        assert_eq!(
            error("gate g a { barrier a"),
            "line 1: unexpected end of input"
        );
    }
}
