//! Abstract syntax tree for OpenQASM 2.0.
//!
//! [`crate::parse_program`] builds it; conversion reads it back through
//! [`Program::replay`], the same statement stream the parser hands the
//! text entry points. Only gate bodies are kept as [`GateOp`]s on the
//! text path: conversion replays a body on every call of its gate.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::parse::{ArgRef, Build, Eval, ParseQasmError, Stmt, Value, TOP_LEVEL};

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Declared language version (e.g. "2.0").
    pub version: String,
    /// Top-level statements in source order.
    pub statements: Vec<Statement>,
    /// Whether the source included the standard library
    /// (`include "qelib1.inc";`). The library's gate definitions are
    /// *not* spliced into `statements` — conversion resolves them from
    /// a table parsed once per process, so a serving daemon does not
    /// re-parse (or re-clone) ~30 gate bodies on every request.
    pub includes_qelib: bool,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `qreg name[size];`
    QReg {
        /// Register name.
        name: String,
        /// Number of qubits.
        size: usize,
    },
    /// `creg name[size];`
    CReg {
        /// Register name.
        name: String,
        /// Number of classical bits.
        size: usize,
    },
    /// `gate name(params) qargs { body }`
    GateDef {
        /// Gate name.
        name: String,
        /// Formal parameter names.
        params: Vec<String>,
        /// Formal qubit argument names.
        qargs: Vec<String>,
        /// Body operations (over the formal names).
        body: Vec<GateOp>,
    },
    /// A gate application at top level.
    Apply(GateOp),
    /// `measure q -> c;`
    Measure {
        /// Source qubit argument.
        qubit: Arg,
        /// Destination classical argument.
        clbit: Arg,
    },
    /// `barrier args;`
    Barrier(Vec<Arg>),
}

/// A gate application: `name(params) args;`
#[derive(Debug, Clone, PartialEq)]
pub struct GateOp {
    /// Gate name.
    pub name: String,
    /// Parameter expressions.
    pub params: Vec<Expr>,
    /// Qubit arguments.
    pub args: Vec<Arg>,
    /// Source line for error reporting.
    pub line: usize,
}

/// A register reference, optionally indexed: `q` or `q[3]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arg {
    /// Register (or formal argument) name.
    pub register: String,
    /// Index within the register, if given.
    pub index: Option<usize>,
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ArgRef::from(self).fmt(f)
    }
}

impl<'a> From<&'a Arg> for ArgRef<'a> {
    fn from(arg: &'a Arg) -> ArgRef<'a> {
        ArgRef {
            register: &arg.register,
            index: arg.index,
        }
    }
}

impl From<ArgRef<'_>> for Arg {
    fn from(arg: ArgRef<'_>) -> Arg {
        Arg {
            register: arg.register.to_string(),
            index: arg.index,
        }
    }
}

/// A parameter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// The constant π.
    Pi,
    /// A formal parameter reference (inside gate bodies).
    Ident(String),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Builtin function call.
    Func {
        /// Function name (sin, cos, tan, exp, ln, sqrt).
        func: String,
        /// Argument.
        arg: Box<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation.
    Pow,
}

/// Error evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// The unbound identifier or unknown function.
    pub what: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot evaluate `{}`", self.what)
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Evaluates the expression under parameter bindings.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for unbound identifiers or unknown functions.
    pub fn eval(&self, bindings: &HashMap<String, f64>) -> Result<f64, EvalError> {
        self.fold(&Eval(|name: &str| bindings.get(name).copied()))
    }

    /// Rebuilds the expression through `b`, bottom up.
    pub(crate) fn fold<'e, B: Build<'e>>(&'e self, b: &B) -> B::Expr {
        match self {
            Expr::Num(v) => b.num(*v),
            Expr::Pi => b.pi(),
            Expr::Ident(name) => b.ident(name),
            Expr::Neg(e) => b.neg(e.fold(b)),
            Expr::Bin { op, lhs, rhs } => b.bin(*op, lhs.fold(b), rhs.fold(b)),
            Expr::Func { func, arg } => b.func(func, arg.fold(b)),
        }
    }
}

/// Builds parameter expressions as [`Expr`] trees.
pub(crate) struct Ast;

impl<'a> Build<'a> for Ast {
    type Expr = Expr;

    fn num(&self, v: f64) -> Expr {
        Expr::Num(v)
    }

    fn pi(&self) -> Expr {
        Expr::Pi
    }

    fn ident(&self, name: &'a str) -> Expr {
        Expr::Ident(name.to_string())
    }

    fn neg(&self, e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    fn bin(&self, op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    fn func(&self, name: &'a str, arg: Expr) -> Expr {
        Expr::Func {
            func: name.to_string(),
            arg: Box::new(arg),
        }
    }
}

impl Program {
    /// Hands the statements to `sink` as the parser hands a source's,
    /// top-level parameters evaluated, so conversion runs the same on
    /// either.
    pub(crate) fn replay<'p>(
        &'p self,
        sink: &mut dyn FnMut(Stmt<'p, '_, Value>) -> Result<(), ParseQasmError>,
    ) -> Result<(), ParseQasmError> {
        if self.includes_qelib {
            sink(Stmt::Qelib)?;
        }
        let (mut params, mut args) = (Vec::new(), Vec::new());
        for statement in &self.statements {
            let stmt = match statement {
                Statement::QReg { name, size } => Stmt::QReg { name, size: *size },
                Statement::CReg { name, size } => Stmt::CReg { name, size: *size },
                Statement::GateDef {
                    name,
                    params: formals,
                    qargs,
                    body,
                } => Stmt::Gate {
                    name,
                    params: formals.iter().map(String::as_str).collect(),
                    qargs: qargs.iter().map(String::as_str).collect(),
                    body: Cow::Borrowed(body),
                },
                Statement::Apply(op) => {
                    params.clear();
                    params.extend(op.params.iter().map(|e| e.fold(&TOP_LEVEL)));
                    args.clear();
                    args.extend(op.args.iter().map(ArgRef::from));
                    Stmt::Apply {
                        name: &op.name,
                        params: &params,
                        args: &args,
                        line: op.line,
                    }
                }
                Statement::Measure { qubit, clbit } => Stmt::Measure {
                    qubit: qubit.into(),
                    clbit: clbit.into(),
                },
                Statement::Barrier(list) => {
                    args.clear();
                    args.extend(list.iter().map(ArgRef::from));
                    Stmt::Barrier(&args)
                }
            };
            sink(stmt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let e = Expr::Bin {
            op: BinOp::Div,
            lhs: Box::new(Expr::Pi),
            rhs: Box::new(Expr::Num(2.0)),
        };
        let v = e.eval(&HashMap::new()).unwrap();
        assert!((v - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn eval_bindings() {
        let mut b = HashMap::new();
        b.insert("theta".to_string(), 0.5);
        let e = Expr::Neg(Box::new(Expr::Ident("theta".into())));
        assert_eq!(e.eval(&b).unwrap(), -0.5);
        let unbound = Expr::Ident("phi".into());
        assert!(unbound.eval(&b).is_err());
    }

    #[test]
    fn eval_functions() {
        let e = Expr::Func {
            func: "cos".into(),
            arg: Box::new(Expr::Num(0.0)),
        };
        assert_eq!(e.eval(&HashMap::new()).unwrap(), 1.0);
        let bad = Expr::Func {
            func: "sinh".into(),
            arg: Box::new(Expr::Num(0.0)),
        };
        assert!(bad.eval(&HashMap::new()).is_err());
    }

    #[test]
    fn eval_pow() {
        let e = Expr::Bin {
            op: BinOp::Pow,
            lhs: Box::new(Expr::Num(2.0)),
            rhs: Box::new(Expr::Num(10.0)),
        };
        assert_eq!(e.eval(&HashMap::new()).unwrap(), 1024.0);
    }

    #[test]
    fn arg_display() {
        let a = Arg {
            register: "q".into(),
            index: Some(2),
        };
        assert_eq!(a.to_string(), "q[2]");
        let b = Arg {
            register: "q".into(),
            index: None,
        };
        assert_eq!(b.to_string(), "q");
    }
}
