"""Small analytic expression language.

Grammar (EBNF, also documented in docs/grammar.md):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom [ "^" unary ] ;            (* right associative *)
    atom     = number | "x" | "i" | name | name "(" expr ")" | "(" expr ")" ;
    name     = letter { letter | digit | "_" } ;
    number   = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] ;

Known functions: exp, ln, sqrt, sin, cos.  `x` is the sole variable, `i`
the imaginary unit; any other name is a scalar parameter bound at
evaluation time.  An exponent free of x is a real power (a complex one is
refused); an exponent that depends on x, as in x^x or 2^x, is evaluated as
exp(g ln b).

The AST doubles as the independent differentiation oracle for the jet
kernel: `diff` applies the textbook rules with constant folding only.

Each AST, or list of ASTs, is compiled once into a tape (`JetTape`), a
straight-line list of instructions written out as the source of two Python
functions: a value program (`eval_expr`), which also takes a complex x,
and a jet program of coefficient recurrences (`eval_expr_jet`), each
compiled on its first run; the value program's source, run with array
kernels, is a third, over a vector of real x (`JetTape.grid_values`).  The
tree walk through `Jet` arithmetic, `_eval`, is kept as the oracle the tape
is tested against: the value program reproduces its order-0 jet bit for
bit, and the jet program its coefficients.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jets
from .errors import (
    BranchPointEvaluation,
    DivisionByZeroLeadCoefficient,
    EvaluationSingularity,
    ExpressionSyntaxError,
    OrderExceeded,
    PhaseIntegralError,
    UnboundParameter,
    UnknownFunction,
)
from .jets import (LEAD_RTOL, Jet, jet_const, jet_variable, lead_is_zero,
                   quotient)

__all__ = [
    "Expression", "Const", "Var", "Param", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Func", "parse_expr", "diff_expr", "eval_expr_jet", "eval_expr",
    "to_string", "constant_value", "JetTape", "FUNCTIONS",
]

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")


class Expression:
    """Immutable AST node."""

    # The tape built by `eval_expr`, `eval_expr_jet` or `constant_value` on
    # first use: a cache, kept out of pickled state and out of equality and
    # hashing.
    _jet_fn = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_jet_fn", None)
        return state

    def depends_on_x(self) -> bool:
        raise NotImplementedError

    def params(self) -> set:
        return set()

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_string(self)!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and _ast_key(self) == _ast_key(other)

    def __hash__(self):
        return hash(_ast_key(self))


@dataclass(frozen=True, eq=False)
class Const(Expression):
    value: complex

    def depends_on_x(self):
        return False


@dataclass(frozen=True, eq=False)
class Var(Expression):
    def depends_on_x(self):
        return True


@dataclass(frozen=True, eq=False)
class Param(Expression):
    name: str

    def depends_on_x(self):
        return False

    def params(self):
        return {self.name}


@dataclass(frozen=True, eq=False)
class Neg(Expression):
    arg: Expression

    def depends_on_x(self):
        return self.arg.depends_on_x()

    def params(self):
        return self.arg.params()


class _Binary(Expression):
    def depends_on_x(self):
        return self.left.depends_on_x() or self.right.depends_on_x()

    def params(self):
        return self.left.params() | self.right.params()


@dataclass(frozen=True, eq=False)
class Add(_Binary):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False)
class Sub(_Binary):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False)
class Mul(_Binary):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False)
class Div(_Binary):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False)
class Pow(_Binary):
    left: Expression
    right: Expression


@dataclass(frozen=True, eq=False)
class Func(Expression):
    name: str
    arg: Expression

    def depends_on_x(self):
        return self.arg.depends_on_x()

    def params(self):
        return self.arg.params()


def _ast_key(e: Expression, exact: bool = False):
    """Structural key of `e`.  `exact` keys a constant by its repr, which
    tells 0.0 from -0.0: the tape shares registers by that key."""
    if isinstance(e, Const):
        return ("c", repr(complex(e.value)) if exact else e.value)
    if isinstance(e, Var):
        return ("x",)
    if isinstance(e, Param):
        return ("p", e.name)
    if isinstance(e, Neg):
        return ("neg", _ast_key(e.arg, exact))
    if isinstance(e, Func):
        return ("f", e.name, _ast_key(e.arg, exact))
    return (type(e).__name__, _ast_key(e.left, exact),
            _ast_key(e.right, exact))


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append((ch, pos))
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            start = pos
            while pos < n and (text[pos].isdigit() or text[pos] == "."):
                pos += 1
            if pos < n and text[pos] in "eE":
                look = pos + 1
                if look < n and text[look] in "+-":
                    look += 1
                if look < n and text[look].isdigit():
                    pos = look
                    while pos < n and text[pos].isdigit():
                        pos += 1
            lex = text[start:pos]
            try:
                value = float(lex)
            except ValueError:
                raise ExpressionSyntaxError(f"bad number {lex!r}", start)
            tokens.append(("num", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[0]!r}", tok[-1])
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"trailing input {tok[0]!r}", tok[-1])
        return e

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> Expression:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            expo = self.unary()   # right associative, binds tighter than unary -
            return Pow(base, expo)
        return base

    def atom(self) -> Expression:
        tok = self.advance()
        kind = tok[0]
        if kind == "num":
            return Const(complex(tok[1]))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            name = tok[1]
            if self.peek()[0] == "(":
                if name not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {name!r}")
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Func(name, arg)
            if name == "x":
                return Var()
            if name == "i":
                return Const(1j)
            return Param(name)
        raise ExpressionSyntaxError(f"unexpected token {kind!r}", tok[-1])


def parse_expr(text: str) -> Expression:
    """Parse expression text into an immutable AST."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# printer
# --------------------------------------------------------------------------

_PREC = {"Add": 1, "Sub": 1, "Mul": 2, "Div": 2, "Neg": 3, "Pow": 4}


def _fmt_const(v: complex) -> str:
    if v.imag == 0.0:
        r = v.real
        if r == int(r) and abs(r) < 1e15:
            body = str(int(r))
        else:
            body = repr(r)
        return body if r >= 0 else f"({body})"
    if v.real == 0.0:
        if v.imag == 1.0:
            return "i"
        if v.imag == -1.0:
            return "(-i)"
        return f"({_fmt_const(complex(v.imag))}*i)" if v.imag >= 0 else f"(-{_fmt_const(complex(-v.imag))}*i)"
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_const(complex(v.real))}{sign}{_fmt_const(complex(abs(v.imag)))}*i)"


def _print(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = _fmt_const(e.value)
        return s
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Func):
        return f"{e.name}({_print(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = _print(e.arg, _PREC["Neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["Neg"] - 1 else s
    name = type(e).__name__
    prec = _PREC[name]
    sym = {"Add": " + ", "Sub": " - ", "Mul": "*", "Div": "/", "Pow": "^"}[name]
    # Right operand of -, /, ^ needs a strictly higher precedence context.
    left = _print(e.left, prec if name != "Pow" else prec + 1)
    right = _print(e.right, prec + (0 if name == "Add" else 1))
    s = f"{left}{sym}{right}"
    return f"({s})" if prec < parent_prec else s


def to_string(e: Expression) -> str:
    return _print(e, 0)


# --------------------------------------------------------------------------
# differentiation (with constant folding, nothing more)
# --------------------------------------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold_add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _fold_sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _fold_mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _fold_div(a, b):
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def diff_expr(e: Expression) -> Expression:
    """Symbolic d/dx by the standard rules."""
    if isinstance(e, (Const, Param)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Neg):
        d = diff_expr(e.arg)
        return _ZERO if _is_const(d, 0.0) else Neg(d)
    if isinstance(e, Add):
        return _fold_add(diff_expr(e.left), diff_expr(e.right))
    if isinstance(e, Sub):
        return _fold_sub(diff_expr(e.left), diff_expr(e.right))
    if isinstance(e, Mul):
        return _fold_add(_fold_mul(diff_expr(e.left), e.right),
                         _fold_mul(e.left, diff_expr(e.right)))
    if isinstance(e, Div):
        num = _fold_sub(_fold_mul(diff_expr(e.left), e.right),
                        _fold_mul(e.left, diff_expr(e.right)))
        return _fold_div(num, _fold_mul(e.right, e.right))
    if isinstance(e, Pow):
        if e.right.depends_on_x():
            # b^g = exp(g ln b); handled for completeness.
            return diff_expr(Func("exp", Mul(e.right, Func("ln", e.left))))
        expo = e.right
        new_expo = _fold_sub(expo, _ONE)
        return _fold_mul(_fold_mul(expo, Pow(e.left, new_expo)),
                         diff_expr(e.left))
    if isinstance(e, Func):
        inner = diff_expr(e.arg)
        outer = {
            "exp": lambda a: Func("exp", a),
            "ln": lambda a: _fold_div(_ONE, a),
            "sqrt": lambda a: _fold_div(_ONE, _fold_mul(Const(2.0), Func("sqrt", a))),
            "sin": lambda a: Func("cos", a),
            "cos": lambda a: Neg(Func("sin", a)),
        }[e.name](e.arg)
        return _fold_mul(outer, inner)
    raise TypeError(f"cannot differentiate {e!r}")


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_COMPLEX_EXPONENT = "complex exponents are not supported"
_NO_PARAMS: dict = {}


def _compile_tape(e: Expression) -> "JetTape":
    """The one-expression tape of `e`, cached on `e`."""
    tape = JetTape([e])
    object.__setattr__(e, "_jet_fn", tape)
    return tape


def eval_expr(e: Expression, x0: float,
              params: Mapping[str, complex] | None = None) -> complex:
    """Value of the expression at x0; raises EvaluationSingularity at poles.

    Equal to `eval_expr_jet(e, x0, 0, params).value`, computed by the value
    program of the tape compiled from `e` on first use.
    """
    tape = e._jet_fn or _compile_tape(e)
    return tape.values(x0, params)[0]


def eval_expr_jet(e: Expression, x0: float, order: int,
                  params: Mapping[str, complex] | None = None) -> Jet:
    """Jet of the expression at x0; raises EvaluationSingularity at poles.

    Runs the jet program of the tape compiled from `e` on first use.
    """
    return (e._jet_fn or _compile_tape(e))(x0, order, params)[0]


def constant_value(e: Expression) -> complex | None:
    """The value `e` folds to when it is free of x and of parameters and
    evaluates without error, else None."""
    if e.depends_on_x() or e.params():
        return None
    tape = e._jet_fn or _compile_tape(e)
    return tape._init[tape._outs[0]]


def _eval(e: Expression, x0: float, order: int, params) -> Jet:
    """The tree walk through `Jet` arithmetic: the tape's test oracle."""
    if isinstance(e, Const):
        return jet_const(e.value, x0, order)
    if isinstance(e, Var):
        return jet_variable(x0, order)
    if isinstance(e, Param):
        try:
            return jet_const(params[e.name], x0, order)
        except KeyError:
            raise UnboundParameter(f"parameter {e.name!r} not bound") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, x0, order, params)
    if isinstance(e, Add):
        return _eval(e.left, x0, order, params) + _eval(e.right, x0, order, params)
    if isinstance(e, Sub):
        return _eval(e.left, x0, order, params) - _eval(e.right, x0, order, params)
    if isinstance(e, Mul):
        return _eval(e.left, x0, order, params) * _eval(e.right, x0, order, params)
    if isinstance(e, Div):
        return _eval(e.left, x0, order, params) / _eval(e.right, x0, order, params)
    if isinstance(e, Pow):
        if e.right.depends_on_x():
            return jets.jet_exp(_eval(e.right, x0, order, params)
                                * jets.jet_ln(_eval(e.left, x0, order, params)))
        expo = _eval(e.right, x0, 0, params).value
        if expo.imag != 0.0:
            raise EvaluationSingularity(_COMPLEX_EXPONENT)
        return jets.jet_pow(_eval(e.left, x0, order, params), expo.real)
    if isinstance(e, Func):
        arg = _eval(e.arg, x0, order, params)
        return {
            "exp": jets.jet_exp,
            "ln": jets.jet_ln,
            "sqrt": jets.jet_sqrt,
            "sin": jets.jet_sin,
            "cos": jets.jet_cos,
        }[e.name](arg)
    raise TypeError(f"cannot evaluate {e!r}")


# --------------------------------------------------------------------------
# the tape: one compiled program for values and jets
# --------------------------------------------------------------------------
#
# A list of ASTs is lowered once into a straight-line list of instructions
# over numbered registers (Jorba & Zou's `taylor`; Griewank & Walther,
# Evaluating Derivatives, ch. 13).  Each instruction has a value kernel, a
# scalar operation on complex numbers, and a jet kernel, a coefficient
# recurrence of `jets`, as in the `Jet` methods.  The tape runs as a value
# program, every register a number, or as a jet program, in which a
# register holds a coefficient array when its subtree depends on x and a
# number, formed by the value kernel, when it does not.  A number enters
# array arithmetic as a scalar -- a lead-coefficient add or a scaled copy
# (`jets.series_scale` and its kin) -- never as a convolution with a
# constant jet.
#
# Each program is generated as one Python function, so that a run makes no
# Python call per instruction beyond its kernel's: a register is a local
# variable and an instruction one line that calls its kernel, or, for the
# operator kernels (`_INLINE`), spells out the same arithmetic.  A function
# is compiled on its first run and kept on the tape.  Folded constants,
# kernels and parameter names are bound in the function's namespace, never
# written into its source, so no text of an expression becomes code.
#
# The value kernels reproduce the order-0 jet of the tree walk `_eval`
# exactly: products are formed as numpy's one-term convolution forms them
# (0 + a*b, which turns a -0.0 into +0.0), quotients by numpy's scaled
# complex division (`jets.quotient`), and the lead tolerance, branch-point
# and exponent checks are those of `jets`.  The jet program gives the
# walk's coefficients (zero signs past the lead aside).  Instructions run in
# the walk's order (an exponent before its base), so the same error is
# raised first.  Subtrees with equal exact `_ast_key` share one register,
# sin and cos of one argument share one instruction, and an instruction on
# folded constants is folded to its value when that evaluates without error.


def _div(a: complex, b: complex) -> complex:
    if lead_is_zero((b,)):
        raise DivisionByZeroLeadCoefficient(
            f"divisor jet value {b} below lead tolerance")
    return quotient(a, b)


def _off_branch(v: complex, what: str) -> complex:
    if lead_is_zero((v,)):
        raise BranchPointEvaluation(f"{what} of a jet with (near) zero value")
    return v


def _ipow(b: complex, n: int, mul=None) -> complex:
    # Squaring in the multiplication order of jets._compose_pow; on arrays
    # each product is `mul`.
    out = 1 + 0j
    while n:
        if n & 1:
            out = 0j + out * b if mul is None else mul(out, b)
        if n > 1:
            b = 0j + b * b if mul is None else mul(b, b)
        n >>= 1
    return out


def _pow_real(b: complex, alpha: float) -> complex:
    if alpha == int(alpha) and alpha >= 0:
        return _ipow(b, int(alpha))
    return _off_branch(b, "pow") ** alpha


def _square(b: complex, alpha: float) -> complex:
    return 0j + (1 + 0j) * (0j + b * b)        # _ipow(b, 2) unrolled


def _real_exponent(g: complex) -> float:
    if g.imag != 0.0:
        raise EvaluationSingularity(_COMPLEX_EXPONENT)
    return g.real


def _mul(a: complex, b: complex) -> complex:
    return 0j + a * b


def _sincos(v: complex) -> tuple:
    return cmath.sin(v), cmath.cos(v)


# value kernel, then the (array, array), (array, number) and (number, array)
# jet kernels per binary node
_BINARY_KERNELS = {
    Add: (operator.add, operator.add, jets.series_add_lead,
          lambda c, v: jets.series_add_lead(v, c)),
    Sub: (operator.sub, operator.sub, jets.series_sub_lead,
          jets.series_sub_from),
    Mul: (_mul, jets.series_mul, jets.series_scale,
          lambda c, v: jets.series_scale(v, c)),
    Div: (_div, jets.series_div,
          lambda v, c: jets.series_div(v, jets.series_const(c, v.size)),
          lambda c, v: jets.series_div(jets.series_const(c, v.size), v)),
}

# value kernel, jet kernel
_FUNC_KERNELS = {
    "exp": (cmath.exp, jets.series_exp),
    "ln": (lambda v: cmath.log(_off_branch(v, "ln")), jets.series_ln),
    "sqrt": (lambda v: cmath.sqrt(_off_branch(v, "sqrt")), jets.series_sqrt),
}


# The array kernels of value kernels, for the instructions whose operand
# depends on x.  An element that fails a check stops the run, as a numpy
# floating-point error does, and the value program then runs x by x.
# numpy's complex exp, sin, cos and division give cmath's and `quotient`'s
# bits; its log and power do not, so any other kernel (ln, sqrt, a power
# other than a whole one) runs the value kernel on each element (`_each`).
# Its complex multiply may fuse a multiply and an add, so a product on
# arrays is `_cmul`, the four real products of CPython's.

def _cmul(a, b) -> np.ndarray:
    """0j + a * b, where a or b is an array, with CPython's bits."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag + 0.0
    out.imag = a.real * b.imag + a.imag * b.real + 0.0
    return out


def _checked(v: np.ndarray) -> np.ndarray:
    """v, refused if an element is (near) zero, as `lead_is_zero` tests."""
    mag = np.abs(v)
    if np.any(mag < LEAD_RTOL * (1.0 + mag)):
        raise FloatingPointError("an element is on a pole or branch point")
    return v


def _each(kernel):
    return lambda v, *args: np.array([kernel(z, *args) for z in v.tolist()],
                                     dtype=complex)


_ARRAY_KERNELS = {
    _div: lambda a, b: a / _checked(b),
    _sincos: lambda v: (np.sin(v), np.cos(v)),
    cmath.exp: np.exp,
    _pow_real: lambda b, alpha: (
        _ipow(b, int(alpha), _cmul) if alpha == int(alpha) and alpha >= 0
        else _each(_pow_real)(b, alpha)),
}


def _param(p: Mapping[str, complex], name: str) -> complex:
    try:
        return complex(p[name])
    except KeyError:
        raise UnboundParameter(f"parameter {name!r} not bound") from None


# what a kernel raises at a pole or branch point, and the error a program
# raises for it
_SINGULAR = (DivisionByZeroLeadCoefficient, BranchPointEvaluation)


def _singular(x0, exc: Exception) -> EvaluationSingularity:
    return EvaluationSingularity(f"expression singular at x = {x0}: {exc}")


# the pure-operator kernels, written into a program as their arithmetic
_INLINE = {operator.add: "{} + {}", operator.sub: "{} - {}",
           operator.neg: "-{}", _mul: "0j + {} * {}",
           _square: "0j + (1 + 0j) * (0j + {0} * {0})"}
# their array forms, for the products on arrays (`_cmul`)
_EXACT = {_mul: "_cmul({}, {})", _square: "0j + (1 + 0j) * _cmul({0}, {0})"}


class JetTape:
    """Values and jets of a list of expressions from one compiled tape.

    `tape(x0, order, params)` returns one `Jet` per expression and
    `tape.values(x0, params)` one complex value per expression, at a real
    or complex x0; both raise EvaluationSingularity where `eval_expr_jet`
    does, and `tape.value_program()` is the compiled function that
    `values` calls; `tape.grid_values(xs, params)` gives them at each x of
    a real array.  Each program is generated as the source of one Python
    function, a line per instruction and a local variable per register,
    and compiled on its first run; constants, kernels and parameter names
    are bound in the function's namespace, never written into its source.
    The tape holds no parameter values; they are read at every call.
    """

    _value_program = _jet_program = _array_program = None  # on first run

    def __init__(self, exprs):
        self._values: list = []        # the value program, a line each
        self._steps: list = []         # the jet program, line for line
        self._init: list = []          # folded constants; None: computed
        self._series: list = []        # register holds an array in jets?
        self._ns: dict = {"_param": _param, "_singular": _singular,
                          "_SINGULAR": _SINGULAR, "_raw": Jet._raw,
                          "_variable": jets.series_variable,
                          "_const": jets.series_const}
        self._array_kernels: dict = {"_cmul": _cmul}  # name -> array kernel
        self._arrays: list = []        # the array program, line for line
        self._memo: dict = {}          # exact _ast_key -> register
        self._outs = [self._node(e) for e in exprs]
        del self._memo

    def __call__(self, x0: float, order: int,
                 params: Mapping[str, complex] | None = None) -> list:
        x0 = float(x0)
        n = order + 1
        if n < 1:
            raise OrderExceeded("jet order must be >= 0")
        run = self._jet_program or self._compile_program(False)
        try:
            return run(x0, n, params or _NO_PARAMS)
        except _SINGULAR as exc:
            raise _singular(x0, exc) from exc

    def values(self, x0: complex,
               params: Mapping[str, complex] | None = None) -> Sequence:
        return self.value_program()(x0, params or _NO_PARAMS)

    def value_program(self):
        """The value program, `run(x0, params)`: the outputs at x0 as a
        tuple, or `EvaluationSingularity` naming x0.  `params` must be a
        mapping.  Compiled on first use."""
        return self._value_program or self._compile_program(True)

    def grid_values(self, xs: np.ndarray,
                    params: Mapping[str, complex] | None = None) -> np.ndarray:
        """`values` at each x of a 1-D float array, (len(xs), outputs), from
        one run of the array program: bit for bit, but for products of two
        non-real factors, which numpy may fuse.  On a failed check or a
        numpy floating-point error the value program runs x by x instead,
        so the error is the one `values` raises at the first x in order."""
        run = self._array_program or self._compile_program(True, True)
        params = params or _NO_PARAMS
        out = np.empty((len(xs), len(self._outs)), dtype=complex)
        try:
            with np.errstate(all="raise", under="ignore"):
                for j, v in enumerate(run(xs.astype(complex), params)):
                    out[:, j] = v
        except (ArithmeticError, ValueError, PhaseIntegralError):
            run = self.value_program()
            out[:] = [run(x, params) for x in xs.tolist()]
        return out

    # -- compilation -------------------------------------------------------

    def _compile_program(self, values: bool, arrays: bool = False):
        """The value, jet or array program as one function, on the tape."""
        reg, ns = self._reg, self._ns
        ns.update((f"c{i}", v) for i, v in enumerate(self._init)
                  if v is not None)
        if values:
            head, lines = "x, p", self._arrays if arrays else self._values
            out = "(" + "".join(f"{reg(i)}, " for i in self._outs) + ")"
        else:
            head, lines = "x, n, p", self._steps
            out = "[" + ", ".join(
                f"_raw(x, {reg(i)})" if self._series[i]
                else f"_raw(x, _const({reg(i)}, n))" for i in self._outs) + "]"
        body = [f"    {line}\n" for line in lines] + [f"    return {out}\n"]
        if values and not arrays:       # errors name x0 as it was given
            head = "x0, p"
            body = (["    x = complex(x0)\n", "    try:\n"]
                    + ["    " + line for line in body]
                    + ["    except _SINGULAR as exc:\n",
                       "        raise _singular(x0, exc) from exc\n"])
        source = "".join([f"def run({head}):\n"] + body)
        made: dict = {}
        exec(compile(source, "<JetTape>", "exec"),
             {**ns, **self._array_kernels} if arrays else ns, made)
        run = made["run"]
        setattr(self, "_array_program" if arrays else
                "_value_program" if values else "_jet_program", run)
        return run

    def _reg(self, i: int) -> str:
        return f"r{i}" if self._init[i] is None else f"c{i}"

    def _register(self, series: bool, value=None) -> int:
        self._init.append(value)
        self._series.append(series)
        return len(self._init) - 1

    def _append(self, value_line: str, jet_line: str) -> None:
        self._values.append(value_line)
        self._arrays.append(value_line)
        self._steps.append(jet_line)

    def _line(self, out: int, width: int, kernel, args, batched=False) -> str:
        """The line that sets registers out.. to `kernel` of `args`."""
        operands = [self._reg(a) for a in args]
        if kernel in _INLINE:
            expr = _INLINE[kernel].format(*operands)
        else:
            name = f"k{len(self._ns)}"
            self._ns[name] = kernel
            if batched:                 # a value kernel on an x operand
                self._array_kernels[name] = (_ARRAY_KERNELS.get(kernel)
                                             or _each(kernel))
            expr = f"{name}({', '.join(operands)})"
        targets = ", ".join(f"r{i}" for i in range(out, out + width))
        return f"{targets} = {expr}"

    def _emit(self, value, jet, *args, width: int = 1) -> int:
        """First of the `width` registers of one instruction on the
        registers `args`: `value` is its value kernel and `jet` its jet
        kernel, run in the jet program when an argument holds an array."""
        series = any(self._series[a] for a in args)
        out = len(self._init)
        for _ in range(width):
            self._register(series)
        if all(self._init[a] is not None for a in args):
            try:
                got = value(*[self._init[a] for a in args])
            except Exception:                # raises again at evaluation time
                pass
            else:
                self._init[out:out + width] = got if width > 1 else [got]
                return out
        self._append(self._line(out, width, value, args, series),
                     self._line(out, width, jet if series else value, args))
        if series and value in _EXACT:
            self._arrays[-1] = f"r{out} = " + _EXACT[value].format(
                *map(self._reg, args))
        return out

    def _node(self, e: Expression) -> int:
        key = _ast_key(e, exact=True)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._compile(e)
        return got

    def _compile(self, e: Expression) -> int:
        if isinstance(e, Const):
            return self._register(False, complex(e.value))
        if isinstance(e, Var):
            out = self._register(True)
            self._append(f"r{out} = x", f"r{out} = _variable(x, n)")
            return out
        if isinstance(e, Param):
            out = self._register(False)
            self._ns[f"n{out}"] = e.name
            line = f"r{out} = _param(p, n{out})"
            self._append(line, line)
            return out
        if isinstance(e, Neg):
            return self._emit(operator.neg, operator.neg, self._node(e.arg))
        if isinstance(e, Func):
            if e.name in ("sin", "cos"):
                return self._trig(e.arg) + (e.name == "cos")
            return self._emit(*_FUNC_KERNELS[e.name], self._node(e.arg))
        if isinstance(e, Pow):
            return self._pow(e)
        a, b = self._node(e.left), self._node(e.right)
        value, vv, vs, sv = _BINARY_KERNELS[type(e)]
        if self._series[a]:
            return self._emit(value, vv if self._series[b] else vs, a, b)
        return self._emit(value, sv, a, b)

    def _trig(self, arg: Expression) -> int:
        """Register of sin(arg); cos(arg) is the next one."""
        key = ("trig", _ast_key(arg, exact=True))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._emit(
                _sincos, jets.series_trig, self._node(arg), width=2)
        return got

    def _pow(self, e: Pow) -> int:
        if e.right.depends_on_x():          # b^g = exp(g ln b)
            return self._node(Func("exp", Mul(e.right, Func("ln", e.left))))
        # the exponent is checked before the base is evaluated, as in _eval
        alpha = self._emit(_real_exponent, None, self._node(e.right))
        b = self._node(e.left)
        value = _square if self._init[alpha] == 2.0 else _pow_real
        return self._emit(value, jets.series_pow, b, alpha)
