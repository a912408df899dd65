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
straight-line list of instructions that runs as a value program
(`eval_expr`) or as a jet program of coefficient recurrences
(`eval_expr_jet`).  The tree walk through `Jet` arithmetic, `_eval`, is
kept as the oracle the tape is tested against: the value program
reproduces its order-0 jet bit for bit, and the jet program its
coefficients.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import jets
from .errors import (
    BranchPointEvaluation,
    DivisionByZeroLeadCoefficient,
    EvaluationSingularity,
    ExpressionSyntaxError,
    OrderExceeded,
    UnboundParameter,
    UnknownFunction,
)
from .jets import Jet, jet_const, jet_variable, lead_is_zero, quotient

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
    return tape._run_values(x0, params)[tape._outs[0]]


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


def _ipow(b: complex, n: int) -> complex:
    # Squaring in the multiplication order of jets._compose_pow.
    out = 1 + 0j
    while n:
        if n & 1:
            out = 0j + out * b
        if n > 1:
            b = 0j + b * b
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


def _step1(fn, out: int, a: int):
    def step(r, x, n, p):
        r[out] = fn(r[a])
    return step


def _step2(fn, out: int, a: int, b: int):
    def step(r, x, n, p):
        r[out] = fn(r[a], r[b])
    return step


def _step_pair(fn, out: int, a: int):
    def step(r, x, n, p):
        r[out], r[out + 1] = fn(r[a])
    return step


class JetTape:
    """Values and jets of a list of expressions from one compiled tape.

    `tape(x0, order, params)` returns one `Jet` per expression and
    `tape.values(x0, params)` one complex value per expression; both raise
    EvaluationSingularity where `eval_expr_jet` does.  The tape holds no
    parameter values; they are read at every call.
    """

    def __init__(self, exprs):
        self._values: list = []        # the value program
        self._steps: list = []         # the jet program, step for step
        self._init: list = []          # folded constants; None: computed
        self._series: list = []        # register holds an array in jets?
        self._memo: dict = {}          # exact _ast_key -> register
        self._outs = [self._node(e) for e in exprs]
        del self._memo
        # the output registers: a tuple, or a one-item list for one expression
        i = self._outs[0]
        self._pick = operator.itemgetter(
            *self._outs if len(self._outs) > 1 else [slice(i, i + 1)])

    def __call__(self, x0: float, order: int,
                 params: Mapping[str, complex] | None = None) -> list:
        x0 = float(x0)
        n = order + 1
        if n < 1:
            raise OrderExceeded("jet order must be >= 0")
        p = params or _NO_PARAMS
        r = list(self._init)
        try:
            for step in self._steps:
                step(r, x0, n, p)
        except (DivisionByZeroLeadCoefficient, BranchPointEvaluation) as exc:
            raise EvaluationSingularity(
                f"expression singular at x = {x0}: {exc}") from exc
        series = self._series
        return [Jet._raw(x0, r[i] if series[i] else jets.series_const(r[i], n))
                for i in self._outs]

    def values(self, x0: float,
               params: Mapping[str, complex] | None = None) -> Sequence:
        return self._pick(self._run_values(x0, params))

    def _run_values(self, x0: float, params) -> list:
        """The registers after the value program has run at x0."""
        x = complex(float(x0))
        p = params or _NO_PARAMS
        r = list(self._init)
        try:
            for step in self._values:
                step(r, x, 1, p)
        except (DivisionByZeroLeadCoefficient, BranchPointEvaluation) as exc:
            raise EvaluationSingularity(
                f"expression singular at x = {x0}: {exc}") from exc
        return r

    # -- compilation -------------------------------------------------------

    def _register(self, series: bool, value=None) -> int:
        self._init.append(value)
        self._series.append(series)
        return len(self._init) - 1

    def _append(self, value_step, jet_step) -> None:
        self._values.append(value_step)
        self._steps.append(jet_step)

    def _emit(self, make, value, jet, *args, width: int = 1) -> int:
        """First of the `width` registers of one instruction on the
        registers `args`: `value` is its value kernel and `jet` its jet
        kernel, run in the jet program when an argument holds an array."""
        series = any(self._series[a] for a in args)
        out = len(self._init)
        for _ in range(width):
            self._register(series)
        step = make(value, out, *args)
        if all(self._init[a] is not None for a in args):
            r = list(self._init)
            try:
                step(r, 0j, 1, _NO_PARAMS)
            except Exception:                # raises again at evaluation time
                pass
            else:
                self._init[out:out + width] = r[out:out + width]
                return out
        self._append(step, make(jet, out, *args) if series else step)
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

            def value(r, x, n, p):
                r[out] = x

            def jet(r, x, n, p):
                r[out] = jets.series_variable(x, n)
            self._append(value, jet)
            return out
        if isinstance(e, Param):
            out, name = self._register(False), e.name

            def param(r, x, n, p):
                try:
                    r[out] = complex(p[name])
                except KeyError:
                    raise UnboundParameter(
                        f"parameter {name!r} not bound") from None
            self._append(param, param)
            return out
        if isinstance(e, Neg):
            return self._emit(_step1, operator.neg, operator.neg,
                              self._node(e.arg))
        if isinstance(e, Func):
            if e.name in ("sin", "cos"):
                return self._trig(e.arg) + (e.name == "cos")
            return self._emit(_step1, *_FUNC_KERNELS[e.name],
                              self._node(e.arg))
        if isinstance(e, Pow):
            return self._pow(e)
        a, b = self._node(e.left), self._node(e.right)
        value, vv, vs, sv = _BINARY_KERNELS[type(e)]
        if self._series[a]:
            return self._emit(_step2, value, vv if self._series[b] else vs,
                              a, b)
        return self._emit(_step2, value, sv, a, b)

    def _trig(self, arg: Expression) -> int:
        """Register of sin(arg); cos(arg) is the next one."""
        key = ("trig", _ast_key(arg, exact=True))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._emit(
                _step_pair, _sincos, jets.series_trig, self._node(arg),
                width=2)
        return got

    def _pow(self, e: Pow) -> int:
        if e.right.depends_on_x():          # b^g = exp(g ln b)
            return self._node(Func("exp", Mul(e.right, Func("ln", e.left))))
        # the exponent is checked before the base is evaluated, as in _eval
        alpha = self._emit(_step1, _real_exponent, None, self._node(e.right))
        b = self._node(e.left)
        value = _square if self._init[alpha] == 2.0 else _pow_real
        return self._emit(_step2, value, jets.series_pow, b, alpha)
