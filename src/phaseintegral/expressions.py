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
evaluation time.  Exponents must not depend on x (integer and real powers
only).

The AST doubles as the independent differentiation oracle for the jet
kernel: `diff` applies the textbook rules with constant folding only.

Values and jets are evaluated apart, each by code compiled once per AST on
first use.  `eval_expr` runs nested closures over `cmath`; `eval_expr_jet`
runs a Taylor tape (`JetTape`), a straight-line list of coefficient
recurrences.  The tree walk through `Jet` arithmetic, `_eval`, is kept as
the oracle both are tested against: the closures reproduce its order-0 jet
bit for bit, and the tape its coefficients.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from typing import Mapping

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

    # Value closure and jet tape built by `eval_expr` and `eval_expr_jet` on
    # first use: caches, kept out of pickled state and out of equality and
    # hashing.
    _value_fn = None
    _jet_fn = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_value_fn", None)
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


def _ast_key(e: Expression):
    if isinstance(e, Const):
        return ("c", e.value)
    if isinstance(e, Var):
        return ("x",)
    if isinstance(e, Param):
        return ("p", e.name)
    if isinstance(e, Neg):
        return ("neg", _ast_key(e.arg))
    if isinstance(e, Func):
        return ("f", e.name, _ast_key(e.arg))
    return (type(e).__name__, _ast_key(e.left), _ast_key(e.right))


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
# jet evaluation
# --------------------------------------------------------------------------

_COMPLEX_EXPONENT = "complex exponents are not supported"


def eval_expr_jet(e: Expression, x0: float, order: int,
                  params: Mapping[str, complex] | None = None) -> Jet:
    """Jet of the expression at x0; raises EvaluationSingularity at poles.

    Runs the one-expression tape compiled from `e` on first use.
    """
    tape = e._jet_fn
    if tape is None:
        tape = JetTape([e])
        object.__setattr__(e, "_jet_fn", tape)
    return tape(x0, order, params)[0]


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
# value evaluation: each AST lowered once into nested closures
# --------------------------------------------------------------------------
#
# A closure f(x, p) returns the value at the complex point x with parameters
# p.  It reproduces the order-0 jet of `_eval` exactly: products are formed
# as numpy's one-term convolution forms them (0 + a*b, which turns a -0.0
# into +0.0), quotients by numpy's scaled complex division (`jets.quotient`),
# and the lead tolerance, branch-point and exponent checks are those of
# `jets`, in the same evaluation order.  A subtree free of x and of
# parameters is folded to its value when that evaluates without error.

_NO_PARAMS: dict = {}


def eval_expr(e: Expression, x0: float,
              params: Mapping[str, complex] | None = None) -> complex:
    """Value of the expression at x0; raises EvaluationSingularity at poles.

    Equal to `eval_expr_jet(e, x0, 0, params).value`, computed by the value
    closure compiled from `e` on first use.
    """
    fn = e._value_fn
    if fn is None:
        fn = _lower(e)[0]
        object.__setattr__(e, "_value_fn", fn)
    try:
        return fn(complex(float(x0)), params or _NO_PARAMS)
    except (DivisionByZeroLeadCoefficient, BranchPointEvaluation) as exc:
        raise EvaluationSingularity(
            f"expression singular at x = {x0}: {exc}") from exc


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


_BINARY = {Add: operator.add, Sub: operator.sub, Div: _div}

_UNARY = {
    "exp": cmath.exp,
    "ln": lambda v: cmath.log(_off_branch(v, "ln")),
    "sqrt": lambda v: cmath.sqrt(_off_branch(v, "sqrt")),
    "sin": cmath.sin,
    "cos": cmath.cos,
}


def _lower(e: Expression):
    """(closure, folded value or None) for the subtree `e`."""
    if isinstance(e, Const):
        v = complex(e.value)
        return (lambda x, p: v), v
    if isinstance(e, Var):
        return (lambda x, p: x), None
    if isinstance(e, Param):
        name = e.name

        def param(x, p):
            try:
                return complex(p[name])
            except KeyError:
                raise UnboundParameter(
                    f"parameter {name!r} not bound") from None
        return param, None
    if isinstance(e, Neg):
        f, c = _lower(e.arg)
        return _fold((lambda x, p: -f(x, p)), c is not None)
    if isinstance(e, Func):
        f, c = _lower(e.arg)
        op = _UNARY[e.name]
        return _fold((lambda x, p: op(f(x, p))), c is not None)
    if isinstance(e, Pow):
        return _lower_pow(e)
    if not isinstance(e, (Mul, *_BINARY)):
        raise TypeError(f"cannot evaluate {e!r}")
    fl, cl = _lower(e.left)
    fr, cr = _lower(e.right)
    if isinstance(e, Mul):                # the commonest node: product inlined
        if cl is not None:
            fn = lambda x, p: 0j + cl * fr(x, p)
        elif cr is not None:
            fn = lambda x, p: 0j + fl(x, p) * cr
        else:
            fn = lambda x, p: 0j + fl(x, p) * fr(x, p)
    else:
        op = _BINARY[type(e)]
        if cl is not None:
            fn = lambda x, p: op(cl, fr(x, p))
        elif cr is not None:
            fn = lambda x, p: op(fl(x, p), cr)
        else:
            fn = lambda x, p: op(fl(x, p), fr(x, p))
    return _fold(fn, cl is not None and cr is not None)


def _lower_pow(e: Pow):
    fb, cb = _lower(e.left)
    fg, cg = _lower(e.right)
    if e.right.depends_on_x():
        def fn(x, p):                    # b^g = exp(g ln b)
            g = fg(x, p)
            return cmath.exp(0j + g * cmath.log(_off_branch(fb(x, p), "ln")))
        return fn, None
    if cg is None:
        def fn(x, p):
            g = fg(x, p)
            if g.imag != 0.0:
                raise EvaluationSingularity(_COMPLEX_EXPONENT)
            return _pow_real(fb(x, p), g.real)
        return fn, None
    if cg.imag != 0.0:
        def fn(x, p):
            raise EvaluationSingularity(_COMPLEX_EXPONENT)
        return fn, None
    alpha = cg.real
    if alpha == 2.0:                     # _ipow(b, 2) unrolled
        def fn(x, p):
            b = fb(x, p)
            return 0j + (1 + 0j) * (0j + b * b)
    else:
        fn = lambda x, p: _pow_real(fb(x, p), alpha)
    return _fold(fn, cb is not None)


def _fold(fn, constant: bool):
    if constant:
        try:
            v = fn(0j, _NO_PARAMS)
        except Exception:                # raises again at evaluation time
            return fn, None
        return (lambda x, p: v), v
    return fn, None


def constant_value(e: Expression) -> complex | None:
    """The value `e` folds to when it is free of x and of parameters and
    evaluates without error, else None."""
    if e.depends_on_x() or e.params():
        return None
    return _lower(e)[1]


# --------------------------------------------------------------------------
# jet evaluation: the Taylor tape
# --------------------------------------------------------------------------
#
# A list of ASTs is lowered once into a straight-line list of steps over
# numbered registers (Jorba & Zou's `taylor`; Griewank & Walther, Evaluating
# Derivatives, ch. 13).  A register holds a coefficient array when its
# subtree depends on x and a complex number when it does not: a subtree
# free of x is the value closure of `_lower`, folded to a constant when it
# can be.  A number enters array arithmetic as a scalar -- a lead-coefficient
# add or a scaled copy (`jets.series_scale` and its kin) -- never as a
# convolution with a constant jet.
# Subtrees with equal `_ast_key` share one register, and sin and cos of one
# argument share one `series_trig` call.  The recurrences themselves are the
# kernels of `jets`, as in the `Jet` methods, so the tape gives the tree
# walk's `_eval` coefficients (zero signs past the lead aside); the steps run
# in the walk's order, so the same error is raised first.


# (array, array), (array, number), (number, array) kernels per binary node
_BINARY_KERNELS = {
    Add: (operator.add, jets.series_add_lead,
          lambda c, v: jets.series_add_lead(v, c)),
    Sub: (operator.sub, jets.series_sub_lead, jets.series_sub_from),
    Mul: (jets.series_mul, jets.series_scale,
          lambda c, v: jets.series_scale(v, c)),
    Div: (jets.series_div,
          lambda v, c: jets.series_div(v, jets.series_const(c, v.size)),
          lambda c, v: jets.series_div(jets.series_const(c, v.size), v)),
}

_FUNC_KERNELS = {"exp": jets.series_exp, "ln": jets.series_ln,
                 "sqrt": jets.series_sqrt}


def _step1(fn, out: int, a: int):
    def step(r, x, n, p):
        r[out] = fn(r[a])
    return step


def _step2(fn, out: int, a: int, b: int):
    def step(r, x, n, p):
        r[out] = fn(r[a], r[b])
    return step


class JetTape:
    """Jets of a list of expressions from one compiled Taylor tape.

    `tape(x0, order, params)` returns one `Jet` per expression and raises
    EvaluationSingularity where `eval_expr_jet` does.  The tape holds no
    parameter values; they are read at every call.
    """

    def __init__(self, exprs):
        self._steps: list = []
        self._init: list = []          # folded constants; None: computed
        self._series: list = []        # register holds an array?
        self._memo: dict = {}          # _ast_key -> register, while compiling
        self._outs = [self._node(e) for e in exprs]
        del self._memo

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

    # -- compilation -------------------------------------------------------

    def _register(self, series: bool, value=None) -> int:
        self._init.append(value)
        self._series.append(series)
        return len(self._init) - 1

    def _emit(self, make, fn, *args) -> int:
        out = self._register(True)
        self._steps.append(make(fn, out, *args))
        return out

    def _node(self, e: Expression) -> int:
        key = _ast_key(e)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._compile(e)
        return got

    def _compile(self, e: Expression) -> int:
        if not e.depends_on_x():
            fn, value = _lower(e)
            if value is not None:
                return self._register(False, value)
            out = self._register(False)

            def number(r, x, n, p):
                r[out] = fn(0j, p)
            self._steps.append(number)
            return out
        if isinstance(e, Var):
            out = self._register(True)

            def variable(r, x, n, p):
                r[out] = jets.series_variable(x, n)
            self._steps.append(variable)
            return out
        if isinstance(e, Neg):
            return self._emit(_step1, operator.neg, self._node(e.arg))
        if isinstance(e, Func):
            if e.name in ("sin", "cos"):
                return self._trig(e.arg)[e.name == "cos"]
            return self._emit(_step1, _FUNC_KERNELS[e.name],
                              self._node(e.arg))
        if isinstance(e, Pow):
            return self._pow(e)
        a, b = self._node(e.left), self._node(e.right)
        vv, vs, sv = _BINARY_KERNELS[type(e)]
        if self._series[a]:
            return self._emit(_step2, vv if self._series[b] else vs, a, b)
        return self._emit(_step2, sv, a, b)

    def _trig(self, arg: Expression) -> tuple:
        key = ("trig", _ast_key(arg))
        got = self._memo.get(key)
        if got is None:
            a = self._node(arg)
            s, c = self._register(True), self._register(True)

            def trig(r, x, n, p):
                r[s], r[c] = jets.series_trig(r[a])
            self._steps.append(trig)
            got = self._memo[key] = (s, c)
        return got

    def _pow(self, e: Pow) -> int:
        if e.right.depends_on_x():          # b^g = exp(g ln b)
            return self._node(Func("exp", Mul(e.right, Func("ln", e.left))))
        # the exponent is checked before the base is evaluated, as in _eval
        g = self._node(e.right)
        alpha = self._init[g]
        if alpha is None or alpha.imag != 0.0:
            def check(r, x, n, p):
                if r[g].imag != 0.0:
                    raise EvaluationSingularity(_COMPLEX_EXPONENT)
            self._steps.append(check)
        b = self._node(e.left)
        if alpha is None:
            return self._emit(_step2, lambda v, a: jets.series_pow(v, a.real),
                              b, g)
        real = alpha.real
        return self._emit(_step1, lambda v: jets.series_pow(v, real), b)
