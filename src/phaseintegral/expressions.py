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

Values and jets are evaluated apart.  `eval_expr` lowers each AST once, on
first use, into nested closures over `cmath` and runs those; `eval_expr_jet`
walks the tree through `Jet` arithmetic, and at order 0 it is the oracle the
closures reproduce bit for bit.
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
    UnboundParameter,
    UnknownFunction,
)
from .jets import LEAD_RTOL, Jet, jet_const, jet_variable

__all__ = [
    "Expression", "Const", "Var", "Param", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Func", "parse_expr", "diff_expr", "eval_expr_jet", "eval_expr",
    "to_string", "FUNCTIONS",
]

FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")


class Expression:
    """Immutable AST node."""

    # Value closure built by `eval_expr` on first use: a cache, kept out of
    # pickled state and out of equality and hashing.
    _value_fn = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_value_fn", None)
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
    """Jet of the expression at x0; raises EvaluationSingularity at poles."""
    params = params or {}
    try:
        return _eval(e, x0, order, params)
    except (DivisionByZeroLeadCoefficient, BranchPointEvaluation) as exc:
        raise EvaluationSingularity(
            f"expression singular at x = {x0}: {exc}") from exc


def _eval(e: Expression, x0: float, order: int, params) -> Jet:
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
# into +0.0), quotients by numpy's scaled complex division, and the lead
# tolerance, branch-point and exponent checks are those of `jets`, in the
# same evaluation order.  A subtree free of x and of parameters is folded to
# its value when that evaluates without error.

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


def _near_zero(v: complex) -> bool:
    # The jets' lead tolerance for a one-coefficient jet.
    try:
        m = abs(v)
    except OverflowError:          # |v| beyond the float range: numpy's inf
        return False
    return m < LEAD_RTOL * (1.0 + m)


def _div(a: complex, b: complex) -> complex:
    if _near_zero(b):
        raise DivisionByZeroLeadCoefficient(
            f"divisor jet value {b} below lead tolerance")
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl,
                       (a.imag - a.real * rat) * scl)
    if bi == 0.0:                  # br is nan
        return complex(cmath.nan, cmath.nan)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl,
                   (a.imag * rat - a.real) * scl)


def _off_branch(v: complex, what: str) -> complex:
    if _near_zero(v):
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
