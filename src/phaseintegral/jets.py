"""Truncated Taylor series (jets) over complex scalars.

A jet stores the coefficients c_p = f^(p)(x0)/p! of a function at a real
expansion point x0, truncated at a fixed order.  All derivative bookkeeping
in the recurrence machinery runs through this type: multiplying, dividing
and composing jets propagates exact derivatives without finite differencing.

Coefficients are complex even for real problems; reality is a property
asserted by tests, not by the type.  Orders are never resized implicitly --
callers truncate explicitly where recurrences shed derivatives.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    BranchPointEvaluation,
    DivisionByZeroLeadCoefficient,
    MismatchedJets,
    OrderExceeded,
)

__all__ = [
    "Jet",
    "jet_const",
    "jet_variable",
    "jet_arith",
    "jet_elem",
    "jet_derivative",
]


# Structural-zero threshold: a divisor or a branch-point argument whose lead
# coefficient is below LEAD_RTOL * (1 + max |coefficient|) counts as zero;
# scaled so underflow is not mistaken for a zero.
LEAD_RTOL = 1e-13


def _lead_tol(coeffs) -> float:
    big = float(np.max(np.abs(coeffs))) if len(coeffs) else 0.0
    return LEAD_RTOL * (1.0 + big)


class Jet:
    """Taylor coefficients of one analytic function at one real point."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center: float, coeffs):
        self.center = float(center)
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise MismatchedJets("coefficient array must be 1-d and non-empty")
        self.coeffs = c

    @classmethod
    def _raw(cls, center: float, coeffs: np.ndarray) -> "Jet":
        # trusted fast path: coeffs must already be a 1-d complex array
        out = object.__new__(cls)
        out.center = center
        out.coeffs = coeffs
        return out

    # -- basic descriptors ----------------------------------------------

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> complex:
        return complex(self.coeffs[0])

    def __repr__(self):
        return f"Jet(x0={self.center:g}, coeffs={np.array2string(self.coeffs, precision=6)})"

    def copy(self) -> "Jet":
        return Jet(self.center, self.coeffs.copy())

    def truncated(self, order: int) -> "Jet":
        """Shed coefficients above `order` (never extends)."""
        if order < 0:
            raise OrderExceeded("truncation order must be >= 0")
        if order >= self.order:
            return self
        return Jet._raw(self.center, self.coeffs[: order + 1])

    def conj(self) -> "Jet":
        # Valid as "jet of the conjugated function" only along the real axis.
        return Jet._raw(self.center, np.conj(self.coeffs))

    def real(self) -> "Jet":
        return Jet._raw(self.center, (self.coeffs + np.conj(self.coeffs)) / 2.0)

    def imag(self) -> "Jet":
        return Jet._raw(self.center, (self.coeffs - np.conj(self.coeffs)) / 2.0j)

    # -- calculus ---------------------------------------------------------

    def derivative(self, p: int = 1) -> complex:
        """p-th derivative value at the center: p! * coeffs[p]."""
        if p < 0 or p > self.order:
            raise OrderExceeded(f"derivative order {p} exceeds jet order {self.order}")
        return complex(self.coeffs[p]) * math.factorial(p)

    def diff(self) -> "Jet":
        """Jet of f' (order drops by one)."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        k = np.arange(1, self.coeffs.size)
        return Jet._raw(self.center, self.coeffs[1:] * k)

    def antiderivative(self, constant: complex = 0.0) -> "Jet":
        """Jet of the antiderivative with given value at the center (order +1)."""
        k = np.arange(1, self.order + 2)
        out = np.empty(self.order + 2, dtype=complex)
        out[0] = constant
        out[1:] = self.coeffs / k
        return Jet._raw(self.center, out)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Jet"):
        # two NaN centres are the same point, as they are for eval_expr
        if self.center != other.center and not (
                self.center != self.center and other.center != other.center):
            raise MismatchedJets(
                f"jet centers differ: {self.center} vs {other.center}")
        if self.order != other.order:
            raise MismatchedJets(
                f"jet orders differ: {self.order} vs {other.order}")

    def _coerce(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return other
        return jet_const(other, self.center, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet._raw(self.center, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet._raw(self.center, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        return Jet._raw(self.center, other.coeffs - self.coeffs)

    def __neg__(self):
        return Jet._raw(self.center, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._raw(self.center, self.coeffs * complex(other))
        self._check(other)
        n = self.coeffs.size
        out = np.convolve(self.coeffs, other.coeffs)[:n]
        return Jet._raw(self.center, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.center, self.coeffs / complex(other))
        self._check(other)
        b = other.coeffs
        if abs(b[0]) < _lead_tol(b):
            raise DivisionByZeroLeadCoefficient(
                f"divisor jet value {b[0]} below lead tolerance")
        n = self.coeffs.size
        out = np.zeros(n, dtype=complex)
        for k in range(n):
            acc = self.coeffs[k]
            if k:
                acc = acc - np.dot(out[:k], b[k:0:-1])
            out[k] = acc / b[0]
        return Jet._raw(self.center, out)

    def __rtruediv__(self, other):
        return jet_const(other, self.center, self.order) / self


def jet_const(value, center: float, order: int) -> Jet:
    c = np.zeros(order + 1, dtype=complex)
    c[0] = value
    return Jet(center, c)


def jet_variable(center: float, order: int) -> Jet:
    """Jet of the identity function x at x0."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = center
    if order >= 1:
        c[1] = 1.0
    return Jet(center, c)


# -- elementary function composition ------------------------------------
#
# All compositions use the standard convolution recurrences obtained from
# the defining ODE of the outer function, seeded with the principal value
# at the inner jet's constant term.  Branch cut on the negative real axis.


def _compose_exp(g: Jet) -> Jet:
    n = g.order + 1
    h = np.zeros(n, dtype=complex)
    h[0] = cmath.exp(g.value)
    for k in range(1, n):
        j = np.arange(1, k + 1)
        h[k] = np.dot(j * g.coeffs[1: k + 1], h[k - 1:: -1][: k]) / k
    return Jet(g.center, h)


def _require_off_branch(g: Jet, what: str):
    if abs(g.coeffs[0]) < _lead_tol(g.coeffs):
        raise BranchPointEvaluation(f"{what} of a jet with (near) zero value")


def _compose_ln(g: Jet) -> Jet:
    _require_off_branch(g, "ln")
    # (ln g)' = g'/g, integrated with ln(g0) as the constant.
    if g.order == 0:
        return Jet(g.center, [cmath.log(g.value)])
    return (g.diff() / g.truncated(g.order - 1)).antiderivative(cmath.log(g.value))


def _compose_sqrt(g: Jet) -> Jet:
    _require_off_branch(g, "sqrt")
    n = g.order + 1
    h = np.zeros(n, dtype=complex)
    h[0] = cmath.sqrt(g.value)
    for k in range(1, n):
        acc = g.coeffs[k]
        if k > 1:
            acc = acc - np.dot(h[1:k], h[k - 1: 0: -1])
        h[k] = acc / (2.0 * h[0])
    return Jet(g.center, h)


def _compose_pow(g: Jet, alpha: float) -> Jet:
    if alpha == int(alpha) and alpha >= 0:
        # Non-negative integer powers avoid the branch-point restriction.
        out = jet_const(1.0, g.center, g.order)
        base, e = g, int(alpha)
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out
    _require_off_branch(g, "pow")
    n = g.order + 1
    h = np.zeros(n, dtype=complex)
    h[0] = g.value ** alpha
    g0 = g.value
    for k in range(1, n):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += (j * (alpha + 1) - k) * g.coeffs[j] * h[k - j]
        h[k] = acc / (k * g0)
    return Jet(g.center, h)


def _compose_trig(g: Jet):
    n = g.order + 1
    s = np.zeros(n, dtype=complex)
    c = np.zeros(n, dtype=complex)
    s[0] = cmath.sin(g.value)
    c[0] = cmath.cos(g.value)
    for k in range(1, n):
        j = np.arange(1, k + 1)
        gp = j * g.coeffs[1: k + 1]
        s[k] = np.dot(gp, c[k - 1:: -1][: k]) / k
        c[k] = -np.dot(gp, s[k - 1:: -1][: k]) / k
    return Jet(g.center, s), Jet(g.center, c)


def jet_sin(g: Jet) -> Jet:
    return _compose_trig(g)[0]


def jet_cos(g: Jet) -> Jet:
    return _compose_trig(g)[1]


def jet_exp(g: Jet) -> Jet:
    return _compose_exp(g)


def jet_ln(g: Jet) -> Jet:
    return _compose_ln(g)


def jet_sqrt(g: Jet) -> Jet:
    return _compose_sqrt(g)


def jet_pow(g: Jet, alpha: float) -> Jet:
    return _compose_pow(g, alpha)


# -- spec-level operation wrappers ----------------------------------------

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}

_ELEM = {
    "exp": jet_exp,
    "ln": jet_ln,
    "sqrt": jet_sqrt,
    "sin": jet_sin,
    "cos": jet_cos,
}


def jet_arith(op: str, a: Jet, b: Jet) -> Jet:
    """Binary jet arithmetic; `op` in {add, sub, mul, div}."""
    try:
        f = _ARITH[op]
    except KeyError:
        raise ValueError(f"unknown jet operation {op!r}") from None
    return f(a, b)


def jet_elem(f: str, a: Jet, exponent: float | None = None) -> Jet:
    """Elementary composition; `f` in {exp, ln, sqrt, sin, cos, pow_real}."""
    if f == "pow_real":
        if exponent is None:
            raise ValueError("pow_real needs an exponent")
        return jet_pow(a, exponent)
    try:
        g = _ELEM[f]
    except KeyError:
        raise ValueError(f"unknown elementary function {f!r}") from None
    return g(a)


def jet_derivative(a: Jet, p: int) -> complex:
    """f^(p) at the center, i.e. p! * coeffs[p]."""
    return a.derivative(p)
