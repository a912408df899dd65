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
from functools import lru_cache

import numpy as np

from .errors import (
    BranchPointEvaluation,
    DivisionByZeroLeadCoefficient,
    InvalidInput,
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
# scaled so underflow is not mistaken for a zero.  This is the package's one
# structural-zero test (`lead_is_zero`); a NaN coefficient past the lead
# does not enter the scale.
LEAD_RTOL = 1e-13


def _mag(z: complex) -> float:
    try:
        return abs(z)
    except OverflowError:          # |z| beyond the float range: numpy's inf
        return math.inf


def _lead_zero(c: list) -> bool:
    try:
        big = max(map(abs, c))
    except OverflowError:
        big = math.inf
    return _mag(c[0]) < LEAD_RTOL * (1.0 + big)


def lead_is_zero(coeffs) -> bool:
    """The structural-zero test: is the lead coefficient below the tolerance?"""
    return _lead_zero(coeffs.tolist() if isinstance(coeffs, np.ndarray)
                      else list(coeffs))


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
        if order >= self.coeffs.size - 1:
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
        if self.coeffs.size != other.coeffs.size:
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
        return Jet._raw(self.center, series_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.center, self.coeffs / complex(other))
        self._check(other)
        return Jet._raw(self.center, series_div(self.coeffs, other.coeffs))

    def __rtruediv__(self, other):
        return jet_const(other, self.center, self.order) / self


def jet_const(value, center: float, order: int) -> Jet:
    return Jet(center, series_const(value, order + 1))


def jet_variable(center: float, order: int) -> Jet:
    """Jet of the identity function x at x0."""
    return Jet(center, series_variable(center, order + 1))


# -- coefficient kernels ------------------------------------------------
#
# Each recurrence exists once, as a kernel from coefficient arrays to a
# coefficient array; the Jet methods and functions below and the Taylor tape
# of `expressions` both call these.  Products use numpy's convolution.  The
# recurrences run on plain lists of Python complex numbers, which at jet
# orders up to about 15 is two to three times faster than a loop of numpy
# calls.  Every sum is accumulated from zero in index order and every
# quotient is numpy's scaled complex division (`_divide_by`); numpy's dot
# (BLAS, with fused multiply-adds) rounds some sums differently in the last
# bit, so a coefficient may differ from that of a numpy loop by an ulp or
# two.  The compositions follow from the defining ODE of the outer function,
# seeded with the principal value at the constant term (branch cut on the
# negative real axis).  Terms whose factor is an exact zero past the last
# nonzero coefficient of a jet (x, a*x + b and other polynomials of low
# degree) are skipped; they would add zeros.  An order-0 jet is therefore
# the value `expressions.eval_expr` computes, bit for bit.


def _divide_by(b: complex):
    """a -> a / b as numpy's scaled complex division forms it (b != 0)."""
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return lambda a: complex((a.real + a.imag * rat) * scl,
                                 (a.imag - a.real * rat) * scl)
    if bi == 0.0:                  # br is nan
        return lambda a: complex(math.nan, math.nan)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return lambda a: complex((a.real * rat + a.imag) * scl,
                             (a.imag * rat - a.real) * scl)


def quotient(a: complex, b: complex) -> complex:
    """a / b as numpy's scaled complex division forms it (b != 0)."""
    return _divide_by(b)(a)


def _top(c: list) -> int:
    """Index of the last nonzero coefficient past the lead (0 if none)."""
    m = len(c) - 1
    while m and not c[m]:
        m -= 1
    return m


def _off_branch(c: list, what: str):
    if _lead_zero(c):
        raise BranchPointEvaluation(f"{what} of a jet with (near) zero value")


def series_const(c: complex, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[0] = c
    return out


def series_variable(x: float, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    out[0] = x
    if n > 1:
        out[1] = 1.0
    return out


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a copy, so that a kept product does not hold the 2n - 1 buffer
    return np.convolve(a, b)[: a.size].copy()


@lru_cache(maxsize=None)
def _lag_index(n: int) -> np.ndarray:
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.where(lag >= 0, lag, n)      # n: the zero pad


def series_matrix(c: np.ndarray) -> np.ndarray:
    """T[..., t, s] = c[..., t - s], zero for s > t, for coefficients on the
    last axis: T @ b is the Cauchy product c b, truncated like series_mul."""
    pad = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), dtype=complex)
    pad[..., :-1] = c
    return pad.take(_lag_index(c.shape[-1]), axis=-1)


def series_contract(coefs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sum_t coefs[t] vecs[t] for (T, n) series and (T, N, n) vector series,
    orders last: one (BLAS) matrix product with the coefficients' lag-index
    Toeplitz blocks, equal to a sum of series_mul products to round-off."""
    T, n = coefs.shape
    pad = np.zeros((T, n + 1), dtype=complex)
    pad[:, :-1] = coefs
    lag = pad.take(_lag_index(n).T, axis=1)     # [t, s, p] = coefs[t, p - s]
    return (vecs.transpose(1, 0, 2).reshape(-1, T * n)
            @ lag.reshape(T * n, n))


def series_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hilbert scalar product (a, b) = sum conj(a_j) b_j of (N, n)
    vector series, at the order of b."""
    return series_contract(a[:, :b.shape[1]].conj(), b[:, None])[0]


# A number c with an array: the constant jet (c, 0, 0, ...) without the
# convolution or the copy it would cost, and with the same coefficients.

def series_scale(v: np.ndarray, c: complex) -> np.ndarray:
    # numpy's product agrees with the convolution for a real factor,
    # Python's for a complex one
    if c.imag == 0.0:
        out = v * c
    else:
        out = np.array([c * z for z in v.tolist()])
    out[0] += 0.0                      # the convolution's 0 + a*b
    return out


def series_add_lead(v: np.ndarray, c: complex) -> np.ndarray:
    out = v.copy()
    out[0] += c
    return out


def series_sub_lead(v: np.ndarray, c: complex) -> np.ndarray:
    out = v.copy()
    out[0] -= c
    return out


def series_sub_from(c: complex, v: np.ndarray) -> np.ndarray:
    out = -v
    out[0] = c - v[0]
    return out


def _quotient(a: list, b: list) -> list:
    if _lead_zero(b):
        raise DivisionByZeroLeadCoefficient(
            f"divisor jet value {b[0]} below lead tolerance")
    div, m = _divide_by(b[0]), _top(b)
    q = [div(a[0])]
    for k in range(1, len(a)):
        dot = 0j
        for j in range(max(0, k - m), k):
            dot += q[j] * b[k - j]
        q.append(div(a[k] - dot))
    return q


def series_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(_quotient(a.tolist(), b.tolist()))


def series_exp(g: np.ndarray) -> np.ndarray:
    gl = g.tolist()
    m = _top(gl)
    gp = [j * gl[j] for j in range(m + 1)]
    h = [cmath.exp(gl[0])]
    for k in range(1, len(gl)):
        dot = 0j
        for j in range(1, min(k, m) + 1):
            dot += gp[j] * h[k - j]
        h.append(dot * (1.0 / k))
    return np.array(h)


def series_trig(g: np.ndarray):
    """(sin g, cos g) from one recurrence: s' = g' c, c' = -g' s."""
    gl = g.tolist()
    m = _top(gl)
    gp = [j * gl[j] for j in range(m + 1)]
    s, c = [cmath.sin(gl[0])], [cmath.cos(gl[0])]
    for k in range(1, len(gl)):
        ds = dc = 0j
        for j in range(1, min(k, m) + 1):
            ds += gp[j] * c[k - j]
            dc += gp[j] * s[k - j]
        inv = 1.0 / k
        s.append(ds * inv)
        c.append(-dc * inv)
    return np.array(s), np.array(c)


def series_ln(g: np.ndarray) -> np.ndarray:
    """ln g as the antiderivative of g'/g, with ln(g_0) as the constant."""
    gl = g.tolist()
    _off_branch(gl, "ln")
    h = [cmath.log(gl[0])]
    if len(gl) > 1:
        dg = [k * gl[k] for k in range(1, len(gl))]
        q = _quotient(dg, gl[:-1])
        h += [v * (1.0 / (k + 1)) for k, v in enumerate(q)]
    return np.array(h)


def series_sqrt(g: np.ndarray) -> np.ndarray:
    gl = g.tolist()
    _off_branch(gl, "sqrt")
    h = [cmath.sqrt(gl[0])]
    div = _divide_by(2.0 * h[0])
    for k in range(1, len(gl)):
        dot = 0j
        for j in range(1, k):
            dot += h[j] * h[k - j]
        h.append(div(gl[k] - dot))
    return np.array(h)


def series_pow(g: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == int(alpha) and alpha >= 0:
        # Non-negative integer powers avoid the branch-point restriction.
        out = np.zeros(g.size, dtype=complex)
        out[0] = 1.0
        base, e = g, int(alpha)
        while e:
            if e & 1:
                out = series_mul(out, base)
            if e > 1:
                base = series_mul(base, base)
            e >>= 1
        return out
    gl = g.tolist()
    _off_branch(gl, "pow")
    g0, m = gl[0], _top(gl)
    h = [g0 ** alpha]
    for k in range(1, len(gl)):
        acc = 0j
        for j in range(1, min(k, m) + 1):
            acc += (j * (alpha + 1) - k) * gl[j] * h[k - j]
        h.append(_divide_by(k * g0)(acc))
    return np.array(h)


def jet_sin(g: Jet) -> Jet:
    return Jet._raw(g.center, series_trig(g.coeffs)[0])


def jet_cos(g: Jet) -> Jet:
    return Jet._raw(g.center, series_trig(g.coeffs)[1])


def jet_exp(g: Jet) -> Jet:
    return Jet._raw(g.center, series_exp(g.coeffs))


def jet_ln(g: Jet) -> Jet:
    return Jet._raw(g.center, series_ln(g.coeffs))


def jet_sqrt(g: Jet) -> Jet:
    return Jet._raw(g.center, series_sqrt(g.coeffs))


def jet_pow(g: Jet, alpha: float) -> Jet:
    return Jet._raw(g.center, series_pow(g.coeffs, alpha))


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
        raise InvalidInput(f"unknown jet operation {op!r}") from None
    return f(a, b)


def jet_elem(f: str, a: Jet, exponent: float | None = None) -> Jet:
    """Elementary composition; `f` in {exp, ln, sqrt, sin, cos, pow_real}."""
    if f == "pow_real":
        if exponent is None:
            raise InvalidInput("pow_real needs an exponent")
        return jet_pow(a, exponent)
    try:
        g = _ELEM[f]
    except KeyError:
        raise InvalidInput(f"unknown elementary function {f!r}") from None
    return g(a)


def jet_derivative(a: Jet, p: int) -> complex:
    """f^(p) at the center, i.e. p! * coeffs[p]."""
    return a.derivative(p)
