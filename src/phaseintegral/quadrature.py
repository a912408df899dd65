"""Anchored indefinite integrals for the correction recurrences.

The conserving coordinates c_m, the degenerate Kato coordinates and the
wave phase are indefinite integrals anchored at a user-chosen point
(integration constant 0 there); the Kato phase of a continuation step is
anchored at the step's start.  Their integrands are available as Taylor
jets, so :class:`JetChainIntegral` integrates them with
the two-point Hermite (Obreshkov) rule on the endpoint jets and keeps one
partial sum per rung of a fixed quarter-unit ladder, so a value depends on
x alone.

:func:`quad` (adaptive Gauss-Kronrod) and :class:`CumulativeIntegral`
integrate plain values; no path of the library calls them.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

_STEP = 0.25        # ladder spacing of JetChainIntegral
_MIN_STEP = 1e-9    # narrowest panel before JetChainIntegral gives up

# 15-point Kronrod nodes (positive half) and weights, with the embedded
# 7-point Gauss rule for the error estimate.  QUADPACK dqk15 constants.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk15(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = np.concatenate((mid - half * _XGK[:-1], [mid], mid + half * _XGK[-2::-1]))
    vals = np.array([f(t) for t in nodes], dtype=complex)
    # fold symmetric values: index 7 is the midpoint
    sym = vals[:7][::-1] + vals[8:]
    kron = half * (np.dot(_WGK[:7], sym[::-1]) + _WGK[7] * vals[7])
    gauss_syms = sym[::-1][1::2]          # Kronrod indices 1,3,5 folded
    gauss = half * (np.dot(_WG[:3], gauss_syms) + _WG[3] * vals[7])
    err = abs(kron - gauss)
    return kron, err


def quad(f: Callable[[float], complex], a: float, b: float,
         rtol: float = 1e-10, atol: float = 1e-14,
         max_depth: int = 24) -> complex:
    """Integral of f over [a, b] by adaptive bisection of GK15 panels."""
    if a == b:
        return 0.0 + 0.0j
    total, err0 = _gk15(f, a, b)
    stack = [(a, b, total, err0, 0)]
    result = 0.0 + 0.0j
    scale = abs(total)
    while stack:
        lo, hi, val, err, depth = stack.pop()
        if err <= max(atol, rtol * max(scale, abs(val))) or (hi - lo) == 0.0:
            result += val
            continue
        if depth >= max_depth:
            raise QuadratureFailure(
                f"quadrature did not converge on [{lo}, {hi}] (err={err:.3g})")
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        scale = max(scale, abs(v1 + v2))
        stack.append((lo, mid, v1, e1, depth + 1))
        stack.append((mid, hi, v2, e2, depth + 1))
    return result


@lru_cache(maxsize=None)
def _hermite_weights(n: int):
    """Weights of the two-point Hermite rule for order-n jets.

    The rule is  int_a^b f = h sum_{j<=n} A_{n,j} h^j (c_j(a) + (-1)^j c_j(b))
    on the Taylor coefficients c_j, exact for polynomials of degree 2n + 1,
    with  A_{n,j} = n! (2n+1-j)! / (2 (j+1) (2n+1)! (n-j)!).  Returns the
    weights A_n, the differences A_n - A_{n-1} that weigh the error
    estimate (A_{n-1} padded with a zero), and the signs (-1)^j.
    """
    w = np.array([factorial(n) * factorial(2 * n + 1 - j)
                  / (2 * (j + 1) * factorial(2 * n + 1) * factorial(n - j))
                  for j in range(n + 1)])
    lower = _hermite_weights(n - 1)[0] if n else np.zeros(0)
    return w, w - np.append(lower, 0.0), (-1.0) ** np.arange(n + 1)


class JetChainIntegral:
    """Cumulative integral of a function whose Taylor jets are available.

    Each panel [a, b] is integrated from its endpoint jets alone by the
    two-point Hermite (Obreshkov) rule, of order 2n + 2 for order-n jets.
    The difference from the order-(n-1) rule on the same coefficients
    estimates the error and triggers bisection, so the panel count follows
    from the tolerance.

    The rungs anchor + j/4 are marched outward from the anchor, one panel
    each (bisected as the tolerance asks); rung j keeps its partial sum and
    the largest |partial sum| from the anchor to it, the scale its next
    panel is judged against.  A first panel from the anchor, with no sum
    yet, is judged against h max(|f(a)|, |f(b)|).  Off the ladder, the
    value is rung j's sum plus one panel to x judged against rung j's
    scale, j the rung before x toward the anchor.  Besides the sums it
    keeps the integrand's jet at the outermost rung walked on each side,
    where the next march there starts, at the last off-ladder x
    (`jet_at`), and at the rung a one-rung march left or the last
    off-ladder panel started from, where the next bisected panel of an
    outward sweep starts: never one per rung.  Each is the jet a new
    evaluation would give, so a value still depends on x alone, and the
    memo on the interval walked.
    """

    def __init__(self, f_jet_at: Callable[[float], "object"], anchor: float,
                 rtol: float = 1e-11, atol: float = 1e-14):
        self.f_jet_at = f_jet_at
        self.anchor = float(anchor)
        self.rtol = rtol
        self.atol = atol
        # rung j -> (partial sum, largest |partial sum| from the anchor)
        self._rungs: dict[int, tuple] = {0: (0.0 + 0.0j, 0.0)}
        # (x, jet) of +1, -1: each side's outermost rung; 0: the last
        # off-ladder x; 2: the rung a one-rung march left or the last
        # off-ladder panel started from
        self._kept: dict[int, tuple] = {}

    def _panel(self, a: float, b: float, scale: float, fa=None,
               fb=None) -> complex:
        if fa is None:
            fa = self.f_jet_at(a)
        if fb is None:
            fb = self.f_jet_at(b)
        h = b - a
        n = min(fa.coeffs.size, fb.coeffs.size) - 1
        w, dw, signs = _hermite_weights(n)
        ca = fa.coeffs[:n + 1]
        cb = fb.coeffs[:n + 1]
        if scale == 0.0:
            # a first panel from the anchor has no partial sum to be judged
            # against; its own value may vanish with the integrand there
            scale = abs(h) * max(abs(ca[0]), abs(cb[0]))
        terms = (h ** np.arange(n + 1)) * (ca + signs * cb)
        val = h * complex(np.dot(w, terms))
        if n:
            err = abs(h * complex(np.dot(dw, terms)))
        else:   # the trapezoid, against the left-endpoint rectangle
            err = 0.5 * abs(h * (cb[0] - ca[0]))
        if err <= max(self.atol, self.rtol * max(scale, abs(val))):
            return val
        if abs(h) <= _MIN_STEP:
            raise QuadratureFailure(
                f"jet-chain panel [{a}, {b}] did not converge (err={err:.3g})")
        mid = 0.5 * (a + b)
        fm = self.f_jet_at(mid)
        return (self._panel(a, mid, scale, fa, fm)
                + self._panel(mid, b, scale, fm, fb))

    def _rung_x(self, j: int) -> float:
        return self.anchor + j * _STEP

    def _rung(self, j: int) -> tuple:
        """(partial sum, scale, jet at rung j or None) of rung j, marched
        to from the end of the walked interval on its side."""
        step = 1 if j > 0 else -1
        i = j
        while i not in self._rungs:
            i -= step
        f_i = self.jet_at(self._rung_x(i))
        if i != j and f_i is None:
            f_i = self.f_jet_at(self._rung_x(i))
        if j - i == step:                # as an outward sweep goes
            self._kept[2] = (self._rung_x(i), f_i)
        while i != j:
            acc, scale = self._rungs[i]
            a, b = self._rung_x(i), self._rung_x(i + step)
            f_a, f_i = f_i, self.f_jet_at(b)
            acc = acc + self._panel(a, b, scale, f_a, f_i)
            i += step
            self._rungs[i] = (acc, max(scale, abs(acc)))
            self._kept[step] = (b, f_i)
        return self._rungs[j] + (f_i,)

    def jet_at(self, x: float):
        """The integrand's jet at x if it is kept, else None."""
        return next((jet for at, jet in self._kept.values() if at == x), None)

    def value(self, x: float) -> complex:
        x = float(x)
        t = (x - self.anchor) / _STEP
        j = round(t)
        if self._rung_x(j) == x:
            return self._rung(j)[0]
        j = int(t)             # the rung before x, toward the anchor
        if (self._rung_x(j) - x) * t > 0:
            j -= 1 if t > 0 else -1
        acc, scale, f_j = self._rung(j)
        if f_j is None:            # a rung inside the walked interval
            f_j = self.f_jet_at(self._rung_x(j))
            self._kept[2] = (self._rung_x(j), f_j)
        f_x = self.f_jet_at(x)
        self._kept[0] = (x, f_x)
        return acc + self._panel(self._rung_x(j), x, scale, f_j, f_x)

    def __call__(self, x: float) -> complex:
        return self.value(x)


class CumulativeIntegral:
    """Indefinite integral of f with value 0 at the anchor.

    Evaluations are memoized; a new point integrates only from the nearest
    previously computed abscissa, so ordered sweeps cost one panel each.
    """

    def __init__(self, f: Callable[[float], complex], anchor: float,
                 rtol: float = 1e-10, atol: float = 1e-14):
        self.f = f
        self.anchor = float(anchor)
        self.rtol = rtol
        self.atol = atol
        self._known: dict[float, complex] = {self.anchor: 0.0 + 0.0j}
        self._keys: list[float] = [self.anchor]

    def value(self, x: float) -> complex:
        x = float(x)
        got = self._known.get(x)
        if got is not None:
            return got
        keys = np.asarray(self._keys)
        base = float(keys[np.argmin(np.abs(keys - x))])
        val = self._known[base] + quad(self.f, base, x,
                                       rtol=self.rtol, atol=self.atol)
        self._known[x] = val
        self._keys.append(x)
        return val

    def __call__(self, x: float) -> complex:
        return self.value(x)
