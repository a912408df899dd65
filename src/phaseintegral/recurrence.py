"""Per-point work of the order-m recurrence, each piece built once.

b_m (`vector.CorrectionEngine._compute_b`) needs at every level m the
lambda-power coefficients [Y^c]_t of q = +-Q Y and zeta-derivatives of the
lower orders.  None of that depends on m, so a point builds it once:
`PowerTable` by Cauchy products in the lambda index, `PointWork` for the
derivatives and the coefficients assembled from them, from the point's
x, Q, eps0 and its growing Y and s lists (each Y_m a jet, each s_m an
(N, n) array).  What it builds are coefficient arrays, multiplied and summed
as jet arithmetic would, in the same order, so the bits are the jets'.
"""

from __future__ import annotations

import numpy as np

from .jets import series_const, series_div, series_matrix, series_mul

__all__ = ["PowerTable", "PointWork"]


def _pairs(a: list, b: list, t: int, k: int) -> np.ndarray:
    """sum_{i=1}^{t-1} a[i] b[t-i] at order k, the terms coefficient arrays
    summed from zero in index order; a is b means a symmetric sum."""
    acc = np.zeros(k + 1, dtype=complex)
    if a is b:
        for i in range(1, (t + 1) // 2):
            acc = acc + np.convolve(a[i][:k + 1], a[t - i][:k + 1])[:k + 1]
        acc = acc + acc
        if t % 2 == 0 and t >= 2:
            h = a[t // 2][:k + 1]
            acc = acc + np.convolve(h, h)[:k + 1]
        return acc
    for i in range(1, t):
        acc = acc + np.convolve(a[i][:k + 1], b[t - i][:k + 1])[:k + 1]
    return acc


class PowerTable:
    """[Y^c]_t, the lambda^t coefficient of Y^c, for c = 2, 3, 4.

    Built by Cauchy products in the lambda index, P2 = Y Y, P3 = P2 Y and
    P4 = P2 P2, one t at a time as the Y_t become known.  Y_0 is the exact
    constant 1 and never enters a product, so the sums over 0 < i < t

        F2_t = sum Y_i Y_{t-i},  S3_t = sum P2_i Y_{t-i},
        S4_t = sum P2_i P2_{t-i}

    (`parts(t)`) need only Y_1 .. Y_{t-1}, and once Y_t is known

        P2_t = F2_t + 2 Y_t,  P3_t = F2_t + S3_t + 3 Y_t,
        P4_t = 2 F2_t + S4_t + 4 Y_t.

    F2_t and 2 F2_t + S4_t are [Y^2]_t and [Y^4]_t with Y_t left out.
    `Y` is the point's list of Y_t jets; entry t is a coefficient array of
    order K - t, the order of Y_t.
    """

    def __init__(self, Y: list, K: int):
        self._Y = Y                   # grows as the levels are staged
        self._K = K
        self._parts = [None]
        self._P = {c: [Y[0].coeffs] for c in (2, 3, 4)}

    def parts(self, t: int) -> tuple:
        """(F2_t, S3_t, S4_t)."""
        while len(self._parts) <= t:
            s = len(self._parts)
            k = self._K - s
            Y = [y.coeffs for y in self._Y[:s]]
            P2 = [self.power(2, i) for i in range(s)]
            self._parts.append((_pairs(Y, Y, s, k), _pairs(P2, Y, s, k),
                                _pairs(P2, P2, s, k)))
        return self._parts[t]

    def power(self, c: int, t: int) -> np.ndarray:
        """[Y^c]_t; needs Y_t."""
        P = self._P[c]
        while len(P) <= t:
            s = len(P)
            f2, s3, s4 = self.parts(s)
            free = f2 if c == 2 else f2 + s3 if c == 3 else f2 + f2 + s4
            P.append(free + self._Y[s].coeffs[:self._K - s + 1] * complex(c))
        return P[t]


class PointWork:
    """Work of one point's recurrence that no level changes, built once.

    Holds the point's power table, the zeta-derivatives of s_sigma and
    Y_a at their full order, the lambda^2-block coefficients
    T_r = sum_{a<r} Y_a Y_{r-a}' and
    U_r = eps0 [Y^2]_r + (3/4) sum Y_a' Y_{r-a}' - (1/2) sum_{a<r} Y_a Y_{r-a}''
    (primes are zeta-derivatives) at order K - r - 2.  Callers truncate;
    truncation commutes exactly with the products.  It lives only while
    `vector.CorrectionEngine._point` builds the point's levels, whose Y and
    s lists it reads as they grow.
    """

    def __init__(self, x: float, Q, eps0, Y: list, s: list, K: int):
        self.x, self.Q, self.eps0, self.Y, self.s, self.K = x, Q, eps0, Y, s, K
        self.powers = PowerTable(Y, K)
        self._over_q = None
        self._dz: dict = {}
        self._lam2: dict = {}

    def zeta(self, j: np.ndarray) -> np.ndarray:
        """d/d zeta = Q**-1 d/dx of a series or a vector series (order drops by
        one): a product with 1/Q, formed by the first call at order K - 1."""
        if self._over_q is None:
            inv = series_div(series_const(1.0, self.K), self.Q.coeffs[:self.K])
            self._over_q = series_matrix(inv).T
        n = j.shape[-1] - 1
        return (j[..., 1:] * np.arange(1, n + 1)) @ self._over_q[:n, :n]

    def dz(self, name: str, i: int, times: int) -> np.ndarray:
        """d^times/d zeta^times of Y[i] (name "Y") or of s[i] ("s")."""
        got = self._dz.get((name, i, times))
        if got is None:
            prev = ((self.Y[i].coeffs if name == "Y" else self.s[i])
                    if times == 1 else self.dz(name, i, times - 1))
            got = self._dz[(name, i, times)] = self.zeta(prev)
        return got

    def lam2(self, r: int) -> tuple:
        """(T_r, U_r)."""
        got = self._lam2.get(r)
        if got is None:
            k = self.K - r - 2
            eps0 = self.eps0.coeffs[:k + 1]
            if r == 0:
                got = (np.zeros(k + 1, dtype=complex), eps0)
            else:
                Y = [y.coeffs for y in self.Y[:r]]
                dy = [None] + [self.dz("Y", a, 1) for a in range(1, r + 1)]
                ddy = [None] + [self.dz("Y", a, 2) for a in range(1, r + 1)]
                T = dy[r][:k + 1] + _pairs(Y, dy, r, k)
                U = (series_mul(eps0, self.powers.power(2, r)[:k + 1])
                     + _pairs(dy, dy, r, k) * complex(0.75)
                     - (ddy[r][:k + 1] + _pairs(Y, ddy, r, k)) * complex(0.5))
                got = (T, U)
            self._lam2[r] = got
        return got
