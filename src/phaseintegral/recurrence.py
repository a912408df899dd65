"""Per-point tables of the order-m recurrence.

b_m (`vector.CorrectionEngine._compute_b`) needs at every level m the
lambda-power coefficients [Y^c]_t of q = +-Q Y, zeta-derivatives of the
lower orders and the lambda^2-block coefficients built from them, none of
which depends on m.  A point keeps them, with its own Y_m, s_m and b_m, in
preallocated tables that live as long as the point: one row per lambda
index, orders last.  Each row is filled once, and a sum over the lambda
index is one `_lam_sum` of a table slice with a reversed slice.  Row t is
exact to order K - t and enters a sum only truncated to the order of a
later level.
"""

from __future__ import annotations

import numpy as np

from .jets import series_const, series_div, series_matrix, series_mul

__all__ = ["PointWork"]

# columns of the scalar table
_F2, _S3, _S4, _Y, _P2, _P3, _P4, _DY, _DDY, _T, _U = range(11)
# (P2_t, P3_t, P4_t) from (F2_t, S3_t, S4_t, Y_t)
_POWERS = np.array([[1, 0, 0, 2], [1, 1, 0, 3], [2, 0, 1, 4.0]])
# (S_j, D1_j, D2_j, B_j) of `PointWork` from the columns at rows j, j - 1,
# j - 2, and b_m's coefficient of s_0 from (F2_m, S3_m, S4_m)
_AT_J, _AT_J1, _AT_J2 = np.zeros((3, 4, 11), dtype=complex)
_AT_J[0, _P2], _AT_J[0, _P4], _AT_J[3, _P2] = 0.5, -0.5, -1.0
_AT_J1[1, _P3] = 1j
_AT_J2[0, _U], _AT_J2[1, _T], _AT_J2[2, _P2] = 0.5, -0.5, 0.5
_LEAD = np.array([-0.5, 1.0, -0.5])


def _lam_sum(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """sum_i a[i, c] b[i, d] for (T, C, n) and (T, D, n) rows, each term a
    Cauchy product at order k: (C, D, k + 1) from one matrix product.  With
    b a reversed slice this is a Cauchy product in the lambda index."""
    T, C = a.shape[:2]
    D, w = b.shape[1], k + 1
    if not T:
        return np.zeros((C, D, w), dtype=complex)
    toeplitz = series_matrix(b[..., :w]).transpose(0, 3, 1, 2)
    return (a[..., :w].transpose(1, 0, 2).reshape(C, T * w)
            @ toeplitz.reshape(T * w, D * w)).reshape(C, D, w)


class PointWork:
    """The tables of one point's recurrence, each row filled once.

    [Y^c]_t is the lambda^t coefficient of Y^c, c = 2, 3, 4.  Y_0 = 1 never
    enters a product, so the sums over 0 < i < t

        F2_t = sum Y_i Y_{t-i},  S3_t = sum Y_i P2_{t-i},
        S4_t = sum P2_i P2_{t-i}    (`parts(t)`)

    need only Y_1 .. Y_{t-1}; once Y_t is known, P2_t = F2_t + 2 Y_t,
    P3_t = F2_t + S3_t + 3 Y_t and P4_t = 2 F2_t + S4_t + 4 Y_t.  With
    P_c = [Y^c] and ' = d/d zeta, b_m is, for j = m - sigma,

        b_m = sum_{sigma<m} S_j s_sigma + D1_j s_sigma' + D2_j s_sigma''
                            + B_j b_sigma,
        S_j = (P2_j - P4_j + U_{j-2}) / 2,  D1_j = i P3_{j-1} - T_{j-2} / 2,
        D2_j = P2_{j-2} / 2,                B_j = -P2_j,
        T_r = sum_{a<r} Y_a Y_{r-a}',
        U_r = eps0 P2_r + (3/4) sum Y_a' Y_{r-a}'
              - (1/2) sum_{a<r} Y_a Y_{r-a}'',

    no term with a negative index, b_0 = 0, and at sigma = 0 the coefficient
    (2 S3_m - F2_m - S4_m + U_{m-2}) / 2 in place of S_m, which leaves Y_m
    out.  `rows[t]` holds (F2, S3, S4, Y, P2, P3, P4, Y', Y'', T, U) at t,
    and `vecs[sigma]` holds (s_sigma, s_sigma', s_sigma'', b_sigma).  `Y`,
    `s` and `b` are the point's tables, views of those columns that
    `vector.CorrectionEngine` writes as it builds the point's levels; the
    scalar table has one row more, for b~ at the top level.  The matrix of
    d/d zeta is kept only until the derivatives of s_{m_max - 1}, the last
    that b_m or b~ reads, are filled.
    """

    def __init__(self, Q: np.ndarray, eps0: np.ndarray, s0: np.ndarray,
                 levels: int, K: int):
        self._Q, self.eps0, self._K = Q, eps0, K
        self.rows = np.zeros((levels + 1, 11, K + 1), dtype=complex)
        self.rows[0, _Y:_P4 + 1, 0] = 1.0           # [Y^c]_0 = Y_0 = 1
        self.vecs = np.zeros((levels, 4) + s0.shape, dtype=complex)
        self.Y, self.s, self.b = (self.rows[:levels, _Y], self.vecs[:, 0],
                                  self.vecs[:, 3])
        self.s[0] = s0
        self._zeta = None
        self._known = self._split = 1   # rows with powers, with parts
        self._vec = self._lam = 0       # rows with derivatives, with T and U

    def parts(self, t: int) -> np.ndarray:
        """(F2_t, S3_t, S4_t) as the rows of one array."""
        while self._split <= t:
            s = self._split
            self._fill(s - 1)
            rows = self.rows[:s, _Y:_P2 + 1]
            sums = _lam_sum(rows[1:], rows[:0:-1], self._K - s)
            self.rows[s, _F2:_S4 + 1, :self._K - s + 1] = sums[(0, 0, 1),
                                                               (0, 1, 1)]
            self._split += 1
        return self.rows[t, _F2:_S4 + 1, :self._K - t + 1]

    def _fill(self, t: int):
        """rows[.. t]; needs Y_t."""
        while self._known <= t:
            s = self._known
            n = self._K - s + 1
            self.parts(s)
            self.rows[s, _P2:_P4 + 1, :n] = _POWERS @ self.rows[s, _F2:_Y + 1,
                                                                :n]
            self._known += 1

    def power(self, c: int, t: int) -> np.ndarray:
        """[Y^c]_t; needs Y_t."""
        self._fill(t)
        return self.rows[t, _Y + c - 1, :self._K - t + 1]

    def terms(self, m: int, k: int, stop: int) -> tuple:
        """The (4 m, k + 1) coefficients and (4 m, N, k + 1) vectors of b_m,
        with s_sigma, s_sigma' and s_sigma'' left out from sigma = stop.
        Of row m only the parts are read: Y_m and its powers, which the
        point may already have, are not part of b_m."""
        for sigma in range(self._vec, stop):
            self._derivatives(sigma)
        lead = _LEAD @ self.parts(m)[:, :k + 1]
        for r in range(self._lam, m - 1):
            self._lam2(r)
        X = self.rows[..., :k + 1]
        coefs = _AT_J1 @ X[m - 1::-1]
        coefs[1:] += _AT_J @ X[m - 1:0:-1]
        if m >= 2:
            coefs[:m - 1] += _AT_J2 @ X[m - 2::-1]
        coefs[0, 0] += lead
        coefs[stop:, :3] = 0.0
        vecs = self.vecs[:m, ..., :k + 1]
        return coefs.reshape(-1, k + 1), vecs.reshape((-1,) + vecs.shape[2:])

    def _derivatives(self, sigma: int):
        """Y_sigma', Y_sigma'', s_sigma' and s_sigma'', from one product of
        the stacked s_sigma and Y_sigma; needs s_sigma."""
        K, N = self._K, self.s.shape[1]
        if self._zeta is None:
            # d/d zeta = Q**-1 d/dx: the first derivative's matrix, then the
            # second's
            over_q = series_div(series_const(1.0, K), self._Q[:K])
            d1 = np.zeros((K + 1, K), dtype=complex)
            d1[1:] = np.arange(1, K + 1)[:, None] * series_matrix(over_q).T
            self._zeta = np.concatenate((d1, d1 @ d1[:K, :K - 1]), axis=1)
        d = np.concatenate((self.s[sigma], self.Y[sigma][None])) @ self._zeta
        row, scalar = self.vecs[sigma], self.rows[sigma]
        row[1, :, :-1], row[2, :, :-2] = d[:N, :K], d[:N, K:]
        scalar[_DY, :-1], scalar[_DDY, :-2] = d[N, :K], d[N, K:]
        self._vec = sigma + 1
        if self._vec == len(self.vecs) - 1:
            # b_m and b~ read the derivatives of sigma < m <= m_max only:
            # with those of m_max - 1 filled, the matrix is not needed
            self._zeta = None

    def _lam2(self, r: int):
        """T_r and U_r at order K - r - 2: the three sums are one kernel
        call, (Y, Y') against (Y', Y''), as Y_0' = Y_0'' = 0."""
        k = self._K - r - 2
        sums = _lam_sum(self.rows[:r + 1, _Y:_DY + 1:_DY - _Y],
                        self.rows[r::-1, _DY:_DDY + 1], k)
        out = self.rows[r, :, :k + 1]
        out[_T] = sums[0, 0]
        out[_U] = (series_mul(self.eps0[:k + 1], self.power(2, r)[:k + 1])
                   + 0.75 * sums[1, 0] - 0.5 * sums[0, 1])
        self._lam = r + 1
