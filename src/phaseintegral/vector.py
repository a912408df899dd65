"""Order-by-order phase integral corrections for coupled systems.

The ansatz u(x) = s(x) q(x)**-1/2 exp(i/lambda int q dx) with
q = +-Q(x) Y(x), Y = sum Y_m lambda**m, s = sum s_m lambda**m turns the
system u'' + (lambda**-2 G + a I) u = 0 into one relation per order m:

    Y_m s0 - (G - Q**2 I) . s_m / (2 Q**2) = b_m

where b_m collects products of lower-order corrections and their
derivatives with respect to the phase variable zeta (d zeta = Q dx).
The reduced resolvent S of the branch (`spectral.BranchField`), with
S (G - Q**2) = I - P, gives the complement component (I - P) s_m =
-2 Q**2 S b_m, and P (G - Q**2) = 0 gives P b_m = Y_m s0.  The
eigenvector-parallel coordinate is fixed by the variant:

  fulling_current       (e1, s_m) chosen so the generalized current is
                        conserved order by order; hermitian G, Kato gauge.
  wronskian_conserving  same with alternating signs, conserving the
                        generalized Wronskian of the u+/u- pair.
  simplified_hermitian  (e1, s_m) = 0; no integrations at all when d = 1.
  non_hermitian         (s0, s_m) = 0 with arbitrary eigenvector gauge;
                        works for any matrix, Y_1 generally nonzero.

Even-order corrections are invariant under Q -> -Q, odd orders flip sign;
closed-form comparisons are quoted in the upper sign convention
(Q = |Q| for positive eigenvalues, Q = -i |Q| for negative ones).

The engine keeps each point's corrections as tables with one row per order
m, orders last: Y_m a row, each vector s_m an (N, n) row.  Y, s and b are
columns of the point's `recurrence.PointWork`, built with the point and
kept as long as it.  `CorrectionSet` holds them as `Jet`s, tuples of N for
a vector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ApplicabilityWarning,
    CompatibilityViolation,
    GaugeNotFixed,
    InvalidInput,
    NonPositiveYWarning,
    TurningPoint,
    TurningPointOnGrid,
    UnsupportedDegeneracy,
)
from .jets import (
    Jet, jet_exp, jet_pow, row_jets, series_const, series_contract,
    series_div, series_inner, series_matrix, series_mul,
)
from .problem import ReducedProblem, check_lambda
from .quadrature import JetChainIntegral
from .recurrence import PointWork
from .spectral import BranchField, EigenBranch
from .verify import Wave, WaveSample

__all__ = [
    "VARIANTS", "CorrectionSet", "CorrectionEngine", "vector_corrections",
    "p_coefficients", "assemble_vector_wave",
]

VARIANTS = ("fulling_current", "wronskian_conserving",
            "simplified_hermitian", "non_hermitian")
_HERMITIAN_VARIANTS = ("fulling_current", "wronskian_conserving",
                       "simplified_hermitian")
_CONSERVING = ("fulling_current", "wronskian_conserving")


@dataclass
class CorrectionSet:
    """All corrections at one point, each carried as a jet."""

    x0: float
    m_max: int
    variant: str
    Qsq: Jet
    Q: Jet
    eps0: Jet
    Y: list                    # Y[m] jets; Y[0] = 1
    s: list                    # s[m], tuples of jets; s[0] = s0
    s_perp: list               # perpendicular parts (s_perp[0] = 0)
    c_perp: list               # N = 2: s_perp = c_perp e2, formed by `at`
                               # (None otherwise, and at m = 0)
    c_par: list                # (e1, s_m) jets; c_par[0] = None
    b: list                    # b[m] tuples of jets; b[0] = None

    @property
    def n(self) -> int:
        return len(self.s[0])

    def Y_values(self) -> list:
        return [j.value for j in self.Y]


@dataclass(slots=True)
class _Point:
    """One point of an engine: branch snapshot, the recurrence's tables,
    then one table row per level (orders last, row m exact to order K - m)
    in Y, s_perp and b (staged) and in s and c_par (finished)."""

    x: float
    branch: EigenBranch        # Q**2, Q, eps0, s0, S, basis, ... to order K
    perp: np.ndarray           # -2 Q^2 S, matrix coefficients
    work: PointWork            # the recurrence's tables
    Y: np.ndarray              # (levels, K + 1), work.Y
    s: np.ndarray              # (levels, N, K + 1), work.s
    s_perp: np.ndarray
    b: np.ndarray              # work.b
    c_par: np.ndarray          # (levels, K + 1)
    staged: int = 1            # levels with Y, s_perp and b
    finished: int = 1          # levels with s and c_par too
    # while `CorrectionEngine._point` extends the point:
    # `CorrectionEngine._solver`'s matrix
    solve: np.ndarray | None = None
    # 1/(s0, s0), once a level is built
    over_norm0: np.ndarray | None = None


# -- vector jets: (N, n) coefficient arrays, orders last ---------------------

def _diff(vec: np.ndarray) -> np.ndarray:
    """d/dx of each component (order drops by one)."""
    return vec[:, 1:] * np.arange(1, vec.shape[1])


def _dots(terms: list, k: int) -> np.ndarray:
    """sum w (u, v) over the (w, u, v) of `terms`, w real: one contraction."""
    if not terms:
        return np.zeros(k + 1, dtype=complex)
    return series_inner(
        np.concatenate([w * u[:, :k + 1] for w, u, _ in terms]),
        np.concatenate([v[:, :k + 1] for _, _, v in terms]))


def _times(c: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The vector series c vec at the order of c."""
    return series_contract(c[None], vec[None, :, :c.size])


class CorrectionEngine:
    """Evaluates the correction hierarchy of one branch at arbitrary x.

    Cumulative integrals (parallel coordinates, degenerate coordinates,
    wave phase) all take the value 0 at `anchor`.  Point data is memoized,
    so grids and quadrature nodes share work.

    Internally every order-m quantity is carried as a jet of order
    K - m with K = max(2 m_max + 2, 6); each recurrence level consumes at
    most two derivatives, leaving order >= 2 at the top for wave assembly.
    The floor of 6 keeps the phase and c_par integrands of m_max 0 and 1
    at jet order >= 4, whose panels span the integrals' quarter-unit
    ladder with few bisections.
    """

    def __init__(self, prob: ReducedProblem, branch: BranchField,
                 variant: str, m_max: int, anchor: float | None = None):
        if variant not in VARIANTS:
            raise InvalidInput(f"unknown variant {variant!r}")
        if m_max < 0:
            raise InvalidInput("m_max must be >= 0")
        hint = prob.hermitian_hint
        if variant in _HERMITIAN_VARIANTS and hint not in (
                "real_symmetric", "hermitian"):
            raise GaugeNotFixed(
                f"{variant} requires a hermitian matrix (hint={hint!r})")
        if variant in _CONSERVING:
            kato_ok = branch.gauge == "kato" or (
                branch.gauge == "normalized" and hint == "real_symmetric")
            if not kato_ok:
                raise GaugeNotFixed(
                    f"{variant} requires the Kato gauge; got "
                    f"gauge={branch.gauge!r} with hint={hint!r}")
        self.prob = prob
        self.field = branch
        self.variant = variant
        self.m_max = int(m_max)
        self.anchor = float(anchor if anchor is not None else branch.anchor)
        self.K = max(2 * self.m_max + 2, 6)
        self.sgn = +1.0 if variant == "fulling_current" else -1.0
        self._points: dict[float, _Point] = {}
        # (m, i) -> anchored integral of coordinate i of s_m: along s0 for
        # i = 0, along basis vector i of a degenerate cluster for i >= 1
        self._coords: dict[tuple, JetChainIntegral] = {}
        # the continued basis at the anchor has d vectors, and its
        # eigen-solve raises what a crossing there raises (or a G equal to
        # c(x) I only through identities) before a point is built
        d = len(branch.basis_jets(self.anchor, 0))
        # past that check d = N means G = c(x) I by its expressions, where
        # the conserving variants' s0 is constant and S = 0: every s_m and
        # c_par vanishes
        self._conserving = variant in _CONSERVING and d < prob.n
        # a cluster short of the whole space has its own basis and Kato
        # coordinates; the whole space (P = I) is the scalar theory
        if 1 < d < prob.n:
            if hint != "real_symmetric":
                raise UnsupportedDegeneracy(
                    "degenerate eigenvalues are only supported for real "
                    "symmetric matrices")
            if variant == "non_hermitian":
                raise UnsupportedDegeneracy(
                    "the non-hermitian theory requires a non-degenerate "
                    "eigenvalue")

    # ------------------------------------------------------------------
    # point construction
    # ------------------------------------------------------------------

    def at(self, x: float) -> CorrectionSet:
        """The corrections at x; the point's table rows become jets here."""
        pt = self._point(float(x), self.m_max)
        x, K, mm = pt.x, self.K, self.m_max + 1

        def jets(table, first=0):
            # views of a copy: the set does not keep the point's work alive
            make, table = row_jets if table.ndim == 3 else Jet._raw, table.copy()
            return [None] * first + [make(x, table[m, ..., :K - m + 1])
                                     for m in range(first, mm)]
        c_perp = [None] * mm
        if self.prob.n == 2 and mm > 1:
            # s_perp = c_perp e2 with e2 = (-conj s0_2, conj s0_1): every
            # level in one contraction
            s0 = pt.s[0]
            reads_e2 = _times(pt.over_norm0, np.stack((-s0[1], s0[0])))
            c_perp = jets(series_contract(
                reads_e2, pt.s_perp.transpose(1, 0, 2)), 1)
        return CorrectionSet(
            x0=x, m_max=self.m_max, variant=self.variant,
            Qsq=Jet._raw(x, pt.branch.Qsq), Q=Jet._raw(x, pt.branch.Q),
            eps0=Jet._raw(x, pt.branch.eps0), Y=jets(pt.Y), s=jets(pt.s),
            s_perp=jets(pt.s_perp), c_perp=c_perp, c_par=jets(pt.c_par, 1),
            b=jets(pt.b, 1))

    def _point(self, x: float, m: int, staged: bool = False) -> _Point:
        """The point at x with levels 0..m assembled; `staged` stops level
        m after Y_m (no parallel part), which is all an integrand needs."""
        pt = self._points.get(x)
        if pt is None:
            pt = self._points[x] = self._base_point(x)
        if (pt.staged if staged else pt.finished) <= m:
            for level in range(pt.finished, m + 1):
                self._stage(pt, level)
                if level < m or not staged:
                    self._finish_level(pt, level)
            pt.solve = None
        return pt

    def _base_point(self, x: float) -> _Point:
        K = self.K
        br = self.field.branch(x, K)
        if br.Q is None:
            raise TurningPoint(f"Q**2 vanishes at x = {x}")
        perp = np.einsum("ts,ijs->tij",                 # -2 Q^2 S
                         series_matrix(-2.0 * br.Qsq), br.S)
        # a degenerate cluster (real symmetric) runs on its unit basis
        s0 = br.s0 if br.basis is None else br.basis[0]
        levels = self.m_max + 1
        work = PointWork(br.Q, br.eps0, s0, levels, K)
        return _Point(x, br, perp, work,
                      Y=work.Y, s=work.s, b=work.b,
                      s_perp=np.zeros((levels,) + s0.shape, dtype=complex),
                      c_par=np.zeros((levels, K + 1), dtype=complex))

    def _stage(self, pt: _Point, m: int):
        """Compute b_m, s_m_perp and Y_m (everything except P s_m)."""
        if pt.staged > m:
            return   # already staged by an integrand evaluation
        if pt.solve is None:
            pt.solve = self._solver(pt)
        k = self.K - m
        N = pt.s.shape[1]
        pt.b[m, :, :k + 1] = self._compute_b(pt, m, k)
        # rows t <= k of the solve against all of b_m (zero beyond k)
        out = (pt.solve[:k + 1].reshape((k + 1) * (N + 1), -1)
               @ pt.b[m].ravel()).reshape(k + 1, N + 1).T
        pt.s_perp[m, :, :k + 1] = out[:N]
        pt.Y[m, :k + 1] = out[N]
        pt.staged = m + 1

    def _finish_level(self, pt: _Point, m: int):
        k = self.K - m
        coefs, vecs = [], []
        if self._conserving:
            pt.c_par[m, :k + 1] = (self._anchored(pt, m, 0, k)
                                   + self._cpar_boundary(pt, m, k))
            coefs.append(pt.c_par[m, :k + 1])
            vecs.append(pt.s[0, :, :k + 1])
        basis = pt.branch.basis
        if basis is not None:
            for i in range(1, len(basis)):
                coefs.append(self._anchored(pt, m, i, k))
                vecs.append(basis[i][:, :k + 1])
        pt.s[m, :, :k + 1] = pt.s_perp[m, :, :k + 1]
        if coefs:
            pt.s[m, :, :k + 1] += series_contract(np.array(coefs),
                                                  np.stack(vecs))
        pt.finished = m + 1

    # ------------------------------------------------------------------
    # b_m : driving vector of the order-m relation
    # ------------------------------------------------------------------

    def _compute_b(self, pt: _Point, m: int, k: int,
                   stop: int | None = None) -> np.ndarray:
        """b_m at order k: one contraction of the terms the point's
        `recurrence.PointWork` slices from its tables.

        The s_sigma sum ends before sigma = `stop` (default m).
        b~_{m+1} = _compute_b(pt, m + 1, k, stop=m) is the part of b_{m+1}
        independent of s_m: b_{m+1} - b~_{m+1} = i s_m' - Y_1 s_m, so
        i s_m' in the Kato gauge, where Y_1 = 0.
        """
        return series_contract(*pt.work.terms(m, k,
                                              m if stop is None else stop))

    # ------------------------------------------------------------------
    # complement solve and Y_m
    # ------------------------------------------------------------------

    def _solver(self, pt: _Point) -> np.ndarray:
        """[t, i, j, q], the coefficient of b_m[j, q] in s_m_perp[i, t]
        (i < N) and in Y_m[t] (i = N), block Toeplitz in (t, q), so its
        rows and columns to order k give both at order k.

        s_perp = -2 Q^2 S b_m, and P b_m = Y_m s0 is read off with the left
        eigenvector l = P^H s0 (s0 itself for a degenerate cluster's unit
        basis): Y_m = (l, b_m) / (s0, s0).  The non-hermitian theory
        subtracts s0 (s0, s_perp) / (s0, s0), which makes (s0, s_m) = 0 (P
        may be oblique there)."""
        s0, (N, n) = pt.s[0], pt.s.shape[1:]
        left = pt.branch.left if pt.branch.basis is None else s0
        if pt.over_norm0 is None:         # one series quotient per point
            pt.over_norm0 = series_div(series_const(1.0, n),
                                       series_inner(s0, s0))
        solve = np.empty((n, N + 1, N, n), dtype=complex)
        solve[:, :N] = series_matrix(
            pt.perp.transpose(1, 2, 0)).transpose(2, 0, 1, 3)
        solve[:, N] = series_matrix(
            _times(pt.over_norm0, left.conj())).transpose(1, 0, 2)
        if self.variant == "non_hermitian":
            # [i, t, i'] = (s0_i conj(s0_i') / (s0, s0))_t, then its
            # Toeplitz blocks [(t, i), (t', i')]
            along = series_matrix(s0) @ _times(pt.over_norm0, s0.conj()).T
            along = series_matrix(along.transpose(0, 2, 1)).transpose(
                2, 0, 3, 1).reshape(n * N, n * N)
            perp = solve[:, :N].reshape(n * N, N * n)
            solve[:, :N] -= (along @ perp).reshape(n, N, N, n)
        return solve

    # ------------------------------------------------------------------
    # the parallel coordinate
    # ------------------------------------------------------------------

    def _anchored(self, pt: _Point, m: int, i: int, k: int) -> np.ndarray:
        """Coordinate i of s_m at order k from its anchored integral (i = 0:
        c_par less its boundary term; i >= 1: on cluster basis vector i)."""
        cum = self._coords.get((m, i))
        if cum is None:
            kf = max(self.K - m - 1, 0)
            # the degenerate coordinates feed a 1e-6 compatibility check; a
            # looser tolerance bounds their bisection where the cluster's
            # plane turns, since there the basis jets are not the
            # derivatives of the continued basis values
            tol = {} if i == 0 else {"rtol": 1e-9, "atol": 1e-12}
            cum = self._coords[(m, i)] = JetChainIntegral(
                lambda t: self._integrand(self._point(t, m, staged=True),
                                          m, i, kf),
                self.anchor, **tol)
        value = cum.value(pt.x)
        f_jet = cum.jet_at(pt.x)        # kept if the value ended at x
        if f_jet is None:
            f_jet = self._integrand(pt, m, i, max(k - 1, 0))
        return f_jet.antiderivative(value).coeffs[:k + 1]

    def _integrand(self, pt: _Point, m: int, i: int, k: int) -> Jet:
        return Jet._raw(pt.x, self._cpar_f(pt, m, k) if i == 0
                        else self._coord_f(pt, m, i, k))

    def _cpar_weights(self, m: int) -> list:
        """(a, sgn**a) for 0 < a <= m/2, the weight halved at a = m/2."""
        return [(a, self.sgn ** a * (0.5 if 2 * a == m else 1.0))
                for a in range(1, m // 2 + 1)]

    def _cpar_f(self, pt: _Point, m: int, k: int) -> np.ndarray:
        """Integrand of the conserving-coordinate integral."""
        s = pt.s
        terms = [(1.0, _diff(s[0]), pt.s_perp[m])]
        for a, w in self._cpar_weights(m):
            terms.append((-w, s[m - a], _diff(s[a])) if m % 2 == 0
                         else (w, _diff(s[a]), s[m - a]))
        inner = _dots(terms, k)
        if m % 2 == 0 or self.variant == "fulling_current":
            return inner - inner.conj()             # 2i Im
        return inner + inner.conj()                 # 2 Re

    def _cpar_boundary(self, pt: _Point, m: int, k: int) -> np.ndarray:
        s = pt.s
        return _dots([(-w, s[a], s[m - a])
                      for a, w in self._cpar_weights(m)], k)

    # ------------------------------------------------------------------
    # degenerate-subspace coordinates (real symmetric, 1 < d < N); the
    # basis comes from BranchField.branch
    # ------------------------------------------------------------------

    def _coord_f(self, pt: _Point, m: int, i: int, k: int) -> np.ndarray:
        """(e_i, i Q b~_{m+1} - d/dx s_m_perp), the Kato-coordinate
        integrand of basis vector e_i."""
        btilde = self._compute_b(pt, m + 1, k, stop=m)
        inner = (_times(1.0j * pt.branch.Q[:k + 1], btilde)
                 - _diff(pt.s_perp[m])[:, :k + 1])
        return series_inner(pt.branch.basis[i], inner)

    def compatibility_residual(self, x: float, m: int) -> float:
        """Residual of the order-(m+1) constraint for k > 1 (1 < d < N
        only)."""
        pt = self._point(float(x), m)
        basis = pt.branch.basis
        if basis is None:
            return 0.0
        btilde = self._compute_b(pt, m + 1, 0, stop=m)
        inner = _diff(pt.s[m])[:, :1] - 1.0j * complex(pt.branch.Q[0]) * btilde
        return max(abs(series_inner(e_k, inner)[0]) for e_k in basis[1:])

    # ------------------------------------------------------------------
    # applicability monitor
    # ------------------------------------------------------------------

    def applicability_warnings(self, corr: CorrectionSet, lam: float) -> list:
        msgs = []
        for m in range(1, corr.m_max + 1):
            for tag, jet in (("Y", corr.Y[m]), ("c_perp", corr.c_perp[m]),
                             ("c_par", corr.c_par[m])):
                if jet is None:
                    continue
                size = abs(jet.value) * lam ** m
                if size >= 1.0:
                    msgs.append(f"order {m}: |{tag}_{m}| lambda^{m} = "
                                f"{size:.3g} >= 1")
        for msg in msgs:
            warnings.warn(msg, ApplicabilityWarning, stacklevel=3)
        return msgs


# --------------------------------------------------------------------------
# spec-level operations
# --------------------------------------------------------------------------

def vector_corrections(prob: ReducedProblem, branch: BranchField,
                       variant: str, m_max: int, anchor: float,
                       x0: float) -> CorrectionSet:
    """Full correction set of one branch at x0 (with degeneracy self-check)."""
    engine = CorrectionEngine(prob, branch, variant, m_max, anchor)
    corr = engine.at(x0)
    if variant in _HERMITIAN_VARIANTS and m_max >= 1:
        res = engine.compatibility_residual(x0, m_max)
        if res > 1e-6:
            raise CompatibilityViolation(
                f"order-(m+1) compatibility residual {res:.3g} at x={x0}")
    return corr


def p_coefficients(corr: CorrectionSet, Qsq: Jet | None = None) -> list:
    """p_m = Q^2 sum_{a<=m} Y_a Y_{m-a} (momentum-squared expansion)."""
    qsq = (Qsq if Qsq is not None else corr.Qsq).value
    Y = corr.Y_values()
    return [qsq * sum(Y[a] * Y[m - a] for a in range(m + 1))
            for m in range(len(Y))]


def assemble_vector_wave(engine: CorrectionEngine, sign: int,
                         grid: Sequence[float], anchor: float | None = None,
                         lam: float | None = None) -> Wave:
    """The pair member u(+-) sampled on a grid, with an exact jet evaluator.

    Real normal forms are used when Q**2 is real (oscillatory for
    Q**2 > 0, real exponential for Q**2 < 0); otherwise the general
    complex form.  Derivative samples come from the same jets as the
    values, never from finite differences.
    """
    lam = engine.prob.lam if lam is None else check_lambda(float(lam))
    anchor = engine.anchor if anchor is None else float(anchor)
    grid = [float(x) for x in grid]
    if not grid:
        raise InvalidInput("assemble_vector_wave needs a grid point")
    sign = +1 if sign >= 0 else -1
    m_max = engine.m_max

    qsq0 = engine.field.qsq_value(grid[0])
    real_case = abs(qsq0.imag) <= 1e-10 * abs(qsq0)
    positive = real_case and qsq0.real > 0
    warned_y: list = []
    kq = engine.K - m_max

    weights = np.array([(sign * lam) ** m for m in range(m_max + 1)],
                       dtype=complex)

    def normal_form(pt: _Point, k: int) -> tuple:
        """(Y, momentum) at order k, Y as coefficients: |Q| Y when Q**2 is
        real (|Q| is Q or i Q, whichever has a positive real part), +-Q Y
        otherwise."""
        y = weights @ pt.Y[:, :k + 1]
        q = pt.branch.Q[:k + 1]
        if real_case:
            q = q if positive else q * 1j
            q = -q if q[0].real < 0.0 else q
        else:
            q = q * complex(sign)
        return y, Jet._raw(pt.x, series_mul(q, y))

    def qbar_jet(t: float) -> Jet:
        # staged data is enough here: Y_m never needs the parallel part
        try:
            pt = engine._point(t, m_max, staged=True)
        except TurningPoint as exc:
            raise TurningPointOnGrid(
                f"turning point reached near x = {t}") from exc
        if real_case and (pt.branch.Qsq[0].real > 0) != positive:
            raise TurningPointOnGrid(f"Q**2 changes sign at x = {t}")
        y, qbar = normal_form(pt, kq)
        if real_case and y[0].real <= 0.0 and not warned_y:
            warned_y.append(t)
            warnings.warn(
                f"Re Y{'+' if sign > 0 else '-'} <= 0 at x = {t}",
                NonPositiveYWarning, stacklevel=2)
        return qbar * (1.0 / lam)

    cum = JetChainIntegral(qbar_jet, anchor)

    def jets_at(x: float):
        pt = engine._point(x, m_max)
        k = 2                   # the order Wave.jet_at promises
        _, qbar = normal_form(pt, k)
        svec = np.tensordot(weights, pt.s[:, :, :k + 1], 1)
        phase0 = cum.value(x)
        phi = (qbar * (1.0 / lam)).antiderivative(phase0).truncated(k)
        amp = jet_pow(qbar, -0.5)
        if real_case:
            osc = jet_exp((1j if positive else 1.0) * sign * phi)
            ph = complex(sign) * (phase0 if positive else -1j * phase0)
        else:
            osc, ph = jet_exp(1j * phi), phase0
        return _times((amp * osc).coeffs, svec), ph

    samples = []
    for x in grid:
        u, ph = jets_at(x)
        samples.append(WaveSample(x, u[:, 0].copy(), u[:, 1].copy(), ph))
    return Wave(samples, lambda x: row_jets(x, jets_at(x)[0]), lam, sign)
