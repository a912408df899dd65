"""Eigenvalue branches Q**2(x), eigenvectors s0(x) and gauges, as jets.

For 2x2 systems everything is closed form: the characteristic equation is
quadratic, Q**2 = (G11 + G22 -/+ sqrt(D))/2 with the discriminant
D = (G11 - G22)**2 + 4 G12 G21, and the eigenvector follows from one row
of G - Q**2 I.  Branches are identified by the rank of the eigenvalue in
a crossing-free interval, so the square-root sign is re-derived at every
point instead of being carried around.

For N > 2 branches are tracked numerically and jets come from
finite-difference polynomial fits with Richardson combination; accuracy is
then limited well below closed-form level for the top derivative orders.

Gauges:
  raw(g)     eigenvector g(x) * {1, (Q^2 - G11)/G12} (row-swapped analogue
             when G12 is the smaller off-diagonal entry);
  normalized unit eigenvector with sign/phase continued from the anchor;
  kato       normalized with (e1, e1') = 0; equal to `normalized` for real
             eigenvectors, otherwise fixed by the phase integral
             theta1 = i * int (e~, e~') dx.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BranchSwapDetected,
    CrossingPoint,
    DegenerateComplexGauge,
    DegenerateParameterization,
    GramSchmidtBreakdown,
    InsufficientJetOrder,
    TurningPoint,
    UnsupportedDegeneracy,
    ZeroAtEvaluationPoint,
)
from .expressions import Const, Expression, constant_value, eval_expr_jet
from .jets import Jet, jet_const, jet_exp, jet_sqrt, lead_is_zero, quotient
from .problem import ReducedProblem
from .quadrature import JetChainIntegral

__all__ = [
    "EigenBranch", "ComplementBasis", "BranchField",
    "eigen_n2_closed_form", "eigen_track", "kato_gauge", "complement_basis",
    "schwartzian", "epsilon0",
]

_NUMERIC_MAX_ORDER = 6
_ALIGN_STEP = 0.1


@dataclass
class EigenBranch:
    """Point snapshot of a tracked branch (all derivative data as jets)."""

    x0: float
    Qsq: Jet
    s0: tuple                 # tuple of Jet, length N
    degeneracy: int
    gauge: str                # "raw" | "normalized" | "kato"
    branch_id: int
    gauge_g: Optional[Expression] = None

    @property
    def n(self) -> int:
        return len(self.s0)

    def s0_values(self) -> np.ndarray:
        return np.array([v.value for v in self.s0], dtype=complex)

    def eigen_residual(self, G_value: np.ndarray) -> float:
        v = self.s0_values()
        r = G_value @ v - self.Qsq.value * v
        return float(np.linalg.norm(r))


@dataclass
class ComplementBasis:
    """Orthonormal basis of the complement of the eigenspace, as jets."""

    vectors: tuple            # (N - d) tuples of N jets


def _crossing_guard(delta_val: complex, g_val: np.ndarray) -> bool:
    scale = 1.0 + float(np.sum(np.abs(g_val) ** 2))
    return abs(delta_val) < 1e-8 * scale


def schwartzian(qsq: Jet) -> complex:
    """S_x[q] from the jet of q**2 (single-valued form)."""
    if qsq.order < 2:
        raise InsufficientJetOrder("schwartzian needs a jet of order >= 2")
    if lead_is_zero(qsq.coeffs):
        raise ZeroAtEvaluationPoint("q**2 vanishes at the evaluation point")
    return _schwartzian_jet(qsq).value


def _schwartzian_jet(qsq: Jet) -> Jet:
    """Jet of S_x[q] = (5/16) ((q^2)'/q^2)^2 - (1/4) (q^2)''/q^2."""
    k = qsq.order - 2
    g = qsq.truncated(k)
    gp = qsq.diff().truncated(k)
    gpp = qsq.diff().diff().truncated(k)
    ratio = gp / g
    return (5.0 / 16.0) * (ratio * ratio) - (1.0 / 4.0) * (gpp / g)


def _eps0(qsq: Jet, a_of: Callable[[], Jet], x0: float, order: int) -> Jet:
    """Jet of (S_x[Q] + a) / Q**2; `qsq` has order >= order + 2."""
    if lead_is_zero(qsq.coeffs):
        raise TurningPoint(f"Q**2 vanishes at x = {x0}")
    s = _schwartzian_jet(qsq.truncated(order + 2))
    return (s + a_of()) / qsq.truncated(order)


def epsilon0(branch: EigenBranch, a: Expression, x0: float, order: int,
             params=None) -> Jet:
    """Jet of eps0 = (S_x[Q] + a) / Q**2 for a branch snapshot."""
    qsq = branch.Qsq
    if qsq.order < order + 2:
        raise InsufficientJetOrder(
            f"need Qsq jet of order {order + 2}, have {qsq.order}")
    return _eps0(qsq, lambda: eval_expr_jet(a, x0, order, params or {}),
                 x0, order)


# --------------------------------------------------------------------------
# branch field
# --------------------------------------------------------------------------

class BranchField:
    """Continuous access to one eigenvalue branch of G(x).

    `rank` orders eigenvalues ascending by real part (then imaginary part)
    in a crossing-free interval.  `q_sign` selects the overall sign of
    Q = sqrt(Q**2) used by the double-valued odd-order machinery; +1 is
    the convention closed-form results are quoted in (Q = |Q| for positive
    eigenvalues, Q = -i|Q| for negative ones).
    """

    def __init__(self, prob: ReducedProblem, rank: int,
                 gauge: str = "normalized", gauge_g: Expression | None = None,
                 anchor: float | None = None, q_sign: int = +1):
        if rank < 0 or rank >= prob.n:
            raise ValueError(f"rank {rank} out of range for N={prob.n}")
        if gauge not in ("raw", "normalized", "kato"):
            raise ValueError(f"unknown gauge {gauge!r}")
        self.prob = prob
        self.n = prob.n
        self.rank = rank
        self.gauge = gauge
        self.gauge_g = gauge_g if gauge_g is not None else Const(1.0)
        self.anchor = float(anchor if anchor is not None
                            else 0.5 * (prob.domain[0] + prob.domain[1]))
        self.q_sign = int(q_sign)
        self._real_vectors = prob.hermitian_hint == "real_symmetric"
        self._signs: dict[int, complex] = {}
        self._theta1: JetChainIntegral | None = None
        self._patch: str | None = None   # complex-case fixed parameterization
        self._siblings: dict[int, "BranchField"] = {}
        self._scalar_matrix = _is_scalar_matrix(prob.G)
        self._gjets: dict = {}
        self._gvals: dict = {}
        self._qvals: dict = {}
        self._units: dict = {}
        if gauge == "kato" and not self._real_vectors:
            self._theta1 = JetChainIntegral(self._theta1_jet, self.anchor)

    # -- caches (points are revisited constantly by the quadratures) -------

    def _g_jet(self, x: float, order: int):
        got = self._gjets.get((x, order))
        if got is None:
            if order == 0:          # the values are the order-0 jets
                g, c = self._g_value(x), float(x)
                got = [[Jet._raw(c, g[i, j:j + 1]) for j in range(self.n)]
                       for i in range(self.n)]
            else:
                got = self.prob.G_jet(x, order)
            self._gjets[(x, order)] = got
        return got

    def _g_value(self, x: float) -> np.ndarray:
        got = self._gvals.get(x)
        if got is None:
            got = self.prob.G_value(x)
            self._gvals[x] = got
        return got

    # -- eigenvalue -------------------------------------------------------

    def _ranked_values(self, x: float) -> np.ndarray:
        g = self._g_value(x)
        if self.n == 1:
            return np.array([g[0, 0]])
        vals = np.linalg.eigvals(g)
        return vals[np.lexsort((vals.imag, vals.real))]

    def qsq_value(self, x: float) -> complex:
        got = self._qvals.get(x)
        if got is None:
            got = complex(self._ranked_values(x)[self.rank])
            self._qvals[x] = got
        return got

    def qsq_jet(self, x: float, order: int) -> Jet:
        if self.n == 1:
            return self._g_jet(x, order)[0][0]
        if self.full_degeneracy_region(x):
            # G = Q^2 I on a neighborhood: every branch is trace/N
            g = self._g_jet(x, order)
            tr = g[0][0]
            for j in range(1, self.n):
                tr = tr + g[j][j]
            return tr * (1.0 / self.n)
        if self.n == 2:
            if order == 0:
                return Jet._raw(float(x), np.array([self._qsq_n2_value(x)]))
            tr, delta = self._n2_parts(x, order)
            root = self._matched_root(x, tr, delta)
            return (tr + root) * 0.5
        return self._numeric_jets(x, order)[0]

    def full_degeneracy_region(self, x: float) -> bool:
        """True if all eigenvalues coincide on a neighborhood of x.

        Distinguishes the trivial d = N case (scalar reduction applies)
        from an isolated crossing, where evaluation must be refused.  It is
        decided once, from G's AST (see `_is_scalar_matrix`), so it holds
        on the whole domain or nowhere.
        """
        return self._scalar_matrix

    def _n2_parts(self, x: float, order: int):
        g = self._g_jet(x, order)
        tr = g[0][0] + g[1][1]
        diff = g[0][0] - g[1][1]
        delta = diff * diff + 4.0 * (g[0][1] * g[1][0])
        self._guard_crossing(x, delta.value)
        return tr, delta

    def _guard_crossing(self, x: float, delta: complex):
        if _crossing_guard(delta, self._g_value(x)):
            raise CrossingPoint(
                f"eigenvalues cross within guard radius at x = {x}")

    def _root_matches(self, x: float, tr: complex, root: complex) -> bool:
        """Does (tr + root)/2, rather than (tr - root)/2, land on this branch?"""
        target = self.qsq_value(x)
        plus = 0.5 * (tr + root)
        minus = 0.5 * (tr - root)
        return abs(plus - target) <= abs(minus - target)

    def _matched_root(self, x: float, tr: Jet, delta: Jet) -> Jet:
        """Signed sqrt(Delta) jet whose value lands on this branch."""
        root = jet_sqrt(delta)
        return root if self._root_matches(x, tr.value, root.value) else -root

    def _qsq_n2_value(self, x: float) -> complex:
        """Order 0 of `qsq_jet` for N = 2, on plain complex numbers."""
        (g00, g01), (g10, g11) = self._g_value(x).tolist()
        tr = g00 + g11
        diff = g00 - g11
        delta = diff * diff + 4.0 * (g01 * g10)
        self._guard_crossing(x, delta)
        root = cmath.sqrt(delta)
        if not self._root_matches(x, tr, root):
            root = -root
        return (tr + root) * 0.5

    # -- Q = sqrt(Q^2), upper-sign convention -------------------------------

    def q_jet(self, x: float, order: int) -> Jet:
        qsq = self.qsq_jet(x, order)
        if lead_is_zero(qsq.coeffs):
            raise TurningPoint(f"Q**2 vanishes at x = {x}")
        val = qsq.value
        if abs(val.imag) <= 1e-12 * abs(val):
            if val.real > 0:
                q = jet_sqrt(qsq)              # +|Q|
            else:
                q = -1j * jet_sqrt(-qsq)       # -i |Q|
        else:
            q = jet_sqrt(qsq)                  # principal branch
        return q if self.q_sign > 0 else -q

    def eps0_jet(self, x: float, order: int) -> Jet:
        return _eps0(self.qsq_jet(x, order + 2),
                     lambda: self.prob.a_jet(x, order), x, order)

    # -- eigenvector --------------------------------------------------------

    def s0_jets(self, x: float, order: int) -> tuple:
        if self.n == 1:
            g = eval_expr_jet(self.gauge_g, x, order, self.prob.params) \
                if self.gauge == "raw" else jet_const(1.0, x, order)
            return (g,)
        if self.full_degeneracy_region(x):
            # any unit vector is an eigenvector; use the coordinate axis
            return tuple(jet_const(1.0 if j == self.rank else 0.0, x, order)
                         for j in range(self.n))
        if self.n == 2:
            return self._s0_n2(x, order)
        if self.degeneracy(x) > 1:
            raise UnsupportedDegeneracy(
                "eigenvector jets inside a degenerate cluster must come from "
                "the correction engine's subspace basis")
        unit = self._numeric_jets(x, order)[1]
        if self.gauge == "raw":
            g = eval_expr_jet(self.gauge_g, x, order, self.prob.params)
            return tuple(g * c for c in unit)
        if self.gauge == "kato" and self._theta1 is not None:
            return self._apply_kato_phase(x, unit)
        return unit

    def _s0_n2(self, x: float, order: int) -> tuple:
        if self.gauge == "raw":
            return self._s0_raw(x, order)
        unit = self._pre_kato_unit(x, order)
        if self.gauge == "kato" and self._theta1 is not None:
            unit = self._apply_kato_phase(x, unit)
        return unit

    def _s0_raw(self, x: float, order: int) -> tuple:
        g = self._g_jet(x, order)
        qsq = self.qsq_jet(x, order)
        g12, g21 = g[0][1], g[1][0]
        scale = 1.0 + max(abs(g12.value), abs(g21.value))
        gg = eval_expr_jet(self.gauge_g, x, order, self.prob.params)
        if abs(g12.value) >= abs(g21.value) and abs(g12.value) > 1e-13 * scale:
            w = (qsq - g[0][0]) / g12
            return (gg, gg * w)
        if abs(g21.value) > 1e-13 * scale:
            w = (qsq - g[1][1]) / g21
            return (gg * w, gg)
        if abs(g[0][0].value - g[1][1].value) > 1e-13 * scale:
            raise DegenerateParameterization(
                f"both off-diagonal entries vanish at x = {x}")
        raise CrossingPoint(f"G is fully degenerate at x = {x}")

    def _candidate(self, x: float, g, qsq: Jet) -> tuple:
        """Unnormalized eigenvector from the better-conditioned row."""
        va = (g[0][1], qsq - g[0][0])
        vb = (qsq - g[1][1], g[1][0])
        return va if self._use_row_a(x, _norm2(va[0].value, va[1].value),
                                     _norm2(vb[0].value, vb[1].value)) else vb

    def _candidate_value(self, x: float) -> tuple:
        """`_candidate` at order 0, on plain complex numbers."""
        va, vb = self._rows_value(x)
        return va if self._use_row_a(x, _norm2(*va), _norm2(*vb)) else vb

    def _rows_value(self, x: float) -> tuple:
        (g00, g01), (g10, g11) = self._g_value(x).tolist()
        q = self._qsq_n2_value(x)
        return (g01, q - g00), (q - g11, g10)

    def _use_row_a(self, x: float, na: float, nb: float) -> bool:
        """Row a, (G12, Q^2 - G11), over row b, given their squared norms."""
        if self._real_vectors:
            return na >= nb
        # Complex case: a per-point switch would kink the phase, so the
        # parameterization is pinned once, at the anchor.
        if self._patch is None:
            if x == self.anchor:
                self._patch = "a" if na >= nb else "b"
            else:
                va, vb = self._rows_value(self.anchor)
                self._patch = "a" if _norm2(*va) >= _norm2(*vb) else "b"
        nv = na if self._patch == "a" else nb
        if nv < 1e-20 * (1.0 + na + nb):
            raise GramSchmidtBreakdown(
                f"pinned eigenvector parameterization degenerates at x = {x}; "
                "evaluate on a subinterval anchored away from this point")
        return self._patch == "a"

    # -- sign / phase continuation -----------------------------------------

    def _unit_value(self, x: float) -> np.ndarray:
        got = self._units.get(x)
        if got is not None:
            return got
        if self.n == 2:
            arr = np.array(self._candidate_value(x), dtype=complex)
            out = arr / np.linalg.norm(arr)
        else:
            _, vec, _ = self._numeric_pair(x)
            lead = vec[np.argmax(np.abs(vec))]
            out = vec * _unit_phase(np.conj(lead), real=self._real_vectors)
        self._units[x] = out
        return out

    def _alignment(self, x: float, unit_value: np.ndarray) -> complex:
        """Continuation phase (+-1 for real vectors) from the anchor to x."""
        k = int(math.floor(abs(x - self.anchor) / _ALIGN_STEP + 1e-12))
        sgn = 1.0 if x >= self.anchor else -1.0
        phase = self._path_sign(k, sgn)
        ref = self._unit_value(self.anchor + sgn * k * _ALIGN_STEP)
        ip = np.vdot(phase * ref, unit_value)
        if abs(ip) < 1e-12:
            raise GramSchmidtBreakdown(
                f"cannot align eigenvector continuation at x = {x}")
        return _unit_phase(ip, real=self._real_vectors)

    def _path_sign(self, k: int, sgn: float) -> complex:
        key = int(k * sgn)
        got = self._signs.get(key)
        if got is not None:
            return got
        if 0 not in self._signs:
            v = self._unit_value(self.anchor)
            lead = v[np.argmax(np.abs(v))]
            self._signs[0] = _unit_phase(np.conj(lead), real=self._real_vectors)
        # walk outward from the largest cached step on this side
        have = max((abs(j) for j in self._signs
                    if j == 0 or (j > 0) == (sgn > 0)), default=0)
        prev = self._unit_value(self.anchor + sgn * have * _ALIGN_STEP)
        phase = self._signs[int(have * sgn)]
        for j in range(have + 1, k + 1):
            cur = self._unit_value(self.anchor + sgn * j * _ALIGN_STEP)
            ip = np.vdot(phase * prev, cur)
            phase = _unit_phase(ip, real=self._real_vectors)
            self._signs[int(j * sgn)] = phase
            prev = cur
        return self._signs[key]

    # -- Kato phase for complex non-degenerate vectors ----------------------

    def _pre_kato_unit(self, x: float, order: int) -> tuple:
        if order == 0:          # the same steps on plain complex numbers
            v0, v1 = self._candidate_value(x)
            inv = quotient(1.0, cmath.sqrt(v0.conjugate() * v0
                                           + v1.conjugate() * v1))
            unit = (v0 * inv, v1 * inv)
            phase = self._alignment(x, np.array(unit))
            return tuple(Jet._raw(float(x), np.array([u * phase]))
                         for u in unit)
        g = self._g_jet(x, order)
        qsq = self.qsq_jet(x, order)
        v = self._candidate(x, g, qsq)
        norm_sq = v[0].conj() * v[0] + v[1].conj() * v[1]
        inv = 1.0 / jet_sqrt(norm_sq)
        unit = (v[0] * inv, v[1] * inv)
        phase = self._alignment(x, np.array([unit[0].value, unit[1].value]))
        return (unit[0] * phase, unit[1] * phase)

    def _theta1_jet(self, t: float):
        e = self._pre_kato_unit(t, 5)
        ip = e[0].conj().truncated(4) * e[0].diff()
        for c in e[1:]:
            ip = ip + c.conj().truncated(4) * c.diff()
        return 1j * ip        # real by orthonormality

    def _apply_kato_phase(self, x: float, unit) -> tuple:
        order = unit[0].order
        theta0 = self._theta1.value(x)
        if order == 0:
            w = cmath.exp(1j * theta0)
            return tuple(c * w for c in unit)
        ips = sum(c.conj().truncated(order - 1) * c.diff() for c in unit)
        theta_jet = (1j * ips).antiderivative(theta0)
        factor = jet_exp(1j * theta_jet)
        return tuple(c * factor for c in unit)

    # -- numeric backend (N > 2) --------------------------------------------

    def _numeric_pair(self, x: float):
        g = self._g_value(x)
        herm = self.prob.hermitian_hint in ("real_symmetric", "hermitian")
        if herm:
            vals, vecs = np.linalg.eigh(g)
            order_idx = np.argsort(vals)
        else:
            vals, vecs = np.linalg.eig(g)
            order_idx = np.lexsort((vals.imag, vals.real))
        idx = order_idx[self.rank]
        val = complex(vals[idx])
        # gap to eigenvalues outside the degenerate cluster of this branch
        tol = math.sqrt(1e-8 * (1.0 + float(np.sum(np.abs(g) ** 2))))
        outside = [vals[j] for j in order_idx
                   if j != idx and abs(vals[j] - val) > tol]
        cluster = sum(1 for j in order_idx if abs(vals[j] - val) <= tol)
        gap = min((abs(v - val) for v in outside), default=np.inf)
        if gap ** 2 < 1e-8 * (1.0 + float(np.sum(np.abs(g) ** 2))):
            raise CrossingPoint(f"eigenvalue gap too small at x = {x}")
        if cluster > 1:
            raise UnsupportedDegeneracy(
                "single eigenvector requested inside a degenerate cluster; "
                "use the correction engine's subspace machinery")
        others = np.delete(order_idx, self.rank)
        vec = vecs[:, idx]
        comp = [np.asarray(vecs[:, j], dtype=complex) for j in others]
        return val, np.asarray(vec / np.linalg.norm(vec), dtype=complex), comp

    def _aligned_vec(self, x: float, ref: np.ndarray):
        val, vec, _ = self._numeric_pair(x)
        ip = np.vdot(ref, vec)
        if abs(ip) < 1e-10:
            raise BranchSwapDetected(
                f"branch continuation ambiguous at x = {x}")
        return val, vec * _unit_phase(ip, real=self._real_vectors)

    def _numeric_qsq_degenerate(self, x: float, order: int) -> Jet:
        # stencil fit of the cluster-mean eigenvalue (smooth through the
        # degenerate subspace even when member ordering fluctuates)
        h = 1e-3 * (1.0 + abs(x))

        def cluster_val(t):
            g = self._g_value(t)
            vals = np.sort(np.linalg.eigvalsh(g.real)
                           if self._real_vectors else
                           np.linalg.eigvals(g).real)
            mine = vals[self.rank]
            tol = math.sqrt(1e-8 * (1.0 + float(np.sum(np.abs(g) ** 2))))
            members = [v for v in vals if abs(v - mine) <= tol]
            return sum(members) / len(members)

        if order == 0:
            return Jet(x, [cluster_val(x)])
        pts = 2 * order + 1
        offs = (np.arange(pts) - order).astype(float)
        v = np.vander(offs, pts, increasing=True)
        qs1 = np.array([cluster_val(x + j * h) for j in offs])
        qs2 = np.array([cluster_val(x + j * h / 2) for j in offs])
        c1 = np.linalg.solve(v, qs1) / h ** np.arange(pts)
        c2 = np.linalg.solve(v, qs2) / (h / 2) ** np.arange(pts)
        out = np.empty(order + 1, dtype=complex)
        for p in range(order + 1):
            w = 2.0 ** (pts - p)
            out[p] = (w * c2[p] - c1[p]) / (w - 1.0)
        return Jet(x, out)

    def _numeric_jets(self, x: float, order: int):
        if order > _NUMERIC_MAX_ORDER:
            raise InsufficientJetOrder(
                f"numeric branch jets capped at order {_NUMERIC_MAX_ORDER} "
                f"for N > 2 (requested {order})")
        if self.degeneracy(x) > 1:
            return self._numeric_qsq_degenerate(x, order), None
        ref = self._unit_value(x) * self._alignment(x, self._unit_value(x))
        h = 1e-3 * (1.0 + abs(x))
        if order == 0:
            qsq = Jet(x, [self.qsq_value(x)])
            return qsq, tuple(Jet(x, [c]) for c in ref)

        def sample(step):
            pts = 2 * order + 1
            offs = np.arange(pts) - order
            qs = np.empty(pts, dtype=complex)
            vs = np.empty((pts, self.n), dtype=complex)
            for i, j in enumerate(offs):
                val, vec = self._aligned_vec(x + j * step, ref)
                qs[i] = val
                vs[i] = vec
            return offs.astype(float), qs, vs

        def fit(taus, ys, step):
            v = np.vander(taus, len(taus), increasing=True)
            coef = np.linalg.solve(v, ys)
            scale = step ** np.arange(len(taus))
            return coef / (scale[:, None] if ys.ndim == 2 else scale)

        t1, q1, v1 = sample(h)
        t2, q2, v2 = sample(h / 2)
        cq1, cq2 = fit(t1, q1, h), fit(t2, q2, h / 2)
        cv1, cv2 = fit(t1, v1, h), fit(t2, v2, h / 2)
        acc = 2 * order + 1
        qc = np.empty(order + 1, dtype=complex)
        vc = np.empty((order + 1, self.n), dtype=complex)
        for p in range(order + 1):
            w = 2.0 ** (acc - p)
            qc[p] = (w * cq2[p] - cq1[p]) / (w - 1.0)
            vc[p] = (w * cv2[p] - cv1[p]) / (w - 1.0)
        qsq = Jet(x, qc)
        s0 = tuple(Jet(x, vc[:, j]) for j in range(self.n))
        return qsq, s0

    # -- public assembly ------------------------------------------------------

    def degeneracy(self, x: float) -> int:
        if self.n == 1:
            return 1
        vals = self._ranked_values(x)
        mine = vals[self.rank]
        g = self._g_value(x)
        tol = math.sqrt(1e-8 * (1.0 + float(np.sum(np.abs(g) ** 2))))
        return int(np.sum(np.abs(vals - mine) <= tol))

    def branch(self, x: float, order: int) -> EigenBranch:
        qsq = self.qsq_jet(x, order)
        s0 = self.s0_jets(x, order)
        return EigenBranch(x, qsq, s0, self.degeneracy(x), self.gauge,
                           self.rank, self.gauge_g if self.gauge == "raw" else None)

    def complement_jets(self, x: float, order: int) -> tuple:
        """Orthonormal-complement vectors (N=2 closed form, N>2 numeric)."""
        if self.n == 1:
            return ()
        if self.n == 2:
            s0 = self.s0_jets(x, order)
            return ((-s0[1].conj(), s0[0].conj()),)
        if self.prob.hermitian_hint not in ("real_symmetric", "hermitian"):
            raise GramSchmidtBreakdown(
                "numeric complement bases require a hermitian matrix")
        vecs = []
        for r in range(self.n):
            if r == self.rank:
                continue
            sib = self._siblings.get(r)
            if sib is None:
                sib = BranchField(self.prob, r, "normalized", None,
                                  self.anchor, self.q_sign)
                self._siblings[r] = sib
            vecs.append(sib.s0_jets(x, order))
        return tuple(vecs)


def _is_scalar_matrix(G) -> bool:
    """G = c(x) I by its AST: every off-diagonal entry folds to the
    constant 0 and every diagonal entry equals G[0][0] as an AST.  A G that
    equals c(x) I only through identities is not recognized."""
    n = len(G)
    if n == 1:
        return False
    return all(G[i][i] == G[0][0] for i in range(n)) and all(
        constant_value(G[i][j]) == 0 for i in range(n) for j in range(n)
        if i != j)


def _norm2(a: complex, b: complex) -> float:
    return abs(a) ** 2 + abs(b) ** 2


def _unit_phase(z: complex, real: bool) -> complex:
    if real:
        return 1.0 if z.real >= 0 else -1.0
    a = abs(z)
    if a == 0.0:
        return 1.0
    return complex(np.conj(z) / a)


# --------------------------------------------------------------------------
# spec-level operations
# --------------------------------------------------------------------------

def eigen_n2_closed_form(prob: ReducedProblem, x0: float, order: int,
                         sign: int = +1, gauge_g: Expression | None = None,
                         anchor: float | None = None) -> EigenBranch:
    """Closed-form branch for N = 2; `sign`=+1 picks (tr - sqrt(D))/2."""
    if prob.n != 2:
        raise ValueError("eigen_n2_closed_form requires N = 2")
    g = prob.G_value(x0)
    tr = g[0, 0] + g[1, 1]
    delta = (g[0, 0] - g[1, 1]) ** 2 + 4.0 * g[0, 1] * g[1, 0]
    if _crossing_guard(delta, g):
        raise CrossingPoint(f"discriminant within guard radius at x = {x0}")
    root = np.sqrt(delta)
    target = 0.5 * (tr - root) if sign > 0 else 0.5 * (tr + root)
    vals = np.linalg.eigvals(g)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    rank = int(np.argmin(np.abs(vals - target)))
    gauge = "raw" if gauge_g is not None else "normalized"
    field = BranchField(prob, rank, gauge, gauge_g,
                        anchor if anchor is not None else x0)
    return field.branch(x0, order)


def eigen_track(prob: ReducedProblem, grid: Sequence[float], rank: int,
                order: int, gauge: str = "normalized",
                gauge_g: Expression | None = None) -> list:
    """Branch snapshots along a strictly increasing grid."""
    grid = [float(x) for x in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    field = BranchField(prob, rank, gauge, gauge_g, anchor=grid[0])
    return [field.branch(x, order) for x in grid]


def kato_gauge(field: BranchField, anchor: float) -> BranchField:
    """Kato-gauged copy of a branch field (theta1 accumulated from anchor)."""
    if field.gauge == "kato" and field.anchor == anchor:
        return field
    d = field.degeneracy(anchor)
    if d > 1 and not field._real_vectors:
        raise DegenerateComplexGauge(
            "Kato gauge for complex degenerate eigenvalues is unsupported")
    return BranchField(field.prob, field.rank, "kato", None, anchor,
                       field.q_sign)


def complement_basis(field: BranchField, x: float, order: int) -> ComplementBasis:
    return ComplementBasis(field.complement_jets(x, order))
