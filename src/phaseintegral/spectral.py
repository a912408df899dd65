"""Eigenvalue branches Q**2(x), eigenvectors s0(x) and gauges, as jets.

Every eigenvector comes from the eigenprojection P of the branch's cluster
(the d eigenvalues within the cluster tolerance of it): the eigenbasis is
the Gram-Schmidt of P applied to the basis continued from the anchor (for
d = 1, the unit eigenvector P ref/|P ref|).  Q**2, P and the reduced
resolvent S below come from one of three solves, picked by G alone.

When G = c(x) I by its expressions, N = 1 included, the cluster is the
whole space: Q**2 = tr G/N, P = I and S = 0, and the eigenvector is the
coordinate axis of the branch's rank, times the gauge factor g(x) in the
raw gauge.  The coupled recurrence then is the scalar one.

For 2x2 systems they are closed form: the characteristic equation is
quadratic, Q**2 = (G11 + G22 -/+ sqrt(D))/2 with the discriminant
D = (G11 - G22)**2 + 4 G12 G21, and P = (G - mu I)/(Q**2 - mu) with mu the
other eigenvalue.  The rank signs sqrt(D) itself, by real then imaginary
part, so a complex-conjugate pair is ordered by imaginary part and no
second eigen-solve is needed; as D = (Q**2 - mu)**2, |D| <= tol**2 is the
crossing test of the cluster tolerance tol.

For N > 2 the jets are exact too: P is expanded order by order from the
jet of G by Kato's reduction process, and Q**2 = tr(G P)/d.

Alongside P comes the reduced resolvent S, the inverse of G - Q**2 off the
cluster (Kato, Perturbation Theory for Linear Operators, ch. II):
S (G - Q**2) = I - P and S P = P S = 0.  It is S = (P - I)/(Q**2 - mu)
for N = 2, S = (G - Q**2 + P)**-1 - P for N > 2 and 0 for the whole
space; the correction engine solves the complement part of every order
with it.

Gauges:
  raw(g)     eigenvector g(x) * {1, (Q^2 - G11)/G12}, computed from P as
             g e/e_1 (g e/e_2, the row-swapped analogue, when G12 is the
             smaller off-diagonal entry); g(x) times the unit eigenvector
             for N > 2;
  normalized unit eigenvector with sign/phase continued from the anchor,
             in the Kato gauge for a complex one of a hermitian G;
  kato       normalized with (e1, e1') = 0: a complex unit eigenvector takes
             exp(i theta) on each walk step, theta = i int (e~, e~') dx
             along the step's Gram-Schmidt e~ of P.

The continuation walk runs on values: an N = 2 step reads G's four numbers
once and carries its column through the closed-form P on them (N > 2: P
from the eigen-solve), and an order-0 eigenvector is the carried values.
Q**2, P, S and the eigenbasis at order >= 1 run on coefficient arrays.
`BranchField.branch` returns a point's snapshot as arrays, from one
eigen-solve at x (a Kato phase adds order-5 solves); `qsq_jet`, `q_jet`,
`eps0_jet`, `s0_jets` and `basis_jets` are Jet views of the same
computation.

A `BranchField` keeps one point: G(x) and the eigen-jets of the last x
asked.  What else it holds is bounded by the interval it has walked (the
continued frames with a Kato phase integral each, and the sibling fields
of `complement_jets`), not by the number of points asked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CrossingPoint,
    DegenerateComplexGauge,
    DegenerateParameterization,
    EvaluationSingularity,
    GramSchmidtBreakdown,
    InsufficientJetOrder,
    InvalidInput,
    TurningPoint,
    UnsupportedDegeneracy,
    ZeroAtEvaluationPoint,
)
from .expressions import Const, Expression, constant_value, eval_expr_jet
from .jets import (
    Jet, lead_is_zero, row_jets, series_const, series_contract, series_div,
    series_exp, series_inner, series_matrix, series_mul, series_sqrt,
)
from .problem import ReducedProblem
from .quadrature import JetChainIntegral

__all__ = [
    "EigenBranch", "ComplementBasis", "BranchField",
    "eigen_n2_closed_form", "eigen_track", "kato_gauge", "complement_basis",
    "schwartzian", "epsilon0",
]

_ALIGN_STEP = 0.1


@dataclass
class EigenBranch:
    """Point snapshot of a tracked branch: coefficient arrays, orders last."""

    x0: float
    Qsq: np.ndarray
    Q: Optional[np.ndarray]     # None at a turning point, as is eps0
    eps0: Optional[np.ndarray]  # two orders short; None below order 2
    s0: np.ndarray              # (N, n)
    left: np.ndarray            # P^H s0 (s0 itself for an orthogonal P)
    S: np.ndarray               # reduced resolvent, (N, N, n)
    basis: Optional[np.ndarray]  # (d, N, n) for a cluster with 1 < d < N

    @property
    def n(self) -> int:
        return len(self.s0)

    def s0_values(self) -> np.ndarray:
        return self.s0[:, 0].copy()

    def eigen_residual(self, G_value: np.ndarray) -> float:
        v = self.s0_values()
        r = G_value @ v - self.Qsq[0] * v
        return float(np.linalg.norm(r))


@dataclass
class ComplementBasis:
    """Orthonormal basis of the complement of the eigenspace, as jets."""

    vectors: tuple            # (N - d) tuples of N jets


def _cluster_tol(entries, x: float) -> float:
    """The one crossing tolerance at G(x), from its entries row by row
    (see `BranchField._members`); a G that is not finite is refused."""
    total = 1.0
    for z in entries:
        total += z.real * z.real + z.imag * z.imag
    tol = math.sqrt(1e-8 * total)
    if not math.isfinite(tol):          # G has an inf or NaN entry
        raise EvaluationSingularity(f"G is not finite at x = {x}")
    return tol


def _finite(x: float, what: str = "x") -> float:
    """x, refused unless it is a finite number."""
    if not math.isfinite(x):
        raise InvalidInput(f"{what} = {x} is not finite")
    return x


def _discriminant(g, times=mul):
    """(tr G, D) of a 2x2 G of values, or of coefficient arrays with
    `times` = series_mul: roots (tr G -/+ sqrt(D))/2."""
    (g00, g01), (g10, g11) = g
    diff = g00 - g11
    return g00 + g11, times(diff, diff) + 4.0 * times(g01, g10)


def _upper(root: complex) -> bool:
    """Is (tr G + root)/2 the upper root?  Ranks go by real part, then by
    imaginary part, so it is when (Re root, Im root) > (0, 0)."""
    return (root.real, root.imag) > (0.0, 0.0)


def _rank_order(vals: np.ndarray) -> np.ndarray:
    """Indices ranking eigenvalues as `_upper` does: by real part, real
    parts within 1e-12 of the largest modulus ranked by imaginary part."""
    idx = np.argsort(vals.real, kind="stable")
    tied = np.diff(vals.real[idx]) <= 1e-12 * np.max(np.abs(vals))
    band = np.concatenate(([0], np.cumsum(~tied)))
    return idx[np.lexsort((vals.imag[idx], band))]


def schwartzian(qsq: Jet) -> complex:
    """S_x[q] from the jet of q**2 (single-valued form)."""
    if qsq.order < 2:
        raise InsufficientJetOrder("schwartzian needs a jet of order >= 2")
    if lead_is_zero(qsq.coeffs):
        raise ZeroAtEvaluationPoint("q**2 vanishes at the evaluation point")
    return complex(_schwartzian(qsq.coeffs)[0])


def _schwartzian(c: np.ndarray) -> np.ndarray:
    """S_x[q] = (5/16) ((q^2)'/q^2)^2 - (1/4) (q^2)''/q^2, two orders short."""
    k = c.size - 3
    dc = c[1:] * np.arange(1, c.size)
    ddc = dc[1:] * np.arange(1, dc.size)
    ratio = series_div(dc[:k + 1], c[:k + 1])
    return (series_mul(ratio, ratio) * complex(5.0 / 16.0)
            - series_div(ddc[:k + 1], c[:k + 1]) * complex(0.25))


def _eps0(qsq: np.ndarray, a_jet: Callable, x0: float, order: int):
    """(S_x[Q] + a) / Q**2 to `order`; `qsq` has order >= order + 2."""
    if lead_is_zero(qsq):
        raise TurningPoint(f"Q**2 vanishes at x = {x0}")
    s = _schwartzian(qsq[:order + 3]) + a_jet(x0, order).coeffs
    return series_div(s, qsq[:order + 1])


def epsilon0(branch: EigenBranch, a: Expression, x0: float, order: int,
             params=None) -> Jet:
    """Jet of eps0 = (S_x[Q] + a) / Q**2 for a branch snapshot."""
    qsq = branch.Qsq
    if qsq.size < order + 3:
        raise InsufficientJetOrder(
            f"need Qsq jet of order {order + 2}, have {qsq.size - 1}")
    return Jet._raw(float(branch.x0), _eps0(
        qsq, lambda t, k: eval_expr_jet(a, t, k, params or {}), x0, order))


# --------------------------------------------------------------------------
# branch field
# --------------------------------------------------------------------------

class BranchField:
    """Continuous access to one eigenvalue branch of G(x).

    `rank` orders eigenvalues ascending by real part, then by imaginary
    part (N = 2: `_upper`), in an interval free of crossings, the gaps
    within `_cluster_tol`.  `q_sign` selects the overall sign of
    Q = sqrt(Q**2) used by the double-valued odd-order machinery; +1 is
    the convention closed-form results are quoted in (Q = |Q| for positive
    eigenvalues, Q = -i|Q| for negative ones).
    """

    def __init__(self, prob: ReducedProblem, rank: int,
                 gauge: str = "normalized", gauge_g: Expression | None = None,
                 anchor: float | None = None, q_sign: int = +1):
        if rank < 0 or rank >= prob.n:
            raise InvalidInput(f"rank {rank} out of range for N={prob.n}")
        if gauge not in ("raw", "normalized", "kato"):
            raise InvalidInput(f"unknown gauge {gauge!r}")
        self.prob = prob
        self.n = prob.n
        self.rank = rank
        self.gauge = gauge
        self.gauge_g = gauge_g if gauge_g is not None else Const(1.0)
        self.anchor = _finite(float(
            anchor if anchor is not None
            else 0.5 * (prob.domain[0] + prob.domain[1])), "anchor")
        self.q_sign = int(q_sign)
        self._real_vectors = prob.hermitian_hint == "real_symmetric"
        self._oblique = prob.hermitian_hint not in ("real_symmetric",
                                                    "hermitian")
        self._frames: dict[int, list] = {}
        self._phases: dict[int, JetChainIntegral] = {}  # see `_step`
        # complex unit vectors (d = 1, set at the anchor's frame) take the
        # Kato phase: an orthogonal P's in a unit gauge, an oblique one's
        # in the kato gauge
        self._phased = not self._real_vectors and (
            gauge == "kato" or gauge == "normalized" and not self._oblique)
        self._siblings: dict[int, "BranchField"] = {}
        self._scalar_matrix = _is_scalar_matrix(prob.G)
        self._closed = self.n == 2 and not self._scalar_matrix  # `_n2_step`
        self._gval: tuple = (None,)       # x and `_g_point` of the last x
        self._phase_p: tuple = (None, None)  # t and P(t), see `_phase_jet`
        self._phase_end: float | None = None  # t of the last phased step
        self._eig: tuple = (None,)        # x and `_cluster` of the last x
        self._projs: tuple | None = None  # (x, order, _eigen_jets result)
        self._d: int | None = None        # cluster size at the anchor

    # -- G at one point ------------------------------------------------------

    def _g_coeffs(self, x: float, order: int) -> np.ndarray:
        """Taylor coefficients of G at x, N x N x (order + 1)."""
        return np.array([[c.coeffs for c in row]
                         for row in self.prob.G_jet(_finite(x), order)])

    def _g_point(self, x: float) -> tuple:
        """(G(x) as rows of complex numbers, `_cluster_tol` at G(x)), kept
        for the last x only: an eigen-solve asks for them several times in a
        row (ranked values, guard, cluster mask)."""
        if self._gval[0] != x:
            flat, n = self.prob.G_entries(_finite(x)), self.n
            rows = [flat[i:i + n] for i in range(0, n * n, n)]
            self._gval = (x, (rows, _cluster_tol(flat, x)))
        return self._gval[1]

    # -- eigenvalue -------------------------------------------------------

    def _ranked_values(self, x: float) -> np.ndarray:
        rows = self._g_point(x)[0]
        if self.n == 2:         # the closed form's roots, ranked by _upper
            tr, delta = _discriminant(rows)
            root = cmath.sqrt(delta)
            root = root if _upper(root) else -root
            return np.array([tr - root, tr + root]) * 0.5
        vals = np.linalg.eigvals(np.array(rows, dtype=complex))
        return vals[_rank_order(vals)]

    def qsq_value(self, x: float) -> complex:
        return complex(self._ranked_values(x)[self.rank])

    def qsq_jet(self, x: float, order: int) -> Jet:
        return Jet._raw(float(x), self._eigen_jets(x, order)[0])

    def full_degeneracy_region(self, x: float) -> bool:
        """True if all eigenvalues coincide on a neighborhood of x, so the
        branch's cluster is the whole space (always for N = 1).

        Distinguishes the trivial d = N case (P = I, S = 0: the scalar
        theory) from an isolated crossing, where evaluation must be
        refused.  It is decided once, from G's AST (see
        `_is_scalar_matrix`), so it holds on the whole domain or nowhere.
        """
        return self._scalar_matrix

    # -- Q = sqrt(Q^2), upper-sign convention -------------------------------

    def q_jet(self, x: float, order: int) -> Jet:
        return Jet._raw(float(x), self._q(x, self._eigen_jets(x, order)[0]))

    def _q(self, x: float, qsq: np.ndarray) -> np.ndarray:
        if lead_is_zero(qsq):
            raise TurningPoint(f"Q**2 vanishes at x = {x}")
        val = complex(qsq[0])
        if abs(val.imag) <= 1e-12 * abs(val) and val.real <= 0:
            q = series_sqrt(-qsq) * -1j        # -i |Q|
        else:
            q = series_sqrt(qsq)               # +|Q|, or the principal branch
        return q if self.q_sign > 0 else -q

    def eps0_jet(self, x: float, order: int) -> Jet:
        return Jet._raw(float(x), _eps0(self._eigen_jets(x, order + 2)[0],
                                        self.prob.a_jet, x, order))

    # -- eigenvector --------------------------------------------------------

    def s0_jets(self, x: float, order: int) -> tuple:
        if not order and self.gauge != "raw" and not self._scalar_matrix:
            return _value_jets(x, self._reference(x)[0])    # `_s0` at order 0
        return row_jets(x, self._s0(x, order))

    def _s0(self, x: float, order: int) -> np.ndarray:
        """s0 in the field's gauge, (N, order + 1) coefficients."""
        if self._scalar_matrix:
            # any vector is an eigenvector: the coordinate axis of the rank,
            # in the raw gauge times the gauge factor g
            s0 = np.zeros((self.n, order + 1), dtype=complex)
            s0[self.rank] = (self._gauge_factor(x, order) if self.gauge == "raw"
                             else series_const(1.0, order + 1))
            return s0
        if self.gauge == "raw" and self.n == 2:
            return self._s0_raw(x, order)
        return self._gauged(x, order, self._basis(x, order)[0])

    def _gauged(self, x: float, order: int, unit: np.ndarray) -> np.ndarray:
        """The unit eigenvector `unit` times g in the raw gauge."""
        if self.gauge != "raw":
            return unit
        g = self._gauge_factor(x, order)
        return np.array([series_mul(g, c) for c in unit])

    def _gauge_factor(self, x: float, order: int) -> np.ndarray:
        return eval_expr_jet(self.gauge_g, x, order, self.prob.params).coeffs

    def _s0_raw(self, x: float, order: int) -> np.ndarray:
        """g e/e_1, or g e/e_2 when G21 is the larger off-diagonal entry.

        e is the column of P = (G - mu I)/sqrt(D) that holds the larger
        off-diagonal entry: (G12, Q^2 - G11)/sqrt(D) or
        (Q^2 - G22, G21)/sqrt(D), so that e/e_1 = {1, (Q^2 - G11)/G12}.
        """
        proj = self._eigen_jets(x, order)[1]    # refuses a crossing first
        g = self._g_point(x)[0]
        g12, g21 = abs(g[0][1]), abs(g[1][0])
        if max(g12, g21) <= 1e-13 * (1.0 + max(g12, g21)):
            raise DegenerateParameterization(
                f"both off-diagonal entries vanish at x = {x}")
        lead = 0 if g12 >= g21 else 1
        e = proj[:, :, 1 - lead]
        gg = self._gauge_factor(x, order)
        gw = series_mul(gg, series_div(e[:, 1 - lead], e[:, lead]))
        return np.array([gg, gw] if lead == 0 else [gw, gg])

    # -- continuation -------------------------------------------------------

    def _reference(self, x: float) -> list:
        """The continued eigenbasis at x: d columns of N complex values."""
        return self._step(self._frame(x), x)

    def _frame(self, x: float) -> int:
        """Key of the last alignment step between the anchor and x, whose
        frame `_frames[key]` (at anchor + key _ALIGN_STEP) it walks to.

        The walk starts from the eigenvectors at the anchor, each with its
        largest component made real and positive, and moves outward in
        steps of _ALIGN_STEP, each step continuing the last (`_step`).
        """
        k = int(math.floor(abs(_finite(x) - self.anchor) / _ALIGN_STEP
                           + 1e-12))
        sgn = 1 if x >= self.anchor else -1
        key = k * sgn
        if key in self._frames:
            return key
        if 0 not in self._frames:
            if self.n == 2 and self._oblique:
                # eig may order a conjugate pair by round-off; P does not
                p = np.array(self._projector(self.anchor))
                v = p[:, [np.argmax(np.linalg.norm(p, axis=0))]]
                v /= np.linalg.norm(v)
            else:
                _, vecs, _, inside = self._cluster(self.anchor)
                v = vecs[:, inside]      # unit columns from eigh / eig
            self._frames[0] = [(c * self._lead_phase(c)).tolist()
                               for c in v.T]
            self._phased &= v.shape[1] == 1     # no abelian phase for d > 1
        # walk outward from the largest cached step on this side
        have = max((abs(j) for j in self._frames
                    if j == 0 or (j > 0) == (sgn > 0)), default=0)
        for j in range(have + 1, k + 1):
            self._frames[j * sgn] = self._step(
                (j - 1) * sgn, self.anchor + sgn * j * _ALIGN_STEP)
        return key

    def _step(self, key: int, t: float) -> list:
        """The frame `key` continued to t (`_n2_step` for one column of an
        N = 2 field, else `_carry`), times exp(i theta) if the field is
        `_phased`: theta = i int (e~, e~') from the frame's x,
        e~ the Gram-Schmidt of P through the frame.  The integral is kept
        per frame, so its start jet is made once."""
        ref = self._frames[key]
        basis = (self._n2_step(t, ref[0]) if self._closed and len(ref) == 1
                 else self._carry(t, ref))
        if not self._phased:
            return basis
        theta = self._phases.get(key)
        if theta is None:
            theta = self._phases[key] = JetChainIntegral(
                lambda s: self._phase_jet(s, ref),
                self.anchor + key * _ALIGN_STEP)
        self._phase_end = t
        phase = cmath.exp(1j * theta.value(t))
        return [[a * phase for a in basis[0]]]

    def _phase_jet(self, t: float, ref: list) -> Jet:
        """i (e~, e~') at t, e~ the order-5 Gram-Schmidt of P(t) ref (real:
        e~ is unit), P solved apart from the point memo of `_eigen_jets`.
        P at the last step's end is kept: the next step starts there."""
        kept, proj = self._phase_p
        if kept != t:
            proj = self._solve(t, 5)[1]
            if t == self._phase_end:
                self._phase_p = (t, proj)
        e = self._gram_schmidt(t, ref, proj)[0]
        return Jet._raw(float(t), series_inner(e, _derivative(e)) * 1j)

    def _lead_phase(self, v: np.ndarray) -> complex:
        """Phase that makes the largest component of v real and positive."""
        z = complex(v[np.argmax(np.abs(v))])
        if self._real_vectors:
            return 1.0 if z.real >= 0 else -1.0
        return z.conjugate() / abs(z)

    def _carry(self, t: float, prev: list) -> list:
        """The eigenbasis at t that continues the columns `prev`: order 0
        of `_gram_schmidt`, in plain complex arithmetic."""
        rows = self._projector(t)
        basis = []
        for ref in prev:
            v = [sum(map(mul, row, ref)) for row in rows]
            for e in basis:
                ip = _inner(e, v)
                v = [a - ip * b for a, b in zip(v, e)]
            norm_sq = _inner(v, v).real             # (v, v) is exactly real
            _guard_breakdown(norm_sq, t)
            scale = 1.0 / math.sqrt(norm_sq)    # numpy's v / sqrt(norm_sq)
            v = [a * scale for a in v]
            if self._oblique:
                z = _inner(ref, v)
                phase = cmath.sqrt(z.conjugate() / z)
                v = [a * phase for a in v]
            basis.append(v)
        return basis

    def _n2_step(self, t: float, ref: list | None = None) -> list:
        """N = 2: the column `ref` continued to t, or P(t) as rows, from one
        read of G(t): `_closed_form`'s P, then `_carry`'s loop written out
        for one column (the same sums in the same order, so the same bits)."""
        flat = self.prob.G_entries(_finite(t))
        tol = _cluster_tol(flat, t)
        g00, g01, g10, g11 = flat
        diff = g00 - g11
        delta = diff * diff + 4.0 * (g01 * g10)     # `_discriminant`
        root = cmath.sqrt(delta)
        if self._minus_root(t, delta, root, tol):
            root = -root
        qsq = (g00 + g11 + root) * 0.5
        inv = 1.0 / root
        p00, p01 = (qsq - g11) * inv, g01 * inv
        p10, p11 = g10 * inv, (qsq - g00) * inv
        if ref is None:
            return [[p00, p01], [p10, p11]]
        r0, r1 = ref
        v0 = 0 + p00 * r0 + p01 * r1
        v1 = 0 + p10 * r0 + p11 * r1
        # (v, v): the real part of conj(a) a is a.real**2 + a.imag**2
        norm_sq = (0 + (v0.real * v0.real + v0.imag * v0.imag)
                   + (v1.real * v1.real + v1.imag * v1.imag))
        _guard_breakdown(norm_sq, t)
        scale = 1.0 / math.sqrt(norm_sq)
        v0, v1 = v0 * scale, v1 * scale
        if self._oblique:
            z = 0 + r0.conjugate() * v0 + r1.conjugate() * v1
            phase = cmath.sqrt(z.conjugate() / z)
            v0, v1 = v0 * phase, v1 * phase
        return [[v0, v1]]

    def _kato(self, unit: np.ndarray) -> np.ndarray:
        """The Kato vector's jets through the value of `unit`, (N, n): unit
        times exp(i theta), theta = i int (e, e') from x, zero at x."""
        n = unit.shape[1]
        i_theta = np.zeros(n, dtype=complex)        # -int (e, e') from x
        i_theta[1:] = -series_inner(unit, _derivative(unit)) / np.arange(1, n)
        return unit @ series_matrix(series_exp(i_theta)).T

    # -- eigenprojection jets -----------------------------------------------

    def _cluster(self, x: float):
        """Ranked eigen-solve at x and the mask of this branch's cluster:
        (values, right vectors as columns, left vectors as rows, mask),
        kept for the last x only, as `_g_point` keeps G(x)."""
        if self._eig[0] == x:
            return self._eig[1]
        g = np.array(self._g_point(x)[0], dtype=complex)
        if self._real_vectors:
            vals, vecs = np.linalg.eigh(g.real)
            left = vecs.T
        elif not self._oblique:
            vals, vecs = np.linalg.eigh(g)
            left = vecs.conj().T
        else:
            vals, vecs = np.linalg.eig(g)
            idx = _rank_order(vals)
            vals, vecs = vals[idx], vecs[:, idx]
            left = np.linalg.inv(vecs)
        vals = vals.astype(complex)         # copies only what is real
        self._eig = (x, (vals, vecs.astype(complex, copy=False),
                         left.astype(complex, copy=False),
                         self._members(vals, x)))
        return self._eig[1]

    def _members(self, vals: np.ndarray, x: float) -> np.ndarray:
        """Mask of this branch's cluster among the ranked eigenvalues at x.

        Eigenvalues within `_cluster_tol` of this branch's form its
        cluster; an eigenvalue outside the cluster that close to a member
        is a crossing.
        """
        tol = self._g_point(x)[1]
        vals = vals.tolist()                # at most N numbers: no arrays
        inside = [abs(v - vals[self.rank]) <= tol for v in vals]
        if any(abs(v - w) <= tol for v, i in zip(vals, inside) if i
               for w, j in zip(vals, inside) if not j):
            raise CrossingPoint(f"eigenvalue gap too small at x = {x}")
        return np.array(inside)

    def _branch_cluster(self, x: float):
        """`_cluster` at x, refused where the branch's cluster is not the
        size it has at the anchor (a crossing) or is the whole space."""
        vals, vecs, left, inside = self._cluster(x)
        d = int(inside.sum())
        if self._d is None:
            self._d = int(self._cluster(self.anchor)[3].sum())
        if d != self._d:
            raise CrossingPoint(
                f"eigenvalues cross within guard radius at x = {x}")
        if d == self.n:
            raise UnsupportedDegeneracy(
                f"every eigenvalue is in one cluster at x = {x}; G = c(x) I "
                "is recognized only from its expressions")
        return vals, vecs, left, inside

    def _minus_root(self, x: float, delta0: complex, root0: complex,
                    tol: float) -> bool:
        """N = 2: is the branch's root of D(x) = delta0 minus the principal
        one, root0?  After `_members`'s crossing test at tolerance tol, as
        D = (Q**2 - mu)**2."""
        if abs(delta0) <= tol ** 2:
            raise CrossingPoint(
                f"eigenvalues cross within guard radius at x = {x}")
        return _upper(root0) != (self.rank == 1)

    def _projector(self, x: float) -> list:
        """P at x as rows of complex numbers: the walk's order-0 solve."""
        if self._scalar_matrix:
            return np.eye(self.n, dtype=complex).tolist()
        if self.n == 2:
            return self._n2_step(x)
        _, vecs, left, inside = self._branch_cluster(x)
        return (vecs[:, inside] @ left[inside]).tolist()

    def _eigen_jets(self, x: float, order: int):
        """(Q**2 coefficients, eigenprojection coefficients P_0..P_order,
        reduced resolvent coefficients S_0..S_order).

        Only the last point asked for is kept, for `branch` and the Jet
        views of one x asked one after another (Q**2, then s0) at the same
        or a lower order; the continuation walk does not come here.
        """
        memo = self._projs
        if memo is not None and memo[0] == x and memo[1] >= order:
            return tuple(a[:order + 1] for a in memo[2])
        got = self._solve(x, order)
        self._projs = (x, order, got)
        return got

    def _solve(self, x: float, order: int):
        """`_eigen_jets` at x, solved anew."""
        if self._scalar_matrix:
            return self._whole_space(x, order)
        if self.n == 2:
            return self._closed_form(x, order)
        return self._reduction(x, order)

    def _whole_space(self, x: float, order: int):
        """G = c(x) I (N = 1 included): the cluster is the whole space, so
        Q**2 = tr G/N, P = I and S = 0."""
        tr = np.trace(self._g_coeffs(x, order))
        proj = np.zeros((order + 1, self.n, self.n), dtype=complex)
        proj[0] = np.eye(self.n)
        return tr * (1.0 / self.n), proj, np.zeros_like(proj)

    def _closed_form(self, x: float, order: int):
        """N = 2: Q**2 = (tr G + sqrt(D))/2 with the root's sign matched to
        this branch, and P = (G - mu I)/(Q**2 - mu), where mu = tr G - Q**2
        is the other eigenvalue, so Q**2 - mu = sqrt(D) and the diagonal
        of G - mu I is (Q**2 - G22, Q**2 - G11).  S = (P - I)/(Q**2 - mu).
        Each division by sqrt(D) is one product with the lag-index Toeplitz
        matrix of its series reciprocal."""
        g = self._g_coeffs(x, order)
        tr, delta = _discriminant(g, series_mul)
        delta0 = complex(delta[0])
        tol = self._g_point(x)[1]
        minus = self._minus_root(x, delta0, cmath.sqrt(delta0), tol)
        root = -series_sqrt(delta) if minus else series_sqrt(delta)
        qsq = (tr + root) * 0.5
        lag = series_matrix(series_div(series_const(1.0, order + 1), root)).T
        proj = g.copy()
        proj[0, 0], proj[1, 1] = qsq - g[1, 1], qsq - g[0, 0]
        proj = proj @ lag
        res = proj.copy()
        res[[0, 1], [0, 1], 0] -= 1.0
        return qsq, proj.transpose(2, 0, 1), (res @ lag).transpose(2, 0, 1)

    def _reduction(self, x: float, order: int):
        """N > 2: Kato's reduction process, run in the eigenbasis of
        G_0 = G(x), where P_0 is the 0/1 diagonal of the cluster mask.

        At each order k, [G, P] = 0 gives the blocks that couple the
        cluster to the rest, [Lambda, P_k] = -sum_{j>=1} [G_j, P_{k-j}],
        solved by the reduced resolvent 1/(lambda_i - lambda_l); P**2 = P
        gives the blocks within the cluster (-C_k) and within the rest
        (+C_k), with C_k = sum_{0<j<k} P_j P_{k-j}.  The projector is
        oblique for non-hermitian G.  Q**2 = tr(G P)/d is the cluster mean.
        S + P = (G - Q**2 + P)**-1 is a series inverse whose lead term is
        diagonal in this basis.
        """
        vals, vecs, left, inside = self._branch_cluster(x)
        d = int(inside.sum())
        gt = left @ self._g_coeffs(x, order).transpose(2, 0, 1) @ vecs
        gt[0] = np.diag(vals)
        within = inside[:, None] == inside[None, :]
        sign = np.where(within, np.where(inside[:, None], -1.0, 1.0), 0.0)
        res = np.zeros((self.n, self.n), dtype=complex)
        res[~within] = 1.0 / (vals[:, None] - vals[None, :])[~within]
        pt = np.zeros_like(gt)
        pt[0] = np.diag(inside.astype(complex))
        chain = "jab,jbc->ac"                  # sum_j a_j b_j, one einsum
        for k in range(1, order + 1):
            gj, pj = gt[1:k + 1], pt[k - 1::-1]    # G_j, P_{k-j}, j >= 1
            c = np.einsum(chain, pt[1:k], pt[k - 1:0:-1])
            f = np.einsum(chain, gj, pj) - np.einsum(chain, pj, gj)
            pt[k] = sign * c - res * f
        tr = np.einsum("jab,lba->jl", gt, pt)
        qsq = np.array([np.trace(tr[::-1], offset=k - order)
                        for k in range(order + 1)]) / d
        mt = gt + pt
        mt[:, range(self.n), range(self.n)] -= qsq[:, None]
        wt = np.zeros_like(gt)
        wt[0] = np.diag(1.0 / np.diagonal(mt[0]))
        for k in range(1, order + 1):
            wt[k] = -wt[0] @ np.einsum(chain, mt[1:k + 1], wt[k - 1::-1])
        return qsq, vecs @ pt @ left, vecs @ (wt - pt) @ left

    def _gram_schmidt(self, x: float, ref: list, proj: np.ndarray):
        """Gram-Schmidt of P ref, P the coefficients `proj` at x: the
        eigenbasis continuing the columns `ref`, d x N x (order + 1).

        Each column e_j has (ref_j, e_j) real and positive.  For an
        orthogonal projector Gram-Schmidt gives that already; for an oblique
        one each column takes the phase sqrt(conj(z)/z), z = (ref_j, e_j).
        For u the projected column, e_j = u sqrt(1/(u, u)), or with the
        phase u sqrt(conj(w)/(w (u, u))), w = (ref_j, u).
        """
        order = len(proj) - 1
        ref = np.array(ref)
        basis = np.einsum("tij,cj->cit", proj, ref)
        for j, u in enumerate(basis):
            if j:
                ips = np.array([series_inner(e, u) for e in basis[:j]])
                u = u - series_contract(ips, basis[:j])
            norm_sq = series_inner(u, u)
            _guard_breakdown(norm_sq[0], x)
            num, den = series_const(1.0, order + 1), norm_sq
            if self._oblique:
                w = ref[j].conj() @ u
                num, den = w.conj(), series_mul(w, norm_sq)
            factor = series_sqrt(series_div(num, den))
            basis[j] = u @ series_matrix(factor).T
        return np.ascontiguousarray(basis)

    def _basis(self, x: float, order: int) -> np.ndarray:
        """The continued eigenbasis at x (`_reference`) with its jets: the
        Gram-Schmidt of P through it, times the Kato phase if `_phased`."""
        ref = self._reference(x)
        if not order:
            return np.array(ref)[:, :, None]
        basis = self._gram_schmidt(x, ref, self._eigen_jets(x, order)[1])
        return self._kato(basis[0])[None] if self._phased else basis

    def basis_jets(self, x: float, order: int) -> tuple:
        """Orthonormal basis jets of the branch's eigenspace.

        One unit eigenvector for d = 1; d vectors inside a degenerate
        cluster, each continued from the anchor.
        """
        if not order:                       # `_basis` at order 0
            return tuple(_value_jets(x, v) for v in self._reference(x))
        return tuple(row_jets(x, v) for v in self._basis(x, order))

    # -- public assembly ------------------------------------------------------

    def degeneracy(self, x: float) -> int:
        return int(self._members(self._ranked_values(x), x).sum())

    def branch(self, x: float, order: int) -> EigenBranch:
        """The branch at x to `order`, from one eigen-solve at x (a Kato
        phase adds order-5 solves): everything the correction engine reads
        of a point (see `EigenBranch`).  At a turning point Q and eps0 are
        None, and Q**2 and s0 are still there."""
        qsq, proj, res = self._eigen_jets(x, order)     # kept by the memo
        q = eps0 = None
        if not lead_is_zero(qsq):
            q = self._q(x, qsq)
            if order > 1:
                eps0 = _eps0(qsq, self.prob.a_jet, x, order - 2)
        d = round(np.trace(proj[0]).real)           # P's trace is its rank
        basis = self._basis(x, order) if 1 < d < self.n else None
        s0 = (self._s0(x, order) if basis is None
              else self._gauged(x, order, basis[0]))    # `_s0`, basis reused
        # (l, s0) = (s0, P s0) = (s0, s0)
        left = (np.einsum("sji,jts->it", proj.conj(), series_matrix(s0))
                if self._oblique else s0)
        return EigenBranch(x, qsq, q, eps0, s0, left, res.transpose(1, 2, 0),
                           basis)

    def complement_jets(self, x: float, order: int) -> tuple:
        """Orthonormal-complement vectors: the eigenvectors of the other
        clusters (N = 2: the closed-form orthogonal vector); none for the
        whole space."""
        if self._scalar_matrix:
            return ()
        if self.n == 2:
            s0 = self.s0_jets(x, order)
            return ((-s0[1].conj(), s0[0].conj()),)
        if self._oblique:
            raise GramSchmidtBreakdown(
                "complement bases for N > 2 require a hermitian matrix")
        covered = self._cluster(x)[3]
        vecs = []
        for r in range(self.n):
            if covered[r]:
                continue
            sib = self._siblings.get(r)
            if sib is None:
                sib = BranchField(self.prob, r, "normalized", None,
                                  self.anchor, self.q_sign)
                self._siblings[r] = sib
            covered = covered | sib._cluster(x)[3]
            vecs.extend(sib.basis_jets(x, order))
        return tuple(vecs)


def _is_scalar_matrix(G) -> bool:
    """G = c(x) I by its AST (always for N = 1): every off-diagonal entry
    folds to the constant 0 and every diagonal entry equals G[0][0] as an
    AST.  A G that equals c(x) I only through identities is not
    recognized."""
    n = len(G)
    return all(G[i][i] == G[0][0] for i in range(n)) and all(
        constant_value(G[i][j]) == 0 for i in range(n) for j in range(n)
        if i != j)


def _value_jets(x: float, values: list) -> tuple:
    """Order-0 jets of complex values, as `row_jets` makes them."""
    x = float(x)
    return tuple([Jet._raw(x, np.array([v])) for v in values])


def _inner(a: list, b: list) -> complex:
    """(a, b) = sum conj(a_j) b_j of two lists of complex numbers."""
    return sum(map(mul, map(complex.conjugate, a), b))


def _derivative(v: np.ndarray) -> np.ndarray:
    """The derivative of an (N, n) vector series, one order short."""
    return v[:, 1:] * np.arange(1, v.shape[1])


def _guard_breakdown(norm_sq: complex, x: float):
    if abs(norm_sq) < 1e-24:
        raise GramSchmidtBreakdown(
            f"eigenbasis continuation degenerates at x = {x}; "
            "evaluate on a subinterval anchored closer to it")


# --------------------------------------------------------------------------
# spec-level operations
# --------------------------------------------------------------------------

def eigen_n2_closed_form(prob: ReducedProblem, x0: float, order: int,
                         sign: int = +1, gauge_g: Expression | None = None,
                         anchor: float | None = None) -> EigenBranch:
    """Closed-form N = 2 branch: `sign` = +1 the lower root, -1 the upper."""
    if prob.n != 2:
        raise InvalidInput("eigen_n2_closed_form requires N = 2")
    gauge = "raw" if gauge_g is not None else "normalized"
    field = BranchField(prob, 0 if sign > 0 else 1, gauge, gauge_g,
                        anchor if anchor is not None else x0)
    if field._scalar_matrix:                # G = c(x) I: D vanishes
        raise CrossingPoint(f"discriminant within guard radius at x = {x0}")
    return field.branch(x0, order)


def eigen_track(prob: ReducedProblem, grid: Sequence[float], rank: int,
                order: int, gauge: str = "normalized",
                gauge_g: Expression | None = None) -> list:
    """Branch snapshots along a strictly increasing grid."""
    grid = [float(x) for x in grid]
    if not grid:
        raise InvalidInput("eigen_track needs a grid point")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInput("grid must be strictly increasing")
    field = BranchField(prob, rank, gauge, gauge_g, anchor=grid[0])
    return [field.branch(x, order) for x in grid]


def kato_gauge(field: BranchField, anchor: float) -> BranchField:
    """Kato-gauged copy of a branch field, continued from `anchor`: its
    unit eigenvector has (e, e') = 0, the phase carried by each walk step.
    A complex cluster (d > 1) has no such phase and is refused."""
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
