"""Scalar phase integral corrections, wave containers, singularity models.

The corrections Y_2n multiply the base momentum Q = sqrt(Q**2) so that the
truncated

    q(x) = +/- Q(x) * sum_{n<=N} Y_2n(x) lambda**(2n)

inserted into u = q**(-1/2) exp(i/lambda int q dx) solves u'' + R u = 0
through order lambda**(2N).  Only even orders exist here; everything is a
polynomial in eps0 and its derivatives.  Derivatives with respect to the
phase variable zeta (d zeta = Q dx) are rewritten in x immediately:

    A'(zeta) B'(zeta) = A'(x) B'(x) / Q^2
    B''(zeta)         = [B''(x) - (Q^2)'(x) B'(x) / (2 Q^2)] / Q^2

which keeps every quantity single valued (only Q**2 enters).

The scalar wave itself is the N = 1 case of the coupled wave and is
assembled by `vector.assemble_vector_wave`.  The correction engine does
not call this recurrence: N = 1 and G = Q**2 I run through its coupled
recurrence with the whole space as the branch's cluster.  It stays as an
independent check of that path.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientJetOrder, InvalidInput, ModelSingularity
from .expressions import Expression, eval_expr_jet
from .jets import Jet, jet_const

__all__ = [
    "ScalarCorrections", "WaveSample", "Wave", "scalar_corrections",
    "model_epsilon00",
]


@dataclass
class ScalarCorrections:
    """Even-order corrections; Y[n] is the jet of Y_{2n} (Y[0] = 1)."""

    eps0: Jet
    Qsq: Jet
    Y: list

    @property
    def n_max(self) -> int:
        return len(self.Y) - 1


@dataclass
class WaveSample:
    x: float
    u: np.ndarray          # complex, one entry per component
    u_prime: np.ndarray
    phase: complex         # running integral lambda**-1 int q dx from anchor


@dataclass
class Wave:
    """Sampled approximation plus its analytic jet evaluator.

    `jet_at(x)` returns per-component jets of order >= 2, so residual
    checks can use exact second derivatives instead of finite differences.
    """

    samples: list
    jet_at: Callable[[float], tuple]
    lam: float
    sign: int

    def __iter__(self):
        return iter(self.samples)


def _dz_pair(a: Jet, b: Jet, qsq: Jet, order: int) -> Jet:
    """A'(zeta) B'(zeta) rewritten through x-derivatives."""
    return (a.diff().truncated(order) * b.diff().truncated(order)) \
        / qsq.truncated(order)


def _dz_second(b: Jet, qsq: Jet, order: int) -> Jet:
    """B''(zeta) rewritten through x-derivatives."""
    q2 = qsq.truncated(order)
    bp = b.diff().truncated(order)
    bpp = b.diff().diff().truncated(order)
    corr = (qsq.diff().truncated(order) * bp) / (2.0 * q2)
    return (bpp - corr) / q2


def scalar_corrections(eps0: Jet, Qsq: Jet, n_max: int) -> ScalarCorrections:
    """Y_{2n} for n = 0..n_max from the explicit recurrence."""
    if eps0.order < 2 * n_max:
        raise InsufficientJetOrder(
            f"eps0 jet order {eps0.order} < {2 * n_max} needed for n_max={n_max}")
    x0 = eps0.center
    Y = [jet_const(1.0, x0, eps0.order)]
    for n in range(1, n_max + 1):
        k = eps0.order - 2 * (n - 1)
        pair = jet_const(0.0, x0, k)
        for a in range(1, n):          # alpha, beta <= n-1, alpha + beta = n
            pair = pair + Y[a].truncated(k) * Y[n - a].truncated(k)
        quad = jet_const(0.0, x0, k)
        for a in range(0, n + 1):
            for b in range(0, n + 1 - a):
                for c in range(0, n + 1 - a - b):
                    d = n - a - b - c
                    if max(a, b, c, d) >= n:
                        continue
                    quad = quad + (Y[a].truncated(k) * Y[b].truncated(k)
                                   * Y[c].truncated(k) * Y[d].truncated(k))
        low = jet_const(0.0, x0, k)
        for a in range(0, n):
            b = n - 1 - a
            term = eps0.truncated(k) * (Y[a].truncated(k) * Y[b].truncated(k))
            if a >= 1 and b >= 1:               # Y_0' vanishes identically
                term = term + 0.75 * _dz_pair(Y[a], Y[b], Qsq, k)
            if b >= 1:
                term = term - 0.5 * (Y[a].truncated(k)
                                     * _dz_second(Y[b], Qsq, k))
            low = low + term
        Y.append(0.5 * (pair - quad + low))
    return ScalarCorrections(eps0, Qsq, Y)


def model_epsilon00(model: tuple, d: Expression | None, x0: float,
                    params=None) -> complex:
    """Local eps0 (with a = 0) predicted by a singularity model of Q**2.

    model is one of
        ("power", m, c)      Q_M^2 = c x^m
        ("exp_pole", eta, c) Q_M^2 = c x^-4 exp(eta/x)
        ("exp_flat", eta, c) Q_M^2 = c exp(eta/x)
        ("bounded", c0)      Q_0^2 = x^-2 (c0 + d(x))
    and d(x) the correcting function (Q^2 = Q_M^2 (1 + d)).
    """
    if x0 == 0.0:
        raise ModelSingularity("model evaluation at the reference point x = 0")
    if d is None:
        dv, dp, dpp = 0.0 + 0j, 0.0 + 0j, 0.0 + 0j
    else:
        jd = eval_expr_jet(d, x0, 2, params or {})
        dv, dp, dpp = jd.value, jd.derivative(1), jd.derivative(2)

    kind = model[0]
    if kind == "bounded":
        c0 = complex(model[1])
        den = c0 + dv
        if abs(den) < 1e-300:
            raise ModelSingularity("c0 + d(x) vanishes: eps0 model singular")
        r1 = x0 * dp / den
        return -0.25 / den * (1.0 + (x0 * dp + x0 * x0 * dpp) / den
                              - 1.25 * r1 * r1)

    if kind == "power":
        m, c = float(model[1]), complex(model[2])
        s_over = m * (m + 4.0) / (16.0 * x0 * x0)
        dlog = m / x0
        qm2 = c * x0 ** m
    elif kind == "exp_pole":
        eta, c = complex(model[1]), complex(model[2])
        s_over = eta * eta / (16.0 * x0 ** 4)
        dlog = -4.0 / x0 - eta / (x0 * x0)
        qm2 = c * x0 ** (-4.0) * cmath.exp(eta / x0)
    elif kind == "exp_flat":
        eta, c = complex(model[1]), complex(model[2])
        s_over = eta * (eta - 8.0 * x0) / (16.0 * x0 ** 4)
        dlog = -eta / (x0 * x0)
        qm2 = c * cmath.exp(eta / x0)
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")

    if abs(qm2) < 1e-300:
        raise ModelSingularity("model Q_M^2 underflowed to zero")
    gamma = 1.0 / (1.0 + dv)
    qsq = qm2 * (1.0 + dv)
    if abs(qsq) < 1e-300:
        raise ModelSingularity("Q^2 vanishes in the model")
    return (s_over / qsq
            + 0.125 * gamma * (dp * dlog - 2.0 * dpp) / qsq
            + 0.3125 * gamma * gamma * dp * dp / qsq)
