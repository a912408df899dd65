from dataclasses import dataclass

import numpy as np
import pytest

from phaseintegral.errors import InsufficientJetOrder
from phaseintegral.examples import example_problem
from phaseintegral.expressions import parse_expr
from phaseintegral.jets import Jet, jet_const
from phaseintegral.problem import ProblemSpec, load_problem, split_R
from phaseintegral.spectral import BranchField
from phaseintegral.vector import CorrectionEngine


def cauchy_coeffs(f, x0, r, M):
    """Taylor coefficients 0..M-1 of f at x0 from M values on the circle
    |x - x0| = r: the trapezoid rule for Cauchy's integral, as one FFT."""
    vals = np.array([f(x0 + r * w)
                     for w in np.exp(2j * np.pi * np.arange(M) / M)])
    powers = (r ** np.arange(M)).reshape((M,) + (1,) * (vals.ndim - 1))
    return np.fft.fft(vals, axis=0) / M / powers


# The even-order scalar recurrence: the independent d = N oracle of the
# coupled engine, which computes one equation as G = c(x) I.  The
# corrections Y_2n multiply Q = sqrt(Q**2) so that the truncated
#
#     q(x) = +/- Q(x) * sum_{n<=N} Y_2n(x) lambda**(2n)
#
# inserted into u = q**(-1/2) exp(i/lambda int q dx) solves u'' + R u = 0
# through order lambda**(2N).  Derivatives in the phase variable zeta
# (d zeta = Q dx) are rewritten in x at once, so only Q**2 enters:
#
#     A'(zeta) B'(zeta) = A'(x) B'(x) / Q^2
#     B''(zeta)         = [B''(x) - (Q^2)'(x) B'(x) / (2 Q^2)] / Q^2
@dataclass
class ScalarCorrections:
    """Even-order corrections; Y[n] is the jet of Y_{2n} (Y[0] = 1)."""

    eps0: Jet
    Qsq: Jet
    Y: list

    @property
    def n_max(self) -> int:
        return len(self.Y) - 1


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


def _reduced(name):
    spec, lam, a = load_problem(example_problem(name))
    return split_R(spec, lam, a)


@pytest.fixture(scope="session")
def fex1():
    return _reduced("fulling-pos")


@pytest.fixture(scope="session")
def fex3():
    return _reduced("fulling-neg")


@pytest.fixture(scope="session")
def fex4():
    return _reduced("nonhermitian")


@pytest.fixture(scope="session")
def bec():
    return _reduced("bec-vortex")


@pytest.fixture(scope="session")
def scalar_quadratic():
    return _reduced("scalar-quadratic")


@pytest.fixture(scope="session")
def deg3():
    """G = R diag(f, f, g) R^T, R the (1,3)-plane rotation by x/4, with
    f = x + 3 and g = 8 + x^2/5: rank 0 is a d = 2 cluster."""
    f, g = "x + 3", "8 + x^2/5"
    c, s = "cos(x/4)", "sin(x/4)"
    g11 = f"({c})^2*({f}) + ({s})^2*({g})"
    g13 = f"({c})*({s})*(({g}) - ({f}))"
    g33 = f"({s})^2*({f}) + ({c})^2*({g})"
    mat = ((parse_expr(g11), parse_expr("0"), parse_expr(g13)),
           (parse_expr("0"), parse_expr(f), parse_expr("0")),
           (parse_expr(g13), parse_expr("0"), parse_expr(g33)))
    spec = ProblemSpec(3, "reduced", mat, None, {}, (1.0, 3.0),
                       "real_symmetric")
    return split_R(spec, 1.0, None)


@pytest.fixture(scope="session")
def n1_engine():
    """Factory for the scalar problem u'' + R u = 0 as the N = 1 system.

    n1_engine(R, anchor, m_max) is the `simplified_hermitian` engine on
    branch 0 in the normalized gauge; a scalar truncation at lambda**(2n)
    is m_max = 2n.
    """
    def build(R, anchor, m_max=0, domain=(-8.0, 8.0)):
        spec, lam, a = load_problem({"n": 1, "R": [[R]],
                                     "domain": list(domain),
                                     "hermitian_hint": "real_symmetric"})
        prob = split_R(spec, lam, a)
        fld = BranchField(prob, 0, "normalized", None, anchor=anchor)
        return CorrectionEngine(prob, fld, "simplified_hermitian", m_max,
                                anchor)
    return build
