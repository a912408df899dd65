import numpy as np
import pytest

from phaseintegral.examples import example_problem
from phaseintegral.expressions import parse_expr
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
