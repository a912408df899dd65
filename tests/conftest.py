import pytest

from phaseintegral.examples import example_problem
from phaseintegral.problem import load_problem, split_R
from phaseintegral.spectral import BranchField
from phaseintegral.vector import CorrectionEngine


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
