"""The corrections put back into the ODE, order by order in lambda.

Take u = s q**(-1/2) exp((i/lambda) int q dx) with q = Q sum Y_m lambda**m
and s = sum s_m lambda**m.  Dividing lambda**2 (u'' + R u), with
R = lambda**-2 G + a, by q**(-1/2) exp((i/lambda) int q dx) gives

    E(lambda) = (G - q**2) s + 2 i lambda q s'
                + lambda**2 [s'' - (q'/q) s' + ((3/4) (q'/q)**2 - q''/(2 q) + a) s]

(' = d/dx), and every coefficient E_j, j <= m_max, must vanish at every x
in every variant.  `formal_residual` forms the E_j from G, a, Q and the
engine's Y_m and s_m alone, through their values and two x-derivatives, in
lambda-series of plain numbers: it shares nothing with b_m, the power table,
the zeta-derivatives, S or the c_par integrals.

What it does not see:
- a branch swap: the other branch's corrections are a formal solution too;
- high-order jets that are wrong but used consistently, since it checks
  the recurrence's algebra for whatever jets the recurrence is given;
- the variant: each variant fixes the free parallel parts of s_m its own
  way, and each choice is a formal solution (c_par = 0 is the simplified
  theory).  The conservation tests are the check of each variant.
"""

import math

import numpy as np
import pytest

from phaseintegral.examples import example_problem
from phaseintegral.expressions import parse_expr
from phaseintegral.problem import load_problem, split_R
from phaseintegral.spectral import BranchField
from phaseintegral.vector import VARIANTS, CorrectionEngine

RTOL = 1e-12


# -- lambda-series of numbers (index 0 is lambda**0) -------------------------

def _mul(a, b):
    """Cauchy product in lambda, truncated to the length of a; scalar or
    vector coefficients broadcast."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _recip(q):
    r = [1.0 / q[0]]
    for j in range(1, len(q)):
        r.append(-sum(q[i] * r[j - i] for i in range(1, j + 1)) / q[0])
    return r


def _shift(a, by):
    """lambda**by a, truncated to the length of a."""
    zero = 0.0 * a[0]
    return [zero] * by + a[:len(a) - by]


def _taylor(jet):
    """(f, f', f'') at the jet's centre from its coefficients."""
    c = jet.coeffs
    return complex(c[0]), complex(c[1]), 2.0 * complex(c[2])


def formal_residual(prob, corr, Y=None, s=None):
    """Max |E_j| over the components, for j = 0 .. m_max, and the scale
    |Q**2| max_m |s_m| + 1 the bound is relative to.  Y and s override the
    engine's Y_m jets and s_m jet tuples."""
    Y = corr.Y if Y is None else Y
    s = corr.s if s is None else s
    x = corr.x0
    J = corr.m_max + 1
    Q, Qd, Qdd = _taylor(corr.Q)
    q, qd, qdd = [], [], []
    for m in range(J):
        y, yd, ydd = _taylor(Y[m])
        q.append(Q * y)
        qd.append(Qd * y + Q * yd)
        qdd.append(Qdd * y + 2.0 * Qd * yd + Q * ydd)
    comps = [[_taylor(c) for c in s[m]] for m in range(J)]
    sv, sd, sdd = ([np.array([c[i] for c in comps[m]]) for m in range(J)]
                   for i in range(3))
    G = prob.G_value(x)
    a = prob.a_value(x)
    inv = _recip(q)
    rho = _mul(qd, inv)
    sigma = _mul(qdd, inv)
    q2 = _mul(q, q)
    potential = [0.75 * r2 - 0.5 * sg
                 for r2, sg in zip(_mul(rho, rho), sigma)]
    potential[0] += a
    bracket = [p - r + t for p, r, t in zip(sdd, _mul(rho, sd),
                                            _mul(potential, sv))]
    E = [G @ v - w for v, w in zip(sv, _mul(q2, sv))]
    E = [e + 2j * t for e, t in zip(E, _shift(_mul(q, sd), 1))]
    E = [e + t for e, t in zip(E, _shift(bracket, 2))]
    scale = abs(Q * Q) * max(np.max(np.abs(v)) for v in sv) + 1.0
    return [float(np.max(np.abs(e))) for e in E], scale


# -- the cases ---------------------------------------------------------------

def _problem(data):
    spec, lam, a = load_problem(data)
    return split_R(spec, lam, a)


def _example(name):
    return _problem(example_problem(name))


def _block3():
    rows = example_problem("fulling-pos")["R"]
    return _problem(dict(example_problem("fulling-pos"), n=3,
                         R=[r + ["0"] for r in rows]
                         + [["0", "0", "11 + sin(x)"]]))


def _deg3():
    """G = R diag(f, f, g) R^T, R the (1,3)-plane rotation by x/4: ranks 0
    and 1 are a d = 2 cluster (the conftest `deg3` problem)."""
    f, g = "x + 3", "8 + x^2/5"
    c, s = "cos(x/4)", "sin(x/4)"
    g11 = f"({c})^2*({f}) + ({s})^2*({g})"
    g13 = f"({c})*({s})*(({g}) - ({f}))"
    g33 = f"({s})^2*({f}) + ({c})^2*({g})"
    return _problem({"n": 3, "R": [[g11, "0", g13], ["0", f, "0"],
                                   [g13, "0", g33]],
                     "domain": [1.0, 3.0],
                     "hermitian_hint": "real_symmetric"})


_SYMMETRIC = VARIANTS
_FEX4_RAW = {0: "2*sin(x)", 1: "2*cos(x)"}

# (name, problem factory, ranks, variants, gauges, anchor, points)
_CASES = [
    ("fulling-pos", lambda: _example("fulling-pos"), (0, 1), _SYMMETRIC,
     ("normalized",), 2.5, (3.7, 5.2)),
    ("fulling-neg", lambda: _example("fulling-neg"), (0, 1), _SYMMETRIC,
     ("normalized",), 2.5, (3.7,)),
    # the raw points stay clear of the removable 0/0 of g/e_1 at k pi/2
    ("nonhermitian", lambda: _example("nonhermitian"), (0, 1),
     ("non_hermitian",), ("normalized", "raw"), 2.0, (2.2, 2.8)),
    ("bec-vortex", lambda: _example("bec-vortex"), (0, 1), _SYMMETRIC,
     ("normalized",), 55.0, (60.0,)),
    ("bec-vortex-raw", lambda: _example("bec-vortex"), (0, 1),
     ("simplified_hermitian", "non_hermitian"), ("raw",), 55.0, (60.0,)),
    ("scalar-quadratic", lambda: _example("scalar-quadratic"), (0,),
     _SYMMETRIC, ("normalized",), 1.0, (1.5,)),
    ("block3", _block3, (0, 1, 2), _SYMMETRIC, ("normalized",), 2.5, (3.7,)),
    ("deg3", _deg3, (0, 1), ("fulling_current", "wronskian_conserving",
                             "simplified_hermitian"), ("normalized",),
     2.0, (2.3,)),
    ("deg3", _deg3, (2,), _SYMMETRIC, ("normalized",), 2.0, (2.3,)),
]

_PROBLEMS: dict = {}


def _engine(case, rank, variant, gauge, m_max):
    name, make, _, _, _, anchor, _ = case
    prob = _PROBLEMS.get(name) or _PROBLEMS.setdefault(name, make())
    g = None
    if gauge == "raw":
        g = parse_expr(_FEX4_RAW[rank] if name == "nonhermitian" else "1")
    fld = BranchField(prob, rank, gauge, g, anchor=anchor)
    return prob, CorrectionEngine(prob, fld, variant, m_max, anchor)


def _params():
    for case in _CASES:
        name, _, ranks, variants, gauges, _, _ = case
        for rank in ranks:
            for variant in variants:
                for gauge in gauges:
                    yield pytest.param(case, rank, variant, gauge,
                                       id=f"{name}-r{rank}-{variant}-{gauge}")


@pytest.mark.parametrize("case, rank, variant, gauge", list(_params()))
def test_formal_residual_vanishes(case, rank, variant, gauge):
    prob, eng = _engine(case, rank, variant, gauge, 6)
    for x in case[-1]:
        E, scale = formal_residual(prob, eng.at(x))
        assert max(E) <= RTOL * scale, (x, E, scale)


# m_max 12, twice the order above, on the cases with a projection on
# (s0, s_m) = 0, a negative Q**2 and c_par integrals, and the simplified
# theory for N = 2 and N = 3: about 1 s
_HIGH_ORDER = {"nonhermitian": None, "fulling-neg": None,
               "fulling-pos": ("simplified_hermitian",),
               "block3": ("simplified_hermitian",)}


def _high_order_params():
    for case in _CASES:
        name, _, ranks, variants, gauges, _, _ = case
        if name not in _HIGH_ORDER:
            continue
        for rank in ranks:
            for variant in _HIGH_ORDER[name] or variants:
                for gauge in gauges:
                    yield pytest.param(case, rank, variant, gauge,
                                       id=f"{name}-r{rank}-{variant}-{gauge}")


@pytest.mark.parametrize("case, rank, variant, gauge",
                         list(_high_order_params()))
def test_formal_residual_vanishes_at_m_max_12(case, rank, variant, gauge):
    prob, eng = _engine(case, rank, variant, gauge, 12)
    for x in case[-1]:
        E, scale = formal_residual(prob, eng.at(x))
        assert max(E) <= RTOL * scale, (x, E, scale)


class TestFormalResidualCatches:
    """A perturbation of 1e-8 in the engine's output fails the bound by
    two orders of magnitude: the check is not blind to Y_m or to s_m."""

    @pytest.fixture(scope="class")
    def fex1_point(self):
        prob, eng = _engine(_CASES[0], 0, "fulling_current", "normalized", 4)
        return prob, eng.at(3.7)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_perturbed_Y(self, fex1_point, m):
        prob, corr = fex1_point
        Y = list(corr.Y)
        Y[m] = Y[m] + 1e-8
        E, scale = formal_residual(prob, corr, Y=Y)
        assert E[m] > 1e2 * RTOL * scale, E
        assert max(formal_residual(prob, corr)[0]) <= RTOL * scale

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("i", [0, 1])
    def test_perturbed_s(self, fex1_point, m, i):
        prob, corr = fex1_point
        s = list(corr.s)
        s[m] = tuple(c + 1e-8 if j == i else c for j, c in enumerate(s[m]))
        E, scale = formal_residual(prob, corr, s=s)
        assert max(E) > 1e2 * RTOL * scale, E


def test_residual_of_the_closed_form_scalar_case():
    # u'' + (x / lambda^2) u = 0, where Y_2 = eps0/2 = 5/(32 x^3) is known
    # in closed form: the helper's algebra on a case with one component
    prob = _problem({"n": 1, "R": [["x"]], "domain": [0.5, 8.0],
                     "hermitian_hint": "real_symmetric"})
    fld = BranchField(prob, 0, "normalized", None, anchor=2.0)
    corr = CorrectionEngine(prob, fld, "simplified_hermitian", 2, 2.0).at(2.0)
    assert math.isclose(corr.Y[2].value.real, 5.0 / (32.0 * 8.0),
                        rel_tol=1e-12)
    E, scale = formal_residual(prob, corr)
    assert max(E) <= RTOL * scale
