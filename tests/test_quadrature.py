import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose

from phaseintegral import vector
from phaseintegral.errors import QuadratureFailure
from phaseintegral.jets import Jet, jet_exp, jet_sin, jet_variable
from phaseintegral.quadrature import (
    CumulativeIntegral, JetChainIntegral, _hermite_weights, quad,
)
from phaseintegral.spectral import BranchField
from phaseintegral.vector import CorrectionEngine, assemble_vector_wave


def test_quad_polynomial_exact():
    assert_allclose(quad(lambda t: t**3, 0.0, 2.0), 4.0, rtol=1e-13)


def test_quad_oscillatory():
    val = quad(lambda t: math.sin(10 * t), 0.0, math.pi)
    want = (1 - math.cos(10 * math.pi)) / 10
    assert_allclose(val, want, atol=1e-12)


def test_quad_complex_integrand():
    val = quad(lambda t: complex(math.cos(t), math.sin(t)), 0.0, 1.0)
    assert_allclose(val, complex(math.sin(1.0), 1 - math.cos(1.0)), rtol=1e-12)


def test_cumulative_matches_antiderivative():
    cum = CumulativeIntegral(math.exp, 0.0)
    for x in (0.5, 1.0, 0.25, 2.0, -1.0):
        assert_allclose(cum.value(x), math.exp(x) - 1.0, rtol=1e-11)


def test_cumulative_incremental_consistency():
    calls = []

    def f(t):
        calls.append(t)
        return math.cos(t)

    cum = CumulativeIntegral(f, 0.0)
    xs = np.linspace(0.1, 3.0, 12)
    for x in xs:
        assert_allclose(cum.value(float(x)), math.sin(x), atol=1e-11)


def test_jet_chain_matches_closed_form():
    chain = JetChainIntegral(lambda t: jet_sin(jet_variable(t, 6)), 0.0)
    for x in (0.4, 1.7, 3.5, 2.0, -2.2):
        assert_allclose(chain.value(x), 1 - math.cos(x), atol=1e-11)


def test_jet_chain_shares_ladder_points():
    evals = []

    def f(t):
        evals.append(t)
        return jet_exp(jet_variable(t, 6))

    chain = JetChainIntegral(f, 0.0)
    chain.value(1.0)
    n1 = len(evals)
    chain.value(1.03125)          # between ladder rungs
    assert len(evals) - n1 <= 3   # reuses the marched prefix
    assert_allclose(chain.value(1.03125), math.exp(1.03125) - 1, rtol=1e-11)


def test_jet_chain_value_depends_on_x_alone():
    # the rung before 1.03 is 1.0 whatever was asked first: a later 1.04
    # or 2.5 neither moves the start of its last panel nor its scale
    def f(t):
        return jet_exp(jet_variable(t, 4))

    fresh = JetChainIntegral(f, 0.0).value(1.03)
    chain = JetChainIntegral(f, 0.0)
    chain.value(1.04)
    chain.value(2.5)
    assert chain.value(1.03) == fresh


def _held_jets(obj) -> int:
    """Jets reachable from obj through dicts, lists and tuples."""
    if isinstance(obj, Jet):
        return 1
    if isinstance(obj, dict):
        return sum(map(_held_jets, obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(map(_held_jets, obj))
    return 0


def test_jet_chain_evaluates_each_node_once():
    # a march starts from the jet its side's last march ended on, so rungs
    # asked in order evaluate each node once; the integral keeps that one
    # jet per side, not one per rung
    calls = []

    def f(t):
        calls.append(t)
        return jet_exp(jet_variable(t, 6))

    xs = [0.5 + j / 4 for j in range(1, 41)]
    chain = JetChainIntegral(f, 0.5)
    got = [chain.value(x) for x in xs]
    assert len(calls) == len(set(calls)) == 41, len(calls)
    assert got == [JetChainIntegral(f, 0.5).value(x) for x in xs]
    chain = JetChainIntegral(lambda t: jet_sin(jet_variable(t, 6)), 0.0)
    chain.value(100.0)
    chain.value(-100.0)
    assert len(chain._rungs) == 801
    assert _held_jets(vars(chain)) <= 2


def test_jet_chain_off_ladder_grid_evaluates_each_node_once():
    # an outward sweep that bisects, as a wave's phase integral asks the
    # integrals it nests: each panel between the last two rungs starts from
    # the rung the march left, whose jet is kept (19 calls when only the
    # outermost rung was kept: the anchor and the rung before each later
    # off-ladder x were evaluated again)
    calls = []

    def f(t):
        calls.append(t)
        return jet_exp(jet_variable(t, 6))

    xs = [0.25, 0.125, 0.5, 0.375, 0.3125, 0.75, 0.625, 0.6875, 1.0,
          0.875, 0.9]
    chain = JetChainIntegral(f, 0.0)
    got = [chain.value(x) for x in xs]
    assert len(calls) == len(set(calls)) == len(xs) + 1, sorted(calls)
    assert got == [JetChainIntegral(f, 0.0).value(x) for x in xs]
    assert _held_jets(vars(chain)) <= 4


def test_jet_chain_off_ladder_queries_run_in_flat_memory():
    # the memo holds the rungs of the interval walked, not the points asked
    chain = JetChainIntegral(lambda t: jet_exp(jet_variable(t, 4)), 0.0)
    chain.value(1.5)
    xs = [float(x) for x in np.linspace(0.5, 1.5, 901)[:-1] + 1e-4]
    assert not any((16 * x).is_integer() for x in xs)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in xs:
            chain.value(x)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 32 * 1024, (before, after)


def test_jet_chain_zero_scale_start():
    # sin vanishes at the anchor: the first panel is judged against the
    # integrand's magnitude over it, not against its own vanishing value,
    # which bisected toward the anchor for 217431 evaluations
    calls = []

    def f(t):
        calls.append(t)
        return jet_sin(jet_variable(t, 0))

    chain = JetChainIntegral(f, 0.0, rtol=1e-5)
    want = 1 - math.cos(3.0)
    assert abs(chain.value(3.0) - want) <= chain.rtol * want
    assert len(calls) < 5000, len(calls)


def test_jet_chain_low_order_bisects_to_tolerance():
    chain = JetChainIntegral(lambda t: jet_sin(jet_variable(t, 2)), 0.0,
                             rtol=1e-10)
    assert_allclose(chain.value(2.0), 1 - math.cos(2.0), atol=1e-9)


# --------------------------------------------------------------------------
# the two-point Hermite (Obreshkov) panel rule
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("fn, exact", [
    (jet_sin, lambda x: 1 - math.cos(x)),
    (jet_exp, lambda x: math.exp(x) - 1),
], ids=["sin", "exp"])
def test_jet_chain_odd_orders_reach_tolerance(fn, exact, n):
    # At odd n the forward and backward Taylor errors share their sign, so
    # their difference misses the leading error that their mean keeps.
    chain = JetChainIntegral(lambda t: fn(jet_variable(t, n)), 0.0)
    for x in (0.4, 1.7, 3.0):
        want = exact(x)
        assert abs(chain.value(x) - want) <= chain.rtol * max(1.0, abs(want))


def _poly_jet(p, t, n):
    """Order-n Taylor jet of the numpy Polynomial p at t."""
    return Jet(t, [p.deriv(j)(t) / math.factorial(j) for j in range(n + 1)])


@pytest.mark.parametrize("n", range(6))
def test_single_panel_exact_to_degree_2n_plus_1(n):
    a, b = 0.3, 1.1
    rng = np.random.default_rng(n)
    for degree, exact in ((2 * n + 1, True), (2 * n + 2, False)):
        p = Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        chain = JetChainIntegral(lambda t: _poly_jet(p, t, n), a,
                                 atol=math.inf)
        want = p.integ()(b) - p.integ()(a)
        err = abs(chain._panel(a, b, 0.0) - want)      # one panel
        assert (err <= 1e-14) == exact, (degree, err)


@pytest.mark.parametrize("n, weights", [
    (0, [Fraction(1, 2)]),
    (1, [Fraction(1, 2), Fraction(1, 12)]),
    (2, [Fraction(1, 2), Fraction(1, 10), Fraction(1, 60)]),
    (3, [Fraction(1, 2), Fraction(3, 28), Fraction(1, 42), Fraction(1, 280)]),
    (4, [Fraction(1, 2), Fraction(1, 9), Fraction(1, 36), Fraction(1, 168),
         Fraction(1, 1260)]),
])
def test_hermite_weights_closed_form(n, weights):
    # A_{n,j} = n! (2n+1-j)! / (2 (j+1) (2n+1)! (n-j)!)
    w, dw, signs = _hermite_weights(n)
    closed = [Fraction(math.factorial(n) * math.factorial(2 * n + 1 - j),
                       2 * (j + 1) * math.factorial(2 * n + 1)
                       * math.factorial(n - j)) for j in range(n + 1)]
    assert closed == weights
    assert_allclose(w, [float(v) for v in weights], rtol=1e-15)
    assert_allclose(signs, [(-1) ** j for j in range(n + 1)])
    if n:
        lower = list(_hermite_weights(n - 1)[0]) + [0.0]
        assert_allclose(dw, w - np.array(lower), rtol=1e-15, atol=1e-17)


def test_order_zero_trapezoid_converges_or_fails_loudly():
    chain = JetChainIntegral(lambda t: jet_exp(jet_variable(t, 0)), 0.0,
                             rtol=1e-5)
    try:
        got = chain.value(3.0)
    except QuadratureFailure:
        return
    assert abs(got - (math.exp(3.0) - 1)) <= 1e-5 * (math.exp(3.0) - 1)


# --------------------------------------------------------------------------
# the anchored integrals of a Fulling wave (fulling-pos, lambda = 0.1)
# --------------------------------------------------------------------------

FULLING_GRID = [float(v) for v in np.linspace(3.0, 6.0, 13)]


def _fulling_waves(prob, m_max, signs=(+1, -1)):
    """Engine of the waves of branch 1, anchor 3, lambda 0.1 on [3, 6]."""
    field = BranchField(prob, 1, "normalized", None, anchor=3.0)
    engine = CorrectionEngine(prob, field, "fulling_current", m_max, 3.0)
    for s in signs:
        assemble_vector_wave(engine, s, FULLING_GRID, 3.0, 0.1)
    return engine


class TestAgainstMpmath:
    """The wave phase and c_par integrals against mpmath.quad, 30 digits."""

    XS = (4.5, 6.0)

    @staticmethod
    def _mp_cumulative(cum, xs):
        mpmath = pytest.importorskip("mpmath")
        from mpmath.calculus.quadrature import GaussLegendre
        f = lambda t: cum.f_jet_at(float(t)).value  # noqa: E731
        out, acc = [], 0
        with mpmath.workdps(30):
            rule = GaussLegendre(mpmath.mp)

            def gauss(lo, hi, degree):    # what mpmath.quad's maxdegree gives
                return mpmath.fdot((w, f(t)) for t, w in rule.get_nodes(
                    lo, hi, degree, mpmath.mp.prec))

            for lo, hi in zip((cum.anchor,) + tuple(xs), xs):
                val = gauss(lo, hi, 5)
                # the oracle converged: the integrand is a double, so its
                # round-off bounds the agreement of two rules, not 30 digits
                assert abs(gauss(lo, hi, 6) - val) <= 1e-13 * (1 + abs(val))
                acc += val
                out.append(complex(acc))
        return out

    def _check(self, cum, xs=XS):
        want = self._mp_cumulative(cum, xs)
        got = [cum.value(x) for x in xs]
        assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("m_max", range(4))
    def test_wave_phase(self, fex1, monkeypatch, m_max):
        made = []

        class Spy(JetChainIntegral):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(vector, "JetChainIntegral", Spy)
        _fulling_waves(fex1, m_max, signs=(+1,))
        phase = next(c for c in made if c.f_jet_at.__name__ == "qbar_jet")
        self._check(phase)

    def test_parallel_coefficients(self, fex1):
        engine = _fulling_waves(fex1, 3, signs=(+1,))
        for m in (1, 2, 3):     # c_2's integrand vanishes identically here
            self._check(engine._coords[(m, 0)])

    def test_parallel_coefficient_at_raised_order(self, fex1):
        # m_max 1 carries order-6 jets where 2 m_max + 2 would give 4
        engine = _fulling_waves(fex1, 1, signs=(+1,))
        assert engine.K == 6
        self._check(engine._coords[(1, 0)])

    def test_kato_phase(self):
        # i (e~, e~') along the section pinned at the anchor, on order-5
        # jets, as a Kato phase integral takes it within a quarter turn
        from test_spectral import (_complex_pair_rows, _hermitian,
                                   _pinned_section, _section_phase_rate)
        section = _pinned_section(_hermitian(_complex_pair_rows()), 0, 2.45)
        self._check(JetChainIntegral(
            lambda t: _section_phase_rate(section(t, 5)), 2.45), (2.1, 2.8))

    def test_degenerate_coordinates(self, deg3):
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        engine = CorrectionEngine(deg3, fld, "fulling_current", 2, 2.0)
        assemble_vector_wave(engine, +1, [2.0, 2.5, 2.9], 2.0, 0.1)
        for m in (1, 2):
            self._check(engine._coords[(m, 1)], (1.4, 2.9))


def test_fulling_wave_panel_counts(fex1, monkeypatch):
    # Panels (bisections included) and base points per m_max, both signs,
    # one engine each.  The forward/backward mean took 1404, 1672, 293 and
    # 632 panels; a 1/16 ladder built 62, 124, 49 and 49 points.
    before = [1404, 1672, 293, 632]
    calls = {"_panel": 0, "_base_point": 0}

    def counting(cls, name):
        method = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    counting(JetChainIntegral, "_panel")
    counting(CorrectionEngine, "_base_point")
    counts, points = [], []
    for m_max in range(4):
        calls.update(_panel=0, _base_point=0)
        _fulling_waves(fex1, m_max)
        counts.append(calls["_panel"])
        points.append(calls["_base_point"])
    assert all(c < b for c, b in zip(counts, before)), counts
    assert sum(counts) <= sum(before) // 2, counts
    assert sum(counts) <= 250, counts
    assert all(p <= 20 for p in points), points
