import cmath
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseintegral.errors import (EvaluationSingularity, GridMismatch,
                                  InvalidInput, StepSizeUnderflow)
from phaseintegral.expressions import JetTape, parse_expr
from phaseintegral.problem import ProblemSpec, ReducedProblem, split_R
from phaseintegral.spectral import BranchField, eigen_track
from phaseintegral.vector import CorrectionEngine, assemble_vector_wave
from phaseintegral import verify as V
from phaseintegral.verify import Wave, WaveSample


class TestCurrentAndWronskian:
    def test_scalar_exact_current(self, n1_engine):
        grid = np.linspace(0.0, 2.0, 6)
        wp = assemble_vector_wave(n1_engine("1", 0.0), +1, grid, 0.0, 1.0)
        rep = V.current_sigma(wp)
        assert_allclose(rep.values(), 1.0, atol=1e-12)
        assert rep.drift <= 1e-12

    def test_real_wave_zero_current(self, n1_engine):
        grid = np.linspace(0.0, 2.0, 6)
        w = assemble_vector_wave(n1_engine("-1", 0.0), +1, grid, 0.0, 1.0)
        assert np.max(np.abs(V.current_sigma(w).values())) < 1e-14

    def test_wronskian_antisymmetry(self, n1_engine):
        grid = np.linspace(0.0, 2.0, 6)
        w = assemble_vector_wave(n1_engine("1", 0.0), +1, grid, 0.0, 1.0)
        rep = V.wronskian(w, w, "generalized")
        assert np.max(np.abs(rep.values())) < 1e-14

    def test_grid_mismatch(self, n1_engine):
        eng = n1_engine("1", 0.0)
        w1 = assemble_vector_wave(eng, +1, [0.0, 1.0], 0.0, 1.0)
        w2 = assemble_vector_wave(eng, -1, [0.0, 1.5], 0.0, 1.0)
        with pytest.raises(GridMismatch):
            V.wronskian(w1, w2)

    @pytest.mark.parametrize("call", [
        lambda eng: assemble_vector_wave(eng, +1, []),
        lambda eng: V.current_sigma([]),
        lambda eng: V.wronskian([], []),
        lambda eng: eigen_track(eng.prob, [], 0, 0),
        lambda eng: V.relative_residual(
            assemble_vector_wave(eng, +1, [3.0]), eng.prob.R_value, []),
        lambda eng: V.order_scaling(
            lambda lam: assemble_vector_wave(eng, +1, [3.0], lam=lam),
            lambda lam: (lambda x: eng.prob.R_value(x, lam)),
            [0.2, 0.1, 0.05], []),
    ], ids=["wave-grid", "current-sigma", "wronskian", "eigen-track",
            "relative-residual", "order-scaling"])
    def test_empty_input_raises_invalid_input(self, fex1, call):
        # no grid point, no sample: refused as an input error, with no
        # numpy warning from a median of nothing before it
        eng = CorrectionEngine(fex1, BranchField(fex1, 1, "normalized", None,
                                                 anchor=3.0),
                               "fulling_current", 1, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                call(eng)

    def test_sigma_equals_wronskian_for_real_pairs(self, fex3):
        # real hermitian, Q^2 < 0: sigma of u1 + i u2 equals W(u1, u2)
        fld = BranchField(fex3, 1, "normalized", None, anchor=2.5)
        eng = CorrectionEngine(fex3, fld, "wronskian_conserving", 2, 2.5)
        grid = np.linspace(2.5, 4.5, 6)
        w1 = assemble_vector_wave(eng, +1, grid, 2.5, 0.3)
        w2 = assemble_vector_wave(eng, -1, grid, 2.5, 0.3)
        for a, b in zip(w1.samples, w2.samples):
            u = a.u + 1j * b.u
            du = a.u_prime + 1j * b.u_prime
            sigma = np.imag(np.vdot(u, du))
            wn = np.real(np.vdot(a.u, b.u_prime) - np.vdot(b.u, a.u_prime))
            assert abs(sigma - wn) < 1e-12 * (1 + abs(wn))

    def test_vector_drift_scaling(self, fex1):
        fld = BranchField(fex1, 1, "normalized", None, anchor=3.0)
        eng = CorrectionEngine(fex1, fld, "fulling_current", 2, 3.0)
        grid = np.linspace(3.0, 8.0, 11)
        drifts = []
        for lam in (0.2, 0.1):
            rep = V.current_sigma(assemble_vector_wave(eng, +1, grid, 3.0, lam))
            drifts.append(rep.absolute_drift())
        assert 2 ** 2.3 < drifts[0] / drifts[1] < 2 ** 3.7


class TestResidual:
    def test_exact_reference_solution_scale(self):
        # a hand-built exact solution of u'' + u = 0 has residual ~ 0
        def jet_at(x):
            from phaseintegral.jets import jet_sin, jet_variable
            return (jet_sin(jet_variable(x, 2)),)

        pts = [0.3, 1.1]
        wave = Wave([WaveSample(x, np.array([math.sin(x)]),
                                np.array([math.cos(x)]), 0.0) for x in pts],
                    jet_at, 1.0, +1)
        rows = V.residual(wave, lambda x: np.array([[1.0]]))
        assert max(r for _, r, _ in rows) < 1e-14

    def test_relative_scale_reported(self):
        def jet_at(x):
            from phaseintegral.jets import jet_sin, jet_variable
            return (jet_sin(jet_variable(x, 2)),)

        wave = Wave([WaveSample(0.5, np.array([math.sin(0.5)]),
                                np.array([math.cos(0.5)]), 0.0)], jet_at,
                    1.0, +1)
        (_, r, scale), = V.residual(wave, lambda x: np.array([[1.0]]))
        assert_allclose(scale, abs(math.sin(0.5)), rtol=1e-12)


# u'' + O diag(k1 x, k2 x) O^T u = 0, O a constant rotation: each rotated
# component is a combination of Ai(-k^(1/3) x) and Bi(-k^(1/3) x).
_AIRY_K = (4.0, 9.0)
_AIRY_O = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]])
_AIRY_U0 = (1.0 + 0.5j, -0.3j)
_AIRY_DU0 = (0.2, 1.0 - 1.0j)


def _airy_R(x):
    return _AIRY_O @ np.diag([k * x for k in _AIRY_K]) @ _AIRY_O.T


def _airy_exact(x0, x):
    """(u, u') at x of the solution with Cauchy data (_AIRY_U0, _AIRY_DU0)
    at x0."""
    airy = pytest.importorskip("scipy.special").airy
    v0 = _AIRY_O.T @ np.asarray(_AIRY_U0)
    dv0 = _AIRY_O.T @ np.asarray(_AIRY_DU0)
    v, dv = [], []
    for k, a0, b0 in zip(_AIRY_K, v0, dv0):
        c = k ** (1.0 / 3.0)
        ai, aip, bi, bip = airy(-c * x0)
        ab = np.linalg.solve([[ai, bi], [-c * aip, -c * bip]], [a0, b0])
        ai, aip, bi, bip = airy(-c * x)
        v.append(ab[0] * ai + ab[1] * bi)
        dv.append(-c * (ab[0] * aip + ab[1] * bip))
    return _AIRY_O @ np.array(v), _AIRY_O @ np.array(dv)


def _assert_airy(samples, x0, rel):
    for smp in samples:
        u, du = _airy_exact(x0, smp.x)
        assert np.linalg.norm(smp.u - u) <= rel * np.linalg.norm(u)
        assert np.linalg.norm(smp.u_prime - du) <= rel * np.linalg.norm(du)


@pytest.mark.parametrize("v", [
    [3.0], [2.0, -1.0], [5.0, 1.0, 4.0, 1.0], [0.1, 0.7, 0.2, 0.3, 1e300],
    [1.0, math.nan, 2.0], [math.nan], [-math.inf, 1.0, math.inf, 2.0],
    list(np.random.default_rng(3).standard_normal(801))])
def test_median_is_numpys(v):
    # the middle element or the mean of the two middle ones, NaN from a NaN
    v = np.array(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = V._median(v)
    assert np.array_equal(got, np.median(v), equal_nan=True)


class TestReferenceIntegrate:
    def test_harmonic(self):
        out = V.reference_integrate(lambda x: np.array([[1.0]]), 0.0,
                                    [0.0], [1.0], math.pi / 2, tol=1e-11,
                                    dense_points=[math.pi / 2])
        assert_allclose(out[-1].u[0], 1.0, atol=1e-9)

    def test_decaying_exponential(self):
        out = V.reference_integrate(lambda x: np.array([[-1.0]]), 0.0,
                                    [1.0], [-1.0], 5.0, tol=1e-11,
                                    dense_points=[5.0])
        assert_allclose(out[-1].u[0], math.exp(-5.0), atol=1e-9)

    def test_residual_of_reference_solution(self, fex1):
        # symmetric Wronskian of two independent reference solutions drifts
        # below ~10x the integration tolerance
        tol = 1e-10
        pts = list(np.linspace(3.0, 5.0, 9))
        r_eval = lambda x: fex1.R_value(x)
        s1 = V.reference_integrate(r_eval, 3.0, [1.0, 0.0], [0.0, 0.0], 5.0,
                                   tol=tol, dense_points=pts)
        s2 = V.reference_integrate(r_eval, 3.0, [0.0, 1.0], [0.0, 0.0], 5.0,
                                   tol=tol, dense_points=pts)
        vals = [complex(np.dot(a.u, b.u_prime) - np.dot(b.u, a.u_prime))
                for a, b in zip(s1, s2)]
        drift = max(abs(v - vals[0]) for v in vals)
        assert drift <= 10 * tol * max(1.0, max(abs(v) for v in vals))

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            V.reference_integrate(lambda x: np.array([[1.0]]), 0.0, [1.0],
                                  [0.0], 1.0, tol=1e-2)

    @pytest.mark.parametrize("x_start, x_end", [(1.0, 6.0), (6.0, 1.0)])
    def test_airy_pair_closed_form(self, x_start, x_end):
        # points off any step boundary, both directions of integration
        pts = [1.37, 2.9, 3.31, 4.41, 5.83]
        got = V.reference_integrate(_airy_R, x_start, _AIRY_U0, _AIRY_DU0,
                                    x_end, tol=1e-11, dense_points=pts)
        assert [s.x for s in got] == pts
        _assert_airy(got, x_start, 1e-9)

    @pytest.mark.parametrize("x_start, x_end", [(1.0, 6.0), (6.0, 1.0)])
    def test_duplicate_unsorted_points(self, x_start, x_end):
        # one sample per point given, in ascending x, duplicates equal
        pts = [5.2, 1.5, 5.2, 3.3, 1.5, 6.0]
        got = V.reference_integrate(_airy_R, x_start, _AIRY_U0, _AIRY_DU0,
                                    x_end, tol=1e-11, dense_points=pts)
        assert [s.x for s in got] == sorted(pts)
        for a, b in ((got[0], got[1]), (got[3], got[4])):
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.u_prime, b.u_prime)
        _assert_airy(got, x_start, 1e-9)

    @pytest.mark.parametrize("x_start, x_end",
                             [(1.0, 6.0), (6.0, 1.0), (2.0, 2.0)])
    def test_default_points_are_endpoints(self, x_start, x_end):
        got = V.reference_integrate(_airy_R, x_start, _AIRY_U0, _AIRY_DU0,
                                    x_end, tol=1e-11)
        assert [s.x for s in got] == [x_start, x_end]
        _assert_airy(got, x_start, 1e-9)

    def test_no_points_no_samples(self):
        assert V.reference_integrate(_airy_R, 6.0, _AIRY_U0, _AIRY_DU0, 1.0,
                                     dense_points=[]) == []

    def test_point_outside_range_raises_before_integrating(self):
        calls = []

        def r_eval(x):
            calls.append(x)
            return np.array([[1.0]])

        with pytest.raises(ValueError, match="outside integration range"):
            V.reference_integrate(r_eval, 0.0, [1.0], [0.0], 1.0,
                                  dense_points=[0.5, 1.5])
        assert calls == []

    @pytest.mark.parametrize("r, u0, du0", [
        (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
        (1.0, math.inf, 0.0), (1.0, 1.0, complex(0.0, math.nan))])
    def test_non_finite_start_data_raises(self, r, u0, du0):
        # scipy's first step is NaN here and its step loop never ends; the
        # call cap turns a regression into a failure instead of a hang
        calls = []

        def r_eval(x):
            calls.append(x)
            assert len(calls) < 50, "integration started on bad data"
            return np.array([[r]])

        with pytest.raises(EvaluationSingularity, match="x_start = 0.5"):
            V.reference_integrate(r_eval, 0.5, [u0], [du0], 2.0)

    def test_non_finite_R_on_path_names_x(self):
        # R turns NaN past x = 1: the first step whose error is not finite
        # names the first of its stages where R was not finite, without
        # a step search (scipy's own loop makes 977 R evaluations here)
        calls = []

        def r_eval(x):
            calls.append(x)
            return np.array([[1.0 if x <= 1.0 else math.nan]])

        with np.errstate(all="ignore"), pytest.raises(
                EvaluationSingularity, match="non-finite R at x = ") as info:
            V.reference_integrate(r_eval, 0.0, [1.0], [0.0], 2.0, tol=1e-10)
        x_bad = float(str(info.value).split("x = ")[1].split(":")[0])
        assert 1.0 < x_bad <= 2.0
        assert len(calls) < 100 and calls[-1] == x_bad

    def test_pole_on_path_underflows(self):
        with np.errstate(all="ignore"), pytest.raises(StepSizeUnderflow):
            V.reference_integrate(lambda x: np.array([[1.0 / (x - 1.0)**3]]),
                                  0.0, [1.0], [0.0], 2.0)

    def test_scalar_R_eval_for_one_component(self):
        # an N = 1 R_eval may give R as a number
        as_array = V.reference_integrate(lambda x: np.array([[1.0 + x]]),
                                         0.0, [1.0], [0.5j], 2.0,
                                         dense_points=[0.5, 2.0])
        as_number = V.reference_integrate(lambda x: 1.0 + x, 0.0, [1.0],
                                          [0.5j], 2.0, dense_points=[0.5, 2.0])
        for a, b in zip(as_array, as_number):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.u_prime.tobytes() == b.u_prime.tobytes()

    @pytest.mark.parametrize("case", [
        1.0, 0.1, "backward", "unsorted repeated points", "number for N = 1",
        "rejected steps"])
    def test_right_hand_side_is_u_prime_and_minus_R_u(self, fex1, case):
        # the samples are bit for bit those of scipy's solve_ivp on the
        # (u', -R u) of the same R, from the same number of R evaluations
        from scipy.integrate import solve_ivp
        grid = [float(v) for v in np.linspace(3.0, 6.0, 13)]
        x0, u0, du0, x1, tol, pts = 3.0, [1.0, 0.5j], [0.3j, -2.0], 6.0, \
            1e-11, grid
        lam = case if isinstance(case, float) else 0.1     # fex1's lambda
        R = lambda x: fex1.R_value(x, lam)
        if case == "backward":
            x0, x1 = 6.0, 3.0
        elif case == "unsorted repeated points":
            pts = [5.5, 3.2, 6.0, 3.2, 4.4, 3.0, 5.5]
        elif case == "number for N = 1":
            R, u0, du0 = (lambda x: 1.0 + x * x), [1.0], [0.5j]
        elif case == "rejected steps":
            R = lambda x: 1.0 + 1e4 * math.exp(-((x - 1.0) / 0.01) ** 2)
            x0, u0, du0, x1, tol = 0.0, [1.0], [1j], 2.0, 1e-8
            pts = [0.0, 0.5, 0.99, 1.0, 1.01, 1.7, 2.0]
        calls = []
        got = V.reference_integrate(lambda x: (calls.append(x), R(x))[1], x0,
                                    u0, du0, x1, tol=tol, dense_points=pts)
        n = len(u0)

        def rhs(x, y):
            return np.concatenate([y[n:], -(np.atleast_2d(R(x)) @ y[:n])])
        xs, y0 = np.unique(pts), np.array(u0 + du0, dtype=complex)
        sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=tol,
                        atol=tol * 1e-2,
                        t_eval=xs if x1 > x0 else xs[::-1])
        ys = sol.y if x1 > x0 else sol.y[:, ::-1]
        assert [s.x for s in got] == sorted(pts)
        for smp, i in zip(got, np.searchsorted(xs, sorted(pts))):
            assert smp.u.tobytes() == ys[:n, i].tobytes()
            assert smp.u_prime.tobytes() == ys[n:, i].tobytes()
        assert len(calls) == sol.nfev + 1           # and the start check
        if case == "rejected steps":    # 13 of scipy's steps are rejected
            steps = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=tol,
                              atol=tol * 1e-2)
            assert (steps.nfev - 2) // 12 - (len(steps.t) - 1) == 13

    def test_work_count(self, fex1):
        # R evaluations of the benchmark's reference solve: about 3200 when
        # the interpolant is built only on steps that hold a dense point
        calls = []

        def r_eval(x):
            calls.append(x)
            return fex1.R_value(x, 0.1)

        pts = [float(v) for v in np.linspace(3.0, 6.0, 13)]
        V.reference_integrate(r_eval, 3.0, [1.0, 0.5j], [0.3j, -2.0], 6.0,
                              tol=1e-11, dense_points=pts)
        assert len(calls) <= 4000


class TestOrderScaling:
    def test_scalar_quadratic_slopes(self, scalar_quadratic, n1_engine):
        # scalar truncation n = 1 is the N = 1 engine at m_max = 2
        eng = n1_engine("x^2 + 1", 1.0, 2)

        def make_wave(lam):
            return assemble_vector_wave(eng, +1, [0.5, 1.0, 1.5], 1.0, lam)

        res = V.order_scaling(make_wave,
                              lambda lam: (lambda x: scalar_quadratic
                                           .R_value(x, lam)),
                              [0.2, 0.1, 0.05], [0.7, 1.3])
        assert res.measurable and 3.5 <= res.slope <= 4.5

    def test_order_zero_slope(self, scalar_quadratic):
        fld = BranchField(scalar_quadratic, 0, "normalized", None, anchor=1.0)
        eng = CorrectionEngine(scalar_quadratic, fld, "simplified_hermitian",
                               0, 1.0)

        def mw(lam):
            return assemble_vector_wave(eng, +1, [0.5, 1.0, 1.5], 1.0, lam)

        res = V.order_scaling(mw, lambda lam: (lambda x: scalar_quadratic
                                               .R_value(x, lam)),
                              [0.2, 0.1, 0.05], [0.7, 1.3])
        assert res.measurable and 1.5 <= res.slope <= 2.5

    def test_constant_R_not_measurable(self):
        spec = ProblemSpec(1, "reduced", ((parse_expr("1"),),), None, {},
                           (0.0, 2.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "normalized", None, anchor=0.5)
        eng = CorrectionEngine(prob, fld, "simplified_hermitian", 1, 0.5)

        def mw(lam):
            return assemble_vector_wave(eng, +1, [0.2, 0.8, 1.4], 0.5, lam)

        res = V.order_scaling(mw, lambda lam: (lambda x: prob.R_value(x, lam)),
                              [0.2, 0.1, 0.05], [0.5, 1.0])
        assert not res.measurable
        assert math.isnan(res.slope)


class TestCrossingDiagnostics:
    def test_fex1(self, fex1):
        out = V.crossing_diagnostics(fex1, 0.2, 3.0)
        assert len(out) == 1
        assert_allclose(out[0]["x_cr"], 1.0, atol=1e-4)
        assert out[0]["p"] == 1

    def test_constant_distinct(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("1"), parse_expr("0")),
                            (parse_expr("0"), parse_expr("3"))),
                           None, {}, (0.0, 4.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        assert V.crossing_diagnostics(prob, 0.0, 4.0) == []

    @pytest.mark.parametrize("name, lo, hi", [
        ("fex1", 0.2, 12.0), ("fex4", 0.5, 7.0), ("scalar_quadratic", -2, 2),
        ("complex3", -3.0, 3.0)])
    def test_stacked_gaps_equal_loop(self, request, name, lo, hi):
        # the one-matrix-at-a-time scan: the closed form |sqrt(D)| for
        # N = 2, neighbours in lexsort order for N > 2
        if name == "complex3":
            # eigenvalues x +- i and x^2/4: ties in the real part, and
            # changes of order
            e = parse_expr
            spec = ProblemSpec(3, "reduced",
                               ((e("x"), e("1"), e("0")),
                                (e("-1"), e("x"), e("0")),
                                (e("0"), e("0"), e("x^2/4"))),
                               None, {}, (lo, hi), "general")
            prob = split_R(spec, 1.0, None)
        else:
            prob = request.getfixturevalue(name)

        def loop_gap(x):
            if prob.n == 1:
                return math.inf
            if prob.n == 2:
                (a, b), (c, d) = prob.G_value(x).tolist()
                return abs(cmath.sqrt((a - d) * (a - d) + 4.0 * (b * c)))
            vals = np.linalg.eigvals(prob.G_value(x))
            vals = vals[np.lexsort((vals.imag, vals.real))]
            return min(abs(vals[i + 1] - vals[i])
                       for i in range(len(vals) - 1))

        xs = np.linspace(lo, hi, 801)
        got = V._gaps(prob.G_values(xs))
        want = [loop_gap(float(x)) for x in xs]
        if name == "complex3":
            # numpy's complex abs on an array and on a scalar may take
            # different code paths and differ in the last bit
            assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name, lo, hi, want", [
        ("fex1", 0.2, 12.0, [{"x_cr": 1.0, "p": 1}]),
        ("fex3", 0.2, 12.0, [{"x_cr": 1.0, "p": 1}]),
        ("fex4", 0.2, 12.0, [{"x_cr": 1.0, "p": 1}]),
        ("bec", 10.0, 200.0, []),
        ("block3", 0.2, 12.0, [{"x_cr": 1.0, "p": 1}, {"x_cr": 9.0, "p": 1}])])
    def test_crossing_lists(self, request, name, lo, hi, want):
        if name == "block3":        # diag(Fex1, 9): eigenvalues 1, x and 9
            e = parse_expr
            fex1 = request.getfixturevalue("fex1")
            rows = [list(r) + [e("0")] for r in fex1.G]
            spec = ProblemSpec(3, "reduced", (*map(tuple, rows),
                                              (e("0"), e("0"), e("9"))),
                               None, {}, (lo, hi), "real_symmetric")
            prob = split_R(spec, 1.0, None)
        else:
            prob = request.getfixturevalue(name)
        assert V.crossing_diagnostics(prob, lo, hi) == want

    def test_n2_gap_is_the_closed_form(self, fex1):
        # Fex1's eigenvalues are 1 and x
        xs = np.linspace(0.2, 12.0, 801)
        assert_allclose(V._gaps(fex1.G_values(xs)), np.abs(xs - 1.0),
                        rtol=0, atol=1e-14)

    def test_one_batch_run_for_the_grid(self, fex1, monkeypatch):
        # the grid is one run of the tape's array program; the ternary
        # refinement (two points a round for 80 rounds), the check at x_cr
        # and the six fit points are one G_value each
        runs, points = [], []
        grid_values = JetTape.grid_values
        g_value = ReducedProblem.G_value
        monkeypatch.setattr(JetTape, "grid_values", lambda self, xs, p: (
            runs.append(len(xs)), grid_values(self, xs, p))[1])
        monkeypatch.setattr(ReducedProblem, "G_value", lambda self, x: (
            points.append(x), g_value(self, x))[1])
        assert len(V.crossing_diagnostics(fex1, 0.2, 12.0)) == 1
        assert runs == [801]
        assert len(points) == 2 * 80 + 1 + 6

    def test_non_finite_G_on_the_grid(self):
        # x^8 overflows to inf at x = 1e40: no gap is made of it
        e = parse_expr
        spec = ProblemSpec(2, "reduced",
                           ((e("x^8"), e("0")), (e("0"), e("1"))),
                           None, {}, (0.0, 1e40), "general")
        prob = split_R(spec, 1.0, None)
        with pytest.raises(EvaluationSingularity, match="not finite"):
            V.crossing_diagnostics(prob, 0.0, 1e40)

    def test_linear_pair(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("x"), parse_expr("0")),
                            (parse_expr("0"), parse_expr("2*x"))),
                           None, {}, (-2.0, 2.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        out = V.crossing_diagnostics(prob, -2.0, 2.0)
        assert len(out) == 1
        assert_allclose(out[0]["x_cr"], 0.0, atol=1e-4)
        assert out[0]["p"] == 1


def test_reference_accuracy_tracks_tolerance(fex1):
    # the coarse-tolerance solution stays within ~10x tol of a tight one
    tol = 1e-6
    pts = [3.0, 4.0, 5.0]
    coarse = V.reference_integrate(lambda x: fex1.R_value(x), 3.0,
                                   [1.0, 0.5], [0.0, -0.2], 5.0, tol=tol,
                                   dense_points=pts)
    tight = V.reference_integrate(lambda x: fex1.R_value(x), 3.0,
                                  [1.0, 0.5], [0.0, -0.2], 5.0, tol=1e-12,
                                  dense_points=pts)
    for a, b in zip(coarse, tight):
        scale = max(1.0, float(np.linalg.norm(b.u)))
        assert np.linalg.norm(a.u - b.u) <= 10 * tol * scale


def test_pia_tracks_reference_solution_oscillatory(fex1):
    # Stable direction: all modes oscillatory, so the deviation from a
    # reference integration seeded by the order-2 wave is dominated by the
    # accumulated phase error, ~ lambda^2 over a fixed interval.
    def worst_dev(lam):
        fld = BranchField(fex1, 1, "normalized", None, anchor=3.0)
        eng = CorrectionEngine(fex1, fld, "fulling_current", 2, 3.0)
        pts = list(np.linspace(3.0, 6.0, 13))
        wave = assemble_vector_wave(eng, +1, pts, 3.0, lam)
        seed = wave.samples[0]
        ref = V.reference_integrate(lambda x: fex1.R_value(x, lam), 3.0,
                                    seed.u, seed.u_prime, 6.0, tol=1e-11,
                                    dense_points=pts)
        return max(float(np.linalg.norm(r.u - s.u) / np.linalg.norm(s.u))
                   for r, s in zip(ref, wave.samples))

    coarse, fine = worst_dev(0.2), worst_dev(0.1)
    assert fine < 0.5
    assert 2.0 < coarse / fine < 16.0      # ~ 2^2 contraction per halving
