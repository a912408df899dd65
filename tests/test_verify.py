import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseintegral.errors import GridMismatch
from phaseintegral.expressions import parse_expr
from phaseintegral.problem import ProblemSpec, split_R
from phaseintegral.scalar import Wave, WaveSample
from phaseintegral.spectral import BranchField
from phaseintegral.vector import CorrectionEngine, assemble_vector_wave
from phaseintegral import verify as V


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
