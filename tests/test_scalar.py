import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import scalar_corrections
from phaseintegral.errors import (
    InsufficientJetOrder, ModelSingularity, TurningPoint,
)
from phaseintegral.expressions import diff_expr, eval_expr, parse_expr
from phaseintegral.jets import jet_const, jet_variable
from phaseintegral.problem import model_epsilon00
from phaseintegral.vector import assemble_vector_wave
from phaseintegral import verify as V


def random_analytic_pair(rng, x0, order):
    """Random (eps0, Qsq) given as jets plus their expression forms."""
    a = round(float(rng.uniform(0.3, 1.2)), 4)
    b = round(float(rng.uniform(1.2, 2.5)), 4)
    c = round(float(rng.uniform(0.2, 0.9)), 4)
    eps_text = f"{a}*sin({c}*x) + {b}/x^2"
    qsq_text = f"{b} + {c}*x^2"
    from phaseintegral.expressions import eval_expr_jet
    eps = eval_expr_jet(parse_expr(eps_text), x0, order)
    qsq = eval_expr_jet(parse_expr(qsq_text), x0, order)
    return eps, qsq, eps_text, qsq_text


def symbolic_zeta_second(f_text, qsq_text, x0):
    """eps0''(zeta) via the symbolic oracle and the zeta -> x identities."""
    f = parse_expr(f_text)
    q2 = parse_expr(qsq_text)
    f1, f2 = diff_expr(f), diff_expr(diff_expr(f))
    q2v = eval_expr(q2, x0)
    q2p = eval_expr(diff_expr(q2), x0)
    return (eval_expr(f2, x0)
            - 0.5 * q2p * eval_expr(f1, x0) / q2v) / q2v


class TestRecurrence:
    def test_y2_half_eps0(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            eps, qsq, _, _ = random_analytic_pair(rng, 1.4, 6)
            sc = scalar_corrections(eps, qsq, 1)
            assert_allclose(sc.Y[1].coeffs, (0.5 * eps).coeffs, rtol=1e-13)

    def test_y4_explicit_form(self):
        # Y4 = -(eps0^2 + eps0''(zeta))/8, zeta derivative via the oracle
        rng = np.random.default_rng(4)
        for _ in range(8):
            x0 = float(rng.uniform(1.0, 2.0))
            eps, qsq, etext, qtext = random_analytic_pair(rng, x0, 8)
            sc = scalar_corrections(eps, qsq, 2)
            zeta2 = symbolic_zeta_second(etext, qtext, x0)
            want = -0.125 * (eval_expr(parse_expr(etext), x0) ** 2 + zeta2)
            assert_allclose(sc.Y[2].value, want, rtol=1e-10)

    def test_zero_eps0_kills_all_orders(self):
        eps = jet_const(0.0, 1.0, 10)
        qsq = 2.0 + jet_variable(1.0, 10)
        sc = scalar_corrections(eps, qsq, 4)
        for n in range(1, 5):
            assert np.max(np.abs(sc.Y[n].coeffs)) < 1e-15

    def test_branch_sign_invariance(self):
        # Y_2n depend only on Q^2; recomputing with -Q is the same input
        rng = np.random.default_rng(6)
        eps, qsq, _, _ = random_analytic_pair(rng, 1.3, 8)
        a = scalar_corrections(eps, qsq, 3)
        b = scalar_corrections(eps, qsq, 3)
        for n in range(4):
            assert_allclose(a.Y[n].coeffs, b.Y[n].coeffs, rtol=1e-12)

    def test_reality(self):
        # real x, real Q^2 (either sign), real a: all Y_2n real
        rng = np.random.default_rng(8)
        for sign in (+1.0, -1.0):
            eps, qsq, _, _ = random_analytic_pair(rng, 1.5, 8)
            sc = scalar_corrections(eps, sign * qsq, 3)
            for n in range(4):
                big = np.max(np.abs(sc.Y[n].coeffs)) + 1e-30
                assert np.max(np.abs(sc.Y[n].coeffs.imag)) <= 1e-12 * big

    def test_insufficient_order(self):
        with pytest.raises(InsufficientJetOrder):
            scalar_corrections(jet_const(1.0, 0.0, 2), jet_const(1.0, 0.0, 2), 2)


class TestTruncatedQ:
    def test_first_correction_linear_qsq(self, n1_engine):
        # Q^2 = x: Y_2 = eps0/2 = 5/(32 x^3), so q = sqrt(x) (1 + 5/(32 x^3))
        # at first order, lambda = 1
        x0 = 2.0
        corr = n1_engine("x", x0, 2).at(x0)
        assert_allclose(corr.Y[2].value, 5.0 / (32.0 * x0**3), rtol=1e-12)
        want = math.sqrt(x0) * (1 + 5.0 / (32.0 * x0**3))
        assert_allclose(corr.Q.value * (1 + corr.Y[2].value), want,
                        rtol=1e-12)

    def test_turning_point(self, n1_engine):
        # Q^2 = x vanishes at x = 0: the scalar q there is refused
        eng = n1_engine("x", 0.5)
        with pytest.raises(TurningPoint):
            eng.at(0.0)
        with pytest.raises(TurningPoint):
            eng.field.q_jet(0.0, 6)


class TestScalarWave:
    # the scalar wave is the N = 1 vector wave; truncation n is m_max = 2n

    def test_constant_unit_modulus(self, n1_engine):
        grid = np.linspace(0.0, 3.0, 7)
        w = assemble_vector_wave(n1_engine("1", 0.0), +1, grid, 0.0, 1.0)
        assert_allclose([abs(s.u[0]) for s in w.samples], 1.0, atol=1e-14)

    def test_exact_current_and_wronskian_positive(self, n1_engine):
        grid = np.linspace(0.0, 3.0, 9)
        eng = n1_engine("1", 0.0)
        wp = assemble_vector_wave(eng, +1, grid, 0.0, 1.0)
        wm = assemble_vector_wave(eng, -1, grid, 0.0, 1.0)
        sig_p = V.current_sigma(wp).values()
        sig_m = V.current_sigma(wm).values()
        assert_allclose(sig_p, 1.0, atol=1e-12)
        assert_allclose(sig_m, -1.0, atol=1e-12)
        W = V.wronskian(wp, wm, "symmetric").values()
        assert_allclose(W, -2.0j, atol=1e-12)

    def test_negative_qsq_real_waves(self, n1_engine):
        grid = np.linspace(0.0, 2.0, 6)
        eng = n1_engine("-1", 0.0)
        wp = assemble_vector_wave(eng, +1, grid, 0.0, 1.0)
        wm = assemble_vector_wave(eng, -1, grid, 0.0, 1.0)
        for s in list(wp.samples) + list(wm.samples):
            assert abs(s.u[0].imag) < 1e-14
        W = V.wronskian(wp, wm, "symmetric").values()
        assert_allclose(W, -2.0, atol=1e-12)
        assert_allclose(V.current_sigma(wp).values(), 0.0, atol=1e-14)

    def test_nonconstant_exact_invariants(self, n1_engine):
        # invariants hold exactly for any truncated q, not just exact ones
        eng = n1_engine("x^2 + 1", 1.0, 2)
        grid = np.linspace(0.5, 1.5, 6)
        wp = assemble_vector_wave(eng, +1, grid, 1.0, 1.0)
        wm = assemble_vector_wave(eng, -1, grid, 1.0, 1.0)
        assert_allclose(V.current_sigma(wp).values(), 1.0, atol=1e-11)
        assert_allclose(V.wronskian(wp, wm, "symmetric").values(), -2.0j,
                        atol=1e-11)

    def test_constant_R_residual_machine_floor(self, n1_engine):
        grid = np.linspace(0.0, 2.0, 5)
        w = assemble_vector_wave(n1_engine("1", 0.0), +1, grid, 0.0, 1.0)
        rows = V.residual(w, lambda x: np.array([[1.0]]))
        assert max(r / s for _, r, s in rows) < 1e-12

    def test_residual_order_scaling(self, scalar_quadratic, n1_engine):
        # R = lambda^-2 (x^2 + 1): order 2N+1 residual scales as lambda^(2N+2)
        lams = [0.2, 0.1, 0.05]
        for n_max, slope_want in ((0, 2.0), (1, 4.0)):
            eng = n1_engine("x^2 + 1", 1.0, 2 * n_max)
            res = []
            for lam in lams:
                w = assemble_vector_wave(eng, +1, [0.5, 1.0, 1.5], 1.0, lam)
                res.append(V.relative_residual(
                    w, lambda x, lv=lam: scalar_quadratic.R_value(x, lv),
                    [0.7, 1.3]))
            for ratio in (res[0] / res[1], res[1] / res[2]):
                assert 2 ** (slope_want - 0.7) < ratio < 2 ** (slope_want + 0.7)


class TestSingularityModels:
    def test_power_leading_term(self):
        m, c, x0 = 3.0, 2.0, 1.5
        got = model_epsilon00(("power", m, c), None, x0)
        assert_allclose(got, m * (m + 4) / (16 * c * x0 ** (m + 2)), rtol=1e-13)

    def test_marginal_pole_constant(self):
        got = model_epsilon00(("power", -2.0, 0.3), None, 2.0)
        assert_allclose(got, -1.0 / (4 * 0.3), rtol=1e-13)
        also = model_epsilon00(("power", -2.0, 0.3), None, 7.0)
        assert_allclose(also, got, rtol=1e-13)

    def test_constant_qsq_vanishes(self):
        got = model_epsilon00(("power", 0.0, 2.0), None, 1.3)
        assert abs(got) < 1e-15

    def test_models_match_direct_eps0(self):
        # each model formula must agree with eps0 computed directly from
        # the modeled Q^2 via the Schwartzian (independent route)
        from phaseintegral.expressions import eval_expr_jet
        from phaseintegral.spectral import _schwartzian_jet
        cases = [
            (("power", 3.0, 2.0), "0.2*x^2", "2*x^3*(1 + 0.2*x^2)"),
            (("power", -2.0, 1.0), "x", "(1/x^2)*(1 + x)"),
            (("exp_pole", 1.0, 0.7), "0.1*x", "0.7*x^(-4)*exp(1/x)*(1 + 0.1*x)"),
            (("exp_flat", 1.0, 0.7), "0.1*x", "0.7*exp(1/x)*(1 + 0.1*x)"),
            (("bounded", 0.5), "0.3*x^2", "(1/x^2)*(0.5 + 0.3*x^2)"),
        ]
        for model, d_text, qsq_text in cases:
            x0 = 0.8
            if model[0] == "bounded":
                got = model_epsilon00(model, parse_expr(d_text), x0)
            else:
                got = model_epsilon00(model, parse_expr(d_text), x0)
            qsq = eval_expr_jet(parse_expr(qsq_text), x0, 4)
            want = _schwartzian_jet(qsq).value / qsq.value
            assert_allclose(got, want, rtol=1e-10), model

    def test_singularities(self):
        with pytest.raises(ModelSingularity):
            model_epsilon00(("power", 1.0, 1.0), None, 0.0)
        with pytest.raises(ModelSingularity):
            model_epsilon00(("bounded", 0.5), parse_expr("-0.5"), 1.0)


class TestWaveErrorPaths:
    def test_turning_point_on_grid(self, n1_engine):
        # q^2 = x changes sign across the grid
        from phaseintegral.errors import TurningPointOnGrid

        eng = n1_engine("x", -1.0)
        with pytest.raises(TurningPointOnGrid):
            assemble_vector_wave(eng, +1, [-1.0, -0.5, 0.5, 1.0], -1.0, 1.0)
