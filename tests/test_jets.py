import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from phaseintegral.errors import (
    BranchPointEvaluation, DivisionByZeroLeadCoefficient, MismatchedJets,
    OrderExceeded,
)
from phaseintegral.expressions import diff_expr, eval_expr, parse_expr
from phaseintegral.jets import (
    Jet, jet_arith, jet_const, jet_cos, jet_derivative, jet_elem, jet_exp,
    jet_ln, jet_pow, jet_sin, jet_sqrt, jet_variable, series_contract,
    series_mul,
)


def poly_jet(coeffs, x0, order):
    """Jet of a polynomial given by ascending coefficients about 0."""
    e = None
    # evaluate p(x) = sum c_k x^k via jets of the shifted variable
    xj = jet_variable(x0, order)
    out = jet_const(0.0, x0, order)
    for k, c in enumerate(coeffs):
        out = out + complex(c) * jet_pow(xj, float(k))
    return out


class TestArithmetic:
    def test_mul_polynomial_identity(self):
        one_plus = jet_const(1.0, 0.0, 2) + jet_variable(0.0, 2)
        one_minus = jet_const(1.0, 0.0, 2) - jet_variable(0.0, 2)
        prod = jet_arith("mul", one_plus, one_minus)
        assert_allclose(prod.coeffs, [1.0, 0.0, -1.0], atol=1e-15)

    def test_div_geometric_series(self):
        one = jet_const(1.0, 0.0, 3)
        den = jet_const(1.0, 0.0, 3) - jet_variable(0.0, 3)
        q = jet_arith("div", one, den)
        assert_allclose(q.coeffs, [1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_mul_sin_cos_against_symbolic_oracle(self):
        # derived expectation from the expression-level derivatives
        x0, order = 0.7, 4
        j = jet_sin(jet_variable(x0, order)) * jet_cos(jet_variable(x0, order))
        e = parse_expr("sin(x)*cos(x)")
        for p in range(order + 1):
            want = eval_expr(e, x0)
            assert_allclose(jet_derivative(j, p), want, rtol=1e-12, atol=1e-12)
            e = diff_expr(e)

    def test_mismatched_center_raises(self):
        with pytest.raises(MismatchedJets):
            jet_variable(0.0, 2) + jet_variable(1.0, 2)

    def test_mismatched_order_raises(self):
        with pytest.raises(MismatchedJets):
            jet_variable(0.0, 2) * jet_variable(0.0, 3)

    def test_div_by_zero_lead(self):
        with pytest.raises(DivisionByZeroLeadCoefficient):
            jet_const(1.0, 0.0, 2) / jet_variable(0.0, 2)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=5),
           st.lists(st.floats(-3, 3), min_size=1, max_size=5),
           st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_product_matches_coefficient_convolution(self, a, b, x0):
        order = 4
        ja = poly_jet(a, x0, order)
        jb = poly_jet(b, x0, order)
        prod = ja * jb
        full = np.convolve(a, b)
        want = poly_jet(full, x0, order)
        assert_allclose(prod.coeffs, want.coeffs,
                        rtol=1e-14, atol=1e-12 * (1 + np.max(np.abs(full))))

    def test_product_owns_its_coefficients(self):
        # a kept product must not hold the 2n - 1 convolution buffer
        a = np.arange(1.0, 9.0) + 0.5j
        prod = series_mul(a, a[::-1].copy())
        assert prod.base is None and prod.size == a.size
        assert np.array_equal(prod, np.convolve(a, a[::-1])[:a.size])

    @pytest.mark.parametrize("terms, n_vec, n", [(1, 1, 1), (9, 2, 8),
                                                 (4, 3, 15)])
    def test_contraction_matches_products(self, terms, n_vec, n):
        # one contraction against the sum of per-component products it
        # replaces; the sums run in another order, so to round-off
        rng = np.random.default_rng(terms * n)
        coefs = rng.normal(size=(terms, n)) + 1j * rng.normal(size=(terms, n))
        vecs = (rng.normal(size=(terms, n_vec, n))
                + 1j * rng.normal(size=(terms, n_vec, n)))
        want = np.array([sum(series_mul(coefs[t], vecs[t, i])
                             for t in range(terms)) for i in range(n_vec)])
        got = series_contract(coefs, vecs)
        assert got.shape == (n_vec, n)
        assert_allclose(got, want, rtol=0,
                        atol=1e-15 * terms * n * np.max(np.abs(want)))

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=4),
           st.lists(st.floats(-2, 2), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_mul_div_round_trip(self, a, b):
        order = 5
        ja = poly_jet(a, 0.3, order)
        jb = poly_jet(b, 0.3, order)
        if abs(jb.value) < 1e-6:
            return
        back = (ja * jb) / jb
        # conditioning of the division recurrence grows with max|b|/|b0|
        cond = (max(1.0, float(np.max(np.abs(jb.coeffs))))
                / abs(jb.value)) ** order
        scale = max(1.0, float(np.max(np.abs(ja.coeffs))))
        assert_allclose(back.coeffs, ja.coeffs, rtol=1e-12,
                        atol=1e-14 * scale * max(1.0, cond))


class TestElementary:
    def test_sin_maclaurin(self):
        j = jet_elem("sin", jet_variable(0.0, 3))
        assert_allclose(j.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)

    def test_sqrt_binomial(self):
        j = jet_elem("sqrt", jet_const(1.0, 0.0, 2) + jet_variable(0.0, 2))
        assert_allclose(j.coeffs, [1.0, 0.5, -0.125], atol=1e-15)

    def test_exp_of_square_against_oracle(self):
        x0, order = 1.0, 3
        j = jet_exp(jet_variable(x0, order) * jet_variable(x0, order))
        e = parse_expr("exp(x^2)")
        for p in range(order + 1):
            assert_allclose(jet_derivative(j, p), eval_expr(e, x0), rtol=1e-12)
            e = diff_expr(e)

    def test_branch_point(self):
        with pytest.raises(BranchPointEvaluation):
            jet_ln(jet_variable(0.0, 2))
        with pytest.raises(BranchPointEvaluation):
            jet_sqrt(jet_variable(0.0, 2))

    @pytest.mark.parametrize("text,builder", [
        ("exp(sin(x))", lambda g: jet_exp(jet_sin(g))),
        ("ln(2 + cos(x))", lambda g: jet_ln(2.0 + jet_cos(g))),
        ("sqrt(2 + sin(x))", lambda g: jet_sqrt(2.0 + jet_sin(g))),
        ("(1 + x^2)^(-1.5)", lambda g: jet_pow(1.0 + g * g, -1.5)),
    ])
    def test_compositions_against_symbolic(self, text, builder):
        x0, order = 0.4, 5
        j = builder(jet_variable(x0, order))
        e = parse_expr(text)
        for p in range(order + 1):
            assert_allclose(jet_derivative(j, p), eval_expr(e, x0),
                            rtol=1e-10, atol=1e-12)
            e = diff_expr(e)

    def test_random_elementary_against_oracle(self):
        # 20 random compositions vs the symbolic differentiation oracle
        rng = np.random.default_rng(7)
        funcs = ["exp", "sin", "cos", "sqrt", "ln"]
        jfuncs = {"exp": jet_exp, "sin": jet_sin, "cos": jet_cos,
                  "sqrt": jet_sqrt, "ln": jet_ln}
        for _ in range(20):
            f = funcs[rng.integers(len(funcs))]
            a, b = rng.uniform(0.2, 1.5), rng.uniform(0.5, 2.0)
            x0 = rng.uniform(0.3, 1.2)
            inner = parse_expr(f"{b} + {a}*x^2")
            text = f"{f}({b} + {a}*x^2)"
            g = jet_const(b, x0, 5) + a * (jet_variable(x0, 5) * jet_variable(x0, 5))
            j = jfuncs[f](g)
            e = parse_expr(text)
            for p in range(6):
                assert_allclose(jet_derivative(j, p), eval_expr(e, x0),
                                rtol=1e-10, atol=1e-10)
                e = diff_expr(e)


class TestDerivativeAccess:
    def test_power_rule(self):
        j = jet_pow(jet_variable(2.0, 4), 3.0)
        assert_allclose(jet_derivative(j, 1), 12.0)

    def test_order_zero_is_value(self):
        j = jet_sin(jet_variable(0.3, 2))
        assert jet_derivative(j, 0) == j.value

    def test_sin_third_derivative(self):
        j = jet_sin(jet_variable(0.0, 3))
        assert_allclose(jet_derivative(j, 3), -1.0)

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            jet_derivative(jet_variable(0.0, 2), 3)

    def test_truncated_never_extends(self):
        j = jet_variable(0.0, 2)
        assert j.truncated(5) is j
        assert j.truncated(1).order == 1

    def test_antiderivative_diff_inverse(self):
        j = jet_sin(jet_variable(0.5, 4))
        back = j.antiderivative(3.0).diff()
        assert_allclose(back.coeffs, j.coeffs)
