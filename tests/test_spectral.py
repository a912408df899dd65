import cmath
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cauchy_coeffs
from phaseintegral import jets, spectral
from phaseintegral.errors import (
    CrossingPoint, EvaluationSingularity, GramSchmidtBreakdown, TurningPoint)
from phaseintegral.examples import example_problem
from phaseintegral.expressions import parse_expr
from phaseintegral.jets import Jet, jet_const, jet_pow, jet_variable
from phaseintegral.problem import (
    ProblemSpec, ReducedProblem, load_problem, split_R,
)
from phaseintegral.quadrature import quad
from phaseintegral.spectral import (
    BranchField, eigen_n2_closed_form, eigen_track, epsilon0, kato_gauge,
    schwartzian,
)
from phaseintegral.vector import CorrectionEngine

ZERO = parse_expr("0")


def _sign_match(got, want, tol=1e-10):
    """Componentwise equality up to one common sign (gauge freedom)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return (np.allclose(got, want, atol=tol)
            or np.allclose(got, -want, atol=tol))


class TestClosedFormEigen:
    def test_fex1_lower_branch(self, fex1):
        br = eigen_n2_closed_form(fex1, 3.0, 4, sign=+1)
        assert_allclose(br.Qsq, [1.0] + [0.0] * 4, atol=1e-12)
        assert _sign_match(br.s0_values(), [math.sin(3), -math.cos(3)])

    def test_fex1_upper_branch(self, fex1):
        br = eigen_n2_closed_form(fex1, 3.0, 4, sign=-1)
        assert_allclose(br.Qsq, [3.0, 1.0, 0, 0, 0], atol=1e-12)
        assert _sign_match(br.s0_values(), [math.cos(3), math.sin(3)])

    def test_full_degeneracy_is_crossing_for_closed_form(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("2"), ZERO), (ZERO, parse_expr("2"))),
                           None, {}, (0.0, 1.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        with pytest.raises(CrossingPoint):
            eigen_n2_closed_form(prob, 0.5, 2, sign=+1)

    def test_eigen_residual_invariant(self, fex1):
        for x in np.linspace(2.0, 10.0, 9):
            br = eigen_n2_closed_form(fex1, float(x), 3, sign=+1)
            g = fex1.G_value(float(x))
            assert br.eigen_residual(g) <= 1e-10 * (1 + np.linalg.norm(g))


class TestTracking:
    def test_fex1_both_branches_on_grid(self, fex1):
        grid = np.linspace(2.0, 10.0, 9)
        lower = eigen_track(fex1, grid, 0, 2)
        upper = eigen_track(fex1, grid, 1, 2)
        for x, bl, bu in zip(grid, lower, upper):
            assert_allclose(bl.Qsq[0], 1.0, atol=1e-12)
            assert_allclose(bu.Qsq[0], x, atol=1e-12)

    def test_constant_matrix_constant_branch(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("2"), parse_expr("1")),
                            (parse_expr("1"), parse_expr("2"))),
                           None, {}, (0.0, 4.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        branches = eigen_track(prob, np.linspace(0.0, 4.0, 7), 0, 2)
        vals = [b.Qsq[0] for b in branches]
        vecs = [b.s0_values() for b in branches]
        assert_allclose(vals, [1.0] * 7, atol=1e-13)
        for v in vecs[1:]:
            assert_allclose(v, vecs[0], atol=1e-12)

    def test_bec_branch_magnitudes(self, bec):
        # |Q| at x = 55 for k = 0.04, omega = 0.002604
        f_ge = BranchField(bec, 0, "normalized", None, anchor=55.0)
        f_se = BranchField(bec, 1, "normalized", None, anchor=55.0)
        assert_allclose(abs(cmath.sqrt(f_ge.qsq_value(55.0))), 1.41464,
                        rtol=5e-6)
        assert_allclose(abs(cmath.sqrt(f_se.qsq_value(55.0))), 0.0427842,
                        rtol=5e-6)

    def test_smoothness_of_eigenvector_field(self, fex1):
        # the normalized field must be continuous through the points where
        # the closed-form parameterization switches rows
        fld = BranchField(fex1, 0, "normalized", None, anchor=2.0)
        xs = np.linspace(2.0, 8.0, 241)    # spans cos/sin zeros
        prev = None
        for x in xs:
            v = np.array([c.value for c in fld.s0_jets(float(x), 0)])
            if prev is not None:
                assert np.linalg.norm(v - prev) < 0.1
            prev = v


class TestKatoGauge:
    def test_real_vectors_theta_zero(self, fex1):
        fld = BranchField(fex1, 0, "normalized", None, anchor=2.0)
        kato = kato_gauge(fld, 2.0)
        for x in (2.5, 4.0):
            a = [c.value for c in fld.s0_jets(x, 1)]
            b = [c.value for c in kato.s0_jets(x, 1)]
            assert_allclose(a, b, atol=1e-12)

    def test_phase_restores_real_vector(self):
        # e~ = exp(ix) {sin x, -cos x}: theta1 = -x undoes the phase
        g12 = parse_expr("(x - 1)*cos(x)*sin(x)*exp(i*x)")
        g21 = parse_expr("(x - 1)*cos(x)*sin(x)*exp(-i*x)")
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("x*cos(x)^2 + sin(x)^2"), g12),
                            (g21, parse_expr("x*sin(x)^2 + cos(x)^2"))),
                           None, {}, (2.0, 2.9), "hermitian")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "kato", None, anchor=2.2)
        for x in (2.3, 2.6, 2.8):
            e = fld.s0_jets(x, 2)
            ip = sum(c.conj().value * c.diff().value for c in e)
            assert abs(ip) < 1e-10
            norm = sum(abs(c.value) ** 2 for c in e)
            assert_allclose(norm, 1.0, atol=1e-12)

    def test_spec_example_phase_restores_real_vector(self):
        # e~ = exp(ix) {sin x, -cos x}: (e~, e~') = i, theta1 = -x up to a
        # constant, and exp(i theta1) e~ is real again.
        from phaseintegral.jets import jet_exp, jet_sin, jet_cos
        anchor, x = 1.0, 1.8
        for t in (anchor, 1.3, x):
            xj = jet_variable(t, 3)
            ph = jet_exp(1j * xj)
            e = (ph * jet_sin(xj), ph * (-1.0) * jet_cos(xj))
            ip = sum(c.conj().value * c.diff().value for c in e)
            assert_allclose(ip, 1j, atol=1e-12)
        theta1 = 1j * quad(lambda t: 1j, anchor, x)      # = -(x - anchor)
        assert_allclose(theta1, -(x - anchor), atol=1e-12)
        gauged = cmath.exp(1j * theta1) * cmath.exp(1j * x) \
            * np.array([math.sin(x), -math.cos(x)])
        # real again up to the constant phase exp(i * anchor)
        restored = gauged * cmath.exp(-1j * anchor)
        assert_allclose(restored.imag, 0.0, atol=1e-12)

    def test_quadrature_against_independent_oracle(self):
        # Within a quarter turn, the Kato vector is exp(i theta) times the
        # section pinned at the anchor, P(x) e(anchor) normalized, with
        # theta = i int (e~, e~') along it: an independent adaptive
        # quadrature on the section's closed-form jets.
        g12 = parse_expr("(x - 1)*cos(x)*sin(x)*exp(i*x)")
        g21 = parse_expr("(x - 1)*cos(x)*sin(x)*exp(-i*x)")
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("x*cos(x)^2 + sin(x)^2"), g12),
                            (g21, parse_expr("x*sin(x)^2 + cos(x)^2"))),
                           None, {}, (2.0, 2.9), "hermitian")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "kato", None, anchor=2.2)
        section = _pinned_section(prob, 0, 2.2)

        def integrand(t):
            return _section_phase_rate(section(t, 1)).value

        theta = quad(integrand, 2.2, 2.7)
        assert abs(theta.imag) < 1e-10        # theta is real
        e_kato = np.array([c.value for c in fld.s0_jets(2.7, 0)])
        e_section = _values(section(2.7, 0))
        ratio = e_kato / e_section
        assert_allclose(ratio, np.full(2, ratio[0]), atol=1e-10)
        assert_allclose(ratio[0], cmath.exp(1j * theta), atol=1e-9)

    def test_constant_complex_vector_untouched(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("2"), parse_expr("i")),
                            (parse_expr("-i"), parse_expr("2"))),
                           None, {}, (0.0, 3.0), "hermitian")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "kato", None, anchor=0.5)
        v1 = np.array([c.value for c in fld.s0_jets(0.5, 0)])
        v2 = np.array([c.value for c in fld.s0_jets(2.5, 0)])
        assert_allclose(v1, v2, atol=1e-10)


def _complex_pair_rows():
    """Fex1 with its off-diagonal phase exp(+-ix): complex eigenvectors."""
    return [[parse_expr("x*cos(x)^2 + sin(x)^2"),
             parse_expr("(x - 1)*cos(x)*sin(x)*exp(i*x)")],
            [parse_expr("(x - 1)*cos(x)*sin(x)*exp(-i*x)"),
             parse_expr("x*sin(x)^2 + cos(x)^2")]]


def _hermitian(rows):
    spec = ProblemSpec(len(rows), "reduced", tuple(map(tuple, rows)), None,
                       {}, (2.0, 2.9), "hermitian")
    return split_R(spec, 1.0, None)


def _pinned_section(prob, rank, anchor):
    """(t, order) -> the jets of P(t) e / |P(t) e|, e the branch's unit
    eigenvector at the anchor: a section pinned there, smooth within a
    quarter turn of it.  P = (G - mu)/(Q**2 - mu) is the N = 2 closed form
    on G's jets and the two branches' Q**2 (mu the other's), so no
    eigenvector path of the library enters."""
    fields = [BranchField(prob, r, "normalized", None, anchor=anchor)
              for r in (0, 1)]
    e = _values(fields[rank].s0_jets(anchor, 0))

    def section(t, order):
        qsq = fields[rank].qsq_jet(t, order)
        mu = fields[1 - rank].qsq_jet(t, order)
        g = prob.G_jet(t, order)
        pe = [(g[i][0] * e[0] + g[i][1] * e[1] - mu * e[i]) / (qsq - mu)
              for i in (0, 1)]
        norm = jets.jet_sqrt(pe[0].conj() * pe[0] + pe[1].conj() * pe[1])
        return [c / norm for c in pe]
    return section


def _section_phase_rate(e):
    """i (e, e') of a unit vector of jets, one order short."""
    return 1j * sum(c.truncated(c.order - 1).conj() * c.diff() for c in e)


def _turning_field(phase):
    """G = U diag(1, 3) U^H, U = [[cos x, -sin x w], [sin x conj(w),
    cos x]], w = exp(i phase): its eigenvectors turn at unit rate, so a
    section pinned at 1 vanishes at 1 + pi/2."""
    rows = [["cos(x)^2 + 3*sin(x)^2", f"-2*cos(x)*sin(x)*exp(i*({phase}))"],
            [f"-2*cos(x)*sin(x)*exp(-i*({phase}))", "sin(x)^2 + 3*cos(x)^2"]]
    return {"n": 2, "form": "reduced", "R": rows, "params": {},
            "domain": [-2.0, 8.0], "hermitian_hint": "hermitian",
            "lambda": 1.0}


def _rotated_vector(x, phase, rank):
    """The columns of U (`_turning_field`) as jets: rank 0 (cos x, sin x
    conj(w)), rank 1 (-sin x w, cos x)."""
    w = jets.jet_exp(1j * phase)
    c, s = jets.jet_cos(x), jets.jet_sin(x)
    return (c, s * w.conj()) if rank == 0 else (-1.0 * s * w, c)


def _one_phase_off(fld, vector, anchor, xs):
    """Largest difference of the field's s0 coefficients, orders 0-3 at
    xs, from those of vector(x) times the one constant phase that matches
    the two at the anchor."""
    def coeffs(vec):
        return np.array([c.coeffs for c in vec])
    alpha = np.vdot(_values(vector(anchor)), _values(fld.s0_jets(anchor, 0)))
    assert abs(abs(alpha) - 1.0) < 1e-12
    return max(np.max(np.abs(coeffs(fld.s0_jets(x, 3))
                             - alpha * coeffs(vector(x)))) for x in xs)


class TestKatoOracles:
    """The Kato vector against closed forms, on both sides of a quarter
    turn from the anchor: each walk step carries its own phase, so no
    section pinned at the anchor is there to vanish."""

    XS = [float(x) for x in np.linspace(-1.5, 7.9, 48)]

    @pytest.mark.parametrize("gauge", ["kato", "normalized"])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_berry_phase(self, gauge, rank):
        # w = exp(ix): the Kato vectors are exp(+-i theta) times the columns
        # of U, with theta = int_1^x sin^2 = (x - 1)/2 - (sin 2x - sin 2)/4,
        # up to one constant phase; a complex unit vector is the Kato
        # vector in either gauge
        spec, lam, a = load_problem(_turning_field("x"))
        fld = BranchField(split_R(spec, lam, a), rank, gauge, None,
                          anchor=1.0)

        def kato(x):
            t = jet_variable(x, 3)
            theta = (t - 1.0) * 0.5 - (jets.jet_sin(2.0 * t)
                                       - math.sin(2.0)) * 0.25
            turn = jets.jet_exp((1j if rank == 0 else -1j) * theta)
            return [turn * c for c in _rotated_vector(t, t, rank)]

        assert _one_phase_off(fld, kato, 1.0, self.XS) <= 1e-12

    @pytest.mark.parametrize("rank", [0, 1])
    def test_quarter_turn(self, rank):
        # w = exp(0.7i): (e, e') = 0 for the columns of U themselves, so
        # the Kato vector is one of them times a constant phase, on both
        # sides of 1 + pi/2
        spec, lam, a = load_problem(_turning_field("0.7"))
        fld = BranchField(split_R(spec, lam, a), rank, "kato", None,
                          anchor=1.0)
        assert _one_phase_off(fld, lambda x: _rotated_vector(
            jet_variable(x, 3), jet_const(0.7, x, 3), rank), 1.0,
            self.XS) <= 1e-12

    def test_cli_past_the_quarter_turn(self, capsys, tmp_path):
        from phaseintegral.cli import main
        path = tmp_path / "turn.json"
        path.write_text(json.dumps(_turning_field("0.7")))
        code = main(["corrections", "--problem", str(path), "--branch", "0",
                     "--theory", "simplified", "--order", "1", "--at", "3",
                     "--anchor", "1"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert out


class TestObliqueKato:
    """The nonhermitian example is D Fex1 D^-1 with D = diag(1, -i/2):
    rank 0's eigenvector above the crossing at 1 is (sin x, i cos x/2),
    real up to the constant i in its second component, so (e, e') = 0 for
    it normalized, and it is the Kato vector up to one constant phase."""

    @pytest.mark.parametrize("rank", [0, 1])
    def test_against_closed_form(self, rank):
        # rank 1's is (cos x, -i sin x/2); below 1 the walk from 2.0 meets
        # the crossing
        prob = split_R(*load_problem(example_problem("nonhermitian")))
        fld = BranchField(prob, rank, "kato", None, anchor=2.0)

        def kato(x):
            t = jet_variable(x, 3)
            c, s = jets.jet_cos(t), jets.jet_sin(t)
            u = (s, 0.5j * c) if rank == 0 else (c, -0.5j * s)
            norm = jets.jet_sqrt(u[0] * u[0] + u[1].conj() * u[1])
            return [v / norm for v in u]

        xs = [float(x) for x in np.linspace(0.25, 11.95, 60)]
        for x in xs[:4]:
            with pytest.raises(CrossingPoint):
                fld.s0_jets(x, 3)
        assert xs[3] < 1.0 < xs[4]
        assert _one_phase_off(fld, kato, 2.0, xs[4:]) <= 1e-12


class TestKatoGaugeBlock3:
    """The complex pair embedded as diag(pair, 9), in the Kato gauge."""

    @pytest.fixture(scope="class")
    def probs(self):
        rows = _complex_pair_rows()
        block = [r + [ZERO] for r in rows] + [[ZERO, ZERO, parse_expr("9")]]
        return _hermitian(rows), _hermitian(block)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_parallel_transport(self, probs, rank):
        # For the pair and for the block: (e, e') = 0 in the jets, and the
        # values are the parallel transport of the anchor's vector, the
        # limit of e <- P(t) e / |P(t) e| on a fine grid of numpy
        # eigenprojections
        prob2 = probs[0]
        for prob in probs:
            fld = BranchField(prob, rank, "kato", None, anchor=2.2)
            e = _values(fld.s0_jets(2.2, 0))
            for t in np.linspace(2.2, 2.6, 2001)[1:]:
                vec = np.linalg.eigh(prob2.G_value(float(t)))[1][:, rank]
                e[:2] = vec * np.vdot(vec, e[:2])
                e /= np.linalg.norm(e)
            for x in (2.3, 2.6, 2.8):
                jets = fld.s0_jets(x, 3)
                ip = sum(c.conj().value * c.diff().value for c in jets)
                assert abs(ip) < 1e-12
            assert_allclose(_values(fld.s0_jets(2.6, 0)), e, atol=1e-6)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_matches_n2_engine(self, probs, rank):
        # Y_m, the conserving coordinates and s_m are the N = 2 Kato
        # engine's: both walk the same steps with the same phases
        from phaseintegral.vector import CorrectionEngine
        prob2, prob3 = probs
        engines = [CorrectionEngine(p, BranchField(p, rank, "kato", None,
                                                   anchor=2.2),
                                    "fulling_current", 2, 2.2)
                   for p in (prob2, prob3)]
        for x in (2.2, 2.6):
            c2, c3 = (e.at(x) for e in engines)
            for m in (1, 2):
                assert_allclose(c3.Y[m].value, c2.Y[m].value, rtol=1e-12,
                                atol=1e-13)
                assert_allclose(c3.c_par[m].value, c2.c_par[m].value,
                                rtol=1e-12, atol=1e-13)
                assert_allclose(_values(c3.s[m]),
                                list(_values(c2.s[m])) + [0.0], atol=1e-12)


class TestNormalizedGaugeBlock3:
    """An N = 2 pair and diag(pair, 9) give the same normalized gauge: both
    apply the closed-form or the reduction-process P to the same continued
    vector."""

    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("pair, hint, anchor, xs", [
        ("complex", "hermitian", 2.2, (2.3, 2.6, 2.8)),
        ("fex4", "general", 2.0, (2.4, 3.0, 3.3))], ids=["complex", "fex4"])
    def test_s0_jets(self, pair, hint, anchor, xs, rank):
        rows = _complex_pair_rows() if pair == "complex" else [
            [parse_expr(e) for e in r]
            for r in example_problem("nonhermitian")["R"]]
        block = [r + [ZERO] for r in rows] + [[ZERO, ZERO, parse_expr("9")]]
        f2, f3 = (BranchField(split_R(ProblemSpec(
            len(r), "reduced", tuple(map(tuple, r)), None, {}, (0.2, 8.5),
            hint), 1.0, None), rank, "normalized", None, anchor=anchor)
            for r in (rows, block))
        for x in xs:
            e2 = [c.coeffs for c in f2.s0_jets(x, 6)]
            e3 = [c.coeffs for c in f3.s0_jets(x, 6)]
            assert_allclose(e3, e2 + [np.zeros(7)], rtol=0, atol=1e-13)


def _values(vec):
    return np.array([c.value for c in vec])


def _matmul(a, b):
    """Product of matrices of expression strings ("0" is an exact zero)."""
    n = len(a)
    return [[" + ".join(f"({a[i][k]})*({b[k][j]})" for k in range(n)
                        if a[i][k] != "0" and b[k][j] != "0") or "0"
             for j in range(n)] for i in range(n)]


def _fex1_block():
    """The rows of diag(Fex1, 11 + sin x) as expression strings."""
    return [r + ["0"] for r in example_problem("fulling-pos")["R"]] \
        + [["0", "0", "11 + sin(x)"]]


def _reduced(rows, hint):
    mat = tuple(tuple(parse_expr(e) for e in r) for r in rows)
    return split_R(ProblemSpec(len(rows), "reduced", mat, None, {},
                               (0.2, 8.5), hint), 1.0, None)


def _oblique3():
    """S diag(Fex1, 11 + sin x) S^-1 with a constant non-unitary S."""
    s = [["1", "i/2", "0"], ["0", "1", "1/3"], ["0", "0", "1"]]
    s_inv = [["1", "-i/2", "i/6"], ["0", "1", "-1/3"], ["0", "0", "1"]]
    return _reduced(_matmul(_matmul(s, _fex1_block()), s_inv), "general")


def _rotated3():
    """U diag(Fex1, 11 + sin x) U^T with a constant rational rotation U."""
    u = [["3/5", "-4/13", "48/65"], ["4/5", "3/13", "-36/65"],
         ["0", "12/13", "5/13"]]
    u_t = [list(r) for r in zip(*u)]
    return _reduced(_matmul(_matmul(u, _fex1_block()), u_t), "real_symmetric")


class TestObliqueProjector:
    """G = S diag(Fex1, r3) S^-1 with a constant non-unitary S: Fex1's
    eigenvalues, and eigenvector jets that must solve (G - Q^2) e = 0
    order by order, in the normalized gauge."""

    @pytest.mark.parametrize("rank", [0, 1])
    def test_eigen_jets(self, fex1, rank):
        prob = _oblique3()
        fld = BranchField(prob, rank, "normalized", None, anchor=2.5)
        pair = BranchField(fex1, rank, "normalized", None, anchor=2.5)
        order = 8
        for x in (2.5, 3.1, 4.7):
            qsq = fld.qsq_jet(x, order)
            assert_allclose(qsq.coeffs, pair.qsq_jet(x, order).coeffs,
                            rtol=0, atol=1e-12)
            e = fld.s0_jets(x, order)
            g = prob.G_jet(x, order)
            for i in range(3):
                res = sum(g[i][j] * e[j] for j in range(3)) - qsq * e[i]
                assert_allclose(res.coeffs, 0.0, atol=1e-11)
            # |e| = 1 and (e(x), e) real and positive along the jet, which
            # the oblique P e(x) alone does not give
            unit = np.zeros(order + 1)
            unit[0] = 1.0
            assert_allclose(sum(c.conj() * c for c in e).coeffs, unit,
                            atol=1e-12)
            ref = _values(e)
            along = sum(c * complex(r).conjugate() for r, c in zip(ref, e))
            assert_allclose(along.coeffs.imag, 0.0, atol=1e-12)
            assert along.value.real > 0.0


def _series_product(a, b):
    """Cauchy product of two matrix series, coefficients orders first."""
    return np.array([sum(a[j] @ b[t - j] for j in range(t + 1))
                     for t in range(len(a))])


class TestReducedResolvent:
    """S from _eigen_jets against its definition, order by order:
    S (G - Q^2) = (G - Q^2) S = I - P and S P = P S = 0, with G from
    G_jet; for the d = 2 cluster also against mpmath at 30 digits."""

    ORDER = 8

    def _check(self, prob, rank, anchor, xs):
        fld = BranchField(prob, rank, "normalized", None, anchor=anchor)
        n = prob.n
        unit = np.zeros((self.ORDER + 1, n, n))
        unit[0] = np.eye(n)
        for x in xs:
            qsq, proj, res = fld._eigen_jets(x, self.ORDER)
            g = np.array([[c.coeffs for c in row]
                          for row in prob.G_jet(x, self.ORDER)]
                         ).transpose(2, 0, 1)
            shifted = g - qsq[:, None, None] * unit[0]
            for got, want in ((_series_product(res, shifted), unit - proj),
                              (_series_product(shifted, res), unit - proj),
                              (_series_product(res, proj), 0.0),
                              (_series_product(proj, res), 0.0)):
                assert_allclose(got, want, rtol=0, atol=1e-12)
        return fld

    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("case", ["fex1", "fex4", "block3", "rotated",
                                      "oblique"])
    def test_definition(self, case, rank, request):
        prob = {"fex1": lambda: request.getfixturevalue("fex1"),
                "fex4": lambda: request.getfixturevalue("fex4"),
                "block3": _block3, "rotated": _rotated3,
                "oblique": _oblique3}[case]()
        anchor = 2.0 if case == "fex4" else 2.5
        self._check(prob, rank, anchor, (anchor, 3.1, 4.7))

    def test_degenerate_cluster(self, deg3):
        # S = R diag(0, 0, 1/(g - f)) R^T for G = R diag(f, f, g) R^T
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def resolvent(i, j):
            def entry(t):
                c, s = mpmath.cos(t / 4), mpmath.sin(t / 4)
                rot = mpmath.matrix([[c, 0, s], [0, 1, 0], [-s, 0, c]])
                gap = (8 + t ** 2 / 5) - (t + 3)
                return (rot * mpmath.diag([0, 0, 1 / gap]) * rot.T)[i, j]
            return entry

        xs = (2.0, 2.3, 2.9)
        fld = self._check(deg3, 0, 2.0, xs)
        for x in xs:
            res = fld._eigen_jets(x, self.ORDER)[2]
            for i in range(3):
                for j in range(3):
                    want = [complex(c) for c in mpmath.taylor(
                        resolvent(i, j), x, self.ORDER)]
                    assert_allclose(res[:, i, j], want, rtol=0, atol=1e-13)


class _LapackBranch:
    """Q**2, P and S of one branch at complex z from LAPACK alone, packed
    as one vector: P = V[:, c] (V^-1)[c, :] and
    S = sum_{j not in c} P_j/(lambda_j - Q**2), where the cluster c is the
    d eigenvalues nearest the last Q**2, so that calls along a path follow
    the branch by nearest neighbour."""

    def __init__(self, prob, qsq, d):
        self.prob, self.last, self.d = prob, qsq, d

    def __call__(self, z):
        vals, vecs = np.linalg.eig(self.prob.G_value(z))
        left = np.linalg.inv(vecs)
        inside = np.zeros(len(vals), dtype=bool)
        inside[np.argsort(np.abs(vals - self.last))[:self.d]] = True
        qsq = self.last = vals[inside].mean()
        proj = vecs[:, inside] @ left[inside]
        res = (vecs[:, ~inside] / (vals[~inside] - qsq)) @ left[~inside]
        return np.concatenate(([qsq], proj.ravel(), res.ravel()))


def _cauchy_mismatch(prob, x0, r, qsq, proj, res, d):
    """max over coefficients k <= order of |lib_k - c_k| r**k / rms, for each
    of Q**2, P and S; c_k are the Cauchy coefficients of `_LapackBranch` on
    the circle |z - x0| = r, rms the RMS of its values there."""
    oracle = _LapackBranch(prob, qsq[0], d)
    for t in np.linspace(0.0, r, 17)[1:-1]:     # out to the circle's start
        oracle(x0 + t)
    got = cauchy_coeffs(oracle, x0, r, 64)
    order, n = len(qsq) - 1, prob.n
    powers = r ** np.arange(64)[:, None]
    out = []
    for part, lib in zip(np.split(got, [1, 1 + n * n], axis=1),
                         (qsq, proj, res)):
        scaled = part * powers
        rms = np.sqrt(np.sum(np.abs(scaled) ** 2))
        err = (np.abs(part[:order + 1] - lib.reshape(order + 1, -1))
               * powers[:order + 1])
        out.append(np.max(err) / rms)
    return out


class TestCauchyOracle:
    """Q**2, P and S from `_eigen_jets` at order 8 against the Cauchy
    coefficients of a LAPACK eigen-solve at complex z, which shares no
    Taylor kernel with the library: on two circles, each well inside the
    distance to the nearest crossing or pole, to 1e-12 of the circle's RMS
    per coefficient."""

    ORDER = 8
    CASES = {    # name: (x0, radii, ranks)
        "fex1": (3.0, (0.5, 1.0), (0, 1)),      # crossing at x = 1
        "fex3": (3.0, (0.5, 1.0), (0, 1)),
        "fex4": (3.0, (0.5, 1.0), (0, 1)),      # oblique P
        "bec": (30.0, (3.0, 6.0), (0, 1)),      # pole at 0, branch points +-1
        "block3": (3.0, (0.5, 1.0), (0, 1, 2)),  # crossings at 1 and 9
        "deg3": (2.0, (0.5, 1.0), (0, 2)),      # d = 2; crossings 2.5 +- 4.3i
    }

    def _jets(self, name, rank, request):
        prob = _block3() if name == "block3" else request.getfixturevalue(name)
        x0 = self.CASES[name][0]
        fld = BranchField(prob, rank, "normalized", None, anchor=x0)
        return prob, x0, fld.degeneracy(x0), fld._eigen_jets(x0, self.ORDER)

    @pytest.mark.parametrize("name, rank", [
        (name, rank) for name, (_, _, ranks) in CASES.items()
        for rank in ranks])
    def test_eigen_jets(self, name, rank, request):
        prob, x0, d, jets = self._jets(name, rank, request)
        for r in self.CASES[name][1]:
            worst = _cauchy_mismatch(prob, x0, r, *jets, d)
            assert max(worst) <= 1e-12, (name, rank, r, worst)

    def test_catches_a_wrong_projector_coefficient(self, request):
        prob, x0, d, (qsq, proj, res) = self._jets("fex4", 1, request)
        proj = proj.copy()
        proj[4, 0, 1] += 1e-9
        worst = _cauchy_mismatch(prob, x0, 0.5, qsq, proj, res, d)
        assert worst[1] > 1e-12, worst


class TestComplement:
    def test_fex1(self, fex1):
        fld = BranchField(fex1, 0, "normalized", None, anchor=3.0)
        s0 = fld.s0_jets(3.0, 1)
        (perp,) = fld.complement_jets(3.0, 1)
        assert _sign_match([c.value for c in perp],
                           [math.cos(3), math.sin(3)])
        ip = s0[0].conj().value * perp[0].value \
            + s0[1].conj().value * perp[1].value
        assert abs(ip) < 1e-12

    def test_nonnormalized_convention(self, fex4):
        # s0 = {2 sin x, i cos x} -> s_perp = {i cos x, 2 sin x}
        fld = BranchField(fex4, 0, "raw", parse_expr("2*sin(x)"), anchor=2.0)
        (perp,) = fld.complement_jets(3.0, 0)
        assert_allclose([c.value for c in perp],
                        [1j * math.cos(3), 2 * math.sin(3)], atol=1e-12)

    def test_axis_vector(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("1"), ZERO), (ZERO, parse_expr("3"))),
                           None, {}, (0.0, 1.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "normalized", None, anchor=0.5)
        s0 = [c.value for c in fld.s0_jets(0.5, 0)]
        (perp,) = fld.complement_jets(0.5, 0)
        assert _sign_match(s0, [1.0, 0.0])
        assert _sign_match([c.value for c in perp], [0.0, 1.0])

    def test_coupled_3x3_sibling_fields(self):
        # N > 2: the complement is the other ranks' eigenvectors, each from
        # a sibling field; block3 with its third component coupled in
        rows = [["x*cos(x)^2 + sin(x)^2", "(x - 1)*cos(x)*sin(x)",
                 "0.3*sin(x)"],
                ["(x - 1)*cos(x)*sin(x)", "x*sin(x)^2 + cos(x)^2",
                 "0.2*cos(x)"],
                ["0.3*sin(x)", "0.2*cos(x)", "9"]]
        spec = ProblemSpec(3, "reduced",
                           tuple(tuple(parse_expr(t) for t in r)
                                 for r in rows),
                           None, {}, (0.2, 8.5), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        h = 1e-5

        def values(fld, x):
            return np.array([[c.value for c in v]
                             for v in fld.complement_jets(x, 0)])

        for rank in range(3):
            fld = BranchField(prob, rank, "normalized", None, anchor=3.0)
            for x in (2.65, 3.05, 3.45):
                comp = fld.complement_jets(x, 1)
                vals = np.array([[c.value for c in v] for v in comp])
                s0 = np.array([c.value for c in fld.s0_jets(x, 0)])
                g = prob.G_value(x)
                assert vals.shape == (2, 3)
                assert np.abs(vals.conj() @ vals.T - np.eye(2)).max() < 1e-12
                assert np.abs(vals.conj() @ s0).max() < 1e-12
                for v in vals:
                    assert np.linalg.norm(g @ v - (v.conj() @ g @ v) * v) \
                        < 1e-12
                slope = (values(fld, x + h) - values(fld, x - h)) / (2 * h)
                first = np.array([[c.coeffs[1] for c in v] for v in comp])
                assert np.abs(first - slope).max() < 1e-8, (rank, x)


class TestSchwartzianAndEps0:
    def test_constant_q(self):
        assert schwartzian(jet_const(4.0, 1.0, 3)) == 0.0

    def test_qsq_linear(self):
        # q^2 = x at x0 = 2: S = (5/16)(1/x)^2 = 5/64
        s = schwartzian(jet_variable(2.0, 3))
        assert_allclose(s, 5.0 / 64.0, rtol=1e-13)

    def test_qsq_quartic(self):
        # q^2 = x^4 at x0 = 1: (5/16)*16 - (1/4)*12 = 2
        j = jet_pow(jet_variable(1.0, 4), 4.0)
        assert_allclose(schwartzian(j), 2.0, rtol=1e-13)

    def test_product_rule_numeric(self):
        # S_x[q1 q21] = S_x[q1] + q1^2 S_x1[q21], x1 = int q1 dx, checked
        # for q1 = exp(x/3), q21(x1) with x1(x) known analytically.
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = float(rng.uniform(0.2, 0.8))
            b = float(rng.uniform(0.5, 1.5))
            x0 = float(rng.uniform(0.3, 1.5))
            K = 4
            q1 = lambda x, k: np.exp(a * x) * np.ones(1)  # placeholder
            # jets: q1 = exp(a x), q21 = b + x^2 evaluated at x1(x) = exp(ax)/a
            from phaseintegral.jets import jet_exp
            q1j = jet_exp(a * jet_variable(x0, K))
            x1_of_x = jet_exp(a * jet_variable(x0, K)) * (1.0 / a)
            q21_of_x1 = lambda xj: b + xj * xj
            comp = q21_of_x1(x1_of_x)
            lhs = schwartzian((q1j * comp) * (q1j * comp))
            # S_x1[q21] evaluated at x1(x0), via a jet in the x1 variable
            x1v = math.exp(a * x0) / a
            q21j = q21_of_x1(jet_variable(x1v, K))
            s21 = schwartzian(q21j * q21j)
            rhs = schwartzian(q1j * q1j) + (q1j.value ** 2) * s21
            assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            alpha = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            j = (2.0 + jet_variable(1.1, 4)) * (1.0 + 0.3 * jet_variable(1.1, 4))
            assert_allclose(schwartzian((alpha * alpha) * j), schwartzian(j),
                            rtol=1e-12)

    def test_eps0_linear_qsq(self, fex1):
        # Q^2 = x: eps0 = 5/(16 x^3)
        br = eigen_n2_closed_form(fex1, 2.0, 6, sign=-1)
        e = epsilon0(br, ZERO, 2.0, 3)
        assert_allclose(e.value, 5.0 / (16.0 * 8.0), rtol=1e-12)

    def test_eps0_constant_qsq(self, fex1):
        br = eigen_n2_closed_form(fex1, 3.0, 6, sign=+1)   # Q^2 = 1
        e = epsilon0(br, ZERO, 3.0, 2)
        assert abs(e.value) < 1e-12

    def test_eps0_constant_with_auxiliary(self):
        spec = ProblemSpec(1, "reduced", ((parse_expr("4"),),), None, {},
                           (0.5, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "normalized", None, anchor=1.0)
        br = fld.branch(1.3, 4)
        a = parse_expr("sin(x)")
        e = epsilon0(br, a, 1.3, 2)
        assert_allclose(e.value, math.sin(1.3) / 4.0, rtol=1e-12)

    def test_eps0_branch_sign_invariance(self, fex1):
        fp = BranchField(fex1, 1, "normalized", None, anchor=2.0, q_sign=+1)
        fm = BranchField(fex1, 1, "normalized", None, anchor=2.0, q_sign=-1)
        assert_allclose(fp.eps0_jet(3.0, 2).coeffs, fm.eps0_jet(3.0, 2).coeffs,
                        rtol=1e-13)

    def test_turning_point_refused(self):
        spec = ProblemSpec(1, "reduced", ((parse_expr("x"),),), None, {},
                           (-1.0, 1.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "normalized", None, anchor=0.5)
        with pytest.raises(TurningPoint):
            fld.eps0_jet(0.0, 2)

    @pytest.mark.parametrize("g, gauge, s0", [
        ([["x"]], "normalized", [1.0]),
        ([["x + 1", "1"], ["1", "1"]], "normalized", [2 ** -0.5, -2 ** -0.5]),
        ([["x + 1", "1"], ["1", "1"]], "kato", [2 ** -0.5, -2 ** -0.5]),
        ([["x + 1", "1"], ["1", "1"]], "raw", [1.0, -1.0]),
    ], ids=["scalar", "normalized", "kato", "raw"])
    def test_track_through_turning_point(self, g, gauge, s0):
        """Q**2 = 0 is a regular point of the branch: tracking returns it
        with its eigenvector; only the correction engine, which needs Q,
        refuses it."""
        rows = tuple(tuple(map(parse_expr, row)) for row in g)
        spec = ProblemSpec(len(rows), "reduced", rows, None, {},
                           (-1.0, 1.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        gauge_g = parse_expr("1") if gauge == "raw" else None
        track = eigen_track(prob, [-0.5, 0.0, 0.5], 0, 2, gauge, gauge_g)
        g0 = np.ones((2, 2)) if len(rows) == 2 else np.zeros((1, 1))
        assert track[1].eigen_residual(g0) < 1e-14
        assert_allclose(track[1].s0_values(), s0, atol=1e-14)
        fld = BranchField(prob, 0, gauge, gauge_g, anchor=-0.5)
        engine = CorrectionEngine(prob, fld, "simplified_hermitian", 2, -0.5)
        with pytest.raises(TurningPoint):
            engine.at(0.0)


class TestErrorPaths:
    def test_degenerate_parameterization(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("1"), ZERO), (ZERO, parse_expr("3"))),
                           None, {}, (0.0, 1.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        from phaseintegral.errors import DegenerateParameterization
        fld = BranchField(prob, 0, "raw", parse_expr("1"), anchor=0.5)
        with pytest.raises(DegenerateParameterization):
            fld.s0_jets(0.5, 1)

    def test_crossing_guard(self, fex1):
        fld = BranchField(fex1, 0, "normalized", None, anchor=2.0)
        with pytest.raises(CrossingPoint):
            fld.qsq_jet(1.0, 2)

    def test_module_level_complement(self, fex1):
        from phaseintegral.spectral import complement_basis
        fld = BranchField(fex1, 0, "normalized", None, anchor=3.0)
        basis = complement_basis(fld, 3.0, 1)
        assert len(basis.vectors) == 1
        (vec,) = basis.vectors
        norm = sum(abs(c.value) ** 2 for c in vec)
        assert abs(norm - 1.0) < 1e-12


# --------------------------------------------------------------------------
# d = N, decided from G's AST
# --------------------------------------------------------------------------

def _scalar_diag(lam=1.0, diag=("x^2 + 1", "x^2 + 1")):
    spec = ProblemSpec(2, "reduced",
                       ((parse_expr(diag[0]), ZERO), (ZERO, parse_expr(diag[1]))),
                       None, {}, (0.5, 3.0), "real_symmetric")
    return split_R(spec, lam, None)


def _block3():
    rows = [["x*cos(x)^2 + sin(x)^2", "(x - 1)*cos(x)*sin(x)", "0"],
            ["(x - 1)*cos(x)*sin(x)", "x*sin(x)^2 + cos(x)^2", "0"],
            ["0", "0", "9"]]
    spec = ProblemSpec(3, "reduced",
                       tuple(tuple(parse_expr(t) for t in r) for r in rows),
                       None, {}, (0.2, 8.5), "real_symmetric")
    return split_R(spec, 1.0, None)


def _probed_full_degeneracy(field, x):
    """The former numeric test: G = c I at x and x +- h, to 1e-10."""
    h = 1e-2 * (1.0 + abs(x))
    for t in (x, x + h, x - h):
        g = field.prob.G_value(t)
        off = g - np.diag(np.diag(g))
        spread = np.max(np.abs(np.diag(g) - g[0, 0]))
        if np.max(np.abs(off)) + spread > 1e-10 * (1.0 + np.max(np.abs(g))):
            return False
    return True


class TestFullDegeneracy:
    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_scalar_matrix_needs_no_evaluation(self, lam, monkeypatch):
        prob = _scalar_diag(lam)
        if lam != 1.0:      # off-diagonal entries are Mul(lambda^2, 0)
            assert prob.G[0][1] != ZERO
        calls = [0]
        value = type(prob).G_value

        def counted(self, x):
            calls[0] += 1
            return value(self, x)

        monkeypatch.setattr(type(prob), "G_value", counted)
        fld = BranchField(prob, 0, "normalized", None, anchor=1.0)
        assert all(fld.full_degeneracy_region(x) for x in (0.7, 1.0, 2.9))
        assert calls[0] == 0

    @pytest.mark.parametrize("name", ["fex1", "fex4", "bec", "block3"])
    def test_coupled_problems_are_not_scalar(self, name, request):
        prob = _block3() if name == "block3" else request.getfixturevalue(name)
        fld = BranchField(prob, 0, "normalized", None)
        lo, hi = prob.domain
        for x in np.linspace(lo, hi, 9)[1:-1]:
            assert fld.full_degeneracy_region(float(x)) is False
            assert _probed_full_degeneracy(fld, float(x)) is False

    def test_scalar_matrix_agrees_with_probe(self):
        for lam in (1.0, 0.3):
            fld = BranchField(_scalar_diag(lam), 1, "normalized", None,
                              anchor=1.0)
            for x in (0.7, 1.0, 2.9):
                assert fld.full_degeneracy_region(x) is True
                assert _probed_full_degeneracy(fld, x) is True

    def test_scalar_matrix_written_otherwise_fails_loudly(self):
        # c(x) I only through an identity: refused, never answered
        from phaseintegral.errors import UnsupportedDegeneracy
        from phaseintegral.vector import CorrectionEngine
        prob = _scalar_diag(diag=("x^2 + 1", "1 + x^2"))
        fld = BranchField(prob, 0, "normalized", None, anchor=1.0)
        assert fld.full_degeneracy_region(1.3) is False
        assert _probed_full_degeneracy(fld, 1.3) is True
        with pytest.raises((CrossingPoint, UnsupportedDegeneracy)):
            CorrectionEngine(prob, fld, "simplified_hermitian", 2, 1.0).at(1.3)
        # N = 3: the eigenprojection of a cluster of all N is refused
        q, q2 = parse_expr("x^2 + 1"), parse_expr("1 + x^2")
        spec = ProblemSpec(3, "reduced", ((q, ZERO, ZERO), (ZERO, q2, ZERO),
                                          (ZERO, ZERO, q)),
                           None, {}, (0.5, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = BranchField(prob, 0, "normalized", None, anchor=1.0)
        assert fld.degeneracy(1.3) == 3
        with pytest.raises(UnsupportedDegeneracy):
            CorrectionEngine(prob, fld, "simplified_hermitian", 2, 1.0).at(1.3)


# --------------------------------------------------------------------------
# order 0 (N = 2) on plain complex numbers
# --------------------------------------------------------------------------

def _fex1_rotated_40x():
    data = example_problem("fulling-pos")
    data["R"] = [[e.replace("(x)", "(40*x)") for e in row] for row in data["R"]]
    spec, lam, a = load_problem(data)
    return split_R(spec, lam, a)


class TestOrderZero:
    """s0_jets(x, 0) and qsq_jet(x, 0) skip the jets; they must still be
    the values of the full-order jets."""

    K = 8

    def _check(self, prob, rank, anchor, xs):
        # separate fields, so each path builds its own continuation
        f0 = BranchField(prob, rank, "normalized", None, anchor=anchor)
        fk = BranchField(prob, rank, "normalized", None, anchor=anchor)
        for x in xs:
            x = float(x)
            want = fk.s0_jets(x, self.K)
            got = f0.s0_jets(x, 0)
            assert all(c.order == 0 for c in got)
            assert_allclose([c.value for c in got], [c.value for c in want],
                            rtol=0, atol=1e-14)
            assert_allclose(f0.qsq_jet(x, 0).value, fk.qsq_jet(x, self.K).value,
                            rtol=1e-14)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_fex1(self, fex1, rank):
        self._check(fex1, rank, 2.5, [2.5, 2.8, 3.7, 5.1, 6.9])

    @pytest.mark.parametrize("rank", [0, 1])
    def test_fex4_complex_vectors(self, fex4, rank):
        # non-hermitian: complex eigenvectors and an oblique projector
        self._check(fex4, rank, 2.0, [2.2, 2.8, 3.6, 5.0, 6.4])

    @pytest.mark.parametrize("rank", [0, 1])
    def test_fast_rotation_sweep(self, rank):
        # every other point of the 40x sweep on [2, 4), continuation included
        self._check(_fex1_rotated_40x(), rank, 2.0,
                    np.arange(2.0, 4.0, 0.0025)[::2])

    def test_crossing_guard(self, fex1):
        fld = BranchField(fex1, 0, "normalized", None, anchor=2.0)
        with pytest.raises(CrossingPoint):
            fld.qsq_jet(1.0, 0)
        with pytest.raises(CrossingPoint):
            fld.s0_jets(1.0, 0)


# --------------------------------------------------------------------------
# work counts
# --------------------------------------------------------------------------

class TestWorkCounts:
    """The work of the branch data, counted at the Jet constructors and
    operators, at `G_jet` and `_reduction`, and at the series root and
    quotient kernels: the continuation walk runs on values and the order-K
    eigen-jets on coefficient arrays."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

    @pytest.fixture
    def counts(self, monkeypatch):
        got = {"jets": 0, "jet_ops": 0, "G_jet": 0, "reductions": [],
               "sqrt": 0, "quotient": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                got[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        raw, init = Jet._raw.__func__, Jet.__init__
        monkeypatch.setattr(Jet, "_raw", classmethod(counted(raw, "jets")))
        monkeypatch.setattr(Jet, "__init__", counted(init, "jets"))
        for op in self.OPS:
            monkeypatch.setattr(Jet, op, counted(getattr(Jet, op), "jet_ops"))
        monkeypatch.setattr(ReducedProblem, "G_jet",
                            counted(ReducedProblem.G_jet, "G_jet"))
        reduction = BranchField._reduction

        def counted_reduction(self, x, order):
            got["reductions"].append(order)
            return reduction(self, x, order)
        monkeypatch.setattr(BranchField, "_reduction", counted_reduction)
        sqrt = counted(jets.series_sqrt, "sqrt")
        for mod in (jets, spectral):
            monkeypatch.setattr(mod, "series_sqrt", sqrt)
        monkeypatch.setattr(jets, "_quotient",
                            counted(jets._quotient, "quotient"))
        return got

    @pytest.mark.parametrize("name", ["fex1", "fex4", "block3"])
    def test_walk_steps_make_no_jet(self, name, request):
        # ten order-0 steps of the continuation walk and the carry to a
        # point between two steps
        prob = _block3() if name == "block3" else request.getfixturevalue(name)
        fld = BranchField(prob, 1, "normalized", None, anchor=2.5)
        fld._frame(2.5)
        counts = request.getfixturevalue("counts")
        fld._reference(3.55)
        assert len(fld._frames) == 11
        assert counts == {"jets": 0, "jet_ops": 0, "G_jet": 0,
                          "reductions": [], "sqrt": 0, "quotient": 0}

    def test_n2_point_takes_one_root_and_one_reciprocal(self, fex1, counts):
        # Q**2, P and S of a new point: one root of D and one reciprocal of
        # it; its unit eigenvector: one root and one quotient more.  Fex1's
        # G has no root or quotient of its own.
        fld = BranchField(fex1, 1, "normalized", None, anchor=2.5)
        fld._reference(3.7)
        fld._eigen_jets(3.7, 14)
        assert (counts["sqrt"], counts["quotient"]) == (1, 1)
        fld.basis_jets(3.7, 14)
        assert (counts["sqrt"], counts["quotient"]) == (2, 2)
        assert counts["jet_ops"] == 0
        assert counts["G_jet"] == 1

    def test_oblique_unit_vector_takes_one_root_and_one_quotient(
            self, fex4, counts):
        # the phase of an oblique projector's column rides on the same root
        # and quotient as its norm
        fld = BranchField(fex4, 0, "normalized", None, anchor=2.5)
        fld._reference(3.7)
        fld._eigen_jets(3.7, 14)
        sqrt, quotient = counts["sqrt"], counts["quotient"]
        fld.basis_jets(3.7, 14)
        assert (counts["sqrt"] - sqrt, counts["quotient"] - quotient) \
            == (1, 1)
        assert counts["jet_ops"] == 0

    @pytest.mark.parametrize("name", ["fex1", "fex4"])
    def test_n2_step_makes_one_g_value_and_no_jet(self, name, request,
                                                  monkeypatch):
        # a new walk step, then the step from the frame to the point
        prob = request.getfixturevalue(name)
        fld = BranchField(prob, 1, "normalized", None, anchor=2.5)
        fld._frame(3.55)
        counts = request.getfixturevalue("counts")
        calls = []
        g_value = ReducedProblem.G_value

        def counted(self, x):
            calls.append(x)
            return g_value(self, x)
        monkeypatch.setattr(ReducedProblem, "G_value", counted)
        fld._frame(3.65)
        assert len(calls) == 1 and len(fld._frames) == 12
        fld._reference(3.62)
        assert calls[1:] == [3.62]
        assert counts == {"jets": 0, "jet_ops": 0, "G_jet": 0,
                          "reductions": [], "sqrt": 0, "quotient": 0}

    @pytest.mark.parametrize("name, gauge", [
        ("fex1", "normalized"), ("fex4", "normalized"), ("fex4", "raw"),
        ("complex", "normalized")])
    def test_phase_integrals(self, name, gauge, request, monkeypatch):
        # real vectors, and an oblique P outside the kato gauge, take no
        # Kato phase and build no integral; a complex unit vector builds
        # one per frame walked, for the step from it
        made = []

        class Spy(spectral.JetChainIntegral):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)
        monkeypatch.setattr(spectral, "JetChainIntegral", Spy)
        prob = (_hermitian(_complex_pair_rows()) if name == "complex"
                else request.getfixturevalue(name))
        fld = BranchField(prob, 1, gauge, None, anchor=2.5)
        for x in np.linspace(2.5, 5.5, 300):
            fld.s0_jets(float(x), 2)
        if name == "complex":
            assert len(made) == len(fld._frames) == 31
        else:
            assert not made


# --------------------------------------------------------------------------
# walked stretches
# --------------------------------------------------------------------------

def _frame_bits(frame):
    return np.array(frame, dtype=complex).tobytes()


def _jet_bits(vec):
    return np.array([c.coeffs for c in vec]).tobytes()


def _poisoned_block3(third, hint):
    """diag(Fex1, third) on a domain that keeps the construction's probes
    away from x < 0.65: rank 0 and 1 cross at x = 1."""
    rows = [["x*cos(x)^2 + sin(x)^2", "(x - 1)*cos(x)*sin(x)", "0"],
            ["(x - 1)*cos(x)*sin(x)", "x*sin(x)^2 + cos(x)^2", "0"],
            ["0", "0", third]]
    mat = tuple(tuple(parse_expr(e) for e in r) for r in rows)
    return split_R(ProblemSpec(3, "reduced", mat, None, {}, (1.5, 8.5),
                               hint), 1.0, None)


# zero from x = 0.65 up, 2e200 (0.65 - x) below
_STEP_UP = "(1e200*(0.65 - x + sqrt((x - 0.65)^2)))"


class TestWalkStretch:
    """A query walks the steps between the last frame on its side and x:
    a frame or an order-0 vector must not depend on the stretches its
    steps were walked in, and an error must come at its own step, however
    a stretch's steps are solved (ROADMAP item 6 would stack them)."""

    @pytest.mark.parametrize("name", ["fex1", "fex4", "block3", "oblique3"])
    def test_same_bits_in_one_stretch_or_many(self, name, request):
        # oblique3 takes the eig + inv path, fex4 the oblique N = 2 one
        prob = (_block3() if name == "block3" else _oblique3()
                if name == "oblique3" else request.getfixturevalue(name))
        xs = [float(x) for x in np.linspace(1.2, 8.4, 37)]
        for rank in range(prob.n):
            one = BranchField(prob, rank, "normalized", None, anchor=2.5)
            one._frame(8.4)
            one._frame(1.2)                 # one stretch on each side
            many = BranchField(prob, rank, "normalized", None, anchor=2.5)
            for x in np.random.default_rng(rank).permutation(xs):
                many.s0_jets(float(x), 0)   # short stretches, out of order
            assert many._frames.keys() == one._frames.keys()
            for key, frame in one._frames.items():
                assert _frame_bits(many._frames[key]) == _frame_bits(frame)
            for x in xs:
                assert _jet_bits(many.s0_jets(x, 0)) \
                    == _jet_bits(one.s0_jets(x, 0)), (rank, x)

    @pytest.mark.parametrize("hint", ["real_symmetric", "general"])
    @pytest.mark.parametrize("third", [
        f"9 + {_STEP_UP}*{_STEP_UP}",                       # inf
        f"9 + {_STEP_UP}*{_STEP_UP} - {_STEP_UP}*{_STEP_UP}",  # nan
        "9 + 1/(x - 0.5)",                      # raises at the step 0.5
    ], ids=["inf", "nan", "singular"])
    def test_errors_keep_walk_order(self, hint, third):
        # walking down from 2.5, the crossing at x = 1 comes before the
        # steps where G is not finite (or cannot be evaluated), which a
        # stacked stretch would evaluate first
        plain = BranchField(_poisoned_block3("9", hint), 0, "normalized",
                            None, anchor=2.5)
        with pytest.raises(CrossingPoint) as want:
            plain._frame(0.3)
        fld = BranchField(_poisoned_block3(third, hint), 0, "normalized",
                          None, anchor=2.5)
        if "1/" not in third:               # G is not finite below 0.65
            assert not np.isfinite(fld.prob.G_value(0.55)).all()
        with pytest.raises(CrossingPoint) as got:
            fld._frame(0.3)
        assert str(got.value) == str(want.value)
        assert "x = 1.0" in str(got.value)
        assert fld._frames.keys() == plain._frames.keys()
        for key, frame in plain._frames.items():
            assert _frame_bits(fld._frames[key]) == _frame_bits(frame)

    @pytest.mark.parametrize("hint", ["real_symmetric", "general"])
    @pytest.mark.parametrize("c, before", [(2.6, None), (3.05, 3.0)],
                             ids=["first-step", "lone-x"])
    def test_singular_g_at_a_stretch_start(self, hint, c, before):
        # G cannot be evaluated at the stretch's first t: the first step
        # walked from the anchor, or one x past a frame already walked
        fld = BranchField(_poisoned_block3(f"9 + 1e-3/(x - {c})", hint), 0,
                          "normalized", None, anchor=2.5)
        if before is not None:
            fld.s0_jets(before, 0)
        with pytest.raises(EvaluationSingularity):
            fld.s0_jets(c, 0)

    @pytest.mark.parametrize("x", [0.75, 1.05, 1.35])
    def test_two_column_anchor_frame_breaks_down(self, fex1, x):
        # fex1's ranks cross at the anchor 1.0, so its frame holds both
        # eigenvectors: one branch's P cannot carry the second column
        for rank in (0, 1):
            fld = BranchField(fex1, rank, "normalized", None, anchor=1.0)
            with pytest.raises(GramSchmidtBreakdown):
                fld.s0_jets(x, 0)


# --------------------------------------------------------------------------
# retained state
# --------------------------------------------------------------------------

class TestFieldMemory:
    """A field keeps one point: on an interval it has already walked, a
    long sweep leaves it holding no more than a short one."""

    @pytest.mark.parametrize("name, gauge, anchor, span", [
        ("fex1", "normalized", 3.0, (2.5, 3.5)),
        ("block3", "normalized", 3.0, (2.5, 3.5)),
        # the Kato phase: one anchored integral per walk step
        ("complex", "kato", 2.45, (2.1, 2.8)),
    ], ids=["fex1", "block3", "complex-kato"])
    def test_sweep_runs_in_flat_memory(self, name, gauge, anchor, span,
                                       request):
        prob = (_block3() if name == "block3"
                else _hermitian(_complex_pair_rows()) if name == "complex"
                else request.getfixturevalue(name))
        fld = BranchField(prob, 0, gauge, None, anchor=anchor)

        def sweep(n):
            for x in np.linspace(*span, n):
                x = float(x)
                fld.qsq_jet(x, 8)
                fld.s0_jets(x, 8)
                fld.eps0_jet(x, 6)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        sweep(11)                   # walks the continuation over the span
        tracemalloc.start()
        try:
            short = sweep(100)
            long = sweep(1000)
        finally:
            tracemalloc.stop()
        assert long - short <= 32 * 1024, (short, long)


def _conjugate_pair():
    """G = [[0, 1], [-x, 0]]: the complex-conjugate pair +-i sqrt(x), whose
    real parts LAPACK returns as 0 and round-off in no fixed order."""
    return _reduced([["0", "1"], ["-x", "0"]], "general")


def _lapack_ranked(g):
    """The two eigenvalues of g by LAPACK, ranked by real part with ties
    within 1e-12 of the scale broken by imaginary part."""
    a, b = np.linalg.eigvals(g)
    scale = max(abs(a), abs(b))
    if abs(a.real - b.real) <= 1e-12 * scale:
        swap = a.imag > b.imag
    else:
        swap = a.real > b.real
    return (b, a) if swap else (a, b)


class TestRankRule:
    """For N = 2 the rank of a branch is read off the closed form's own
    root; LAPACK serves only as the oracle here."""

    @pytest.mark.parametrize("gauge", ["raw", "normalized"])
    def test_conjugate_pair_is_never_swapped(self, gauge):
        # rank 0 is -i sqrt(x) at every point, in the jets, the values and
        # the engine alike
        prob = _conjugate_pair()
        fld = BranchField(prob, 0, gauge, None, anchor=1.0)
        engine = CorrectionEngine(
            prob, BranchField(prob, 0, gauge, None, anchor=1.0),
            "non_hermitian", 2, 1.0)
        for x in np.linspace(1.0, 3.0, 41):
            x = float(x)
            want = -1j * math.sqrt(x)
            assert abs(fld.qsq_jet(x, 2).value - want) <= 1e-12, x
            assert abs(fld.qsq_value(x) - want) <= 1e-12, x
            assert abs(engine.at(x).Qsq.value - want) <= 1e-12, x

    def test_conjugate_pair_in_a_block_is_never_swapped(self):
        # diag([[0, 1], [-x, 0]], 9): LAPACK's ranking for N > 2 follows
        # the same rule, so rank 0 is -i sqrt(x) at every point
        prob = _reduced([["0", "1", "0"], ["-x", "0", "0"], ["0", "0", "9"]],
                        "general")
        fld = BranchField(prob, 0, "normalized", None, anchor=1.0)
        for x in np.linspace(1.0, 3.0, 41):
            x = float(x)
            want = -1j * math.sqrt(x)
            assert abs(fld.qsq_jet(x, 2).value - want) <= 1e-12, x
            assert abs(fld.qsq_value(x) - want) <= 1e-12, x

    @pytest.mark.parametrize("name", [
        "fex1", "fex3", "fex4", "bec", "complex-hermitian", "conjugate"])
    def test_rank_rule_against_lapack(self, name, request):
        if name == "complex-hermitian":     # Fex1 with phases exp(+-ix)
            prob = _reduced([["x*cos(x)^2 + sin(x)^2",
                              "(x - 1)*cos(x)*sin(x)*exp(i*x)"],
                             ["(x - 1)*cos(x)*sin(x)*exp(-i*x)",
                              "x*sin(x)^2 + cos(x)^2"]], "hermitian")
        elif name == "conjugate":
            prob = _conjugate_pair()
        else:
            prob = request.getfixturevalue(name)
        fields = [BranchField(prob, r, "normalized", None) for r in (0, 1)]
        checked = 0
        for x in np.linspace(*prob.domain, 200):
            x = float(x)
            want = _lapack_ranked(prob.G_value(x))
            if abs(want[1] - want[0]) <= 1e-3 * max(map(abs, want)):
                continue                        # near a crossing
            checked += 1
            for fld, w in zip(fields, want):
                assert abs(fld.qsq_jet(x, 0).value - w) <= 1e-12 * abs(w), x
                assert abs(fld.qsq_value(x) - w) <= 1e-12 * abs(w), x
        assert checked >= 195

    @pytest.mark.parametrize("name, gauge, variant", [
        ("fex1", "normalized", "fulling_current"),
        ("fex4", "raw", "non_hermitian"),
        ("conjugate", "normalized", "non_hermitian"),
    ])
    def test_a_point_makes_no_second_eigen_solve(self, name, gauge, variant,
                                                 request, monkeypatch):
        # the closed form ranks its own roots: building a point asks
        # neither LAPACK's eigenvalues nor the ranked value of the branch
        prob = (_conjugate_pair() if name == "conjugate"
                else request.getfixturevalue(name))
        engine = CorrectionEngine(
            prob, BranchField(prob, 1, gauge, None, anchor=2.0), variant, 2,
            2.0)
        calls = {"eigvals": 0, "qsq_value": 0}
        eigvals, qsq_value = np.linalg.eigvals, BranchField.qsq_value

        def counted_eigvals(*args, **kwargs):
            calls["eigvals"] += 1
            return eigvals(*args, **kwargs)

        def counted_qsq_value(self, x):
            calls["qsq_value"] += 1
            return qsq_value(self, x)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(BranchField, "qsq_value", counted_qsq_value)
        for x in (2.3, 2.45):
            assert x not in engine._points
            engine.at(x)
        assert calls == {"eigvals": 0, "qsq_value": 0}
