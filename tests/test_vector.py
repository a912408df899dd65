import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import scalar_corrections
from phaseintegral.errors import (
    ApplicabilityWarning, CrossingPoint, GaugeNotFixed,
    NonPositiveYWarning, UnsupportedDegeneracy,
)
from phaseintegral.examples import example_problem
from phaseintegral.expressions import eval_expr_jet, parse_expr
from phaseintegral import jets, recurrence
from phaseintegral import vector as vector_module
from phaseintegral.jets import Jet, jet_const
from phaseintegral.problem import ProblemSpec, load_problem, split_R
from phaseintegral.quadrature import JetChainIntegral
from phaseintegral.recurrence import PointWork
from phaseintegral.spectral import BranchField
from phaseintegral.vector import (
    VARIANTS, CorrectionEngine, assemble_vector_wave, p_coefficients,
    vector_corrections,
)
from phaseintegral import verify as V


def field(prob, rank, anchor=2.0, gauge="normalized", g=None, q_sign=+1):
    return BranchField(prob, rank, gauge, g, anchor=anchor, q_sign=q_sign)


def h_fn(x):
    return math.log((math.sqrt(x) + 1) / abs(math.sqrt(x) - 1))


class TestDrivingVector:
    def test_b1_is_i_s0prime_over_q(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 1, 2.0)
        corr = eng.at(3.0)
        # s0 = {sin, -cos} (up to sign), Q = 1: b1 = i {cos, sin}
        s0 = corr.s[0]
        want = [1j * s0[0].diff().value, 1j * s0[1].diff().value]
        got = [c.value for c in corr.b[1]]
        assert_allclose(got, want, atol=1e-12)

    def test_b2_reduces_when_y1_zero(self, fex1):
        # b2 = (eps0/2) s0 + s0''(zeta)/2 + i s1'(zeta) in the Kato gauge
        eng = CorrectionEngine(fex1, field(fex1, 0), "wronskian_conserving",
                               2, 2.0)
        corr = eng.at(3.0)
        q = corr.Q
        s0, s1 = corr.s[0], corr.s[1]
        k = corr.b[2][0].order
        want = []
        for j in range(2):
            t0 = 0.5 * corr.eps0.value * s0[j].value
            dz1 = (s0[j].diff() / q.truncated(q.order - 1))
            t1 = 0.5 * (dz1.diff() / q.truncated(dz1.order - 1)).value
            t2 = 1j * (s1[j].diff() / q.truncated(s1[j].order - 1)).value
            want.append(t0 + t1 + t2)
        assert_allclose([c.value for c in corr.b[2]], want, rtol=1e-10)

    def test_b_tilde_leaves_out_s_m(self, fex1, deg3):
        # Kato gauge, Y_1 = 0: only i s_m'(zeta) couples b_{m+1} to s_m, and
        # b~_{m+1} leaves s_m out although the point has it (and its
        # derivative); deg3 is a d = 2 cluster with Kato coordinates
        for prob, variant, x in ((fex1, "fulling_current", 3.0),
                                 (deg3, "simplified_hermitian", 2.3)):
            eng = CorrectionEngine(prob, field(prob, 0), variant, 4, 2.0)
            corr = eng.at(x)
            assert abs(corr.Y[1].value) < 1e-15
            q = corr.Q
            for m in (1, 2, 3):
                k = corr.b[m + 1][0].order
                btilde = eng._compute_b(eng._points[x], m + 1, k, stop=m)
                want = np.array([1j * (c.diff() / q.truncated(c.order - 1))
                                 .value for c in corr.s[m]])
                got = np.array([b.value for b in corr.b[m + 1]]) - btilde[:, 0]
                assert np.linalg.norm(want) > 1e-3
                assert_allclose(got, want, rtol=1e-10,
                                atol=1e-12 * np.linalg.norm(want))

    def test_lower_levels_ignore_higher_rows(self, deg3):
        # a point built to m_max 4 keeps Y_{m+1} .. Y_4 in its tables; b~ and
        # the compatibility residual at level m read none of them, and equal
        # those of a point built only to level m
        def engine():
            return CorrectionEngine(deg3, field(deg3, 0),
                                    "simplified_hermitian", 4, 2.0)
        x = 2.3
        built = engine()
        built.at(x)
        for m in (1, 2, 3):
            fresh = engine()
            assert (built.compatibility_residual(x, m)
                    == fresh.compatibility_residual(x, m))
            k = built.K - m - 1
            got, want = (eng._compute_b(eng._points[x], m + 1, k, stop=m)
                         for eng in (built, fresh))
            assert np.linalg.norm(want) > 1e-3
            assert np.array_equal(got, want), m

    def test_constant_problem_all_b_vanish(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("3"), parse_expr("1")),
                            (parse_expr("1"), parse_expr("3"))),
                           None, {}, (0.0, 5.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        eng = CorrectionEngine(prob, field(prob, 0, anchor=1.0),
                               "fulling_current", 3, 1.0)
        corr = eng.at(2.0)
        for m in range(1, 4):
            assert max(abs(c.value) for c in corr.b[m]) < 1e-13
            assert abs(corr.Y[m].value) < 1e-13


class TestPerpendicularSolve:
    def test_fex1_lower_branch_c1perp(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 1, 2.0)
        for x in (2.5, 3.0, 7.0):
            corr = eng.at(x)
            assert_allclose(corr.c_perp[1].value, -2j / (x - 1), rtol=1e-10)

    def test_fex1_upper_branch_c1perp(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 1, 3.0)
        for x in (3.0, 5.0):
            corr = eng.at(x)
            assert_allclose(corr.c_perp[1].value,
                            2j * math.sqrt(x) / (x - 1), rtol=1e-10)

    def test_fex4_nonhermitian_c1perp(self, fex4):
        fld = field(fex4, 0, gauge="raw", g=parse_expr("2*sin(x)"))
        eng = CorrectionEngine(fex4, fld, "non_hermitian", 1, 2.0)
        for x in (2.5, 3.0, 6.0):
            corr = eng.at(x)
            d = 5 - 3 * math.cos(2 * x)
            assert_allclose(corr.c_perp[1].value, -8.0 / ((x - 1) * d),
                            rtol=1e-10)


    def test_c_perp_is_formed_by_at_only(self, fex1):
        # the waves never read c_perp, so no point record holds one; `at`
        # forms it from the stored s_perp and s0
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 3, 3.0)
        grid = [3.0 + 0.5 * i for i in range(11)]
        for sign in (+1, -1):
            assemble_vector_wave(eng, sign, grid, 3.0, 0.1)
        for x in (3.5, 7.0):
            corr = eng.at(x)
            assert_allclose(corr.c_perp[1].value,
                            2j * math.sqrt(x) / (x - 1), rtol=1e-10)
            assert corr.c_perp[0] is None and len(corr.c_perp) == 4
        assert len(eng._points) > len(grid)
        assert not any(hasattr(pt, "c_perp") for pt in eng._points.values())


class TestParallelCoordinate:
    def test_fulling_log(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 1, 2.0)
        for x in (2.5, 3.0, 7.0):
            corr = eng.at(x)
            assert_allclose(corr.c_par[1].value,
                            -4j * math.log(abs(x - 1)), rtol=1e-10)

    def test_wronskian_zero_then_quadratic(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "wronskian_conserving",
                               2, 2.0)
        for x in (2.5, 3.0, 7.0):
            corr = eng.at(x)
            assert abs(corr.c_par[1].value) < 1e-11
            assert_allclose(corr.c_par[2].value, 2.0 / (x - 1) ** 2,
                            rtol=1e-10)

    def test_simplified_always_zero(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "simplified_hermitian",
                               3, 2.0)
        corr = eng.at(4.0)
        for m in range(1, 4):
            assert abs(corr.c_par[m].value) == 0.0

    def test_gauge_guard(self, fex1):
        with pytest.raises(GaugeNotFixed):
            CorrectionEngine(fex1, field(fex1, 0, gauge="raw",
                                         g=parse_expr("1")),
                             "fulling_current", 1, 2.0)
        with pytest.raises(GaugeNotFixed):
            CorrectionEngine(
                split_R(ProblemSpec(2, "reduced",
                                    ((parse_expr("x"), parse_expr("i")),
                                     (parse_expr("-i"), parse_expr("2*x"))),
                                    None, {}, (1.0, 3.0), "general"),
                        1.0, None),
                field(_nonherm_prob(), 0), "fulling_current", 1, 2.0)


def _nonherm_prob():
    spec = ProblemSpec(2, "reduced",
                       ((parse_expr("x"), parse_expr("i")),
                        (parse_expr("-i"), parse_expr("2*x"))),
                       None, {}, (1.0, 3.0), "general")
    return split_R(spec, 1.0, None)


class TestYm:
    def test_fulling_y2_value(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 2, 2.0)
        corr = eng.at(3.0)
        assert_allclose(corr.Y[2].value, 0.5, rtol=1e-10)

    def test_wronskian_y2_y3(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "wronskian_conserving",
                               3, 2.0)
        for x in (2.5, 3.0):
            corr = eng.at(x)
            assert_allclose(corr.Y[2].value, -(x + 3) / (2 * (x - 1)),
                            rtol=1e-10)
            assert_allclose(corr.Y[3].value, -2j * (x + 3) / (x - 1) ** 3,
                            rtol=1e-10)

    def test_simplified_y3(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "simplified_hermitian",
                               3, 2.0)
        for x in (2.5, 3.0, 7.0):
            corr = eng.at(x)
            assert_allclose(corr.Y[3].value, -2j * (x + 1) / (x - 1) ** 3,
                            rtol=1e-10)

    def test_nonhermitian_y1_zero_with_good_gauge(self, fex4):
        fld = field(fex4, 1, gauge="raw", g=parse_expr("2*cos(x)"))
        eng = CorrectionEngine(fex4, fld, "non_hermitian", 1, 2.0)
        for x in (2.5, 5.0):
            assert abs(eng.at(x).Y[1].value) < 1e-12

    def test_nonhermitian_y1_nonzero_generic_gauge(self, fex4):
        fld = field(fex4, 1, gauge="raw", g=parse_expr("1"))
        eng = CorrectionEngine(fex4, fld, "non_hermitian", 1, 2.0)
        assert abs(eng.at(3.0).Y[1].value) > 1e-4


# --------------------------------------------------------------------------
# the recurrence's lambda-power table and its work per point
# --------------------------------------------------------------------------

def _compositions(total, parts):
    """Ordered tuples of non-negative ints of length `parts` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _composition_sum(Y, c, t, k, without_top=False):
    """[Y^c]_t at order k by brute force; optionally without the Y_t terms."""
    acc = jet_const(0.0, Y[0].center, k)
    for combo in _compositions(t, c):
        if without_top and max(combo) == t:
            continue
        term = Y[combo[0]].truncated(k)
        for i in combo[1:]:
            term = term * Y[i].truncated(k)
        acc = acc + term
    return acc


_TABLE_K, _TABLE_T = 10, 8


@st.composite
def _integer_y(draw):
    """Y_0 = 1 and Y_1 .. Y_8 with small-integer coefficients, Y_t of order
    K - t: every sum and product is exact in floating point."""
    small = st.integers(-3, 3)
    Y = [jet_const(1.0, 0.5, _TABLE_K)]
    for t in range(1, _TABLE_T + 1):
        n = _TABLE_K - t + 1
        re = draw(st.lists(small, min_size=n, max_size=n))
        im = draw(st.lists(small, min_size=n, max_size=n))
        Y.append(Jet(0.5, [complex(a, b) for a, b in zip(re, im)]))
    return Y


class TestPowerTable:
    @settings(max_examples=30, deadline=None)
    @given(_integer_y())
    def test_table_equals_composition_sums(self, Y):
        # the table's entries are coefficient arrays, the oracle's Jets;
        # Y_t is written into the work's Y table level by level (Q, eps0
        # and s0 feed only the derivatives and the lambda^2 block)
        n = _TABLE_K + 1
        table = PointWork(np.ones(n, dtype=complex),
                          np.zeros(n - 2, dtype=complex),
                          np.ones((1, n), dtype=complex), _TABLE_T + 1,
                          _TABLE_K)
        for c in (2, 3, 4):
            assert np.array_equal(table.power(c, 0), Y[0].coeffs)
        for t in range(1, _TABLE_T + 1):
            k = _TABLE_K - t
            c2, _, s4 = table.parts(t)          # before Y_t is known
            assert np.array_equal(
                c2, _composition_sum(Y, 2, t, k, True).coeffs)
            assert np.array_equal(
                c2 + c2 + s4, _composition_sum(Y, 4, t, k, True).coeffs)
            table.Y[t, :k + 1] = Y[t].coeffs
            for c in (2, 3, 4):
                assert np.array_equal(table.power(c, t),
                                      _composition_sum(Y, c, t, k).coeffs)

    @pytest.mark.parametrize("m_max", [6, 8])
    def test_recurrence_matches_scalar_recursion(self, n1_engine, m_max):
        # u'' + (x / lambda^2) u = 0 as the N = 1 system against the
        # independent x-derivative recursion of `scalar_corrections`
        corr = n1_engine("x", 2.0, m_max).at(2.0)
        sc = scalar_corrections(corr.eps0, corr.Qsq, m_max // 2)
        for m in range(1, m_max + 1):
            if m % 2:
                assert abs(corr.Y[m].value) < 1e-14
            else:
                assert_allclose(corr.Y[m].value, sc.Y[m // 2].value,
                                rtol=1e-12)


class TestPointMemory:
    def test_finished_point_drops_its_zeta_matrix(self, fex1, monkeypatch):
        # m_max 3: once the derivatives of s_2 are filled, no b_m or b~
        # needs d/d zeta; the point's b~ and CorrectionSet keep the bits of
        # a point that keeps the matrix
        def build():
            eng = CorrectionEngine(fex1, field(fex1, 1, anchor=2.5),
                                   "simplified_hermitian", 3, 2.5)
            corr = eng.at(3.7)
            pt = eng._points[3.7]
            btilde = [eng._compute_b(pt, m + 1, eng.K - m - 1, stop=m)
                      for m in range(4)]
            return pt.work, corr, btilde

        dropped = build()
        derivatives = PointWork._derivatives

        def keeping(self, sigma):
            zeta = self._zeta
            derivatives(self, sigma)
            if self._zeta is None:
                self._zeta = zeta
        monkeypatch.setattr(PointWork, "_derivatives", keeping)
        kept = build()
        assert dropped[0]._zeta is None
        assert kept[0]._zeta is not None

        def bits(obj):
            if obj is None:
                return None
            if isinstance(obj, Jet):
                return obj.coeffs.tobytes()
            if isinstance(obj, np.ndarray):
                return obj.tobytes()
            return [bits(o) for o in obj]
        for name in ("Qsq", "Q", "eps0", "Y", "s", "s_perp", "c_perp",
                     "c_par", "b"):
            assert bits(getattr(dropped[1], name)) \
                == bits(getattr(kept[1], name)), name
        assert bits(dropped[2]) == bits(kept[2])


class TestHistoryFree:
    """A point's corrections depend on x alone, not on the points the
    engine answered before: each anchored integral keeps one partial sum
    per ladder rung and reaches x from the rung before it."""

    @pytest.mark.parametrize("case", ["fulling", "fex3", "complex-kato",
                                      "fex4-raw", "block3"])
    def test_at_ignores_earlier_queries(self, case, request):
        g = None
        if case == "complex-kato":
            from test_spectral import _complex_pair_rows, _hermitian
            prob, variant, anchor, rank = (_hermitian(_complex_pair_rows()),
                                           "fulling_current", 2.2, 0)
            x, before, gauge = 2.53, (2.54, 2.52, 2.8), "kato"
        elif case == "fex4-raw":
            # no integrals: the point's own tables, with the projection on
            # (s0, s_m) = 0 and an oblique-capable left eigenvector
            prob, variant, anchor, rank = (request.getfixturevalue("fex4"),
                                           "non_hermitian", 2.0, 1)
            x, before, gauge = 2.53, (2.54, 2.52, 2.8), "raw"
            g = parse_expr("2*cos(x)")
        elif case == "block3":
            # N = 3 through the numeric reduction, no integrals
            prob, variant, anchor, rank = (_fex1_like(_block_rows()),
                                           "simplified_hermitian", 3.0, 1)
            x, before, gauge = 4.03, (4.04, 4.02, 5.5), "normalized"
        else:
            prob = request.getfixturevalue(
                "fex1" if case == "fulling" else "fex3")
            variant = ("fulling_current" if case == "fulling"
                       else "wronskian_conserving")
            anchor, rank = 3.0, 1
            x, before, gauge = 4.03, (4.04, 4.02, 5.5), "normalized"

        def engine():
            return CorrectionEngine(
                prob, field(prob, rank, anchor=anchor, gauge=gauge, g=g),
                variant, 3, anchor)

        fresh = engine().at(x)
        eng = engine()
        for t in before:
            eng.at(t)
        late = eng.at(x)

        def coeffs(corr, m):
            return ([corr.Y[m].coeffs] + [c.coeffs for c in corr.s[m]]
                    + ([corr.c_par[m].coeffs] if m else []))

        for m in range(4):
            assert all(np.array_equal(a, b) for a, b in
                       zip(coeffs(fresh, m), coeffs(late, m), strict=True)), m


class TestWorkCounts:
    """The work of one point: Jet products and quotients, counted at the
    operators, series quotients and vector contractions, counted at their
    kernels, and eigenprojection expansions."""

    @staticmethod
    def _count(monkeypatch, engine, x):
        counts = {"mul": 0, "div": 0, "add": 0, "quotient": 0, "contract": 0}
        for name, key in (("__mul__", "mul"), ("__rmul__", "mul"),
                          ("__truediv__", "div"), ("__add__", "add"),
                          ("__radd__", "add")):
            def counted(self, other, op=getattr(Jet, name), key=key):
                counts[key] += 1
                return op(self, other)
            monkeypatch.setattr(Jet, name, counted)

        def kernel(fn, key):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted
        monkeypatch.setattr(jets, "_quotient",
                            kernel(jets._quotient, "quotient"))
        contract = kernel(jets.series_contract, "contract")
        for mod in (jets, vector_module, recurrence):
            if hasattr(mod, "series_contract"):
                monkeypatch.setattr(mod, "series_contract", contract)
        engine.at(x)
        monkeypatch.undo()
        return counts

    def test_fex1_m6_point(self, fex1, monkeypatch):
        # before the power table: 2267 products and 174 quotients; with
        # vector jets as tuples of Jets: 310 products, 47 series quotients;
        # with the power table and eps0 on Jets: 91 products, 108 sums and
        # 4 quotients; with Y_m and c_perp on arrays: no product and 11
        # contractions
        eng = CorrectionEngine(fex1, field(fex1, 0, anchor=2.5),
                               "simplified_hermitian", 6, 2.5)
        counts = self._count(monkeypatch, eng, 3.7)
        assert counts["mul"] < 2267 // 2, counts
        assert counts["div"] < 174 // 2, counts
        # per level: one contraction for b_m, (l, b_m) for Y_m, c_perp's
        # scalar product and c_par s0; (s0, s0) once
        assert counts["contract"] <= 4 * 6 + 1, counts
        # per level: Y_m and c_perp times 1/(s0, s0)
        assert counts["mul"] <= 2 * 6 + 4, counts
        # the recurrence sums coefficient arrays, never Jets
        assert counts["add"] == 0, counts
        assert counts["quotient"] <= 18, counts

    def test_fex1_m6_levels_make_no_jet_operation(self, fex1, monkeypatch):
        # between the base point and the CorrectionSet every series is a
        # table row: Y_m, c_perp, [Y^c], the lambda^2 block and b_m (12 Jet
        # products and a quotient when Y_m and c_perp were Jet products)
        eng = CorrectionEngine(fex1, field(fex1, 0, anchor=2.5),
                               "simplified_hermitian", 6, 2.5)
        eng._points[3.7] = eng._base_point(3.7)
        ops = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            def counted(self, *other, op=getattr(Jet, name), name=name):
                ops.append(name)
                return op(self, *other)
            monkeypatch.setattr(Jet, name, counted)
        corr = eng.at(3.7)
        monkeypatch.undo()
        assert ops == [], ops
        assert len(corr.Y) == len(corr.c_perp) == 7

    def test_fex1_m6_lambda_sums_per_level(self, fex1, monkeypatch):
        # a level's sums over the lambda index ([Y^c]'s parts and the
        # lambda^2 block) are a fixed number of kernel calls and b_m one
        # contraction, whatever m (each sum was m - 1 products)
        calls = {"kernel": 0, "contract": 0}

        def counting(fn, key):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted
        monkeypatch.setattr(recurrence, "_lam_sum",
                            counting(recurrence._lam_sum, "kernel"))
        monkeypatch.setattr(vector_module, "series_contract",
                            counting(vector_module.series_contract, "contract"))
        levels = []
        stage = CorrectionEngine._stage

        def staged(self, pt, m):
            before = dict(calls)
            stage(self, pt, m)
            levels.append(tuple(calls[key] - before[key]
                                for key in ("kernel", "contract")))
        monkeypatch.setattr(CorrectionEngine, "_stage", staged)
        CorrectionEngine(fex1, field(fex1, 0, anchor=2.5),
                         "simplified_hermitian", 6, 2.5).at(3.7)
        monkeypatch.undo()
        # level 1 also forms the point's 1/(s0, s0) and solve matrix
        assert len(levels) == 6
        assert levels[0][0] == 1 and set(levels[1:]) == {(2, 1)}, levels

    def test_each_point_builds_its_work_once(self, fex1, monkeypatch):
        # anchor 3, point 4.5: the c_par integrands stage ladder points too,
        # one level per integral, and a point's tables outlive each
        # extension
        made = []

        def counted(*args):
            made.append(args)
            return PointWork(*args)
        monkeypatch.setattr(vector_module, "PointWork", counted)
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 3, 3.0)
        eng.at(4.5)
        eng.compatibility_residual(4.5, 2)
        assert len(eng._points) > 1
        assert len(made) == len(eng._points)
        assert all(pt.solve is None for pt in eng._points.values())

    def test_lambda_sums_grow_linearly_with_m_max(self, fex1, monkeypatch):
        # the nested c_par integrals extend the same nodes one level per
        # integral; each level fills one row, never replaying rows from 0
        # (119, 319 and 615 calls when every extension rebuilt the tables)
        calls = []
        lam_sum = recurrence._lam_sum

        def counted(*args):
            calls.append(1)
            return lam_sum(*args)
        monkeypatch.setattr(recurrence, "_lam_sum", counted)
        counts = {}
        for m_max in (6, 10, 14):
            calls.clear()
            eng = CorrectionEngine(fex1, field(fex1, 0, anchor=3.0),
                                   "fulling_current", m_max, 3.0)
            eng.at(3.7)
            counts[m_max] = len(calls)
            # two sums a level (the parts, the lambda^2 block) per point
            assert len(calls) <= 2 * (m_max + 1) * len(eng._points), counts
        assert counts[14] - counts[10] == counts[10] - counts[6], counts

    def test_fulling_m3_point(self, fex1, monkeypatch):
        # before the power table: 369 products and 40 quotients; with
        # vector jets as tuples of Jets: 124 products, 23 series quotients
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 3, 3.0)
        counts = self._count(monkeypatch, eng, 3.0)
        assert counts["mul"] < 369 // 2, counts
        assert counts["div"] < 40, counts
        # as above, and the c_par integrand's and boundary's scalar
        # products
        assert counts["contract"] <= 20, counts
        assert counts["mul"] <= 50, counts
        assert counts["quotient"] <= 12, counts

    def test_fulling_m0_wave_pair_evaluates_each_node_once(self, fex1,
                                                           monkeypatch):
        # each integral evaluates its integrand once per node: a march
        # starts from the jet the last one ended on (48 calls for these
        # 26 nodes when every march evaluated its start again)
        calls, made = [], []
        init = JetChainIntegral.__init__

        def counting(chain, f_jet_at, anchor, *args, **kwargs):
            index = len(made)
            made.append(chain)

            def f(t):
                calls.append((index, t))
                return f_jet_at(t)
            init(chain, f, anchor, *args, **kwargs)
        monkeypatch.setattr(JetChainIntegral, "__init__", counting)
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 0, 3.0)
        grid = [3.0 + j / 4 for j in range(13)]
        for sign in (+1, -1):
            assemble_vector_wave(eng, sign, grid, 3.0, 0.1)
        assert len(made) == 2
        assert len(calls) == len(set(calls)) == 26, len(calls)

    def test_block3_point_runs_one_reduction(self, monkeypatch):
        # a new diag(Fex1, 9) point expands its eigenprojection and reduced
        # resolvent once: no sibling field repeats it for a complement
        calls = []
        reduction = BranchField._reduction

        def counted(self, x, order):
            calls.append(order)
            return reduction(self, x, order)
        monkeypatch.setattr(BranchField, "_reduction", counted)
        prob = _fex1_like([r + ["0"] for r in _FEX1_ROWS] + [["0", "0", "9"]])
        _engine(prob, 0, "simplified_hermitian", 6).at(3.7)
        assert sum(order >= 1 for order in calls) == 1, calls


class TestRouting:
    """One complement solve: no variant asks for a complement basis."""

    @pytest.fixture(autouse=True)
    def refuse_complement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("complement_jets called")
        monkeypatch.setattr(BranchField, "complement_jets", refuse)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_complement_jets(self, fex1_pair, block3, variant, n):
        prob = fex1_pair if n == 2 else block3
        for rank in (0, 1):
            _engine(prob, rank, variant, 2).at(3.1)

    def test_degenerate_cluster(self, deg3):
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        CorrectionEngine(deg3, fld, "simplified_hermitian", 2, 2.0).at(2.3)


class TestCrossingGuards:
    """The complement solve has no divisor of its own: the eigen-solve's
    guards must refuse a crossing before the engine reaches it."""

    @pytest.mark.parametrize("variant", ["simplified_hermitian",
                                         "fulling_current"])
    @pytest.mark.parametrize("x", [4.0, 4.0 + 1e-6])
    def test_n3_block(self, variant, x):
        # diag(Fex1, 4): rank 1 (eigenvalue x) meets the third at x = 4
        prob = _fex1_like([r + ["0"] for r in _FEX1_ROWS] + [["0", "0", "4"]])
        eng = CorrectionEngine(prob, field(prob, 1, anchor=3.0), variant, 2,
                               3.0)
        with pytest.raises(CrossingPoint):
            eng.at(x)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_anchor_on_crossing_fails_at_construction(self, fex1, rank):
        # anchored on Fex1's crossing x = 1: the anchor's eigen-solve
        # refuses it, rather than the walk to a later point breaking down
        with pytest.raises(CrossingPoint):
            CorrectionEngine(fex1, field(fex1, rank, anchor=1.0),
                             "simplified_hermitian", 2, 1.0)

    @pytest.mark.parametrize("variant", ["simplified_hermitian",
                                         "fulling_current"])
    def test_n2_pair(self, fex1, variant):
        # Fex1's eigenvalues 1 and x cross at x = 1
        eng = CorrectionEngine(fex1, field(fex1, 0, anchor=2.0), variant, 2,
                               2.0)
        with pytest.raises(CrossingPoint):
            eng.at(1.0)


class TestVectorCorrections:
    def test_fex1_upper_fulling_y2(self, fex1):
        fld = field(fex1, 1, anchor=3.0)
        corr = vector_corrections(fex1, fld, "fulling_current", 2, 3.0, 5.0)
        x = 5.0
        want = -2.0 / (x - 1) + 5.0 / (32 * x**3) - 1.0 / (2 * x)
        assert_allclose(corr.Y[2].value, want, rtol=1e-10)

    def test_bec_table_row(self, bec):
        fld = BranchField(bec, 1, "raw", parse_expr("1"), anchor=55.0)
        corr = vector_corrections(bec, fld, "simplified_hermitian", 2,
                                  55.0, 55.0)
        assert_allclose(corr.Y[1].value, 2.83539e-4, rtol=5e-6)
        assert_allclose(corr.Y[2].value, 1.58104e-2, rtol=5e-6)
        assert_allclose(corr.c_perp[1].value, 5.16137e-7, rtol=5e-6)
        assert_allclose(corr.c_perp[2].value, -3.15819e-7, rtol=5e-6)

    def test_full_degeneracy_reduces_to_scalar(self, scalar_quadratic):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("x^2 + 1"), parse_expr("0")),
                            (parse_expr("0"), parse_expr("x^2 + 1"))),
                           None, {}, (0.5, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        fld = field(prob, 0, anchor=1.0)
        corr = vector_corrections(prob, fld, "simplified_hermitian", 4,
                                  1.0, 1.3)
        sc_fld = BranchField(scalar_quadratic, 0, "normalized", None,
                             anchor=1.0)
        sc = scalar_corrections(sc_fld.eps0_jet(1.3, 10),
                                sc_fld.qsq_jet(1.3, 12), 2)
        assert_allclose(corr.Y[2].value, sc.Y[1].value, rtol=1e-12)
        assert_allclose(corr.Y[4].value, sc.Y[2].value, rtol=1e-12)
        assert abs(corr.Y[1].value) == 0.0 and abs(corr.Y[3].value) == 0.0
        assert all(abs(c.value) == 0.0 for m in range(1, 5)
                   for c in corr.s[m])

    def test_decomposition_invariant(self, fex1):
        # s_m = s_m_perp + (e1, s_m) e1 at the evaluation point
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 2, 2.0)
        corr = eng.at(4.0)
        for m in (1, 2):
            e1 = np.array([c.value for c in corr.s[0]])
            sm = np.array([c.value for c in corr.s[m]])
            sp = np.array([c.value for c in corr.s_perp[m]])
            rebuilt = sp + corr.c_par[m].value * e1
            assert np.max(np.abs(sm - rebuilt)) < 1e-10

    def test_no_jet_order_cap_for_big_systems(self):
        # N > 2 eigen jets are exact at any order (see TestBlockEmbedding)
        mat = tuple(tuple(parse_expr("3" if i == j else "0") for j in range(3))
                    for i in range(3))
        spec = ProblemSpec(3, "reduced", mat, None, {}, (0.0, 1.0),
                           "real_symmetric")
        prob = split_R(spec, 1.0, None)
        corr = CorrectionEngine(prob, field(prob, 0, anchor=0.5),
                                "simplified_hermitian", 3, 0.5).at(0.7)
        assert corr.Qsq.value == 3.0
        assert all(y.value == 0.0 for y in corr.Y[1:])


class TestInvariants:
    def test_parity_under_q_flip(self, fex1, fex4):
        for prob, rank, variant, gauge, g in (
                (fex1, 0, "wronskian_conserving", "normalized", None),
                (fex4, 0, "non_hermitian", "raw", parse_expr("2*sin(x)"))):
            ep = CorrectionEngine(prob, field(prob, rank, 2.0, gauge, g, +1),
                                  variant, 3, 2.0)
            em = CorrectionEngine(prob, field(prob, rank, 2.0, gauge, g, -1),
                                  variant, 3, 2.0)
            for x in np.linspace(2.2, 6.5, 10):
                cp, cm = ep.at(float(x)), em.at(float(x))
                for m in range(4):
                    scale = 1 + abs(cp.Y[m].value)
                    assert abs(cm.Y[m].value - (-1) ** m * cp.Y[m].value) \
                        < 1e-10 * scale
                    for a, b in zip(cm.s[m], cp.s[m]):
                        assert abs(a.value - (-1) ** m * b.value) \
                            < 1e-10 * (1 + abs(b.value))

    def test_reality_pattern_positive(self, fex1):
        # Q^2 > 0 real hermitian: even orders real, odd pure imaginary
        eng = CorrectionEngine(fex1, field(fex1, 0), "wronskian_conserving",
                               3, 2.0)
        corr = eng.at(4.2)
        for m, val in enumerate(corr.Y_values()):
            part = abs(val.imag) if m % 2 == 0 else abs(val.real)
            assert part <= 1e-10 * (1 + abs(val))
        for m in (1, 2, 3):
            for c in corr.s[m]:
                v = c.value
                part = abs(v.imag) if m % 2 == 0 else abs(v.real)
                assert part <= 1e-10 * (1 + abs(v))

    def test_reality_pattern_negative(self, fex3):
        # Q^2 < 0: everything real
        eng = CorrectionEngine(fex3, field(fex3, 1), "wronskian_conserving",
                               3, 2.0)
        corr = eng.at(4.2)
        for m, val in enumerate(corr.Y_values()):
            assert abs(val.imag) <= 1e-10 * (1 + abs(val))
            for c in corr.s[m]:
                assert abs(c.value.imag) <= 1e-10 * (1 + abs(c.value))

    def test_fulling_odd_orders_vanish_observed(self, fex1):
        # empirical claim: Y1 = Y3 = 0 in the current conserving theory
        for rank, anchor in ((0, 2.0), (1, 3.0)):
            eng = CorrectionEngine(fex1, field(fex1, rank, anchor),
                                   "fulling_current", 3, anchor)
            for x in (3.3, 5.5):
                corr = eng.at(x)
                assert abs(corr.Y[1].value) < 1e-10
                assert abs(corr.Y[3].value) < 1e-10 * (1 + abs(corr.Y[2].value))

    def test_conserving_constraint_ledger(self, fex1):
        # fulling: sum_a (s_a, s_{m-a}'(x)) = 0; wronskian: alternating signs
        for variant, sgn in (("fulling_current", 1.0),
                             ("wronskian_conserving", -1.0)):
            eng = CorrectionEngine(fex1, field(fex1, 0), variant, 2, 2.0)
            for x in (3.0, 4.7):
                corr = eng.at(x)
                for m in (1, 2):
                    acc = 0.0
                    for a in range(m + 1):
                        sa = np.array([c.value for c in corr.s[a]])
                        sbp = np.array([c.diff().value
                                        for c in corr.s[m - a]])
                        acc += (sgn ** a) * np.vdot(sa, sbp)
                    assert abs(acc) < 1e-8

    def test_projection_identity(self, fex1):
        # (e1, s_m_perp) = 0 at every point
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 2, 2.0)
        for x in (2.7, 5.1):
            corr = eng.at(x)
            e1 = np.array([c.value for c in corr.s[0]])
            for m in (1, 2):
                sp = np.array([c.value for c in corr.s_perp[m]])
                assert abs(np.vdot(e1, sp)) < 1e-10

    def test_p_coefficients(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 3, 2.0)
        corr = eng.at(3.0)
        p = p_coefficients(corr)
        assert_allclose(p[0], corr.Qsq.value, rtol=1e-13)
        assert abs(p[1]) < 1e-10
        assert_allclose(p[2], 2 * corr.Qsq.value * corr.Y[2].value, rtol=1e-10)
        assert_allclose(p[3], 2 * corr.Qsq.value * corr.Y[3].value, atol=1e-10)
        # direct expansion of (q+)^2 = Q^2 (sum Y_m lam^m)^2, order by order
        lam = 0.37
        yvals = corr.Y_values()
        qsq_series = np.polynomial.polynomial.polymul(yvals, yvals)
        for m in range(4):
            want = corr.Qsq.value * qsq_series[m]
            assert_allclose(p[m] * lam**m * 0 + p[m], want, rtol=1e-12,
                            atol=1e-12)

    def test_scalar_embedding(self, scalar_quadratic):
        fld = BranchField(scalar_quadratic, 0, "normalized", None, anchor=1.0)
        eng = CorrectionEngine(scalar_quadratic, fld, "fulling_current", 4, 1.0)
        corr = eng.at(1.3)
        sc = scalar_corrections(fld.eps0_jet(1.3, 10), fld.qsq_jet(1.3, 12), 2)
        assert_allclose(corr.Y[2].value, sc.Y[1].value, rtol=1e-12)
        assert_allclose(corr.Y[4].value, sc.Y[2].value, rtol=1e-12)
        assert abs(corr.Y[1].value) < 1e-14 and abs(corr.Y[3].value) < 1e-14
        for m in range(1, 5):
            assert max(abs(c.value) for c in corr.s[m]) < 1e-14


class TestWaves:
    def test_order_zero_constant_problem(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("4"), parse_expr("0")),
                            (parse_expr("0"), parse_expr("9"))),
                           None, {}, (0.0, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        eng = CorrectionEngine(prob, field(prob, 0, anchor=0.0),
                               "fulling_current", 0, 0.0)
        grid = np.linspace(0.0, 2.0, 5)
        w = assemble_vector_wave(eng, +1, grid, 0.0, 1.0)
        for smp in w.samples:
            # u = |Q|^(-1/2) exp(i |Q| x) s0 with |Q| = 2
            want = math.sqrt(0.5) * cmath.exp(2j * smp.x)
            assert_allclose(abs(np.linalg.norm(smp.u)), abs(want), rtol=1e-12)

    def test_conjugation_symmetry(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 1, anchor=3.0),
                               "fulling_current", 2, 3.0)
        grid = np.linspace(3.0, 6.0, 7)
        wp = assemble_vector_wave(eng, +1, grid, 3.0, 0.1)
        wm = assemble_vector_wave(eng, -1, grid, 3.0, 0.1)
        for p, m in zip(wp.samples, wm.samples):
            assert np.max(np.abs(m.u - np.conj(p.u))) < 1e-12
            assert np.max(np.abs(m.u_prime - np.conj(p.u_prime))) < 1e-12

    def test_constant_R_residual_floor(self):
        spec = ProblemSpec(2, "reduced",
                           ((parse_expr("4"), parse_expr("1")),
                            (parse_expr("1"), parse_expr("4"))),
                           None, {}, (0.0, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        grid = np.linspace(0.0, 2.0, 5)
        for order in (0, 1, 2):
            eng = CorrectionEngine(prob, field(prob, 0, anchor=0.0),
                                   "fulling_current", order, 0.0)
            w = assemble_vector_wave(eng, +1, grid, 0.0, 1.0)
            assert V.relative_residual(w, lambda x: prob.R_value(x)) < 1e-12

    def test_negative_qsq_real_waves(self, fex3):
        eng = CorrectionEngine(fex3, field(fex3, 1), "wronskian_conserving",
                               2, 2.0)
        grid = np.linspace(2.0, 4.0, 5)
        w = assemble_vector_wave(eng, +1, grid, 2.0, 0.2)
        for smp in w.samples:
            assert np.max(np.abs(smp.u.imag)) < 1e-12

    def test_nonpositive_y_warning(self, fex1):
        # at lambda = 1 the corrections on the Q^2 = 1 branch exceed unity
        eng = CorrectionEngine(fex1, field(fex1, 0), "wronskian_conserving",
                               2, 2.0)
        grid = np.linspace(2.0, 7.0, 8)
        with pytest.warns(NonPositiveYWarning):
            assemble_vector_wave(eng, +1, grid, 2.0, 1.0)

    def test_applicability_monitor(self, fex1):
        eng = CorrectionEngine(fex1, field(fex1, 0), "fulling_current", 2, 2.0)
        corr = eng.at(7.5)
        with pytest.warns(ApplicabilityWarning):
            msgs = eng.applicability_warnings(corr, 1.0)
        assert msgs
        import warnings as W
        with W.catch_warnings():
            W.simplefilter("error")
            assert eng.applicability_warnings(corr, 1e-3) == []


class TestDegenerateSubspace:
    def test_eigenvalue_and_compatibility(self, deg3):
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        assert fld.degeneracy(2.0) == 2
        eng = CorrectionEngine(deg3, fld, "simplified_hermitian", 1, 2.0)
        corr = eng.at(2.3)
        assert_allclose(corr.Qsq.value, 5.3, rtol=1e-9)
        assert abs(corr.Y[1].value) < 1e-10
        assert eng.compatibility_residual(2.3, 1) < 1e-8

    def test_wave_residual_scales(self, deg3):
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        eng = CorrectionEngine(deg3, fld, "simplified_hermitian", 1, 2.0)
        grid = [2.0, 2.15, 2.3]
        rels = []
        for lam in (0.2, 0.1):
            w = assemble_vector_wave(eng, +1, grid, 2.0, lam)
            rels.append(V.relative_residual(
                w, lambda x, lv=lam: deg3.R_value(x, lv), [2.2]))
        assert 2.5 < rels[0] / rels[1] < 6.5    # order-1 truncation: ~4

    def test_nonhermitian_refuses_degeneracy(self, deg3):
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        with pytest.raises(UnsupportedDegeneracy):
            CorrectionEngine(deg3, fld, "non_hermitian", 1, 2.0)

    def test_exact_jets_match_closed_form_projector(self, deg3):
        # G = R diag(f, f, g) R^T with R the (1,3)-plane rotation by x/4:
        # the cluster's Q^2 is f = x + 3 and its projector is
        # R diag(1, 1, 0) R^T, expanded here by mpmath at 30 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def projector(i, j):
            def entry(t):
                c, s = mpmath.cos(t / 4), mpmath.sin(t / 4)
                rot = mpmath.matrix([[c, 0, s], [0, 1, 0], [-s, 0, c]])
                return (rot * mpmath.diag([1, 1, 0]) * rot.T)[i, j]
            return entry

        order = 8
        fld = BranchField(deg3, 0, "normalized", None, anchor=2.0)
        for x in (2.0, 2.3, 2.9):
            want_q = np.zeros(order + 1)
            want_q[:2] = (x + 3.0, 1.0)
            assert_allclose(fld.qsq_jet(x, order).coeffs, want_q, atol=1e-13)
            basis = fld.basis_jets(x, order)
            assert len(basis) == 2
            for i in range(3):
                for j in range(3):
                    got = sum(e[i] * e[j].conj() for e in basis).coeffs
                    want = [complex(c) for c in mpmath.taylor(
                        projector(i, j), x, order)]
                    assert_allclose(got, want, rtol=0, atol=1e-13)
        eng = CorrectionEngine(deg3, fld, "simplified_hermitian", 2, 2.0)
        assert eng.compatibility_residual(2.3, 2) < 1e-8


class TestNumericBackend:
    def test_n3_matches_decoupled_closed_form(self):
        c, s = "cos(x/4)", "sin(x/4)"
        d1, d2, d3 = "x", "2 + x^2/10", "6 - x/2"
        g11 = f"({c})^2*({d1}) + ({s})^2*({d2})"
        g12 = f"({c})*({s})*(({d2}) - ({d1}))"
        g22 = f"({s})^2*({d1}) + ({c})^2*({d2})"
        mat3 = ((parse_expr(g11), parse_expr(g12), parse_expr("0")),
                (parse_expr(g12), parse_expr(g22), parse_expr("0")),
                (parse_expr("0"), parse_expr("0"), parse_expr(d3)))
        spec3 = ProblemSpec(3, "reduced", mat3, None, {}, (1.0, 3.0),
                            "real_symmetric")
        prob3 = split_R(spec3, 1.0, None)
        mat2 = ((mat3[0][0], mat3[0][1]), (mat3[1][0], mat3[1][1]))
        spec2 = ProblemSpec(2, "reduced", mat2, None, {}, (1.0, 3.0),
                            "real_symmetric")
        prob2 = split_R(spec2, 1.0, None)
        e3 = CorrectionEngine(prob3, field(prob3, 0, anchor=2.0),
                              "simplified_hermitian", 2, 2.0)
        e2 = CorrectionEngine(prob2, field(prob2, 0, anchor=2.0),
                              "simplified_hermitian", 2, 2.0)
        c3, c2 = e3.at(2.2), e2.at(2.2)
        assert_allclose(c3.Qsq.value, 2.2, rtol=1e-10)
        assert_allclose(c3.Y[2].value, c2.Y[2].value, rtol=1e-12)


# --------------------------------------------------------------------------
# N > 2 eigen jets against the N = 2 closed form
# --------------------------------------------------------------------------

_FEX1_ROWS = example_problem("fulling-pos")["R"]
_R3 = "11 + sin(x)"          # third eigenvalue, clear of Fex1's 1 and x
_ANCHOR = 2.5


def _fex1_like(rows):
    data = dict(example_problem("fulling-pos"), n=len(rows), R=rows)
    spec, lam, a = load_problem(data)
    return split_R(spec, lam, a)


def _block_rows():
    return [r + ["0"] for r in _FEX1_ROWS] + [["0", "0", _R3]]


def _rational_rotation():
    """A fixed orthogonal 3x3 matrix with rational entries."""
    a = [[Fraction(3, 5), Fraction(-4, 5), 0],
         [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]]
    b = [[1, 0, 0], [0, Fraction(5, 13), Fraction(-12, 13)],
         [0, Fraction(12, 13), Fraction(5, 13)]]
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _rotated_rows(rows):
    """U G U^T, U = _rational_rotation(), for a 3x3 G of expression strings."""
    u = _rational_rotation()
    return [[" + ".join(f"({u[a][i] * u[b][j]})*({rows[i][j]})"
                        for i in range(3) for j in range(3)
                        if rows[i][j] != "0" and u[a][i] * u[b][j])
             for b in range(3)] for a in range(3)]


@pytest.fixture(scope="module")
def fex1_pair():
    return _fex1_like(_FEX1_ROWS)


@pytest.fixture(scope="module")
def block3():
    return _fex1_like(_block_rows())


def _engine(prob, rank, variant, m_max):
    return CorrectionEngine(prob, field(prob, rank, anchor=_ANCHOR), variant,
                            m_max, _ANCHOR)


def _values(vec):
    return np.array([c.value for c in vec])


class TestBlockEmbedding:
    """diag(Fex1, r3): ranks 0 and 1 are Fex1's branches, so the N = 3
    eigenprojection path must give the N = 2 closed-form engine's numbers."""

    @pytest.mark.parametrize("m_max", range(1, 7))
    @pytest.mark.parametrize("rank", [0, 1])
    def test_simplified(self, fex1_pair, block3, rank, m_max):
        e2 = _engine(fex1_pair, rank, "simplified_hermitian", m_max)
        e3 = _engine(block3, rank, "simplified_hermitian", m_max)
        for x in (2.5, 4.7):
            c2, c3 = e2.at(x), e3.at(x)
            for m in range(m_max + 1):
                assert_allclose(c3.Y[m].value, c2.Y[m].value,
                                rtol=1e-12, atol=1e-13)
                s3 = _values(c3.s[m])
                scale = 1.0 + np.max(np.abs(s3))
                assert_allclose(s3[:2], _values(c2.s[m]),
                                rtol=1e-12, atol=1e-12 * scale)
                assert abs(s3[2]) <= 1e-14 * scale

    @pytest.mark.parametrize("m_max", range(1, 7))
    def test_fulling_current_parallel_coordinates(self, fex1_pair, block3,
                                                  m_max):
        for rank in (0, 1):
            c2 = _engine(fex1_pair, rank, "fulling_current", m_max).at(2.8)
            c3 = _engine(block3, rank, "fulling_current", m_max).at(2.8)
            for m in range(1, m_max + 1):
                assert_allclose(c3.c_par[m].value, c2.c_par[m].value,
                                rtol=1e-12, atol=1e-13)
                assert_allclose(c3.Y[m].value, c2.Y[m].value,
                                rtol=1e-12, atol=1e-13)
                assert_allclose(_values(c3.s[m])[:2], _values(c2.s[m]),
                                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_non_hermitian_oblique_projector(self, rank):
        # diag(Fex4, r3): the oblique eigenprojection against Fex4's closed
        # form in the same (unit) gauge, also next to the zero of G12 at pi
        data = example_problem("nonhermitian")
        pair = split_R(*load_problem(data))
        rows = [r + ["0"] for r in data["R"]] + [["0", "0", _R3]]
        block = split_R(*load_problem(dict(data, n=3, R=rows)))
        e2, e3 = (CorrectionEngine(p, field(p, rank, anchor=2.0),
                                   "non_hermitian", 4, 2.0)
                  for p in (pair, block))
        for x in (2.0, 2.4, 2.8, 3.0, 3.3):
            c2, c3 = e2.at(x), e3.at(x)
            for m in range(5):
                assert_allclose(c3.Y[m].value, c2.Y[m].value,
                                rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("rank", [0, 1])
    def test_non_hermitian_rotated(self, rank):
        # U diag(Fex4, r3) U^T couples every component through an oblique
        # P: Fex4's Y_m, s_m = c U (s_m of the pair, 0) with one unimodular
        # c per branch, (s0, s_m) = 0, and the order-m relation
        # Y_m s0 - (G - Q^2) s_m / (2 Q^2) = b_m itself
        data = example_problem("nonhermitian")
        pair = split_R(*load_problem(data))
        rows = [r + ["0"] for r in data["R"]] + [["0", "0", _R3]]
        prob = split_R(*load_problem(dict(data, n=3, R=_rotated_rows(rows))))
        umat = np.array(_rational_rotation(), dtype=float)
        e2, e3 = (CorrectionEngine(p, field(p, rank, anchor=2.0),
                                   "non_hermitian", 4, 2.0)
                  for p in (pair, prob))
        factor = None
        for x in (2.0, 2.4, 2.8, 3.3):
            c2, c3 = e2.at(x), e3.at(x)
            s0 = _values(c3.s[0])
            shifted = prob.G_value(x) - c3.Qsq.value * np.eye(3)
            for m in range(5):
                assert_allclose(c3.Y[m].value, c2.Y[m].value,
                                rtol=1e-12, atol=1e-13)
                want = umat @ np.append(_values(c2.s[m]), 0.0)
                got = _values(c3.s[m])
                if factor is None:
                    factor = np.vdot(want, got) / np.vdot(want, want)
                    assert_allclose(abs(factor), 1.0, rtol=1e-12)
                scale = 1.0 + np.max(np.abs(want))
                assert_allclose(got, factor * want, rtol=0,
                                atol=1e-12 * scale)
                if m:
                    assert abs(np.vdot(s0, got)) <= 1e-12 * scale
                    rel = (c3.Y[m].value * s0 - _values(c3.b[m])
                           - shifted @ got / (2.0 * c3.Qsq.value))
                    assert_allclose(rel, 0.0, atol=1e-12 * scale)

    def test_constant_rotation(self, block3):
        # U diag(Fex1, r3) U^T: the same Y_m, and s_m rotated by U up to
        # one sign (the continuation starts from a different lead component)
        prob = _fex1_like(_rotated_rows(_block_rows()))
        umat = np.array(_rational_rotation(), dtype=float)
        for rank in (0, 1):
            e3 = _engine(block3, rank, "simplified_hermitian", 6)
            er = _engine(prob, rank, "simplified_hermitian", 6)
            signs = set()
            for x in (3.1, 4.7):
                c3, cr = e3.at(x), er.at(x)
                for m in range(7):
                    assert_allclose(cr.Y[m].value, c3.Y[m].value,
                                    rtol=1e-12, atol=1e-13)
                    want = umat @ _values(c3.s[m])
                    got = _values(cr.s[m])
                    sign = 1.0 if np.vdot(want, got).real >= 0 else -1.0
                    signs.add(sign)
                    assert_allclose(got, sign * want, rtol=0,
                                    atol=1e-12 * (1.0 + np.max(np.abs(want))))
            assert len(signs) == 1


class TestScalarRoute:
    def test_wave_matches_n1_wave(self, n1_engine):
        # G = (x^2 + 1) I: each component is the N = 1 wave of x^2 + 1
        q = parse_expr("x^2 + 1")
        spec = ProblemSpec(2, "reduced", ((q, parse_expr("0")),
                                          (parse_expr("0"), q)),
                           None, {}, (0.5, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, None)
        grid = [1.0, 1.2]
        ref = assemble_vector_wave(n1_engine("x^2 + 1", 1.0, 2, (0.5, 3.0)),
                                   +1, grid, 1.0, 0.1)
        for rank in (0, 1):
            eng = CorrectionEngine(prob, field(prob, rank, anchor=1.0),
                                   "simplified_hermitian", 2, 1.0)
            wave = assemble_vector_wave(eng, +1, grid, 1.0, 0.1)
            for got, want in zip(wave.samples, ref.samples):
                assert_allclose(got.phase, want.phase, rtol=1e-12)
                assert_allclose(got.u[rank], want.u[0], rtol=1e-12)
                assert_allclose(got.u_prime[rank], want.u_prime[0],
                                rtol=1e-12)
                assert got.u[1 - rank] == 0.0
                assert got.u_prime[1 - rank] == 0.0


def _scalar_matrix(n):
    """G = c(x) I_n with c = x^2 + 1 (N = 1 included)."""
    c = parse_expr("x^2 + 1")
    rows = tuple(tuple(c if i == j else parse_expr("0") for j in range(n))
                 for i in range(n))
    return split_R(ProblemSpec(n, "reduced", rows, None, {}, (0.5, 3.0),
                               "real_symmetric"), 1.0, None)


def _scalar_oracle(x, n_max):
    """`scalar_corrections` on Q^2 = x^2 + 1 and eps0 = S_x[Q]/Q^2 formed
    here from the expression's jet, not from a branch field."""
    k = 2 * n_max
    qsq = eval_expr_jet(parse_expr("x^2 + 1"), x, k + 2, {})
    d1, d2 = qsq.diff(), qsq.diff().diff()
    q0, q1, q2 = qsq.truncated(k), d1.truncated(k), d2.truncated(k)
    ratio = q1 / q0
    eps0 = ((5.0 / 16.0) * (ratio * ratio) - 0.25 * (q2 / q0)) / q0
    return scalar_corrections(eps0, qsq, n_max)


class TestWholeSpaceCluster:
    """N = 1 and G = c(x) I: the branch's cluster is the whole space
    (P = I, S = 0), so the coupled recurrence is the scalar one and every
    vector correction vanishes."""

    M = 6

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_scalar_recurrence(self, n, variant):
        prob = _scalar_matrix(n)
        for x in (1.3, 2.0):
            sc = _scalar_oracle(x, self.M // 2)
            for rank in range(n):
                eng = CorrectionEngine(prob, field(prob, rank, anchor=1.0),
                                       variant, self.M, 1.0)
                corr = eng.at(x)
                assert len(eng._points) == 1      # nothing to integrate
                for m in range(1, self.M + 1):
                    y = corr.Y[m].value
                    if m % 2:
                        assert abs(y) <= 1e-15, (m, y)
                    else:
                        assert_allclose(y, sc.Y[m // 2].value, rtol=1e-12)
                    for vec in (corr.s[m], corr.s_perp[m]):
                        assert all(c.value == 0.0 for c in vec), (m, vec)
                    assert corr.c_par[m].value == 0.0
                    if n == 2:
                        assert corr.c_perp[m].value == 0.0
                    else:
                        assert corr.c_perp[m] is None

    @pytest.mark.parametrize("variant", ["simplified_hermitian",
                                         "non_hermitian"])
    def test_raw_gauge_matches_n1(self, variant):
        # s0 = g e_rank: each rank of diag(c, c) and diag(c, c, c) is the
        # N = 1 problem of c in the same raw gauge
        g = parse_expr("x")
        ref = CorrectionEngine(
            _scalar_matrix(1), field(_scalar_matrix(1), 0, 1.0, "raw", g),
            variant, self.M, 1.0)
        for n in (2, 3):
            prob = _scalar_matrix(n)
            for rank in range(n):
                eng = CorrectionEngine(prob, field(prob, rank, 1.0, "raw", g),
                                       variant, self.M, 1.0)
                for x in (1.3, 2.0):
                    want, got = ref.at(x), eng.at(x)
                    assert abs(want.Y[1].value) > 0.1
                    for m in range(self.M + 1):
                        assert_allclose(got.Y[m].value, want.Y[m].value,
                                        rtol=1e-13, atol=1e-13)
                        s_m = [c.value for c in got.s[m]]
                        assert_allclose(s_m[rank], want.s[m][0].value,
                                        rtol=1e-13, atol=1e-13)
                        assert s_m[:rank] + s_m[rank + 1:] == [0.0] * (n - 1)

    def test_eigen_data_is_the_whole_space(self):
        for n in (1, 2, 3):
            prob = _scalar_matrix(n)
            fld = field(prob, n - 1, anchor=1.0)
            assert fld.full_degeneracy_region(1.7)
            qsq, proj, res = fld._eigen_jets(1.7, 4)
            assert_allclose(qsq, prob.G_jet(1.7, 4)[0][0].coeffs, rtol=1e-15)
            assert_allclose(proj[0], np.eye(n), atol=0)
            assert not proj[1:].any() and not res.any()
            assert fld.complement_jets(1.7, 2) == ()
            s0 = fld.s0_jets(1.7, 4)
            assert [c.value for c in s0] == [float(j == n - 1)
                                             for j in range(n)]
