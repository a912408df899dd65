import json
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phaseintegral.errors import InputError, SingularCoefficient
from phaseintegral.examples import example_problem
from phaseintegral.expressions import (
    Const, JetTape, eval_expr, eval_expr_jet, parse_expr,
)
from phaseintegral.jets import jet_variable
from phaseintegral.problem import (
    ProblemSpec, ReducedProblem, langer_auxiliary, load_problem,
    problem_to_dict, reduce_first_derivative, split_R,
)
from phaseintegral.verify import Wave, WaveSample
from phaseintegral import verify as V


class TestReduction:
    def test_radial_case_no_net_shift(self):
        # a(r) = 2/r: the quadratic and derivative pieces cancel exactly
        spec = ProblemSpec(1, "schrodinger_like", ((parse_expr("5 - x"),),),
                           (parse_expr("2/x"),), {}, (0.5, 4.0), "real_symmetric")
        red = reduce_first_derivative(spec)
        for x in (0.7, 1.3, 2.9):
            assert_allclose(eval_expr(red.matrix[0][0], x),
                            eval_expr(spec.matrix[0][0], x), atol=1e-13)

    def test_zero_coefficient_identity(self):
        spec = ProblemSpec(1, "schrodinger_like", ((parse_expr("x^2"),),),
                           (parse_expr("0"),), {}, (0.0, 1.0), "real_symmetric")
        red = reduce_first_derivative(spec)
        for x in (0.2, 0.8):
            assert_allclose(eval_expr(red.matrix[0][0], x), x * x, atol=1e-14)

    def test_constant_coefficient_shift(self):
        c = 0.8
        spec = ProblemSpec(1, "schrodinger_like", ((parse_expr("x + 2"),),),
                           (parse_expr(str(c)),), {}, (0.0, 1.0), "real_symmetric")
        red = reduce_first_derivative(spec)
        for x in (0.1, 0.9):
            assert_allclose(eval_expr(red.matrix[0][0], x),
                            x + 2 - c * c / 4.0, atol=1e-14)

    def test_manufactured_solution_residual(self):
        # u-bar = sin(x) solves u'' + c u' + Rbar u = 0 with
        # Rbar = 1 - c cos(x)/sin(x); the transformed u = exp(cx/2) sin(x)
        # must solve the reduced equation.
        c = 0.6
        rbar = parse_expr(f"1 - {c}*cos(x)/sin(x)")
        spec = ProblemSpec(1, "schrodinger_like", ((rbar,),),
                           (parse_expr(str(c)),), {}, (0.4, 2.6),
                           "real_symmetric")
        red = reduce_first_derivative(spec)
        prob = split_R(red, 1.0, None)
        pts = [0.7, 1.2, 2.0]

        def jet_at(x):
            xj = jet_variable(x, 2)
            u = eval_expr_jet(parse_expr(f"exp({c / 2}*x)*sin(x)"), x, 2)
            return (u,)

        wave = Wave([WaveSample(x, np.array([jet_at(x)[0].value]),
                                np.array([jet_at(x)[0].derivative(1)]), 0.0)
                     for x in pts], jet_at, 1.0, +1)
        rows = V.residual(wave, lambda x: prob.R_value(x), pts)
        assert max(r for _, r, _ in rows) <= 1e-8

    def test_pole_inside_domain_raises(self):
        spec = ProblemSpec(1, "schrodinger_like", ((parse_expr("1"),),),
                           (parse_expr("1/(x - 1)"),), {}, (0.0, 2.0),
                           "real_symmetric")
        with pytest.raises(SingularCoefficient):
            reduce_first_derivative(spec)


class TestSplit:
    def test_identity_split(self, fex1):
        # lambda = 1, a = 0: G equals R entrywise
        spec, lam, a = load_problem(example_problem("fulling-pos"))
        for x in (2.0, 5.0):
            assert_allclose(fex1.G_value(x), spec.matrix_value(x), atol=1e-14)

    def test_scalar_algebra(self):
        spec = ProblemSpec(1, "reduced", ((parse_expr("x"),),), None, {},
                           (0.5, 3.0), "real_symmetric")
        prob = split_R(spec, 1.0, parse_expr("-1/(4*x^2)"))
        for x in (0.8, 2.0):
            assert_allclose(prob.G_value(x)[0, 0], x + 1 / (4 * x * x),
                            rtol=1e-14)

    def test_lambda_scaling(self, fex1):
        spec, _, _ = load_problem(example_problem("fulling-pos"))
        prob = split_R(spec, 0.5, None)
        for x in (2.0, 6.0):
            assert_allclose(prob.G_value(x), 0.25 * spec.matrix_value(x),
                            rtol=1e-14)

    def test_recombination_on_grid(self):
        spec, _, _ = load_problem(example_problem("bec-vortex"))
        a = parse_expr("1/(4*x^2)")
        prob = split_R(spec, 0.35, a)
        xs = np.linspace(12.0, 100.0, 100)
        for x in xs:
            R = prob.R_value(float(x))
            want = spec.matrix_value(float(x)) \
                + (1 / 0.35**2 - 1) * 0  # R is defined by the split itself
            direct = spec.matrix_value(float(x))
            recomb = 0.35**2 * (R - eval_expr(a, float(x)) * np.eye(2))
            assert_allclose(recomb, prob.G_value(float(x)),
                            rtol=1e-13, atol=1e-13)
            assert_allclose(R, prob.G_value(float(x)) / 0.35**2
                            + eval_expr(a, float(x)) * np.eye(2), rtol=1e-13)


class TestLanger:
    def test_radial_modification(self):
        # R = k^2 - l(l+1)/r^2 with a = 1/(4r^2): Q^2 = k^2 - (l+1/2)^2/r^2
        l, k = 2, 1.3
        spec = ProblemSpec(1, "reduced",
                           ((parse_expr(f"{k * k} - {l * (l + 1)}/x^2"),),),
                           None, {}, (0.5, 10.0), "real_symmetric")
        a = langer_auxiliary(0.25)
        prob = split_R(spec, 1.0, a)
        for r in (0.9, 2.5, 7.0):
            assert_allclose(prob.G_value(r)[0, 0],
                            k * k - (l + 0.5) ** 2 / r**2, rtol=1e-13)

    def test_zero_strength(self):
        assert langer_auxiliary(0.0) == Const(0.0)

    def test_quarter_strength_regularizes_eps0(self):
        # Q0^2 with a second-order pole of strength c0 != 1/4: with
        # c_a = 1/4 the corrected eps0 tends to 0 as x -> 0
        from phaseintegral.spectral import BranchField
        c0 = 1.0
        spec = ProblemSpec(1, "reduced", ((parse_expr(f"{c0}*(1 + x)/x^2"),),),
                           None, {}, (1e-5, 1.0), "real_symmetric")
        plain = split_R(spec, 1.0, None)
        mod = split_R(spec, 1.0, langer_auxiliary(0.25))
        f_plain = BranchField(plain, 0, "normalized", None, anchor=0.5)
        f_mod = BranchField(mod, 0, "normalized", None, anchor=0.5)
        xs = [1e-1, 1e-2, 1e-3, 1e-4]
        eps_plain = [abs(f_plain.eps0_jet(x, 0).value) for x in xs]
        eps_mod = [abs(f_mod.eps0_jet(x, 0).value) for x in xs]
        assert eps_plain[-1] > 0.2          # unmodified stays away from zero
        assert eps_mod[-1] < 1e-3           # modified vanishes
        assert eps_mod[-1] < eps_mod[0]


class TestJsonRoundTrip:
    def test_examples_load(self):
        for name in ("fulling-pos", "fulling-neg", "nonhermitian",
                     "bec-vortex", "scalar-quadratic"):
            spec, lam, a = load_problem(example_problem(name))
            assert spec.n in (1, 2)
            assert lam == 1.0

    def test_round_trip(self):
        data = example_problem("bec-vortex")
        spec, lam, a = load_problem(data)
        again = problem_to_dict(spec, lam=lam)
        spec2, lam2, _ = load_problem(json.dumps(again))
        for x in (20.0, 55.0):
            assert_allclose(spec2.matrix_value(x), spec.matrix_value(x),
                            rtol=1e-13)

    def test_symmetry_check_enforced(self):
        bad = {
            "n": 2, "form": "reduced",
            "R": [["x", "1"], ["2", "x"]],
            "domain": [0.0, 1.0], "hermitian_hint": "real_symmetric",
        }
        spec, lam, a = load_problem(bad)
        with pytest.raises(ValueError):
            split_R(spec, lam, a)

    def test_input_checks_raise_input_errors(self):
        # what a problem file or a command line argument can get wrong is
        # an InputError (the CLI's exit 2) and still a ValueError
        from phaseintegral.spectral import BranchField
        from phaseintegral.vector import CorrectionEngine
        spec, lam, a = load_problem(example_problem("fulling-pos"))
        prob = split_R(spec, lam, a)
        fld = BranchField(prob, 0, anchor=3.0)
        R = lambda x: prob.R_value(x)   # noqa: E731
        bad = [
            lambda: split_R(spec, -1.0, a),
            lambda: ReducedProblem(prob.n, prob.G, prob.a, 1.0, {},
                                   prob.domain, "hermitan"),
            lambda: BranchField(prob, 2),
            lambda: BranchField(prob, 0, "rawg"),
            lambda: CorrectionEngine(prob, fld, "fulling", 2, 3.0),
            lambda: CorrectionEngine(prob, fld, "simplified_hermitian", -1),
            lambda: V.reference_integrate(R, 3.0, [1, 0], [0, 1], 4.0,
                                          tol=1e-2),
            lambda: V.reference_integrate(R, 3.0, [1, 0], [0, 1], 4.0,
                                          dense_points=[5.0]),
        ]
        for make in bad:
            with pytest.raises(InputError) as info:
                make()
            assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("name", [
        "split_R", "eigen_n2_closed_form", "eigen_track", "jet_arith",
        "jet_elem-pow_real", "jet_elem-name", "wronskian", "order_scaling",
        "model_epsilon00"])
    def test_library_misuse_raises_library_errors(self, name):
        # the library helpers that no problem file reaches raise the
        # package's InvalidInput too, still a ValueError
        from phaseintegral.errors import PhaseIntegralError
        from phaseintegral.jets import jet_arith, jet_elem
        from phaseintegral.problem import model_epsilon00
        from phaseintegral.spectral import eigen_n2_closed_form, eigen_track
        spec, lam, a = load_problem(example_problem("fulling-pos"))
        prob = split_R(spec, lam, a)
        one = split_R(*load_problem(example_problem("scalar-quadratic")))
        j = jet_variable(1.0, 2)
        sample = WaveSample(1.0, np.ones(2, complex), np.ones(2, complex), 0j)
        wave = Wave([sample], lambda x: None, 1.0, 1)
        call = {
            "split_R": lambda: split_R(ProblemSpec(
                1, "schrodinger_like", ((parse_expr("x"),),),
                (parse_expr("1"),), {}, (0.5, 4.0), "real_symmetric")),
            "eigen_n2_closed_form": lambda: eigen_n2_closed_form(one, 1.0,
                                                                 2),
            "eigen_track": lambda: eigen_track(prob, [3.0, 3.0], 0, 2),
            "jet_arith": lambda: jet_arith("pow", j, j),
            "jet_elem-pow_real": lambda: jet_elem("pow_real", j),
            "jet_elem-name": lambda: jet_elem("tan", j),
            "wronskian": lambda: V.wronskian([], [], "plain"),
            "order_scaling": lambda: V.order_scaling(
                lambda lam: wave, lambda lam: prob.R_value, [0.1, 0.2],
                [3.0]),
            "model_epsilon00": lambda: model_epsilon00(("log", 1.0), None,
                                                       1.0),
        }[name]
        with pytest.raises(PhaseIntegralError) as info:
            call()
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("name, error", [
        ("field-anchor", "InvalidInput"), ("s0-jets", "InvalidInput"),
        ("qsq-value-inf", "InvalidInput"), ("engine-anchor", "InvalidInput"),
        ("engine-at", "InvalidInput"), ("crossings", "InvalidInput"),
        ("file-param", "InvalidInput"), ("file-lambda", "InvalidInput"),
        ("file-domain", "InvalidInput"),
        ("nan-g-degeneracy", "EvaluationSingularity"),
        ("nan-g-s0-jets", "EvaluationSingularity"),
        ("nan-g-engine-at", "EvaluationSingularity"),
        ("nan-g-n3-s0-jets", "EvaluationSingularity"),
        ("nan-g-n3-general-qsq", "EvaluationSingularity")])
    def test_non_finite_input_raises_library_errors(self, name, error):
        # a non-finite x or anchor is refused as input; a G that is not
        # finite at x (json reads NaN) is an evaluation error naming x
        import dataclasses
        from phaseintegral import errors
        from phaseintegral.spectral import BranchField
        from phaseintegral.vector import CorrectionEngine
        nan, inf = float("nan"), float("inf")
        prob = split_R(*load_problem(example_problem("fulling-pos")))
        fld = BranchField(prob, 0, anchor=3.0)
        spec, lam, a = load_problem(example_problem("bec-vortex"))
        bec = split_R(dataclasses.replace(
            spec, params={**spec.params, "k": complex(nan)}), lam, a)
        rows3 = [[f"{v}*x" if i == j else "0.1" for j in range(3)]
                 for i, v in enumerate((1, 2, "k"))]

        def n3(hint):
            mat = tuple(tuple(parse_expr(e) for e in r) for r in rows3)
            return split_R(ProblemSpec(3, "reduced", mat, None, {"k": nan},
                                       (1.0, 3.0), hint))

        def file(**change):
            return load_problem({**example_problem("fulling-pos"), **change})

        call = {
            "field-anchor": lambda: BranchField(prob, 0, anchor=nan),
            "s0-jets": lambda: fld.s0_jets(nan, 0),
            "qsq-value-inf": lambda: fld.qsq_value(inf),
            "engine-anchor": lambda: CorrectionEngine(
                prob, fld, "simplified_hermitian", 2, nan),
            "engine-at": lambda: CorrectionEngine(
                prob, fld, "simplified_hermitian", 2, 3.0).at(nan),
            "crossings": lambda: V.crossing_diagnostics(prob, nan, 3.0),
            "file-param": lambda: file(params={"k": nan}),
            "file-lambda": lambda: file(**{"lambda": nan}),
            "file-domain": lambda: file(domain=[0.5, inf]),
            "nan-g-degeneracy": lambda: BranchField(
                bec, 0, anchor=60.0).degeneracy(60.0),
            "nan-g-s0-jets": lambda: BranchField(
                bec, 0, anchor=60.0).s0_jets(60.0, 0),
            "nan-g-engine-at": lambda: CorrectionEngine(
                bec, BranchField(bec, 0, anchor=60.0),
                "simplified_hermitian", 2, 60.0).at(60.0),
            "nan-g-n3-s0-jets": lambda: BranchField(
                n3("real_symmetric"), 0, anchor=2.0).s0_jets(2.0, 0),
            "nan-g-n3-general-qsq": lambda: BranchField(
                n3("general"), 0, anchor=2.0).qsq_value(2.0),
        }[name]
        with pytest.raises(getattr(errors, error)) as info:
            call()
        if error == "EvaluationSingularity":
            assert "not finite at x = " in str(info.value)


class TestPickle:
    def test_evaluated_problem_pickles(self):
        # G_value runs the tape over all entries of G that it caches on the
        # problem (and eval_expr caches tapes on expressions): the caches
        # must stay out of the pickled state
        spec, lam, a = load_problem(example_problem("bec-vortex"))
        bec = split_R(spec, lam, a)
        before = bec.G_value(55.0)
        bec.a_value(55.0)
        assert "_G_tape" in vars(bec)
        assert "_G_tape" not in bec.__getstate__()
        again = pickle.loads(pickle.dumps(bec))
        assert "_G_tape" not in vars(again) and again == bec
        assert again.G == bec.G
        assert again.G_value(55.0).tobytes() == before.tobytes()

    def test_problem_pickles_after_R_value(self, bec):
        # R_value runs its own tape over G's entries and a: that one is a
        # cache too
        before = bec.R_value(55.0, 0.1)
        assert "_R_tape" in vars(bec)
        assert "_R_tape" not in bec.__getstate__()
        again = pickle.loads(pickle.dumps(bec))
        assert "_R_tape" not in vars(again) and again == bec
        assert again.R_value(55.0, 0.1).tobytes() == before.tobytes()

    def test_problem_pickles_after_G_jet(self, bec):
        # G_jet compiles one tape over all entries and caches it on the
        # problem (and eval_expr_jet caches tapes on expressions): the
        # caches must stay out of the pickled state
        before = bec.G_jet(55.0, 6)
        bec.a_jet(55.0, 6)
        again = pickle.loads(pickle.dumps(bec))
        assert "_G_tape" not in vars(again) and again == bec
        after = again.G_jet(55.0, 6)
        for row_b, row_a in zip(before, after):
            for jb, ja in zip(row_b, row_a):
                assert jb.coeffs.tobytes() == ja.coeffs.tobytes()


def test_R_value_runs_one_tape(monkeypatch):
    # R's n x n entries of G and a(x) come from one run of one value
    # program, and G_value's program leaves a out
    spec, lam, _ = load_problem(example_problem("fulling-pos"))
    prob = split_R(spec, lam, parse_expr("1/x^2"))
    runs = []
    run_values = JetTape._run_values

    def counted(self, x0, params):
        runs.append(len(self._outs))
        return run_values(self, x0, params)
    monkeypatch.setattr(JetTape, "_run_values", counted)
    prob.R_value(2.0, 0.1)
    assert runs == [5]
    runs.clear()
    prob.G_value(2.0)
    assert runs == [4]


@pytest.mark.parametrize("name", ["fulling-pos", "fulling-neg", "nonhermitian",
                                  "bec-vortex", "scalar-quadratic"])
def test_R_value_bit_identical_to_eye_formula(name):
    spec, lam, a = load_problem(example_problem(name))
    prob = split_R(spec, lam, a)
    lo, hi = prob.domain
    for x in np.linspace(lo, hi, 17)[1:-1]:
        x = float(x)
        for lv in (None, 0.1, 0.37):
            lam = prob.lam if lv is None else lv
            old = prob.G_value(x) / lam**2 + prob.a_value(x) * np.eye(prob.n)
            assert prob.R_value(x, lv).tobytes() == old.tobytes(), (name, x, lv)
