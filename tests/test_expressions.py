import cmath
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import cauchy_coeffs
from phaseintegral import expressions
from phaseintegral.errors import (
    BranchPointEvaluation, DivisionByZeroLeadCoefficient,
    EvaluationSingularity, ExpressionSyntaxError, UnboundParameter,
    UnknownFunction,
)
from phaseintegral.examples import EXAMPLES, example_problem
from phaseintegral.expressions import (
    _COMPLEX_EXPONENT, FUNCTIONS, Add, Const, Div, Func, JetTape, Mul, Neg,
    Param, Pow, Sub, Var, diff_expr, eval_expr, eval_expr_jet, parse_expr,
    to_string,
)
from phaseintegral.problem import load_problem, split_R


class TestParsing:
    def test_fex1_entry(self):
        e = parse_expr("x*cos(x)^2 + sin(x)^2")
        x = 1.3
        assert_allclose(eval_expr(e, x),
                        x * math.cos(x) ** 2 + math.sin(x) ** 2, rtol=1e-15)

    def test_constant_zero(self):
        e = parse_expr("0")
        assert isinstance(e, Const) and e.value == 0

    def test_bec_h2(self):
        e = parse_expr("-1 + 1/x^2 + 2/x^4 + 19/x^6 + 374/x^8")
        x = 55.0
        want = -1 + 1 / x**2 + 2 / x**4 + 19 / x**6 + 374 / x**8
        assert_allclose(eval_expr(e, x), want, rtol=1e-15)

    def test_imaginary_unit(self):
        assert eval_expr(parse_expr("2*i*x"), 3.0) == 6j

    def test_power_precedence(self):
        # ^ binds tighter than unary minus and is right associative
        assert eval_expr(parse_expr("-x^2"), 3.0) == -9.0
        assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expr("x + * 2")
        assert err.value.position is not None

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_expr("tan(x)")

    def test_print_parse_idempotent(self):
        texts = [
            "x*cos(x)^2 + sin(x)^2",
            "-1 + 1/x^2 + 2/x^4 + 19/x^6 + 374/x^8",
            "2*i*(x - 1)*cos(x)*sin(x)",
            "-(x - 1)^2/(x + 2)^0.5 - exp(-x)*i",
            "k^2 + 2*(omega + 1/x^2)",
            "sqrt(1 + x^2)/ln(2 + x)",
        ]
        for t in texts:
            e = parse_expr(t)
            printed = to_string(e)
            again = parse_expr(printed)
            assert again == e, t
            assert to_string(again) == printed

    def test_random_print_parse_round_trip(self):
        rng = np.random.default_rng(3)
        atoms = ["x", "p", "2", "0.5", "i"]
        ops = ["{} + {}", "{} - {}", "{}*{}", "{}/({} + 3)", "sin({})",
               "cos({})", "exp({})", "({})^2"]
        for _ in range(40):
            t = atoms[rng.integers(len(atoms))]
            for _ in range(rng.integers(1, 5)):
                op = ops[rng.integers(len(ops))]
                other = atoms[rng.integers(len(atoms))]
                t = op.format(t, other) if op.count("{}") == 2 else op.format(t)
            e = parse_expr(t)
            assert parse_expr(to_string(e)) == e


class TestJetEvaluation:
    def test_fex1_entry_jet_at_zero(self):
        j = eval_expr_jet(parse_expr("x*cos(x)^2 + sin(x)^2"), 0.0, 1)
        assert_allclose(j.coeffs, [0.0, 1.0], atol=1e-15)

    def test_constant_parameter(self):
        j = eval_expr_jet(parse_expr("c"), 1.7, 2, {"c": 3.0})
        assert_allclose(j.coeffs, [3.0, 0.0, 0.0])

    def test_pole_raises(self):
        with pytest.raises(EvaluationSingularity):
            eval_expr_jet(parse_expr("1/x"), 0.0, 2)

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter):
            eval_expr_jet(parse_expr("k*x"), 1.0, 1)

    def test_coefficients_match_repeated_symbolic_derivative(self):
        # 50 random expressions, orders p <= 4, rel tol 1e-9
        rng = np.random.default_rng(11)
        pool = [
            "sin({a}*x)", "cos({a}*x + {b})", "exp({a}*x)",
            "sqrt({b} + x^2)", "ln({b} + x^2)", "1/({b} + x^2)",
            "x^3 - {a}*x", "({b} + x)^1.5", "{a}*x*sin(x)",
        ]
        count = 0
        while count < 50:
            a = round(float(rng.uniform(0.3, 1.7)), 3)
            b = round(float(rng.uniform(0.5, 2.0)), 3)
            t1 = pool[rng.integers(len(pool))].format(a=a, b=b)
            t2 = pool[rng.integers(len(pool))].format(a=b, b=a)
            text = f"({t1}) + ({t2})" if count % 2 else f"({t1})*({t2})"
            x0 = float(rng.uniform(0.2, 1.4))
            e = parse_expr(text)
            jet = eval_expr_jet(e, x0, 4)
            d = e
            for p in range(5):
                want = eval_expr(d, x0)
                got = jet.coeffs[p] * math.factorial(p)
                assert_allclose(got, want, rtol=1e-9, atol=1e-9), text
                d = diff_expr(d)
            count += 1


class TestDifferentiation:
    def test_sin(self):
        assert diff_expr(parse_expr("sin(x)")) == parse_expr("cos(x)")

    def test_square(self):
        d = diff_expr(parse_expr("x^2"))
        assert_allclose(eval_expr(d, 1.7), 3.4)

    def test_against_finite_difference(self):
        e = parse_expr("x*cos(x)^2")
        d = diff_expr(e)
        h = 1e-6
        fd = (eval_expr(e, h) - eval_expr(e, -h)) / (2 * h)
        assert_allclose(eval_expr(d, 0.0), fd, atol=1e-8)
        assert_allclose(eval_expr(d, 0.0), 1.0, atol=1e-12)

    def test_quotient_rule_fd(self):
        e = parse_expr("sin(x)/(2 + cos(x))")
        d = diff_expr(e)
        x0, h = 0.9, 1e-6
        fd = (eval_expr(e, x0 + h) - eval_expr(e, x0 - h)) / (2 * h)
        assert_allclose(eval_expr(d, x0), fd, rtol=1e-8)

    def test_parameter_is_constant(self):
        d = diff_expr(parse_expr("k*x + k^2"))
        assert_allclose(eval_expr(d, 5.0, {"k": 2.5}), 2.5)


# --------------------------------------------------------------------------
# compiled values against the tree walk and against mpmath
# --------------------------------------------------------------------------

def _outcome(f):
    """('value', v) or ('raises', exception class) of one evaluation."""
    with np.errstate(all="ignore"):
        try:
            return "value", f()
        except Exception as exc:            # compared by class
            return "raises", type(exc)


def _same_value(a: complex, b: complex) -> bool:
    if a == b:
        return True
    if cmath.isfinite(a) and cmath.isfinite(b):   # hypot: no OverflowError
        return (math.hypot(a.real - b.real, a.imag - b.imag)
                <= 1e-13 * math.hypot(b.real, b.imag))
    return all(u == v or (math.isnan(u) and math.isnan(v))
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


def _assert_matches_tree_walk(e, x, params):
    got = _outcome(lambda: eval_expr(e, x, params))
    want = _outcome(lambda: eval_expr_jet(e, x, 0, params).value)
    assert got[0] == want[0], (to_string(e), x, got, want)
    if got[0] == "raises":
        assert got[1] is want[1], (to_string(e), x, got, want)
    else:
        assert _same_value(got[1], want[1]), (to_string(e), x, got, want)


_leaves = st.one_of(
    st.builds(Const, st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.5, 3.0, 1j,
                                      complex(0.5, -2.0)])),
    st.builds(Const, st.floats(-3.0, 3.0).map(complex)),
    st.just(Var()),
    st.just(Param("k")),
)

_exponents = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, -1.0, -2.0, 0.5,
                     1.5, -0.5, 2.5, 1j]).map(Const),
    st.just(Param("k")),
    st.just(Neg(Const(2.0))),
)


def _nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, _exponents),
        st.builds(Pow, children, children),     # x-dependent exponents too
        st.builds(Func, st.sampled_from(FUNCTIONS), children),
    )


_asts = st.recursive(_leaves, _nodes, max_leaves=12)

_points = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, -2.0, 0.5]),
                    st.floats(-4.0, 4.0))

_params = st.one_of(st.just({}),
                    st.builds(lambda v: {"k": v},
                              st.sampled_from([2.0, 0.5, -1.0, 1j, 0.0])),
                    st.floats(-3.0, 3.0).map(lambda v: {"k": v}))


class TestCompiledValues:
    """`eval_expr` runs a closure compiled once; the tree walk is its oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(e=_asts, x=_points, params=_params)
    def test_random_asts_match_tree_walk(self, e, x, params):
        _assert_matches_tree_walk(e, x, params)

    @pytest.mark.parametrize("text, x, params, exc", [
        ("1/(x-2)", 2.0, {}, EvaluationSingularity),
        ("sqrt(x)", 0.0, {}, EvaluationSingularity),
        ("x^0.5", 0.0, {}, EvaluationSingularity),
        ("ln(x-1)", 1.0, {}, EvaluationSingularity),
        ("x^i", 2.0, {}, EvaluationSingularity),
        ("k*x", 1.0, {}, UnboundParameter),
        ("x^k", 2.0, {"k": 1j}, EvaluationSingularity),
        ("(1/(x-2))^k", 2.0, {}, UnboundParameter),
    ])
    def test_singular_points_raise_like_tree_walk(self, text, x, params, exc):
        e = parse_expr(text)
        with pytest.raises(exc):
            eval_expr(e, x, params)
        with pytest.raises(exc):
            eval_expr_jet(e, x, 0, params)

    @pytest.mark.parametrize("text", [
        "sqrt(-x)", "sqrt(0 - x)", "sqrt((-x)*3)", "ln(-1*x)", "x^x",
        "(x - 1)^(x - 1)", "x^-1", "(-x)^0.5", "2^3^2", "-x^2",
    ])
    def test_branch_cut_sides_match_tree_walk(self, text):
        # The sign of a zero imaginary part picks the side of the cut.
        for x in (-2.0, -0.5, 0.5, 2.0, 3.0):
            _assert_matches_tree_walk(parse_expr(text), x, {})

    @pytest.mark.parametrize("text", [
        "x + 0", "x*x + 2*x", "sin(x) - cos(x)", "exp(x)/(1 + x^2)",
        "sqrt(x + 4)", "ln(x)", "x^k", "1/x",
    ])
    def test_nan_point_matches_tree_walk(self, text):
        # two jets centred at NaN are at the same point: no MismatchedJets
        _assert_matches_tree_walk(parse_expr(text), math.nan, {"k": 2.5})

    def test_example_entries_bit_identical(self):
        for data in EXAMPLES.values():
            lo, hi = data["domain"]
            for row in data["R"]:
                for text in row:
                    e = parse_expr(text)
                    for x in np.linspace(lo, hi, 61):
                        got = eval_expr(e, float(x), data["params"])
                        want = eval_expr_jet(e, float(x), 0,
                                             data["params"]).value
                        assert (got.real, got.imag) == (want.real, want.imag)

    def test_compiled_form_stays_out_of_state(self):
        e = parse_expr("x*cos(x)^2 + k/x")
        first = eval_expr(e, 1.3, {"k": 2.0})
        again = pickle.loads(pickle.dumps(e))
        assert again == e and hash(again) == hash(e)
        assert eval_expr(again, 1.3, {"k": 2.0}) == first
        # parameters are read at every call, never folded
        assert eval_expr(e, 1.3, {"k": 3.0}) != first


def _mp_value(e, x, params, mp):
    """Independent 30-digit interpreter of the AST."""
    def ev(n):
        if isinstance(n, Const):
            return mp.mpc(n.value)
        if isinstance(n, Var):
            return mp.mpc(x)
        if isinstance(n, Param):
            return mp.mpc(params[n.name])
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Func):
            return {"exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt,
                    "sin": mp.sin, "cos": mp.cos}[n.name](ev(n.arg))
        a, b = ev(n.left), ev(n.right)
        if isinstance(n, Add):
            return a + b
        if isinstance(n, Sub):
            return a - b
        if isinstance(n, Mul):
            return a * b
        if isinstance(n, Div):
            return a / b
        return mp.power(a, b)
    return ev(e)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_G_against_mpmath(name):
    mp = pytest.importorskip("mpmath").mp.clone()   # private precision
    mp.dps = 30
    spec, lam, a = load_problem(example_problem(name))
    prob = split_R(spec, lam, a)
    lo, hi = prob.domain
    for x in np.linspace(lo, hi, 9)[1:-1]:
        x = float(x)
        for row in prob.G:
            for e in row:
                want = complex(_mp_value(e, x, prob.params, mp))
                got = eval_expr(e, x, prob.params)
                assert abs(got - want) <= 1e-13 * abs(want), \
                    (name, to_string(e), x, got, want)


# --------------------------------------------------------------------------
# the Taylor tape against the tree walk, mpmath and itself
# --------------------------------------------------------------------------

def _walk(e, x, order, params):
    """The tree walk `_eval`, with eval_expr_jet's error conversion."""
    try:
        return expressions._eval(e, x, order, params)
    except (DivisionByZeroLeadCoefficient, BranchPointEvaluation) as exc:
        raise EvaluationSingularity(str(exc)) from exc


def _jet_outcome(f):
    """('value', coefficients) or ('raises', class, complex-exponent?)."""
    with np.errstate(all="ignore"):
        try:
            return "value", f().coeffs
        except Exception as exc:            # compared by class
            return "raises", type(exc), str(exc) == _COMPLEX_EXPONENT


def _same_coeffs(got, want) -> bool:
    if got.shape != want.shape:
        return False
    finite = [abs(w) for w in want.tolist() if cmath.isfinite(w)]
    floor = 1e-13 * max(finite, default=0.0)
    return all(_same_value(g, w) or abs(g - w) <= floor
               for g, w in zip(got.tolist(), want.tolist()))


# block3 = diag(Fex1, 9) and Fex1 rotated 40 times faster, as benchmarked
_FEX1_ROWS = [["x*cos(x)^2 + sin(x)^2", "(x - 1)*cos(x)*sin(x)"],
              ["(x - 1)*cos(x)*sin(x)", "x*sin(x)^2 + cos(x)^2"]]
_MORE_PROBLEMS = {
    "block3": {"n": 3, "R": [r + ["0"] for r in _FEX1_ROWS] + [["0", "0", "9"]],
               "domain": [0.2, 8.5], "hermitian_hint": "real_symmetric"},
    "fast": {"n": 2, "R": [[t.replace("(x)", "(40*x)") for t in r]
                           for r in _FEX1_ROWS],
             "domain": [0.2, 12.0], "hermitian_hint": "real_symmetric"},
}


def _problem(name):
    data = (_MORE_PROBLEMS[name] if name in _MORE_PROBLEMS
            else example_problem(name))
    spec, lam, a = load_problem(data)
    return split_R(spec, lam, a)


class TestJetTape:
    """`eval_expr_jet` and `G_jet` run compiled tapes; `_eval` is the oracle."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(e=_asts, x=_points, params=_params, order=st.integers(0, 10))
    def test_random_asts_match_tree_walk(self, e, x, params, order):
        got = _jet_outcome(lambda: eval_expr_jet(e, x, order, params))
        want = _jet_outcome(lambda: _walk(e, x, order, params))
        assert got[0] == want[0], (to_string(e), x, order, got, want)
        if got[0] == "raises":
            assert got[1:] == want[1:], (to_string(e), x, order, got, want)
        else:
            assert _same_coeffs(got[1], want[1]), \
                (to_string(e), x, order, got, want)

    @pytest.mark.parametrize("name", sorted(EXAMPLES) + sorted(_MORE_PROBLEMS))
    def test_matrix_tape_equals_walk_per_entry(self, name):
        prob = _problem(name)
        lo, hi = prob.domain
        for x in np.linspace(lo, hi, 7)[1:-1]:
            x = float(x)
            walked = [[_walk(e, x, 0, prob.params).value for e in row]
                      for row in prob.G]
            assert np.array_equal(prob.G_value(x), walked)
            for order in (0, 6, 14):
                got = prob.G_jet(x, order)
                for i, row in enumerate(prob.G):
                    for j, e in enumerate(row):
                        want = _walk(e, x, order, prob.params)
                        assert np.array_equal(got[i][j].coeffs, want.coeffs)
                        assert got[i][j].center == x

    def test_shared_subtrees_are_computed_once(self):
        # sin and cos of one argument: one trig step; x*x twice: one product
        tape = JetTape([parse_expr("sin(x)^2 + cos(x)^2 + x*x"),
                        parse_expr("x*x - sin(x)")])
        steps = len(tape._steps)
        # x, (sin, cos), sin^2, cos^2, +, x*x, +, -
        assert steps == 8, steps
        one, two = tape(0.7, 5)
        assert_allclose(one.coeffs, eval_expr_jet(
            parse_expr("1 + x*x"), 0.7, 5).coeffs, atol=1e-15)
        assert_allclose(two.coeffs, _walk(parse_expr("x*x - sin(x)"), 0.7, 5,
                                          {}).coeffs, rtol=0, atol=0)

    def test_G_value_runs_one_shared_program(self):
        # sin x and cos x: one trig step; (x - 1)*cos(x)*sin(x): one chain
        # of steps, which G12 and G21 share
        prob = _problem("fulling-pos")
        prob.G_value(2.0)
        tape = vars(prob)["_G_tape"]
        # x, (sin, cos), cos^2, x*cos^2, sin^2, +, - 0, x - 1, *cos, *sin,
        # x*sin^2, +, - 0
        assert len(tape._values) == len(tape._steps) == 13
        assert np.array_equal(prob.G_value(2.0),
                              np.reshape(tape.values(2.0), (2, 2)))

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(es=st.lists(_asts, min_size=1, max_size=4), x=_points,
           params=_params)
    def test_random_ast_lists_share_one_value_program(self, es, x, params):
        tape = JetTape(es)
        assert len(tape._values) == len(tape._steps)
        got = _outcome(lambda: tape.values(x, params))
        want = [_outcome(lambda e=e: _walk(e, x, 0, params).value)
                for e in es]
        raised = [w for w in want if w[0] == "raises"]
        if raised:      # the class the first raising expression raises
            assert got == raised[0], ([to_string(e) for e in es], x, got)
        else:
            assert got[0] == "value" and len(got[1]) == len(es)
            assert all(_same_value(g, w[1]) for g, w in zip(got[1], want)), \
                ([to_string(e) for e in es], x, got, want)

    def test_signed_zero_constants_are_not_shared(self):
        # 0.0 == -0.0 as AST constants, but at x = -0 the sums x + 0 and
        # x + (-0) differ in the sign of zero: each keeps its own register
        es = [Const(0.0), Const(-0.0), Add(Var(), Const(0.0)),
              Add(Var(), Const(-0.0))]
        tape = JetTape(es)
        for e, v, j in zip(es, tape.values(-0.0), tape(-0.0, 2)):
            want = _walk(e, -0.0, 2, {}).coeffs
            assert np.asarray(v).tobytes() == want[:1].tobytes()
            assert j.coeffs.tobytes() == want.tobytes()

    def test_parameters_are_read_at_every_call(self):
        e = parse_expr("k*x^2 + exp(k)/x")
        first = eval_expr_jet(e, 1.3, 4, {"k": 2.0})
        assert not np.array_equal(first.coeffs,
                                  eval_expr_jet(e, 1.3, 4, {"k": 3.0}).coeffs)
        assert np.array_equal(first.coeffs, _walk(e, 1.3, 4, {"k": 2.0}).coeffs)

    def test_tape_stays_out_of_state(self):
        e = parse_expr("x*cos(x)^2 + k/x")
        first = eval_expr_jet(e, 1.3, 6, {"k": 2.0})
        assert e._jet_fn is not None
        again = pickle.loads(pickle.dumps(e))
        assert again._jet_fn is None and again == e
        assert np.array_equal(eval_expr_jet(again, 1.3, 6, {"k": 2.0}).coeffs,
                              first.coeffs)

    def test_correction_point_never_walks_the_tree(self, monkeypatch):
        from phaseintegral.spectral import BranchField
        from phaseintegral.vector import CorrectionEngine
        walks = [0]
        walk = expressions._eval

        def counted(*args):
            walks[0] += 1
            return walk(*args)

        monkeypatch.setattr(expressions, "_eval", counted)
        prob = _problem("fulling-pos")
        fld = BranchField(prob, 0, "normalized", None, anchor=2.5)
        corr = CorrectionEngine(prob, fld, "simplified_hermitian", 6,
                                2.5).at(3.1)
        assert len(corr.Y) == 7
        assert walks[0] == 0

    def test_parameter_name_reaches_the_programs_as_data(self):
        # quotes, a newline and a comment sign: a name the parser never
        # makes, which would break the generated source if it were written
        # into it
        name = "k'\"\n# x"
        e = Add(Mul(Param(name), Var()), Param(name))
        tape = JetTape([e, Var()])
        params = {name: 3.0}
        assert list(tape.values(2.0, params)) == [9.0, 2.0]
        assert np.array_equal(tape(2.0, 3, params)[0].coeffs,
                              _walk(e, 2.0, 3, params).coeffs)
        for run in (lambda: tape.values(2.0, {"k": 3.0}),
                    lambda: tape(2.0, 3), lambda: eval_expr(e, 2.0)):
            with pytest.raises(UnboundParameter, match=re.escape(repr(name))):
                run()

    def test_each_program_is_compiled_once(self, monkeypatch):
        sources = []

        def counted(source, *args):
            sources.append(source)
            return compile(source, *args)
        monkeypatch.setattr(expressions, "compile", counted, raising=False)
        tape = JetTape([parse_expr("x*cos(x)^2 + k/x"), parse_expr("sin(x)")])
        params = {"k": 2.0}
        for x in np.linspace(1.0, 2.0, 1000):
            tape.values(x, params)
            tape(x, 4, params)
        assert len(sources) == 2 and sources[0] != sources[1]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_G_jets_against_cauchy_integral(name):
    # the value program at complex x is an oracle for the jet program: the
    # coefficients on two circles must both match the order-8 jets
    prob = _problem(name)
    lo, hi = prob.domain
    order = 8
    for x in np.linspace(lo, hi, 5)[1:-1]:
        x = float(x)
        want = np.moveaxis([[j.coeffs for j in row]
                            for row in prob.G_jet(x, order)], -1, 0)
        for r in (0.5, 1.0):
            got = cauchy_coeffs(prob.G_value, x, r, 64)
            powers = (r ** np.arange(64))[:, None, None]
            rms = np.sqrt(np.sum(np.abs(got * powers) ** 2, axis=0))
            err = np.abs(got[:order + 1] - want) * powers[:order + 1]
            assert np.all(err <= 1e-12 * rms), (name, x, r, np.max(err / rms))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_G_jets_against_mpmath_taylor(name):
    mp = pytest.importorskip("mpmath").mp.clone()   # private precision
    mp.dps = 30
    prob = _problem(name)
    lo, hi = prob.domain
    order = 14
    for x in np.linspace(lo, hi, 5)[1:-1]:
        x = float(x)
        got = prob.G_jet(x, order)
        for i, row in enumerate(prob.G):
            for j, e in enumerate(row):
                want = mp.taylor(lambda t: _mp_value(e, t, prob.params, mp),
                                 mp.mpf(x), order)
                want = np.array([complex(w) for w in want])
                scale = np.max(np.abs(want))
                err = np.abs(got[i][j].coeffs - want)
                assert np.all(err <= 1e-13 * np.abs(want) + 1e-15 * scale), \
                    (name, to_string(e), x, np.max(err / (np.abs(want) + scale)))
