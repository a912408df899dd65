import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import phaseintegral
from phaseintegral.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, r)) for r in body]


class TestExampleCommand:
    def test_fulling_pos_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "example", "fulling-pos")
        assert code == 0
        data = json.loads(out)
        assert data["R"][0][0] == "x*cos(x)^2 + sin(x)^2"
        assert data["n"] == 2

    def test_bec_vortex_has_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "example", "bec-vortex")
        data = json.loads(out)
        assert data["params"] == {"k": 0.04, "omega": 0.002604}
        assert "374/x^8" in data["R"][0][1]

    def test_scalar_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "example", "scalar-quadratic")
        data = json.loads(out)
        assert data["n"] == 1 and data["R"] == [["x^2 + 1"]]

    def test_unknown(self, capsys):
        code, _, err = run_cli(capsys, "example", "missing")
        assert code == 2 and "unknown example" in err


class TestCorrections:
    def test_fulling_y2(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--branch",
            "0", "--theory", "fulling", "--order", "2", "--at", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert_allclose(float(rows[0]["re_Y2"]), 0.5, rtol=1e-9)

    def test_bec_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrections", "--example", "bec-vortex", "--param",
            "k=0.04", "--param", "omega=0.002604", "--branch", "lower",
            "--theory", "simplified", "--order", "2", "--at", "55",
            "--gauge", "raw")
        assert code == 0
        header, rows = parse_csv(out)
        row = rows[0]
        assert_allclose(abs(complex(float(row["re_Qsq"]),
                                    float(row["im_Qsq"]))) ** 0.5,
                        0.0427842, rtol=5e-6)
        assert_allclose(float(row["re_eps0"]) / 2, 1.59832e-2, rtol=5e-6)
        assert_allclose(float(row["re_Y1"]), 2.83539e-4, rtol=5e-6)
        assert_allclose(float(row["re_Y2"]), 1.58104e-2, rtol=5e-6)
        assert_allclose(float(row["re_cperp1"]), 5.16137e-7, rtol=5e-6)
        assert_allclose(float(row["re_cperp2"]), -3.15819e-7, rtol=5e-6)

    def test_order_zero_row_minimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--branch",
            "0", "--theory", "simplified", "--order", "0", "--at", "3")
        header, rows = parse_csv(out)
        assert header == ["x", "re_Qsq", "im_Qsq", "re_eps0", "im_eps0",
                          "warnings"]

    def test_csv_reparses_and_is_deterministic(self, capsys):
        args = ("corrections", "--example", "fulling-pos", "--branch", "0",
                "--theory", "wronskian", "--order", "2", "--range", "3:5:1")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2                      # byte identical
        header, rows = parse_csv(out1)
        assert len(rows) == 3
        for r in rows:
            for k, v in r.items():
                if k != "warnings":
                    float(v)


class TestWave:
    def test_constant_scalar_problem(self, capsys, tmp_path):
        problem = {
            "n": 1, "form": "reduced", "R": [["1"]],
            "domain": [0.0, 5.0], "hermitian_hint": "real_symmetric",
        }
        path = tmp_path / "const.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(
            capsys, "wave", "--problem", str(path), "--theory", "simplified",
            "--order", "0", "--range", "0:2:0.5")
        assert code == 0
        header, rows = parse_csv(out)
        mags = [abs(complex(float(r["re_u1"]), float(r["im_u1"])))
                for r in rows if r["sign"] == "1"]
        assert_allclose(mags, 1.0, atol=1e-12)

    def test_fex1_conjugate_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "wave", "--example", "fulling-pos", "--branch", "1",
            "--theory", "fulling", "--order", "1", "--lambda", "0.2",
            "--range", "3:5:1", "--anchor", "3")
        assert code == 0
        header, rows = parse_csv(out)
        plus = [r for r in rows if r["sign"] == "1"]
        minus = [r for r in rows if r["sign"] == "-1"]
        for p, m in zip(plus, minus):
            for j in (1, 2):
                up = complex(float(p[f"re_u{j}"]), float(p[f"im_u{j}"]))
                um = complex(float(m[f"re_u{j}"]), float(m[f"im_u{j}"]))
                assert abs(um - up.conjugate()) < 1e-10

    def test_bec_amp_ratio_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "wave", "--example", "bec-vortex", "--branch", "both",
            "--theory", "simplified", "--order", "0", "--at", "55")
        assert code == 0
        header, rows = parse_csv(out)
        assert "amp_ratio" in header
        # |u_se| / |u_ge| at the anchor is sqrt(|Q_ge| / |Q_se|)
        want = math.sqrt(1.41464 / 0.0427842)
        assert_allclose(float(rows[0]["amp_ratio"]), want, rtol=1e-5)


class TestVerify:
    def test_crossings(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--example", "fulling-pos",
                               "--check", "crossings")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["crossings"]) == 1
        assert_allclose(report["crossings"][0]["x_cr"], 1.0, atol=1e-4)
        assert report["crossings"][0]["p"] == 1

    def test_current_check_passes(self, capsys):
        # threshold calibrated from the coarse-lambda run: the normalized
        # drift contracts by ~2^3 when lambda halves
        code, out, _ = run_cli(
            capsys, "verify", "--example", "fulling-pos", "--branch", "1",
            "--theory", "fulling", "--order", "2", "--lambda", "0.2",
            "--range", "3:8:0.5", "--anchor", "3", "--check", "current",
            "--tol", "1e9")
        coarse = json.loads(out)["drift"]
        tol = coarse * (0.1 / 0.2) ** (3 - 0.7)
        code, out, _ = run_cli(
            capsys, "verify", "--example", "fulling-pos", "--branch", "1",
            "--theory", "fulling", "--order", "2", "--lambda", "0.1",
            "--range", "3:8:0.5", "--anchor", "3", "--check", "current",
            "--tol", str(tol))
        report = json.loads(out)
        assert code == 0 and report["pass"] is True

    def test_order_scaling_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--example", "scalar-quadratic", "--theory",
            "simplified", "--order", "3", "--range", "0.5:1.5:0.5",
            "--check", "order-scaling")
        report = json.loads(out)
        assert code == 0 and report["pass"] is True
        assert report["slope"] >= 3.5

    def test_failed_check_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--example", "fulling-pos", "--branch", "1",
            "--theory", "fulling", "--order", "2", "--lambda", "0.2",
            "--range", "3:8:0.5", "--anchor", "3", "--check", "current",
            "--tol", "1e-12")
        report = json.loads(out)
        assert code == 4 and report["pass"] is False

    def test_reports_validate_against_schema(self, capsys):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "docs", "report.schema.json")) as fh:
            schema = json.load(fh)
        props = schema["properties"]
        for argv in (
                ("verify", "--example", "fulling-pos", "--check", "crossings"),
                ("verify", "--example", "scalar-quadratic", "--theory",
                 "simplified", "--order", "1", "--range", "0.5:1.5:0.5",
                 "--check", "residual", "--tol", "0.5"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            report = json.loads(out)
            for key in schema["required"]:
                assert key in report
            for key, val in report.items():
                assert key in props, key
                want = props[key]["type"]
                kinds = [want] if isinstance(want, str) else want
                ok = any(isinstance(val, {"number": (int, float),
                                          "boolean": bool, "string": str,
                                          "array": list, "null": type(None),
                                          "integer": int}[k]) for k in kinds)
                assert ok, (key, val)


class TestReduce:
    def test_radial_reduction(self, capsys, tmp_path):
        problem = {
            "n": 1, "form": "schrodinger_like", "R": [["1 - 6/x^2"]],
            "first_derivative": ["2/x"],
            "domain": [0.5, 10.0], "hermitian_hint": "real_symmetric",
        }
        path = tmp_path / "radial.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "reduce", "--problem", str(path))
        assert code == 0
        reduced = json.loads(out)
        assert reduced["form"] == "reduced"
        # a = 2/x cancels exactly: entry evaluates to the bare Rbar
        from phaseintegral.expressions import eval_expr, parse_expr
        e = parse_expr(reduced["R"][0][0])
        for x in (1.0, 3.0):
            assert_allclose(eval_expr(e, x), 1 - 6 / x**2, atol=1e-13)

    def test_missing_problem_file(self, capsys):
        code, _, err = run_cli(capsys, "corrections", "--problem",
                               "/nonexistent.json", "--at", "1")
        assert code == 2

    @pytest.mark.parametrize("change, message", [
        ({"R": [["x", "1"], ["2", "x"]], "hermitian_hint": "real_symmetric"},
         "asymmetric"),
        ({"form": "foo"}, "unknown form"),
        ({"R": [["x", "1"]]}, "n x n"),
        ({"first_derivative": ["1", "1"]}, "first_derivative"),
        ({"hermitian_hint": "real_symetric"}, "unknown hermitian_hint"),
    ], ids=["asymmetric-real-symmetric", "unknown-form", "not-square",
            "first-derivative-in-reduced-form", "hint-misspelt"])
    def test_inconsistent_problem_file(self, capsys, tmp_path, change,
                                       message):
        # what a problem file gets wrong is an input error (exit 2), not an
        # internal one
        data = {"n": 2, "form": "reduced", "R": [["x", "1"], ["1", "x"]],
                "domain": [0.5, 2.0], "lambda": 1.0, "params": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**data, **change}))
        code, out, err = run_cli(capsys, "corrections", "--problem",
                                 str(path), "--branch", "0", "--theory",
                                 "simplified", "--order", "2", "--at", "1.0")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and message in err


class TestEigen:
    def test_complex_real_symmetric_exit_code(self, capsys, tmp_path):
        # labelled real_symmetric, G has an imaginary part: refused before
        # the real path drops it
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "n": 3, "R": [["x", "0.3*i*x", "0"], ["0.3*i*x", "3", "0"],
                          ["0", "0", "9"]],
            "domain": [0.5, 2.5], "hermitian_hint": "real_symmetric"}))
        code, out, err = run_cli(capsys, "eigen", "--problem", str(path),
                                 "--range", "0.6:2.4:0.6")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "not real" in err

    def test_eigen_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--example", "fulling-pos", "--range", "2:10:2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["x", "re_Qsq_0", "im_Qsq_0", "abs_Q_0"]
        for r in rows:
            assert_allclose(float(r["re_Qsq_0"]), 1.0, atol=1e-10)
            assert_allclose(float(r["re_Qsq_1"]), float(r["x"]), rtol=1e-10)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "eig.csv"
        code, out, _ = run_cli(
            capsys, "eigen", "--example", "scalar-quadratic", "--at", "1",
            "--out", str(path))
        assert code == 0 and out == ""
        header, rows = parse_csv(path.read_text())
        assert_allclose(float(rows[0]["re_Qsq_0"]), 2.0, rtol=1e-12)

    def test_evaluation_error_exit_code(self, capsys):
        # evaluation at the eigenvalue crossing of fulling-pos
        code, _, err = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--theory",
            "fulling", "--order", "1", "--at", "1.0")
        assert code == 3
        assert "CrossingPoint" in err

    def test_anchor_on_crossing_exit_code(self, capsys):
        # the anchor itself is the crossing of fulling-pos
        code, out, err = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--branch",
            "0", "--theory", "simplified", "--order", "2", "--at", "2.0",
            "--anchor", "1.0")
        assert code == 3
        assert err.startswith("evaluation error: CrossingPoint:")
        assert out == ""

    def test_anchor_zero_is_an_anchor(self, capsys):
        # --anchor 0 anchors the field at 0 too, so its walk to --at 3
        # meets the crossing at x = 1 (as --anchor 1e-12 does); read as
        # no anchor, the walk would start at 3 and the command succeed
        code, out, err = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--branch",
            "0", "--theory", "simplified", "--order", "2", "--at", "3",
            "--anchor", "0")
        assert code == 3
        assert err.startswith("evaluation error: CrossingPoint:")
        assert out == ""


class TestGaugeFlag:
    def test_raw_gauge_expression(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrections", "--example", "nonhermitian", "--branch",
            "0", "--theory", "nonhermitian", "--order", "1", "--at", "3",
            "--gauge", "raw:2*sin(x)")
        assert code == 0
        header, rows = parse_csv(out)
        d = 5 - 3 * math.cos(6.0)
        assert_allclose(float(rows[0]["re_cperp1"]), -8.0 / (2.0 * d),
                        rtol=1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "corrections", "--example", "fulling-pos", "--branch",
            "0", "--theory", "simplified", "--order", "1", "--at", "3",
            "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["x"] == 3.0
        assert_allclose(rows[0]["re_Qsq"], 1.0, atol=1e-12)


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("wave", "--example", "fulling-pos", "--range", "5:3:0.5"),
        ("wave", "--example", "fulling-pos", "--range", "3:5:0.5",
         "--branch", "7"),
        ("wave", "--example", "fulling-pos", "--range", "3:5:0.5",
         "--branch", "foo"),
        ("reduce",),
        ("corrections", "--example", "fulling-pos", "--at", "3",
         "--gauge", "foo"),
        ("corrections", "--example", "fulling-pos", "--at", "3",
         "--gauge", "rawg"),
        ("corrections", "--example", "fulling-pos", "--at", "3",
         "--param", "k=x"),
        ("wave", "--example", "scalar-quadratic", "--at", "1",
         "--branch", "1"),
        ("wave", "--example", "fulling-pos", "--at", "3", "--order", "-1"),
        ("wave", "--example", "fulling-pos", "--at", "3", "--lambda", "0"),
        # non-finite numbers
        ("wave", "--example", "fulling-pos", "--at", "nan"),
        ("wave", "--example", "fulling-pos", "--at", "3", "--anchor", "nan"),
        ("wave", "--example", "fulling-pos", "--range", "1:nan:1"),
        ("wave", "--example", "fulling-pos", "--range", "1:inf:1"),
        ("wave", "--example", "bec-vortex", "--at", "60", "--param",
         "k=nan"),
        ("wave", "--example", "fulling-pos", "--at", "3", "--lambda", "inf"),
        ("verify", "--example", "fulling-pos", "--check", "current", "--at",
         "3", "--at", "4", "--tol", "nan"),
        # more grid points than --range allows: the count overflows, or is
        # finite and refused before a point is built
        ("eigen", "--example", "fulling-pos", "--range", "0:1e300:1e-300"),
        ("eigen", "--example", "fulling-pos", "--range", "0:1:1e-300"),
        ("eigen", "--example", "fulling-pos", "--range", "2:4:1e-6"),
    ], ids=["range-reversed", "branch-out-of-range", "branch-not-a-rank",
            "reduce-without-problem", "unknown-gauge", "raw-gauge-misspelt",
            "param-not-a-number", "scalar-branch-out-of-range",
            "order-negative", "lambda-zero", "at-nan", "anchor-nan",
            "range-nan", "range-inf", "param-nan", "lambda-inf", "tol-nan",
            "range-overflow", "range-too-many", "range-above-limit"])
    def test_bad_argument_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "error: " in err


def test_cli_import_leaves_scipy_integrate_unloaded():
    # Only verify.reference_integrate needs scipy.integrate; no pia command
    # should pay for importing it.
    src = str(Path(phaseintegral.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import phaseintegral.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_crossings_command_leaves_numpy_ma_unloaded():
    # np.median would import numpy.ma, 10-14 ms of a fresh command here
    src = str(Path(phaseintegral.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from phaseintegral.cli import main; "
            "code = main(['verify', '--example', 'fulling-pos', "
            "'--check', 'crossings']); "
            "print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
