"""Command line front end.

Subcommands
-----------
reduce       eliminate first-derivative terms; print the reduced problem
eigen        eigenvalue branches Q^2 on a grid
corrections  table of Q^2, eps0, Y_m, c_m_perp, c_m at evaluation points
wave         sampled phase integral waves (both signs)
verify       conservation / residual / scaling / crossing checks
example      print a builtin problem file

Exit codes: 0 ok, 2 input error, 3 evaluation error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings

import numpy as np

from . import examples as ex
from .errors import (ExpressionSyntaxError, InputError, PhaseIntegralError,
                     UnboundParameter, UnknownFunction)
from .expressions import parse_expr
from .problem import load_problem, reduce_first_derivative, split_R, problem_to_dict
from .spectral import BranchField
from .vector import CorrectionEngine, assemble_vector_wave
from . import verify as ver

_THEORY = {
    "fulling": "fulling_current",
    "fulling_current": "fulling_current",
    "wronskian": "wronskian_conserving",
    "wronskian_conserving": "wronskian_conserving",
    "simplified": "simplified_hermitian",
    "simplified_hermitian": "simplified_hermitian",
    "nonhermitian": "non_hermitian",
    "non_hermitian": "non_hermitian",
}

_MAX_GRID = 10**6       # points a --range may have

_EXIT_INPUT = 2
_EXIT_EVAL = 3
_EXIT_VERIFY = 4

# errors caused by what the user typed (exit 2)
_INPUT_ERRORS = (InputError, ExpressionSyntaxError, UnboundParameter,
                 UnknownFunction)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(out, header, rows):
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append('"' + v.replace('"', '""') + '"'
                             if ("," in v or '"' in v) else v)
            else:
                cells.append(_fmt(float(v)))
        out.write(",".join(cells) + "\n")


def _emit(args, header, rows):
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        _write_csv(buf, header, rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_data(args) -> dict:
    if args.example:
        return ex.example_problem(args.example)
    if args.problem:
        with open(args.problem) as fh:
            return json.load(fh)
    raise InputError("need --problem or --example")


def _load(args):
    data = _problem_data(args)
    for kv in args.param or []:
        name, _, val = kv.partition("=")
        try:
            data.setdefault("params", {})[name] = _finite(val)
        except (ValueError, argparse.ArgumentTypeError):
            raise InputError(f"bad --param {kv!r} (expected name=value, "
                             "value a finite number)") from None
    spec, lam, a = load_problem(data)
    spec = reduce_first_derivative(spec)
    return split_R(spec, lam, a)


def _eval_lambda(args, prob):
    # --lambda rebinds the expansion parameter with G held fixed
    # (R = lambda**-2 G + a I follows along); the problem file's own
    # lambda defines the split itself.
    return args.lam if args.lam is not None else prob.lam


def _grid(args, prob):
    if args.at:
        return sorted(args.at)
    if args.range:
        try:
            lo, hi, step = (_finite(v) for v in args.range.split(":"))
        except (ValueError, argparse.ArgumentTypeError):
            raise InputError(f"bad --range {args.range!r} (expected "
                             "lo:hi:step, finite numbers)") from None
        if step <= 0 or hi <= lo:
            raise InputError("grid step must be > 0 and hi > lo")
        last = (hi - lo) / step + 1e-9          # inf if the quotient overflows
        if not last < _MAX_GRID:
            raise InputError(f"--range {args.range!r} has more than "
                             f"{_MAX_GRID} points")
        return [lo + i * step for i in range(int(np.floor(last)) + 1)]
    raise InputError("need --at or --range")


def _branch_rank(prob, spec_name, x_ref):
    """Map 'lower'/'upper' (by |Q|) or an integer rank to a rank index."""
    if spec_name in ("lower", "upper"):
        absq = [abs(np.sqrt(BranchField(prob, r).qsq_value(x_ref)))
                for r in range(prob.n)]
        return absq.index((min if spec_name == "lower" else max)(absq))
    try:
        rank = int(spec_name)
    except ValueError:
        raise InputError(f"bad --branch {spec_name!r} (expected an index, "
                         "lower or upper)") from None
    if rank < 0 or rank >= prob.n:
        raise InputError(f"branch index {rank} out of range")
    return rank


def _field(args, prob, x_ref, anchor):
    rank = _branch_rank(prob, args.branch, x_ref)
    theory = _THEORY[args.theory]
    gauge_opt = args.gauge
    if gauge_opt is None:
        gauge_opt = "normalized" if theory != "non_hermitian" else "raw"
    g = None
    if gauge_opt == "raw" or gauge_opt.startswith("raw:"):
        g = parse_expr(gauge_opt[4:] if gauge_opt != "raw" else "1")
        gauge_opt = "raw"
    elif gauge_opt not in ("normalized", "kato"):
        raise InputError(f"bad --gauge {gauge_opt!r} "
                         "(expected normalized, kato or raw[:g])")
    return BranchField(prob, rank, gauge_opt, g, anchor=anchor), theory


def _engine(args, prob, grid):
    """The correction engine of --branch/--theory/--gauge/--order, anchored
    at --anchor or else at the grid's first point."""
    anchor = args.anchor if args.anchor is not None else grid[0]
    field, theory = _field(args, prob, grid[0], anchor)
    return CorrectionEngine(prob, field, theory, args.order, anchor)


def cmd_example(args) -> int:
    data = ex.example_problem(args.name)
    sys.stdout.write(json.dumps(data, indent=2) + "\n")
    return 0


def cmd_reduce(args) -> int:
    spec, lam, a = load_problem(_problem_data(args))
    reduced = reduce_first_derivative(spec)
    out = problem_to_dict(reduced, lam=lam, a=a)
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def cmd_eigen(args) -> int:
    prob = _load(args)
    grid = _grid(args, prob)
    header = ["x"]
    for b in range(prob.n):
        header += [f"re_Qsq_{b}", f"im_Qsq_{b}", f"abs_Q_{b}"]
    fields = [BranchField(prob, b, "normalized", None, anchor=grid[0])
              for b in range(prob.n)]
    rows = []
    for x in grid:
        row = [x]
        for fld in fields:
            q2 = fld.qsq_value(x)
            row += [q2.real, q2.imag, abs(np.sqrt(q2))]
        rows.append(row)
    _emit(args, header, rows)
    return 0


def cmd_corrections(args) -> int:
    prob = _load(args)
    pts = _grid(args, prob)
    engine = _engine(args, prob, pts)
    lam = _eval_lambda(args, prob)
    header = ["x", "re_Qsq", "im_Qsq", "re_eps0", "im_eps0"]
    for m in range(1, args.order + 1):
        header += [f"re_Y{m}", f"im_Y{m}"]
        if prob.n == 2:
            header += [f"re_cperp{m}", f"im_cperp{m}"]
        header += [f"re_cpar{m}", f"im_cpar{m}"]
    header.append("warnings")
    rows = []
    for x in pts:
        corr = engine.at(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            msgs = engine.applicability_warnings(corr, lam)
        row = [x, corr.Qsq.value.real, corr.Qsq.value.imag,
               corr.eps0.value.real, corr.eps0.value.imag]
        for m in range(1, args.order + 1):
            y = corr.Y[m].value
            row += [y.real, y.imag]
            if prob.n == 2:
                cp = corr.c_perp[m].value if corr.c_perp[m] is not None else 0.0j
                row += [cp.real, cp.imag]
            cc = corr.c_par[m].value if corr.c_par[m] is not None else 0.0j
            row += [cc.real, cc.imag]
        row.append("; ".join(msgs))
        rows.append(row)
    _emit(args, header, rows)
    return 0


def cmd_wave(args) -> int:
    prob = _load(args)
    grid = _grid(args, prob)
    branches = [args.branch]
    if args.branch == "both":
        branches = ["upper", "lower"] if prob.n == 2 else [str(b) for b
                                                           in range(prob.n)]
    waves = {}
    absq = {}
    for bname in branches:
        sub = argparse.Namespace(**vars(args))
        sub.branch = bname
        engine = _engine(sub, prob, grid)
        absq[bname] = abs(np.sqrt(engine.field.qsq_value(grid[0])))
        for sign in (+1, -1):
            waves[(bname, sign)] = assemble_vector_wave(
                engine, sign, grid, lam=_eval_lambda(args, prob))
    header = ["x", "branch", "sign", "re_phase", "im_phase"]
    for j in range(prob.n):
        header += [f"re_u{j + 1}", f"im_u{j + 1}"]
    for j in range(prob.n):
        header += [f"re_du{j + 1}", f"im_du{j + 1}"]
    if len(branches) == 2:
        header.append("amp_ratio")
    rows = []
    for i, x in enumerate(grid):
        for bname in branches:
            for sign in (+1, -1):
                smp = waves[(bname, sign)].samples[i]
                row = [x, str(bname), sign, smp.phase.real, smp.phase.imag]
                for v in smp.u:
                    row += [v.real, v.imag]
                for v in smp.u_prime:
                    row += [v.real, v.imag]
                if len(branches) == 2:
                    lo_name = min(branches, key=lambda b: absq[b])
                    hi_name = max(branches, key=lambda b: absq[b])
                    lo = waves[(lo_name, sign)].samples[i]
                    hi = waves[(hi_name, sign)].samples[i]
                    row.append(float(np.linalg.norm(lo.u)
                                     / np.linalg.norm(hi.u)))
                rows.append(row)
    _emit(args, header, rows)
    return 0


def cmd_verify(args) -> int:
    prob = _load(args)
    report = {"check": args.check, "pass": True, "tolerance": args.tol}
    if args.check == "crossings":
        lo, hi = prob.domain
        report["crossings"] = ver.crossing_diagnostics(prob, lo, hi)
    elif args.check in ("current", "wronskian"):
        grid = _grid(args, prob)
        engine = _engine(args, prob, grid)
        lam = _eval_lambda(args, prob)
        wp = assemble_vector_wave(engine, +1, grid, lam=lam)
        if args.check == "current":
            rep = ver.current_sigma(wp)
        else:
            wm = assemble_vector_wave(engine, -1, grid, lam=lam)
            rep = ver.wronskian(wp, wm)
        tol = args.tol if args.tol is not None else 1e-2
        report.update(tolerance=tol, drift=rep.drift,
                      absolute_drift=rep.absolute_drift())
        report["pass"] = bool(rep.drift <= tol)
    elif args.check == "residual":
        grid = _grid(args, prob)
        engine = _engine(args, prob, grid)
        lam = _eval_lambda(args, prob)
        wave = assemble_vector_wave(engine, +1, grid, lam=lam)
        rel = ver.relative_residual(wave, lambda x: prob.R_value(x, lam))
        tol = args.tol if args.tol is not None else 1e-3
        report.update(tolerance=tol, relative_residual=rel)
        report["pass"] = bool(rel <= tol)
    elif args.check == "order-scaling":
        grid = _grid(args, prob)
        engine = _engine(args, prob, grid)
        lambdas = [0.2, 0.1, 0.05]

        def make_wave(lam):
            return assemble_vector_wave(engine, +1, grid, lam=lam)

        res = ver.order_scaling(
            make_wave, lambda lam: (lambda x: prob.R_value(x, lam)),
            lambdas, grid)
        need = args.order + 0.5
        report.update(slope=res.slope, residuals=res.residuals,
                      lambdas=res.lambdas, measurable=res.measurable,
                      required_slope=need)
        report["pass"] = bool((not res.measurable) or res.slope >= need)
    else:
        raise InputError(f"unknown check {args.check!r}")
    sys.stdout.write(json.dumps(report, indent=2, default=float) + "\n")
    return 0 if report["pass"] else _EXIT_VERIFY


def _checked(kind, ok, what):
    """argparse type: `kind` of the text, refused unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: {what}")
        return value
    parse.__name__ = kind.__name__     # argparse names it in its errors
    return parse


_finite = _checked(float, math.isfinite, "not a finite number")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pia",
        description="Phase integral approximations for coupled ODE systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--example", help="builtin example name")
        p.add_argument("--param", action="append",
                       help="parameter override name=value (repeatable)")
        p.add_argument("--branch", default="0",
                       help="branch index, or lower/upper by |Q| "
                            "(wave also accepts 'both')")
        p.add_argument("--theory", default="simplified",
                       choices=sorted(_THEORY), help="theory variant")
        p.add_argument("--order", default=0, help="m_max",
                       type=_checked(int, lambda v: v >= 0, "must be >= 0"))
        p.add_argument("--lambda", dest="lam", default=None,
                       type=_checked(_finite, lambda v: v > 0, "must be > 0"))
        p.add_argument("--gauge", default=None,
                       help="normalized | kato | raw[:g-expression]")
        p.add_argument("--anchor", type=_finite, default=None)
        if grid:
            p.add_argument("--range", help="grid lo:hi:step")
            p.add_argument("--at", action="append", type=_finite,
                           help="evaluation point (repeatable)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = sub.add_parser("example", help="print a builtin problem file")
    p.add_argument("name")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("reduce", help="eliminate first-derivative terms")
    p.add_argument("--problem")
    p.add_argument("--example")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eigen", help="eigenvalue branches on a grid")
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("corrections", help="correction table")
    common(p)
    p.set_defaults(func=cmd_corrections)

    p = sub.add_parser("wave", help="wave samples (both signs)")
    common(p)
    p.set_defaults(func=cmd_wave)

    p = sub.add_parser("verify", help="verification checks")
    common(p)
    p.add_argument("--check", required=True,
                   choices=("residual", "current", "wronskian",
                            "order-scaling", "crossings"))
    p.add_argument("--tol", type=_finite, default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        try:
            return args.func(args)
        except (FileNotFoundError, json.JSONDecodeError, KeyError,
                *_INPUT_ERRORS) as exc:
            sys.stderr.write(f"input error: {exc}\n")
            return _EXIT_INPUT
        except PhaseIntegralError as exc:
            sys.stderr.write(
                f"evaluation error: {type(exc).__name__}: {exc}\n")
            return _EXIT_EVAL
    except Exception as exc:    # pragma: no cover - unexpected failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
