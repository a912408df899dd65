"""Problem set-up through phaseintegral's public API.

`set_up(workload)` is the set-up a user of each workload pays before the
first result: import, `load_problem`/`split_R` and one `BranchField` per
branch the workload uses.  `setup_probe.py` runs it in a fresh interpreter
to time it.  `run.py` calls `build(workload)` once in the benchmark process
for the problems it passes to every measured pass, which builds its own
fields.
"""

from __future__ import annotations

from phaseintegral import BranchField, load_problem, split_R
from phaseintegral.examples import example_problem
from phaseintegral.expressions import parse_expr

_C1, _S1 = "cos(x)", "sin(x)"
_C40, _S40 = "cos(40*x)", "sin(40*x)"


def _rotated(c: str, s: str, third: str | None = None) -> list:
    rows = [[f"x*{c}^2 + {s}^2", f"(x - 1)*{c}*{s}"],
            [f"(x - 1)*{c}*{s}", f"x*{s}^2 + {c}^2"]]
    if third is not None:
        rows = [r + ["0"] for r in rows] + [["0", "0", third]]
    return rows


# diag(Fex1, 9): eigenvalues 1, x and 9, so ranks 0 and 1 are Fex1's
# branches and N = 3 takes the numeric eigen path.
FEX1_BLOCK3 = {"n": 3, "form": "reduced", "R": _rotated(_C1, _S1, "9"),
               "params": {}, "domain": [0.2, 8.5],
               "hermitian_hint": "real_symmetric", "lambda": 1.0}

# Fex1 with its eigenvectors rotating 40 times faster (rotation angle 40x).
FAST_ROTATION = {"n": 2, "form": "reduced", "R": _rotated(_C40, _S40),
                 "params": {}, "domain": [0.2, 12.0],
                 "hermitian_hint": "real_symmetric", "lambda": 1.0}


def reduced(data: dict):
    spec, lam, a = load_problem(data)
    return split_R(spec, lam, a)


def build(workload: str) -> dict:
    """Problems (and gauge expressions) of one library workload."""
    if workload == "paper-points":
        return {"bec": reduced(example_problem("bec-vortex")),
                "fex1": reduced(example_problem("fulling-pos")),
                "fex4": reduced(example_problem("nonhermitian")),
                "block3": reduced(FEX1_BLOCK3),
                "fast": reduced(FAST_ROTATION),
                "g_one": parse_expr("1"),
                "g_fex4": {0: parse_expr("2*sin(x)"), 1: parse_expr("2*cos(x)")}}
    if workload == "fulling-waves":
        return {"fex1": reduced(example_problem("fulling-pos")),
                "fex3": reduced(example_problem("fulling-neg"))}
    if workload == "rk-reference":
        from phaseintegral import verify  # noqa: F401  (scipy.integrate import)
        return {"fex1": reduced(example_problem("fulling-pos"))}
    raise ValueError(f"no library set-up for workload {workload!r}")


def set_up(workload: str) -> list:
    """build() plus one BranchField per branch the workload uses."""
    p = build(workload)
    if workload == "paper-points":
        fields = [BranchField(p["bec"], r, g, p["g_one"] if g == "raw"
                              else None, anchor=55.0)
                  for r in (0, 1) for g in ("raw", "normalized")]
        fields += [BranchField(p[name], r, "normalized", None, anchor=2.5)
                   for name in ("fex1", "block3") for r in (0, 1)]
        fields += [BranchField(p["fex4"], r, "raw", p["g_fex4"][r], anchor=2.0)
                   for r in (0, 1)]
        fields += [BranchField(p["fast"], r, "normalized", None, anchor=2.0)
                   for r in (0, 1)]
    elif workload == "fulling-waves":
        fields = [BranchField(p[name], 1, "normalized", None, anchor=3.0)
                  for name in ("fex1", "fex3")]
    else:
        fields = []
    return fields
