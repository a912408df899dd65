"""The benchmark's four workloads.

Each workload is a closed loop: one caller, one process, no threads; the CLI
commands run one at a time.  A workload object offers

  run_pass()   one full pass of its operations (the timed part); returns
               {operation: program output or the exception it raised};
  extract()    the outputs as plain numbers (untimed; may call back into
               the program, e.g. a wave's jet evaluator);
  check()      {operation: reason} for every operation that raised or whose
               result disagrees with an independent oracle or with a
               property the method must satisfy;
  self_test    (label, operation, mutate, expect) cases: a perturbed result
               the check must reject, or a known-good one it must accept.

An operation is one correction point, one s0 sweep, one wave, one reference
solve, one crossing scan or one CLI command.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import oracles

# Operations that fail on every run because of a fault in the program, by
# operation-name prefix, with the fault's cause.  They fail until the fault
# is fixed; any other failure makes a run incorrect.
KNOWN_FAULTS = {
    "fast-rotation/": (
        "eigenvector sign flips in BranchField continuation: the fixed 0.1 "
        "alignment step (spectral._ALIGN_STEP) is wider than the rotation a "
        "40x-rotating eigenvector allows"),
    "fex4-window/": (
        "the raw gauge's w = (Q^2 - G11)/G12 (spectral.BranchField._s0_raw) "
        "has a pole where G12 vanishes, at every multiple of pi/2 on Fex4, "
        "although g*(1, w) is smooth there; near it the jets' high-order "
        "coefficients grow so large that the relative lead tolerance of "
        "Jet division rejects an O(1) divisor (vector._solve_perp)"),
}


def known_fault(op: str) -> str | None:
    """The cause of a known fault that `op` is expected to show, or None."""
    for prefix, cause in KNOWN_FAULTS.items():
        if op.startswith(prefix):
            return cause
    return None


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:      # an operation that raises has failed
        return exc


def _rel(got, want) -> float:
    return abs(got - want) / abs(want)


class Workload:
    name = ""
    traced = False      # run the CLI under trace_cli.py (pia-readme)
    # per-layer metrics the traced run must find at 0: layers this workload
    # is built to bypass
    skipped: tuple = ()

    def __init__(self, seed: int, root: str, problems: dict | None):
        self.seed = seed
        self.root = root
        self.p = problems
        self.clock = None           # a clock.SpeedClock while measuring

    def timed(self, fn, *args):
        """attempt(fn, *args), its time charged to the clock."""
        t0 = time.perf_counter()
        res = attempt(fn, *args)
        if self.clock is not None:
            self.clock.add(time.perf_counter() - t0)
        return res

    def check(self, records: dict) -> dict:
        fails = {}
        for op, rec in records.items():
            if isinstance(rec, Exception):
                fails[op] = f"raised {type(rec).__name__}: {rec}"
        good = {op: rec for op, rec in records.items()
                if not isinstance(rec, Exception)}
        for op, reason in self.check_records(good).items():
            fails.setdefault(op, reason)
        return fails

    def self_test(self):
        return []


# ---------------------------------------------------------------------------
# paper-points: CorrectionEngine.at only, no wave assembly, no integrals
# ---------------------------------------------------------------------------

N_ABSCISSAE = 6                     # seed-drawn points per Fex1 / N=3 branch
FAST_GRID = np.arange(2.0, 4.0, 0.0025)          # 800 points, 799 steps
FAST_RATE = 40.0
# true eigenvector chord per grid step, with 50% slack
FAST_BOUND = 1.5 * 2.0 * math.sin(0.5 * FAST_RATE * 0.0025)


def _correction_record(corr) -> dict:
    def val(j):
        return None if j is None else complex(j.value)
    return {"x": corr.x0, "Qsq": complex(corr.Qsq.value),
            "eps0": complex(corr.eps0.value),
            "Y": [complex(j.value) for j in corr.Y],
            "cperp": [val(j) for j in corr.c_perp]}


class PaperPoints(Workload):
    name = "paper-points"
    skipped = ("quadrature.integrand_calls", "verify.rk_rhs_calls")

    def __init__(self, seed, root, problems):
        super().__init__(seed, root, problems)
        rng = np.random.default_rng(seed)
        self.xs = [float(v) for v in np.sort(rng.uniform(2.5, 7.0, N_ABSCISSAE))]

    def _engine(self, prob, rank, gauge, g, anchor, variant, m_max):
        from phaseintegral import BranchField, CorrectionEngine
        fld = BranchField(prob, rank, gauge, g, anchor=anchor)
        return CorrectionEngine(prob, fld, variant, m_max, anchor)

    def _points(self, out, tag, engine, xs):
        for i, x in enumerate(xs):
            out[f"{tag}/x{i}"] = (engine if isinstance(engine, Exception)
                                  else self.timed(engine.at, x))

    def _sweep(self, rank):
        from phaseintegral import BranchField
        fld = BranchField(self.p["fast"], rank, "normalized", None, anchor=2.0)
        return np.array([[c.value for c in fld.s0_jets(float(x), 0)]
                         for x in FAST_GRID])

    def run_pass(self) -> dict:
        p, out = self.p, {}
        for rank in (0, 1):
            for gauge in ("raw", "normalized"):
                eng = self.timed(self._engine, p["bec"], rank, gauge,
                              p["g_one"] if gauge == "raw" else None,
                              oracles.TABLE1_X, "simplified_hermitian", 2)
                self._points(out, f"table1/rank{rank}/{gauge}", eng,
                             [oracles.TABLE1_X])
        for prob, m_max in (("fex1", 6), ("block3", 2)):
            for rank in (0, 1):
                eng = self.timed(self._engine, p[prob], rank, "normalized", None,
                              2.5, "simplified_hermitian", m_max)
                self._points(out, f"{prob}/rank{rank}", eng, self.xs)
        for rank in (0, 1):
            eng = self.timed(self._engine, p["fex4"], rank, "raw",
                          p["g_fex4"][rank], 2.0, "non_hermitian", 6)
            self._points(out, f"fex4/rank{rank}", eng, oracles.FEX4_POINTS)
        # rank 1's engine at a fixed point inside the raw gauge's division
        # window at 3pi/2
        self._points(out, "fex4-window/rank1", eng, [oracles.FEX4_WINDOW_X])
        for rank in (0, 1):
            out[f"fast-rotation/rank{rank}"] = self.timed(self._sweep, rank)
        return out

    def extract(self, outputs: dict) -> dict:
        return {op: (o if isinstance(o, (Exception, np.ndarray))
                     else _correction_record(o)) for op, o in outputs.items()}

    def check_records(self, records: dict) -> dict:
        fails = {}
        for op, rec in records.items():
            reason = self._check_one(op, rec)
            if reason:
                fails[op] = reason
        return fails

    def _check_one(self, op: str, rec) -> str | None:
        parts = op.split("/")
        if parts[0] == "fast-rotation":
            steps = np.linalg.norm(np.diff(rec, axis=0), axis=1)
            bad = steps > FAST_BOUND
            if bad.any():
                return (f"{int(bad.sum())} of {len(steps)} neighbouring s0 "
                        f"steps exceed {FAST_BOUND:.3f} (largest "
                        f"{steps.max():.4f})")
            return None
        rank = int(parts[1][-1])
        x, Y = rec["x"], rec["Y"]
        if parts[0] == "table1":
            got = (abs(np.sqrt(rec["Qsq"])), rec["eps0"].real / 2, Y[1].real,
                   Y[2].real, rec["cperp"][1].real, rec["cperp"][2].real)
            return oracles.table1_mismatch(rank, parts[2], got)
        if parts[0] in ("fex1", "block3"):
            want = oracles.fex1_simplified_Y2(rank, x)
            tol = 1e-9 if parts[0] == "fex1" else 1e-8   # N=3: stencil-fit jets
            if _rel(Y[2], want) > tol:
                return f"Y2 = {Y[2]:.12g}, closed form {want:.12g} at x = {x}"
            if parts[0] == "fex1":
                if rank == 0:
                    w3 = oracles.fex1_simplified_Y3_rank0(x)
                    if _rel(Y[3], w3) > 1e-9:
                        return f"Y3 = {Y[3]:.12g}, closed form {w3:.12g}"
                for m, v in enumerate(Y):  # Q^2 > 0: even Y real, odd imaginary
                    off = abs(v.imag) if m % 2 == 0 else abs(v.real)
                    if off > 1e-10 * (1 + abs(v)):
                        return f"Y{m} = {v:.6g} breaks the reality pattern"
            return None
        if parts[0] in ("fex4", "fex4-window"):
            if abs(Y[1]) > 1e-10:
                return f"Y1 = {Y[1]:.3g}, want 0"
            want = oracles.fex4_cperp1(rank, x)
            if _rel(rec["cperp"][1], want) > 1e-9:
                return f"c1perp = {rec['cperp'][1]:.12g}, closed form {want:.12g}"
            if rank == 1 and _rel(Y[2], oracles.fex4_Y2_rank1(x)) > 1e-8:
                return f"Y2 = {Y[2]:.12g}, closed form {oracles.fex4_Y2_rank1(x):.12g}"
            return None
        return f"unknown operation {op}"

    def self_test(self):
        def table1_5th_figure(r):
            r["table1/rank1/raw/x0"]["Y"][2] += 1e-6      # 1.58104e-2 -> 1.58114e-2

        def fex1_y3(r):
            r["fex1/rank0/x0"]["Y"][3] *= 1 + 1e-7

        def block3_y2(r):
            r["block3/rank1/x0"]["Y"][2] *= 1 + 1e-6

        def fex4_y1(r):
            r["fex4/rank1/x0"]["Y"][1] += 1e-8j

        def smooth_sweep(r):
            r["fast-rotation/rank0"] = np.array(
                [oracles.fex1_unit_eigenvector(x, 0, FAST_RATE)
                 for x in FAST_GRID])

        def flipped_sweep(r):
            smooth_sweep(r)
            r["fast-rotation/rank0"][400] *= -1

        return [
            ("Table I Y2 changed in its 5th significant figure",
             "table1/rank1/raw/x0", table1_5th_figure, "reject"),
            ("Fex1 Y3 off by 1e-7 relative", "fex1/rank0/x0", fex1_y3, "reject"),
            ("N=3 block Y2 off by 1e-6 relative", "block3/rank1/x0",
             block3_y2, "reject"),
            ("Fex4 Y1 of 1e-8", "fex4/rank1/x0", fex4_y1, "reject"),
            ("exact 40x eigenvector sweep", "fast-rotation/rank0",
             smooth_sweep, "accept"),
            ("exact sweep with one sign flip", "fast-rotation/rank0",
             flipped_sweep, "reject"),
        ]


# ---------------------------------------------------------------------------
# fulling-waves: wave assembly, dominated by JetChainIntegral panels
# ---------------------------------------------------------------------------

LAM = 0.1
FULLING_GRID = [float(v) for v in np.linspace(3.0, 6.0, 13)]
FEX3_GRID = [float(v) for v in np.linspace(3.0, 8.0, 11)]
WAVE_ANCHOR = 3.0
PHASE_TOL = 7e-10       # JetChainIntegral's rtol 1e-11 times the 63.3 phase
W_DRIFT_TOL = 2e-2      # twice `pia verify --check wronskian`'s default
# lambda^2: far above the order-3 truncation (about 1e-3), far below the O(1)
# residual of a wave on the wrong branch or matrix
FEX3_RESIDUAL_TOL = LAM**2


def _sign_tag(sign: int) -> str:
    return "+" if sign > 0 else "-"


class FullingWaves(Workload):
    name = "fulling-waves"

    def _engine(self, prob, variant, m_max):
        from phaseintegral import BranchField, CorrectionEngine
        fld = BranchField(prob, 1, "normalized", None, anchor=WAVE_ANCHOR)
        return CorrectionEngine(prob, fld, variant, m_max, WAVE_ANCHOR)

    def _waves(self, out, tag, prob, variant, m_max, grid):
        from phaseintegral import assemble_vector_wave
        eng = self.timed(self._engine, prob, variant, m_max)
        for sign in (+1, -1):
            op = f"{tag}/{_sign_tag(sign)}"
            out[op] = eng if isinstance(eng, Exception) else self.timed(
                assemble_vector_wave, eng, sign, grid, WAVE_ANCHOR, LAM)

    def run_pass(self) -> dict:
        out = {}
        for m in range(4):
            self._waves(out, f"fulling/m{m}", self.p["fex1"], "fulling_current",
                        m, FULLING_GRID)
        self._waves(out, "fex3", self.p["fex3"], "wronskian_conserving", 3,
                    FEX3_GRID)
        return out

    def extract(self, outputs: dict) -> dict:
        recs = {}
        for op, w in outputs.items():
            if isinstance(w, Exception):
                recs[op] = w
                continue
            rec = {"x": [s.x for s in w.samples],
                   "phase": np.array([s.phase for s in w.samples]),
                   "u": np.array([s.u for s in w.samples]),
                   "du": np.array([s.u_prime for s in w.samples])}
            R = oracles.fex1_R if op.startswith("fulling") else oracles.fex3_R
            rec["residual"] = attempt(self._residual, w, R)
            recs[op] = rec
        return recs

    @staticmethod
    def _residual(wave, R) -> float:
        """max |u'' + R u| / (|R| |u|) on the grid, R from numpy."""
        worst = 0.0
        for smp in wave.samples:
            jets = wave.jet_at(smp.x)
            u = np.array([j.value for j in jets])
            upp = np.array([j.derivative(2) for j in jets])
            r = R(smp.x, LAM)
            worst = max(worst, float(np.linalg.norm(upp + r @ u)
                                     / (np.linalg.norm(r) * np.linalg.norm(u))))
        return worst

    def check_records(self, recs: dict) -> dict:
        fails, drift = {}, {}

        def fail(op, reason):
            fails.setdefault(op, reason)

        for op, rec in recs.items():
            if isinstance(rec.get("residual"), Exception):
                fail(op, f"jet evaluator raised {rec['residual']!r}")
            if not op.startswith("fulling"):
                continue
            sign = 1 if op.endswith("+") else -1
            sig = [oracles.current(u, du) for u, du in zip(rec["u"], rec["du"])]
            if min(s * sign for s in sig) <= 0:
                fail(op, "current does not carry the wave's sign")
            drift[op] = oracles.drift(sig)
        for m in range(4):
            plus, minus = recs.get(f"fulling/m{m}/+"), recs.get(f"fulling/m{m}/-")
            if plus is None or minus is None:
                continue
            # real G, Q^2 > 0: Y_odd imaginary, so u- is the conjugate of u+
            scale = np.max(np.abs(plus["u"])) + np.max(np.abs(plus["du"]))
            if (np.max(np.abs(minus["u"] - np.conj(plus["u"])))
                    + np.max(np.abs(minus["du"] - np.conj(plus["du"])))) \
                    > 1e-12 * scale:
                fail(f"fulling/m{m}/+", "u- is not the conjugate of u+")
                fail(f"fulling/m{m}/-", "u- is not the conjugate of u+")
            for sign, rec in ((1, plus), (-1, minus)):
                op = f"fulling/m{m}/{_sign_tag(sign)}"
                if m == 0:
                    want = [sign * oracles.fulling_phase_order0(x, LAM, WAVE_ANCHOR)
                            for x in rec["x"]]
                    err = float(np.max(np.abs(rec["phase"] - np.array(want))))
                    if err > PHASE_TOL:
                        fail(op, f"order-0 phase off the closed form by {err:.3g}")
                    if drift[op] > 1e-12:
                        fail(op, f"order-0 current drifts by {drift[op]:.3g}")
                    continue
                prev = recs.get(f"fulling/m{m - 1}/{_sign_tag(sign)}")
                if prev is None or isinstance(prev, Exception):
                    continue
                if not isinstance(rec["residual"], float) \
                        or not isinstance(prev["residual"], float) \
                        or not rec["residual"] < prev["residual"]:
                    fail(op, f"relative residual {rec['residual']} does not "
                             f"fall below order {m - 1}'s {prev['residual']}")
                prev_op = f"fulling/m{m - 1}/{_sign_tag(sign)}"
                if m >= 2 and not drift[op] < drift[prev_op]:
                    fail(op, f"current drift {drift[op]:.3g} does not fall "
                             f"below order {m - 1}'s {drift[prev_op]:.3g}")
        plus, minus = recs.get("fex3/+"), recs.get("fex3/-")
        if plus is not None and minus is not None:
            w = [oracles.wronskian(up, dup, um, dum) for up, dup, um, dum
                 in zip(plus["u"], plus["du"], minus["u"], minus["du"])]
            lead = -2.0 / LAM
            reason = None
            if oracles.drift(w) > W_DRIFT_TOL:
                reason = f"Wronskian drifts by {oracles.drift(w):.3g}"
            elif abs(np.median(w) - lead) > 0.05 * abs(lead):
                reason = f"Wronskian median {np.median(w):.6g}, want about {lead}"
            if reason:
                fail("fex3/+", reason)
                fail("fex3/-", reason)
            for op, rec in (("fex3/+", plus), ("fex3/-", minus)):
                if isinstance(rec["residual"], float) \
                        and rec["residual"] > FEX3_RESIDUAL_TOL:
                    fail(op, f"relative residual {rec['residual']:.3g} "
                             f"exceeds {FEX3_RESIDUAL_TOL:g}")
        return fails

    def self_test(self):
        def phase_offset(r):
            r["fulling/m0/+"]["phase"][6] += 1e-9

        def swap_components(r):
            u = r["fulling/m2/+"]["u"]
            u[4] = u[4][::-1].copy()

        def wronskian_scale(r):
            r["fex3/-"]["u"][5] *= 1.1

        def residual_stall(r):
            r["fulling/m3/-"]["residual"] = r["fulling/m2/-"]["residual"]

        def fex3_residual(r):
            r["fex3/+"]["residual"] = 0.5

        return [
            ("order-0 wave phase offset by 1e-9", "fulling/m0/+",
             phase_offset, "reject"),
            ("u components swapped at one sample", "fulling/m2/+",
             swap_components, "reject"),
            ("Fex3 u- scaled by 1.1 at one sample", "fex3/-",
             wronskian_scale, "reject"),
            ("order-3 residual no lower than order 2", "fulling/m3/-",
             residual_stall, "reject"),
            ("Fex3 residual of 0.5", "fex3/+", fex3_residual, "reject"),
        ]


# ---------------------------------------------------------------------------
# rk-reference: the value path only (G_value / R_value -> eval_expr)
# ---------------------------------------------------------------------------

RK_GRID = [float(v) for v in np.linspace(3.0, 6.0, 13)]
RK_U0 = (1.0 + 0.0j, 0.5j)
RK_DU0 = (0.3j, -2.0 + 0.0j)
RK_TOL = 1e-11
RK_MATCH = 1e-9         # today's RK45 agrees with DOP853 to about 8e-11


class RkReference(Workload):
    name = "rk-reference"
    skipped = ("vector.at_calls", "expressions.jet_calls")

    def run_pass(self) -> dict:
        from phaseintegral import verify
        prob = self.p["fex1"]
        lo, hi = prob.domain
        return {
            "reference-solve": self.timed(
                lambda: verify.reference_integrate(
                    lambda x: prob.R_value(x, LAM), RK_GRID[0], RK_U0, RK_DU0,
                    RK_GRID[-1], tol=RK_TOL, dense_points=RK_GRID)),
            "crossing-scan": self.timed(verify.crossing_diagnostics, prob,
                                        lo, hi),
        }

    def extract(self, outputs: dict) -> dict:
        recs = dict(outputs)
        ref = recs["reference-solve"]
        if not isinstance(ref, Exception):
            recs["reference-solve"] = {"x": [s.x for s in ref],
                                       "u": np.array([s.u for s in ref]),
                                       "du": np.array([s.u_prime for s in ref])}
        scan = recs["crossing-scan"]
        if not isinstance(scan, Exception):
            recs["crossing-scan"] = [dict(c) for c in scan]
        return recs

    _oracle = None

    def check_records(self, recs: dict) -> dict:
        fails = {}
        if "reference-solve" in recs:
            if RkReference._oracle is None:
                RkReference._oracle = oracles.dop853(
                    lambda x: oracles.fex1_R(x, LAM), RK_GRID[0], RK_U0,
                    RK_DU0, RK_GRID[-1], RK_GRID)
            rec = recs["reference-solve"]
            for i, (x, u, du) in enumerate(RkReference._oracle):
                eu = np.linalg.norm(rec["u"][i] - u) / np.linalg.norm(u)
                ed = np.linalg.norm(rec["du"][i] - du) / np.linalg.norm(du)
                if rec["x"][i] != x or max(eu, ed) > RK_MATCH:
                    fails["reference-solve"] = (
                        f"differs from DOP853 by {max(eu, ed):.3g} at x = {x}")
                    break
        if "crossing-scan" in recs:
            found = recs["crossing-scan"]
            want = oracles.FEX1_CROSSING
            if len(found) != 1 or abs(found[0]["x_cr"] - want["x_cr"]) > 1e-6 \
                    or found[0]["p"] != want["p"]:
                fails["crossing-scan"] = f"crossings {found}, want [{want}]"
        return fails

    def self_test(self):
        def exponent_two(r):
            r["crossing-scan"][0]["p"] = 2

        def rk_sample(r):
            r["reference-solve"]["u"][7] *= 1 + 1e-8

        return [("crossing exponent of 2", "crossing-scan", exponent_two, "reject"),
                ("RK sample off by 1e-8 relative", "reference-solve",
                 rk_sample, "reject")]


# ---------------------------------------------------------------------------
# pia-readme: the five README commands, each a fresh interpreter
# ---------------------------------------------------------------------------

README_COMMANDS = [
    ("example", ["example", "bec-vortex"]),
    ("corrections", ["corrections", "--example", "bec-vortex", "--branch",
                     "lower", "--theory", "simplified", "--order", "2",
                     "--at", "55", "--gauge", "raw"]),
    ("wave", ["wave", "--example", "fulling-pos", "--branch", "1", "--theory",
              "fulling", "--order", "2", "--lambda", "0.1", "--range",
              "3:8:0.5", "--anchor", "3"]),
    ("crossings", ["verify", "--example", "fulling-pos", "--check",
                   "crossings"]),
    ("order-scaling", ["verify", "--example", "scalar-quadratic", "--theory",
                       "simplified", "--order", "3", "--range", "0.5:1.5:0.5",
                       "--check", "order-scaling"]),
]
WAVE_HEADER = ["x", "branch", "sign", "re_phase", "im_phase", "re_u1", "im_u1",
               "re_u2", "im_u2", "re_du1", "im_du1", "re_du2", "im_du2"]
CLI_WAVE_DRIFT = 0.5    # order-3 truncation at lambda = 0.1 on [3, 8] is ~0.3


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


class PiaReadme(Workload):
    name = "pia-readme"

    def __init__(self, seed, root, problems):
        super().__init__(seed, root, problems)
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.child_metrics: list = []

    def _argv(self, i: int, args: list) -> list:
        if not self.traced:
            return [sys.executable, "-m", "phaseintegral.cli"] + args
        here = os.path.dirname(os.path.abspath(__file__))
        return [sys.executable, os.path.join(here, "trace_cli.py"),
                os.path.join(self.out_dir, f"cli-trace-{i}.json")] + args

    def run_pass(self) -> dict:
        out = {}
        for i, (op, args) in enumerate(README_COMMANDS):
            res = self.timed(lambda a=self._argv(i, args): subprocess.run(
                a, cwd=self.root, capture_output=True,
                text=True, timeout=120))
            if op == "example" and not isinstance(res, Exception):
                with open(os.path.join(self.out_dir, "vortex.json"), "w") as fh:
                    fh.write(res.stdout)
            if self.traced and not isinstance(res, Exception):
                with open(os.path.join(self.out_dir, f"cli-trace-{i}.json")) as fh:
                    self.child_metrics.append(json.load(fh))
            out[op] = res
        return out

    def extract(self, outputs: dict) -> dict:
        return {op: (r if isinstance(r, Exception)
                     else {"rc": r.returncode, "stdout": r.stdout,
                           "stderr": r.stderr[-400:]})
                for op, r in outputs.items()}

    def check_records(self, recs: dict) -> dict:
        fails = {}
        for op, rec in recs.items():
            if rec["rc"] != 0:
                fails[op] = f"exit code {rec['rc']}: {rec['stderr'].strip()}"
                continue
            try:
                reason = getattr(self, "_check_" + op.replace("-", "_"))(
                    rec["stdout"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason:
                fails[op] = reason
        return fails

    @staticmethod
    def _check_example(text):
        data = json.loads(text)
        params = {k: float(v) for k, v in data["params"].items()}
        if data["n"] != 2 or params != {"k": oracles.BEC_K,
                                        "omega": oracles.BEC_OMEGA}:
            return f"problem file n={data['n']} params={params}"
        for x in (20.0, 55.0, 120.0):
            got = np.array([[oracles.eval_problem_entry(e, x, params)
                             for e in row] for row in data["R"]])
            want = oracles.bec_R(x)
            if np.max(np.abs(got - want)) > 1e-12 * np.max(np.abs(want)):
                return f"R at x = {x} differs from the BEC matrix"
        return None

    @staticmethod
    def _check_corrections(text):
        rows = _csv_rows(text)
        head, body = rows[0], rows[1:]
        if len(body) != 1:
            return f"{len(body)} rows, want 1"
        row = dict(zip(head, body[0]))
        f = {k: float(v) for k, v in row.items() if k != "warnings"}
        if f["x"] != oracles.TABLE1_X:
            return f"row at x = {f['x']}"
        if any(abs(f[k]) > 1e-9 for k in head if k.startswith("im_")) \
                or any(f[k] != 0.0 for k in ("re_cpar1", "re_cpar2")):
            return "nonzero imaginary part or parallel coefficient"
        got = (math.sqrt(abs(f["re_Qsq"])), f["re_eps0"] / 2, f["re_Y1"],
               f["re_Y2"], f["re_cperp1"], f["re_cperp2"])
        return oracles.table1_mismatch(1, "raw", got)   # lower branch = rank 1

    @staticmethod
    def _check_wave(text):
        rows = _csv_rows(text)
        if rows[0] != WAVE_HEADER:
            return f"header {rows[0]}"
        body = [[float(v) for v in r] for r in rows[1:]]
        grid = [3.0 + 0.5 * i for i in range(11)]
        if [r[0] for r in body] != [x for x in grid for _ in (1, -1)] \
                or [r[1] for r in body] != [1.0] * 22 \
                or [r[2] for r in body] != [1.0, -1.0] * 11:
            return "rows are not (x, branch 1, sign +-1) on 3:8:0.5"
        a = np.array(body)
        u = a[:, 5:9:2] + 1j * a[:, 6:9:2]
        du = a[:, 9:13:2] + 1j * a[:, 10:13:2]
        phase = a[:, 3] + 1j * a[:, 4]
        plus, minus = slice(0, None, 2), slice(1, None, 2)
        if np.max(np.abs(u[minus] - np.conj(u[plus]))) > 1e-12 * np.max(np.abs(u)) \
                or np.max(np.abs(du[minus] - np.conj(du[plus]))) \
                > 1e-12 * np.max(np.abs(du)) \
                or np.max(np.abs(phase[minus] + phase[plus])) > 1e-9:
            return "the sign -1 rows are not the conjugates of the +1 rows"
        if abs(phase[0]) != 0.0 or not np.all(np.diff(phase[plus].real) > 0):
            return "phase is not 0 at the anchor and increasing"
        sig = np.array([oracles.current(p, q) for p, q in zip(u, du)])
        if np.any(sig[plus] <= 0) or abs(sig[0] * LAM - 1.0) > 1e-2 \
                or oracles.drift(sig[plus]) > CLI_WAVE_DRIFT:
            return (f"current {sig[0]:.6g} at the anchor, drift "
                    f"{oracles.drift(sig[plus]):.3g}")
        return None

    @staticmethod
    def _check_crossings(text):
        rep = json.loads(text)
        want = oracles.FEX1_CROSSING
        got = rep["crossings"]
        if rep["check"] != "crossings" or rep["pass"] is not True \
                or len(got) != 1 or abs(got[0]["x_cr"] - want["x_cr"]) > 1e-6 \
                or got[0]["p"] != want["p"]:
            return f"crossings report {rep}"
        return None

    @staticmethod
    def _check_order_scaling(text):
        rep = json.loads(text)
        lams, res = rep["lambdas"], rep["residuals"]
        slope = float(np.polyfit(np.log(lams), np.log(res), 1)[0])
        if rep["pass"] is not True or lams != [0.2, 0.1, 0.05] \
                or not res[0] > res[1] > res[2] > 0 \
                or abs(slope - rep["slope"]) > 1e-9 * abs(slope) \
                or slope < 3 + 0.5:
            return f"order-scaling slope {rep['slope']} (refit {slope})"
        return None

    def self_test(self):
        def swap_columns(r):
            lines = r["wave"]["stdout"].splitlines()
            cells = lines[5].split(",")
            cells[5], cells[6] = cells[6], cells[5]        # re_u1 <-> im_u1
            lines[5] = ",".join(cells)
            r["wave"]["stdout"] = "\n".join(lines) + "\n"

        def crossing_p2(r):
            rep = json.loads(r["crossings"]["stdout"])
            rep["crossings"][0]["p"] = 2
            r["crossings"]["stdout"] = json.dumps(rep)

        def corrections_5th_figure(r):
            head, row = _csv_rows(r["corrections"]["stdout"])
            col = head.index("re_Y2")
            row[col] = repr(float(row[col]) + 1e-6)   # 1.58104e-2 -> 1.58114e-2
            r["corrections"]["stdout"] = ",".join(head) + "\n" + ",".join(row) + "\n"

        def exit_code(r):
            r["order-scaling"]["rc"] = 4

        return [
            ("wave CSV row with two columns swapped", "wave", swap_columns,
             "reject"),
            ("crossing exponent of 2", "crossings", crossing_p2, "reject"),
            ("corrections Y2 changed in its 5th significant figure",
             "corrections", corrections_5th_figure, "reject"),
            ("order-scaling exit code 4", "order-scaling", exit_code, "reject"),
        ]


WORKLOADS = {w.name: w for w in (PaperPoints, FullingWaves, RkReference,
                                 PiaReadme)}
