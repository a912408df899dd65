"""Independent checks: currents, Wronskians, residuals, reference solutions.

Everything here deliberately avoids the correction machinery's internals:
residuals use the waves' own analytic jets, the reference trajectories come
from scipy's DOP853 Runge-Kutta pair (order 8, embedded 5 and 3), and
conservation drifts are measured against the median sample (robust to
boundary quadrature noise).

`Wave` and `WaveSample` live here: the phase integral waves and the
reference trajectories are both sampled into them, and this module does
not import the engine.  The crossing scan reads G on its grid from one
`G_values` run and takes the N = 2 gap in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (EvaluationSingularity, GridMismatch, InvalidInput,
                     StepSizeUnderflow)
from .problem import ReducedProblem

__all__ = [
    "Wave", "WaveSample", "ConservationReport", "current_sigma", "wronskian",
    "residual", "reference_integrate", "order_scaling",
    "crossing_diagnostics", "OrderScalingResult",
]

_DRIFT_FLOOR = 1e-14
_SCAN_POINTS = 801      # crossing scan grid of `crossing_diagnostics`


@dataclass
class WaveSample:
    x: float
    u: np.ndarray          # complex, one entry per component
    u_prime: np.ndarray
    phase: complex         # running integral lambda**-1 int q dx from anchor


@dataclass
class Wave:
    """Sampled approximation plus its analytic jet evaluator.

    `jet_at(x)` returns per-component jets of order >= 2, so residual
    checks can use exact second derivatives instead of finite differences.
    """

    samples: list
    jet_at: Callable[[float], tuple]
    lam: float
    sign: int

    def __iter__(self):
        return iter(self.samples)


@dataclass
class ConservationReport:
    quantity: str
    samples: list            # (x, value) pairs
    drift: float             # max |value - median| / (|median| + floor)

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples], dtype=complex)

    def absolute_drift(self) -> float:
        v = self.values()
        med = complex(np.median(v.real), np.median(v.imag))
        return float(np.max(np.abs(v - med))) if len(v) else 0.0


def _report(quantity: str, xs, values) -> ConservationReport:
    if not xs:
        raise InvalidInput(f"{quantity} needs at least one sample")
    v = np.asarray(values, dtype=complex)
    med = complex(np.median(v.real), np.median(v.imag))
    drift = float(np.max(np.abs(v - med)) / (abs(med) + _DRIFT_FLOOR))
    return ConservationReport(quantity, list(zip(xs, v.tolist())), drift)


def current_sigma(wave) -> ConservationReport:
    """sigma_N = Im (u, u') per sample."""
    xs, vals = [], []
    for smp in wave:
        xs.append(smp.x)
        vals.append(complex(np.imag(np.vdot(smp.u, smp.u_prime))))
    return _report("current_sigma", xs, vals)


def wronskian(w1, w2, kind: str = "generalized") -> ConservationReport:
    """W_N = Re[(u1, u2') - (u2, u1')]; symmetric variant drops conjugation."""
    s1 = list(w1)
    s2 = list(w2)
    if kind not in ("generalized", "symmetric"):
        raise InvalidInput(f"unknown wronskian kind {kind!r}")
    if len(s1) != len(s2) or any(a.x != b.x for a, b in zip(s1, s2)):
        raise GridMismatch("wronskian needs two waves on the same grid")
    xs, vals = [], []
    for a, b in zip(s1, s2):
        if kind == "generalized":
            val = complex(np.real(np.vdot(a.u, b.u_prime)
                                  - np.vdot(b.u, a.u_prime)))
        else:
            val = complex(np.dot(a.u, b.u_prime) - np.dot(b.u, a.u_prime))
        xs.append(a.x)
        vals.append(val)
    return _report(f"wronskian_{kind}", xs, vals)


def residual(wave: Wave, R_eval: Callable[[float], np.ndarray],
             points: Sequence[float] | None = None) -> list:
    """Per-point (x, |u'' + R u|, relative scale |R| |u|).

    Second derivatives come from the wave's analytic jets, never from
    finite differences of samples.
    """
    xs = [smp.x for smp in wave.samples] if points is None else list(points)
    out = []
    for x in xs:
        jets = wave.jet_at(x)
        u = np.array([j.value for j in jets])
        upp = np.array([j.derivative(2) for j in jets])
        rmat = np.atleast_2d(np.asarray(R_eval(x), dtype=complex))
        res = upp + rmat @ u
        scale = float(np.linalg.norm(rmat) * np.linalg.norm(u))
        out.append((x, float(np.linalg.norm(res)), scale))
    return out


def relative_residual(wave: Wave, R_eval, points=None) -> float:
    rows = residual(wave, R_eval, points)
    if not rows:
        raise InvalidInput("a relative residual needs a point")
    return max(r / (s + 1e-300) for _, r, s in rows)


def reference_integrate(R_eval: Callable[[float], np.ndarray], x_start: float,
                        u0: Sequence[complex], du0: Sequence[complex],
                        x_end: float, tol: float = 1e-10,
                        dense_points: Sequence[float] | None = None) -> list:
    """Direct numerical solution of u'' + R(x) u = 0 (DOP853, RK 8(5,3)).

    The complex state (u, u') is integrated as it is.  Samples come at
    `dense_points` in ascending x, one per point given, duplicates
    included (default: x_start, then x_end); the integrator interpolates
    only on the steps that hold one.

    This is an initial-value problem from the Cauchy data (u0, du0) at
    `x_start`.  Where a slow evanescent branch coexists with a fast one, any
    fast part of the data, roundoff included, grows relative to the slow
    solution by exp(int (|Q_fast| - |Q_slow|) dx) along the path, so the
    result is no reference for a decaying slow wave there; pose that case
    as a boundary-value problem instead.
    """
    # Imported here: no pia command integrates, and at module level this
    # import would dominate the start-up of every one of them.
    from scipy.integrate import solve_ivp

    if not 1e-12 <= tol <= 1e-4:
        raise InvalidInput("tol outside [1e-12, 1e-4]")
    pts = sorted(dense_points) if dense_points is not None else [x_start, x_end]
    lo, hi = min(x_start, x_end), max(x_start, x_end)
    for x in pts:
        if not lo <= x <= hi:
            raise InvalidInput(f"dense point {x} outside integration range")
    u0 = np.asarray(u0, dtype=complex)
    du0 = np.asarray(du0, dtype=complex)
    n = u0.size
    r0 = R_eval(x_start)
    # scipy's first-step guess turns a NaN here into a step search that
    # never ends, so bad start data is refused before integrating.
    if not (np.all(np.isfinite(r0)) and np.all(np.isfinite(u0))
            and np.all(np.isfinite(du0))):
        raise EvaluationSingularity(
            f"non-finite R, u0 or du0 at x_start = {x_start}")
    r_mat = R_eval if np.ndim(r0) == 2 else (     # N = 1: R may be a number
        lambda x: np.atleast_2d(R_eval(x)))

    last = [x_start]            # the latest x at which R was evaluated

    def rhs(x, y):
        last[0] = x
        dy = np.empty(2 * n, dtype=complex)    # scipy keeps it as f(t_new)
        dy[:n] = y[n:]
        dy[n:] = -(r_mat(x) @ y[:n])
        return dy

    # t_eval must be strictly monotone along the integration; samples are
    # mapped back to the points as given.
    xs = np.unique(np.asarray(pts, dtype=float))
    y0 = np.concatenate([u0, du0])
    if x_end == x_start:        # scipy takes no step, so t_eval gets nothing
        ys = np.repeat(y0[:, None], len(xs), axis=1)
    else:
        forward = x_end > x_start
        sol = solve_ivp(rhs, (x_start, x_end), y0, method="DOP853",
                        rtol=tol, atol=tol * 1e-2,
                        t_eval=xs if forward else xs[::-1])
        if not sol.success:
            # a step that met a NaN or inf in R is rejected and shrunk
            # until it underflows; its last stage is where R failed
            if not np.all(np.isfinite(R_eval(last[0]))):
                raise EvaluationSingularity(
                    f"non-finite R at x = {last[0]}: {sol.message}")
            raise StepSizeUnderflow(
                f"reference integration failed: {sol.message}")
        # sol.y is an empty list when no point was asked for
        ys = np.asarray(sol.y).reshape(2 * n, len(xs))
        if not forward:
            ys = ys[:, ::-1]
    return [WaveSample(float(x), ys[:n, i].copy(), ys[n:, i].copy(), 0.0)
            for x, i in zip(pts, np.searchsorted(xs, pts))]


@dataclass
class OrderScalingResult:
    lambdas: list
    residuals: list
    slope: float
    measurable: bool


def order_scaling(make_wave: Callable[[float], Wave],
                  R_of_lambda: Callable[[float], Callable[[float], np.ndarray]],
                  lambdas: Sequence[float],
                  probe_points: Sequence[float]) -> OrderScalingResult:
    """Least-squares slope of log(relative residual) against log(lambda).

    `make_wave(lam)` must assemble the wave for that lambda with the same
    corrections (G fixed, R = lambda**-2 G + a I varying).
    """
    lambdas = [float(v) for v in lambdas]
    if len(lambdas) < 3:
        raise InvalidInput("need at least three lambda values")
    res = []
    for lam in lambdas:
        wave = make_wave(lam)
        res.append(relative_residual(wave, R_of_lambda(lam), probe_points))
    if max(res) < 1e-13:
        return OrderScalingResult(lambdas, res, float("nan"), False)
    slope = float(np.polyfit(np.log(lambdas), np.log(res), 1)[0])
    return OrderScalingResult(lambdas, res, slope, True)


def _gaps(gs: np.ndarray) -> np.ndarray:
    """Minimal eigenvalue gap of each G in a (B, N, N) stack: inf for N = 1,
    |sqrt((a - d)**2 + 4 b c)| for N = 2, else the least gap between
    neighbours in the (real, imaginary) order of the eigenvalues."""
    if not np.isfinite(gs).all():
        raise EvaluationSingularity("G is not finite on the crossing scan")
    n = gs.shape[-1]
    if n == 1:
        return np.full(len(gs), np.inf)
    if n == 2:
        diff = gs[:, 0, 0] - gs[:, 1, 1]
        return np.abs(np.sqrt(diff * diff + 4.0 * (gs[:, 0, 1] * gs[:, 1, 0])))
    vals = np.sort(np.linalg.eigvals(gs), axis=-1)
    return np.abs(np.diff(vals, axis=-1)).min(axis=-1)


def crossing_diagnostics(prob: ReducedProblem, lo: float, hi: float) -> list:
    """Crossing points of the eigenvalues of G with local exponents.

    Scans the minimal eigenvalue gap, refines each local minimum, and
    estimates the exponent p of D ~ (x - x_cr)^p from a log-log fit of the
    gap (D is proportional to the gap times a smooth factor).
    """
    if not np.isfinite([lo, hi]).all():
        raise InvalidInput(f"crossing scan over [{lo}, {hi}] is not finite")

    def gap(*xs) -> np.ndarray:         # one G_value per refinement point
        return _gaps(np.array([prob.G_value(x) for x in xs]))

    xs = np.linspace(lo, hi, _SCAN_POINTS)
    gaps = _gaps(prob.G_values(xs))
    scale = max(1.0, float(np.median(gaps)))
    out = []
    for i in range(1, len(xs) - 1):
        if gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1] \
                and gaps[i] < 1e-2 * scale:
            a, b = float(xs[i - 1]), float(xs[i + 1])
            for _ in range(80):          # ternary refinement
                m1 = a + (b - a) / 3.0
                m2 = b - (b - a) / 3.0
                g1, g2 = gap(m1, m2)
                if g1 < g2:
                    b = m2
                else:
                    a = m1
            x_cr = 0.5 * (a + b)
            if gap(x_cr)[0] > 1e-5 * scale:
                continue
            eps = max(1e-4, 1e-6 * (1 + abs(x_cr)))
            ds = np.array([eps * 2.0 ** j for j in range(6)])
            gs = gap(*(x_cr + ds))
            if np.any(gs <= 0):
                continue
            p = float(np.polyfit(np.log(ds), np.log(gs), 1)[0])
            if out and abs(out[-1]["x_cr"] - x_cr) < 1e-6 * (1 + abs(x_cr)):
                continue
            out.append({"x_cr": x_cr, "p": int(round(p))})
    return out
