"""Independent checks: currents, Wronskians, residuals, reference solutions.

Everything here deliberately avoids the correction machinery's internals:
residuals use the waves' own analytic jets, the reference trajectories come
from the DOP853 Runge-Kutta pair (order 8, embedded 5 and 3), and
conservation drifts are measured against the median sample (robust to
boundary quadrature noise).  The DOP853 stepping is this module's own
(`_dop853`) and the tableau is scipy's, read from `scipy.integrate.DOP853`:
the samples are bit for bit those of scipy's own DOP853 integration at the
installed scipy, without its driver layers between the steps and the
right-hand side.

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
        return float(np.max(np.abs(v - _center(v)))) if len(v) else 0.0


def _median(v: np.ndarray):
    """np.median of a non-empty real 1-D array, from a sort: the middle
    element or the mean of the two middle ones, NaN if one is NaN.
    (np.median imports numpy.ma on its first call.)"""
    s = np.sort(v)
    if np.isnan(s[-1]):             # the sort puts NaN last
        return s[-1]
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _center(v: np.ndarray) -> complex:
    """The median of the real parts plus i times that of the imaginary."""
    return complex(_median(v.real), _median(v.imag))


def _report(quantity: str, xs, values) -> ConservationReport:
    if not xs:
        raise InvalidInput(f"{quantity} needs at least one sample")
    v = np.asarray(values, dtype=complex)
    med = _center(v)
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

    The complex state (u, u') is integrated as it is, by `_dop853`: the
    library's stepping on scipy's tableau, whose samples are bit for bit
    those of scipy's initial-value driver with method "DOP853", rtol=tol,
    atol=tol/100 and the points as t_eval.  Samples come at `dense_points`
    in ascending x, one per point given, duplicates included (default:
    x_start, then x_end); the interpolant is built only on the steps that
    hold one.  A step whose error is not finite looks for a non-finite R
    at its stages and raises `EvaluationSingularity` naming the first.

    This is an initial-value problem from the Cauchy data (u0, du0) at
    `x_start`.  Where a slow evanescent branch coexists with a fast one, any
    fast part of the data, roundoff included, grows relative to the slow
    solution by exp(int (|Q_fast| - |Q_slow|) dx) along the path, so the
    result is no reference for a decaying slow wave there; pose that case
    as a boundary-value problem instead.
    """
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
    # the first-step guess turns a NaN here into a step search that never
    # ends, so bad start data is refused before integrating
    if not (np.all(np.isfinite(r0)) and np.all(np.isfinite(u0))
            and np.all(np.isfinite(du0))):
        raise EvaluationSingularity(
            f"non-finite R, u0 or du0 at x_start = {x_start}")
    r_mat = R_eval if np.ndim(r0) == 2 else (     # N = 1: R may be a number
        lambda x: np.atleast_2d(R_eval(x)))

    def rhs(x, y, out):         # (u', -R u) into its row of the stage table
        out[:n] = y[n:]
        np.negative(r_mat(x) @ y[:n], out=out[n:])

    def name_non_finite(xs):
        for x in xs:
            if not np.all(np.isfinite(R_eval(x))):
                raise EvaluationSingularity(
                    f"non-finite R at x = {float(x)}: no step passes it")

    # one sample per distinct x, mapped back to the points as given
    xs = np.unique(np.asarray(pts, dtype=float))
    y0 = np.concatenate([u0, du0])
    if x_end == x_start:
        ys = np.repeat(y0[:, None], len(xs), axis=1)
    else:
        ys = _dop853(rhs, float(x_start), y0, float(x_end), tol, tol * 1e-2,
                     xs, name_non_finite)
    return [WaveSample(float(x), ys[:n, i].copy(), ys[n:, i].copy(), 0.0)
            for x, i in zip(pts, np.searchsorted(xs, pts))]


def _rms(v: np.ndarray):
    return np.linalg.norm(v) / v.size ** 0.5


def _norm_sq(v: np.ndarray):
    """np.linalg.norm(v)**2 of a complex vector, by the same operations."""
    re, im = v.real, v.imag
    return np.sqrt(re.dot(re) + im.dot(im)) ** 2


def _dop853(rhs, t, y, t_bound, rtol, atol, t_eval, name_non_finite):
    """The samples, (y.size, len(t_eval)), of y' = f(t, y) from (t, y) to
    t_bound != t at the ascending abscissae t_eval.

    It repeats scipy's DOP853 integration (scipy 1.17) operation for
    operation on the tableau of `scipy.integrate.DOP853` (Hairer, Norsett
    & Wanner, *Solving ODEs I*, II.5 and II.10): the initial step of
    `select_initial_step`, the 12-stage step, the 5/3 error norm, the
    step-size rule, the dense output of the three extra stages and the
    `t_eval` bookkeeping of its driver, so the samples keep scipy's bits.
    `rhs(t, y, out)` writes f(t, y) into out, a row of the stage table.
    A step whose error norm is not finite first passes its stage
    abscissae to `name_non_finite`, which may raise.
    """
    # Imported here: no pia command integrates, and at module level this
    # import would dominate the start-up of every one of them.
    from scipy.integrate import DOP853 as M

    # np.dot casts a real weight vector to y's type on every call; the
    # weights are cast once here instead, to the same numbers
    A, B, E3, E5, D, A_EXTRA = (np.asarray(w, dtype=y.dtype) for w in (
        M.A, M.B, M.E3, M.E5, M.D, M.A_EXTRA))
    C = M.C
    s_max = M.n_stages
    exponent = -1 / (M.error_estimator_order + 1)
    K = np.empty((s_max + 1 + len(M.C_EXTRA), y.size), dtype=y.dtype)
    f_old, f_new = K[0], K[s_max]
    k_b, k_e = K[:s_max].T, K[:s_max + 1].T
    stages = [(K[:s].T, A[s, :s], C[s], K[s]) for s in range(1, s_max)]
    extra = [(K[:s].T, a[:s], c, K[s])
             for s, a, c in zip(range(s_max + 1, len(K)), A_EXTRA,
                                M.C_EXTRA)]
    direction = np.sign(t_bound - t)

    # the first step: select_initial_step
    interval = abs(t_bound - t)
    rhs(t, y, f_old)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f_old / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    rhs(t + h0 * direction, y + h0 * direction * f_old, K[1])
    d2 = _rms((K[1] - f_old) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (M.error_estimator_order + 1))
    h_abs = min(100 * h0, h1, interval)

    out = np.empty((y.size, len(t_eval)), dtype=y.dtype)
    i = 0 if direction > 0 else len(t_eval)
    while True:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    "reference integration failed: Required step size is "
                    "less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            for k, a, c, row in stages:
                rhs(t + c * h, y + np.dot(k, a) * h, row)
            y_new = y + h * np.dot(k_b, B)
            rhs(t + h, y_new, f_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _norm_sq(np.dot(k_e, E5) / scale)
            err3 = _norm_sq(np.dot(k_e, E3) / scale)
            if err5 == 0 and err3 == 0:
                err = 0.0
            else:
                err = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3)
                                                 * len(scale))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            if not np.isfinite(err):
                name_non_finite([t + c * h for c in C] + [t + h])
            h_abs *= max(0.2, 0.9 * err ** exponent)
            rejected = True
        t_old, y_old, t, y = t, y, t_new, y_new

        # the driver's t_eval bookkeeping; the interpolant only where needed
        if direction > 0:
            i_new = np.searchsorted(t_eval, t, side="right")
            at = t_eval[i:i_new]
        else:
            i_new = np.searchsorted(t_eval, t, side="left")
            at = t_eval[i_new:i][::-1]
        if at.size > 0:
            for k, a, c, row in extra:
                rhs(t_old + c * h, y_old + np.dot(k, a) * h, row)
            F = np.empty((len(D) + 3, y.size), dtype=y.dtype)
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f_new + f_old)
            F[3:] = h * np.dot(D, K)
            # Dop853DenseOutput at the points `at`
            x = ((at - t_old) / (t - t_old))[:, None]
            ys = np.zeros((len(x), y.size), dtype=y.dtype)
            for j, f in enumerate(reversed(F)):
                ys += f
                if j % 2 == 0:
                    ys *= x
                else:
                    ys *= 1 - x
            ys += y_old
            if direction > 0:
                out[:, i:i_new] = ys.T
            else:
                out[:, i_new:i] = ys.T[:, ::-1]
            i = i_new
        if direction * (t - t_bound) >= 0:
            return out
        f_old[:] = f_new


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
    scale = max(1.0, float(_median(gaps)))
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
