"""Acceptance suite: one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line (run with -s to see them all)
and then asserts.  Criterion 9a checks the BEC decaying wave against a
boundary-value solve rather than a backward integration, and 9b takes the
amplitude ratio from Table I's |Q| values rather than their k -> 0 limit;
the comments at section 9 give the reasons.
"""

import cmath
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_bvp

from conftest import scalar_corrections
from phaseintegral.expressions import diff_expr, eval_expr, eval_expr_jet, parse_expr
from phaseintegral.problem import ProblemSpec, split_R
from phaseintegral.spectral import BranchField
from phaseintegral.vector import CorrectionEngine, assemble_vector_wave
from phaseintegral import verify as V

SIG5 = 5e-6          # "to 5 significant figures"


def _report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    return ok


def _close(got, want, rtol):
    return abs(got - want) <= rtol * (abs(want) + (want == 0))


def h_fn(x):
    return math.log((math.sqrt(x) + 1) / abs(math.sqrt(x) - 1))


# ---------------------------------------------------------------------------
# 1. Table I reproduction
# ---------------------------------------------------------------------------

def test_criterion_01_table1(bec):
    t0 = time.time()
    # (rank, gauge) -> (|Q|, eps0/2, Y1, Y2, c1perp, c2perp)
    # c1perp is gauge invariant; the criterion pins -1.70658e-5 / 5.16137e-7.
    rows = {
        (0, "raw"): (1.41464, -2.54639e-8, -8.4752e-6, 1.3783e-7,
                     -1.70658e-5, -9.88846e-7),
        (0, "normalized"): (1.41464, -2.54639e-8, 0.0, -2.55731e-8,
                            -1.70658e-5, -9.88846e-7),
        (1, "raw"): (0.0427842, 1.59832e-2, 2.83539e-4, 1.58104e-2,
                     5.16137e-7, -3.15819e-7),
        (1, "normalized"): (0.0427842, 1.59832e-2, 0.0, 1.59832e-2,
                            5.16137e-7, -3.15819e-7),
    }
    ok = True
    for (rank, gauge), want in rows.items():
        g = parse_expr("1") if gauge == "raw" else None
        fld = BranchField(bec, rank, gauge, g, anchor=55.0)
        eng = CorrectionEngine(bec, fld, "simplified_hermitian", 2, 55.0)
        corr = eng.at(55.0)
        got = (abs(cmath.sqrt(corr.Qsq.value)), corr.eps0.value.real / 2,
               corr.Y[1].value.real, corr.Y[2].value.real,
               corr.c_perp[1].value.real, corr.c_perp[2].value.real)
        for g_val, w_val in zip(got, want):
            if w_val == 0.0:
                ok &= abs(g_val) < 1e-9
            else:
                ok &= _close(g_val, w_val, SIG5)
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    assert _report(1, f"Table I, both branches and gauges, 5 sig figs "
                      f"({elapsed:.2f} s)", ok)


# ---------------------------------------------------------------------------
# 2. closed forms on Fex1
# ---------------------------------------------------------------------------

def test_criterion_02_fex1_closed_forms(fex1):
    xs = (2.5, 3.0, 7.0)
    rtol = 1e-9
    ok = True

    def run(rank, variant, anchor, m_max):
        fld = BranchField(fex1, rank, "normalized", None, anchor=anchor)
        eng = CorrectionEngine(fex1, fld, variant, m_max, anchor)
        return {x: eng.at(x) for x in xs}

    # fulling, Q^2 = 1  (anchor 2 makes c1 = -4i ln|x-1| exactly)
    for x, c in run(0, "fulling_current", 2.0, 2).items():
        L = math.log(x - 1)
        ok &= _close(c.c_perp[1].value, -2j / (x - 1), rtol)
        ok &= _close(c.Y[2].value, -0.5 + 2 / (x - 1), rtol)
        ok &= _close(c.c_par[1].value, -4j * L, rtol)
        ok &= _close(c.c_perp[2].value, 4 / (x - 1) ** 3 - 8 * L / (x - 1), rtol)
        ok &= _close(c.c_par[2].value, -2 / (x - 1) ** 2 - 8 * L * L, rtol)
    # fulling, Q^2 = x  (anchor solves 2 sqrt(A) = h(A) so that
    # c1 = 4i (2 sqrt(x) - h(x)) carries the paper's integration constant)
    lo, hi = 1.2, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2 * math.sqrt(mid) - h_fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    a_star = 0.5 * (lo + hi)
    for x, c in run(1, "fulling_current", a_star, 2).items():
        sq, h = math.sqrt(x), h_fn(x)
        ok &= _close(c.c_perp[1].value, 2j * sq / (x - 1), rtol)
        ok &= _close(c.c_par[1].value, 4j * (2 * sq - h), 1e-8)
        ok &= _close(c.Y[2].value,
                     -2 / (x - 1) + 5 / (32 * x**3) - 1 / (2 * x), rtol)
        want_c2p = (-32 * x**4 + 64 * x**3 - 29 * x**2 + 6 * x - 1) \
            / (2 * x * (x - 1) ** 3) + 8 * sq * h / (x - 1)
        ok &= _close(c.c_perp[2].value, want_c2p, 1e-8)
        want_c2 = 2 * x * (-16 * x**2 + 32 * x - 17) / (x - 1) ** 2 \
            - 8 * h * (h - 4 * sq)
        ok &= _close(c.c_par[2].value, want_c2, 1e-8)
    # wronskian, both branches, through Y3
    for x, c in run(0, "wronskian_conserving", 2.0, 3).items():
        ok &= _close(c.c_perp[1].value, -2j / (x - 1), rtol)
        ok &= abs(c.c_par[1].value) < 1e-10
        ok &= _close(c.Y[2].value, -(x + 3) / (2 * (x - 1)), rtol)
        ok &= _close(c.c_perp[2].value, 4 / (x - 1) ** 3, rtol)
        ok &= _close(c.c_par[2].value, 2 / (x - 1) ** 2, rtol)
        ok &= _close(c.Y[3].value, -2j * (x + 3) / (x - 1) ** 3, rtol)
    for x, c in run(1, "wronskian_conserving", 2.0, 3).items():
        sq = math.sqrt(x)
        ok &= _close(c.c_perp[1].value, 2j * sq / (x - 1), rtol)
        ok &= abs(c.c_par[1].value) < 1e-10
        ok &= _close(c.Y[2].value,
                     2 / (x - 1) + 5 / (32 * x**3) - 1 / (2 * x), rtol)
        ok &= _close(c.c_perp[2].value,
                     (3 * x**2 + 6 * x - 1) / (2 * x * (x - 1) ** 3), rtol)
        ok &= _close(c.c_par[2].value, 2 * x / (x - 1) ** 2, rtol)
        ok &= _close(c.Y[3].value, -2j * (x + 3) / ((x - 1) ** 3 * sq), rtol)
    # simplified: same through 2nd order with c2 = 0, then Y3 of its own
    for x, c in run(0, "simplified_hermitian", 2.0, 3).items():
        ok &= abs(c.c_par[2].value) == 0.0
        ok &= _close(c.Y[3].value, -2j * (x + 1) / (x - 1) ** 3, rtol)
    assert _report(2, "Fex1 closed forms (fulling / wronskian / simplified)",
                   ok)


# ---------------------------------------------------------------------------
# 3. sign mapping on Fex3
# ---------------------------------------------------------------------------

def test_criterion_03_fex3_wronskian(fex3):
    rtol = 1e-9
    fld = BranchField(fex3, 1, "normalized", None, anchor=2.0)  # Q^2 = -1
    eng = CorrectionEngine(fex3, fld, "wronskian_conserving", 2, 2.0)
    ok = True
    for x in (2.5, 3.0, 7.0):
        c = eng.at(x)
        L = math.log(abs(x - 1))
        ok &= abs(c.Y[1].value) < 1e-10
        ok &= _close(c.c_perp[1].value, -2.0 / (x - 1), rtol)
        ok &= _close(c.c_par[1].value, 4.0 * L, rtol)
        ok &= _close(c.Y[2].value, 0.5 - 2.0 / (x - 1), rtol)
        ok &= _close(c.c_perp[2].value,
                     4 / (x - 1) ** 3 - 8 * L / (x - 1), rtol)
        ok &= _close(c.c_par[2].value, 2 / (x - 1) ** 2 + 8 * L * L, rtol)
    assert _report(3, "Fex3 (Q^2 = -1) wronskian-conserving closed forms", ok)


# ---------------------------------------------------------------------------
# 4. non-hermitian theory on Fex4
# ---------------------------------------------------------------------------

def test_criterion_04_fex4_nonhermitian(fex4):
    rtol = 1e-9
    ok = True
    # Q^2 = 1, g = 2 sin x
    fld = BranchField(fex4, 0, "raw", parse_expr("2*sin(x)"), anchor=2.0)
    eng = CorrectionEngine(fex4, fld, "non_hermitian", 2, 2.0)
    for x in (2.2, 2.8, 3.6, 5.0, 6.4):
        c = eng.at(x)
        d = 5 - 3 * math.cos(2 * x)
        ok &= abs(c.Y[1].value) < 1e-10
        ok &= _close(c.c_perp[1].value, -8.0 / ((x - 1) * d), rtol)
    # Q^2 = x, g = 2 cos x
    fld = BranchField(fex4, 1, "raw", parse_expr("2*cos(x)"), anchor=2.0)
    eng = CorrectionEngine(fex4, fld, "non_hermitian", 2, 2.0)
    for x in (2.2, 2.8, 3.6, 5.0, 6.4):
        c = eng.at(x)
        d = 5 + 3 * math.cos(2 * x)
        ok &= abs(c.Y[1].value) < 1e-10
        ok &= _close(c.c_perp[1].value,
                     8.0 * math.sqrt(x) / ((x - 1) * d), rtol)
    for x in (3.0, 5.0):
        c = eng.at(x)
        d = 5 + 3 * math.cos(2 * x)
        num = (528 * x**4 + 416 * x**3 - 649 * x**2 - 590 * x + 295
               - (960 * x**4 - 1920 * x**3 + 660 * x**2 + 600 * x - 300)
               * math.cos(2 * x)
               + (432 * x**4 - 288 * x**3 - 99 * x**2 - 90 * x + 45)
               * math.cos(4 * x)
               + x**2 * (x + 1) * (960 * math.sin(2 * x)
                                   + 288 * math.sin(4 * x)))
        want = num / (64 * x**3 * (x - 1) ** 2 * d**2)
        ok &= _close(c.Y[2].value, want, 1e-8)
    assert _report(4, "Fex4 non-hermitian theory (Y1 = 0, c1perp, Y2)", ok)


# ---------------------------------------------------------------------------
# 5. scalar recurrence identities
# ---------------------------------------------------------------------------

def test_criterion_05_scalar_recurrence():
    rng = np.random.default_rng(17)
    ok = True
    for trial in range(20):
        a = round(float(rng.uniform(0.2, 1.0)), 4)
        b = round(float(rng.uniform(1.0, 2.5)), 4)
        c = round(float(rng.uniform(0.2, 0.9)), 4)
        x0 = float(rng.uniform(1.0, 2.2))
        eps_text = f"{a}*sin({c}*x) + {b}/x^2"
        qsq_text = f"{b} + {c}*x^2" if trial % 2 else f"-({b}) - {c}*x^2"
        eps = eval_expr_jet(parse_expr(eps_text), x0, 8)
        qsq = eval_expr_jet(parse_expr(qsq_text), x0, 8)
        sc = scalar_corrections(eps, qsq, 2)
        # Y2 = eps0/2 as a jet identity
        ok &= bool(np.allclose(sc.Y[1].coeffs, 0.5 * eps.coeffs,
                               rtol=1e-10, atol=1e-12))
        # Y4 = -(eps0^2 + eps0''(zeta))/8 with the zeta -> x mapping done
        # by the symbolic oracle
        f = parse_expr(eps_text)
        q2 = parse_expr(qsq_text)
        f1, f2 = diff_expr(f), diff_expr(diff_expr(f))
        q2v, q2p = eval_expr(q2, x0), eval_expr(diff_expr(q2), x0)
        zeta2 = (eval_expr(f2, x0) - 0.5 * q2p * eval_expr(f1, x0) / q2v) / q2v
        want = -0.125 * (eval_expr(f, x0) ** 2 + zeta2)
        ok &= _close(sc.Y[2].value, want, 1e-10)
    assert _report(5, "Y2 and Y4 jet identities for 20 random eps0 "
                      "(zeta mapping vs symbolic oracle)", ok)


# ---------------------------------------------------------------------------
# 6. conservation suites
# ---------------------------------------------------------------------------

def test_criterion_06_conservation(fex1, fex3, n1_engine):
    lams = [0.2, 0.1, 0.05]
    grid = np.linspace(3.0, 8.0, 11)
    ok = True
    # fulling on Fex1, Q^2 = x, order 2: sigma drift ~ lambda^(3 +- 0.7)
    fld = BranchField(fex1, 1, "normalized", None, anchor=3.0)
    eng = CorrectionEngine(fex1, fld, "fulling_current", 2, 3.0)
    drifts = [V.current_sigma(assemble_vector_wave(eng, +1, grid, 3.0, lam))
              .drift for lam in lams]
    slope = float(np.polyfit(np.log(lams), np.log(drifts), 1)[0])
    ok &= 2.3 <= slope <= 3.7
    print(f"    sigma drift slope (fulling, order 2): {slope:.3f}")
    # wronskian on Fex3, Q^2 = -1, order 3: W drift ~ lambda^(4 +- 0.7)
    fld = BranchField(fex3, 1, "normalized", None, anchor=3.0)
    eng = CorrectionEngine(fex3, fld, "wronskian_conserving", 3, 3.0)
    drifts = []
    for lam in lams:
        wp = assemble_vector_wave(eng, +1, grid, 3.0, lam)
        wm = assemble_vector_wave(eng, -1, grid, 3.0, lam)
        drifts.append(V.wronskian(wp, wm, "generalized").drift)
    slope = float(np.polyfit(np.log(lams), np.log(drifts), 1)[0])
    ok &= 3.3 <= slope <= 4.7
    print(f"    W drift slope (wronskian, order 3): {slope:.3f}")
    # scalar invariants, exact: R = 1 as the N = 1 vector wave
    seng = n1_engine("1", 0.0)
    sgrid = np.linspace(0.0, 3.0, 7)
    wp = assemble_vector_wave(seng, +1, sgrid, 0.0, 1.0)
    wm = assemble_vector_wave(seng, -1, sgrid, 0.0, 1.0)
    ok &= bool(np.max(np.abs(V.current_sigma(wp).values() - 1.0)) <= 1e-12)
    ok &= bool(np.max(np.abs(V.current_sigma(wm).values() + 1.0)) <= 1e-12)
    ok &= bool(np.max(np.abs(V.wronskian(wp, wm, "symmetric").values()
                             + 2.0j)) <= 1e-12)
    assert _report(6, "conservation drift scaling + exact scalar invariants",
                   ok)


# ---------------------------------------------------------------------------
# 7. residual order scaling
# ---------------------------------------------------------------------------

def test_criterion_07_residual_scaling(scalar_quadratic, fex1, n1_engine):
    lams = [0.2, 0.1, 0.05]
    ok = True
    for n_max, order in ((0, 1), (1, 3), (2, 5)):
        # scalar truncation n_max is the N = 1 engine at m_max = 2 n_max
        eng = n1_engine("x^2 + 1", 1.0, 2 * n_max)
        res = []
        for lam in lams:
            w = assemble_vector_wave(eng, +1, [0.5, 1.0, 1.5], 1.0, lam)
            res.append(V.relative_residual(
                w, lambda x, lv=lam: scalar_quadratic.R_value(x, lv),
                [0.7, 1.3]))
        slope = float(np.polyfit(np.log(lams), np.log(res), 1)[0])
        ok &= slope >= order + 0.5
        print(f"    scalar order {order}: slope {slope:.2f}")
    f1 = BranchField(fex1, 1, "normalized", None, anchor=3.0)
    for m_max in (1, 2):
        eng = CorrectionEngine(fex1, f1, "fulling_current", m_max, 3.0)
        res = []
        for lam in lams:
            w = assemble_vector_wave(eng, +1, [3.0, 4.0, 5.0], 3.0, lam)
            res.append(V.relative_residual(
                w, lambda x, lv=lam: fex1.R_value(x, lv), [3.5, 4.5]))
        slope = float(np.polyfit(np.log(lams), np.log(res), 1)[0])
        ok &= slope >= m_max + 0.5
        print(f"    Fex1 fulling order {m_max}: slope {slope:.2f}")
    assert _report(7, "residual order scaling (scalar 1/3/5, fulling 1/2)",
                   ok)


# ---------------------------------------------------------------------------
# 8. exactness and embedding
# ---------------------------------------------------------------------------

def test_criterion_08_exactness_embedding(scalar_quadratic):
    ok = True
    spec = ProblemSpec(2, "reduced",
                       ((parse_expr("4"), parse_expr("1")),
                        (parse_expr("1"), parse_expr("4"))),
                       None, {}, (0.0, 3.0), "real_symmetric")
    const_prob = split_R(spec, 1.0, None)
    grid = np.linspace(0.0, 2.0, 5)
    for order in (0, 1, 2, 3):
        fld = BranchField(const_prob, 0, "normalized", None, anchor=0.0)
        eng = CorrectionEngine(const_prob, fld, "fulling_current", order, 0.0)
        w = assemble_vector_wave(eng, +1, grid, 0.0, 1.0)
        ok &= V.relative_residual(w, lambda x: const_prob.R_value(x)) <= 1e-12
    # N = 1 through the vector engine vs the scalar recurrence
    fld = BranchField(scalar_quadratic, 0, "normalized", None, anchor=1.0)
    eng = CorrectionEngine(scalar_quadratic, fld, "fulling_current", 4, 1.0)
    corr = eng.at(1.3)
    sc = scalar_corrections(fld.eps0_jet(1.3, 10), fld.qsq_jet(1.3, 12), 2)
    ok &= _close(corr.Y[2].value, sc.Y[1].value, 1e-12)
    ok &= _close(corr.Y[4].value, sc.Y[2].value, 1e-12)
    ok &= abs(corr.Y[1].value) < 1e-13 and abs(corr.Y[3].value) < 1e-13
    ok &= all(abs(cj.value) < 1e-13 for m in range(1, 5) for cj in corr.s[m])
    # d = N degenerate input
    dspec = ProblemSpec(2, "reduced",
                        ((parse_expr("x^2 + 1"), parse_expr("0")),
                         (parse_expr("0"), parse_expr("x^2 + 1"))),
                        None, {}, (0.5, 3.0), "real_symmetric")
    dprob = split_R(dspec, 1.0, None)
    dfld = BranchField(dprob, 0, "normalized", None, anchor=1.0)
    deng = CorrectionEngine(dprob, dfld, "simplified_hermitian", 4, 1.0)
    dcorr = deng.at(1.3)
    ok &= _close(dcorr.Y[2].value, sc.Y[1].value, 1e-12)
    ok &= _close(dcorr.Y[4].value, sc.Y[2].value, 1e-12)
    ok &= all(abs(cj.value) == 0.0 for m in range(1, 5) for cj in dcorr.s[m])
    assert _report(8, "constant-R exactness, N=1 embedding, d=N reduction", ok)


# ---------------------------------------------------------------------------
# 9. BEC cross-check
#
# Between x = 55 and 80 both branches are evanescent: the fast one (ge,
# |Q| ~ 1.41) and the slow one (se, |Q| ~ 0.043).  The decaying se wave
# cannot be checked against a backward initial-value integration from its
# Cauchy data at 80: any fast-branch part of the seed, roundoff of an exact
# seed included, grows relative to it by exp(int (|Q_ge| - |Q_se|) dx)
# ~ exp(1.3718 * 25) ~ 7.8e14 by x = 55, so an exact seed already drifts
# by ~0.09.  9a therefore takes as reference the two-point boundary-value
# solution that keeps the seed's slow part at 80 and admits no fast mode
# that grows into the interval from either end; it is well conditioned.
# ---------------------------------------------------------------------------

def _bec_wave(bec, rank, anchor, grid, order=0):
    fld = BranchField(bec, rank, "normalized", None, anchor=anchor)
    eng = CorrectionEngine(bec, fld, "simplified_hermitian", order, anchor)
    return assemble_vector_wave(eng, -1, grid, anchor, 1.0)


def _bec_bvp_reference(bec, seed, a, b):
    """u'' + R u = 0 on [a, b] as a boundary-value problem (solve_bvp).

    The eigenpairs of R at the two ends come from numpy.linalg.eigh, with
    kappa = sqrt(-eigenvalue) on the evanescent branches.  Conditions: the
    slow components of u and u' at b equal the seed's; the fast component
    has no part growing toward +x at b, e_f.(u' + kappa_f u) = 0, and none
    growing toward -x at a, e_f.(u' - kappa_f u) = 0.  The system is solved
    as stacked real/imaginary parts, y = (Re u, Im u, Re u', Im u').
    """
    n = seed.u.size
    # R_value walks the expression tree; caching it and giving the exact
    # Jacobian keeps the solve near 2 s instead of ~20 s.
    cache = {}

    def R(x):
        x = float(x)
        if x not in cache:
            cache[x] = np.asarray(bec.R_value(x), dtype=complex)
        return cache[x]

    def modes(x):
        w, v = np.linalg.eigh(R(x))
        kappa = np.sqrt(-w)
        f, s = int(np.argmax(kappa)), int(np.argmin(kappa))
        return v[:, s], v[:, f], kappa[f]

    def split(y):
        return y[:n] + 1j * y[n:2 * n], y[2 * n:3 * n] + 1j * y[3 * n:]

    def fun(xs, y):
        u, du = split(y)
        ddu = np.stack([-R(x) @ u[:, i] for i, x in enumerate(xs)], axis=1)
        return np.concatenate([du.real, du.imag, ddu.real, ddu.imag])

    def fun_jac(xs, y):
        jac = np.zeros((4 * n, 4 * n, len(xs)))
        jac[:2 * n, 2 * n:] = np.eye(2 * n)[:, :, None]
        for i, x in enumerate(xs):
            r = R(x)
            jac[2 * n:3 * n, :n, i] = -r.real
            jac[2 * n:3 * n, n:2 * n, i] = r.imag
            jac[3 * n:, :n, i] = -r.imag
            jac[3 * n:, n:2 * n, i] = -r.real
        return jac

    e_s, e_fb, k_fb = modes(b)
    _, e_fa, k_fa = modes(a)

    def bc(ya, yb):
        ua, dua = split(ya)
        ub, dub = split(yb)
        res = np.array([np.vdot(e_s, ub - seed.u),
                        np.vdot(e_s, dub - seed.u_prime),
                        np.vdot(e_fb, dub + k_fb * ub),
                        np.vdot(e_fa, dua - k_fa * ua)])
        return np.concatenate([res.real, res.imag])

    mesh = np.linspace(a, b, 251)
    return solve_bvp(fun, bc, mesh, np.zeros((4 * n, mesh.size)),
                     fun_jac=fun_jac, tol=1e-10)


def test_criterion_09a_bec_reference_band(bec):
    pts = list(np.linspace(55.0, 80.0, 26))
    wave = _bec_wave(bec, 1, 80.0, pts)          # u_se, decaying member
    seed = wave.samples[-1]
    sol = _bec_bvp_reference(bec, seed, 55.0, 80.0)
    assert sol.status == 0, f"reference solve did not converge: {sol.message}"
    ref = sol.sol(np.array(pts))
    n = seed.u.size
    devs = [float(np.linalg.norm(ref[:n, i] + 1j * ref[n:2 * n, i] - s.u)
                  / np.linalg.norm(s.u))
            for i, s in enumerate(wave.samples)]
    worst = max(devs)
    ok = worst <= 5e-2
    _report("9a", f"boundary-value cross-check stays in the 5e-2 band "
                  f"(worst deviation {worst:.3e})", ok)
    assert ok, (
        f"max relative deviation {worst:.3e} over [55, 80] from the "
        "boundary-value reference (slow part of the seed at 80, no fast "
        "mode growing into the interval from either end)")


def test_criterion_09b_bec_amplitude_ratio(bec):
    pts = [55.0]
    w_se = _bec_wave(bec, 1, 55.0, pts)
    w_ge = _bec_wave(bec, 0, 55.0, pts)
    ratio = float(np.linalg.norm(w_se.samples[0].u)
                  / np.linalg.norm(w_ge.samples[0].u))
    # At its anchor the order-0 normalized wave has |u| = |Q|**-0.5 (|s0| = 1,
    # phase 0), so the ratio is sqrt(|Q_ge| / |Q_se|) with Table I's |Q| at
    # x = 55.  The paper's 5.946 = sqrt(sqrt(2) / k) estimates the same ratio
    # for x -> inf, k -> 0, where |Q_ge| ~ sqrt(2) and |Q_se| ~ k = 0.04.
    want = math.sqrt(1.41464 / 0.0427842)
    ok = abs(ratio - want) <= 1e-3
    _report("9b", f"amplitude ratio |u_se|/|u_ge| at 55 = {ratio:.4f} "
                  f"(want {want:.4f} +- 0.001)", ok)
    assert ok, (
        f"computed ratio {ratio:.4f}, want sqrt(|Q_ge|/|Q_se|) = {want:.4f} "
        "from Table I's |Q| values at x = 55")


# ---------------------------------------------------------------------------
# 10. parity and reality invariants
# ---------------------------------------------------------------------------

def test_criterion_10_parity_reality(fex1, fex3):
    ok = True
    # parity under Q -> -Q on both examples
    for prob, rank in ((fex1, 0), (fex3, 1)):
        ep = CorrectionEngine(prob, BranchField(prob, rank, "normalized",
                                                None, 2.0, +1),
                              "wronskian_conserving", 3, 2.0)
        em = CorrectionEngine(prob, BranchField(prob, rank, "normalized",
                                                None, 2.0, -1),
                              "wronskian_conserving", 3, 2.0)
        for x in (2.6, 4.1):
            cp, cm = ep.at(x), em.at(x)
            for m in range(4):
                ok &= abs(cm.Y[m].value - (-1) ** m * cp.Y[m].value) \
                    <= 1e-10 * (1 + abs(cp.Y[m].value))
                for a, b in zip(cm.s[m], cp.s[m]):
                    ok &= abs(a.value - (-1) ** m * b.value) \
                        <= 1e-10 * (1 + abs(b.value))
    # reality pattern: Q^2 > 0 -> Y_2n real, Y_2n-1 imaginary
    eng = CorrectionEngine(fex1, BranchField(fex1, 0, "normalized", None, 2.0),
                           "wronskian_conserving", 3, 2.0)
    corr = eng.at(4.3)
    for m, v in enumerate(corr.Y_values()):
        bad = abs(v.imag) if m % 2 == 0 else abs(v.real)
        ok &= bad <= 1e-10 * (1 + abs(v))
    # Q^2 < 0 -> all corrections real
    eng = CorrectionEngine(fex3, BranchField(fex3, 1, "normalized", None, 2.0),
                           "wronskian_conserving", 3, 2.0)
    corr = eng.at(4.3)
    for m, v in enumerate(corr.Y_values()):
        ok &= abs(v.imag) <= 1e-10 * (1 + abs(v))
        for cj in corr.s[m]:
            ok &= abs(cj.value.imag) <= 1e-10 * (1 + abs(cj.value))
    assert _report(10, "Q -> -Q parity and real-hermitian reality patterns",
                   ok)
