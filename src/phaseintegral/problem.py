"""Problem ingestion and reduction to the normal form u'' + R(x) u = 0.

Systems may arrive in "Schrodinger like" form with first-derivative terms
a_j(x) u_j'; those are removed by the exponential amplitude transform,
shifting the diagonal of the coefficient matrix.  The reduced matrix is
then split as

    R(x) = lambda**-2 G(x) + a(x) I

around a user-chosen auxiliary function a(x) and formal small parameter
lambda (default 1, retained for order-scaling studies).  Two helpers serve
the choice of a(x) in the modified approximation: `langer_auxiliary`
builds a Langer-type a(x), and `model_epsilon00` gives the eps0 (with
a = 0) that a singularity model of Q**2 predicts.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (EvaluationSingularity, InvalidInput, ModelSingularity,
                     SingularCoefficient)
from .expressions import (
    Add, Const, Expression, JetTape, Mul, Pow, Sub, Var,
    diff_expr, eval_expr, eval_expr_jet, parse_expr, to_string,
)
from .jets import Jet

__all__ = [
    "ProblemSpec", "ReducedProblem", "reduce_first_derivative", "split_R",
    "langer_auxiliary", "model_epsilon00", "load_problem", "problem_to_dict",
]

_ZERO = Const(0.0)
_POLE_SCAN = 257        # points probed for a singular a_j(x)
_HINTS = ("real_symmetric", "hermitian", "general")


def _check_hint(hint: str):
    if hint not in _HINTS:
        raise InvalidInput(f"unknown hermitian_hint {hint!r} "
                           f"(expected one of {', '.join(_HINTS)})")


@dataclass(frozen=True)
class ProblemSpec:
    """A coupled system, either already reduced or Schrodinger-like."""

    n: int
    form: str                         # "reduced" | "schrodinger_like"
    matrix: tuple                     # n x n tuple of Expression (R or R-bar)
    first_derivative: Optional[tuple] = None   # n expressions a_j(x)
    params: dict = field(default_factory=dict)
    domain: tuple = (0.0, 1.0)
    hermitian_hint: str = "general"   # real_symmetric | hermitian | general
    amplitude_transform: Optional[tuple] = None  # a_j used to reach reduced form

    def __post_init__(self):
        if self.form not in ("reduced", "schrodinger_like"):
            raise InvalidInput(f"unknown form {self.form!r}")
        if len(self.matrix) != self.n or any(len(r) != self.n for r in self.matrix):
            raise InvalidInput("matrix must be n x n")
        if (self.first_derivative is not None) != (self.form == "schrodinger_like"):
            raise InvalidInput("first_derivative present iff form is schrodinger_like")
        _check_hint(self.hermitian_hint)

    def matrix_value(self, x: float) -> np.ndarray:
        return np.array([[eval_expr(e, x, self.params) for e in row]
                         for row in self.matrix], dtype=complex)


@dataclass(frozen=True)
class ReducedProblem:
    """The split R = lambda**-2 G + a I defining one PIA computation."""

    n: int
    G: tuple                          # n x n tuple of Expression
    a: Expression
    lam: float
    params: dict = field(default_factory=dict)
    domain: tuple = (0.0, 1.0)
    hermitian_hint: str = "general"

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidInput("lambda must be positive")
        _check_hint(self.hermitian_hint)
        if self.hermitian_hint == "real_symmetric":
            self._check_symmetry()

    def _check_symmetry(self):
        lo, hi = self.domain
        for x in np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 7):
            g = self.G_value(float(x))
            if np.max(np.abs(g - g.T)) > 1e-12 * (1.0 + np.max(np.abs(g))):
                raise InvalidInput(
                    f"hermitian_hint=real_symmetric but G asymmetric at x={x}")

    def __getstate__(self):
        # the tapes are compiled on first use, never pickled
        return {k: v for k, v in self.__dict__.items()
                if not k.endswith("_tape")}

    # -- evaluators -------------------------------------------------------

    def _tape(self, with_a: bool = False) -> JetTape:
        """One tape over all n x n entries of G, and a after them for R,
        compiled on first use."""
        key = "_R_tape" if with_a else "_G_tape"
        tape = self.__dict__.get(key)
        if tape is None:
            tape = JetTape([e for row in self.G for e in row]
                           + [self.a] * with_a)
            object.__setattr__(self, key, tape)
        return tape

    def G_value(self, x: float) -> np.ndarray:
        return np.array(self._tape().values(x, self.params),
                        dtype=complex).reshape(self.n, self.n)

    def G_jet(self, x: float, order: int) -> list:
        """Jets of the n x n entries from the tape over all of them."""
        flat = self._tape()(x, order, self.params)
        n = self.n
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    def a_value(self, x: float) -> complex:
        return eval_expr(self.a, x, self.params)

    def a_jet(self, x: float, order: int) -> Jet:
        return eval_expr_jet(self.a, x, order, self.params)

    def R_value(self, x: float, lam: float | None = None) -> np.ndarray:
        """R = lambda**-2 G + a I, optionally at an overridden lambda."""
        lam = self.lam if lam is None else lam
        *g, a = self._tape(with_a=True).values(x, self.params)
        r = np.array(g, dtype=complex) / lam**2     # G row by row
        r[::self.n + 1] += a
        return r.reshape(self.n, self.n)

    def with_lambda(self, lam: float) -> "ReducedProblem":
        """Same G and a, rebound small parameter (R changes accordingly)."""
        return ReducedProblem(self.n, self.G, self.a, lam, self.params,
                              self.domain, self.hermitian_hint)


def reduce_first_derivative(spec: ProblemSpec) -> ProblemSpec:
    """Eliminate a_j(x) u_j' terms; returns an equivalent reduced spec.

    The new diagonal is R_jj = Rbar_jj - (a_j**2/2 + a_j')/2 and the
    amplitude transform exp((1/2) int a_j dx) is recorded so solutions of
    the reduced system can be mapped back.
    """
    if spec.form != "schrodinger_like":
        return spec
    lo, hi = spec.domain
    for a_j in spec.first_derivative:
        for x in np.linspace(lo, hi, _POLE_SCAN)[1:-1]:
            try:
                eval_expr(a_j, float(x), spec.params)
            except EvaluationSingularity as exc:
                raise SingularCoefficient(
                    f"first-derivative coefficient singular at x={x}") from exc
    rows = []
    for j, row in enumerate(spec.matrix):
        a_j = spec.first_derivative[j]
        # (1/2)*((1/2)*a^2 + a')
        shift = Mul(Const(0.5), Add(Mul(Const(0.5), Mul(a_j, a_j)),
                                    diff_expr(a_j)))
        new_row = list(row)
        new_row[j] = Sub(row[j], shift)
        rows.append(tuple(new_row))
    return ProblemSpec(spec.n, "reduced", tuple(rows), None, spec.params,
                       spec.domain, spec.hermitian_hint,
                       amplitude_transform=tuple(spec.first_derivative))


def split_R(spec: ProblemSpec, lam: float = 1.0,
            a: Expression | None = None) -> ReducedProblem:
    """Form G = lambda**2 (R - a I) so that R = lambda**-2 G + a I."""
    if spec.form != "reduced":
        raise InvalidInput("split_R needs a reduced spec; "
                           "call reduce_first_derivative first")
    a = a if a is not None else _ZERO
    lam2 = Const(lam * lam)
    rows = []
    for j, row in enumerate(spec.matrix):
        new_row = []
        for k, e in enumerate(row):
            entry = Sub(e, a) if j == k else e
            new_row.append(entry if lam == 1.0 else Mul(lam2, entry))
        rows.append(tuple(new_row))
    return ReducedProblem(spec.n, tuple(rows), a, lam, dict(spec.params),
                          spec.domain, spec.hermitian_hint)


def langer_auxiliary(c_a: float, d_a: Expression | None = None) -> Expression:
    """a(x) = c_a * x**-2 * (1 + d_a(x)).

    With c_a = 1/4 and d_a = 0 this shifts a second-order pole of strength
    l(l+1) to (l + 1/2)**2, the classic centrifugal modification.
    """
    if c_a == 0.0:
        return _ZERO
    core = Mul(Const(c_a), Pow(Var(), Const(-2.0)))
    if d_a is None or d_a == _ZERO:
        return core
    return Mul(core, Add(Const(1.0), d_a))


def model_epsilon00(model: tuple, d: Expression | None, x0: float,
                    params=None) -> complex:
    """Local eps0 (with a = 0) predicted by a singularity model of Q**2.

    model is one of
        ("power", m, c)      Q_M^2 = c x^m
        ("exp_pole", eta, c) Q_M^2 = c x^-4 exp(eta/x)
        ("exp_flat", eta, c) Q_M^2 = c exp(eta/x)
        ("bounded", c0)      Q_0^2 = x^-2 (c0 + d(x))
    and d(x) the correcting function (Q^2 = Q_M^2 (1 + d)).
    """
    if x0 == 0.0:
        raise ModelSingularity("model evaluation at the reference point x = 0")
    if d is None:
        dv, dp, dpp = 0.0 + 0j, 0.0 + 0j, 0.0 + 0j
    else:
        jd = eval_expr_jet(d, x0, 2, params or {})
        dv, dp, dpp = jd.value, jd.derivative(1), jd.derivative(2)

    kind = model[0]
    if kind == "bounded":
        c0 = complex(model[1])
        den = c0 + dv
        if abs(den) < 1e-300:
            raise ModelSingularity("c0 + d(x) vanishes: eps0 model singular")
        r1 = x0 * dp / den
        return -0.25 / den * (1.0 + (x0 * dp + x0 * x0 * dpp) / den
                              - 1.25 * r1 * r1)

    if kind == "power":
        m, c = float(model[1]), complex(model[2])
        s_over = m * (m + 4.0) / (16.0 * x0 * x0)
        dlog = m / x0
        qm2 = c * x0 ** m
    elif kind == "exp_pole":
        eta, c = complex(model[1]), complex(model[2])
        s_over = eta * eta / (16.0 * x0 ** 4)
        dlog = -4.0 / x0 - eta / (x0 * x0)
        qm2 = c * x0 ** (-4.0) * cmath.exp(eta / x0)
    elif kind == "exp_flat":
        eta, c = complex(model[1]), complex(model[2])
        s_over = eta * (eta - 8.0 * x0) / (16.0 * x0 ** 4)
        dlog = -eta / (x0 * x0)
        qm2 = c * cmath.exp(eta / x0)
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")

    if abs(qm2) < 1e-300:
        raise ModelSingularity("model Q_M^2 underflowed to zero")
    gamma = 1.0 / (1.0 + dv)
    qsq = qm2 * (1.0 + dv)
    if abs(qsq) < 1e-300:
        raise ModelSingularity("Q^2 vanishes in the model")
    return (s_over / qsq
            + 0.125 * gamma * (dp * dlog - 2.0 * dpp) / qsq
            + 0.3125 * gamma * gamma * dp * dp / qsq)


# --------------------------------------------------------------------------
# JSON problem files
# --------------------------------------------------------------------------

def problem_to_dict(spec: ProblemSpec, lam: float | None = None,
                    a: Expression | None = None) -> dict:
    out = {
        "n": spec.n,
        "form": spec.form,
        "R": [[to_string(e) for e in row] for row in spec.matrix],
        "params": {k: _num(v) for k, v in spec.params.items()},
        "domain": list(spec.domain),
        "hermitian_hint": spec.hermitian_hint,
    }
    if spec.first_derivative is not None:
        out["first_derivative"] = [to_string(e) for e in spec.first_derivative]
    if a is not None:
        out["a"] = to_string(a)
    if lam is not None:
        out["lambda"] = lam
    return out


def _num(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else [v.real, v.imag]


def load_problem(source) -> tuple[ProblemSpec, float, Expression]:
    """Parse a problem dict/JSON text; returns (spec, lambda, a)."""
    data = json.loads(source) if isinstance(source, str) else dict(source)
    n = int(data["n"])
    form = data.get("form", "reduced")
    matrix = tuple(tuple(parse_expr(s) for s in row) for row in data["R"])
    first = data.get("first_derivative")
    if first is not None:
        first = tuple(parse_expr(s) for s in first)
    params = {}
    for k, v in data.get("params", {}).items():
        params[k] = complex(v[0], v[1]) if isinstance(v, list) else complex(v)
    domain = tuple(float(v) for v in data.get("domain", (0.0, 1.0)))
    hint = data.get("hermitian_hint", "general")
    spec = ProblemSpec(n, form, matrix, first, params, domain, hint)
    lam = float(data.get("lambda", 1.0))
    # json reads NaN and Infinity, which would poison every G(x)
    if not all(map(cmath.isfinite, [*params.values(), *domain, lam])):
        raise InvalidInput("params, domain and lambda must be finite")
    a = parse_expr(data["a"]) if "a" in data else _ZERO
    return spec, lam, a
