"""Process-level tracing of phaseintegral's layers, from outside the library.

Only the traced run (--trace 1) installs a Tracer.  It replaces the public
entry points of each module with wrappers, everywhere the package refers to
them, and restores the originals on uninstall:

* a *span* (id, parent id, name, start, end) for every call into a layer's
  public functions and methods, kept in memory and written out by dump();
* a *count* for every Jet operation, without a span; only the outermost Jet
  operation is timed, and that time is charged to jets, not to the caller;
* counts for the library's private work units that the ROADMAP tracks
  (base points built, quadrature panels) and for the integrands and RK
  right-hand sides the library calls back.

A layer's self time is the time inside its spans minus the time covered by
child spans and by Jet operations.  The tracer keeps no state outside the
object, so two tracers never share counts.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import sys
import time
from collections import Counter

_PERF = time.perf_counter

# layer -> (module, [functions], {class: [methods]})
_SPANNED = {
    "expressions": ("expressions", ["parse_expr", "diff_expr", "eval_expr",
                                    "eval_expr_jet", "to_string"], {}),
    "problem": ("problem", ["load_problem", "split_R",
                            "reduce_first_derivative", "problem_to_dict"],
                {"ReducedProblem": ["G_value", "G_jet", "a_value", "a_jet",
                                    "R_value", "with_lambda"],
                 "ProblemSpec": ["matrix_value"]}),
    "spectral": ("spectral", ["eigen_n2_closed_form", "eigen_track",
                              "kato_gauge", "complement_basis", "schwartzian",
                              "epsilon0"],
                 {"BranchField": ["qsq_value", "qsq_jet", "q_jet", "eps0_jet",
                                  "s0_jets", "full_degeneracy_region",
                                  "degeneracy", "branch", "complement_jets"]}),
    "vector": ("vector", ["vector_corrections", "p_coefficients",
                          "assemble_vector_wave"],
               {"CorrectionEngine": ["at", "compatibility_residual",
                                     "applicability_warnings", "_base_point"]}),
    "quadrature": ("quadrature", ["quad"],
                   {"JetChainIntegral": ["value"],
                    "CumulativeIntegral": ["value"]}),
    "verify": ("verify", ["current_sigma", "wronskian", "residual",
                          "relative_residual", "order_scaling",
                          "crossing_diagnostics"], {}),
    "cli": ("cli", ["main"], {}),
}

_JET_FUNCTIONS = ["jet_const", "jet_variable", "jet_sin", "jet_cos", "jet_exp",
                  "jet_ln", "jet_sqrt", "jet_pow", "jet_arith", "jet_elem",
                  "jet_derivative"]
_JET_METHODS = ["copy", "truncated", "conj", "real", "imag", "derivative",
                "diff", "antiderivative", "__add__", "__radd__", "__sub__",
                "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
                "__rtruediv__"]

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
METRICS = {
    "expressions.value_calls": "count", "expressions.value_s": "s",
    "expressions.jet_calls": "count", "expressions.jet_s": "s",
    "jets.ops": "count", "jets.self_s": "s",
    "problem.G_value_calls": "count", "problem.G_jet_calls": "count",
    "problem.R_value_calls": "count", "problem.self_s": "s",
    "spectral.qsq_jet_calls": "count", "spectral.s0_jets_calls": "count",
    "spectral.degeneracy_probes": "count", "spectral.self_s": "s",
    "vector.at_calls": "count", "vector.base_points": "count",
    "vector.wave_calls": "count", "vector.self_s": "s",
    "quadrature.integrand_calls": "count", "quadrature.value_calls": "count",
    "quadrature.panels": "count", "quadrature.self_s": "s",
    "verify.rk_rhs_calls": "count", "verify.reference_s": "s",
    "verify.crossing_gap_evals": "count", "verify.crossings_s": "s",
    "verify.residual_s": "s",
    "cli.import_s": "s", "cli.command_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters for one process; install() before, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []       # (id, parent, name index, t0, t1)
        self.calls = Counter()             # span name -> calls
        self.inclusive = Counter()         # span name -> seconds
        self.self_s = Counter()            # layer -> seconds
        self.counts = Counter()            # counted-only events
        self.jet_ops = 0
        self.jet_s = 0.0
        self.extra: dict[str, float] = {}  # measured outside spans (cli.import_s)
        self._next_id = 0
        self._stack = [[0, 0.0, -1]]       # [span id, child seconds, name index]
        self._in_jet = False
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def spanned(self, name: str, layer: str, fn, skip_under: str | None = None):
        idx = self._intern(name)
        skip = self._intern(skip_under) if skip_under else -2
        stack, spans = self._stack, self.spans
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s

        def wrapper(*args, **kwargs):
            if stack[-1][2] == skip:       # e.g. eval_expr's own jet call
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0, idx]
            parent = stack[-1][0]
            stack.append(frame)
            t0 = _PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _PERF()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                self_s[layer] += dur - frame[1]
                calls[name] += 1
                inclusive[name] += dur
                spans.append((frame[0], parent, idx, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def jet_op(self, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self.jet_ops += 1
            if self._in_jet:
                return fn(*args, **kwargs)
            self._in_jet = True
            t0 = _PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _PERF() - t0
                self._in_jet = False
                self.jet_s += dt
                stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _set(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_function(self, fn, new, modules):
        """Point every module-level reference to `fn` at `new`."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, new)

    @staticmethod
    def _lookup(owner, name: str, label: str):
        """owner's own attribute `name`.  An entry point the library no
        longer has stops the run: its metrics would read 0, and a layer
        check would pass whatever the workload does."""
        fn = vars(owner).get(name)
        if fn is None:
            raise LookupError(f"tracer: phaseintegral has no {label}; "
                              f"update perfbench/tracer.py to its new name")
        return fn

    def install(self):
        """Wrap the layers of every phaseintegral module imported so far."""
        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "phaseintegral"
                                     or n.startswith("phaseintegral."))]
        loaded = {m.__name__.rsplit(".", 1)[-1]: m for m in pkg}
        for layer, (modname, funcs, classes) in _SPANNED.items():
            mod = loaded.get(modname)
            if mod is None:        # not imported yet, so not called yet
                if importlib.util.find_spec(f"phaseintegral.{modname}") is None:
                    raise LookupError(f"tracer: phaseintegral has no module "
                                      f"{modname}")
                continue
            for fname in funcs:
                fn = self._lookup(mod, fname, f"{modname}.{fname}")
                skip = "expressions.eval_expr" if fname == "eval_expr_jet" else None
                self._replace_function(
                    fn, self.spanned(f"{layer}.{fname}", layer, fn, skip), pkg)
            for cname, methods in classes.items():
                cls = self._lookup(mod, cname, f"{modname}.{cname}")
                for meth in methods:
                    fn = self._lookup(cls, meth, f"{modname}.{cname}.{meth}")
                    self._set(cls, meth,
                              self.spanned(f"{layer}.{meth}", layer, fn))
        jets = loaded["jets"]
        for fname in _JET_FUNCTIONS:
            fn = self._lookup(jets, fname, f"jets.{fname}")
            self._replace_function(fn, self.jet_op(fn), pkg)
        for meth in _JET_METHODS:
            fn = self._lookup(jets.Jet, meth, f"jets.Jet.{meth}")
            self._set(jets.Jet, meth, self.jet_op(fn))
        quad = loaded["quadrature"].JetChainIntegral
        panel = self._lookup(quad, "_panel", "quadrature.JetChainIntegral._panel")
        self._set(quad, "_panel", self.counted("quadrature.panels", panel))
        self._set(quad, "__init__", self._integrand_init(
            self._lookup(quad, "__init__", "quadrature.JetChainIntegral.__init__")))
        if "verify" in loaded:
            ref = self._lookup(loaded["verify"], "reference_integrate",
                               "verify.reference_integrate")
            self._replace_function(ref, self._reference(ref), pkg)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _integrand_init(self, init):
        """Span the integrand under the layer that defined it."""
        def wrapper(jci, f_jet_at, anchor, *args, **kwargs):
            layer = getattr(f_jet_at, "__module__", "") or ""
            layer = layer.rsplit(".", 1)[-1] or "unknown"
            f = self.counted("quadrature.integrand_calls", f_jet_at)
            init(jci, self.spanned(f"{layer}.integrand", layer, f), anchor,
                 *args, **kwargs)
        return wrapper

    def _reference(self, fn):
        """Span reference_integrate and count its right-hand-side calls."""
        inner = self.spanned("verify.reference_integrate", "verify", fn)

        def wrapper(R_eval, *args, **kwargs):
            return inner(self.counted("verify.rk_rhs_calls", R_eval),
                         *args, **kwargs)
        return wrapper

    # -- results ------------------------------------------------------------------

    def _outer(self, names: tuple) -> float:
        """Inclusive seconds of spans in `names` not nested in another of them."""
        want = {self._index[n] for n in names if n in self._index}
        if not want:
            return 0.0
        name_of = {s[0]: s[2] for s in self.spans if s[2] in want}
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] in want and s[1] not in name_of)

    def _children_of(self, child: str, parent: str) -> int:
        if child not in self._index or parent not in self._index:
            return 0
        ci, pi = self._index[child], self._index[parent]
        parents = {s[0] for s in self.spans if s[2] == pi}
        return sum(1 for s in self.spans if s[2] == ci and s[1] in parents)

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (no overhead entry)."""
        c, t = self.calls, self.inclusive
        return {
            "expressions.value_calls": c["expressions.eval_expr"],
            "expressions.value_s": t["expressions.eval_expr"],
            "expressions.jet_calls": c["expressions.eval_expr_jet"],
            "expressions.jet_s": t["expressions.eval_expr_jet"],
            "jets.ops": self.jet_ops,
            "jets.self_s": self.jet_s,
            "problem.G_value_calls": c["problem.G_value"],
            "problem.G_jet_calls": c["problem.G_jet"],
            "problem.R_value_calls": c["problem.R_value"],
            "problem.self_s": self.self_s["problem"],
            "spectral.qsq_jet_calls": c["spectral.qsq_jet"],
            "spectral.s0_jets_calls": c["spectral.s0_jets"],
            "spectral.degeneracy_probes": (c["spectral.full_degeneracy_region"]
                                           + c["spectral.degeneracy"]),
            "spectral.self_s": self.self_s["spectral"],
            "vector.at_calls": c["vector.at"],
            "vector.base_points": c["vector._base_point"],
            "vector.wave_calls": c["vector.assemble_vector_wave"],
            "vector.self_s": self.self_s["vector"],
            "quadrature.integrand_calls": self.counts["quadrature.integrand_calls"],
            "quadrature.value_calls": c["quadrature.value"],
            "quadrature.panels": self.counts["quadrature.panels"],
            "quadrature.self_s": self.self_s["quadrature"],
            "verify.rk_rhs_calls": self.counts["verify.rk_rhs_calls"],
            "verify.reference_s": t["verify.reference_integrate"],
            "verify.crossing_gap_evals": self._children_of(
                "problem.G_value", "verify.crossing_diagnostics"),
            "verify.crossings_s": t["verify.crossing_diagnostics"],
            "verify.residual_s": self._outer(("verify.residual",
                                              "verify.relative_residual")),
            "cli.import_s": self.extra.get("cli.import_s", 0.0),
            "cli.command_s": t["cli.main"],
        }

    def dump(self, path):
        """Write the span table (gzip JSON) for offline inspection."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "names": self.names, "spans": self.spans,
                       "jet_ops": self.jet_ops, "counts": dict(self.counts)}, fh)
