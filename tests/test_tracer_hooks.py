"""The benchmark tracer must find every library entry point it wraps.

`perfbench/tracer.py` wraps the library's public functions and methods by
name, and a traced benchmark run (`--trace 1`) stops with LookupError when
one of them is gone.  Installing the tracer here makes such a removal fail
the test suite as well.  Its per-layer metrics (`METRICS`) must also be
the ones `BENCHMARK.json` declares, and its counters must see the work
of a small wave.  Both files are only read, never changed.
"""

import importlib.util
import json
from pathlib import Path

import phaseintegral
import phaseintegral.cli  # noqa: F401  (the tracer wraps imported modules)
import phaseintegral.verify  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    original = phaseintegral.vector.assemble_vector_wave
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert phaseintegral.vector.assemble_vector_wave is not original
    finally:
        tracer.uninstall()
    assert phaseintegral.vector.assemble_vector_wave is original
    assert not hasattr(phaseintegral.jets.Jet.__add__, "__wrapped__")


def test_metrics_match_benchmark_declaration():
    # the traced run reports METRICS; BENCHMARK.json declares the same
    # per-layer metrics, in the same order and units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(
        _tracer_module().METRICS.items())


def test_counters_see_the_work(fex1):
    # quadrature.panels, the integrand count and vector.base_points come
    # from wrapping JetChainIntegral._panel and __init__ and
    # CorrectionEngine._base_point; a library that routed around them
    # would read low in a traced run instead of failing here
    from phaseintegral.spectral import BranchField
    from phaseintegral.vector import CorrectionEngine, assemble_vector_wave
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        engine = CorrectionEngine(
            fex1, BranchField(fex1, 1, "normalized", None, anchor=3.0),
            "fulling_current", 1, 3.0)
        assemble_vector_wave(engine, +1, [3.0, 3.25, 3.5], 3.0, 0.1)
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    for name in ("quadrature.panels", "quadrature.integrand_calls",
                 "quadrature.value_calls"):
        assert got[name] > 0, name
    assert got["vector.base_points"] == len(engine._points)
