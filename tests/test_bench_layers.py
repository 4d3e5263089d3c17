"""The benchmark's layer tracer still finds every name it wraps.

``bench/spans.py`` wraps library functions by name from outside the package,
so renaming or deleting one of them breaks ``bench/run.py --trace 1`` even
though nothing under ``tests/`` calls it.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nnapprox

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
LIB = SimpleNamespace(**{
    name: importlib.import_module(f"nnapprox.{name}")
    for name in ("activation", "cli", "density", "moduli", "operator", "quadrature",
                 "study", "targets")
})


@pytest.mark.parametrize(
    "owner,attr", [pair for pairs in spans.LAYERS.values() for pair in pairs],
    ids=lambda v: v,
)
def test_traced_name_resolves(owner, attr):
    assert attr in vars(spans.Tracer(LIB)._owner(owner))


def test_tracer_installs_and_restores():
    original = nnapprox.SymmetrizedDensity.partition_sum
    tracer = spans.Tracer(LIB)
    try:
        tracer.install()
        assert nnapprox.SymmetrizedDensity.partition_sum is not original
    finally:
        tracer.uninstall()
    assert nnapprox.SymmetrizedDensity.partition_sum is original


def test_tracer_counts_quadrature_evals_through_lp_norm():
    received = []

    def recording(x):
        received.append(np.size(x))
        return np.sin(3.0 * x)

    f = nnapprox.FunctionSpec("probe", (), 1.0, "clamp", recording)
    untraced = nnapprox.lp_norm(f, 2.0)
    received.clear()
    tracer = spans.Tracer(LIB)
    try:
        tracer.install()
        assert nnapprox.lp_norm(f, 2.0) == untraced
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["quadrature.calls"] == 1
    assert metrics["quadrature.evals"] == sum(received) > 0
