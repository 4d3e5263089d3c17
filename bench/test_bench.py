"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import oracle
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return harness.import_program(ROOT / "src")


def _pool(workload, tmp_path, seed=7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.build_pool(workload, seed, str(tmp_path))


def _set_up(workload, tmp_path, seed=7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return harness.SetUp(workload, seed, ROOT / "src", str(tmp_path))


def _traced(workload, tmp_path):
    metrics, warm, tally = harness.measure_traced(_set_up(workload, tmp_path), 0.0)
    assert not warm.failures and not tally.failures
    return metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_one_verified_round(workload, lib, tmp_path):
    pool = _pool(workload, tmp_path)
    tally = harness.Tally()
    harness.run_rounds(pool, lib, tally, 0, 1)
    assert tally.failures == []
    assert tally.attempted == len(pool)
    assert tally.verified + tally.refused == len(pool)
    assert tally.refused == sum(op.may_refuse for op in pool)


def test_end_to_end_names_and_units_match_benchmark_json(tmp_path):
    metrics, _, _ = harness.measure(_set_up("diagnostics", tmp_path), 0.0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(metrics) == set(spec)
    assert {name: harness.END_TO_END[name] for name in metrics} == spec
    assert all(value > 0 for value in metrics.values())


def test_per_layer_names_and_units_match_benchmark_json(tmp_path):
    metrics = _traced("diagnostics", tmp_path)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(metrics) == set(spec)
    assert {name: spans.unit_of(name) for name in metrics} == spec


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_traced_counts_repeat_exactly(tmp_path):
    exact = ("operator.points", "operator.terms", "density.tail_radius", "quadrature.evals")
    for workload in ("sweep-light", "diagnostics"):
        first = _traced(workload, tmp_path / "a")
        second = _traced(workload, tmp_path / "b")
        assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["operator.self_s"] == 0.0   # diagnostics bypasses the operator
    assert first["quadrature.evals"] > 0


def _shift_column(path: str, column: int, delta: float) -> None:
    lines = Path(path).read_text().split("\n")
    for i, line in enumerate(lines[1:], 1):
        if line and not line.startswith("#"):
            cells = line.split(",")
            cells[column] = repr(float(cells[column]) + delta)
            lines[i] = ",".join(cells)
    Path(path).write_text("\n".join(lines))


@pytest.mark.parametrize("workload,kind,column", [
    ("sweep-heavy", "approx", 2),      # operator values
    ("sweep-light", "converge", 1),    # sup errors
    ("stability", "stability", 1),     # operator gaps
])
def test_oracle_rejects_operator_output_shifted_by_1e_6(lib, tmp_path, workload, kind, column):
    op = next(op for op in _pool(workload, tmp_path) if op.kind == kind and not op.may_refuse)
    outcome = op.call(lib)
    assert op.check(outcome) > 0
    _shift_column(outcome.path, column, 1e-6)
    with pytest.raises(oracle.VerificationError):
        op.check(outcome)


def test_oracle_matches_closed_forms():
    kernel = oracle.Kernel(2.0, 1.0, 0.5)
    assert oracle.lattice_moment(kernel, 0.37, 0) == pytest.approx(1.0, abs=1e-13)
    # The alpha = 1 second moment is 1/3 + pi^2 / (3 ln(2)^2).
    unit = oracle.Kernel(2.0, 1.0, 1.0)
    want = 1.0 / 3.0 + np.pi**2 / (3.0 * np.log(2.0) ** 2)
    assert oracle.continuous_moment(unit, 2) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("q,theta,alpha", [(1.1, 0.5, 0.5), (2.0, 1.0, 0.3)])
def test_oracle_matches_library_on_the_refused_sets(lib, q, theta, alpha):
    # The library refuses these at the default 1e-10 but not at 1e-4; the
    # oracle must be ready for the day they succeed.
    d = lib.density.SymmetrizedDensity(lib.activation.ActivationParams(q, theta, alpha))
    got = lib.operator.approximate(lib.operator.OperatorConfig(32, 1e-4), d,
                                   lib.targets.make_function("runge"), 0.13)
    want = oracle.operator_values(oracle.Kernel(q, theta, alpha), 32,
                                  [oracle.target("runge", (), 1.0)], 1.0, [0.13])[0, 0]
    assert abs(got - want) <= workloads.OPERATOR_TOL


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload, tmp_path):
    def inputs(seed):
        return [op.inputs for op in _pool(workload, tmp_path, seed)]
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
