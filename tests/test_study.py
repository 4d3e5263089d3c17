"""Sweep orchestration, rate fitting, second-moment uniformity, serialization."""

import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import nnapprox.operator as operator_module
from nnapprox import (
    ActivationParams,
    ConvergenceRecord,
    FunctionSpec,
    InputError,
    NNApproxError,
    NumericalError,
    OperatorConfig,
    RateFit,
    SymmetrizedDensity,
    builtin_functions,
    convergence_sweep,
    fit_loglog_slope,
    make_function,
    modulus,
    records_to_csv,
    records_to_json,
    second_modulus,
    second_moment_uniformity,
    stability_suite,
    sup_error,
)
from nnapprox.cli import main
from nnapprox.study import CSV_COLUMNS, format_table


def synthetic_records(err_of_n, ns=(8, 16, 32, 64)):
    return [ConvergenceRecord(n, err_of_n(n), 0.1, 0.01, 7.0, 1.0) for n in ns]


class TestRateFit:
    def test_exact_quadratic_power_law(self):
        fit = fit_loglog_slope(synthetic_records(lambda n: 4.0 / n**2))
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_linear_power_law(self):
        fit = fit_loglog_slope(synthetic_records(lambda n: 0.37 / n))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_positive_errors_rejected(self):
        recs = synthetic_records(lambda n: 0.0, ns=(8, 16, 32)) + synthetic_records(
            lambda n: 1.0 / n, ns=(64, 128)
        )
        with pytest.raises(InputError):
            fit_loglog_slope(recs)

    def test_intercept_recovers_prefactor(self):
        fit = fit_loglog_slope(synthetic_records(lambda n: 4.0 / n**2))
        assert math.exp(fit.intercept) == pytest.approx(4.0, rel=1e-10)


class TestConvergenceSweep:
    def test_constant_target_errors_at_floor(self, default_density):
        f = make_function("const", (1.0,))
        recs = convergence_sweep(
            f, default_density, OperatorConfig(8), [8, 16, 32], np.linspace(-0.8, 0.8, 33)
        )
        assert all(r.sup_error <= 1e-10 for r in recs)

    def test_smooth_target_strictly_decreasing(self, default_density):
        f = make_function("sin")
        recs = convergence_sweep(
            f, default_density, OperatorConfig(8), [8, 16, 32, 64, 128, 256, 512],
            np.linspace(-0.8, 0.8, 161),
        )
        errs = [r.sup_error for r in recs]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_error_within_constant_of_second_modulus(self, default_density):
        f = make_function("sin")
        recs = convergence_sweep(
            f, default_density, OperatorConfig(8), [8, 16, 32, 64, 128, 256, 512],
            np.linspace(-0.8, 0.8, 161),
        )
        ratios = [r.sup_error / r.omega2_bound for r in recs]
        assert max(ratios) < 20.0

    def test_real_sweep_slope_near_quadratic(self, default_density):
        f = make_function("sin")
        recs = convergence_sweep(
            f, default_density, OperatorConfig(8), [8, 16, 32, 64, 128, 256, 512],
            np.linspace(-0.8, 0.8, 161),
        )
        fit = fit_loglog_slope(recs)
        assert fit.slope == pytest.approx(-2.0, abs=0.3)

    def test_moment_over_all_offsets_in_one_call(self, default_density, monkeypatch):
        shapes = []
        original = SymmetrizedDensity.second_lattice_moment

        def counted(self, u, eps):
            shapes.append(np.shape(u))
            return original(self, u, eps)

        monkeypatch.setattr(SymmetrizedDensity, "second_lattice_moment", counted)
        records = convergence_sweep(make_function("sin"), default_density, OperatorConfig(8),
                                    [8, 16], np.linspace(-0.5, 0.5, 11))
        assert shapes == [(17,)]
        assert records[0].second_moment_scaled == max(
            original(default_density, u, 1e-10) for u in np.linspace(0.0, 1.0, 17, endpoint=False))

    def test_bad_n_list_rejected(self, default_density):
        f = make_function("sin")
        grid = np.linspace(-0.8, 0.8, 9)
        with pytest.raises(InputError):
            convergence_sweep(f, default_density, OperatorConfig(8), [], grid)
        with pytest.raises(InputError):
            convergence_sweep(f, default_density, OperatorConfig(8), [16, 8], grid)
        with pytest.raises(InputError):
            convergence_sweep(f, default_density, OperatorConfig(8), [0, 8], grid)
        with pytest.raises(InputError):
            convergence_sweep(f, default_density, OperatorConfig(8), [True, 2], grid)


# (q, theta, alpha): light and heavy tails on both sides of q = 1.
JACKSON_KERNELS = [(2.0, 1.0, 1.0), (2.0, 1.0, 0.5), (2.0, 1.0, 0.3), (1.1, 0.5, 0.5),
                   (5.0, 3.0, 1.0), (0.5, 1.0, 0.7)]


@pytest.mark.parametrize("eval_mode", ["renormalized", "raw"])
@pytest.mark.parametrize("kernel", JACKSON_KERNELS,
                         ids=lambda k: "q={},theta={},alpha={}".format(*k))
def test_jackson_bound_holds_on_every_sweep_row(kernel, eval_mode):
    # |S_n f(x) - f(x)| <= omega(f, 1/n) (1 + sqrt(M2)) for the clamp extension
    # of every built-in target (README, "Jackson-type bound"); no slack.
    d = SymmetrizedDensity(ActivationParams(*kernel))
    cfg = OperatorConfig(8, eval_mode=eval_mode)
    grid = np.linspace(-0.8, 0.8, 201)
    for entry in builtin_functions():
        if entry.name == "const":
            continue
        f = make_function(entry.name)
        for r in convergence_sweep(f, d, cfg, [8, 16, 32, 64, 128, 256, 512], grid):
            bound = r.omega_bound * (1.0 + math.sqrt(r.second_moment_scaled))
            assert r.sup_error <= bound, (entry.name, r)


def _per_n_loop(f, d, cfg, ns, grid):
    """What a sweep returns, from one ``sup_error`` and one modulus pair per n in turn,
    or the type and message of the first error that loop raises."""
    try:
        m2 = float(np.max(d.second_lattice_moment(np.linspace(0.0, 1.0, 17, endpoint=False),
                                                  cfg.truncation_eps)))
        rows = []
        for n in ns:
            err = sup_error(dataclasses.replace(cfg, n=n), d, f, grid)
            t = 1.0 / n
            rows.append((n, err, modulus(f, t, t / 4.0).value,
                         second_modulus(f, t, t / 4.0).value, m2))
        return rows
    except NNApproxError as exc:
        return type(exc), str(exc)


def _sweep(f, d, cfg, ns, grid):
    """``convergence_sweep`` in the shape of ``_per_n_loop``."""
    try:
        return [(r.n, r.sup_error, r.omega_bound, r.omega2_bound, r.second_moment_scaled)
                for r in convergence_sweep(f, d, cfg, ns, grid)]
    except NNApproxError as exc:
        return type(exc), str(exc)


# (q, theta, alpha, mode, eval modes): alpha 1, 0.5 and 0.3, the heavy tail, q < 1,
# and the literal kernel, whose renormalized runs are refused.
SWEEP_KERNELS = {
    "alpha=1": (2.0, 1.0, 1.0, "sigmoid"),
    "alpha=0.5": (2.0, 1.0, 0.5, "sigmoid"),
    "alpha=0.3": (2.0, 1.0, 0.3, "sigmoid"),
    "heavy-tail": (1.1, 0.5, 0.5, "sigmoid"),
    "q<1": (0.5, 1.0, 0.7, "sigmoid"),
    "literal": (2.0, 1.0, 1.0, "literal"),
}


@pytest.mark.parametrize("eval_mode", ["raw", "renormalized"])
@pytest.mark.parametrize("extension", ["clamp", "zero", "none"])
@pytest.mark.parametrize("kernel", list(SWEEP_KERNELS))
def test_sweep_rows_equal_per_n_calls(kernel, extension, eval_mode):
    # n = 1, 3, 8 and 16 have windows capped by their lattices at alpha = 1, so
    # the ladder spans several width groups; 64 and 512 share one there.  The
    # grid is shuffled, two-dimensional and holds both domain ends.
    d = SymmetrizedDensity(ActivationParams(*SWEEP_KERNELS[kernel]))
    f = make_function("runge", half_width=1.3, extension=extension)
    grid = np.random.default_rng(7).permutation(np.linspace(-1.3, 1.3, 40)).reshape(5, 8)
    cfg = OperatorConfig(8, eval_mode=eval_mode)
    ns = [1, 3, 8, 16, 64, 512]
    want = _per_n_loop(f, d, cfg, ns, grid)
    assert _sweep(f, d, cfg, ns, grid) == want
    assert isinstance(want, list) or kernel == "literal"


def test_sweep_windows_wider_than_the_weight_matrix(monkeypatch):
    # With 64 weights per matrix, every window of n >= 64 spans several column blocks.
    monkeypatch.setattr(operator_module, "_CHUNK", 64)
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5))
    cfg, ns, grid = OperatorConfig(8), [8, 64, 512], np.linspace(-0.8, 0.8, 21)
    for name, params in (("sin", (1.7,)), ("abs_pow", (0.5,))):
        f = make_function(name, params)
        assert _sweep(f, d, cfg, ns, grid) == _per_n_loop(f, d, cfg, ns, grid)


def test_sweep_memory_does_not_grow_with_grid_size(default_density, monkeypatch):
    # With 2**10 weights per matrix and rows per block, sweeps over grids of 1001
    # and 10001 points must each peak within a few copies of the output plus a
    # fixed multiple of that budget: the pass walks the rows block by block.
    monkeypatch.setattr(operator_module, "_CHUNK", 1 << 10)
    f, ns = make_function("sin"), [8, 16, 32]
    for points in (1001, 10001):
        grid = np.linspace(-1.0, 1.0, points)
        tracemalloc.start()
        try:
            convergence_sweep(f, default_density, OperatorConfig(8), ns, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(ns) * grid.nbytes + 100 * 8 * (1 << 10), (points, peak)


@pytest.mark.parametrize("ns, points", [
    ([8, 16], 301),                   # fails at n = 8
    ([8, 2**40], 200),                # fails at n = 2**40, before its modulus grid
    ([8, 2**30, 2**40], 200),         # fails at n = 2**30, rows 200 to 399
])
def test_renormalization_failure_across_blocks(monkeypatch, ns, points):
    # 128 weights per matrix keep every window of these ladders (at most 111
    # wide) in one column block, and split the failing n's rows into blocks of
    # at most 128 rows: the smallest weight sum and the per-n order must not change.
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode="literal"))
    f = make_function("sin", extension="none")
    cfg, grid = OperatorConfig(8), np.linspace(-0.8, 0.8, points)
    want = _per_n_loop(f, d, cfg, ns, grid)
    assert want[0] is NumericalError and want[1].startswith("window weight sum")
    assert _sweep(f, d, cfg, ns, grid) == want
    monkeypatch.setattr(operator_module, "_CHUNK", 128)
    assert _sweep(f, d, cfg, ns, grid) == want


def test_sweep_calls_the_target_once_per_weight_matrix(default_density, monkeypatch):
    # Widths 17, 33, 65 and 111 for n = 8, 16, 32 and 64 .. 512: the last group's
    # 244 rows fill two matrices, so five matrices serve the seven n.  Each n adds
    # one modulus sample, and the grid itself is sampled once.
    matrices = []
    w_raw = default_density._w_raw
    monkeypatch.setattr(default_density, "_w_raw",
                        lambda *args: matrices.append(1) or w_raw(*args))
    calls = []
    sin = make_function("sin")
    f = FunctionSpec(sin.name, sin.parameters, sin.half_width, sin.extension,
                     lambda x: calls.append(x.size) or sin.fn(x))
    ns = [8, 16, 32, 64, 128, 256, 512]
    convergence_sweep(f, default_density, OperatorConfig(8), ns, np.linspace(-0.8, 0.8, 61))
    assert len(matrices) == 5
    assert len(calls) == len(matrices) + len(ns) + 1


@pytest.mark.parametrize("mode, eval_mode, ns", [
    ("sigmoid", "renormalized", [8, 2**40]),           # later modulus grid over budget
    ("sigmoid", "renormalized", [2**24, 2**53]),       # earlier grid over budget, later n*a > 2**52
    ("sigmoid", "renormalized", [8, 2**53]),           # later n*a > 2**52
    ("literal", "renormalized", [8, 2**40]),           # renormalization fails before the budget
    ("literal", "renormalized", [1, 2, 3, 2**53]),
    ("literal", "raw", [2**24, 2**53]),
])
def test_sweep_errors_come_in_per_n_order(mode, eval_mode, ns):
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode=mode))
    f = make_function("sin", extension="none")
    cfg, grid = OperatorConfig(8, eval_mode=eval_mode), np.linspace(-0.8, 0.8, 11)
    want = _per_n_loop(f, d, cfg, ns, grid)
    assert not isinstance(want, list)
    assert _sweep(f, d, cfg, ns, grid) == want


def test_timed_rows_are_positive_and_untimed_rows_zero(default_density, tmp_path, capsys):
    records = convergence_sweep(make_function("sin"), default_density, OperatorConfig(8),
                                [8, 16, 512], np.linspace(-0.8, 0.8, 31))
    assert all(0.0 < r.wall_time_ms < math.inf for r in records)
    for flags, timed in (([], False), (["--timed-output"], True)):
        out = tmp_path / "c.csv"
        assert main(["converge", "--grid-points", "31", "--out", str(out), *flags]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text().split("\n#")[0])))
        times = [float(row["wall_time_ms"]) for row in rows]
        assert len(times) == 7
        if timed:
            assert all(0.0 < t < math.inf for t in times)
        else:
            assert times == [0.0] * 7
    capsys.readouterr()


class TestSecondMomentUniformity:
    def test_scaled_moment_identical_across_densities(self, default_density):
        rows = second_moment_uniformity(default_density, [4, 16, 64, 256])
        vals = [v for _, v in rows]
        assert max(vals) - min(vals) < 1e-6
        assert all(math.isfinite(v) and v > 0.0 for v in vals)

    def test_each_n_takes_the_moment_at_n_x(self):
        # At alpha = 0.5 the moment varies with the offset, so the offsets n x for
        # n = 2 (0.2, 0.6) and n = 5 (0.5, 1.5) give different maxima.
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.5))
        rows = second_moment_uniformity(d, [2, 5], (0.1, 0.3))
        assert rows == [(n, max(d.second_lattice_moment(n * x, 1e-10) for x in (0.1, 0.3)))
                        for n in (2, 5)]
        assert rows[0][1] != rows[1][1]

    def test_empty_x_grid_rejected(self, default_density):
        with pytest.raises(InputError, match="x_grid"):
            second_moment_uniformity(default_density, [8], ())

    def test_steeper_decay_shrinks_moment(self):
        base = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode="sigmoid"))
        steep = SymmetrizedDensity(ActivationParams(2.0, 2.0, 1.0, mode="sigmoid"))
        v_base = second_moment_uniformity(base, [8])[0][1]
        v_steep = second_moment_uniformity(steep, [8])[0][1]
        assert v_steep < v_base


class TestStabilitySuite:
    def test_random_pairs_all_pass(self, default_density):
        pairs = [
            (make_function("pwlin", (float(2 * i),)), make_function("pwlin", (float(2 * i + 1),)))
            for i in range(8)
        ]
        res = stability_suite(default_density, OperatorConfig(32), pairs, np.linspace(-1, 1, 41))
        assert all(ok for _, _, ok in res)

    def test_identical_pair_zero_gap(self, default_density):
        f = make_function("sin")
        res = stability_suite(default_density, OperatorConfig(32), [(f, f)], [0.0, 0.5])
        assert res[0][0] == 0.0

    def test_empty_pairs_rejected(self, default_density):
        with pytest.raises(InputError):
            stability_suite(default_density, OperatorConfig(32), [], [0.0])


class TestSerialization:
    def test_csv_columns_and_footer(self):
        recs = synthetic_records(lambda n: 1.0 / n)
        fit = RateFit(-1.0, 0.0, 1.0)
        text = records_to_csv(recs, fit)
        lines = text.strip().split("\n")
        assert lines[0] == "n,sup_error,omega_bound,omega2_bound,second_moment_scaled,wall_time_ms"
        assert len(lines) == 1 + len(recs) + 1
        footer = json.loads(lines[-1].lstrip("# "))
        assert footer == {"slope": -1.0, "intercept": 0.0, "r_squared": 1.0}

    def test_columns_are_the_record_fields_and_the_cli_header(self, tmp_path, capsys):
        assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(ConvergenceRecord))
        out = tmp_path / "sweep.csv"
        assert main(["converge", "--n-list", "8,16,32", "--grid-points", "21",
                     "--out", str(out)]) == 0
        assert out.read_text().split("\n")[0] == ",".join(CSV_COLUMNS)

    def test_csv_round_trip_precision(self):
        recs = [ConvergenceRecord(8, 1.0 / 3.0, 0.1, 0.01, 7.180762818478418, 3.25)]
        line = records_to_csv(recs).strip().split("\n")[1]
        fields = line.split(",")
        assert float(fields[1]) == 1.0 / 3.0
        assert float(fields[4]) == 7.180762818478418

    def test_timings_zeroed_by_default(self):
        recs = [ConvergenceRecord(8, 0.5, 0.1, 0.01, 7.0, 123.456)]
        assert records_to_csv(recs).strip().split("\n")[1].endswith(",0")
        assert records_to_csv(recs, include_timings=True).strip().split("\n")[1].endswith(
            "123.456"
        )

    def test_json_field_names_match_csv_columns(self):
        recs = synthetic_records(lambda n: 1.0 / n)
        payload = json.loads(records_to_json(recs, RateFit(-1.0, 0.0, 1.0)))
        assert set(payload["records"][0]) == {
            "n",
            "sup_error",
            "omega_bound",
            "omega2_bound",
            "second_moment_scaled",
            "wall_time_ms",
        }
        assert set(payload["rate_fit"]) == {"slope", "intercept", "r_squared"}

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError, match="csv or json"):
            format_table("xml", {None: (("x",), [(1.0,)])})

    def test_identical_records_serialize_identically(self):
        recs_a = synthetic_records(lambda n: 1.0 / n)
        recs_b = synthetic_records(lambda n: 1.0 / n)
        assert records_to_csv(recs_a) == records_to_csv(recs_b)
        assert records_to_json(recs_a) == records_to_json(recs_b)
