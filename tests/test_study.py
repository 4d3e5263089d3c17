"""Sweep orchestration, rate fitting, second-moment uniformity, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nnapprox import (
    ActivationParams,
    ConvergenceRecord,
    InputError,
    OperatorConfig,
    RateFit,
    SymmetrizedDensity,
    builtin_functions,
    convergence_sweep,
    fit_loglog_slope,
    make_function,
    records_to_csv,
    records_to_json,
    second_moment_uniformity,
    stability_suite,
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
