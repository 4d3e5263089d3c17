"""CLI: parsing precedence, validation exits, subcommand outputs, determinism."""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_density import scipy_moment

from nnapprox import ActivationParams, SymmetrizedDensity
from nnapprox.cli import (SUBCOMMANDS, _FLAG_PARSER, RunConfig, _read_config_file, main,
                          parse_config, run_subcommand)
from nnapprox.errors import InputError, ParameterError

README = Path(__file__).resolve().parent.parent / "README.md"

# One non-default value per RunConfig field, as flag/config-file text and as
# the value it parses to.
NON_DEFAULT = {
    "q": ("3.5", 3.5),
    "theta": ("0.75", 0.75),
    "alpha": ("0.5", 0.5),
    "mode": ("literal", "literal"),
    "n": ("32", 32),
    "n_list": ("4,8,16", (4, 8, 16)),
    "eval_mode": ("raw", "raw"),
    "extension": ("zero", "zero"),
    "fn": ("abs_pow", "abs_pow"),
    "fn_params": ("0.25", (0.25,)),
    "half_width": ("2.0", 2.0),
    "grid_points": ("11", 11),
    "w_radius": ("3.0", 3.0),
    "t_list": ("0.5,0.25", (0.5, 0.25)),
    "out": ("result.json", "result.json"),
    "format": ("json", "json"),
    "timed_output": ("true", True),
}


def _flag(name):
    return "--a" if name == "half_width" else "--" + name.replace("_", "-")


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config([])
        assert cfg == RunConfig()

    def test_flags_parsed(self):
        cfg = parse_config(["--q", "2", "--theta", "1", "--alpha", "0.5", "--n", "64", "--fn", "sin"])
        assert cfg.alpha == 0.5
        assert cfg.n == 64
        assert cfg.fn == "sin"

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta=3.0\nn=128\n")
        cfg = parse_config(["--config", str(path), "--n", "256"])
        assert cfg.theta == 3.0   # from file
        assert cfg.n == 256       # flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("shape=round\n")
        with pytest.raises(Exception) as exc:
            parse_config(["--config", str(path)])
        assert "shape" in str(exc.value)

    def test_every_field_is_a_flag_and_a_config_key(self):
        assert set(NON_DEFAULT) == set(RunConfig.__dataclass_fields__)

    def test_readme_lists_exactly_the_parser_flags(self):
        readme = README.read_text(encoding="utf-8")
        listed = readme.split("Flags, one per `RunConfig` field:")[1].split(" FILE`")[0]
        defined = {s for a in _FLAG_PARSER._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", listed)) == defined

    def test_readme_table_lists_exactly_the_subcommands(self):
        table = README.read_text(encoding="utf-8").split("Subcommands and their outputs:")[1]
        table = table.split("\n\n")[1]
        assert re.findall(r"^\| `([a-z]+)`", table, re.MULTILINE) == list(SUBCOMMANDS)

    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_flag_and_config_key_give_same_config(self, name, tmp_path):
        text, value = NON_DEFAULT[name]
        argv = [_flag(name)] if name == "timed_output" else [_flag(name), text]
        path = tmp_path / "one.cfg"
        path.write_text(f"{name}={text}\n")
        by_flag = parse_config(argv)
        assert by_flag == parse_config(["--config", str(path)])
        assert getattr(by_flag, name) == value != getattr(RunConfig(), name)

    @pytest.mark.parametrize("name", ["mode", "eval_mode", "extension", "format"])
    def test_choices_enforced_for_flags_and_config_keys(self, name, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{name}=bogus\n")
        with pytest.raises(ParameterError, match=name):
            parse_config(["--config", str(path)])
        assert main(["moduli", "--config", str(path)]) == 2
        assert main(["moduli", _flag(name), "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_out_none_means_default_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("out=none\n")
        assert parse_config(["--out", "none"]).out is None
        assert parse_config(["--config", str(path)]).out is None
        # The other optional fields read none, and the bool reads false, alike.
        path.write_text("out=none\nfn_params=none\nt_list=none\ntimed_output=false\n")
        assert _read_config_file(str(path)) == {
            "out": None, "fn_params": None, "t_list": None, "timed_output": False}
        assert parse_config(["--config", str(path)]) == RunConfig()

    def test_consecutive_calls_do_not_leak_values(self):
        # The flag parser is shared between calls; a flag given once must not
        # become the default of the next call.
        assert parse_config(["--n", "5"]).n == 5
        assert parse_config([]).n == 64
        assert parse_config(["--timed-output"]).timed_output is True
        assert parse_config([]).timed_output is False
        assert parse_config([]) == RunConfig()

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nq=4.0\n")
        assert parse_config(["--config", str(path)]).q == 4.0


class TestValidationExits:
    def test_alpha_out_of_range_names_key(self, capsys):
        code = main(["converge", "--alpha", "1.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "(0, 1]" in err

    @pytest.mark.parametrize("flag,key,value", [("--scale", "scale", "2"),
                                                ("--truncation-eps", "truncation_eps", "1e-3")])
    def test_removed_options_rejected(self, flag, key, value, tmp_path, capsys):
        # scale only multiplied theta, and the CLI operator keeps the library's
        # tolerance; both are gone as flags and as config keys.
        path, out = tmp_path / "old.cfg", tmp_path / "a.csv"
        path.write_text(f"{key}={value}\n")
        assert main(["approx", flag, value, "--out", str(out)]) == 2
        assert main(["approx", "--config", str(path), "--out", str(out)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unit_base_rejected(self, capsys):
        assert main(["approx", "--q", "1"]) == 2
        assert "q" in capsys.readouterr().err

    def test_unknown_function_lists_names(self, capsys):
        assert main(["approx", "--fn", "mystery"]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err
        with pytest.raises(InputError, match="bogus"):
            run_subcommand("bogus", RunConfig())

    @pytest.mark.parametrize("config,flags,message", [
        ("timed_output=maybe\n", [], "bad value for 'timed_output'"),
        ("n 64\n", [], "expected key=value"),
        ("", ["--grid-points", "1"], "grid_points must be >= 2"),
        ("", ["--w-radius", "0"], "w_radius must be positive"),
    ], ids=["config-bool", "config-no-equals", "grid-points", "w-radius"])
    def test_bad_values_exit_2(self, config, flags, message, tmp_path, capsys):
        path, out = tmp_path / "bad.cfg", tmp_path / "d.csv"
        path.write_text(config)
        assert main(["density", "--config", str(path), *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["converge", "moduli"])
    def test_empty_n_list_rejected(self, subcommand, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([subcommand, "--n-list=", "--out", str(out)]) == 2
        assert "n_list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_list,message", [("", "t_list"), ("inf", "finite"),
                                                ("1,inf", "finite")])
    def test_empty_or_infinite_t_list_rejected(self, t_list, message, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["moduli", f"--t-list={t_list}", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["moduli", "--t-list", "1e-300"],
                                      ["converge", "--n-list", "8,1099511627776"],
                                      ["converge", "--n-list", "16777216,9007199254740992"]])
    def test_modulus_grid_above_budget_rejected(self, argv, tmp_path, capsys):
        # Both asked numpy for a grid of about 1e300 or 9e12 points.
        out = tmp_path / "m.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "2**26 grid points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["approx", "converge"])
    def test_rate_outside_double_range_rejected(self, subcommand, tmp_path, capsys):
        args = ["--q", "1.0000000001", "--theta", "5e-324"]
        assert main([subcommand, *args, "--out", str(tmp_path / "o.csv")]) == 2
        assert "rate" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["density", "converge"])
    def test_subnormal_alpha_reports_an_infinite_bound(self, subcommand, tmp_path, capsys):
        # s = (p + 1) / alpha overflows; the moments' error bounds read inf, not NaN.
        argv = [subcommand, "--q", "1000001", "--alpha", "5e-324", "--grid-points", "21",
                "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error bound inf" in err and "nan" not in err.lower()

    def test_converge_sums_moments_past_the_old_window_budget(self, tmp_path, capsys):
        # The alpha = 0.3 second-moment window has 9.4e6 terms, which the windowed
        # sums refused; the offsets behind second_moment_scaled are 0, 1/17, ...
        out = tmp_path / "c.csv"
        assert main(["converge", "--alpha", "0.3", "--grid-points", "21", "--n-list", "8,16,32",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:4]]
        d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.3))
        want = max(d.second_lattice_moment(float(u), 1e-10)
                   for u in np.linspace(0.0, 1.0, 17, endpoint=False))
        assert [float(row[4]) for row in rows] == [want] * 3

    @pytest.mark.parametrize("subcommand", ["converge", "stability"])
    def test_radius_past_the_domain_runs(self, subcommand, tmp_path, capsys):
        # The alpha = 0.1 partition radius exceeds 2**52; the operator windows
        # cover the whole domain well before that (approx: test_operator_oracle).
        out = tmp_path / "o.csv"
        assert main([subcommand, "--alpha", "0.1", "--grid-points", "21", "--n-list", "8,16,32",
                     "--out", str(out)]) == 0
        assert "nan" not in out.read_text() + capsys.readouterr().out

    @pytest.mark.parametrize("subcommand", ["approx", "converge", "stability", "density"])
    def test_huge_rate_runs_without_nan(self, subcommand, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([subcommand, "--q", "1e300", "--theta", "1e300", "--grid-points", "41",
                     "--out", str(out)]) == 0
        assert "nan" not in out.read_text() + capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main([]) == 0
        assert "density" in capsys.readouterr().out

    def test_io_failure_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["moduli", "--out", str(missing)]) == 4

    def test_numerical_failure_exit_code(self, tmp_path):
        # Renormalized application is rejected for the literal kernel.
        out = tmp_path / "a.csv"
        assert main(["approx", "--mode", "literal", "--out", str(out)]) == 3

    def test_literal_renormalized_two_point_grid_without_extension_succeeds(self, tmp_path):
        # Under "none" the renormalizing sum depends on the grid; at the two
        # domain ends each window holds one side of the odd kernel.
        out = tmp_path / "a.csv"
        assert main(["approx", "--mode", "literal", "--extension", "none", "--grid-points", "2",
                     "--out", str(out)]) == 0


class TestSubcommands:
    def test_density_csv_has_sample_and_moment_tables(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["density", "--grid-points", "41", "--out", str(out)]) == 0
        text = out.read_text()
        blocks = text.strip().split("\n\n")
        assert blocks[0].splitlines()[0] == "x,w"
        assert blocks[1].splitlines()[0] == "order,value,error_estimate"
        moment0 = float(blocks[1].splitlines()[1].split(",")[1])
        assert moment0 == pytest.approx(1.0, abs=1e-6)

    def test_density_literal_prints_warning(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["density", "--mode", "literal", "--grid-points", "21",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "warning" in captured
        moment0 = float(out.read_text().strip().split("\n\n")[1].splitlines()[1].split(",")[1])
        assert abs(moment0) < 1e-6

    @pytest.mark.parametrize("flags", [["--alpha", "0.3"],
                                       ["--mode", "literal", "--q", "1.5", "--theta", "0.5",
                                        "--alpha", "0.3"]])
    def test_density_moments_match_closed_form(self, flags, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["density", *flags, "--grid-points", "11", "--out", str(out)]) == 0
        cfg = parse_config(flags)
        p = ActivationParams(cfg.q, cfg.theta, cfg.alpha, cfg.mode)
        rows = [line.split(",") for line in out.read_text().strip().split("\n\n")[1].splitlines()]
        assert rows[0] == ["order", "value", "error_estimate"]
        for order, (k, value, error) in enumerate(rows[1:]):
            want = scipy_moment(p, order)
            assert int(k) == order
            assert 0.0 <= float(error) <= 1e-8
            assert abs(float(value) - want) <= float(error) + 1e-14 * abs(want)

    def test_approx_rows(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["approx", "--fn", "runge", "--n", "32", "--grid-points", "11",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,target,operator,abs_error"
        assert len(lines) == 12

    def test_moduli_row_count_matches_t_sweep(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["moduli", "--fn", "abs_pow", "--t-list", "0.5,0.25,0.125",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,modulus,second_modulus"
        assert len(lines) == 4

    def test_converge_row_count_and_footer(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["converge", "--fn", "sin", "--grid-points", "81",
                     "--n-list", "8,16,32,64", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 1
        footer = json.loads(lines[-1].lstrip("# "))
        assert footer["slope"] == pytest.approx(-2.0, abs=0.5)
        assert "slope" in capsys.readouterr().out

    def test_converge_json_format(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["converge", "--fn", "sin", "--grid-points", "41",
                     "--n-list", "8,16,32", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 3
        assert payload["rate_fit"] is not None

    def test_stability_summary(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["stability", "--grid-points", "41", "--out", str(out)]) == 0
        assert "50/50 pass" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pair,gap,bound,pass"
        assert len(lines) == 51

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NNAPPROX_OUTPUT_DIR", str(tmp_path))
        assert main(["moduli", "--t-list", "0.5"]) == 0
        assert (tmp_path / "moduli.csv").exists()


class TestDeterminism:
    def test_repeated_converge_runs_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["converge", "--fn", "sin", "--grid-points", "81", "--n-list", "8,16,32,64"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_subcommand_api(self, tmp_path, capsys):
        cfg = parse_config(["--grid-points", "41", "--t-list", "0.25",
                            "--out", str(tmp_path / "m.csv")])
        assert run_subcommand("moduli", cfg) == 0
        assert (tmp_path / "m.csv").exists()


# sha256 of whole output files at default flags unless given, so that no
# change to the numbers or their formatting goes unnoticed.
GOLDEN = {
    "stability-csv": (["stability"],
                      "9b5fe45aea0cd88dc658548cfaa34e646d625ede0354dee67e3abb6275c2e6a0"),
    "stability-json": (["stability", "--format", "json"],
                       "b8b8a0bd9dd401591571bf47cbd44d2b8ed0bdcc6012ffc37cdc2f2e7bb9ea52"),
    "stability-zero": (["stability", "--extension", "zero", "--n", "512", "--grid-points", "1001"],
                       "af1881bbe63b13cecc1ab5e3afbdf70468459b48834834674adfe57fc98754a1"),
    "stability-none-raw": (["stability", "--extension", "none", "--eval-mode", "raw"],
                           "d1785f1d0087b019c30780df37a566ec97bf387fb951f728ecd53c78132952b5"),
    "stability-literal-raw": (["stability", "--alpha", "0.5", "--mode", "literal",
                               "--eval-mode", "raw"],
                              "df39fee0ba1b137db054f09691f0d57457a72c2a239291f532662c0dea1222a2"),
    "approx": (["approx"], "0d123db2e6480e50be70dd2945fe5b14124265a29f17c86683de8c5963cbee2f"),
    "converge": (["converge"], "1040443446f66f52acd53410b78379a42165d0e2c40e719ce8f7483a6d65a2a8"),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_output_bytes_are_pinned(case, tmp_path, capsys):
    argv, digest = GOLDEN[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestOutputWrite:
    """The output file is written in place and cut to the new length."""

    ARGV = ["approx", "--grid-points", "21"]

    @pytest.fixture()
    def fresh(self, tmp_path, capsys):
        out = tmp_path / "fresh.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_longer_existing_file_is_cut_to_the_new_bytes(self, fresh, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"9" * (4 * len(fresh)))
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).digest() == hashlib.sha256(fresh).digest()

    def test_symlink_keeps_the_link_and_writes_its_target(self, fresh, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"9" * (4 * len(fresh)))
        link.symlink_to(target)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == fresh

    def test_hard_link_sees_the_new_content(self, fresh, tmp_path, capsys):
        out, other = tmp_path / "out.csv", tmp_path / "other.csv"
        out.write_bytes(b"9" * (4 * len(fresh)))
        os.link(out, other)
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert other.read_bytes() == fresh and os.path.samefile(out, other)

    def test_dev_null_accepts_the_output(self, capsys):
        assert main(self.ARGV + ["--out", os.devnull]) == 0

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_path_exits_4(self, where, tmp_path, capsys):
        path = tmp_path if where == "directory" else tmp_path / "no" / "out.csv"
        assert main(self.ARGV + ["--out", str(path)]) == 4
        assert "i/o error" in capsys.readouterr().err


_LOG10 = st.floats(-307.0, 308.0)
# Small sizes keep each call to a few milliseconds; the kernel parameters
# decide the radii and windows.
_DOMAIN_FLAGS = {
    "density": ["--grid-points", "21"],
    "approx": ["--grid-points", "21"],
    "moduli": ["--t-list", "0.5,0.25"],
    "converge": ["--grid-points", "21", "--n-list", "8,16,32"],
    "stability": ["--grid-points", "21"],
}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    subcommand=st.sampled_from(sorted(_DOMAIN_FLAGS)),
    q=st.one_of(_LOG10.map(lambda e: 1.0 + 10.0**e),
                st.floats(-307.0, 0.0, exclude_max=True).map(lambda e: 1.0 - 10.0**e)),
    log_theta=_LOG10,
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(["sigmoid", "literal"]),
    extension=st.sampled_from(["clamp", "zero", "none"]),
    eval_mode=st.sampled_from(["raw", "renormalized"]),
)
def test_whole_parameter_domain_exits_cleanly(tmp_path, capsys, subcommand, q, log_theta,
                                              alpha, mode, extension, eval_mode):
    """Every subcommand exits 0, 2 or 3 (never 1) and writes no NaN, for
    log-uniform |q - 1| on both sides of 1 and theta over the double range."""
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    argv = [subcommand, "--q", repr(q), "--theta", repr(10.0**log_theta), "--alpha", repr(alpha),
            "--mode", mode, "--extension", extension, "--eval-mode", eval_mode, "--out", str(out)]
    assert main(argv + _DOMAIN_FLAGS[subcommand]) in (0, 2, 3)
    assert not out.exists() or "nan" not in out.read_text().lower()


def _csv_tables(text):
    """CSV output as ([(header, rows)], footer text or None)."""
    lines = text.rstrip("\n").split("\n")
    footer = None
    if lines[-1].startswith("# "):
        footer = lines.pop()[2:]
    blocks = "\n".join(lines).split("\n\n")
    tables = []
    for block in blocks:
        header, *rows = block.split("\n")
        tables.append((header.split(","), [row.split(",") for row in rows]))
    return tables, footer


# case -> (argv, top-level JSON keys, or None for a bare list of rows)
AGREEMENT_CASES = {
    "density": (["density", "--grid-points", "21", "--w-radius", "3"],
                ["samples", "moments"]),
    "density-literal": (["density", "--mode", "literal", "--grid-points", "11"],
                        ["samples", "moments"]),
    "approx": (["approx", "--fn", "runge", "--n", "16", "--grid-points", "21"], None),
    "moduli": (["moduli", "--fn", "abs_pow", "--t-list", "0.5,0.25,0.125"], None),
    "converge": (["converge", "--grid-points", "41", "--n-list", "8,16,32"],
                 ["records", "rate_fit"]),
    "converge-no-fit": (["converge", "--fn", "poly", "--fn-params", "1,0,0",
                         "--n-list", "8,16"], ["records", "rate_fit"]),
    "stability": (["stability", "--grid-points", "21"], None),
}


class TestFormatAgreement:
    @pytest.mark.parametrize("case", list(AGREEMENT_CASES))
    def test_csv_and_json_carry_the_same_table(self, case, tmp_path, capsys):
        args, json_keys = AGREEMENT_CASES[case]
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
        tables, footer = _csv_tables(csv_path.read_text())
        payload = json.loads(json_path.read_text())
        assert (list(payload) if isinstance(payload, dict) else None) == json_keys
        if isinstance(payload, list):
            json_tables, rate_fit = [payload], None
        else:
            rate_fit = payload.pop("rate_fit", None)
            json_tables = list(payload.values())
        # No footer line at all where the JSON rate_fit is null.
        assert (footer and json.loads(footer)) == rate_fit
        if case == "converge-no-fit":
            assert footer is None and "rate_fit" in json_path.read_text()
        assert len(tables) == len(json_tables)
        for (header, rows), objects in zip(tables, json_tables):
            assert len(rows) == len(objects) > 0
            for row, obj in zip(rows, objects):
                assert header == list(obj)
                for cell, value in zip(row, obj.values()):
                    if isinstance(value, bool):
                        assert cell == ("true" if value else "false")
                    else:
                        assert cell == "%.17g" % value
