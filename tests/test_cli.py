"""Workbench CLI: parsing, exit codes, artifact formats, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import traceqm
from traceqm import UsageError, ValidationError
from traceqm.cli import (
    main,
    parse_config,
    read_report_json,
    read_rows_csv,
    write_report_json,
    write_rows_csv,
)
from traceqm.experiments import Check


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


# ---------------------------------------------------------------- parsing


def test_defaults():
    cfg = parse_config(["cat"])
    assert cfg.experiment == "cat"
    assert cfg.seed == 42
    assert cfg.hbar == 1.0
    assert cfg.mass == 1.0
    assert cfg.format == "csv"


def test_flags_override_defaults():
    cfg = parse_config(["cat", "--n", "10000", "--seed", "7"])
    assert cfg.n == 10000
    assert cfg.seed == 7
    assert cfg.a1 == 1.0  # untouched default


def test_unknown_experiment_and_flag_are_usage_errors():
    with pytest.raises(UsageError):
        parse_config(["teleport"])
    with pytest.raises(UsageError):
        parse_config(["cat", "--banana", "3"])
    with pytest.raises(UsageError):
        parse_config([])
    with pytest.raises(UsageError):
        parse_config(["cat", "--n"])  # missing value


@pytest.mark.parametrize(
    "flags",
    [
        ["--hbar", "-1"],
        ["--mass", "0"],
        ["--n", "0"],
        ["--n", "2.5"],
        ["--grid-n", "4"],
        ["--format", "xml"],
        ["--times", "0.5,0.1"],
        ["--a1", "1", "--a2", "1"],
        ["--tol-mean", "-3"],
    ],
)
def test_invalid_values_are_validation_errors(flags):
    with pytest.raises(ValidationError):
        parse_config(["cat"] + flags)


def test_config_file_and_precedence(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment line\nn = 100\nseed = 5\n")
    cfg = parse_config(["cat", "--config", str(f)])
    assert cfg.n == 100
    assert cfg.seed == 5
    # a flag beats the file
    cfg = parse_config(["cat", "--config", str(f), "--n", "200"])
    assert cfg.n == 200
    assert cfg.seed == 5


def test_config_file_unknown_key(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("banana = 3\n")
    with pytest.raises(UsageError):
        parse_config(["cat", "--config", str(f)])


def test_env_seed_is_weakest(tmp_path, monkeypatch):
    monkeypatch.setenv("WORKBENCH_SEED", "99")
    assert parse_config(["cat"]).seed == 99
    f = tmp_path / "run.cfg"
    f.write_text("seed = 5\n")
    assert parse_config(["cat", "--config", str(f)]).seed == 5
    assert parse_config(["cat", "--seed", "7", "--config", str(f)]).seed == 7


def test_tolerance_flags_collected():
    cfg = parse_config(["claims", "--tol-weak", "1e-9"])
    assert cfg.tols == {"weak": 1e-9}


def test_times_parsing():
    cfg = parse_config(["spread", "--times", "0.0,0.001,0.01"])
    assert cfg.times == (0.0, 0.001, 0.01)


# ---------------------------------------------------------------- exit codes


def test_exit_zero_on_passing_run(tmp_path, capsys):
    code, out = run_cli(["cat", "--n", "500"], tmp_path)
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert f"wrote {out}" in text


def test_exit_one_on_failed_check(tmp_path, capsys):
    # an unmeetable tolerance forces a FAIL line, not an exception
    code, _ = run_cli(["cat", "--n", "500", "--tol-std", "0"], tmp_path)
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("mode, bound", [("max", np.inf), ("min", -np.inf)])
def test_check_with_infinite_bound_fails(mode, bound):
    """An overflowed bound guards nothing, so it never reads as a pass."""
    assert Check("c", 0.0, bound, mode).passed is False


def test_cat_huge_outcomes_pass_without_warnings(tmp_path):
    """Outcomes +-1e154 have a finite std and finite bounds; its squares overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(["cat", "--a1", "1e154", "--a2", "-1e154"], tmp_path)
    assert code == 0


@pytest.mark.parametrize("outcomes", [
    pytest.param(["--a1", "1e200"], id="dispersion-squares-overflow"),
    pytest.param(["--a1", "1e308", "--a2", "1e307", "--n", "1000"], id="mean-products-overflow"),
    pytest.param(["--a1", "1e-300", "--a2", "-1e-300"], id="squares-underflow"),
    pytest.param(["--a1", "1e-200", "--a2", "3e-200"], id="tiny-spectrum"),
    pytest.param(["--a1", "3e-310", "--a2", "1e-310"], id="subnormal-outcomes"),
    pytest.param(["--a1", "1e308", "--a2", "-1e308"], id="range-overflows"),
])
def test_cat_extreme_outcomes_have_finite_bounds(outcomes, tmp_path, capsys):
    """Every bound is relative to the outcomes' own scale, and norms and the
    ensemble statistics are computed at its power of two, so an intermediate
    overflow or underflow leaves every result and derived bound finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(["cat"] + outcomes, tmp_path)
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("PASS ")]
    assert lines and all(np.isfinite(float(line.split()[-1])) for line in lines)


def test_exit_two_on_usage_error(capsys):
    assert main(["teleport"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert main(["cat", "--hbar", "-1"]) == 2


@pytest.mark.parametrize("experiment, npoints", [
    # well-spectrum needs only the two O(N) bands of the Hamiltonian, so its
    # grid must be far larger than the dense builders' before it is refused
    pytest.param("well-spectrum", "1000000000000", id="well-spectrum"),
    pytest.param("spread", "1000000", id="spread"),
    pytest.param("ensemble-density", "1000000", id="ensemble-density"),
])
def test_exit_two_on_grid_too_large_for_memory(experiment, npoints, tmp_path, capsys):
    """An oversized grid is refused by arithmetic on N, before any matrix or band exists."""
    tracemalloc.start()
    try:
        code, out = run_cli([experiment, "--grid-n", npoints], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a grid of {npoints} points") and err.count("\n") == 1
    assert "physical memory" in err
    assert not out.exists()
    assert peak < 2**20


@pytest.mark.parametrize("experiment, npoints", [("spread", 30_000), ("ensemble-density", 100_000)])
def test_exit_two_on_eigenbasis_too_large_for_memory(experiment, npoints, tmp_path, capsys):
    """The grid model's bands fit; the energy eigenbasis the run needs does not,
    and is refused before the bands are built."""
    from traceqm import spectral

    if spectral._band_eigenbasis_bytes(npoints) <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        pytest.skip(f"this machine's physical memory holds the eigenbasis of {npoints} points")
    code, out = run_cli([experiment, "--grid-n", str(npoints)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a grid of {npoints} points") and err.count("\n") == 1
    assert "its energy eigenbasis" in err and "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.45 GiB for an array with shape (1000, 1000000) and data type float64",
     "error: spread ran out of memory: Unable to allocate 7.45 GiB for an array with shape "
     "(1000, 1000000) and data type float64\n"),
    ("", "error: spread ran out of memory\n"),
])
def test_memory_error_exits_two_with_one_line(message, line, tmp_path, capsys, monkeypatch):
    """An allocation that fails anyway is one error line naming the experiment, not a traceback."""
    from traceqm import experiments

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "build_grid_model", exhausted)
    code, out = run_cli(["spread"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("mass", ["1e-305", "1e-320"])
@pytest.mark.parametrize("experiment", ["well-spectrum", "spread", "ensemble-density"])
def test_exit_one_on_mass_too_small_for_the_stencil(experiment, mass, tmp_path, capsys):
    """A mass whose stencil coupling overflows (1e-305) or whose 2 m h^2
    underflows to zero (1e-320) ends in one error line, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli([experiment, "--mass", mass], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("(matrix has non-finite entries)\n")
    assert not out.exists()


@pytest.mark.parametrize("experiment, message", [
    # hbar^2 underflows: the analytic level is zero and its relative error undefined
    ("well-spectrum", "error: analytic level 1 underflows to zero"),
    # tau = 2 m sigma0^2 / hbar is finite, but t / hbar overflows
    ("spread", "error: time "),
])
def test_exit_one_on_hbar_too_small(experiment, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli([experiment, "--hbar", "1e-200"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_well_spectrum_passes_at_tiny_hbar(tmp_path):
    """The levels scale with hbar^2 however small it is, so every check passes."""
    code, out = run_cli(["well-spectrum", "--hbar", "1e-100"], tmp_path)
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("hbar", ["1e-5", "1e-60"])
def test_spread_passes_at_small_hbar(hbar, tmp_path):
    """The grid Hamiltonian's levels stay distinct at any hbar: the group width reads their own scale."""
    code, out = run_cli(["spread", "--hbar", hbar], tmp_path)
    assert code == 0
    assert out.exists()


def test_exit_one_on_stencil_coupling_underflow(tmp_path, capsys):
    """At length 1e200, 2 m h^2 overflows and k would be zero: one error line, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["ensemble-density", "--length", "1e200", "--n", "2000"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the stencil coupling") and err.count("\n") == 1
    assert not out.exists()


def test_json_report_writes_numpy_scalars_as_python_values(tmp_path):
    cfg = parse_config(["cat"])
    numpy_rows = [{"n": np.int64(3), "flag": np.bool_(True), "x": np.float32(0.1), "y": np.float64(0.2)}]
    plain_rows = [{"n": 3, "flag": True, "x": float(np.float32(0.1)), "y": 0.2}]
    write_report_json(tmp_path / "numpy.json", cfg, numpy_rows, [Check("c", np.float64(1.0), 2.0)])
    write_report_json(tmp_path / "plain.json", cfg, plain_rows, [Check("c", 1.0, 2.0)])
    assert (tmp_path / "numpy.json").read_text() == (tmp_path / "plain.json").read_text()
    with pytest.raises(TypeError):
        write_report_json(tmp_path / "object.json", cfg, [{"x": object()}], [])


def test_exit_three_on_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code = main(["cat", "--n", "10", "--out", str(target)])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "experiments:" in capsys.readouterr().out


# ---------------------------------------------------------------- artifacts


def test_same_seed_byte_identical(tmp_path):
    _, out1 = run_cli(["cat", "--n", "300", "--seed", "5"], tmp_path, "a.csv")
    _, out2 = run_cli(["cat", "--n", "300", "--seed", "5"], tmp_path, "b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    checks1 = (tmp_path / "a.checks.csv").read_text()
    checks2 = (tmp_path / "b.checks.csv").read_text()
    assert checks1 == checks2


def test_different_seed_changes_output(tmp_path):
    _, out1 = run_cli(["cat", "--n", "300", "--seed", "5"], tmp_path, "a.csv")
    _, out2 = run_cli(["cat", "--n", "300", "--seed", "6"], tmp_path, "b.csv")
    assert out1.read_bytes() != out2.read_bytes()


def test_csv_round_trip(tmp_path):
    rows = [
        {"k": 1, "x": 0.1 + 0.2, "label": 1.0, "ok": True},
        {"k": 2, "x": -3.75e-11, "label": 2.0, "ok": False},
    ]
    path = tmp_path / "t.csv"
    write_rows_csv(path, rows)
    back = read_rows_csv(path)
    assert back == [
        {"k": 1, "x": 0.1 + 0.2, "label": 1.0, "ok": 1},
        {"k": 2, "x": -3.75e-11, "label": 2.0, "ok": 0},
    ]


def test_json_report_structure(tmp_path):
    code, out = run_cli(
        ["cat", "--n", "200", "--format", "json"], tmp_path, "r.json"
    )
    assert code == 0
    report = read_report_json(out)
    assert set(report) == {"config", "rows", "checks"}
    assert report["config"]["experiment"] == "cat"
    assert report["config"]["n"] == 200
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "mode", "passed"}
        assert check["passed"] is True


def test_cat_single_sample_emits_one_row(tmp_path):
    code, out = run_cli(["cat", "--n", "1"], tmp_path)
    assert code == 0
    rows = read_rows_csv(out)
    outcome_rows = [r for r in rows if r.get("count", 0) > 0]
    assert len(outcome_rows) == 1
    assert rows == outcome_rows  # nothing but observed outcomes


def test_cat_rows_record_counts(tmp_path):
    code, out = run_cli(["cat", "--n", "400", "--seed", "3"], tmp_path)
    assert code == 0
    rows = read_rows_csv(out)
    assert sum(r["count"] for r in rows) == 400
    assert {r["outcome"] for r in rows} <= {1.0, -1.0}


# ---------------------------------------------------------------- experiments


def test_well_spectrum_rows(tmp_path):
    code, out = run_cli(
        ["well-spectrum", "--grid-n", "300", "--format", "json"],
        tmp_path,
        "w.json",
    )
    assert code == 0
    report = read_report_json(out)
    rows = report["rows"]
    assert len(rows) == 5
    for row in rows:
        assert set(row) == {"n", "numeric", "analytic", "rel_err"}
        assert row["rel_err"] <= 0.005
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]


def test_poisson_gap_tiny(tmp_path):
    code, out = run_cli(["poisson", "--format", "json"], tmp_path, "p.json")
    assert code == 0
    report = read_report_json(out)
    for row in report["rows"]:
        assert row["gap"] <= 1e-9


def test_vn_generator_canned_block(tmp_path):
    code, out = run_cli(
        ["vn-generator", "--n", "20", "--format", "json"], tmp_path, "v.json"
    )
    assert code == 0
    report = read_report_json(out)
    names = {c["name"] for c in report["checks"]}
    assert {"canned", "tables", "recon"} <= names
    assert all(c["passed"] for c in report["checks"])


def test_claims_sweep_passes(tmp_path):
    code, out = run_cli(["claims", "--format", "json"], tmp_path, "c.json")
    assert code == 0
    report = read_report_json(out)
    names = {c["name"] for c in report["checks"]}
    assert {"weak", "av-residual", "dispersion-free", "trace-i"} <= names


def test_spread_respects_custom_times(tmp_path):
    code, out = run_cli(
        ["spread", "--grid-n", "256", "--times", "0.0,0.0005",
         "--format", "json"],
        tmp_path,
        "s.json",
    )
    assert code == 0
    report = read_report_json(out)
    free_rows = [r for r in report["rows"] if r["series"] == "free"]
    assert [r["t"] for r in free_rows] == [0.0, 0.0005]


def test_spread_builds_and_diagonalizes_one_model(tmp_path, monkeypatch):
    from traceqm import dynamics, experiments

    calls = {"build_grid_model": 0, "eigendecompose": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(experiments, "build_grid_model")
    counting(dynamics, "eigendecompose")
    code, _ = run_cli(["spread", "--grid-n", "256", "--times", "0.0,0.0005"], tmp_path)
    assert code == 0
    assert calls == {"build_grid_model": 1, "eigendecompose": 1}


def test_well_spectrum_takes_the_band_path(tmp_path, monkeypatch):
    from traceqm import dynamics, experiments

    counts = []
    original = experiments.grid_levels
    monkeypatch.setattr(experiments, "grid_levels", lambda grid, count: counts.append(count) or original(grid, count))
    monkeypatch.setattr(dynamics, "certify_hermitian", None)  # no dense matrix is built
    code, _ = run_cli(["well-spectrum", "--grid-n", "400"], tmp_path)
    assert code == 0
    assert counts == [5, 5, 5]


def test_experiments_without_levels_never_import_scipy(tmp_path):
    """scipy is loaded by the band path alone; the other experiments must not pay for it."""
    script = f"""
import sys
from traceqm.cli import main
runs = [["cat", "--n", "200"], ["ensemble-density", "--n", "200", "--grid-n", "16"], ["claims"],
        ["poisson", "--d", "8"], ["vn-generator", "--n", "3"],
        ["spread", "--grid-n", "256", "--times", "0.0,0.0005"]]
codes = [main(argv + ["--out", {str(tmp_path)!r} + "/" + argv[0] + ".csv"]) for argv in runs]
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(traceqm.__file__).resolve().parents[1]))
    env.pop("WORKBENCH_SEED", None)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


def test_importing_the_package_does_not_load_numpy_random():
    """numpy.random is loaded on first use, so importing the workbench stays cheap."""
    script = "import sys, traceqm, traceqm.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(traceqm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_checks_csv_carries_config_echo(tmp_path):
    code, out = run_cli(["cat", "--n", "50", "--seed", "11"], tmp_path)
    assert code == 0
    records = read_rows_csv(tmp_path / "out.checks.csv")
    config_rows = {r["name"]: r["value"] for r in records if r["record"] == "config"}
    assert config_rows["seed"] == 11
    assert config_rows["n"] == 50
    check_rows = [r for r in records if r["record"] == "check"]
    assert check_rows and all(r["passed"] == 1 for r in check_rows)


# ---------------------------------------------------------------- negative seed


def _exits_two_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert [line for line in err_lines if line.startswith("error:")] == [
        "error: seed must be at least 0, got -1"
    ]


@pytest.mark.parametrize("experiment", ["cat", "claims", "ensemble-density", "vn-generator"])
def test_negative_seed_flag_exits_two(experiment, tmp_path, capsys):
    _exits_two_with_one_error_line([experiment, "--seed", "-1", "--out", str(tmp_path / "o.csv")], capsys)
    assert not (tmp_path / "o.csv").exists()


def test_negative_seed_in_config_file_exits_two(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("seed = -1\n")
    _exits_two_with_one_error_line(["cat", "--config", str(f), "--out", str(tmp_path / "o.csv")], capsys)


def test_negative_env_seed_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_SEED", "-1")
    _exits_two_with_one_error_line(["cat", "--out", str(tmp_path / "o.csv")], capsys)


# ---------------------------------------------------------------- one config schema


def test_parser_table_covers_every_settable_field():
    from dataclasses import fields

    from traceqm.cli import PARSERS
    from traceqm.experiments import ExperimentConfig

    settable = [f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "tols")]
    assert list(PARSERS) == settable


def test_json_config_echo_keys_and_order(tmp_path):
    code, out = run_cli(["cat", "--n", "20", "--format", "json"], tmp_path, "r.json")
    assert code == 0
    assert list(read_report_json(out)["config"]) == [
        "experiment", "n", "seed", "grid_n", "length", "mass", "omega", "hbar",
        "d", "times", "a1", "a2", "format",
    ]


def test_tol_keys_are_exactly_the_emitted_check_names():
    from traceqm.experiments import EXPERIMENTS, TOL_KEYS

    small = {
        "cat": ["--n", "200"],
        "well-spectrum": ["--grid-n", "64"],
        "spread": ["--grid-n", "64"],
        "poisson": ["--d", "8"],
        "vn-generator": ["--n", "3"],
        "ensemble-density": ["--n", "200", "--grid-n", "16"],
        "claims": [],
    }
    assert set(small) == set(EXPERIMENTS)
    emitted = set()
    for name, flags in small.items():
        _, checks = EXPERIMENTS[name](parse_config([name] + flags))
        emitted |= {check.name for check in checks}
    assert emitted == set(TOL_KEYS)
    assert len(TOL_KEYS) == len(set(TOL_KEYS))


def test_usage_names_every_flag():
    from traceqm.cli import FIELD_OF_KEY, USAGE

    for key in list(FIELD_OF_KEY) + ["config", "tol-NAME"]:
        assert f"--{key} " in USAGE


def test_underscore_field_name_is_not_a_flag(tmp_path):
    with pytest.raises(UsageError, match="unknown flag --grid_n"):
        parse_config(["well-spectrum", "--grid_n", "100"])
    f = tmp_path / "run.cfg"
    f.write_text("grid_n = 100\n")
    with pytest.raises(UsageError, match="unknown key 'grid_n'"):
        parse_config(["well-spectrum", "--config", str(f)])
