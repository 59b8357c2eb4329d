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


def test_tolerance_of_another_experiment_exits_two(capsys):
    """recon is a check of vn-generator and claims, not of cat: its bound would
    guard nothing, so the run is refused with one line naming cat's checks."""
    assert main(["cat", "--tol-recon", "5", "--n", "100"]) == 2
    captured = capsys.readouterr()
    first, *rest = captured.err.splitlines()
    assert first.startswith("error: ") and "cat" in first and "support, mean, std" in first
    assert not any(line.startswith("error:") for line in rest)
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_config_file_tolerance_is_checked_per_experiment(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("tol-recon = 5\n")
    with pytest.raises(UsageError, match="cat; its checks are support, mean, std"):
        parse_config(["cat", "--config", str(f)])
    assert parse_config(["claims", "--config", str(f)]).tols == {"recon": 5.0}


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


@pytest.mark.parametrize("experiment, npoints, order, what", [
    # spread solves only the even parity half, of order N - N//2
    pytest.param("spread", 100_000, 50_000, "its even-sector eigenbasis", id="spread-100000"),
    pytest.param("ensemble-density", 100_000, 100_000, "its energy eigenbasis", id="ensemble-density-100000"),
])
def test_exit_two_on_eigenbasis_too_large_for_memory(experiment, npoints, order, what, tmp_path, capsys):
    """The grid model's bands fit; the eigenbasis the run solves, with its ?stevd
    workspace, does not, and is refused before the bands are built."""
    from traceqm import spectral

    if spectral.BAND_BASIS_BYTES_PER_ENTRY * order**2 <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        pytest.skip(f"this machine's physical memory holds the {order}x{order} eigenbasis of {npoints} points")
    code, out = run_cli([experiment, "--grid-n", str(npoints)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a grid of {npoints} points") and err.count("\n") == 1
    assert what in err and "physical memory" in err
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
    underflows to zero (1e-320) ends in one error line naming the overflowing
    coupling, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli([experiment, "--mass", mass], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the stencil coupling hbar^2/(2 m h^2) overflows at spacing ")
    assert err.endswith(f", mass {float(mass)!r} and hbar 1.0\n") and err.count("\n") == 1
    assert not out.exists()


def test_exit_one_on_a_length_whose_stencil_coupling_overflows(tmp_path, capsys):
    """A spacing of about 1e-163 overflows k = hbar^2/(2 m h^2): one error line
    naming the coupling, not a hermiticity deviation of nan against inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["spread", "--length", "1e-160", "--times", "0,1"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == ("error: the stencil coupling hbar^2/(2 m h^2) overflows at spacing "
                                       "1.9493177387914228e-163, mass 1.0 and hbar 1.0\n")
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


@pytest.mark.parametrize("flags, message", [
    # tau = 2 m sigma0^2 / hbar overflows, so the default times 0 * tau are NaN
    (["--length", "1e300"], "error: the spreading time"),
    (["--mass", "1e300", "--length", "1e10"], "error: the spreading time"),
    (["--hbar", "1e-300", "--length", "1e10"], "error: the spreading time"),
    # t / hbar is finite, but the largest level times it overflows
    (["--mass", "1e-300", "--times", "0,1e10"], "error: energy times time"),
    (["--mass", "1e-250", "--times", "0,1e100"], "error: energy times time"),
], ids=["length", "mass", "hbar", "phase-1e10", "phase-1e100"])
def test_spread_exit_one_on_overflowing_time_scale(flags, message, tmp_path, capsys):
    """An overflowing spreading time or phase ends in one error line, with no
    warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["spread", *flags], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_value_error_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    """A ValueError that escapes an experiment is one error line naming it, not a traceback."""
    from traceqm import cli

    def refused(cfg):
        raise ValueError("times must be strictly ascending")

    monkeypatch.setitem(cli.EXPERIMENTS, "spread", refused)
    code, out = run_cli(["spread"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err == "error: spread: times must be strictly ascending\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, ending", [
    # 0.5 m omega^2 overflows, where inf times the zero entries of q @ q would be NaN: refused where
    # the ladder is built, naming it
    pytest.param(["--omega", "1e200"], "the potential coefficient m omega^2/2 overflows (mass 1.0, omega 1e+200)",
                 id="--omega-1e200"),
    # m omega hbar/2 overflows, where inf times the zero entries of p would be NaN: refused where the
    # ladder is built, naming it
    pytest.param(["--mass", "1e300", "--hbar", "1e300"],
                 "the momentum scale m omega hbar/2 overflows (mass 1e+300, omega 1.0, hbar 1e+300)",
                 id="--mass-1e300-hbar-1e300"),
    pytest.param(["--hbar", "1e300", "--mass", "1e10"],
                 "the momentum scale m omega hbar/2 overflows (mass 10000000000.0, omega 1.0, hbar 1e+300)",
                 id="--hbar-1e300-mass-1e10"),
    # hbar/(2 m omega) overflows, and inf times the zero entries of q would be NaN
    pytest.param(["--hbar", "1e300", "--mass", "1e-10"],
                 "the position scale hbar/(2 m omega) overflows (mass 1e-10, omega 1.0, hbar 1e+300)",
                 id="--hbar-1e300-mass-1e-10"),
])
def test_poisson_exit_one_on_overflowing_matrix(flags, ending, tmp_path, capsys):
    """A ladder matrix that overflows ends in one error line, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["poisson", *flags], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(ending + "\n")
    assert not out.exists()


@pytest.mark.parametrize("hbar", ["1e300", "1e-300"])
def test_poisson_passes_at_extreme_hbar(hbar, tmp_path):
    """H and A are scaled into [0.5, 1) before the commutator's products, so
    H @ A neither overflows (hbar 1e300) nor underflows to a zero rhs while
    lhs is about 1e-151 (hbar 1e-300): the gap check passes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["poisson", "--hbar", hbar, "--format", "json"], tmp_path, "p.json")
    assert code == 0
    report = read_report_json(out)
    assert all(row["rhs"] != 0.0 for row in report["rows"])


def test_poisson_exit_one_on_underflowing_mass_times_omega(tmp_path, capsys):
    """2 m omega underflows to zero, so hbar/(2 m omega) is undefined: one error line,
    no warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["poisson", "--mass", "1e-300", "--omega", "1e-300"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 2 m omega underflows to zero") and err.count("\n") == 1
    assert not out.exists()


def test_exit_one_on_zero_grid_hamiltonian(tmp_path, capsys):
    """hbar^2 underflows, so the stencil coupling and the whole Hamiltonian are
    zero: refused with one error line instead of solved and passed vacuously."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["ensemble-density", "--hbar", "1e-200", "--n", "2000"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the stencil coupling") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["spread", "--grid-n", "16"], ["well-spectrum", "--grid-n", "400"]])
def test_exit_one_without_numpys_tridiagonal_lapack(argv, tmp_path, capsys, monkeypatch):
    """A numpy whose LAPACK exports no ?stevd or ?stebz is refused at the first band
    solve with one error line naming what is missing, and exit code 1."""
    from traceqm import spectral

    spectral._one_blas_thread()  # the thread hold made, and cached, with numpy's own library
    monkeypatch.setattr(spectral, "_symbol", lambda name: (None, None))
    monkeypatch.setattr(spectral, "_lapack", spectral._lapack.__wrapped__)  # bound afresh, not from the cache
    code, out = run_cli(argv, tmp_path)
    assert code == 1
    assert capsys.readouterr().err == ("error: numpy's LAPACK exports no LAPACKE_dstevd_work or "
                                       "LAPACKE_dstebz_work\n")
    assert not out.exists()


def test_nan_check_value_fails(tmp_path, capsys, monkeypatch):
    """A check whose value is NaN fails, and the run still writes its artifact."""
    from traceqm import cli

    def nan_check(cfg):
        return [{"t": 0.0, "width": float("nan")}], [Check("spread", float("nan"), 0.01)]

    monkeypatch.setitem(cli.EXPERIMENTS, "spread", nan_check)
    code, out = run_cli(["spread"], tmp_path)
    assert code == 1
    assert "FAIL spread: nan" in capsys.readouterr().out.splitlines()[0]
    assert out.exists()


def test_spread_exit_one_on_a_time_whose_phases_are_roundoff(tmp_path, capsys):
    """At t = 1e300 every phase E t / hbar is roundoff (eps max|E| t / hbar is
    about 1e290): one error line and no artifact, not a NaN width."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["spread", "--times", "0,1e300"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: energy times time 1e+300 over hbar 1.0 ") and err.count("\n") == 1
    assert err.endswith("not below 1\n")
    assert not out.exists()


def test_spread_holds_one_real_basis_and_its_halves_at_its_peak():
    """A grid run's traced peak is the even parity half's solve: ?stevd's
    eigenvectors and workspace, 16 bytes per entry of a basis of order
    N - N//2, up to 32 float64 vectors of O(N) working set.  No odd half, no
    merged N x N basis, no complex copy, and no dense q, since dispersion
    takes q's bands."""
    from traceqm.experiments import ExperimentConfig, run_spread

    npoints = 1600
    cfg = ExperimentConfig("spread", grid_n=npoints)
    # one run outside the trace binds numpy's LAPACK and fills the interpreter's
    # free lists, so the trace counts what a run holds
    run_spread(cfg)
    tracemalloc.start()
    try:
        run_spread(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    order = npoints - npoints // 2
    assert peak <= 16 * order**2 + 32 * 8 * npoints


@pytest.mark.parametrize("flag, value", [
    ("--length", "1e-160"), ("--length", "1e-300"), ("--hbar", "1e160"), ("--hbar", "1e300"),
])
def test_well_spectrum_exit_one_on_overflowing_level(flag, value, tmp_path, capsys):
    """An analytic level whose square overflows ends in one error line naming
    the level and the units, not in an OverflowError traceback."""
    code, out = run_cli(["well-spectrum", flag, value], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: analytic level 1 overflows (hbar ") and err.count("\n") == 1
    assert f"{float(value)!r}" in err
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


def test_spread_passes_at_a_length_whose_square_overflows(tmp_path):
    """At length 1e160, (x - c)^2 overflowed although the packet's exponent is
    at most about 400; the packet is formed at sigma0's power of two, and the
    run passes with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["spread", "--length", "1e160", "--times", "0,1"], tmp_path)
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


@pytest.mark.parametrize("args", [
    ("--hbar", "1e300", "--length", "1e300"),  # both overflow; hbar/L = 1 and k is about 2.0e6
    ("--mass", "1e-320", "--hbar", "1e-20"),  # both underflow; k is about 2e286
])
def test_well_spectrum_passes_where_hbar_squared_and_m_h_squared_leave_the_range(tmp_path, args):
    """hbar^2 and 2 m h^2 overflow or underflow together while the coupling k is
    finite and nonzero: the run passes, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["well-spectrum", *args], tmp_path)
    assert code == 0
    assert out.exists()


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


def check_value(report, name):
    return next(check["value"] for check in report["checks"] if check["name"] == name)


def test_poisson_gap_is_relative_to_the_routes(tmp_path):
    """At omega = 1e4 the p2 routes read about 1.2e8 and agree to roundoff:
    the check holds the gap relative to them, not in absolute terms."""
    code, out = run_cli(["poisson", "--omega", "1e4", "--format", "json"], tmp_path, "p.json")
    assert code == 0
    report = read_report_json(out)
    assert check_value(report, "gap") == max(
        row["gap"] / max(abs(row["lhs"]), abs(row["rhs"])) for row in report["rows"])


def test_spread_stationary_drift_is_relative_to_the_width(tmp_path):
    """The stationary check is the drift over the stationary width, so a length
    unit of 1e12 passes and the check value does not depend on the unit."""
    values = []
    for length in ("1e-12", "1", "1e12"):
        code, out = run_cli(["spread", "--length", length, "--format", "json"], tmp_path, f"s{length}.json")
        assert code == 0
        report = read_report_json(out)
        rows = [row for row in report["rows"] if row["series"] == "stationary"]
        assert check_value(report, "stationary") == max(row["err"] / row["reference"] for row in rows)
        values.append(check_value(report, "stationary"))
    assert max(values) - min(values) <= 1e-13


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
    """One model is built, and of its Hamiltonian only the even parity half is
    solved, once: both the packet and the ground state are even, so no odd half
    is solved and no merged basis is formed."""
    from traceqm import dynamics, experiments, spectral

    calls = {"build_grid_model": 0, "eigendecompose": 0, "_parity_merge": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(experiments, "build_grid_model")
    counting(dynamics, "eigendecompose")
    counting(spectral, "_parity_merge")
    solved = []
    stevd, stebz, integer = spectral._lapack()

    def recorded(layout, jobz, n, *rest):
        solved.append((n, jobz.decode()))
        return stevd(layout, jobz, n, *rest)

    monkeypatch.setattr(spectral, "_lapack", lambda: (recorded, stebz, integer))
    code, _ = run_cli(["spread", "--grid-n", "256", "--times", "0.0,0.0005"], tmp_path)
    assert code == 0
    assert calls == {"build_grid_model": 1, "eigendecompose": 0, "_parity_merge": 0}
    assert solved == [(128, "V")]


def test_well_spectrum_takes_the_band_path(tmp_path, monkeypatch):
    from traceqm import dynamics, experiments

    counts = []
    original = experiments.grid_levels
    monkeypatch.setattr(experiments, "grid_levels", lambda grid, count: counts.append(count) or original(grid, count))
    monkeypatch.setattr(dynamics, "certify_hermitian", None)  # no dense matrix is built
    code, _ = run_cli(["well-spectrum", "--grid-n", "400"], tmp_path)
    assert code == 0
    assert counts == [5, 5, 5]


def test_experiments_never_import_scipy(tmp_path):
    """No experiment loads scipy: the band solves and the levels call numpy's own LAPACK,
    on grids of any size."""
    script = f"""
import sys
from traceqm.cli import main
runs = [["cat", "--n", "200"], ["ensemble-density", "--n", "200", "--grid-n", "16"], ["claims"],
        ["poisson", "--d", "8"], ["vn-generator", "--n", "3"],
        ["spread", "--grid-n", "256", "--times", "0.0,0.0005"], ["well-spectrum"], ["spread", "--grid-n", "1600"]]
codes = [main(argv + ["--out", {str(tmp_path)!r} + "/" + argv[0] + ".csv"]) for argv in runs]
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(traceqm.__file__).resolve().parents[1]))
    env.pop("WORKBENCH_SEED", None)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0] []"


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
    """Each experiment emits exactly its declared checks, in order, each once."""
    from traceqm.experiments import DECLARATIONS

    small = {
        "cat": ["--n", "200"],
        "well-spectrum": ["--grid-n", "64"],
        "spread": ["--grid-n", "64"],
        "poisson": ["--d", "8"],
        "vn-generator": ["--n", "3"],
        "ensemble-density": ["--n", "200", "--grid-n", "16"],
        "claims": [],
    }
    assert list(small) == list(DECLARATIONS)
    for name, flags in small.items():
        declared = DECLARATIONS[name].checks
        _, checks = DECLARATIONS[name].run(parse_config([name] + flags))
        assert [check.name for check in checks] == list(declared), name
        assert len(set(declared)) == len(declared), name


def test_usage_names_every_flag():
    from traceqm.cli import FIELD_OF_KEY, USAGE
    from traceqm.experiments import DECLARATIONS

    for key in list(FIELD_OF_KEY) + ["config", "tol-NAME"]:
        assert f"--{key} " in USAGE
    lines = USAGE.splitlines()
    for name, experiment in DECLARATIONS.items():
        assert any(line.split() == [name, *experiment.summary.split()] for line in lines), name


def test_underscore_field_name_is_not_a_flag(tmp_path):
    with pytest.raises(UsageError, match="unknown flag --grid_n"):
        parse_config(["well-spectrum", "--grid_n", "100"])
    f = tmp_path / "run.cfg"
    f.write_text("grid_n = 100\n")
    with pytest.raises(UsageError, match="unknown key 'grid_n'"):
        parse_config(["well-spectrum", "--config", str(f)])
