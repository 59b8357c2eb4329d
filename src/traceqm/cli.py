"""Command-line workbench: seeded experiments with machine-readable artifacts.

Usage: ``traceqm EXPERIMENT [--flag value ...]``.  Flags override config-file
values (``--config FILE``, flat ``key = value`` lines with ``#`` comments),
which override the ``WORKBENCH_SEED`` environment fallback, which overrides
compiled defaults.  The same configuration and seed always produce byte
identical artifacts.

Exit codes: 0 all checks passed, 1 a check failed (or the run errored),
2 usage or validation problem, or an input too large for this machine
(a grid refused up front by arithmetic on its size, or a run that ran out
of memory anyway), 3 could not write output.  Every error is one
``error:`` line on stderr, without a traceback.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import MIN_LADDER_DIM
from .errors import InputError, UsageError, ValidationError, WorkbenchError
from .experiments import (
    EXPERIMENT_DEFAULTS,
    EXPERIMENTS,
    TOL_KEYS,
    ExperimentConfig,
)
from .states import MIN_GRID_POINTS

__all__ = [
    "parse_config",
    "run_experiment",
    "main",
    "read_rows_csv",
    "read_report_json",
]

USAGE = """usage: traceqm EXPERIMENT [--flag value ...]

experiments:
  cat               two-outcome superposition statistics
  well-spectrum     hard-wall level energies against the analytic law
  spread            free-packet width growth and stationary-state width
  poisson           classical bracket vs commutator expectations
  vn-generator      single generator of a commuting family
  ensemble-density  sampled position density against the state density
  claims            structural invariant sweep

common flags: --seed INT --out PATH --format csv|json --config FILE
model flags:  --n INT --grid-n INT --length X --mass X --omega X --hbar X
              --d INT --times T1,T2,... --a1 X --a2 X
tolerances:   --tol-NAME X (echoed into the checks output)
"""


def _parse_flags(tokens: list[str]) -> dict[str, str]:
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise UsageError(f"expected a --flag, got {token!r}")
        key = token[2:]
        if not _known_key(key):
            raise UsageError(f"unknown flag --{key}")
        if i + 1 >= len(tokens):
            raise UsageError(f"flag --{key} needs a value")
        flags[key] = tokens[i + 1]
        i += 2
    return flags


def _known_key(key: str) -> bool:
    if key == "config" or key in FIELD_OF_KEY:
        return True
    return key.startswith("tol-") and key[4:] in TOL_KEYS


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "config":
            raise UsageError(f"{path}:{lineno}: config files cannot nest")
        if not _known_key(key):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _to_int(key: str, raw, minimum: int | None = None) -> int:
    try:
        value = int(str(raw), 10)
    except ValueError as exc:
        raise ValidationError(f"{key} must be an integer, got {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise ValidationError(f"{key} must be at least {minimum}, got {value}")
    return value


def _to_float(key: str, raw, positive: bool = False) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} must be a number, got {raw!r}") from exc
    if not np.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValidationError(f"{key} must be positive, got {value!r}")
    return value


def _to_times(key: str, raw) -> tuple[float, ...]:
    parts = [piece for piece in str(raw).split(",") if piece.strip() != ""]
    if not parts:
        raise ValidationError(f"{key} must list at least one value")
    times = tuple(_to_float(key, piece) for piece in parts)
    if any(t < 0 for t in times):
        raise ValidationError(f"{key} must be non-negative")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValidationError(f"{key} must be strictly ascending")
    return times


def _to_format(key: str, raw) -> str:
    if raw not in ("csv", "json"):
        raise ValidationError(f"{key} must be csv or json, got {raw!r}")
    return raw


#: the parser of every settable :class:`ExperimentConfig` field, called as
#: ``parser(key, raw)``; its flag and config-file key is the field name
#: with "-" for "_".  Unset fields take the dataclass default, overridden
#: by ``EXPERIMENT_DEFAULTS``.
PARSERS = {
    "n": partial(_to_int, minimum=1),
    "seed": partial(_to_int, minimum=0),
    "grid_n": partial(_to_int, minimum=MIN_GRID_POINTS),
    "length": partial(_to_float, positive=True),
    "mass": partial(_to_float, positive=True),
    "omega": partial(_to_float, positive=True),
    "hbar": partial(_to_float, positive=True),
    "d": partial(_to_int, minimum=MIN_LADDER_DIM),
    "times": _to_times,
    "a1": _to_float,
    "a2": _to_float,
    "out": lambda key, raw: str(raw),
    "format": _to_format,
}

FIELD_OF_KEY = {name.replace("_", "-"): name for name in PARSERS}


def parse_config(args) -> ExperimentConfig:
    """Resolve an argument list (and the config file it names) into a config.

    Raises :class:`UsageError` for unknown experiments, flags, or keys, and
    :class:`ValidationError` for values that fail validation.
    """
    args = [str(a) for a in args]
    if not args:
        raise UsageError("missing experiment name")
    experiment = args[0]
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}")

    flags = _parse_flags(args[1:])
    config_path = flags.pop("config", None)
    file_values = _read_config_file(config_path) if config_path is not None else {}

    merged: dict[str, str] = {}
    if "WORKBENCH_SEED" in os.environ:
        merged["seed"] = os.environ["WORKBENCH_SEED"]
    merged.update(file_values)
    merged.update(flags)

    values: dict[str, object] = dict(EXPERIMENT_DEFAULTS[experiment])
    tols: dict[str, float] = {}
    for key, raw in merged.items():
        if key.startswith("tol-"):
            value = _to_float(key, raw)
            if value < 0:
                raise ValidationError(f"{key} must be non-negative, got {value!r}")
            tols[key[4:]] = value
        else:
            name = FIELD_OF_KEY[key]
            values[name] = PARSERS[name](key, raw)

    cfg = ExperimentConfig(experiment, **values, tols=tols)
    if experiment == "cat" and cfg.a1 == cfg.a2:
        raise ValidationError("a1 and a2 must be distinct outcomes")
    return cfg


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _parse_cell(text: str):
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def write_rows_csv(path, rows) -> None:
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("all rows must share one column set")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[key]) for key in header))
    Path(path).write_text("\n".join(lines) + "\n")


def read_rows_csv(path) -> list[dict]:
    """Inverse of :func:`write_rows_csv`: ``read(write(rows)) == rows``."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [
        {key: _parse_cell(cell) for key, cell in zip(header, line.split(","))}
        for line in lines[1:]
    ]


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("out", "tols")}
    if cfg.times is not None:
        echo["times"] = list(cfg.times)
    return echo


def _json_scalar(value):
    """``json.dumps`` hook: a numpy scalar as its Python value (``np.float64`` is a float already)."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_report_json(path, cfg: ExperimentConfig, rows, checks) -> None:
    report = {
        "config": _config_echo(cfg),
        "rows": rows,
        "checks": [{**asdict(c), "passed": c.passed} for c in checks],
    }
    Path(path).write_text(json.dumps(report, indent=2, default=_json_scalar) + "\n")


def read_report_json(path) -> dict:
    """Inverse of :func:`write_report_json` up to tuple/list coercion."""
    return json.loads(Path(path).read_text())


def _checks_csv_records(cfg: ExperimentConfig, checks) -> list[dict]:
    records = []
    for key, value in _config_echo(cfg).items():
        if key == "times":
            value = "" if value is None else ";".join(repr(t) for t in value)
        records.append({"record": "config", "name": key, "value": value,
                        "bound": "", "mode": "", "passed": ""})
    for check in checks:
        records.append({"record": "check", **asdict(check), "passed": int(check.passed)})
    return records


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one configured experiment, write artifacts, print check lines."""
    try:
        rows, checks = EXPERIMENTS[cfg.experiment](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {cfg.experiment} ran out of memory{detail}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    suffix = ".csv" if cfg.format == "csv" else ".json"
    out = Path(cfg.out) if cfg.out is not None else Path(cfg.experiment + suffix)
    try:
        if cfg.format == "json":
            write_report_json(out, cfg, rows, checks)
            written = [out]
        else:
            write_rows_csv(out, rows)
            checks_path = out.with_name(out.stem + ".checks.csv")
            write_rows_csv(checks_path, _checks_csv_records(cfg, checks))
            written = [out, checks_path]
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3

    for check in checks:
        relation = "<=" if check.mode == "max" else ">="
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.value:.6g} {relation} {check.bound:.6g}")
    for path in written:
        print(f"wrote {path}")
    return 0 if all(check.passed for check in checks) else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    try:
        cfg = parse_config(argv)
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
