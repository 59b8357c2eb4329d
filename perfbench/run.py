"""traceqm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/traceqm``; the package
is imported from there, never from an installed copy.  The workload runs
in a child process of its own (``child.py``), after several set-up-only
children that time importing ``traceqm`` and resolving the configs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics of a traced run instead.  Lines before it give the
details: failures, artifact digests, per-step times and the environment.
The full record also goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: set-up-only children per run; their median, with the workload child's
#: own set-up, is ``setup_s``.
SETUP_PROBES = 12

#: a run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child(args: list[str], timeout: float) -> dict:
    """Run child.py with ``args``; return the JSON object it prints last.

    The child runs pinned to one core with one BLAS thread, so the
    calibration kernel it starts runs on the core whose speed it corrects
    for: the cores' speeds drift independently, and a BLAS call spread
    over cores waits for the slowest of them.
    """
    env = dict(os.environ)
    env.pop("WORKBENCH_SEED", None)  # the program reads it as a default seed
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    args = [*args, "--cpu", str(max(os.sched_getaffinity(0)))]
    command = [sys.executable, str(HERE / "child.py"), *args]
    done = subprocess.run(command, capture_output=True, text=True, timeout=timeout,
                          env=env, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"child exited {done.returncode}: {' '.join(args)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than ``2 * TAIL_BEYOND + 2`` samples no percentile above the
    median has that many beyond it, and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    rank = n - TAIL_BEYOND - 1  # TAIL_BEYOND samples lie above this index
    if rank < 0 or ordered[rank] <= median:
        return median, 50.0
    return ordered[rank], 100.0 * (rank + 1) / n


def environment(seed: int, blas_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = found.stdout.strip() or None
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": blas,
        "blas_threads": blas_threads,
        "git_commit": commit,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


def _metric_specs(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; return the full record, with ``result`` the printed line."""
    started = time.perf_counter()
    if not (ROOT / "src" / "traceqm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no traceqm sources under {ROOT / 'src'}")
    units = _metric_specs(trace)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--tmp", str(tmp)]
    if small:
        common.append("--small")

    setups = []  # (measured seconds, calibration scale)
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _child([*common, "--setup-only"], RUN_LIMIT_S)
            setups.append((probe["setup_s"], probe["setup_scale"]))
    label = f"{workload}-seed{seed}-trace{int(trace)}{'-small' if small else ''}"
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--metrics", ",".join(units), "--spans", str(OUT / f"spans-{label}.npz")]
    report = _child([*common, *extra], RUN_LIMIT_S - (time.perf_counter() - started))
    if not trace:
        setups.append((report["setup_s"], report["setup_scale"]))

    passes = report["passes"]
    reference = passes[0]["digests"]
    failed = sum(1 for p in passes if p["failures"])
    drifted = sum(1 for p in passes if p["digests"] != reference)
    measured = [p for p in passes if not p["warmup"] and not p["traced"]]
    wall = [p["wall_s"] * p["scale"] for p in measured]
    tail_s, tail_pct = tail(wall)
    steps = {name: statistics.median(p["step_s"][name] for p in measured)
             for name in measured[0]["step_s"]}

    if trace:
        metrics = report["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(seconds * scale for seconds, scale in setups),
            "pass_s": statistics.median(wall),
            "pass_s.tail": tail_s,
            "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in measured),
            "peak_rss_mb": report["peak_rss_mb"],
            "pass_ok_frac": 1.0 - failed / len(passes),
            "artifact_same_frac": 1.0 - drifted / len(passes),
        }
    result = {
        "correct": failed == 0 and drifted == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {
        "workload": workload,
        "label": label,
        "environment": environment(seed, report["blas_threads"]),
        "seconds": seconds,
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "fail_frac": failed / len(passes),
        "artifact_drift_frac": drifted / len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "digests": reference,
        "artifact_bytes": passes[0]["artifact_bytes"],
        "pass_s.tail": {"value": tail_s, "percentile": tail_pct, "samples": len(wall)},
        "setup_s.samples": setups,
        "setup_s.unscaled": [seconds for seconds, _ in setups],
        "pass_s.samples": wall,
        "pass_s.measured": [p["wall_s"] for p in measured],
        "cpu_s.measured": [p["cpu_s"] for p in measured],
        "scale.samples": [p["scale"] for p in measured],
        "step_s.median": steps,
        "step_share.median": {name: statistics.median(p["step_s"][name] / p["wall_s"] for p in measured)
                              for name in steps},
        "spans": report.get("spans"),
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one traceqm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-check")
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{record['label']}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {record['workload']}: {record['passes']} passes, "
          f"fail_frac {record['fail_frac']:.4g}, artifact_drift_frac {record['artifact_drift_frac']:.4g}")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    for name, digest in record["digests"].items():
        print(f"sha256 {name} {digest}")
    for name, seconds in record["step_s.median"].items():
        print(f"step {name}: {seconds:.4f} s, {record['step_share.median'][name]:.1%} of the pass")
    print(f"measured pass time median {statistics.median(record['pass_s.measured']):.4f} s, "
          f"calibration scale median {statistics.median(record['scale.samples']):.4f}")
    tail_info = record["pass_s.tail"]
    print(f"pass_s.tail is p{tail_info['percentile']:.0f} of {tail_info['samples']} passes")
    print(f"environment {json.dumps(record['environment'])}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
