"""One workload in its own process: set up, run passes, report one JSON line.

Run by ``run.py``; not meant to be called directly.  The process imports
``traceqm`` from the checkout's ``src/``, resolves the workload's configs
(that is its set-up), runs one warm-up pass, then runs passes back to back
until ``--seconds`` have passed since the warm-up, with the calibration
kernel run in its own process before the first pass and after each one.
Each pass is checked: every experiment must exit 0, the replay must match,
and the artifact bytes must equal the warm-up pass's.  With ``--trace 1`` passes
alternate between traced and untraced, and the traced ones feed the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fewest measured passes of each kind, however short the run.
MIN_PASSES = 3

#: share of a pass's time the calibration after it takes, at least one
#: repeat: a longer pass gets a longer, less noisy calibration.
CALIBRATION_SHARE = 0.1


def _import_package():
    sys.path.insert(0, str(SRC))
    import traceqm
    import traceqm.cli

    if Path(traceqm.__file__).resolve().parent != SRC / "traceqm":
        raise ImportError(f"traceqm was imported from {traceqm.__file__}, not from {SRC}")
    return traceqm


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _replay(package, cfg, seed: int) -> str | None:
    """Replay the cat state's samples one by one; None when they match, else why not.

    Sample ``i`` is measured with ``sample_rng(seed, i)``, then its collapsed
    state is measured again with the same stream, which must give the same
    outcome; the tally must equal ``repeat_experiment``'s for ``seed``.
    """
    import numpy as np

    operators, spectral, states = package.operators, package.spectral, package.states
    measurement = package.measurement
    observable = operators.certify_hermitian(np.diag([cfg.a1, cfg.a2]).astype(np.complex128))
    dec = spectral.eigendecompose(observable)
    branches = [states.StateVector([1.0, 0.0]), states.StateVector([0.0, 1.0])]
    psi = states.normalize(states.superpose(branches, [1.0, 1.0]))
    counts: dict[float, int] = {}
    for i in range(cfg.n):
        first = measurement.measure_once(dec, psi, measurement.sample_rng(seed, i))
        again = measurement.measure_once(dec, first.collapsed, measurement.sample_rng(seed, i))
        if again.group_index != first.group_index:
            return f"sample {i}: collapsed state measured {again.eigenvalue}, not {first.eigenvalue}"
        counts[first.eigenvalue] = counts.get(first.eigenvalue, 0) + 1
    report = measurement.repeat_experiment(lambda: psi, observable, cfg.n, seed)
    if counts != report.counts:
        return f"replay counts {counts} differ from repeat_experiment counts {report.counts}"
    return None


def _run_pass(package, steps, cfgs, seed: int) -> tuple[dict[str, float], list[str]]:
    """Run every step once; return per-step seconds and failure messages."""
    step_s: dict[str, float] = {}
    failures: list[str] = []
    for step in steps:
        started = time.perf_counter()
        try:
            if step.argv:
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = package.cli.run_experiment(cfgs[step.name])
                if code != 0:
                    failed = [line for line in printed.getvalue().splitlines() if line.startswith("FAIL")]
                    failures.append(f"{step.name} exited {code}: {'; '.join(failed)}")
            else:
                why = _replay(package, cfgs["cat"], seed)
                if why is not None:
                    failures.append(f"replay: {why}")
        except Exception as exc:  # a failed step is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{step.name} raised {exc!r}")
        step_s[step.name] = time.perf_counter() - started
    return step_s, failures


def _clear(out_dir: Path, steps) -> None:
    for step in steps:
        if step.argv:
            directory = out_dir / step.name
            directory.mkdir(parents=True, exist_ok=True)
            for path in directory.iterdir():
                path.unlink()


def _digests(out_dir: Path, steps) -> tuple[dict[str, str], int]:
    """sha256 over each CLI step's artifact files (names and bytes), and total bytes."""
    digests, total = {}, 0
    for step in steps:
        if step.argv:
            digest = hashlib.sha256()
            for path in sorted((out_dir / step.name).iterdir()):
                data = path.read_bytes()
                digest.update(path.name.encode() + b"\0" + data)
                total += len(data)
            digests[step.name] = digest.hexdigest()
    return digests, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--metrics", default="", help="comma-separated per-layer metric names")
    parser.add_argument("--spans", default=None, help="where to write the traced spans (.npz)")
    parser.add_argument("--tmp", required=True, help="directory for the temporary artifacts")
    parser.add_argument("--cpu", type=int, required=True, help="the core to run pinned to")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    # The set-up kernel runs before anything of the program is imported,
    # and right before the set-up it scales.
    sys.path.insert(0, str(HERE))
    from calibrate import Kernel, calibrate, reference_s
    import workloads

    setup_kernel_s = calibrate(workloads.SETUP_CALIBRATION)
    started = time.perf_counter()
    package = _import_package()
    import spans as spans_module

    tracer = spans_module.Tracer(package) if args.trace else None
    if tracer is not None:
        tracer.install()
    with contextlib.ExitStack() as stack:
        out_dir = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=args.tmp)))
        steps = workloads.plan(args.workload, args.seed, out_dir, small=args.small)
        cfgs = {step.name: package.cli.parse_config(list(step.argv)) for step in steps if step.argv}
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        setup_scale = reference_s(workloads.SETUP_CALIBRATION) / setup_kernel_s
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
            return 0

        passes = []  # dicts: warmup, traced, wall_s, cpu_s, scale, step_s, failures, digests
        deadline = None
        index = 0
        parts = workloads.CALIBRATION[args.workload]
        kernel = stack.enter_context(Kernel())
        cal_before = kernel.time(parts)
        repeats = 1
        while True:
            warmup = index == 0
            traced = tracer is not None and index % 2 == 1
            _clear(out_dir, steps)
            if traced:
                tracer.current_pass = index
                tracer.install()
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            step_s, failures = _run_pass(package, steps, cfgs, args.seed)
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
            if traced:
                tracer.uninstall()
            digests, artifact_bytes = _digests(out_dir, steps)
            cal_after = kernel.time(parts, repeats)
            scale = reference_s(parts) / ((cal_before + cal_after) / 2.0)
            cal_before = cal_after
            repeats = max(1, round(CALIBRATION_SHARE * wall / cal_after))
            passes.append({"warmup": warmup, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                           "scale": scale, "step_s": step_s, "failures": failures,
                           "digests": digests, "artifact_bytes": artifact_bytes})
            index += 1
            if warmup:
                deadline = time.perf_counter() + args.seconds
                continue
            measured = passes[1:]
            kinds = (True, False) if tracer is not None else (False,)
            enough = all(sum(p["traced"] == kind for p in measured) >= MIN_PASSES for kind in kinds)
            if enough and time.perf_counter() + wall > deadline:
                break

    report = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "passes": passes,
    }
    if tracer is not None:
        import statistics

        traced_passes = [p for p in passes if p["traced"]]
        untraced = [p["wall_s"] * p["scale"] for p in passes if not p["traced"] and not p["warmup"]]
        given = {
            "trace.overhead_frac": statistics.median(p["wall_s"] * p["scale"] for p in traced_passes)
            / statistics.median(untraced) - 1.0,
            "cli.write_artifacts.bytes": float(traced_passes[0]["artifact_bytes"]),
        }
        names = [name for name in args.metrics.split(",") if name]
        report["layers"] = spans_module.layer_metrics(
            tracer, names, len(traced_passes), sum(p["wall_s"] for p in traced_passes), given)
        report["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
