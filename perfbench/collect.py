"""Run the benchmark over several seeds and summarize its spread.

    python3 perfbench/collect.py --seeds 1-10 [--out FILE]

For every workload of BENCHMARK.json, runs ``run.py`` once per seed with
tracing off, exactly as a single benchmark run is made, and reports each
end-to-end metric's median, quartiles and spread: the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
Every spread should stay below a third of the metric's bound.  It also
reports the unscaled medians of pass and CPU time and the calibration
scale, then makes one untraced run on the held-out seed and one traced run
on the first seed.  ``--out`` writes everything as JSON, which is how
``baseline/`` files are made.  Exits 0 when every spread is below a third
of its bound and every run is correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    label = f"{workload}-seed{seed}-trace{int(trace)}"
    record = json.loads((HERE / "out" / f"{label}.json").read_text())
    record["result"] = result
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarize benchmark runs over seeds.")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, trace=False) for seed in seeds]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "fail_frac": max(r["fail_frac"] for r in runs),
            "artifact_drift_frac": max(r["artifact_drift_frac"] for r in runs),
            "digests": runs[0]["digests"],
            "environment": runs[0]["environment"],
            "passes_per_run": [r["passes"] for r in runs],
            "step_share.median": {name: statistics.median(r["step_share.median"][name] for r in runs)
                                  for name in runs[0]["step_share.median"]},
            "end_to_end": {},
            # per-run medians before calibration scaling, in seconds
            "unscaled": {name: spread([statistics.median(r[key]) for r in runs])
                         for name, key in (("pass_s", "pass_s.measured"),
                                           ("cpu_s", "cpu_s.measured"),
                                           ("scale", "scale.samples"),
                                           ("setup_s", "setup_s.unscaled"))},
        }
        steady &= entry["correct"]
        print(f"{workload}: correct {entry['correct']}, {entry['attempted']} passes, "
              f"{entry['failed']} failed")
        for name, bound in bounds.items():
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name:18s} median {stats['median']:.5g}  spread {stats['spread']:.4f}"
                  f"  bound {bound}  {'ok' if ok else 'TOO WIDE'}")
        for name, stats in entry["unscaled"].items():
            print(f"  unscaled {name:9s} median {stats['median']:.5g}  spread {stats['spread']:.4f}")
        held = _run(workload, workloads.HELD_OUT_SEED, seconds, trace=False)
        entry["held_out"] = held["result"]
        steady &= held["result"]["correct"]
        traced = _run(workload, seeds[0], seconds, trace=True)
        entry["traced"] = {"correct": traced["result"]["correct"],
                           "digests_match": traced["digests"] == entry["digests"],
                           "spans": traced["spans"],
                           "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()}}
        steady &= traced["result"]["correct"] and entry["traced"]["digests_match"]
        layers = entry["traced"]["metrics"]
        print(f"  held-out seed {workloads.HELD_OUT_SEED}: correct {held['result']['correct']}, "
              f"pass_s {held['result']['metrics']['pass_s']['value']:.4g}")
        print(f"  traced: correct {traced['result']['correct']}, "
              f"digests match {entry['traced']['digests_match']}, "
              f"measurement.cover_frac {layers['measurement.cover_frac']:.3f}, "
              f"spectral_dynamics.cover_frac {layers['spectral_dynamics.cover_frac']:.3f}, "
              f"trace.overhead_frac {layers['trace.overhead_frac']:.3f}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
