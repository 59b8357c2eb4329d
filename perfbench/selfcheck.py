"""Self-check of the benchmark harness at reduced sizes (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload at the reduced sizes of ``workloads.py``, once
untraced and once traced, and asserts that

- BENCHMARK.json's workloads are the ones ``workloads.py`` defines;
- every metric BENCHMARK.json names appears in the matching run's result,
  with its unit and a finite value, and no other metric does;
- every pass succeeds and the traced and untraced passes give identical
  artifact digests.

It is not part of the test suite, so its timings cannot make tests flaky.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def check_spec(spec: dict) -> list[str]:
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from {list(workloads.WORKLOADS)}")
    return problems


def check_result(record: dict, expected: dict[str, str], label: str) -> list[str]:
    problems = []
    result = record["result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} passes failed: "
                        f"{record['failures']}, drift {record['artifact_drift_frac']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, not {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in workloads.WORKLOADS:
        records = {}
        for trace in (False, True):
            label = f"{workload} trace {int(trace)}"
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            records[trace] = run.run(workload, seed=1, seconds=1.0, trace=trace, small=True)
            problems += check_result(records[trace], expected, label)
        if records[False]["digests"] != records[True]["digests"]:
            problems.append(f"{workload}: traced artifact digests differ from untraced ones")
        print(f"{workload}: checked {records[False]['passes']} untraced and "
              f"{records[True]['passes']} traced passes")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
