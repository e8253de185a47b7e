#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py [--seconds 2]

For every workload in BENCHMARK.json, a short run of each kind:
  * untraced: prints exactly the end-to-end metrics, each with the unit
    BENCHMARK.json gives it and a finite value; the output check passes;
  * traced: the same for the per-layer metrics;
  * untraced with --corrupt-reply: the damaged reply is caught, so the
    run reports correct=false, counts a failure and exits non-zero.
Exits 1 when any check fails.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seconds, trace, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-reply")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, expected):
    problems = []
    if result is None or set(result) != RESULT_KEYS:
        return ["result line missing or with the wrong keys"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append(f"metric names differ: missing "
                        f"{sorted(names - set(metrics))}, extra "
                        f"{sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not finite")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    failures = 0

    def report(name, problems, output=""):
        nonlocal failures
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
            if output:
                print(output[-1500:])
        else:
            print(f"ok   {name}")

    for w in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = run(w, args.seconds, trace)
            problems = check_metrics(result, BENCHMARK[kind])
            if code != 0:
                problems.append(f"exit code {code}")
            if result is not None and result.get("correct") is not True:
                problems.append("output check failed")
            report(f"{w} trace={trace}", problems, out)

        code, result, out = run(w, args.seconds, 0, corrupt=True)
        problems = []
        if code == 0:
            problems.append("a corrupted reply still exited 0")
        if result is None or result.get("correct") is not False:
            problems.append("a corrupted reply still reported correct")
        elif result.get("failed", 0) < 1:
            problems.append("the corrupted reply was not counted")
        report(f"{w} corrupted reply caught", problems, out)

    print("selftest " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
