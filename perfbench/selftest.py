#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Builds the benchmark binary as run.py does,
then:

  * runs every workload at a tiny size, untraced and traced, and checks that
    each prints exactly the metrics BENCHMARK.json names, with their units,
    and passes its own verification;
  * runs every workload with a tampered response (a wrong cost, then an
    illegal move) and checks that verification catches it: exit code 1,
    "correct": false, failed > 0; on the workloads that hold repeats to a
    request's first answer, also with later answers swapped for another
    valid schedule that claims to be optimal;
  * copies BENCHMARK.json and perfbench/ alone into a scratch directory and
    checks that run.py exits non-zero there without printing a result.

Exits 0 when every check passes.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def drive(binary, workload, trace, *extra):
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = drive(binary, workload, trace)
            what = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what}: runs and verifies")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  f"{what}: emits every named metric and no other")
            check(all(metrics[n]["unit"] == u
                      for n, u in expected[trace].items() if n in metrics),
                  f"{what}: units match BENCHMARK.json")
            check(all(isinstance(m["value"], (int, float))
                      and math.isfinite(m["value"]) for m in metrics.values()),
                  f"{what}: values are finite numbers")
        tampers = ["cost", "move"]
        if workload in ("serve-recurring", "exact-cold"):
            tampers.append("repeat")
        for tamper in tampers:
            code, result = drive(binary, workload, 0, "--tamper", tamper)
            check(code == 1 and result is not None and not result["correct"]
                  and result["failed"] > 0,
                  f"{workload}: tampered {tamper} is caught")

    standalone = run.BUILD / "selftest-standalone"
    shutil.rmtree(standalone, ignore_errors=True)
    standalone.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", standalone)
    shutil.copytree(run.HERE, standalone / run.HERE.name)
    done = subprocess.run(
        [sys.executable, str(standalone / run.HERE.name / "run.py"),
         "--workload", "exact-cold", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=standalone, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170, check=False)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the sources: non-zero exit and no result")
    shutil.rmtree(standalone, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
