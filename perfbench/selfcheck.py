"""Quick self-check of the benchmark, on tiny inputs; takes seconds.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at ``--scale tiny`` and checks
that each run exits 0, reports no failed operation, and prints exactly
the metric names and units that BENCHMARK.json lists, every end-to-end
value above 0. It also recomputes the tiny reference clique numbers and
checks that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    child = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
                      "--scale", "tiny")
    where = f"{workload} --trace {trace}"
    if child.returncode != 0:
        return [f"{where}: exit {child.returncode}: {child.stderr.strip()[-300:]}"]
    report = json.loads(child.stdout.strip().splitlines()[-1])
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(report)}")
    if report["correct"] is not True or report["failed"] != 0 or report["attempted"] < 1:
        problems.append(f"{where}: correct {report['correct']}, attempted {report['attempted']}, failed {report['failed']}")
    units = {name: metric["unit"] for name, metric in report["metrics"].items()}
    if units != expected:
        problems.append(f"{where}: metrics {units} != BENCHMARK.json {expected}")
    if trace == 0:
        zero = [name for name, metric in report["metrics"].items() if not metric["value"] > 0]
        if zero:
            problems.append(f"{where}: end-to-end metrics not above 0: {zero}")
    return problems


def check_bare_directory() -> list[str]:
    """Without ``src`` the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = run_bench(bare, "--workload", "dense-exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if child.returncode == 0 or child.stdout.strip():
        return [f"bare directory: exit {child.returncode}, stdout {child.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
    reference = subprocess.run([sys.executable, "perfbench/reference.py", "--scale", "tiny"], cwd=ROOT,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    if reference.returncode != 0:
        problems.append(f"reference.json: {reference.stderr.strip()[-300:]}")
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
