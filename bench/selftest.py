"""Self-test of the benchmark at minimal size.

    python3 bench/selftest.py

For every workload: one untraced and two traced runs with ``--minimal``.
Asserts that each run emits exactly the metrics BENCHMARK.json names, with
their units; that no check failed (failed_frac is 0); and that the two traced
runs give identical counts. Last, a copy holding only BENCHMARK.json and this
directory must exit non-zero without printing a result. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--minimal"],
        capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = bench_run(workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(got) != set(want):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} "
                        "emitted or declared but not both")
    problems += [f"{label}: {name} in {got[name]}, declared {unit}"
                 for name, unit in want.items() if name in got and got[name] != unit]
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_metrics(f"{workload} untraced", result_of(workload, 0),
                                  spec["end_to_end"])
        traced = [result_of(workload, 1) for _ in range(2)]
        for result in traced:
            problems += check_metrics(f"{workload} traced", result, spec["per_layer"])
        for name in layers.COUNTS:
            a, b = (r["metrics"][name]["value"] for r in traced)
            if a != b:
                problems.append(f"{workload}: traced count {name} {a} != {b}")
        print(f"{workload}: checked", flush=True)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="fldp-bare-", dir=build))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("demo", 0, bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("a checkout without the program did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
