"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with ``--seconds 1`` (one
warm-up pass plus the shortest measurement) and checks that the result line
names exactly the metrics of ``BENCHMARK.json`` with their units and finite
values, and that every verdict passed.  Then copies only ``BENCHMARK.json``
and the benchmark's own files into a scratch directory and checks that the
benchmark refuses to run there: exit code other than 0 and no result line.
Exits non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def fail(message: str) -> None:
    sys.exit(f"selfcheck: {message}")


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
        check=False)


def check_result(workload: str, trace: int) -> None:
    label = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: verdicts did not all pass\n{proc.stdout}")
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not math.isfinite(value):
            fail(f"{label}: bad metric {name}: {metrics[name]}")
        if not trace and value <= 0:
            fail(f"{label}: end-to-end metric {name} is {value}")
    if not trace and metrics["verdict_pass_fraction"]["value"] != 1.0:
        fail(f"{label}: verdict_pass_fraction is not 1")
    print(f"ok {label}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"ran without sources: exit {proc.returncode}\n{proc.stdout}")
    print("ok refuses to run without sources")


if __name__ == "__main__":
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(workload["name"], trace)
    check_refuses_without_sources()
