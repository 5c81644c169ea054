"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs ``run.py --tiny`` untraced
once and traced twice, and asserts that every listed metric is printed
with its unit and better-direction and appears in the JSON line, that no
operation failed (failed_pct is 0), and that the traced run's counts
repeat exactly between the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
EXACT_UNITS = {"count", "bytes"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better, _ = line.split()
            printed[name] = (float(value), unit, better)
    return json.loads(lines[-1]), printed


def check(workload: str, trace: int, listed: list[dict]) -> dict:
    result, printed = run(workload, trace)
    names = [m["name"] for m in listed]
    assert sorted(result["metrics"]) == sorted(names), (workload, trace)
    for m in listed:
        _, unit, better = printed[m["name"]]
        assert (unit, better) == (m["unit"], m["better"]), m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert result["correct"] and result["failed"] == 0, workload
    assert result["attempted"] >= 1, workload
    assert printed["failed_pct"][0] == 0.0, workload
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check(workload, 0, bench["end_to_end"])
        first = check(workload, 1, bench["per_layer"])
        second = check(workload, 1, bench["per_layer"])
        for m in bench["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                assert a == b, f"{workload}: {m['name']} {a} != {b}"
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
