"""sfcplace benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; sfcplace is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics, taken from one traced pass.  Lines before
it name every metric with its unit and better-direction, including the
workload-specific ones that are not in the JSON (failed_pct, export_s,
exact_s, oracle_gap_mean, ...).  The full record, with provenance,
digests and (when traced) the spans, goes to ``.bench_out/``.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9

# metrics printed for a workload but not in its JSON: name -> (unit, better)
EXTRAS = {
    "failed_pct": ("%", "lower"),
    "infeasible_pct": ("%", "lower"),
    "export_s": ("s", "lower"),
    "exact_s": ("s", "lower"),
    "oracle_gap_mean": ("count", "lower"),
    "oracle_miss_pct": ("%", "lower"),
}

HCA_STATS = ("scale_up_attempts", "phase2_invocations", "phase2_activations")


def import_checkout():
    """Import sfcplace from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sfcplace
    except ImportError as exc:
        sys.exit(f"error: cannot import sfcplace from {src}: {exc}")
    if Path(sfcplace.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: sfcplace was imported from {sfcplace.__file__}, "
                 f"not from {src}")


def provenance() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    net_lines = 0
    for path in files:
        text = path.read_text()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(text.encode() + b"\0")
        net_lines += sum(1 for line in text.splitlines()
                         if line.strip() and not line.lstrip().startswith("#"))
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(),
            "src_net_lines": net_lines, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout without .git is identified by src_sha256 alone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def measure_setup(args, probes: int) -> list[float]:
    """Times from spawning a fresh process to its inputs being ready: it
    imports sfcplace, builds the workload's inputs and prints the clock.
    The clock is read in the child because waiting with a timeout polls,
    which would round the time up by as much as 50 ms."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    walls = []
    for _ in range(probes):
        started = time.time()
        probe = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                               capture_output=True, text=True)
        walls.append(float(probe.stdout) - started)
    return walls


def layer_metrics(tracer) -> dict[str, float]:
    summary = tracer.summary()
    out = {"heuristic.run_hca.self_s":
           summary.get("heuristic.run_hca", {}).get("self_s", 0.0)}
    for key in HCA_STATS:
        out[f"heuristic.{key}"] = tracer.hca_stats[key]
    attempts = tracer.hca_stats["scale_up_attempts"]
    out["heuristic.scale_up_success_ratio"] = (
        tracer.hca_stats["scale_up_successes"] / attempts if attempts else 0.0)
    for name in summary:
        out[f"{name}.calls"] = summary[name]["calls"]
        out[f"{name}.s"] = summary[name]["s"]
    return out


def report_line(name, value, unit, better, where) -> str:
    return f"metric {name} {value!r} {unit} {better} {where}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-sweep", "compare-small",
                                 "model-oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (used by smoke.py)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_checkout()
    from workloads import WORKLOADS, Checks
    workload = WORKLOADS[args.workload](args.seed, args.tiny,
                                         bool(args.trace))
    if args.setup_probe:
        workload.setup()
        print(repr(time.time()))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    checks = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()       # set-up is traced too
        try:
            inputs = workload.setup()
        finally:
            tracer.uninstall()
        values, extras, digests = workload.trace(inputs, checks, tracer)
        values = layer_metrics(tracer) | values
        attribution = tracer.attribution("heuristic.run_hca")
        total = sum(attribution.values())
        for child, seconds in sorted(attribution.items()):
            extras[f"trace.run_hca_share.{child}"] = (
                seconds / total if total else 0.0)
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
        listed = bench["per_layer"]
    else:
        # half the set-up probes before the measurement and half after, so
        # that a slow spell of the machine moves only some of them
        probes = 2 if args.tiny else SETUP_PROBES
        setups = measure_setup(args, probes - probes // 2)
        inputs = workload.setup()
        values, extras, digests = workload.measure(inputs, checks,
                                                   args.seconds)
        setups += measure_setup(args, probes // 2)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        listed = bench["end_to_end"]

    # a per-layer metric of a layer this workload never calls stays 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in listed}
    extras["failed_pct"] = 100.0 * checks.failed / max(checks.attempted, 1)
    for m in listed:
        print(report_line(m["name"], metrics[m["name"]]["value"], m["unit"],
                          m["better"], "json"))
    for name, value in sorted(extras.items()):
        unit, better = EXTRAS.get(name, ("-", "info"))
        print(report_line(name, value, unit, better, "extra"))
    print("digests " + json.dumps(digests, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "metrics": metrics, "extras": extras,
              "digests": digests, "attempted": checks.attempted,
              "failed": checks.failed, "failures": checks.messages[:50]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
