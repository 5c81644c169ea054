"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Every workload drives sfcplace only through its public functions, looked
up on the module at call time (``heuristic.run_hca``, ``ilp.solve_exact``)
so that the tracer's wrappers are seen.

* ``paper-sweep``: the paper's mixed 100-chain sweeps (the acceptance
  grid of criterion 4), bound by the heuristic's phase-1 latency checks.
* ``compare-small``: the ``sfcplace compare`` path on small instances,
  where process pools, per-instance network rebuilds and scenario
  generation take a visible share.
* ``model-oracle``: LP build/export/parse round trips on the shipped
  fixture and the exhaustive oracle at its size cap.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from sfcplace import embedding, harness, heuristic, ilp
from sfcplace.catalog import Scenario, SfcInstance, load_catalog
from sfcplace.harness import CostSetting, ExperimentSpec, LoadSize
from sfcplace.heuristic import HcaConfig
from sfcplace.topology import load_topology


class Checks:
    """Operations attempted and failed; a failure is an exception or an
    output that a check rejects.  Nothing is retried or dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        self.expect(False, f"{what}: {traceback.format_exc(limit=3)}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed_hca(scenario, config=None, repeats: int = 1):
    """run_hca's outcome and one latency sample: the median wall time of
    ``repeats`` calls.  Workloads whose calls take about a millisecond or
    less use three, so that one preemption or garbage-collector pause does
    not move the tail."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        out = heuristic.run_hca(scenario, config)
        times.append(time.perf_counter() - started)
    return out, statistics.median(times)


def hca_percentiles(samples: list[float]) -> dict[str, float]:
    if len(samples) < 2:
        raise RuntimeError(f"only {len(samples)} run_hca samples")
    return {"hca_ms_p50": 1e3 * statistics.median(samples),
            "hca_ms_p90": 1e3 * statistics.quantiles(samples, n=10)[-1]}


def timed_passes(run_pass, seconds: float) -> list:
    """Run ``run_pass`` at least once, then again while another pass of
    the mean length still fits in ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > seconds:
            return results


def quality(outcomes: list[tuple[bool, int | None]]) -> dict[str, float]:
    """Mean active nodes over feasible outcomes, and the feasible and
    infeasible shares."""
    active = [n for ok, n in outcomes if ok]
    return {"mean_active_nodes": float(np.mean(active)) if active else math.nan,
            "feasible_pct": 100.0 * len(active) / len(outcomes),
            "infeasible_pct": 100.0 * (len(outcomes) - len(active))
            / len(outcomes)}


def stratified(rng, n: int, lo: int, hi: int) -> list[int]:
    """n integers in [lo, hi), one from each of n equal strata, in random
    order (Latin hypercube sampling): the seed moves every value while the
    spread of values, and so the case mix, stays the same."""
    strata = rng.permutation(n) + rng.random(n)
    return [int(lo + (hi - lo) * x / n) for x in strata]


# -- sweeps ---------------------------------------------------------------------

@dataclass
class Sweep:
    spec: ExperimentSpec
    paired: bool       # run_paired_comparison (sharing and baseline model)
    jobs: int
    hca_repeats: int   # run_hca calls per latency sample

    def setup(self) -> dict:
        """The scenario of every instance the sweep runs, keyed by grid
        point, built the way the harness builds them."""
        spec = self.spec
        scenarios = {}
        for cost in spec.cost_grid:
            net = spec.resolved_topology().with_cost_params(
                omega=cost.omega, kappa=cost.kappa, h=spec.h,
                orientation=spec.coupling_orientation)
            for size in spec.sizes:
                scenarios[(cost.omega, cost.kappa, size.num_sfcs,
                           size.users)] = [
                    Scenario(net, base.catalog, base.sfcs)
                    for base in (harness.gen_scenario(spec, size, i)
                                 for i in range(spec.iterations))]
        return scenarios

    def sweep(self, jobs: int):
        started = time.perf_counter()
        if self.paired:
            results = harness.run_paired_comparison(self.spec, jobs)
        else:
            results = (harness.run_experiment(self.spec, jobs),)
        return results, time.perf_counter() - started

    def check(self, scenarios, results, checks: Checks,
              samples: list[float], tracer=None) -> None:
        """Rerun every instance through ``run_hca`` directly, timing each
        call: the outcome must match the harness row, and every feasible
        embedding must pass ``validate``."""
        for result in results:
            mode = result.spec.mode
            config = HcaConfig(mode=mode, sota_params=self.spec.sota_params)
            for point in result.points:
                cases = scenarios[(point.omega, point.kappa, point.num_sfcs,
                                   point.users)]
                for row, scenario in zip(point.instances, cases, strict=True):
                    what = (f"{mode} {point.omega}/{point.kappa} "
                            f"{point.num_sfcs}x{point.users} #{row.index}")
                    if tracer is not None:
                        tracer.instance = what
                    try:
                        out, sample = timed_hca(scenario, config,
                                                self.hca_repeats)
                        samples.append(sample)
                        latencies = list(out.per_sfc_latency.values())
                        same = (out.success == row.feasible and (
                            not out.success
                            or (out.active_nodes == row.active_nodes
                                and float(np.mean(latencies) if latencies
                                          else 0.0) == row.mean_latency)))
                        checks.expect(same, f"{what}: run_hca disagrees "
                                            "with the harness row")
                        if out.success:
                            report = embedding.validate(
                                out.embedding, scenario, mode,
                                self.spec.sota_params)
                            checks.expect(report.ok, f"{what}: {report}")
                    except Exception:
                        checks.crashed(what)

    def csv_digests(self, results) -> list[str]:
        return [sha256(harness.emit_csv(r)) for r in results]

    @staticmethod
    def outcomes(results) -> list[tuple[bool, int | None]]:
        return [(row.feasible, row.active_nodes) for r in results
                for p in r.points for row in p.instances]

    def measure(self, scenarios, checks: Checks, seconds: float):
        passes = timed_passes(lambda: self.sweep(self.jobs), seconds)
        digests = [self.csv_digests(results) for results, _ in passes]
        for other in digests[1:]:
            checks.expect(other == digests[0],
                          "results CSV differs between identical sweeps")
        results = passes[0][0]
        outcomes = self.outcomes(results)
        samples: list[float] = []
        self.check(scenarios, results, checks, samples)
        metrics = {"instances_per_s": statistics.median(
            len(outcomes) / wall for _, wall in passes)}
        metrics |= hca_percentiles(samples)
        metrics |= quality(outcomes)
        extras = {"infeasible_pct": metrics.pop("infeasible_pct"),
                  "passes": len(passes), "hca_samples": len(samples),
                  "instances_per_pass": len(outcomes)}
        return metrics, extras, {"results_csv_sha256": digests[0]}

    def trace(self, scenarios, checks: Checks, tracer):
        results, wall = self.sweep(self.jobs)
        busy = sum(row.runtime_s for r in results for p in r.points
                   for row in p.instances)
        efficiency = busy / (self.jobs * wall)
        untraced_wall = wall if self.jobs == 1 else self.sweep(1)[1]
        digests = self.csv_digests(results)
        # one process, so that no span is lost in a worker
        tracer.install()
        try:
            traced, traced_wall = self.sweep(1)
            checks.expect(self.csv_digests(traced) == digests,
                          "traced sweep changed the results CSV")
            self.check(scenarios, traced, checks, [], tracer)
        finally:
            tracer.uninstall()
        extras = {"trace.untraced_sweep_s": untraced_wall,
                  "trace.traced_sweep_s": traced_wall}
        return ({"harness.parallel_efficiency": efficiency,
                 "trace.overhead_s": traced_wall - untraced_wall},
                extras, {"results_csv_sha256": digests})


def paper_sweep(seed: int, tiny: bool, trace: bool) -> Sweep:
    # 34 instances per point keep the run-to-run spread of hca_ms_p90 and
    # instances_per_s across seeds well inside their bounds; the traced
    # run, which makes two sweeps and a check pass, uses half as many
    chains, iterations = (20, 2) if tiny else (100, 17 if trace else 34)
    spec = ExperimentSpec(
        sizes=tuple(LoadSize(chains, u) for u in (5, 10, 20)),
        cost_grid=(CostSetting(0.8, 0.0), CostSetting(0.0, 3.5)),
        iterations=iterations, seed=seed)
    return Sweep(spec, paired=False, jobs=1, hca_repeats=1)


def compare_small(seed: int, tiny: bool, trace: bool) -> Sweep:
    spec = ExperimentSpec(
        sizes=(LoadSize(3, 300), LoadSize(6, 150), LoadSize(10, 200)),
        cost_grid=(CostSetting(0.0, 0.0), CostSetting(0.4, 1.75)),
        iterations=3 if tiny else 50, seed=seed)
    # the CLI's default --jobs
    return Sweep(spec, paired=True, jobs=os.cpu_count() or 1,
                 hca_repeats=3)


# -- model and oracle -------------------------------------------------------------

# 5 NFV nodes (the exact solver's cap) and one forwarding-only node
_EXACT_TOPOLOGY = {
    "bidirectional": True,
    "nodes": [{"id": i, "cores": 8} for i in range(5)]
             + [{"id": 5, "cores": 0}],
    "links": [{"from": a, "to": b, "latency_ms": lat} for a, b, lat in [
        (0, 1, 3.0), (1, 2, 4.5), (2, 3, 2.5), (3, 4, 5.5), (4, 0, 4.0),
        (1, 3, 5.0), (5, 0, 2.0), (5, 2, 3.5)]]}
_EXACT_CATALOG = {
    "vnfs": [{"id": "A", "proc_per_user": 0.004},
             {"id": "B", "proc_per_user": 0.002},
             {"id": "C", "proc_per_user": 0.008},
             {"id": "D", "proc_per_user": 0.005}],
    "chains": [
        {"name": "Quad", "chain": ["A", "B", "C", "D"],
         "max_latency_ms": 60.0, "bw_per_user_mbps": 0.1},
        {"name": "Trio", "chain": ["A", "C", "D"],
         "max_latency_ms": 30.0, "bw_per_user_mbps": 0.1},
        # below every start/end distance (links are >= 2 ms), so no
        # placement meets it and the oracle enumerates every leaf
        {"name": "Unreachable", "chain": ["B", "C", "A", "D"],
         "max_latency_ms": 1.0, "bw_per_user_mbps": 0.1},
    ]}


@dataclass
class ModelOracle:
    seed: int
    tiny: bool

    def setup(self) -> dict:
        """LP cases: 1-, 2- and 3-chain mixed scenarios on the fixture.
        Oracle cases on a 6-node topology: every start/end pair for each
        single-chain template at three user loads (stratified, so that the
        seed moves the loads but not the mix), a few two-chain cases,
        cases whose first leaf is optimal, and one 8-request case that
        forces full enumeration."""
        fixture = ExperimentSpec(sizes=(LoadSize(1, 100),),
                                 cost_grid=(CostSetting(0.4, 1.75),),
                                 seed=self.seed)
        net = fixture.resolved_topology().with_cost_params(omega=0.4,
                                                           kappa=1.75)
        lp_cases = []
        for n in (1,) if self.tiny else (1, 2, 3):
            base = harness.gen_scenario(fixture, LoadSize(n, 100), 0)
            lp_cases.append((f"fixture-{n}-chain",
                             Scenario(net, base.catalog, base.sfcs)))

        rng = np.random.default_rng([self.seed, 2])
        net = load_topology(_EXACT_TOPOLOGY).with_cost_params(omega=0.4,
                                                              kappa=1.75)
        cat = load_catalog(_EXACT_CATALOG)

        def case(*chains):
            sfcs = tuple(SfcInstance(i, cat.templates[t], s, e, int(u))
                         for i, (t, s, e, u) in enumerate(chains))
            return Scenario(net, cat, sfcs)

        pairs = [(s, e) for s in range(6) for e in range(6)]
        if self.tiny:
            pairs = pairs[:6]
        singles = [(t, s, e) for t in ("Quad", "Trio") for s, e in pairs
                   for _ in range(1 if self.tiny else 3)]
        oracle_cases = [
            (f"{t}-{s}-{e}-{users}", case((t, s, e, users)))
            for (t, s, e), users in zip(
                singles, stratified(rng, len(singles), 100, 700))]
        n_two = 1 if self.tiny else 4
        users = stratified(rng, 2 * n_two, 100, 400)
        for i in range(n_two):
            s1, e1, s2, e2 = (int(x) for x in rng.integers(0, 6, 4))
            oracle_cases.append((f"two-trio-{i}", case(
                ("Trio", s1, e1, users[2 * i]),
                ("Trio", s2, e2, users[2 * i + 1]))))
        for i in range(1 if self.tiny else 2):
            ends = [int(x) for x in rng.integers(0, 6, 2)]
            oracle_cases.append((f"first-leaf-{i}", case(
                ("Quad", 0, ends[0], 60), ("Quad", 0, ends[1], 60))))
        # fixed users keep every leaf under capacity, so each leaf fails
        # on the latency bound after the same amount of work
        full = [("Unreachable", 0, 3, 100)]
        if not self.tiny:
            full.append(("Quad", 1, 4, 100))
        oracle_cases.append(("full-enumeration", case(*full)))
        return {"lp": lp_cases, "oracle": oracle_cases}

    def run_pass(self, cases, checks: Checks, tracer=None) -> dict:
        """Every LP case and every oracle case once, timing each run_hca."""
        clock = time.perf_counter
        samples, outcomes, lp_digests = [], [], []

        def hca(scenario):
            out, sample = timed_hca(scenario, repeats=3)
            samples.append(sample)
            outcomes.append((out.success, out.active_nodes))
            return out

        stats = {"export_s": 0.0, "exact_s": 0.0, "model_vars": 0,
                 "model_rows": 0, "lp_bytes": 0}
        gaps, misses, oracle_feasible = [], 0, 0
        started = clock()
        for what, scenario in cases["lp"]:
            if tracer is not None:
                tracer.instance = what
            try:
                out = hca(scenario)
                t0 = clock()
                model = ilp.build_model(scenario)
                text = ilp.export_lp(model)
                stats["export_s"] += clock() - t0
                stats["model_vars"] += len(model.variables)
                stats["model_rows"] += len(model.constraints)
                stats["lp_bytes"] += len(text.encode())
                lp_digests.append(sha256(text))
                if out.success:
                    report = embedding.validate(out.embedding, scenario)
                    checks.expect(report.ok, f"{what}: {report}")
                    bad = ilp.check_assignment(model, ilp.embedding_to_assignment(
                        scenario, out.embedding))
                    checks.expect(not bad, f"{what}: HCA embedding violates "
                                           f"model rows {bad[:5]}")
                del model
                checks.expect(ilp.export_lp(ilp.parse_lp(text)) == text,
                              f"{what}: LP round trip is not byte-identical")
            except Exception:
                checks.crashed(what)
        for what, scenario in cases["oracle"]:
            if tracer is not None:
                tracer.instance = what
            try:
                out = hca(scenario)
                if out.success:
                    report = embedding.validate(out.embedding, scenario)
                    checks.expect(report.ok, f"{what}: {report}")
                t0 = clock()
                solution = ilp.solve_exact(scenario)
                stats["exact_s"] += clock() - t0
                if solution.status == "optimal":
                    oracle_feasible += 1
                    report = embedding.validate(solution.embedding, scenario)
                    checks.expect(report.ok, f"{what}: oracle {report}")
                    if out.success:
                        gap = out.active_nodes - solution.objective
                        checks.expect(gap >= 0, f"{what}: heuristic beat "
                                                "the exact optimum")
                        gaps.append(gap)
                    else:
                        misses += 1
                else:
                    checks.expect(not out.success, f"{what}: heuristic "
                                  "feasible where the oracle is not")
            except Exception:
                checks.crashed(what)
        stats["wall_s"] = clock() - started
        stats["cases"] = len(cases["lp"]) + len(cases["oracle"])
        stats["oracle_gap_mean"] = float(np.mean(gaps)) if gaps else 0.0
        stats["oracle_miss_pct"] = (100.0 * misses / oracle_feasible
                                    if oracle_feasible else 0.0)
        stats["outcomes"] = outcomes
        stats["hca_samples"] = samples
        stats["lp_sha256"] = lp_digests
        return stats

    def measure(self, cases, checks: Checks, seconds: float):
        passes = timed_passes(lambda: self.run_pass(cases, checks), seconds)
        first = passes[0]
        for other in passes[1:]:
            checks.expect(other["lp_sha256"] == first["lp_sha256"],
                          "LP text differs between identical passes")
        samples = [t for p in passes for t in p["hca_samples"]]
        metrics = {"instances_per_s": statistics.median(
            p["cases"] / p["wall_s"] for p in passes)}
        metrics |= hca_percentiles(samples)
        metrics |= quality(first["outcomes"])
        extras = {"infeasible_pct": metrics.pop("infeasible_pct"),
                  "passes": len(passes), "hca_samples": len(samples),
                  "instances_per_pass": first["cases"],
                  "export_s": statistics.median(p["export_s"] for p in passes),
                  "exact_s": statistics.median(p["exact_s"] for p in passes),
                  "oracle_gap_mean": first["oracle_gap_mean"],
                  "oracle_miss_pct": first["oracle_miss_pct"]}
        return metrics, extras, {"lp_sha256": first["lp_sha256"]}

    def trace(self, cases, checks: Checks, tracer):
        untraced = self.run_pass(cases, checks)
        tracer.install()
        try:
            traced = self.run_pass(cases, checks, tracer)
        finally:
            tracer.uninstall()
        checks.expect(traced["lp_sha256"] == untraced["lp_sha256"],
                      "tracing changed the LP text")
        layer = {f"ilp.{k}": traced[k] for k in
                 ("model_vars", "model_rows", "lp_bytes", "oracle_gap_mean",
                  "oracle_miss_pct")}
        layer["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        extras = {"trace.untraced_pass_s": untraced["wall_s"],
                  "trace.traced_pass_s": traced["wall_s"]}
        return layer, extras, {"lp_sha256": traced["lp_sha256"]}


WORKLOADS = {"paper-sweep": paper_sweep,
             "compare-small": compare_small,
             "model-oracle": lambda seed, tiny, trace: ModelOracle(seed, tiny)}
