"""In-memory span tracer that wraps sfcplace's public functions from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces
module and class attributes with wrappers and ``Tracer.uninstall`` puts
the originals back.  Three kinds of wrapper keep the cost proportional to
what is learned:

* full spans (name, start, end, parent span, instance) for coarse calls
  such as ``run_hca``, ``validate`` or ``build_model``;
* merged spans for hot timed leaves (``sfc_overhead``, ``path_latency``,
  ``shortest_path``): one record per (parent span, name) with a call
  count and summed duration, so millions of calls do not become millions
  of records.  A merged function must not call a traced full-span
  function, or that time would be counted twice;
* counters for the hottest leaves (the cost formulas, ``apply_mapping``,
  ``SfcInstance.requests``), which are counted but never timed.

Self time is derived afterwards from the records: a span's duration minus
the durations of the full and merged spans whose parent it is.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start, end, parent, instance)
        self.merged: dict[tuple[int, str], list] = {}   # -> [calls, total_s]
        self.counts: Counter = Counter()
        self.hca_stats: Counter = Counter()
        self.instance = ""
        self._stack = [0]                # 0 is the root: no enclosing span
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _full(self, name, fn, on_result=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.instance))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _merged(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        merged = self.merged

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (stack[-1], name)
                cell = merged.get(key)
                if cell is None:
                    merged[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _label_instance(self, fn):
        """gen_scenario(spec, size, index): spans that follow belong to
        that instance until the next scenario is generated."""
        def wrapper(spec, size, index, *args, **kwargs):
            self.instance = f"{spec.seed}:{size.num_sfcs}x{size.users}:{index}"
            return fn(spec, size, index, *args, **kwargs)
        return wrapper

    def _collect_hca_stats(self, outcome):
        for key, value in outcome.stats.items():
            if key != "runtime_s":
                self.hca_stats[key] += value

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        from sfcplace import catalog, costs, embedding, harness, heuristic, ilp
        from sfcplace.embedding import Embedding
        from sfcplace.topology import PhysicalNetwork

        full, merged, counted = self._full, self._merged, self._counted
        self._patch([heuristic, harness], "run_hca",
                    full("heuristic.run_hca", heuristic.run_hca,
                         self._collect_hca_stats))
        self._patch([embedding], "validate",
                    full("embedding.validate", embedding.validate))
        self._patch([harness], "gen_scenario", self._label_instance(
            full("harness.gen_scenario", harness.gen_scenario)))
        self._patch([harness], "emit_csv",
                    full("harness.emit_csv", harness.emit_csv))
        for attr in ("k_shortest_paths", "with_cost_params"):
            self._patch([PhysicalNetwork], attr, full(
                f"topology.{attr}", PhysicalNetwork.__dict__[attr]))
        self._patch([PhysicalNetwork], "shortest_path", merged(
            "topology.shortest_path", PhysicalNetwork.shortest_path))
        for attr in ("sfc_overhead", "path_latency"):
            self._patch([Embedding], attr, merged(
                f"embedding.{attr}", Embedding.__dict__[attr]))
        for attr in ("apply_mapping", "release_sfc"):
            self._patch([Embedding], attr, counted(
                f"embedding.{attr}", Embedding.__dict__[attr]))
        for attr in ("node_latency", "residual_capacity", "sota_latency"):
            self._patch([costs], attr,
                        counted(f"costs.{attr}", getattr(costs, attr)))
        requests = catalog.SfcInstance.__dict__["requests"]
        self._patch([catalog.SfcInstance], "requests", property(
            counted("catalog.sfc_requests", requests.fget)))
        for attr in ("build_model", "export_lp", "parse_lp",
                     "check_assignment", "solve_exact"):
            self._patch([ilp], attr, full(f"ilp.{attr}", getattr(ilp, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        for (parent, _), (_, total) in self.merged.items():
            covered[parent] += total
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[sid]
        for (_, name), (calls, total) in self.merged.items():
            entry = out[name]
            entry["calls"] += calls
            entry["s"] += total
            entry["self_s"] += total
        for name, calls in self.counts.items():
            out[name]["calls"] += calls
        return out

    def attribution(self, name: str) -> dict[str, float]:
        """Seconds inside spans called ``name``, split into the time of its
        direct children (by child name) and its own remaining time."""
        ids = {s[0] for s in self.spans if s[1] == name}
        split: dict[str, float] = defaultdict(float)
        for _, child, start, end, parent, _ in self.spans:
            if parent in ids:
                split[child] += end - start
        for (parent, child), (_, total) in self.merged.items():
            if parent in ids:
                split[child] += total
        inclusive = sum(s[3] - s[2] for s in self.spans if s[1] == name)
        split["self"] = inclusive - sum(split.values())
        return dict(split)

    def write(self, path) -> None:
        """Spans and merged spans as JSON lines, one record each."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "instance": instance}) + "\n")
            for (parent, name), (calls, total) in sorted(self.merged.items()):
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "calls": calls, "total_s": total}) + "\n")
