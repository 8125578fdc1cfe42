"""Per-layer metrics from the traced run's spans.

Times and counts are per operation (one figure grid or one fault sweep
in the closed loops, one request in the service workloads), so runs of
different lengths compare.  A layer's self time is its span minus the
child spans recorded in the same process.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import percentile

PHASES = ("slot", "schedule", "actuate", "buffers", "charge", "bookkeeping")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "pid", "op",
                 "map", "extra", "self_s")

    def __init__(self, record: Sequence[Any]) -> None:
        (_, self.id, self.parent, self.name, self.start, self.end,
         self.pid, self.op, self.map, self.extra) = record
        self.self_s = self.end - self.start

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def load(trace_dir: Path,
         window: Optional[Tuple[float, float]] = None
         ) -> Tuple[List[Span], Dict[str, int], List[float], List[float]]:
    """Spans, event counts, queue waits and fault-hook totals.

    With ``window`` only spans starting inside it count (the service
    workloads exclude set-up traffic); fault-hook totals are untimed and
    only the closed loops, which trace nothing but operations, use them.
    """
    spans: List[Span] = []
    events: Dict[str, int] = defaultdict(int)
    waits: List[float] = []
    hooks = [0.0, 0.0]

    def inside(stamp: float) -> bool:
        return window is None or window[0] <= stamp <= window[1]

    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            kind = record[0]
            if kind == "span":
                span = Span(record)
                if inside(span.start):
                    spans.append(span)
            elif kind == "event":
                if inside(record[2]):
                    events[record[1]] += 1
            elif kind == "wait":
                if inside(record[2]):
                    waits.append(record[1])
            elif kind == "hooks":
                hooks[0] += record[1]
                hooks[1] += record[2]
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent else None
        if parent is not None and parent.pid == span.pid:
            parent.self_s -= span.wall_s
    return spans, dict(events), waits, hooks


def per_layer(spans: List[Span], events: Dict[str, int],
              waits: List[float], hooks: List[float], operations: int,
              phases: Dict[str, float],
              client: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; ``client`` carries the load generator's."""
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    per_op = 1.0 / max(1, operations)

    def total(name: str, attr: str = "wall_s") -> float:
        return sum(getattr(span, attr) for span in named[name])

    def count(name: str, key: str) -> float:
        return sum(span.extra[key] for span in named[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    maps = named["runner.map"]
    units_by_map: Dict[str, Dict[int, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in named["runner.unit"]:
        units_by_map[span.map][span.pid] += span.wall_s
    overhead = sum(span.wall_s - max(units_by_map[span.id].values())
                   for span in maps if span.id in units_by_map)
    gets = named["runner.cache_get"]
    scalar_s = total("sim.scalar")
    batch_s = total("sim.batch")
    service_maps = [span for span in maps if named["service.submit"]]

    metrics = {
        "experiments.driver_s": (total("experiments.run_fig12")
                                 - sum(span.wall_s for span in maps
                                       if named["experiments.run_fig12"]))
        * per_op,
        "runner.map_s": total("runner.map") * per_op,
        "runner.plan_s": total("runner.plan", "self_s") * per_op,
        "runner.units": count("runner.plan", "units") * per_op,
        "runner.singles": count("runner.plan", "singles") * per_op,
        "runner.group_lanes_mean": ratio(count("runner.plan", "lanes"),
                                         count("runner.plan", "groups")),
        "runner.batched_ratio": ratio(count("sim.batch", "lanes"),
                                      count("runner.plan", "misses")),
        "runner.fallbacks": events.get("runner.fallback", 0) * per_op,
        "runner.pool_starts": events.get("runner.pool_start", 0) * per_op,
        "runner.unit_s": total("runner.unit") * per_op,
        "runner.pool_overhead_s": overhead * per_op,
        "runner.key_s": total("runner.key") * per_op,
        "runner.cache_get_s": total("runner.cache_get") * per_op,
        "runner.cache_put_s": total("runner.cache_put") * per_op,
        "runner.cache_hit_ratio": ratio(
            sum(1 for span in gets if span.extra["hit"]), len(gets)),
        "core.policy_s": total("core.policy", "self_s") * per_op,
        "core.seed_runs": len(named["core.seed"]) * per_op,
        "core.seed_s": total("core.seed") * per_op,
        "workloads.traces": len(named["workloads.trace"]) * per_op,
        "workloads.trace_s": total("workloads.trace") * per_op,
        "sim.build_s": total("sim.build", "self_s") * per_op,
        "sim.scalar_runs": len(named["sim.scalar"]) * per_op,
        "sim.scalar_s": scalar_s * per_op,
        "sim.scalar_ticks_per_s": ratio(count("sim.scalar", "ticks"),
                                        scalar_s),
        "sim.batch_runs": len(named["sim.batch"]) * per_op,
        "sim.batch_s": batch_s * per_op,
        "sim.batch_lane_ticks_per_s": ratio(
            sum(span.extra["lanes"] * span.extra["ticks"]
                for span in named["sim.batch"]), batch_s),
        "faults.hook_calls": hooks[0] * per_op,
        "faults.hook_s": hooks[1] * per_op,
        "service.parse_s": total("service.parse") * per_op,
        "service.submit_s": total("service.submit", "self_s") * per_op,
        "service.encode_s": total("service.encode") * per_op,
        "service.queue_wait_p50_ms": (percentile(waits, 50) * 1e3
                                      if waits else 0.0),
        "service.queue_wait_p90_ms": (percentile(waits, 90) * 1e3
                                      if waits else 0.0),
        "service.execute_s": ratio(sum(s.wall_s for s in service_maps),
                                   len(service_maps)),
        "service.burst_size_mean": ratio(
            sum(s.extra["requests"] for s in service_maps),
            len(service_maps)),
    }
    for phase in PHASES:
        metrics[f"sim.phase.{phase}_s"] = phases.get(phase, 0.0)
    metrics.update(client)
    return metrics
