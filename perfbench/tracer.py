"""Span recording for the traced run, from outside the program.

:func:`install` wraps the public functions of each layer at the names
their callers look them up by (``repro.runner.request.make_policy``, not
only ``repro.core.make_policy``), so the program's own calls go through
the wrappers.  Nothing under ``src/`` changes and no simulated number
can: a wrapper only reads the clock around the call it forwards.

Each span is ``("span", id, parent, name, start, end, pid, op, map,
extra)``: ``op`` is the operation (closed loop) the process was running,
``map`` the ``ExperimentRunner.map`` call that caused it, ``extra`` a
small dict of counts.  Timestamps are ``time.perf_counter`` values,
which on Linux read the system-wide monotonic clock, so spans from the
server, its pool workers and the load generator share one time axis.
Spans stay in memory; forked pool workers append theirs to
``spans-<pid>.jsonl`` after every execution unit, the owning process
when :meth:`Tracer.flush` is called at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: High-frequency calls (per tick) are aggregated, not spanned.
_HOOK_METHODS = ("begin_tick", "transform_budget", "observe",
                 "attribute_downtime", "downtime_by_class")


class Tracer:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.owner = os.getpid()
        self.records: List[Tuple[Any, ...]] = []
        self.hooks = [0, 0.0]
        self.op: Optional[int] = None
        self.map_id: Optional[str] = None
        #: ``id(request)`` -> time ``ScenarioService.submit`` queued it.
        self.submitted: Dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A worker starts with an empty buffer; the parent keeps its own.
        self.records = []
        self.hooks = [0, 0.0]

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> str:
        return f"{os.getpid()}.{next(self._ids)}"

    def event(self, name: str) -> None:
        """A timestamped occurrence (pool start, batch fallback)."""
        self.records.append(("event", name, perf_counter(), os.getpid()))

    def wrap(self, name: str, fn: Callable[..., Any],
             describe: Optional[Callable[..., Dict[str, Any]]] = None,
             enter: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``enter(span_id, args, kwargs)`` runs just before the call;
        ``describe(args, kwargs, result)`` builds the span's counts.
        """
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = self.new_id()
            parent = stack[-1] if stack else None
            start = perf_counter()
            if enter is not None:
                enter(span_id, args, kwargs)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = describe(args, kwargs, result) if describe else None
            self.records.append(("span", span_id, parent, name, start, end,
                                 os.getpid(), self.op, self.map_id, extra))
            return result
        return traced

    def hook(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` adding its calls and time to the fault-hook totals."""
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.hooks[0] += 1
                self.hooks[1] += perf_counter() - start
        return timed

    def flush(self) -> None:
        records, self.records = self.records, []
        hooks, self.hooks = self.hooks, [0, 0.0]
        if hooks[0]:
            records.append(("hooks", hooks[0], hooks[1], os.getpid()))
        if not records:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            for record in records:
                stream.write(json.dumps(record) + "\n")


def _patch(module_name: str, attr: str, value: Any) -> None:
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise AttributeError(f"{module_name}.{attr} is gone; the traced "
                             f"run must be updated to the new layout")
    setattr(module, attr, value)


def _wrap_at(tracer: Tracer, name: str, sites: Tuple[str, ...],
             **options: Any) -> None:
    """Wrap one function once and install it at every lookup site."""
    first_module, attr = sites[0].rsplit(".", 1)
    wrapped = tracer.wrap(
        name, getattr(importlib.import_module(first_module), attr),
        **options)
    for site in sites:
        _patch(*site.rsplit(".", 1), wrapped)


def _wrap_method(tracer: Tracer, name: str, cls: type, method: str,
                 **options: Any) -> None:
    setattr(cls, method, tracer.wrap(name, getattr(cls, method), **options))


def install(out_dir: Path) -> Tracer:
    """Install every layer's wrappers; returns the process's tracer."""
    from repro.errors import BatchCompatibilityError
    from repro.faults import FaultInjector
    from repro.runner import ExperimentRunner, ResultCache
    from repro.runner import batch as runner_batch
    from repro.service.queue import RunEntry, ScenarioService
    from repro.sim.batch import BatchSimulation
    from repro.sim.engine import Simulation

    tracer = Tracer(out_dir)

    # experiments
    _wrap_at(tracer, "experiments.run_fig12",
             ("repro.experiments.fig12_schemes.run_fig12",
              "repro.experiments.run_fig12"))

    # runner
    def enter_map(span_id: str, args: Tuple[Any, ...],
                  kwargs: Dict[str, Any]) -> None:
        tracer.map_id = span_id
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        for request in requests:
            queued = tracer.submitted.pop(id(request), None)
            if queued is not None:
                now = perf_counter()
                tracer.records.append(("wait", now - queued, now))

    _wrap_method(tracer, "runner.map", ExperimentRunner, "map",
                 enter=enter_map,
                 describe=lambda a, k, r: {"requests": len(r)})

    def describe_plan(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                      result: Any) -> Dict[str, Any]:
        units, _ = result
        groups = [len(payload) for kind, payload in units if kind == "group"]
        return {"misses": len(args[0]), "units": len(units),
                "singles": len(units) - len(groups),
                "groups": len(groups), "lanes": sum(groups)}

    _wrap_at(tracer, "runner.plan", ("repro.runner.runner.plan_units",),
             describe=describe_plan)

    unit = tracer.wrap("runner.unit", runner_batch.execute_unit)

    @functools.wraps(runner_batch.execute_unit)
    def execute_unit(*args: Any, **kwargs: Any) -> Any:
        try:
            return unit(*args, **kwargs)
        finally:
            if os.getpid() != tracer.owner:
                tracer.flush()

    # Pickled by reference as repro.runner.batch.execute_unit, so the
    # defining module must hold the very same object.
    _patch("repro.runner.batch", "execute_unit", execute_unit)
    _patch("repro.runner.runner", "execute_unit", execute_unit)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            tracer.event("runner.pool_start")
            super().__init__(*args, **kwargs)

    _patch("repro.runner.runner", "ProcessPoolExecutor", CountingPool)

    original_batch = runner_batch.BatchSimulation

    def counting_batch(*args: Any, **kwargs: Any) -> Any:
        try:
            return original_batch(*args, **kwargs)
        except BatchCompatibilityError:
            tracer.event("runner.fallback")
            raise

    _patch("repro.runner.batch", "BatchSimulation", counting_batch)

    _wrap_at(tracer, "runner.key", ("repro.runner.runner.cache_key",
                                    "repro.service.queue.cache_key"))
    _wrap_method(tracer, "runner.cache_get", ResultCache, "get",
                 describe=lambda a, k, r: {"hit": r is not None})
    _wrap_method(tracer, "runner.cache_put", ResultCache, "put")

    # core
    _wrap_at(tracer, "core.policy", ("repro.runner.request.make_policy",))
    _wrap_at(tracer, "core.seed", ("repro.core.policies.seed_pat",))

    # workloads
    _wrap_at(tracer, "workloads.trace", ("repro.runner.request.get_workload",))
    _wrap_at(tracer, "workloads.trace",
             ("repro.runner.request.generate_solar_trace",))

    # sim
    _wrap_at(tracer, "sim.build", ("repro.runner.request.build_simulation",
                                   "repro.runner.batch.build_simulation"))
    _wrap_method(tracer, "sim.scalar", Simulation, "run",
                 describe=lambda a, k, r: {"ticks": a[0].trace.num_samples})
    _wrap_method(tracer, "sim.batch", BatchSimulation, "run_all",
                 describe=lambda a, k, r: {
                     "lanes": len(a[0].sims),
                     "ticks": (a[0].sims[0].trace.num_samples
                               if a[0].sims else 0)})

    # faults
    for method in _HOOK_METHODS:
        setattr(FaultInjector, method,
                tracer.hook(getattr(FaultInjector, method)))

    # service
    _wrap_at(tracer, "service.parse",
             ("repro.service.server.request_from_spec",))

    def describe_submit(args: Tuple[Any, ...], kwargs: Dict[str, Any],
                        result: Any) -> Dict[str, Any]:
        entry, created = result
        if created:
            tracer.submitted[id(entry.request)] = perf_counter()
        return {"key": entry.key, "created": created}

    _wrap_method(tracer, "service.submit", ScenarioService, "submit",
                 describe=describe_submit)
    _wrap_method(tracer, "service.encode", RunEntry, "snapshot")
    _wrap_at(tracer, "service.encode_result",
             ("repro.service.queue.result_to_dict",))
    return tracer
