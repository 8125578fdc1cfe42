"""The unit of work the experiment runner schedules: one simulation run.

A :class:`RunRequest` is a frozen, picklable description of one
(scheme, workload, setup) simulation — everything :func:`execute_request`
needs to rebuild the run from scratch in any process.  Because requests
are pure data, the same request always produces the same
:class:`~repro.sim.RunResult` regardless of which process executes it,
which is what lets the runner fan work out over a process pool and reuse
cached results: the request's canonical form is the cache key.

:class:`ExperimentSetup` lives here (re-exported by
``repro.experiments``) so the experiment modules can depend on the
runner without an import cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..config import (
    ClusterConfig,
    ControllerConfig,
    HybridBufferConfig,
    prototype_buffer,
    prototype_cluster,
)
from ..core import make_policy
from ..errors import ConfigurationError
from ..faults import FaultInjector, FaultSchedule
from ..sim import HybridBuffers, RunResult, Simulation
from ..units import hours
from ..workloads import generate_solar_trace, get_workload
from ..workloads.solar import SolarConfig

#: The solar array the renewable panels default to: 520 W rated —
#: comfortably above the prototype cluster's demand so deep valleys (big
#: surpluses) occur, the regime where battery charge-current limits
#: throttle REU (Section 2.2).
DEFAULT_RENEWABLE_SOLAR = SolarConfig(rated_power_w=520.0,
                                      cloud_attenuation=0.15,
                                      mean_cloud_s=700.0,
                                      mean_clear_s=900.0)


@dataclass(frozen=True)
class ExperimentSetup:
    """A standard prototype-style experiment configuration.

    Attributes:
        duration_h: Simulated hours per (scheme, workload) run.
        budget_w: Utility budget; None keeps the prototype's 260 W.
        seed: Workload RNG seed.
        sc_fraction: SC share of installed buffer capacity.
        total_energy_wh: Installed buffer capacity.
        battery_dod / sc_dod: Optional depth-of-discharge overrides
            (the Section 7.5 capacity knob).
    """

    duration_h: float = 4.0
    budget_w: Optional[float] = None
    seed: int = 1
    sc_fraction: float = 0.3
    total_energy_wh: float = 150.0
    battery_dod: Optional[float] = None
    sc_dod: Optional[float] = None

    def cluster(self) -> ClusterConfig:
        config = prototype_cluster()
        if self.budget_w is not None:
            config = dataclasses.replace(config,
                                         utility_budget_w=self.budget_w)
        return config

    def hybrid(self) -> HybridBufferConfig:
        return prototype_buffer(sc_fraction=self.sc_fraction,
                                total_energy_wh=self.total_energy_wh)


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation run, as pure data.

    Attributes:
        scheme: A Table 2 policy name ("BaOnly" ... "HEB-D").
        workload: A Table 1 workload abbreviation.
        setup: Cluster/buffer sizing, duration, and seed.
        controller: Optional hControl override.
        renewable: Solar-fed run (REU panel) instead of a utility budget.
        solar: PV array parameters; defaults to
            :data:`DEFAULT_RENEWABLE_SOLAR` when ``renewable`` is set.
        start_hour: Time of day the solar trace starts at.
        policy_sc_fraction / policy_total_wh: Optional *policy view* of
            the buffers differing from the physical hardware — the
            Figure 13 trick of carving usable m:n ratios out of fixed
            hardware with DoD caps while the pilot profile sees only the
            usable capacities.
        faults: Optional :class:`~repro.faults.FaultSchedule` injected
            into the run.  A schedule is pure frozen data, so fault
            scenarios are content-addressed and cacheable like any other
            request; ``None`` and an *empty* schedule both execute the
            exact fault-free path (bit-identical results).
    """

    scheme: str
    workload: str
    setup: ExperimentSetup = ExperimentSetup()
    controller: Optional[ControllerConfig] = None
    renewable: bool = False
    solar: Optional[SolarConfig] = None
    start_hour: float = 8.0
    policy_sc_fraction: Optional[float] = None
    policy_total_wh: Optional[float] = None
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.solar is not None and not self.renewable:
            raise ConfigurationError(
                "a solar supply requires renewable=True")
        if self.renewable and self.solar is None:
            object.__setattr__(self, "solar", DEFAULT_RENEWABLE_SOLAR)
        # An empty schedule injects nothing; canonicalize it to None so
        # the cache key (and the execution path) is identical to a
        # request that never mentioned faults.
        if self.faults is not None and self.faults.is_empty:
            object.__setattr__(self, "faults", None)


def build_simulation(request: RunRequest, profiler=None,
                     traces: Optional[Dict[Tuple, Any]] = None
                     ) -> Simulation:
    """Construct the fully-wired :class:`Simulation` for one request.

    Shared by :func:`execute_request` (which runs it) and the batched
    runner (which hands a list of them to
    :class:`~repro.sim.batch.BatchSimulation`), so both paths simulate
    the exact same object graph.

    Args:
        request: The run to build.
        profiler: Optional tick profiler handed to the engine.
        traces: Optional memo shared across the simulations of one
            batch: requests that would generate the same workload trace
            or solar supply reuse the first one built (traces are
            read-only, so sharing is invisible to the engine).
    """
    if traces is None:
        traces = {}
    setup = request.setup
    cluster = setup.cluster()
    hybrid = setup.hybrid()
    duration_s = hours(setup.duration_h)
    trace_key = ("workload", request.workload, duration_s,
                 cluster.num_servers, cluster.server, setup.seed)
    trace = traces.get(trace_key)
    if trace is None:
        trace = get_workload(request.workload, duration_s=duration_s,
                             num_servers=cluster.num_servers,
                             server=cluster.server, seed=setup.seed)
        traces[trace_key] = trace

    if (request.policy_sc_fraction is not None
            or request.policy_total_wh is not None):
        policy_view = prototype_buffer(
            sc_fraction=(request.policy_sc_fraction
                         if request.policy_sc_fraction is not None
                         else setup.sc_fraction),
            total_energy_wh=(request.policy_total_wh
                             if request.policy_total_wh is not None
                             else setup.total_energy_wh))
    else:
        policy_view = hybrid
    policy = make_policy(request.scheme, hybrid=policy_view,
                         controller=request.controller)

    buffers = HybridBuffers(hybrid,
                            include_sc=request.scheme.lower() != "baonly",
                            battery_dod=setup.battery_dod,
                            sc_dod=setup.sc_dod)

    # Injectors carry per-run state (applied steps, downtime buckets), so
    # each execution builds a fresh one from the frozen schedule.
    injector = (FaultInjector(request.faults)
                if request.faults is not None else None)

    if request.renewable:
        supply_key = ("solar", duration_s, request.solar, setup.seed,
                      request.start_hour)
        supply = traces.get(supply_key)
        if supply is None:
            supply = generate_solar_trace(
                duration_s, config=request.solar, seed=setup.seed,
                start_time_s=hours(request.start_hour))
            traces[supply_key] = supply
        return Simulation(trace, policy, buffers,
                          cluster_config=cluster,
                          controller_config=request.controller,
                          supply=supply, renewable=True,
                          profiler=profiler, injector=injector)
    return Simulation(trace, policy, buffers,
                      cluster_config=cluster,
                      controller_config=request.controller,
                      profiler=profiler, injector=injector)


def execute_request(request: RunRequest, profiler=None) -> RunResult:
    """Run one request to completion (pure function of the request).

    This is the single execution path behind ``run_scheme``,
    ``run_renewable``, and every figure grid — serial and parallel runs
    share it, so they are bit-for-bit identical.

    Args:
        request: The run to execute.
        profiler: Optional ``repro.perf.TickProfiler``; when given, the
            engine times its tick phases and attaches a
            :class:`~repro.perf.PerfReport` to ``RunResult.perf``.
            Profiling never changes the simulated numbers.
    """
    return build_simulation(request, profiler=profiler).run()
