"""Workload inputs, every one derived from the benchmark seed.

The program only ever receives what these functions generate: figure
grids, fault-storm requests and service specs.  The same seed always
yields the same inputs.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List

from repro.core import POLICY_NAMES
from repro.experiments import fig12_schemes
from repro.experiments.resilience import fault_schedule_for
from repro.runner import ExperimentSetup, RunRequest
from repro.service.protocol import request_from_spec
from repro.units import hours
from repro.workloads import workload_names

#: Simulated hours per scenario of the closed-loop workloads.
GRID_HOURS = 1.0
#: Resilience-storm intensities each (scheme, workload) pair carries.
FAULT_INTENSITIES = (0.5, 1.0)
#: Simulated hours per service request.
SVC_HOURS = 0.25
#: The hot pool: six schemes times these two workloads.
HOT_WORKLOADS = ("WS", "TS")
#: run_fig12's renewable panel when called with defaults, as the CLI does.
RENEWABLE_WORKLOADS = ("WS", "TS")


def fig12_requests(seed: int) -> List[RunRequest]:
    """The 108 requests ``run_fig12(duration_h=1.0, seed=seed)`` runs.

    Rebuilt here, in panel order (efficiency, stressed budget,
    renewable), so the scalar oracle can run the same scenarios in
    another process; the closed-loop worker checks every result's
    scheme and workload against this list.
    """
    budget_w = inspect.signature(
        fig12_schemes.run_fig12).parameters["downtime_budget_w"].default
    base = ExperimentSetup(duration_h=GRID_HOURS, seed=seed)
    stressed = ExperimentSetup(duration_h=GRID_HOURS, seed=seed,
                               budget_w=budget_w)
    workloads = workload_names()
    return ([RunRequest(s, w, setup=base)
             for s in POLICY_NAMES for w in workloads]
            + [RunRequest(s, w, setup=stressed)
               for s in POLICY_NAMES for w in workloads]
            + [RunRequest(s, w, setup=base, renewable=True)
               for s in POLICY_NAMES for w in RENEWABLE_WORKLOADS])


def fault_requests(seed: int) -> List[RunRequest]:
    """48 (scheme, workload) pairs x the storm at two intensities."""
    setup = ExperimentSetup(duration_h=GRID_HOURS, seed=seed)
    duration_s = hours(GRID_HOURS)
    return [RunRequest(s, w, setup=setup,
                       faults=fault_schedule_for(intensity, duration_s,
                                                 seed=seed))
            for s in POLICY_NAMES for w in workload_names()
            for intensity in FAULT_INTENSITIES]


def _spec(scheme: str, workload: str, seed: int) -> Dict[str, Any]:
    return {"scheme": scheme, "workload": workload,
            "setup": {"duration_h": SVC_HOURS, "seed": seed}}


def hot_specs(seed: int) -> List[Dict[str, Any]]:
    """The 12-spec pool ``svc_hot`` draws from."""
    return [_spec(s, w, seed) for s in POLICY_NAMES for w in HOT_WORKLOADS]


def _cold_base(seed: int) -> int:
    # Seed blocks 1000 apart; warm-up uses the six seeds below the base.
    return 1000 * seed + 100


def cold_spec(seed: int, index: int) -> Dict[str, Any]:
    """The ``index``-th never-seen spec: schemes x workloads cycled."""
    workloads = workload_names()
    return _spec(POLICY_NAMES[index % len(POLICY_NAMES)],
                 workloads[(index // len(POLICY_NAMES)) % len(workloads)],
                 _cold_base(seed) + index)


def warm_specs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """Set-up traffic: each hot spec once, or one cold spec per scheme."""
    if workload == "svc_hot":
        return hot_specs(seed)
    return [cold_spec(seed, index) for index in range(-len(POLICY_NAMES), 0)]


def phase_sample(workload: str, seed: int) -> List[RunRequest]:
    """One scalar request per scheme, re-run under the tick profiler."""
    if workload == "grid":
        return [RunRequest(s, "PR",
                           setup=ExperimentSetup(duration_h=GRID_HOURS,
                                                 seed=seed))
                for s in POLICY_NAMES]
    if workload == "faults":
        return fault_requests(seed)[1::2 * len(workload_names())]
    if workload == "svc_hot":
        specs = hot_specs(seed)[::len(HOT_WORKLOADS)]
    else:
        specs = [cold_spec(seed, index) for index in range(len(POLICY_NAMES))]
    return [request_from_spec(spec) for spec in specs]
