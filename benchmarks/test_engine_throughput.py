"""Benchmark: engine throughput with regression gates.

Unlike the figure benchmarks (which reproduce paper results), this one
guards the engine's *speed* along three axes:

* ``engine`` — single-scenario tick-loop throughput: the canonical
  HEB-D x PR run on the default six-server prototype configuration,
  reported as ticks/s.
* ``batch`` — multi-scenario sweep throughput: a 256-scenario sweep
  (every policy x every workload x six seeds) advanced by one
  ``BatchSimulation`` tick loop, reported as scenarios/s.  The same
  sweep is replayed sequentially through the scalar engine as a
  bit-exactness oracle (every ``RunResult`` must compare equal) and to
  record an honest batched-vs-scalar speedup.
* ``pilot`` — cold pilot-run PAT seeding: the HEB-D (dense grid) and
  HEB-S (coarse grid) tables for the default buffer, seeded with the
  policy seed cache cleared, as every fresh process pays it, reported
  as seedings/s (one seeding = one HEB-D plus one HEB-S table).  The seeded entries must equal the frozen scalar
  pilot's (``tests/core/pilot_oracle.py``), which is also timed once for
  the recorded speedup.
* ``faults`` — fault-storm sweep throughput: every policy x every
  workload under the ``resilience`` storm at two intensities (96
  scenarios), run as one batched group the way the runner executes it,
  reported as scenarios/s.  Every lane must equal scalar
  ``execute_request`` (injector included); the same scenarios without
  their schedules are timed too, so the faulted rate is reported next
  to the clean batched rate (the target is within 2x).
* ``grid`` — the lane kernels at the width the Figure 12 grid runs
  them: the first 54-lane chunk ``plan_units(workers=2)`` makes of
  ``run_fig12``'s 1 h requests, executed through
  ``execute_request_group`` with PAT seeds warm (best of three, build
  included), reported as lane-ticks/s.  Every lane must equal scalar
  ``execute_request``.

All measurements land in ``benchmarks/BENCH_engine.json`` and fail
when throughput regresses more than 30% below the matching section of
``benchmarks/BENCH_baseline.json``.

The baselines are keyed by a commit-agnostic hash of the benchmark
configuration (scenarios, durations, cluster and buffer sizing), so
editing the benchmark invalidates the baseline loudly instead of
silently comparing different workloads.  Set ``REPRO_BENCH_SKIP_GATE=1``
to measure without enforcing (e.g. on a loaded machine).
"""

from __future__ import annotations

import dataclasses
import itertools
from time import perf_counter

from repro.core import PowerAllocationTable, make_policy, policies
from repro.core.policies import POLICY_NAMES
from repro.experiments import run_fig12
from repro.experiments.resilience import fault_schedule_for
from repro.runner import using_runner
from repro.runner.batch import execute_request_group, plan_units
from repro.runner.request import (ExperimentSetup, RunRequest,
                                  build_simulation, execute_request)
from repro.sim import HybridBuffers, Simulation
from repro.sim.batch import BatchSimulation
from repro.storage import LeadAcidBattery, Supercapacitor
from repro.units import hours
from repro.workloads import get_workload
from tests.core.pilot_oracle import oracle_seed_entries

from .gate import (
    digest,
    enforce_gate,
    sizing_payload,
    write_section,
)

SCHEME = "HEB-D"
WORKLOAD = "PR"
DURATION_H = 2.0
SEED = 1
ROUNDS = 5

# The expected simulation outcome for this exact configuration; any
# optimization that changes the simulated numbers is a bug, not a win.
EXPECTED_EFFICIENCY = 0.9585311736123626

#: The batched sweep: every policy x every workload x six seeds, capped
#: at 256 scenarios (hundreds of lanes — the regime the batched engine
#: exists for).
WORKLOADS = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")
BATCH_SEEDS = range(1, 7)
BATCH_SCENARIOS = 256
BATCH_DURATION_H = 0.5
BATCH_ROUNDS = 3

#: Cold seedings timed per pilot measurement (best round is kept).
PILOT_ROUNDS = 3
#: The grids ``make_policy`` seeds each scheme's PAT over, and the step
#: it seeds with (``policies._build_seeded_pat``).
PILOT_GRIDS = {"HEB-D": policies._DENSE_GRID,
               "HEB-S": policies._COARSE_GRID}
PILOT_DT = 10.0


#: The fault-storm sweep: every policy x every workload x these
#: ``fault_schedule_for`` intensities, one batched group.
FAULT_INTENSITIES = (0.5, 1.0)
FAULT_DURATION_H = 0.5
FAULT_SEED = 1
FAULT_ROUNDS = 3


def _config_hash(setup: ExperimentSetup) -> str:
    """Commit-agnostic fingerprint of everything the measurement depends on."""
    payload = {
        "scheme": SCHEME,
        "workload": WORKLOAD,
        "duration_h": DURATION_H,
        "seed": SEED,
    }
    payload.update(sizing_payload(setup))
    return digest(payload)


def _batch_config_hash(requests) -> str:
    payload = {
        "duration_h": BATCH_DURATION_H,
        "scenarios": [[r.scheme, r.workload, r.setup.seed]
                      for r in requests],
    }
    payload.update(sizing_payload(requests[0].setup))
    return digest(payload)


def _measure() -> dict:
    setup = ExperimentSetup(duration_h=DURATION_H, seed=SEED)
    cluster = setup.cluster()
    hybrid = setup.hybrid()
    trace = get_workload(WORKLOAD, duration_s=hours(DURATION_H),
                         num_servers=cluster.num_servers,
                         server=cluster.server, seed=SEED)
    policy = make_policy(SCHEME, hybrid, None)

    def one_run():
        buffers = HybridBuffers(hybrid, include_sc=True)
        sim = Simulation(trace, policy, buffers, cluster_config=cluster)
        start = perf_counter()
        result = sim.run()
        return perf_counter() - start, result

    one_run()  # warm-up: imports, numpy caches, branch warm paths
    best_wall = None
    result = None
    for _ in range(ROUNDS):
        wall, result = one_run()
        if best_wall is None or wall < best_wall:
            best_wall = wall

    ticks = trace.num_samples
    return {
        "scheme": SCHEME,
        "workload": WORKLOAD,
        "duration_h": DURATION_H,
        "seed": SEED,
        "rounds": ROUNDS,
        "ticks": ticks,
        "wall_s": round(best_wall, 6),
        "ticks_per_s": round(ticks / best_wall, 1),
        "config_hash": _config_hash(setup),
        "energy_efficiency": result.metrics.energy_efficiency,
    }


def _batch_requests():
    combos = itertools.product(BATCH_SEEDS, POLICY_NAMES, WORKLOADS)
    return [
        RunRequest(scheme=scheme, workload=workload,
                   setup=ExperimentSetup(duration_h=BATCH_DURATION_H,
                                         seed=seed))
        for seed, scheme, workload in itertools.islice(
            combos, BATCH_SCENARIOS)
    ]


def _measure_batch() -> tuple[dict, list, list]:
    requests = _batch_requests()

    # Warm-up: policy seeding is memoized per scheme; a one-minute run
    # per scheme pays that cost before either timed pass.
    for scheme in POLICY_NAMES:
        execute_request(RunRequest(
            scheme=scheme, workload="WS",
            setup=ExperimentSetup(duration_h=1.0 / 60.0)))

    best_wall = None
    batched = None
    for _ in range(BATCH_ROUNDS):
        start = perf_counter()
        sims = [build_simulation(request) for request in requests]
        batched = BatchSimulation(sims).run_all()
        wall = perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall

    # One sequential pass through the scalar engine: the bit-exactness
    # oracle for the batched results, and the honest denominator for the
    # recorded speedup (single-shot — repeating a multi-second sweep is
    # not worth the bench time).
    start = perf_counter()
    scalar = [execute_request(request) for request in requests]
    scalar_wall = perf_counter() - start

    measurement = {
        "scenarios": len(requests),
        "duration_h": BATCH_DURATION_H,
        "schemes": list(POLICY_NAMES),
        "workloads": list(WORKLOADS),
        "seeds": list(BATCH_SEEDS),
        "rounds": BATCH_ROUNDS,
        "wall_s": round(best_wall, 6),
        "scenarios_per_s": round(len(requests) / best_wall, 2),
        "scalar_wall_s": round(scalar_wall, 6),
        "speedup_vs_scalar": round(scalar_wall / best_wall, 2),
        "config_hash": _batch_config_hash(requests),
    }
    return measurement, batched, scalar


def test_engine_throughput():
    measurement = _measure()
    write_section("engine", measurement)
    print()
    print(f"engine throughput: {measurement['ticks_per_s']:,.0f} ticks/s "
          f"({measurement['ticks']} ticks in {measurement['wall_s']:.3f} s)")

    # Correctness anchor: the timed run must produce the golden numbers.
    assert measurement["energy_efficiency"] == EXPECTED_EFFICIENCY

    enforce_gate("engine", measurement, "ticks_per_s", "ticks/s")


def test_batched_sweep_throughput():
    measurement, batched, scalar = _measure_batch()
    write_section("batch", measurement)
    print()
    print(f"batched sweep: {measurement['scenarios_per_s']:,.1f} "
          f"scenarios/s ({measurement['scenarios']} scenarios in "
          f"{measurement['wall_s']:.3f} s; "
          f"{measurement['speedup_vs_scalar']:.2f}x vs scalar)")

    # Correctness anchor: the batched sweep must be bit-identical to the
    # scalar oracle, scenario by scenario.
    requests = _batch_requests()
    assert len(batched) == len(scalar) == len(requests)
    for request, got, want in zip(requests, batched, scalar):
        assert got == want, (
            f"{request.scheme} x {request.workload} seed "
            f"{request.setup.seed} diverged from the scalar oracle")

    enforce_gate("batch", measurement, "scenarios_per_s", "scenarios/s")


def _pilot_config_hash(setup: ExperimentSetup) -> str:
    payload = {"grids": PILOT_GRIDS, "dt": PILOT_DT}
    payload.update(sizing_payload(setup))
    return digest(payload)


def _rows(pat: PowerAllocationTable) -> list:
    return [(e.sc_energy_j, e.battery_energy_j, e.power_w, e.r_lambda)
            for e in pat.entries()]


def _oracle_rows(hybrid, grid: dict) -> list:
    """The PAT rows the frozen scalar pilot seeds for ``grid``."""
    sc_config = hybrid.supercap.scaled_to_energy(hybrid.sc_energy_j)
    battery_config = hybrid.battery.scaled_to_energy(
        hybrid.battery_energy_j)
    pat = PowerAllocationTable()
    for row in oracle_seed_entries(
            lambda: Supercapacitor(sc_config),
            lambda: LeadAcidBattery(battery_config),
            hybrid.sc_energy_j, hybrid.battery_energy_j,
            soc_levels=grid["soc_levels"],
            power_levels_w=grid["power_levels_w"], dt=PILOT_DT):
        pat.add(*row, source="profile")
    return _rows(pat)


def _measure_pilot() -> tuple[dict, dict, dict]:
    setup = ExperimentSetup()
    hybrid = setup.hybrid()
    make_policy("HEB-S", hybrid)  # warm-up: imports, numpy caches

    best: dict = {}
    seeded = {}
    for _ in range(PILOT_ROUNDS):
        for scheme in PILOT_GRIDS:
            policies._SEED_CACHE.clear()
            start = perf_counter()
            policy = make_policy(scheme, hybrid)
            wall = perf_counter() - start
            best[scheme] = min(wall, best.get(scheme, wall))
            seeded[scheme] = _rows(policy.pat)

    start = perf_counter()
    oracle = {scheme: _oracle_rows(hybrid, grid)
              for scheme, grid in PILOT_GRIDS.items()}
    scalar_wall = perf_counter() - start

    wall = best["HEB-D"] + best["HEB-S"]
    measurement = {
        "rounds": PILOT_ROUNDS,
        "dt": PILOT_DT,
        "heb_d_s": round(best["HEB-D"], 6),
        "heb_s_s": round(best["HEB-S"], 6),
        "wall_s": round(wall, 6),
        "seedings_per_s": round(1.0 / wall, 3),
        "scalar_wall_s": round(scalar_wall, 6),
        "speedup_vs_scalar": round(scalar_wall / wall, 2),
        "config_hash": _pilot_config_hash(setup),
    }
    return measurement, seeded, oracle


def test_pilot_seeding_throughput():
    measurement, seeded, oracle = _measure_pilot()
    write_section("pilot", measurement)
    print()
    print(f"pilot seeding: {measurement['seedings_per_s']:.2f} cold "
          f"HEB-D+HEB-S seedings/s (HEB-D {measurement['heb_d_s']:.3f} s, "
          f"HEB-S {measurement['heb_s_s']:.3f} s; "
          f"{measurement['speedup_vs_scalar']:.2f}x vs the scalar pilot)")

    # Correctness anchor: the lane pilot seeds exactly the scalar
    # pilot's tables.
    assert seeded == oracle

    enforce_gate("pilot", measurement, "seedings_per_s", "seedings/s")


def _fault_requests() -> list:
    setup = ExperimentSetup(duration_h=FAULT_DURATION_H, seed=FAULT_SEED)
    duration_s = hours(FAULT_DURATION_H)
    return [
        RunRequest(scheme, workload, setup=setup,
                   faults=fault_schedule_for(intensity, duration_s,
                                             seed=FAULT_SEED))
        for scheme in POLICY_NAMES for workload in WORKLOADS
        for intensity in FAULT_INTENSITIES
    ]


def _faults_config_hash(requests) -> str:
    payload = {
        "duration_h": FAULT_DURATION_H,
        "scenarios": [[r.scheme, r.workload, r.faults.to_dict()]
                      for r in requests],
    }
    payload.update(sizing_payload(requests[0].setup))
    return digest(payload)


def _best_group_wall(requests, rounds: int) -> tuple[float, list]:
    """Best wall of ``rounds`` cold batched executions (build + run)."""
    best_wall = None
    results: list = []
    for _ in range(rounds):
        start = perf_counter()
        results = execute_request_group(requests)
        wall = perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return best_wall, results


def _measure_faults() -> tuple[dict, list, list]:
    requests = _fault_requests()
    clean = [dataclasses.replace(request, faults=None)
             for request in requests]

    # Warm-up: policy seeding is memoized per scheme (see the batch
    # section).
    for scheme in POLICY_NAMES:
        execute_request(RunRequest(
            scheme=scheme, workload="WS",
            setup=ExperimentSetup(duration_h=1.0 / 60.0)))

    wall, batched = _best_group_wall(requests, FAULT_ROUNDS)
    clean_wall, _ = _best_group_wall(clean, FAULT_ROUNDS)

    start = perf_counter()
    scalar = [execute_request(request) for request in requests]
    scalar_wall = perf_counter() - start

    measurement = {
        "scenarios": len(requests),
        "duration_h": FAULT_DURATION_H,
        "intensities": list(FAULT_INTENSITIES),
        "rounds": FAULT_ROUNDS,
        "wall_s": round(wall, 6),
        "scenarios_per_s": round(len(requests) / wall, 2),
        "clean_wall_s": round(clean_wall, 6),
        "clean_scenarios_per_s": round(len(requests) / clean_wall, 2),
        "faulted_vs_clean": round(clean_wall / wall, 3),
        "scalar_wall_s": round(scalar_wall, 6),
        "speedup_vs_scalar": round(scalar_wall / wall, 2),
        "config_hash": _faults_config_hash(requests),
    }
    return measurement, batched, scalar


def test_fault_sweep_throughput():
    measurement, batched, scalar = _measure_faults()
    write_section("faults", measurement)
    print()
    print(f"fault-storm sweep: {measurement['scenarios_per_s']:,.1f} "
          f"scenarios/s batched ({measurement['scenarios']} scenarios; "
          f"clean batched {measurement['clean_scenarios_per_s']:,.1f}/s, "
          f"ratio {measurement['faulted_vs_clean']:.2f}; "
          f"{measurement['speedup_vs_scalar']:.2f}x vs scalar)")

    # Correctness anchor: every faulted lane equals the scalar engine
    # with its injector.
    requests = _fault_requests()
    assert len(batched) == len(scalar) == len(requests)
    for request, got, want in zip(requests, batched, scalar):
        assert got == want, (
            f"{request.scheme} x {request.workload} under "
            f"{request.faults.to_dict()} diverged from the scalar oracle")

    enforce_gate("faults", measurement, "scenarios_per_s", "scenarios/s")


GRID_DURATION_H = 1.0
GRID_SEED = 1
GRID_WORKERS = 2
GRID_ROUNDS = 3


class _CapturingRunner:
    """A runner stand-in that records what a figure driver submits
    (and answers with placeholders, which the driver only slices)."""

    def __init__(self) -> None:
        self.requests: list = []

    def map(self, requests):
        self.requests.extend(requests)
        return [None] * len(requests)


def _grid_chunk() -> list:
    """The first unit ``plan_units`` makes of ``run_fig12``'s requests
    for a ``GRID_WORKERS``-worker runner: the lane width the grid's
    kernels actually run at."""
    runner = _CapturingRunner()
    with using_runner(runner):
        run_fig12(duration_h=GRID_DURATION_H, seed=GRID_SEED)
    units, _ = plan_units(runner.requests, workers=GRID_WORKERS)
    kind, chunk = units[0]
    assert kind == "group"
    return list(chunk)


def _grid_config_hash(requests) -> str:
    payload = {
        "duration_h": GRID_DURATION_H,
        "workers": GRID_WORKERS,
        "scenarios": [[r.scheme, r.workload, r.setup.budget_w, r.renewable]
                      for r in requests],
    }
    payload.update(sizing_payload(requests[0].setup))
    return digest(payload)


def _measure_grid() -> tuple[dict, list]:
    requests = _grid_chunk()
    # Warm-up: policy seeding is memoized per scheme (see the batch
    # section).
    for scheme in POLICY_NAMES:
        execute_request(RunRequest(
            scheme=scheme, workload="WS",
            setup=ExperimentSetup(duration_h=1.0 / 60.0)))
    wall, batched = _best_group_wall(requests, GRID_ROUNDS)
    ticks = build_simulation(requests[0]).trace.num_samples
    measurement = {
        "lanes": len(requests),
        "duration_h": GRID_DURATION_H,
        "ticks": ticks,
        "rounds": GRID_ROUNDS,
        "wall_s": round(wall, 6),
        "lane_ticks_per_s": round(len(requests) * ticks / wall, 1),
        "config_hash": _grid_config_hash(requests),
    }
    return measurement, batched


def test_grid_chunk_throughput():
    measurement, batched = _measure_grid()
    write_section("grid", measurement)
    print()
    print(f"grid chunk: {measurement['lane_ticks_per_s']:,.0f} lane-ticks/s "
          f"({measurement['lanes']} lanes x {measurement['ticks']} ticks, "
          f"best wall {measurement['wall_s']:.3f} s)")

    # Correctness anchor: every lane equals the scalar engine.
    requests = _grid_chunk()
    assert len(batched) == len(requests)
    for request, got in zip(requests, batched):
        assert got == execute_request(request), (
            f"{request.scheme} x {request.workload} diverged from the "
            f"scalar oracle")

    enforce_gate("grid", measurement, "lane_ticks_per_s", "lane-ticks/s")
