"""The batched engine against its scalar bit-exactness oracle.

``BatchSimulation`` promises that advancing N scenarios through one
vectorized tick loop returns :class:`~repro.sim.RunResult` objects
**exactly equal** — every float bit-identical — to running each
scenario through the untouched scalar ``Simulation``.  This suite holds
the whole stack to that contract:

* every shipped policy, across mixed workloads and sizings, under both
  utility budgets and renewable supplies;
* hypothesis-driven random scenario sets (schemes, workloads, seeds,
  budgets, SC fractions mixed freely within one batch);
* fault-injected lanes mixed with clean ones: every event kind, windows
  that overlap and do not align with ticks, repeated aging steps and
  lanes without an SC pool, against the scalar engine with its
  injector (``fault_downtime_s`` included);
* the batched runner path: grouping (faulted requests join their
  grid's group), cache-key/hit accounting, and cache
  interchangeability between the batched and scalar paths;
* the degenerate shapes — empty batch, singleton batch;
* memory: the engine's peak does not grow with ticks x lanes.

Everything compares with ``==`` on the full result dataclasses: any
divergence in any metric, slot record, or lifetime figure fails.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ControllerConfig, SimulationConfig
from repro.errors import BatchCompatibilityError
from repro.core import make_policy
from repro.core.policies import POLICY_NAMES
from repro.faults import (
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultInjector,
    FaultSchedule,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
)
from repro.runner import (
    ExperimentRunner,
    ExperimentSetup,
    RunRequest,
    build_simulation,
    execute_request,
    plan_units,
)
from repro.sim import HybridBuffers, Simulation
from repro.perf import TickProfiler
from repro.sim.batch import BatchSimulation
from repro.units import hours
from repro.workloads import get_workload
from tests.faults.test_chaos import schedule_strategy

#: Short control slots keep runs fast while still crossing several
#: plan boundaries (the regime where lanes diverge hardest).
FAST_CONTROLLER = ControllerConfig(slot_seconds=60.0)

WORKLOADS = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")


def _request(scheme: str, workload: str, **kwargs) -> RunRequest:
    setup_kwargs = {
        "duration_h": kwargs.pop("duration_h", 0.1),
        "seed": kwargs.pop("seed", 1),
        "budget_w": kwargs.pop("budget_w", None),
        "sc_fraction": kwargs.pop("sc_fraction", 0.3),
        "total_energy_wh": kwargs.pop("total_energy_wh", 150.0),
    }
    return RunRequest(scheme=scheme, workload=workload,
                      setup=ExperimentSetup(**setup_kwargs),
                      controller=kwargs.pop("controller", FAST_CONTROLLER),
                      **kwargs)


def _batched(requests):
    return BatchSimulation(
        [build_simulation(request) for request in requests]).run_all()


def _assert_identical(batched, scalar):
    assert len(batched) == len(scalar)
    for index, (got, want) in enumerate(zip(batched, scalar)):
        for field in dataclasses.fields(want):
            got_value = getattr(got, field.name)
            want_value = getattr(want, field.name)
            assert got_value == want_value, (
                f"scenario {index}: RunResult.{field.name} diverged:\n"
                f"  batched: {got_value!r}\n  scalar:  {want_value!r}")


# ----------------------------------------------------------------------
# Exhaustive policy / workload coverage
# ----------------------------------------------------------------------

class TestPolicyCoverage:
    @pytest.mark.parametrize("scheme", POLICY_NAMES)
    def test_every_policy_bit_exact(self, scheme):
        """Each policy across three workloads in one mixed batch."""
        requests = [
            _request(scheme, workload, seed=3 + i,
                     budget_w=180.0 if i % 2 else None,
                     total_energy_wh=60.0 if i == 0 else 150.0)
            for i, workload in enumerate(("WC", "MS", "TS"))
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_mixed_policies_one_batch(self):
        """All six policies side by side in a single tick loop."""
        requests = [
            _request(scheme, WORKLOADS[i % len(WORKLOADS)], seed=11 + i,
                     sc_fraction=0.0 if scheme == "BaOnly" else 0.3)
            for i, scheme in enumerate(POLICY_NAMES)
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_renewable_lanes_bit_exact(self):
        requests = [
            _request(scheme, "WS", seed=90 + i, renewable=True)
            for i, scheme in enumerate(("HEB-D", "BaFirst", "SCFirst"))
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_policy_view_lanes_bit_exact(self):
        """Figure-13-style policy views of the physical buffers."""
        requests = [
            _request("HEB-S", "MS", seed=7, policy_sc_fraction=0.5,
                     policy_total_wh=90.0),
            _request("HEB-S", "MS", seed=7),
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])


# ----------------------------------------------------------------------
# Randomized scenario sets
# ----------------------------------------------------------------------

scenario_strategy = st.builds(
    dict,
    scheme=st.sampled_from(POLICY_NAMES),
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    budget_w=st.one_of(st.none(),
                       st.floats(min_value=150.0, max_value=400.0,
                                 allow_nan=False)),
    # 0.0 (no SC pool) is exercised deterministically above; several
    # policies reject an empty SC sizing at construction, scalar and
    # batched alike.
    sc_fraction=st.sampled_from((0.1, 0.3, 0.5)),
    total_energy_wh=st.sampled_from((40.0, 90.0, 150.0)),
)


class TestRandomizedScenarioSets:
    @given(scenarios=st.lists(scenario_strategy, min_size=2, max_size=5))
    @settings(max_examples=12, deadline=None)
    def test_random_mixed_batch_bit_exact(self, scenarios):
        requests = [_request(**scenario) for scenario in scenarios]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------

class TestDegenerateBatches:
    def test_empty_batch(self):
        assert BatchSimulation([]).run_all() == []

    def test_singleton_batch(self):
        """One-lane batches at 1 h, every scheme.

        A (ticks, 1) accumulator bank reduced along its (contiguous)
        tick axis is summed pairwise by numpy, which drifts from the
        scalar's tick-order sums once a run is long enough; the engine
        must accumulate sequentially at every lane width.
        """
        for index, scheme in enumerate(POLICY_NAMES):
            workload = ("PR", "WS", "TS", "MS")[index % 4]
            request = _request(scheme, workload, seed=3, duration_h=1.0)
            _assert_identical(_batched([request]),
                              [execute_request(request)])

    def test_singletons_stay_scalar_in_planning(self):
        """A lone compatible request is not worth a batched unit."""
        units, positions = plan_units([_request("HEB-F", "WC")])
        assert [kind for kind, _ in units] == ["single"]
        assert positions == [[0]]


# ----------------------------------------------------------------------
# Batch-wide phase profiling
# ----------------------------------------------------------------------

PHASES = ("slot", "schedule", "actuate", "buffers", "charge", "bookkeeping")


class TestBatchProfiler:
    def _requests(self):
        return [_request(scheme, workload, duration_h=0.25)
                for scheme in POLICY_NAMES for workload in ("PR", "TS")]

    def test_results_identical_with_and_without_profiler(self):
        requests = self._requests()
        batch = BatchSimulation(
            [build_simulation(request) for request in requests],
            profiler=TickProfiler())
        profiled = batch.run_all()
        _assert_identical(profiled, _batched(requests))
        assert all(result.perf is None for result in profiled)

        report = batch.perf
        assert report is not None
        assert report.ticks == build_simulation(
            requests[0]).trace.num_samples
        assert tuple(phase.name for phase in report.phases) == PHASES
        assert abs(sum(phase.share for phase in report.phases)
                   - 1.0) < 1e-9
        assert dict(report.counters)["lanes"] == len(requests)

    def test_unprofiled_batch_has_no_report(self):
        batch = BatchSimulation(
            [build_simulation(request) for request in self._requests()])
        batch.run_all()
        assert batch.perf is None

    def test_per_scenario_profilers_still_rejected(self):
        profiled = build_simulation(_request("HEB-D", "PR"))
        profiled.profiler = TickProfiler()
        with pytest.raises(BatchCompatibilityError, match="profiling"):
            BatchSimulation([profiled,
                             build_simulation(_request("HEB-D", "TS"))])


# ----------------------------------------------------------------------
# The batched runner path
# ----------------------------------------------------------------------

def _mixed_requests():
    faults = FaultSchedule(
        events=(UtilityOutage(start_s=60.0, duration_s=90.0),))
    return [
        _request("HEB-D", "WC", seed=21),
        _request("BaFirst", "MS", seed=22),
        # Faulted: joins the clean lanes of its grid.
        _request("SCFirst", "TS", seed=23, faults=faults),
        # Different slot grid: lands in its own (singleton) group.
        _request("HEB-S", "DA", seed=24,
                 controller=ControllerConfig(slot_seconds=120.0)),
        _request("HEB-F", "HB", seed=25),
    ]


class TestBatchedRunner:
    def test_planning_groups_faulted_with_clean_lanes(self):
        """Fault schedules no longer fork planning: only the slot grid
        separates requests."""
        units, positions = plan_units(_mixed_requests())
        kinds = sorted(kind for kind, _ in units)
        assert kinds == ["group", "single"]
        (group_positions,) = [
            pos for (kind, _), pos in zip(units, positions)
            if kind == "group"]
        assert group_positions == [0, 1, 2, 4]

    def test_runner_map_matches_scalar_per_request(self):
        requests = _mixed_requests()
        expected = [execute_request(r) for r in requests]
        runner = ExperimentRunner(jobs=1)
        _assert_identical(runner.map(requests), expected)

    def test_fault_lane_matches_scalar_fault_run(self):
        faulted = _mixed_requests()[2]
        runner = ExperimentRunner(jobs=1)
        _assert_identical([runner.run(faulted)],
                          [execute_request(faulted)])

    def test_cache_keys_interchange_with_scalar_path(self, tmp_path):
        from repro.runner import ResultCache

        requests = _mixed_requests()
        batched_cache = ResultCache(tmp_path / "cache")
        batched_runner = ExperimentRunner(jobs=1, cache=batched_cache,
                                          batch=True)
        first = batched_runner.map(requests)
        assert batched_runner.misses == len(requests)
        assert batched_runner.hits == 0

        # A scalar (non-batching) runner over the same cache must hit
        # every entry: the batched path writes under identical keys.
        scalar_runner = ExperimentRunner(jobs=1, cache=batched_cache,
                                         batch=False)
        second = scalar_runner.map(requests)
        assert scalar_runner.hits == len(requests)
        assert scalar_runner.misses == 0
        _assert_identical(second, first)


# ----------------------------------------------------------------------
# Fault injection on the lane loop
# ----------------------------------------------------------------------

faulted_lane_strategy = st.builds(
    dict,
    scheme=st.sampled_from(POLICY_NAMES),
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    budget_w=st.sampled_from((None, 180.0)),
    # Solar-fed lanes: sags scale the per-tick supply budget.
    renewable=st.booleans(),
    # The chaos suite's storms: every event kind, off-grid and
    # overlapping windows, some starting after this 360 s run ends.
    faults=st.one_of(st.none(), schedule_strategy),
)

#: Every event kind at once: overlapping windows, starts and ends off
#: the tick grid, two aging steps and two ESR drifts.
STORM = FaultSchedule.of(
    UtilityBrownout(start_s=20.5, duration_s=100.25, budget_fraction=0.4),
    UtilityBrownout(start_s=60.0, duration_s=30.0, budget_fraction=0.7),
    UtilityOutage(start_s=150.7, duration_s=40.1),
    BatteryCellAging(start_s=30.3, fade_fraction=0.3,
                     resistance_growth=2.5),
    BatteryCellAging(start_s=200.9, fade_fraction=0.2,
                     resistance_growth=1.5),
    BatteryOpenCircuit(start_s=240.2, duration_s=35.0),
    SupercapESRDrift(start_s=10.1, esr_multiplier=3.0),
    SupercapESRDrift(start_s=180.6, esr_multiplier=2.0),
    SupercapLeakage(start_s=5.5, duration_s=300.0, leakage_w=40.0),
    SupercapLeakage(start_s=100.5, duration_s=50.0, leakage_w=200.0),
    ConverterDropout(start_s=280.3, duration_s=20.4),
    SensorNoise(start_s=50.8, duration_s=250.0, sigma_fraction=0.5),
    seed=11)


class TestFaultedLanes:
    def test_storm_every_scheme_bit_exact(self):
        """All eight event kinds on every scheme (BaOnly lanes have no
        SC pool), next to clean lanes of the same schemes."""
        requests = []
        for index, scheme in enumerate(POLICY_NAMES):
            workload = WORKLOADS[index % len(WORKLOADS)]
            requests.append(_request(scheme, workload, seed=40 + index,
                                     budget_w=200.0, faults=STORM))
            requests.append(_request(scheme, workload, seed=40 + index,
                                     budget_w=200.0))
        batched = _batched(requests)
        _assert_identical(batched, [execute_request(r) for r in requests])
        faulted = [result.metrics.fault_downtime_s
                   for result in batched[::2]]
        assert any(buckets for buckets in faulted)
        assert all(result.metrics.fault_downtime_s is None
                   for result in batched[1::2])

    def test_unreachable_battery_backs_up_nothing(self):
        """A drained SC pool falls short while the battery is off the
        bus: the shortfall is shed, never served by the battery."""
        drained = FaultSchedule.of(
            SupercapLeakage(start_s=0.0, duration_s=120.0,
                            leakage_w=20000.0),
            BatteryOpenCircuit(start_s=30.5, duration_s=200.25))
        requests = [
            _request(scheme, workload, seed=60 + index, budget_w=150.0,
                     faults=drained)
            for index, (scheme, workload) in enumerate(
                (("SCFirst", "WS"), ("HEB-F", "TS"), ("BaFirst", "MS"),
                 ("HEB-D", "WC")))]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    @given(lanes=st.lists(faulted_lane_strategy, min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_random_faulted_batch_bit_exact(self, lanes):
        requests = [_request(**lane) for lane in lanes]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_golden_fault_scenarios_through_batched_runner(self):
        """The checked-in fault goldens, reproduced by lanes of one
        batched unit (fixtures unchanged)."""
        from repro.faults import schedule_from_dict
        from tests.faults.test_golden_scenarios import (
            SCENARIOS, assert_close, load_golden)

        requests, expected = [], []
        for name in SCENARIOS:
            golden = load_golden(name)
            params = golden["params"]
            setup = ExperimentSetup(duration_h=params["hours"],
                                    seed=params["seed"])
            schedule = schedule_from_dict(golden["schedule"])
            for scheme, row in golden["rows"].items():
                requests.append(RunRequest(scheme, params["workload"],
                                           setup=setup, faults=schedule))
                expected.append((f"{name} {scheme}", row))
        units, _ = plan_units(requests)
        assert [kind for kind, _ in units] == ["group"]
        results = ExperimentRunner(jobs=1).map(requests)
        for (label, row), result in zip(expected, results):
            for metric, value in row.items():
                actual = getattr(result.metrics, metric)
                if metric != "fault_downtime_s" or value is None:
                    assert_close(actual, value, f"{label}.{metric}")
                    continue
                assert set(actual) == set(value), label
                for kind, seconds in value.items():
                    assert_close(actual[kind], seconds,
                                 f"{label}.{metric}[{kind}]")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------

#: Tick length of the memory runs: coarse, so the traced runs stay
#: quick (tracemalloc taxes every allocation of the tick loop).
MEMORY_TICK_S = 5.0

#: Half-hour slots: what legitimately grows with the run (slot records
#: and policy history, per lane and slot) stays well below one column.
MEMORY_CONTROLLER = ControllerConfig(slot_seconds=1800.0)


def _traced_run_peak(duration_h: float, lanes: int) -> int:
    """``run_all``'s traced allocation peak above its starting point."""
    storm = FaultSchedule.of(
        UtilityBrownout(start_s=600.0, duration_s=900.0,
                        budget_fraction=0.5),
        SupercapLeakage(start_s=300.0, duration_s=1800.0, leakage_w=20.0),
        BatteryCellAging(start_s=1800.0, fade_fraction=0.2),
        SensorNoise(start_s=1200.0, duration_s=1800.0, sigma_fraction=0.3),
        seed=5)
    setup = ExperimentSetup()
    cluster, hybrid = setup.cluster(), setup.hybrid()
    sims = []
    for lane in range(lanes):
        scheme = POLICY_NAMES[lane % len(POLICY_NAMES)]
        trace = get_workload(WORKLOADS[lane % len(WORKLOADS)],
                             duration_s=hours(duration_h),
                             num_servers=cluster.num_servers,
                             server=cluster.server, dt_s=MEMORY_TICK_S,
                             seed=1 + lane % 3)
        sims.append(Simulation(
            trace,
            make_policy(scheme, hybrid=hybrid, controller=MEMORY_CONTROLLER),
            HybridBuffers(hybrid, include_sc=scheme != "BaOnly"),
            cluster_config=cluster, controller_config=MEMORY_CONTROLLER,
            sim_config=SimulationConfig(tick_seconds=MEMORY_TICK_S),
            injector=FaultInjector(storm) if lane % 2 else None))
    batch = BatchSimulation(sims)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        batch.run_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_run_peak_does_not_grow_with_ticks_times_lanes():
    """Doubling the duration of a 32-lane batch may raise the engine's
    peak by at most one (ticks, lanes) float64 column."""
    lanes = 32
    one_hour = _traced_run_peak(1.0, lanes)
    two_hours = _traced_run_peak(2.0, lanes)
    column_bytes = int(hours(1.0) / MEMORY_TICK_S) * lanes * 8
    assert two_hours - one_hour <= column_bytes, (
        f"peak grew {two_hours - one_hour} B from 1 h to 2 h "
        f"(1 h peak {one_hour} B)")
