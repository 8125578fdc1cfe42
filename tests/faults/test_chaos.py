"""Chaos suite: engine invariants under hypothesis-generated fault storms.

Every property here runs a full (small) simulation with a randomized
:class:`~repro.faults.FaultSchedule` injected and asserts the invariants
that no fault is allowed to break:

* energy accounting still balances (served + unserved == demand, buffer
  contribution == device outflow x converter efficiency);
* pool SoC stays in [0, 1];
* downtime is non-negative, and the per-fault-class attribution buckets
  sum to the run's total downtime;
* downtime is monotone non-decreasing in outage duration;
* the zero-fault schedule is bit-identical to a run with no injector.

The same invariants are checked lane by lane on the batched engine
(:class:`~repro.sim.batch.BatchSimulation`), where several storms share
one tick loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, prototype_buffer
from repro.core import POLICY_NAMES, make_policy
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
from repro.sim import HybridBuffers, Simulation
from repro.sim.batch import BatchSimulation
from repro.workloads.base import ClusterTrace

#: Simulated seconds per chaos run (kept small: every example is a full
#: engine run).
HORIZON_S = 600

#: Ceiling of the uniform per-server demand the chaos traces draw from
#: (bounds the demand a downed server could have asked for).
_MAX_SERVER_W = 150.0

_starts = st.floats(min_value=0.0, max_value=float(HORIZON_S))
_durations = st.floats(min_value=0.0, max_value=float(HORIZON_S))

event_strategy = st.one_of(
    st.builds(UtilityBrownout, start_s=_starts, duration_s=_durations,
              budget_fraction=st.floats(min_value=0.0, max_value=1.0)),
    st.builds(UtilityOutage, start_s=_starts, duration_s=_durations),
    st.builds(BatteryCellAging, start_s=_starts,
              fade_fraction=st.floats(min_value=0.0, max_value=0.9),
              resistance_growth=st.floats(min_value=1.0, max_value=5.0)),
    st.builds(BatteryOpenCircuit, start_s=_starts, duration_s=_durations),
    st.builds(SupercapESRDrift, start_s=_starts,
              esr_multiplier=st.floats(min_value=1.0, max_value=10.0)),
    st.builds(SupercapLeakage, start_s=_starts, duration_s=_durations,
              leakage_w=st.floats(min_value=0.0, max_value=50.0)),
    st.builds(ConverterDropout, start_s=_starts, duration_s=_durations),
    st.builds(SensorNoise, start_s=_starts, duration_s=_durations,
              sigma_fraction=st.floats(min_value=0.0, max_value=1.0)),
)

schedule_strategy = st.builds(
    lambda events, seed: FaultSchedule.of(*events, seed=seed),
    st.lists(event_strategy, min_size=0, max_size=5),
    st.integers(min_value=0, max_value=2**31 - 1))


def build_chaos(scheme, schedule, trace_seed=11, budget_w=260.0):
    """One small simulation with the schedule injected; returns
    (simulation, buffers, demand_j, cluster)."""
    rng = np.random.default_rng(trace_seed)
    cluster = ClusterConfig(utility_budget_w=budget_w)
    demands = rng.uniform(0.0, 150.0,
                          size=(cluster.num_servers, HORIZON_S))
    trace = ClusterTrace(demands, 1.0)
    hybrid = prototype_buffer()
    policy = make_policy(scheme, hybrid=hybrid)
    buffers = HybridBuffers(hybrid, include_sc=scheme != "BaOnly")
    injector = (FaultInjector(schedule)
                if schedule is not None and not schedule.is_empty
                else None)
    sim = Simulation(trace, policy, buffers, cluster_config=cluster,
                     injector=injector)
    return sim, buffers, float(demands.sum()) * trace.dt_s, cluster


def run_chaos(scheme, schedule, trace_seed=11, budget_w=260.0):
    """One small simulation with the schedule injected; returns
    (result, buffers, demand_j, cluster)."""
    sim, buffers, demand_j, cluster = build_chaos(scheme, schedule,
                                                  trace_seed, budget_w)
    return sim.run(), buffers, demand_j, cluster


def assert_invariants(result, buffers, demand_j, cluster, schedule):
    """The physical invariants no storm may break, for one run."""
    __tracebackhide__ = True
    metrics = result.metrics

    # Energy accounting balances: demand is either served or shed.
    # Two engine semantics (pre-dating fault injection, surfaced by
    # it because faults make shedding and restarting common) bound
    # the permitted gap:
    # * a RESTARTING server draws restart power instead of its
    #   workload and serves nothing (gap <= the restart ledger plus
    #   the unavailable demand, itself <= max draw x downtime);
    # * shed_lru shuts whole servers down, so the freed draw can
    #   overshoot the shortfall by at most one server's draw per
    #   shed event, and every shed event costs >= 1 s of downtime.
    # A run with no downtime and no restarts must balance exactly.
    total = metrics.served_energy_j + metrics.unserved_energy_j
    slack = (metrics.restart_energy_j
             + _MAX_SERVER_W * metrics.server_downtime_s)
    assert abs(total - demand_j) <= slack + 1e-6
    buffered = metrics.served_energy_j - metrics.utility_energy_j
    assert buffered == pytest.approx(
        metrics.buffer_energy_out_j * cluster.converter_efficiency,
        rel=1e-9, abs=1e-6)

    # Faults only ever *shrink* the budget, so the nominal cap holds.
    assert metrics.utility_energy_j <= (
        cluster.utility_budget_w * metrics.duration_s + 1e-6)

    # SoC confined to [0, 1] on every pool, aged or not.
    assert -1e-9 <= buffers.battery.soc <= 1.0 + 1e-9
    if buffers.sc is not None:
        assert -1e-9 <= buffers.sc.soc <= 1.0 + 1e-9

    # Downtime sane, and the attribution buckets account for all of
    # it (None when no injector ran or nothing accrued).
    assert metrics.server_downtime_s >= 0.0
    assert 0.0 <= metrics.downtime_fraction <= 1.0
    buckets = metrics.fault_downtime_s
    if schedule.is_empty or metrics.server_downtime_s == 0.0:
        assert buckets is None
    else:
        assert buckets is not None
        assert sum(buckets.values()) == pytest.approx(
            metrics.server_downtime_s, abs=1e-6)


@pytest.mark.parametrize("scheme", POLICY_NAMES)
class TestChaosInvariants:
    @given(schedule=schedule_strategy)
    @settings(max_examples=8, deadline=None)
    def test_invariants_hold_under_any_storm(self, scheme, schedule):
        result, buffers, demand_j, cluster = run_chaos(scheme, schedule)
        assert_invariants(result, buffers, demand_j, cluster, schedule)

    @given(schedule=schedule_strategy)
    @settings(max_examples=4, deadline=None)
    def test_fault_runs_are_deterministic(self, scheme, schedule):
        first, _, _, _ = run_chaos(scheme, schedule)
        second, _, _, _ = run_chaos(scheme, schedule)
        assert first == second


@pytest.mark.parametrize("scheme", POLICY_NAMES)
def test_zero_fault_schedule_bit_identical(scheme):
    """An injector built from the empty schedule must be invisible: the
    engine's fault hooks may not perturb a single bit of the result."""
    rng = np.random.default_rng(11)
    cluster = ClusterConfig()
    demands = rng.uniform(0.0, 150.0,
                          size=(cluster.num_servers, HORIZON_S))
    trace = ClusterTrace(demands, 1.0)
    hybrid = prototype_buffer()

    def run(injector):
        policy = make_policy(scheme, hybrid=hybrid)
        buffers = HybridBuffers(hybrid, include_sc=scheme != "BaOnly")
        return Simulation(trace, policy, buffers, cluster_config=cluster,
                          injector=injector).run()

    baseline = run(None)
    with_empty = run(FaultInjector(FaultSchedule.empty()))
    assert baseline == with_empty


def test_request_level_empty_schedule_identity():
    """Through the runner: a request carrying the empty schedule
    normalizes to the same cache key and the same bits as one that never
    mentioned faults."""
    from repro.runner.keys import cache_key
    from repro.runner.request import (
        ExperimentSetup,
        RunRequest,
        execute_request,
    )

    setup = ExperimentSetup(duration_h=0.25, seed=3)
    plain = RunRequest("HEB-D", "PR", setup=setup)
    with_empty = RunRequest("HEB-D", "PR", setup=setup,
                            faults=FaultSchedule.empty())
    assert with_empty.faults is None
    assert cache_key(plain) == cache_key(with_empty)
    assert execute_request(plain) == execute_request(with_empty)


@pytest.mark.parametrize("scheme", ["BaOnly", "SCFirst", "HEB-D"])
class TestOutageMonotonicity:
    @given(durations=st.tuples(
        st.floats(min_value=0.0, max_value=400.0),
        st.floats(min_value=0.0, max_value=400.0)))
    @settings(max_examples=6, deadline=None)
    def test_downtime_monotone_in_outage_duration(self, scheme,
                                                  durations):
        """Extending an outage (same start) never *reduces* downtime."""
        short_s, long_s = sorted(durations)

        def downtime(duration_s):
            schedule = FaultSchedule.of(
                UtilityOutage(start_s=150.0, duration_s=duration_s))
            result, _, _, _ = run_chaos(scheme, schedule)
            return result.metrics.server_downtime_s

        assert downtime(long_s) >= downtime(short_s) - 1e-9


# ----------------------------------------------------------------------
# The same invariants on the batched engine, lane by lane
# ----------------------------------------------------------------------

lane_strategy = st.tuples(st.sampled_from(POLICY_NAMES), schedule_strategy,
                          st.integers(min_value=0, max_value=2**16))


class TestBatchedChaosInvariants:
    @given(lanes=st.lists(lane_strategy, min_size=2, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_invariants_hold_on_every_lane(self, lanes):
        built = [build_chaos(scheme, schedule, trace_seed=seed)
                 for scheme, schedule, seed in lanes]
        results = BatchSimulation([sim for sim, _, _, _ in built]).run_all()
        for (_, schedule, _), (_, buffers, demand_j, cluster), result in zip(
                lanes, built, results):
            assert_invariants(result, buffers, demand_j, cluster, schedule)

    def test_zero_fault_lanes_match_injector_free_lanes(self):
        """Lanes carrying an empty-schedule injector equal their
        injector-free twins in the same batch."""
        sims = []
        for scheme in POLICY_NAMES:
            plain, _, _, _ = build_chaos(scheme, None)
            empty, _, _, _ = build_chaos(scheme, None)
            empty.injector = FaultInjector(FaultSchedule.empty())
            sims.extend((plain, empty))
        results = BatchSimulation(sims).run_all()
        for plain, empty in zip(results[::2], results[1::2]):
            assert plain == empty
