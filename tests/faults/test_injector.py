"""Unit tests for the FaultInjector tick protocol and its engine hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import prototype_buffer
from repro.core.policies.base import SlotObservation
from repro.errors import SimulationError
from repro.faults import (
    BASELINE_CLASS,
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
from repro.sim import HybridBuffers

from .test_chaos import HORIZON_S, schedule_strategy


def make_buffers():
    return HybridBuffers(prototype_buffer())


def make_injector(*events, seed=0):
    return FaultInjector(FaultSchedule.of(*events, seed=seed))


def observation(**overrides):
    defaults = dict(index=1, start_s=600.0, budget_w=260.0,
                    sc_usable_j=1000.0, battery_usable_j=2000.0,
                    sc_nominal_j=1500.0, battery_nominal_j=3000.0,
                    last_peak_w=300.0, last_valley_w=200.0,
                    last_peak_duration_s=30.0, num_servers=6)
    defaults.update(overrides)
    return SlotObservation(**defaults)


class TestTickProtocol:
    def test_time_must_not_go_backwards(self):
        injector = make_injector()
        buffers = make_buffers()
        injector.begin_tick(10.0, 1.0, buffers)
        with pytest.raises(SimulationError):
            injector.begin_tick(5.0, 1.0, buffers)

    def test_empty_schedule_is_inert(self):
        injector = make_injector()
        buffers = make_buffers()
        before = buffers.total_stored_j
        for now in (0.0, 1.0, 2.0):
            injector.begin_tick(now, 1.0, buffers)
        assert injector.sc_available and injector.battery_available
        assert injector.transform_budget(260.0) == 260.0
        assert injector.active_classes == ()
        assert buffers.total_stored_j == before
        obs = observation()
        assert injector.observe(obs) is obs


class TestSupplyFaults:
    def test_outage_zeroes_budget(self):
        injector = make_injector(UtilityOutage(start_s=5.0, duration_s=10.0))
        buffers = make_buffers()
        injector.begin_tick(0.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 260.0
        injector.begin_tick(5.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 0.0
        injector.begin_tick(15.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 260.0

    def test_overlapping_brownouts_take_deepest(self):
        injector = make_injector(
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.8),
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.5))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert injector.transform_budget(100.0) == pytest.approx(50.0)

    def test_outage_beats_brownout(self):
        injector = make_injector(
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.8),
            UtilityOutage(start_s=0.0, duration_s=10.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert injector.transform_budget(100.0) == 0.0


class TestPowerPathFaults:
    def test_battery_open_circuit_window(self):
        injector = make_injector(
            BatteryOpenCircuit(start_s=5.0, duration_s=5.0))
        buffers = make_buffers()
        injector.begin_tick(0.0, 1.0, buffers)
        assert injector.battery_available
        injector.begin_tick(5.0, 1.0, buffers)
        assert not injector.battery_available
        assert injector.sc_available
        injector.begin_tick(10.0, 1.0, buffers)
        assert injector.battery_available

    def test_converter_dropout_kills_both_pools(self):
        injector = make_injector(
            ConverterDropout(start_s=0.0, duration_s=5.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert not injector.sc_available
        assert not injector.battery_available


class TestDegradationSteps:
    def test_aging_applied_once(self):
        injector = make_injector(BatteryCellAging(start_s=5.0,
                                                  fade_fraction=0.2))
        buffers = make_buffers()
        fresh = buffers.battery_nominal_j
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.battery_nominal_j == fresh
        injector.begin_tick(5.0, 1.0, buffers)
        aged = buffers.battery_nominal_j
        assert aged == pytest.approx(0.8 * fresh)
        injector.begin_tick(6.0, 1.0, buffers)
        assert buffers.battery_nominal_j == aged

    def test_repeated_aging_composes_on_remaining(self):
        injector = make_injector(
            BatteryCellAging(start_s=0.0, fade_fraction=0.5),
            BatteryCellAging(start_s=10.0, fade_fraction=0.5))
        buffers = make_buffers()
        fresh = buffers.battery_nominal_j
        injector.begin_tick(0.0, 1.0, buffers)
        injector.begin_tick(10.0, 1.0, buffers)
        assert buffers.battery_nominal_j == pytest.approx(0.25 * fresh)

    def test_esr_drift_raises_resistance(self):
        injector = make_injector(SupercapESRDrift(start_s=0.0,
                                                  esr_multiplier=3.0))
        buffers = make_buffers()
        base = [d.esr_ohm for d in _sc_leaves(buffers)]
        injector.begin_tick(0.0, 1.0, buffers)
        drifted = [d.esr_ohm for d in _sc_leaves(buffers)]
        assert drifted == pytest.approx([3.0 * r for r in base])

    def test_leakage_drains_sc_only(self):
        injector = make_injector(
            SupercapLeakage(start_s=0.0, duration_s=60.0, leakage_w=20.0))
        buffers = make_buffers()
        sc_before = buffers.sc.stored_energy_j
        battery_before = buffers.battery.stored_energy_j
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.sc.stored_energy_j < sc_before
        assert buffers.battery.stored_energy_j == battery_before

    def test_leakage_counts_as_loss_not_output(self):
        injector = make_injector(
            SupercapLeakage(start_s=0.0, duration_s=60.0, leakage_w=20.0))
        buffers = make_buffers()
        out_before = buffers.energy_out_j()
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.energy_out_j() == out_before


def _sc_leaves(buffers):
    from repro.faults.injector import _leaf_devices
    return _leaf_devices(buffers.sc)


class TestObserve:
    def test_noise_flags_and_perturbs(self):
        injector = make_injector(
            SensorNoise(start_s=0.0, duration_s=600.0,
                        sigma_fraction=0.5), seed=3)
        injector.begin_tick(0.0, 1.0, make_buffers())
        obs = injector.observe(observation())
        assert obs.predictor_corrupted
        assert obs.degraded
        assert obs.last_valley_w <= obs.last_peak_w
        assert obs.last_peak_w >= 0.0

    def test_noise_is_seed_deterministic(self):
        def perturbed(seed):
            injector = make_injector(
                SensorNoise(start_s=0.0, duration_s=600.0,
                            sigma_fraction=0.5), seed=seed)
            injector.begin_tick(0.0, 1.0, make_buffers())
            obs = injector.observe(observation())
            return (obs.last_peak_w, obs.last_valley_w)

        assert perturbed(3) == perturbed(3)
        assert perturbed(3) != perturbed(4)

    def test_availability_flags_without_noise(self):
        injector = make_injector(
            ConverterDropout(start_s=0.0, duration_s=600.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        obs = injector.observe(observation())
        assert not obs.sc_available
        assert not obs.battery_available
        assert not obs.predictor_corrupted
        # Telemetry untouched: only the availability flags changed.
        assert obs.last_peak_w == observation().last_peak_w


class TestDowntimeAttribution:
    def test_no_faults_goes_to_baseline(self):
        injector = make_injector()
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(10.0)
        assert injector.downtime_by_class() == {BASELINE_CLASS: 10.0}

    def test_split_evenly_among_active_classes(self):
        injector = make_injector(
            UtilityOutage(start_s=0.0, duration_s=10.0),
            ConverterDropout(start_s=0.0, duration_s=10.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(10.0)
        assert injector.downtime_by_class() == {
            "converter_dropout": 5.0, "outage": 5.0}

    def test_duplicate_kinds_count_once(self):
        injector = make_injector(
            UtilityOutage(start_s=0.0, duration_s=10.0),
            UtilityOutage(start_s=5.0, duration_s=10.0))
        injector.begin_tick(6.0, 1.0, make_buffers())
        injector.attribute_downtime(8.0)
        assert injector.downtime_by_class() == {"outage": 8.0}

    def test_zero_delta_ignored(self):
        injector = make_injector()
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(0.0)
        assert injector.downtime_by_class() == {}

    def test_buckets_sum_to_total(self):
        injector = make_injector(
            UtilityOutage(start_s=5.0, duration_s=10.0))
        buffers = make_buffers()
        total = 0.0
        for now in range(0, 20):
            injector.begin_tick(float(now), 1.0, buffers)
            injector.attribute_downtime(2.0)
            total += 2.0
        assert sum(injector.downtime_by_class().values()) == (
            pytest.approx(total))


class TestTimeline:
    """The batched engine's change-point timeline against the state the
    scalar injector derives tick by tick."""

    @given(schedule=schedule_strategy,
           dt=st.sampled_from((1.0, 0.7, 2.5, 10.0)))
    @settings(max_examples=25, deadline=None)
    def test_timeline_matches_per_tick_state(self, schedule, dt):
        num_ticks = int(HORIZON_S / dt) + 3
        injector = FaultInjector(schedule)
        changes = {tick: (state, steps) for tick, state, steps
                   in injector.timeline(num_ticks, dt)}
        assert 0 in changes
        buffers = make_buffers()
        applied = [False] * len(schedule.events)
        state = None
        for tick in range(num_ticks):
            injector.begin_tick(tick * dt, dt, buffers)
            steps = ()
            if tick in changes:
                state, steps = changes[tick]
            assert injector.active_classes == state.classes
            assert injector.sc_available == state.sc_available
            assert injector.battery_available == state.battery_available
            assert injector.transform_budget(260.0) == (
                260.0 if state.budget_fraction >= 1.0
                else 260.0 * state.budget_fraction)
            due = tuple(
                event for index, event in enumerate(schedule.events)
                if event.persistent and event.active_at(tick * dt)
                and not applied[index])
            for index, event in enumerate(schedule.events):
                if event in due:
                    applied[index] = True
            assert steps == due
