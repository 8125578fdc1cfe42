"""Tests for fault events and schedule specs (validation, round-trip)."""

import json

import pytest

from repro.errors import FaultSpecError, ReproError
from repro.faults import (
    EVENT_REGISTRY,
    EVENT_TYPES,
    FAULT_CLASSES,
    BatteryCellAging,
    FaultSchedule,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
    dump_schedule,
    event_from_dict,
    load_schedule,
    schedule_from_dict,
)


class TestEventValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(FaultSpecError):
            UtilityOutage(start_s=-1.0, duration_s=10.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(FaultSpecError):
            UtilityOutage(start_s=0.0, duration_s=-5.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_brownout_fraction_bounds(self, fraction):
        with pytest.raises(FaultSpecError):
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=fraction)

    @pytest.mark.parametrize("fade", [-0.01, 1.0])
    def test_aging_fade_bounds(self, fade):
        with pytest.raises(FaultSpecError):
            BatteryCellAging(start_s=0.0, fade_fraction=fade)

    def test_aging_resistance_growth_floor(self):
        with pytest.raises(FaultSpecError):
            BatteryCellAging(start_s=0.0, resistance_growth=0.5)

    def test_esr_multiplier_floor(self):
        with pytest.raises(FaultSpecError):
            SupercapESRDrift(start_s=0.0, esr_multiplier=0.9)

    def test_negative_leakage_rejected(self):
        with pytest.raises(FaultSpecError):
            SupercapLeakage(start_s=0.0, duration_s=10.0, leakage_w=-1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(FaultSpecError):
            SensorNoise(start_s=0.0, duration_s=10.0, sigma_fraction=-0.1)

    def test_spec_error_is_repro_error(self):
        assert issubclass(FaultSpecError, ReproError)


class TestEventWindows:
    def test_windowed_half_open_interval(self):
        event = UtilityOutage(start_s=100.0, duration_s=50.0)
        assert not event.active_at(99.0)
        assert event.active_at(100.0)
        assert event.active_at(149.0)
        assert not event.active_at(150.0)

    def test_step_event_persists(self):
        event = BatteryCellAging(start_s=100.0)
        assert not event.active_at(99.0)
        assert event.active_at(100.0)
        assert event.active_at(1e9)

    def test_registry_covers_every_type(self):
        assert set(EVENT_REGISTRY.values()) == set(EVENT_TYPES)
        assert set(FAULT_CLASSES) == set(EVENT_REGISTRY)

    def test_event_dict_round_trip(self):
        for cls in EVENT_TYPES:
            if cls.persistent:
                event = cls(start_s=30.0)
            else:
                event = cls(start_s=30.0, duration_s=60.0)
            assert event_from_dict(event.to_dict()) == event


class TestEventFromDict:
    def test_missing_kind(self):
        with pytest.raises(FaultSpecError, match="kind"):
            event_from_dict({"start_s": 0.0})

    def test_unknown_kind(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            event_from_dict({"kind": "gremlins", "start_s": 0.0})

    def test_unknown_field(self):
        with pytest.raises(FaultSpecError, match="bad fields"):
            event_from_dict({"kind": "outage", "start_s": 0.0,
                             "duration_s": 1.0, "strength": 3.0})

    def test_non_dict_payload(self):
        with pytest.raises(FaultSpecError):
            event_from_dict(["outage"])


class TestScheduleConstruction:
    def test_canonical_ordering(self):
        a = UtilityOutage(start_s=200.0, duration_s=10.0)
        b = UtilityBrownout(start_s=100.0, duration_s=10.0)
        c = SensorNoise(start_s=100.0, duration_s=10.0)
        assert (FaultSchedule.of(a, b, c).events
                == FaultSchedule.of(c, a, b).events
                == (b, c, a))

    def test_same_scenario_same_schedule(self):
        """Equal schedules regardless of construction order — the
        property that keeps cache keys canonical."""
        a = UtilityOutage(start_s=200.0, duration_s=10.0)
        b = UtilityBrownout(start_s=100.0, duration_s=10.0)
        assert FaultSchedule.of(a, b) == FaultSchedule.of(b, a)

    def test_non_event_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule(events=("outage",))

    def test_empty_properties(self):
        schedule = FaultSchedule.empty()
        assert schedule.is_empty
        assert len(schedule) == 0
        assert schedule.classes_present() == ()
        assert schedule.last_start_s() == 0.0

    def test_inspection(self):
        schedule = FaultSchedule.of(
            UtilityOutage(start_s=50.0, duration_s=10.0),
            UtilityOutage(start_s=300.0, duration_s=10.0),
            SensorNoise(start_s=100.0, duration_s=10.0))
        assert schedule.classes_present() == ("outage", "sensor_noise")
        assert schedule.last_start_s() == 300.0
        assert len(schedule) == 3

    def test_schedule_is_hashable(self):
        schedule = FaultSchedule.of(
            UtilityOutage(start_s=1.0, duration_s=2.0), seed=3)
        assert hash(schedule) == hash(
            FaultSchedule.of(UtilityOutage(start_s=1.0, duration_s=2.0),
                             seed=3))


class TestScheduleSpec:
    def test_dict_round_trip(self):
        schedule = FaultSchedule.of(
            UtilityBrownout(start_s=10.0, duration_s=60.0,
                            budget_fraction=0.7),
            BatteryCellAging(start_s=0.0, fade_fraction=0.15),
            seed=42)
        assert schedule_from_dict(schedule.to_dict()) == schedule

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown"):
            schedule_from_dict({"seed": 1, "events": [], "extra": True})

    @pytest.mark.parametrize("seed", ["7", 1.5, True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(FaultSpecError):
            schedule_from_dict({"seed": seed, "events": []})

    def test_events_must_be_list(self):
        with pytest.raises(FaultSpecError):
            schedule_from_dict({"events": {"kind": "outage"}})

    def test_non_dict_rejected(self):
        with pytest.raises(FaultSpecError):
            schedule_from_dict([])

    def test_file_round_trip(self, tmp_path):
        schedule = FaultSchedule.of(
            UtilityOutage(start_s=1800.0, duration_s=120.0),
            SensorNoise(start_s=0.0, duration_s=600.0,
                        sigma_fraction=0.3),
            seed=7)
        path = tmp_path / "spec.json"
        dump_schedule(schedule, path)
        assert load_schedule(path) == schedule

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FaultSpecError, match="cannot read"):
            load_schedule(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FaultSpecError, match="invalid JSON"):
            load_schedule(path)

    def test_load_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(FaultSpecError, match="invalid JSON"):
            load_schedule(path)

    def test_load_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 1, "events": [], "note": "\xff"}')
        with pytest.raises(FaultSpecError, match="cannot read"):
            load_schedule(path)

    def test_docstring_spec_format_parses(self):
        """The exact example from the module docstring must load."""
        payload = json.loads("""
        {
          "seed": 7,
          "events": [
            {"kind": "outage", "start_s": 1800.0, "duration_s": 120.0},
            {"kind": "brownout", "start_s": 3600.0, "duration_s": 600.0,
             "budget_fraction": 0.6},
            {"kind": "battery_aging", "start_s": 0.0,
             "fade_fraction": 0.15}
          ]
        }
        """)
        schedule = schedule_from_dict(payload)
        assert len(schedule) == 3
        assert schedule.seed == 7
