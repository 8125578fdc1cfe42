"""Fault schedules: an ordered, canonical plan of what goes wrong when.

A :class:`FaultSchedule` is pure frozen data — a tuple of
:class:`~repro.faults.events.FaultEvent` plus the RNG seed the stochastic
faults (sensor noise) draw from.  It rides inside a
:class:`~repro.runner.RunRequest`, so fault scenarios inherit everything
the runner gives ordinary runs: content-addressed caching, process-pool
fan-out, and bit-for-bit serial/parallel equivalence.

Construction canonicalizes the event order (by start time, then kind,
then field values), so two schedules describing the same physical
scenario always produce the same cache key regardless of how their event
lists were assembled.

The on-disk spec format (``python -m repro run --faults spec.json``)::

    {
      "seed": 7,
      "events": [
        {"kind": "outage", "start_s": 1800.0, "duration_s": 120.0},
        {"kind": "brownout", "start_s": 3600.0, "duration_s": 600.0,
         "budget_fraction": 0.6},
        {"kind": "battery_aging", "start_s": 0.0, "fade_fraction": 0.15}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Tuple, Union

from ..errors import FaultSpecError
from .events import FaultEvent, event_from_dict


def _canonical_order(events: Iterable[FaultEvent]) -> Tuple[FaultEvent, ...]:
    """Deterministic event order: start time, kind, then field values."""
    return tuple(sorted(events,
                        key=lambda e: (e.start_s, e.kind,
                                       sorted(e.to_dict().items()))))


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, canonically-ordered fault scenario.

    Attributes:
        events: The fault events, sorted canonically on construction.
        seed: Seed of the schedule's private RNG (sensor noise draws);
            independent from the workload seed so noise realizations can
            be varied without changing the demand trace.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise FaultSpecError(
                    f"schedule events must be FaultEvent instances, "
                    f"got {type(event).__name__}")
        object.__setattr__(self, "events",
                           _canonical_order(self.events))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *events: FaultEvent, seed: int = 0) -> "FaultSchedule":
        """Build a schedule from events given as positional arguments."""
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """The fault-free schedule (injecting it is a provable no-op)."""
        return cls()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def classes_present(self) -> Tuple[str, ...]:
        """The distinct fault-class names in the schedule, sorted."""
        return tuple(sorted({event.kind for event in self.events}))

    def last_start_s(self) -> float:
        """Start time of the latest event (0.0 for an empty schedule)."""
        if not self.events:
            return 0.0
        return max(event.start_s for event in self.events)

    # ------------------------------------------------------------------
    # Spec (de)serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible spec form (inverse of :func:`schedule_from_dict`)."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }


def schedule_from_dict(payload: Dict[str, Any]) -> FaultSchedule:
    """Build a schedule from its spec dict.

    Raises:
        FaultSpecError: On a malformed document or any bad event.
    """
    if not isinstance(payload, dict):
        raise FaultSpecError(f"fault schedule spec must be an object, "
                             f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"seed", "events"})
    if unknown:
        raise FaultSpecError(
            f"unknown fault schedule keys: {', '.join(unknown)}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FaultSpecError(f"schedule seed must be an integer, "
                             f"got {seed!r}")
    raw_events = payload.get("events", [])
    if not isinstance(raw_events, list):
        raise FaultSpecError("schedule 'events' must be a list")
    events = tuple(event_from_dict(item) for item in raw_events)
    return FaultSchedule(events=events, seed=seed)


def load_schedule(path: Union[str, Path]) -> FaultSchedule:
    """Read a JSON fault-schedule spec from disk.

    Raises:
        FaultSpecError: On unreadable files, invalid JSON, or bad specs.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise FaultSpecError(
            f"cannot read fault schedule {str(path)!r}: {error}") from error
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise FaultSpecError(
            f"invalid JSON in fault schedule {str(path)!r}: "
            f"{error}") from error
    return schedule_from_dict(payload)


def dump_schedule(schedule: FaultSchedule, path: Union[str, Path]) -> None:
    """Write a schedule's JSON spec to disk (inverse of :func:`load_schedule`)."""
    Path(path).write_text(
        json.dumps(schedule.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
