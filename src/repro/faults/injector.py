"""The deterministic fault-state machine the engine consults every tick.

A :class:`FaultInjector` turns a frozen
:class:`~repro.faults.schedule.FaultSchedule` into the per-tick answers
the engine needs:

* :meth:`begin_tick` — advance to a simulation time: apply due step
  events (battery aging, ESR drift) to the buffers, drain active SC
  leakage, and recompute the active-fault snapshot.
* :meth:`transform_budget` — the supply-side view (brownouts/outages).
* :attr:`sc_available` / :attr:`battery_available` — the power-path view
  (open circuits, converter dropout).
* :meth:`observe` — the sensing view: perturb a slot observation's
  telemetry under active sensor noise and stamp availability flags.
* :meth:`attribute_downtime` — downtime bookkeeping per fault class,
  surfaced in :class:`~repro.sim.metrics.RunMetrics.fault_downtime_s`.

What the active faults amount to at one instant is derived in exactly
one place, :func:`fault_state`.  The scalar engine folds it every tick
(:meth:`FaultInjector.begin_tick`); the batched engine asks
:meth:`FaultInjector.timeline` for the same states laid out as constant
segments over its tick grid, so it re-derives nothing and touches a
lane's state only where that lane's faults change.

Determinism: all stochastic draws come from one private
``numpy.random.Generator`` seeded by the schedule, and draws happen
*only* when a sensor-noise window is active — an injector built from an
empty schedule performs no draws and no mutations, so a zero-fault run
is bit-identical to a run with no injector at all (asserted by test).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.policies.base import SlotObservation
from ..errors import SimulationError
from ..storage.bank import DeviceBank
from ..storage.battery import LeadAcidBattery
from ..storage.device import EnergyStorageDevice
from ..storage.supercap import Supercapacitor
from .events import (
    BASELINE_CLASS,
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultEvent,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
)
from .schedule import FaultSchedule


def _leaf_devices(device: Optional[EnergyStorageDevice]
                  ) -> List[EnergyStorageDevice]:
    """Flatten a pool (single device or relay-connected bank) to leaves."""
    if device is None:
        return []
    if isinstance(device, DeviceBank):
        leaves: List[EnergyStorageDevice] = []
        for member in device.devices:
            leaves.extend(_leaf_devices(member))
        return leaves
    return [device]


@dataclass(frozen=True)
class FaultState:
    """What the faults active at one instant amount to.

    Attributes:
        budget_fraction: Remaining fraction of the supply budget (the
            deepest active sag; 0.0 under an outage).
        battery_open: The battery bank is off the bus.
        converter_down: The buffer-side converter has failed.
        sensor_sigma: Relative sigma of the active sensor noise.
        leakage_w: Total parasitic SC drain.
        classes: Active fault classes (canonical order, deduped).
    """

    budget_fraction: float = 1.0
    battery_open: bool = False
    converter_down: bool = False
    sensor_sigma: float = 0.0
    leakage_w: float = 0.0
    classes: Tuple[str, ...] = ()

    @property
    def sc_available(self) -> bool:
        """Whether the SC pool is reachable."""
        return not self.converter_down

    @property
    def battery_available(self) -> bool:
        """Whether the battery pool is reachable."""
        return not (self.converter_down or self.battery_open)

    @property
    def attributed(self) -> Tuple[str, ...]:
        """The buckets downtime accrued in this state is charged to."""
        return self.classes or (BASELINE_CLASS,)


def fault_state(active: Sequence[FaultEvent]) -> FaultState:
    """Fold the active events (canonical order) into one state.

    The single derivation both engines consume: brownouts compose by
    their deepest sag, an outage zeroes the budget, leakages add up and
    sensor noise takes the largest sigma.
    """
    budget_fraction = 1.0
    battery_open = False
    converter_down = False
    sensor_sigma = 0.0
    leakage_w = 0.0
    for event in active:
        if isinstance(event, UtilityOutage):
            budget_fraction = 0.0
        elif isinstance(event, UtilityBrownout):
            budget_fraction = min(budget_fraction, event.budget_fraction)
        elif isinstance(event, BatteryOpenCircuit):
            battery_open = True
        elif isinstance(event, ConverterDropout):
            converter_down = True
        elif isinstance(event, SensorNoise):
            sensor_sigma = max(sensor_sigma, event.sigma_fraction)
        elif isinstance(event, SupercapLeakage):
            leakage_w += event.leakage_w
    return FaultState(
        budget_fraction=budget_fraction,
        battery_open=battery_open,
        converter_down=converter_down,
        sensor_sigma=sensor_sigma,
        leakage_w=leakage_w,
        classes=tuple(dict.fromkeys(event.kind for event in active)),
    )


def _active_ticks(event: FaultEvent, num_ticks: int, dt: float) -> range:
    """The ticks ``t`` whose start time ``t * dt`` the event is active at.

    The event's own :meth:`~repro.faults.events.FaultEvent.active_at`
    decides every tick (tick times increase, so the active ticks are
    one contiguous run): the run starts at the first tick the base
    class's ``now >= start_s`` rule accepts and ends at the first tick
    after it the event itself rejects.
    """
    ticks = range(num_ticks)
    first = bisect_left(ticks, True,
                        key=lambda t: FaultEvent.active_at(event, t * dt))
    stop = bisect_left(ticks, True, lo=first,
                       key=lambda t: not event.active_at(t * dt))
    return range(first, stop)


#: One change point of a timeline: ``(tick, state, steps)`` — ``state``
#: holds from ``tick`` until the next change point, and ``steps`` are the
#: persistent events first active at ``tick``, in canonical order.
TimelineChange = Tuple[int, FaultState, Tuple[FaultEvent, ...]]


def fault_timeline(events: Sequence[FaultEvent], num_ticks: int,
                   dt: float) -> List[TimelineChange]:
    """The events' fault states over a tick grid, as change points.

    One entry per tick where the active event set changes, in tick
    order; tick 0 always has one.
    """
    windows = [_active_ticks(event, num_ticks, dt) for event in events]
    cuts = {0}
    for window in windows:
        if window:
            cuts.add(window.start)
            cuts.add(window.stop)
    cuts.discard(num_ticks)
    changes: List[TimelineChange] = []
    for tick in sorted(cuts):
        active = [event for event, window in zip(events, windows)
                  if tick in window]
        steps = tuple(event for event, window in zip(events, windows)
                      if event.persistent and window
                      and window.start == tick)
        changes.append((tick, fault_state(active), steps))
    return changes


class FaultInjector:
    """Executes one :class:`FaultSchedule` against one simulation run.

    An injector is single-use: it carries applied-event and downtime
    state, so every run must construct its own (``execute_request``
    does).  The scalar engine mutates it through :meth:`begin_tick`,
    called exactly once per tick in time order; the batched engine
    reads its :meth:`timeline` and applies the due steps itself through
    :meth:`apply_step`.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._rng = np.random.default_rng(schedule.seed)
        self._events = schedule.events
        self._applied = [False] * len(schedule.events)
        self._fade_applied = 0.0
        self._now_s = -1.0

        # Snapshot of the world at the current tick, rebuilt by begin_tick.
        self._state = FaultState()

        self._downtime_by_class: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Tick protocol
    # ------------------------------------------------------------------

    def begin_tick(self, now_s: float, dt: float, buffers) -> None:
        """Advance the fault state to ``now_s`` and act on the buffers.

        Args:
            now_s: Simulation time of the tick start (must not go
                backwards; the injector is single-use).
            dt: Tick length in seconds.
            buffers: The run's :class:`~repro.sim.buffers.HybridBuffers`
                (step events and leakage mutate its devices).
        """
        if now_s < self._now_s:
            raise SimulationError(
                f"fault injector stepped backwards: {now_s} < {self._now_s}")
        self._now_s = now_s

        active: List[FaultEvent] = []
        for index, event in enumerate(self._events):
            if not event.active_at(now_s):
                continue
            active.append(event)
            if event.persistent and not self._applied[index]:
                self.apply_step(event, buffers)
                self._applied[index] = True
        self._state = fault_state(active)

        leakage_w = self._state.leakage_w
        if leakage_w > 0.0:
            for device in _leaf_devices(buffers.sc):
                if isinstance(device, Supercapacitor):
                    device.apply_leakage(leakage_w, dt)

    def timeline(self, num_ticks: int, dt: float) -> List[TimelineChange]:
        """The schedule's :func:`fault_timeline` over ``num_ticks`` ticks
        of ``dt`` seconds."""
        return fault_timeline(self._events, num_ticks, dt)

    def apply_step(self, event: FaultEvent, buffers) -> None:
        """Apply a persistent degradation step to the buffer devices."""
        if isinstance(event, BatteryCellAging):
            # Compose repeated aging steps: each fades the *remaining*
            # capacity, so total fade is monotone and stays below 1.
            self._fade_applied = (
                self._fade_applied
                + event.fade_fraction * (1.0 - self._fade_applied))
            for device in _leaf_devices(buffers.battery):
                if isinstance(device, LeadAcidBattery):
                    device.apply_aging(self._fade_applied,
                                       event.resistance_growth)
        elif isinstance(event, SupercapESRDrift):
            for device in _leaf_devices(buffers.sc):
                if isinstance(device, Supercapacitor):
                    device.apply_esr_drift(event.esr_multiplier)

    # ------------------------------------------------------------------
    # Per-tick queries (valid until the next begin_tick)
    # ------------------------------------------------------------------

    @property
    def sc_available(self) -> bool:
        """Whether the SC pool is reachable this tick."""
        return self._state.sc_available

    @property
    def battery_available(self) -> bool:
        """Whether the battery pool is reachable this tick."""
        return self._state.battery_available

    @property
    def active_classes(self) -> Tuple[str, ...]:
        """Fault classes in force this tick (canonical order, deduped)."""
        return self._state.classes

    def transform_budget(self, budget_w: float) -> float:
        """The supply budget after active brownouts/outages."""
        fraction = self._state.budget_fraction
        if fraction >= 1.0:
            return budget_w
        return budget_w * fraction

    def observe(self, observation: SlotObservation,
                state: Optional[FaultState] = None) -> SlotObservation:
        """The controller's (possibly corrupted) view of an observation.

        Under active sensor noise the realized peak/valley telemetry of
        the previous slot is perturbed multiplicatively and the
        observation is flagged ``predictor_corrupted``; pool-availability
        flags always reflect the current tick.  With no sensing or
        power-path fault active, the observation is returned unchanged
        (same object).

        Args:
            observation: The sensors' true reading.
            state: The fault state in force; defaults to the one
                :meth:`begin_tick` derived.  The batched engine, which
                follows the :meth:`timeline` instead of stepping the
                injector, passes its lane's state.
        """
        if state is None:
            state = self._state
        sc_ok = state.sc_available
        battery_ok = state.battery_available
        sigma = state.sensor_sigma
        if sigma <= 0.0 and sc_ok and battery_ok:
            return observation

        changes: Dict[str, object] = {
            "sc_available": sc_ok,
            "battery_available": battery_ok,
        }
        if sigma > 0.0:
            peak_gain = max(0.0, 1.0 + sigma * self._rng.standard_normal())
            valley_gain = max(0.0, 1.0 + sigma * self._rng.standard_normal())
            noisy_peak = observation.last_peak_w * peak_gain
            noisy_valley = min(noisy_peak,
                               observation.last_valley_w * valley_gain)
            changes["last_peak_w"] = noisy_peak
            changes["last_valley_w"] = noisy_valley
            changes["predictor_corrupted"] = True
        return dataclasses.replace(observation, **changes)

    # ------------------------------------------------------------------
    # Downtime attribution
    # ------------------------------------------------------------------

    def attribute_downtime(self, delta_s: float) -> None:
        """Charge newly-accrued downtime to the active fault classes.

        Downtime accrued while ``n`` fault classes are active is split
        evenly among them; downtime with no fault active is charged to
        the ``"baseline"`` bucket.  The buckets therefore always sum to
        the run's total downtime.
        """
        if delta_s <= 0.0:
            return
        classes = self._state.attributed
        share = delta_s / len(classes)
        for kind in classes:
            self._downtime_by_class[kind] = (
                self._downtime_by_class.get(kind, 0.0) + share)

    def downtime_by_class(self) -> Dict[str, float]:
        """Per-fault-class downtime attribution so far (sorted by class)."""
        return {kind: self._downtime_by_class[kind]
                for kind in sorted(self._downtime_by_class)}
