"""Pilot-run profiling: the Figure 6 experiment and PAT seeding.

The paper obtains initial PAT values "via profiling in a pilot scheme like
Figure 6": hold the power mismatch constant, sweep the server split
between SCs and batteries, and record how long the cluster stays up.  The
optimum exists because leaning too hard on either device wastes the other
— SCs deplete quickly, batteries collapse under high current.

These routines run the same experiment against the device models, both to
regenerate Figure 6 and to seed :class:`PowerAllocationTable` instances.
Every pilot case — one (SC state, battery state, mismatch, ratio)
combination — is a lane of the batched storage models
(:class:`~repro.storage.batch.BatchSupercap`,
:class:`~repro.storage.batch.BatchBattery`), and :func:`pilot_runtimes`
advances all of them through one vectorized step loop whose per-lane
arithmetic is bit-identical to discharging the scalar devices.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Sequence, Tuple, Type,
                    TypeVar)

import numpy as np

from ..errors import ConfigurationError
from ..storage.batch import BatchBattery, BatchSupercap
from ..storage.battery import LeadAcidBattery
from ..storage.supercap import Supercapacitor
from ..units import hours
from .pat import PowerAllocationTable

SupercapFactory = Callable[[], Supercapacitor]
BatteryFactory = Callable[[], LeadAcidBattery]

#: One pilot case: ``(sc_soc, battery_soc, deficit_w, r_lambda)``.
PilotLane = Tuple[float, float, float, float]

_EPSILON = 1e-9

_DeviceT = TypeVar("_DeviceT", Supercapacitor, LeadAcidBattery)


def _lane_devices(factory: Callable[[], _DeviceT], kind: Type[_DeviceT],
                  socs: Sequence[float]) -> List[_DeviceT]:
    """One fresh ``factory`` device per lane, reset to that lane's SoC."""
    lanes = []
    for soc in socs:
        device = factory()
        if not isinstance(device, kind):
            raise ConfigurationError(
                f"pilot runs need a {kind.__name__} factory, got a "
                f"{type(device).__name__}")
        device.reset(soc)
        lanes.append(device)
    return lanes


def pilot_runtimes(sc_factory: SupercapFactory,
                   battery_factory: BatteryFactory,
                   lanes: Sequence[PilotLane],
                   dt: float = 5.0,
                   max_time_s: float = hours(4.0)) -> List[float]:
    """Sustained runtime of every pilot case, advanced together.

    In each lane the SC pool serves ``r_lambda * deficit_w`` and the
    battery pool the rest; when either pool cannot meet its share, the
    other immediately takes over the shortfall ("whenever one energy
    storage device is depleted, the other will take over the entire load
    immediately via power switches", Section 3.2).  A lane's runtime ends
    when its combined pools first fail to cover the deficit, or at
    ``max_time_s``; finished lanes are masked out of later steps, and
    once half of the current width has finished the live lanes are
    packed into narrower arrays.
    """
    for __, __, deficit_w, r_lambda in lanes:
        if deficit_w <= 0:
            raise ConfigurationError("deficit must be positive")
        if not 0.0 <= r_lambda <= 1.0:
            raise ConfigurationError("r_lambda must lie in [0, 1]")
    if not lanes:
        return []
    sc_socs, battery_socs, deficits, ratios = zip(*lanes)
    supercap = BatchSupercap(
        _lane_devices(sc_factory, Supercapacitor, sc_socs), dt)
    battery = BatchBattery(
        _lane_devices(battery_factory, LeadAcidBattery, battery_socs), dt)

    deficit = np.array(deficits, dtype=float)
    sc_share = np.array(ratios, dtype=float) * deficit
    ba_share = deficit - sc_share
    sc_on = sc_share > _EPSILON
    ba_on = ba_share > _EPSILON
    runtime = np.zeros(len(lanes))
    # The packed lanes still running, by their index into ``lanes``.
    ids = np.arange(len(lanes))
    alive = np.ones(len(lanes), dtype=bool)
    elapsed = 0.0
    while elapsed < max_time_s and ids.size:
        sc_unmet = supercap.telemetry.unmet_requests
        ba_unmet = battery.telemetry.unmet_requests
        delivered = (supercap.discharge(alive & sc_on, sc_share, dt)
                     + battery.discharge(alive & ba_on, ba_share, dt))
        short = alive & (deficit - delivered > 1e-6)
        if np.count_nonzero(short):
            # The batched models count exactly the scalar ``limited``
            # flows as unmet requests (and nothing off their mask).
            sc_limited = supercap.telemetry.unmet_requests != sc_unmet
            ba_limited = battery.telemetry.unmet_requests != ba_unmet
            # Fail-over: the other pool takes the remainder.  The four
            # masks are the scalar elif chain (SC limited, battery
            # limited, no SC share, no battery share), first match wins.
            shortfall = deficit - delivered
            sc_failed = short & sc_limited
            rest = short & ~sc_failed
            ba_failed = rest & ba_limited
            rest = rest & ~ba_failed
            sc_idle = rest & ~sc_on
            ba_idle = rest & sc_on & ~ba_on
            to_battery = sc_failed | ba_idle
            to_supercap = ba_failed | sc_idle
            if np.count_nonzero(to_battery):
                delivered = delivered + battery.discharge(
                    to_battery, np.where(to_battery, shortfall, 0.0), dt)
            if np.count_nonzero(to_supercap):
                delivered = delivered + supercap.discharge(
                    to_supercap, np.where(to_supercap, shortfall, 0.0), dt)
        battery.step_pending()

        # Only a lane short before fail-over can still be short after.
        failed = short & (deficit - delivered > 1e-6)
        if np.count_nonzero(failed):
            runtime[ids[failed]] = elapsed
            alive = alive & ~failed
            live = np.count_nonzero(alive)
            if 2 * live <= ids.size:
                # Half the width has finished: pack the live lanes so
                # the finished ones stop costing every later step.
                keep = alive.nonzero()[0]
                supercap.keep(keep)
                battery.keep(keep)
                ids, deficit, sc_share, ba_share, sc_on, ba_on = (
                    ids[keep], deficit[keep], sc_share[keep],
                    ba_share[keep], sc_on[keep], ba_on[keep])
                alive = np.ones(live, dtype=bool)
        elapsed += dt
    runtime[ids[alive]] = elapsed
    return runtime.tolist()


def runtime_for_ratio(sc_factory: SupercapFactory,
                      battery_factory: BatteryFactory,
                      deficit_w: float,
                      r_lambda: float,
                      sc_soc: float = 1.0,
                      battery_soc: float = 1.0,
                      dt: float = 5.0,
                      max_time_s: float = hours(4.0)) -> float:
    """Sustained runtime for one (state, mismatch, ratio) combination.

    A single-lane :func:`pilot_runtimes`.
    """
    return pilot_runtimes(sc_factory, battery_factory,
                          [(sc_soc, battery_soc, deficit_w, r_lambda)],
                          dt=dt, max_time_s=max_time_s)[0]


def _best_ratio(ratios: Sequence[float],
                runtimes: Sequence[float]) -> Tuple[float, Dict[float, float]]:
    """The longest-runtime ratio (ties go to the split nearest 0.5)."""
    by_ratio = dict(zip(ratios, runtimes))
    best = max(by_ratio, key=lambda r: (by_ratio[r], -abs(r - 0.5)))
    return best, by_ratio


def profile_optimal_ratio(sc_factory: SupercapFactory,
                          battery_factory: BatteryFactory,
                          deficit_w: float,
                          ratios: Sequence[float] = tuple(
                              i / 10.0 for i in range(11)),
                          sc_soc: float = 1.0,
                          battery_soc: float = 1.0,
                          dt: float = 5.0,
                          ) -> Tuple[float, Dict[float, float]]:
    """Sweep R_lambda and return (best ratio, runtime per ratio).

    This is the Figure 6 experiment: "there is an optimal load assignment
    that can provide the longest discharging time."
    """
    if not ratios:
        raise ConfigurationError("need at least one ratio to profile")
    runtimes = pilot_runtimes(
        sc_factory, battery_factory,
        [(sc_soc, battery_soc, deficit_w, ratio) for ratio in ratios],
        dt=dt)
    return _best_ratio(ratios, runtimes)


def seed_pat(pat: PowerAllocationTable,
             sc_factory: SupercapFactory,
             battery_factory: BatteryFactory,
             sc_nominal_j: float,
             battery_nominal_j: float,
             soc_levels: Iterable[float] = (0.34, 0.67, 1.0),
             power_levels_w: Iterable[float] = (40.0, 80.0, 120.0, 160.0),
             ratios: Sequence[float] = tuple(i / 10.0 for i in range(11)),
             dt: float = 5.0) -> int:
    """Fill a PAT with profiled optima over a (state x mismatch) grid.

    Returns the number of entries written.  A denser grid gives HEB-D its
    head start; HEB-S deliberately uses a much coarser grid ("a static
    profiling table that has limited entries").  The whole grid — every
    cell times every ratio — runs as one :func:`pilot_runtimes` call.
    """
    socs = tuple(soc_levels)
    powers = tuple(power_levels_w)
    cells = [(sc_soc, battery_soc, power_w)
             for sc_soc in socs
             for battery_soc in socs
             for power_w in powers]
    if cells and not ratios:
        raise ConfigurationError("need at least one ratio to profile")
    runtimes = pilot_runtimes(
        sc_factory, battery_factory,
        [cell + (ratio,) for cell in cells for ratio in ratios], dt=dt)
    width = len(ratios)
    for index, (sc_soc, battery_soc, power_w) in enumerate(cells):
        best, __ = _best_ratio(
            ratios, runtimes[index * width:(index + 1) * width])
        pat.add(sc_soc * sc_nominal_j, battery_soc * battery_nominal_j,
                power_w, best, source="profile")
    return len(cells)
