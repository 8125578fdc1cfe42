"""Frozen scalar pilot run: the bit-exactness oracle for the lane pilot.

This is the one-device-pair-at-a-time ``runtime_for_ratio`` loop that
:mod:`repro.core.profiling` ran before it advanced every pilot case as a
lane of the batched storage models.  It is kept verbatim as the
reference the lane kernel must reproduce bit for bit; do not optimize
it.  :func:`oracle_seed_entries` replays ``seed_pat`` on top of it and
returns the ``(sc_j, battery_j, power_w, r_lambda)`` rows it would add.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.storage.device import EnergyStorageDevice
from repro.units import hours

DeviceFactory = Callable[[], EnergyStorageDevice]

_EPSILON = 1e-9

DEFAULT_RATIOS = tuple(i / 10.0 for i in range(11))


def oracle_runtime(sc_factory: DeviceFactory,
                   battery_factory: DeviceFactory,
                   deficit_w: float,
                   r_lambda: float,
                   sc_soc: float = 1.0,
                   battery_soc: float = 1.0,
                   dt: float = 5.0,
                   max_time_s: float = hours(4.0)) -> float:
    """Sustained runtime for one (state, mismatch, ratio) combination."""
    if deficit_w <= 0:
        raise ConfigurationError("deficit must be positive")
    if not 0.0 <= r_lambda <= 1.0:
        raise ConfigurationError("r_lambda must lie in [0, 1]")
    supercap = sc_factory()
    battery = battery_factory()
    supercap.reset(sc_soc)
    battery.reset(battery_soc)

    elapsed = 0.0
    while elapsed < max_time_s:
        sc_share = r_lambda * deficit_w
        ba_share = deficit_w - sc_share

        delivered = 0.0
        sc_result = ba_result = None
        if sc_share > _EPSILON:
            sc_result = supercap.discharge(sc_share, dt)
            delivered += sc_result.achieved_w
        if ba_share > _EPSILON:
            ba_result = battery.discharge(ba_share, dt)
            delivered += ba_result.achieved_w

        shortfall = deficit_w - delivered
        if shortfall > 1e-6:
            # Fail-over: the other pool takes the remainder.
            if sc_result is not None and sc_result.limited:
                takeover = battery.discharge(shortfall, dt)
                delivered += takeover.achieved_w
            elif ba_result is not None and ba_result.limited:
                takeover = supercap.discharge(shortfall, dt)
                delivered += takeover.achieved_w
            elif sc_share <= _EPSILON:
                takeover = supercap.discharge(shortfall, dt)
                delivered += takeover.achieved_w
            elif ba_share <= _EPSILON:
                takeover = battery.discharge(shortfall, dt)
                delivered += takeover.achieved_w

        if deficit_w - delivered > 1e-6:
            break
        elapsed += dt
    return elapsed


def oracle_optimal_ratio(sc_factory: DeviceFactory,
                         battery_factory: DeviceFactory,
                         deficit_w: float,
                         ratios: Sequence[float] = DEFAULT_RATIOS,
                         sc_soc: float = 1.0,
                         battery_soc: float = 1.0,
                         dt: float = 5.0,
                         ) -> Tuple[float, Dict[float, float]]:
    """Sweep R_lambda and return (best ratio, runtime per ratio)."""
    if not ratios:
        raise ConfigurationError("need at least one ratio to profile")
    runtimes: Dict[float, float] = {}
    for ratio in ratios:
        runtimes[ratio] = oracle_runtime(
            sc_factory, battery_factory, deficit_w, ratio,
            sc_soc=sc_soc, battery_soc=battery_soc, dt=dt)
    best = max(runtimes, key=lambda r: (runtimes[r], -abs(r - 0.5)))
    return best, runtimes


def oracle_seed_entries(sc_factory: DeviceFactory,
                        battery_factory: DeviceFactory,
                        sc_nominal_j: float,
                        battery_nominal_j: float,
                        soc_levels: Iterable[float] = (0.34, 0.67, 1.0),
                        power_levels_w: Iterable[float] = (
                            40.0, 80.0, 120.0, 160.0),
                        ratios: Sequence[float] = DEFAULT_RATIOS,
                        dt: float = 5.0,
                        ) -> List[Tuple[float, float, float, float]]:
    """The rows ``seed_pat`` adds, in order, from the scalar pilot."""
    rows = []
    for sc_soc in soc_levels:
        for battery_soc in soc_levels:
            for power_w in power_levels_w:
                best, __ = oracle_optimal_ratio(
                    sc_factory, battery_factory, power_w, ratios=ratios,
                    sc_soc=sc_soc, battery_soc=battery_soc, dt=dt)
                rows.append((sc_soc * sc_nominal_j,
                             battery_soc * battery_nominal_j,
                             power_w, best))
    return rows
