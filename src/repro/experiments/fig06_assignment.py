"""Figure 6: cluster runtime vs the number of servers assigned to SCs.

The Section 3.2 experiment: hold per-server demand constant, sweep how
many of the six servers draw from the SC pool (the rest draw from the
battery pool, with immediate fail-over when either empties), and record
how long the whole cluster stays powered.  The paper's finding — an
interior optimum; leaning fully on SCs cuts runtime ~25% — drives the
entire PAT design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import prototype_battery, prototype_buffer, prototype_supercap
from ..core.profiling import pilot_runtimes
from ..storage import LeadAcidBattery, Supercapacitor


@dataclass(frozen=True)
class AssignmentPoint:
    """Runtime for one server split."""

    servers_on_sc: int
    r_lambda: float
    runtime_s: float


def run_fig06(per_server_power_w: float = 55.0,
              num_servers: int = 6,
              sc_fraction: float = 0.3,
              dt: float = 5.0) -> Dict[int, AssignmentPoint]:
    """Sweep servers-on-SC from 0 to num_servers at constant demand."""
    hybrid = prototype_buffer(sc_fraction=sc_fraction)
    sc_config = prototype_supercap().scaled_to_energy(hybrid.sc_energy_j)
    battery_config = prototype_battery().scaled_to_energy(
        hybrid.battery_energy_j)
    deficit = per_server_power_w * num_servers
    ratios = [on_sc / num_servers for on_sc in range(num_servers + 1)]
    runtimes = pilot_runtimes(
        lambda: Supercapacitor(sc_config),
        lambda: LeadAcidBattery(battery_config),
        [(1.0, 1.0, deficit, ratio) for ratio in ratios], dt=dt)
    points: Dict[int, AssignmentPoint] = {}
    for on_sc, (ratio, runtime) in enumerate(zip(ratios, runtimes)):
        points[on_sc] = AssignmentPoint(servers_on_sc=on_sc,
                                        r_lambda=ratio, runtime_s=runtime)
    return points


def optimal_assignment(points: Dict[int, AssignmentPoint]) -> AssignmentPoint:
    """The split with the longest runtime."""
    return max(points.values(), key=lambda p: p.runtime_s)


def format_fig06(points: Dict[int, AssignmentPoint]) -> str:
    best = optimal_assignment(points)
    lines = ["Figure 6 — cluster runtime vs servers assigned to SCs",
             f"{'on SC':>6s} {'runtime(s)':>11s} {'vs best':>8s}"]
    for on_sc in sorted(points):
        point = points[on_sc]
        marker = " <- optimum" if on_sc == best.servers_on_sc else ""
        lines.append(f"{on_sc:>6d} {point.runtime_s:>11.0f} "
                     f"{point.runtime_s / best.runtime_s:>8.2f}{marker}")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI convenience
    print(format_fig06(run_fig06()))


if __name__ == "__main__":  # pragma: no cover
    main()
