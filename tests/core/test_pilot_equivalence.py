"""The lane-parallel pilot kernel against its frozen scalar oracle.

:func:`repro.core.profiling.pilot_runtimes` advances every pilot case as
a lane of the batched storage models.  Its contract is bit-identity with
the scalar one-case-at-a-time loop frozen in :mod:`.pilot_oracle`: the
same runtimes (compared with ``==``), hence the same profiled optima and
the same PAT entries, for every SoC pair, mismatch, ratio set, step and
buffer sizing the experiments seed with.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import prototype_buffer
from repro.core import PowerAllocationTable, seed_pat
from repro.core import policies
from repro.core.profiling import (
    pilot_runtimes,
    profile_optimal_ratio,
    runtime_for_ratio,
)
from repro.errors import ConfigurationError
from repro.experiments import fig13_ratio
from repro.runner import ExperimentSetup
from repro.storage import LeadAcidBattery, Supercapacitor

from .pilot_oracle import (
    oracle_optimal_ratio,
    oracle_runtime,
    oracle_seed_entries,
)

#: Every buffer sizing a policy is seeded with: the default setup
#: (Figures 12 and 14 keep it as the policy's view) and the Figure 13
#: usable-capacity views.
SIZINGS = [ExperimentSetup().hybrid()] + [
    prototype_buffer(sc_fraction=ratio,
                     total_energy_wh=fig13_ratio._USABLE_TOTAL_WH)
    for ratio in fig13_ratio.RATIOS]


def factories(hybrid):
    sc_config = hybrid.supercap.scaled_to_energy(hybrid.sc_energy_j)
    battery_config = hybrid.battery.scaled_to_energy(
        hybrid.battery_energy_j)
    return (lambda: Supercapacitor(sc_config),
            lambda: LeadAcidBattery(battery_config))


def rows(pat):
    return [(e.sc_energy_j, e.battery_energy_j, e.power_w, e.r_lambda,
             e.updates, e.source) for e in pat.entries()]


def oracle_pat(entries):
    pat = PowerAllocationTable()
    for sc_j, battery_j, power_w, ratio in entries:
        pat.add(sc_j, battery_j, power_w, ratio, source="profile")
    return pat


socs = st.floats(min_value=0.0, max_value=1.0)
ratio_sets = st.lists(
    st.floats(min_value=0.0, max_value=1.0), max_size=3,
).map(lambda extra: (0.0,) + tuple(extra) + (1.0,))
dts = st.sampled_from((5.0, 10.0, 20.0))
sizings = st.sampled_from(SIZINGS)


@settings(max_examples=15, deadline=None)
@given(hybrid=sizings, dt=dts,
       lanes=st.lists(st.tuples(
           socs, socs, st.floats(min_value=20.0, max_value=400.0),
           st.one_of(st.sampled_from((0.0, 1.0)),
                     st.floats(min_value=0.0, max_value=1.0))),
           max_size=6))
def test_runtimes_match_oracle(hybrid, dt, lanes):
    sc_factory, battery_factory = factories(hybrid)
    got = pilot_runtimes(sc_factory, battery_factory, lanes, dt=dt)
    want = [oracle_runtime(sc_factory, battery_factory, deficit, ratio,
                           sc_soc=sc_soc, battery_soc=battery_soc, dt=dt)
            for sc_soc, battery_soc, deficit, ratio in lanes]
    assert got == want


@settings(max_examples=10, deadline=None)
@given(hybrid=sizings, dt=dts,
       soc_levels=st.lists(socs, min_size=1, max_size=2).map(tuple),
       power_levels=st.lists(st.floats(min_value=30.0, max_value=300.0),
                             min_size=1, max_size=2).map(tuple),
       ratios=ratio_sets)
def test_seed_pat_matches_oracle(hybrid, dt, soc_levels, power_levels,
                                 ratios):
    sc_factory, battery_factory = factories(hybrid)
    pat = PowerAllocationTable()
    count = seed_pat(pat, sc_factory, battery_factory, hybrid.sc_energy_j,
                     hybrid.battery_energy_j, soc_levels=soc_levels,
                     power_levels_w=power_levels, ratios=ratios, dt=dt)
    entries = oracle_seed_entries(
        sc_factory, battery_factory, hybrid.sc_energy_j,
        hybrid.battery_energy_j, soc_levels=soc_levels,
        power_levels_w=power_levels, ratios=ratios, dt=dt)
    assert count == len(entries)
    assert rows(pat) == rows(oracle_pat(entries))


def test_profile_and_single_runtime_match_oracle():
    sc_factory, battery_factory = factories(SIZINGS[0])
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    got = profile_optimal_ratio(sc_factory, battery_factory, 160.0,
                                ratios=ratios, sc_soc=0.67,
                                battery_soc=0.34, dt=20.0)
    want = oracle_optimal_ratio(sc_factory, battery_factory, 160.0,
                                ratios=ratios, sc_soc=0.67,
                                battery_soc=0.34, dt=20.0)
    assert got == want
    assert list(got[1]) == list(want[1])  # same ratio order
    assert (runtime_for_ratio(sc_factory, battery_factory, 120.0, 0.3,
                              dt=20.0, max_time_s=300.0)
            == oracle_runtime(sc_factory, battery_factory, 120.0, 0.3,
                              dt=20.0, max_time_s=300.0)
            == 300.0)


@pytest.mark.parametrize("grid", ["_DENSE_GRID", "_COARSE_GRID"])
def test_policy_grids_match_oracle(grid, monkeypatch):
    """The PATs HEB-D (dense) and HEB-S (coarse) seed for the prototype
    buffer are exactly the scalar pilot's."""
    monkeypatch.setattr(policies, "_SEED_CACHE", {})
    hybrid = prototype_buffer()
    spec = getattr(policies, grid)
    pat = policies._build_seeded_pat(hybrid, None, spec)
    sc_factory, battery_factory = factories(hybrid)
    entries = oracle_seed_entries(
        sc_factory, battery_factory, hybrid.sc_energy_j,
        hybrid.battery_energy_j, soc_levels=spec["soc_levels"],
        power_levels_w=spec["power_levels_w"], dt=10.0)
    assert rows(pat) == rows(oracle_pat(entries))


# ----------------------------------------------------------------------
# Boundary parity: the same ConfigurationErrors, and no duck-typed
# devices (the lane models replicate exactly these two device classes).
# ----------------------------------------------------------------------

SC_FACTORY, BATTERY_FACTORY = factories(prototype_buffer())


def test_pilot_rejects_bad_lanes():
    with pytest.raises(ConfigurationError, match="deficit"):
        pilot_runtimes(SC_FACTORY, BATTERY_FACTORY,
                       [(1.0, 1.0, 100.0, 0.5), (1.0, 1.0, -1.0, 0.5)])
    with pytest.raises(ConfigurationError, match="r_lambda"):
        pilot_runtimes(SC_FACTORY, BATTERY_FACTORY,
                       [(1.0, 1.0, 100.0, -0.1)])
    assert pilot_runtimes(SC_FACTORY, BATTERY_FACTORY, []) == []


def test_seed_pat_rejects_empty_ratio_grid():
    hybrid = prototype_buffer()
    with pytest.raises(ConfigurationError):
        seed_pat(PowerAllocationTable(), SC_FACTORY, BATTERY_FACTORY,
                 hybrid.sc_energy_j, hybrid.battery_energy_j, ratios=())


def _wrong_sc():
    return LeadAcidBattery(prototype_buffer().battery)


def _wrong_battery():
    return Supercapacitor(prototype_buffer().supercap)


@pytest.mark.parametrize("sc_factory, battery_factory", [
    (_wrong_sc, BATTERY_FACTORY),
    (SC_FACTORY, _wrong_battery),
    (object, BATTERY_FACTORY),
])
def test_wrong_device_factories_raise(sc_factory, battery_factory):
    with pytest.raises(ConfigurationError, match="factory"):
        runtime_for_ratio(sc_factory, battery_factory, 100.0, 0.5)
    with pytest.raises(ConfigurationError, match="factory"):
        profile_optimal_ratio(sc_factory, battery_factory, 100.0)
    with pytest.raises(ConfigurationError, match="factory"):
        hybrid = prototype_buffer()
        seed_pat(PowerAllocationTable(), sc_factory, battery_factory,
                 hybrid.sc_energy_j, hybrid.battery_energy_j,
                 soc_levels=(1.0,), power_levels_w=(80.0,))

