"""The batched engine's lane kernels against their scalar oracles.

Each kernel is checked on its own, below the engine, where a defect
cannot hide behind the rest of the tick loop:

* :meth:`BatchScheduler.assign` against per-lane
  :func:`~repro.core.scheduler.reference_assign`;
* :class:`BatchBattery` (deferred KiBaM steps included) and its wear
  model, and :class:`BatchSupercap`, against the scalar device methods
  they transcribe, flow by flow;
* :func:`~repro.core.profiling.pilot_runtimes` across its lane
  re-packing against the frozen scalar pilot.

Every comparison is exact: floats with ``==`` and the sign of zero.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import prototype_battery, prototype_supercap
from repro.core.batch import BatchScheduler
from repro.core.profiling import pilot_runtimes
from repro.core.scheduler import reference_assign
from repro.server.batch import (SOURCE_BATTERY, SOURCE_NONE,
                                SOURCE_SUPERCAP, SOURCE_UTILITY)
from repro.server.server import PowerSource
from repro.storage import LeadAcidBattery, Supercapacitor
from repro.storage.batch import BatchBattery, BatchLifetime, BatchSupercap
from repro.storage.lifetime import AhThroughputLifetimeModel

from .core.pilot_oracle import oracle_runtime

_CODES = {PowerSource.UTILITY: SOURCE_UTILITY,
          PowerSource.SUPERCAP: SOURCE_SUPERCAP,
          PowerSource.BATTERY: SOURCE_BATTERY,
          PowerSource.NONE: SOURCE_NONE}


def same(a: float, b: float) -> bool:
    """Bitwise float identity (``==`` plus the sign of zero; NaN == NaN)."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# -- scheduler ----------------------------------------------------------

@st.composite
def scheduler_case(draw):
    lanes = draw(st.integers(1, 5))
    servers = draw(st.integers(1, 8))
    # A small value pool makes tied demands common.
    pool = draw(st.lists(st.floats(0.0, 300.0), min_size=1, max_size=4))
    demands = np.array([[draw(st.sampled_from(pool))
                         for _ in range(servers)] for _ in range(lanes)])
    if draw(st.booleans()):
        available = None
    else:
        available = np.array([[draw(st.booleans()) for _ in range(servers)]
                              for _ in range(lanes)])
    budgets = []
    for lane in range(lanes):
        active = [float(d) for d, on in zip(
            demands[lane], [True] * servers if available is None
            else available[lane]) if on]
        total = sum(active)
        # Budgets on the cutoff boundary: the draw left after taking
        # the k hungriest servers, in the scalar's subtraction order.
        boundary = [total]
        for d in sorted(active, reverse=True):
            boundary.append(boundary[-1] - d)
        boundary = [b for b in boundary if b >= 0.0] or [0.0]
        budgets.append(draw(st.one_of(
            st.sampled_from(boundary), st.floats(0.0, 2400.0))))
    r_lambda = [draw(st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([math.nan, -0.5, 1.5, 0.5])))
        for _ in range(lanes)]
    use_sc = [draw(st.booleans()) for _ in range(lanes)]
    use_battery = [draw(st.booleans()) for _ in range(lanes)]
    return demands, available, budgets, r_lambda, use_sc, use_battery


@settings(max_examples=300, deadline=None)
@given(scheduler_case(), st.booleans())
def test_batch_scheduler_matches_reference(case, pass_totals):
    demands, available, budgets, r_lambda, use_sc, use_battery = case
    lanes, servers = demands.shape
    raw = np.array(r_lambda)
    # The engine hands the scheduler r_lambda clamped once per slot,
    # with the scalar's NaN -> 1.0 quirk.
    clamped = np.where(~(raw < 1.0), 1.0, np.where(raw < 0.0, 0.0, raw))
    total = None
    if pass_totals and available is None:
        total = np.zeros(lanes)
        for j in range(servers):
            total = total + demands[:, j]
    plan = BatchScheduler(lanes, servers).assign(
        demands, available, np.array(budgets, dtype=float), clamped,
        use_sc=np.array(use_sc), use_battery=np.array(use_battery),
        total=total)
    for lane in range(lanes):
        want = reference_assign(
            list(demands[lane]),
            [True] * servers if available is None else list(available[lane]),
            budgets[lane], r_lambda[lane], use_sc=use_sc[lane],
            use_battery=use_battery[lane])
        assert [int(code) for code in plan.sources[lane]] == [
            _CODES[source] for source in want.sources]
        assert same(plan.utility_draw_w[lane], want.utility_draw_w)
        assert same(plan.sc_draw_w[lane], want.sc_draw_w)
        assert same(plan.battery_draw_w[lane], want.battery_draw_w)
        assert int(plan.n_buffered[lane]) == want.n_buffered


# -- storage kernels ----------------------------------------------------

#: A step whose repeated sums drift from its multiples (six additions
#: of 0.1 are not 6 * 0.1 in floating point), so the time counters'
#: sequential accumulation is exercised too.
DT = 0.1


def _battery(kind: str, soc: float) -> LeadAcidBattery:
    config = prototype_battery()
    if kind == "zero_r":
        config = dataclasses.replace(config, internal_resistance_ohm=0.0)
    battery = LeadAcidBattery(config, soc=soc)
    if kind == "aged":
        battery.apply_aging(0.15, resistance_growth=3.0)
    if kind == "shallow":
        battery.set_depth_of_discharge(0.4)
    return battery


def _supercap(kind: str, soc: float):
    if kind == "parked":
        return None
    config = prototype_supercap()
    if kind == "zero_esr":
        config = dataclasses.replace(config, esr_ohm=0.0)
    sc = Supercapacitor(config)
    sc.reset(soc)
    if kind == "drifted":
        sc.apply_esr_drift(4.0)
    return sc


def _copies(factory, kinds, socs):
    return ([factory(k, s) for k, s in zip(kinds, socs)],
            [factory(k, s) for k, s in zip(kinds, socs)])


#: SoCs at the ends of the window, plus a few just above the battery's
#: DoD floor, where the Peukert-inverted floor limit binds.
SOCS = st.sampled_from([0.0, 0.05, 0.21, 0.2000001, 0.20005, 0.2003, 0.5,
                        0.999, 1.0])
POWER = st.sampled_from([0.0, 1e-7, 0.5, 20.0, 80.0, 250.0, 900.0, 5000.0])


@st.composite
def battery_case(draw):
    lanes = draw(st.integers(1, 6))
    kinds = [draw(st.sampled_from(["plain", "aged", "zero_r", "shallow"]))
             for _ in range(lanes)]
    socs = [draw(SOCS) for _ in range(lanes)]
    # One op per lane per tick: (kind, power, fallback power or None).
    ticks = [[(draw(st.sampled_from(["discharge", "charge", "rest"])),
               draw(POWER), draw(st.one_of(st.none(), POWER)))
              for _ in range(lanes)]
             for _ in range(draw(st.integers(1, 8)))]
    return kinds, socs, ticks


@settings(max_examples=150, deadline=None)
@given(battery_case())
def test_batch_battery_matches_scalar(case):
    """Discharge (with a second, fallback flow on the same lane and
    tick), charge and rest, with steps deferred to the tick's end and
    the wear model fed at landing, against the scalar battery and its
    lifetime model."""
    kinds, socs, ticks = case
    lanes = len(kinds)
    scalars, mirrors = _copies(_battery, kinds, socs)
    wear = [AhThroughputLifetimeModel(b.config) for b in scalars]
    batch = BatchBattery(mirrors, DT)
    batch.wear = BatchLifetime(
        [AhThroughputLifetimeModel(b.config) for b in scalars], DT)
    for ops in ticks:
        want = np.zeros(lanes)
        touched = np.zeros(lanes, dtype=bool)
        discharged = np.zeros(lanes, dtype=bool)
        power = np.array([p for _, p, _ in ops])
        for lane, (op, p, again) in enumerate(ops):
            if op == "discharge":
                result = scalars[lane].discharge(p, DT)
                wear[lane].observe_flow(result, DT, scalars[lane].soc)
                want[lane] = result.achieved_w
            elif op == "charge":
                want[lane] = scalars[lane].charge(p, DT).achieved_w
                wear[lane].observe_idle(DT)
        mask = np.array([op == "discharge" for op, _, _ in ops])
        if mask.any():
            got = batch.discharge(mask, power, DT)
            assert all(same(g, w) for g, w in zip(got, want * mask))
            touched |= mask
            discharged |= mask
        second = np.array([op == "discharge" and again is not None
                           for op, _, again in ops])
        if second.any():
            want2 = np.zeros(lanes)
            for lane in np.flatnonzero(second):
                result = scalars[lane].discharge(ops[lane][2], DT)
                wear[lane].observe_flow(result, DT, scalars[lane].soc)
                want2[lane] = result.achieved_w
            got = batch.discharge(
                second, np.array([a or 0.0 for _, _, a in ops]), DT)
            assert all(same(g, w) for g, w in zip(got, want2))
        mask = np.array([op == "charge" for op, _, _ in ops])
        if mask.any():
            got = batch.charge(mask, power, DT)
            assert all(same(g, w) for g, w in zip(got, want * mask))
            touched |= mask
        for lane in np.flatnonzero(~touched):
            scalars[lane].rest(DT)
            wear[lane].observe_idle(DT)
        batch.step_all()
        batch.telemetry.record_rest(~touched)
        batch.wear.observe_idle(~discharged, DT)
        for lane in range(lanes):
            state = scalars[lane].state
            assert same(batch.y1[lane], state.available_c)
            assert same(batch.y2[lane], state.bound_c)
    for lane in range(lanes):
        batch.write_back(lane, mirrors[lane])
        assert mirrors[lane].telemetry == scalars[lane].telemetry
        model = AhThroughputLifetimeModel(scalars[lane].config)
        batch.wear.write_back(lane, model)
        assert same(model._raw_throughput_c, wear[lane]._raw_throughput_c)
        assert same(model._effective_throughput_c,
                    wear[lane]._effective_throughput_c)
        assert same(model._observation_s, wear[lane]._observation_s)


@settings(max_examples=80, deadline=None)
@given(battery_case())
def test_batch_battery_pending_steps(case):
    """Without a settle, only lanes that flowed step (the pilot's
    protocol), each landing before its next flow."""
    kinds, socs, ticks = case
    lanes = len(kinds)
    scalars, mirrors = _copies(_battery, kinds, socs)
    batch = BatchBattery(mirrors, DT)
    for ops in ticks:
        mask = np.array([op != "rest" for op, _, _ in ops])
        power = np.array([p for _, p, _ in ops])
        want = np.zeros(lanes)
        for lane in np.flatnonzero(mask):
            want[lane] = scalars[lane].discharge(power[lane], DT).achieved_w
        got = batch.discharge(mask, power, DT)
        assert all(same(g, w) for g, w in zip(got, want))
        batch.step_pending()
        for lane in range(lanes):
            assert same(batch.y1[lane], scalars[lane].state.available_c)
            assert same(batch.y2[lane], scalars[lane].state.bound_c)


@st.composite
def supercap_case(draw):
    lanes = draw(st.integers(1, 6))
    kinds = [draw(st.sampled_from(["plain", "zero_esr", "drifted",
                                   "parked"]))
             for _ in range(lanes)]
    socs = [draw(SOCS) for _ in range(lanes)]
    ticks = [[(draw(st.sampled_from(["discharge", "charge", "rest"])),
               draw(POWER), draw(st.one_of(st.none(), POWER)),
               draw(st.sampled_from([0.0, 0.0, 3.0, 400.0])))
              for _ in range(lanes)]
             for _ in range(draw(st.integers(1, 6)))]
    return kinds, socs, ticks


@settings(max_examples=150, deadline=None)
@given(supercap_case())
def test_batch_supercap_matches_scalar(case):
    """Leakage, discharge (twice on one lane and tick), charge and rest
    against the scalar supercapacitor; parked lanes never flow."""
    kinds, socs, ticks = case
    lanes = len(kinds)
    scalars, mirrors = _copies(_supercap, kinds, socs)
    batch = BatchSupercap(mirrors, DT)
    present = np.array([s is not None for s in scalars])
    for ops in ticks:
        leak = np.array([w for _, _, _, w in ops])
        for lane in np.flatnonzero(present):
            scalars[lane].apply_leakage(leak[lane], DT)
        batch.apply_leakage(present, leak, DT)
        power = np.array([p for _, p, _, _ in ops])
        touched = np.zeros(lanes, dtype=bool)
        for op, flow in (("discharge", "discharge"), ("charge", "charge")):
            mask = present & np.array([o == op for o, _, _, _ in ops])
            if not mask.any():
                continue
            want = np.zeros(lanes)
            for lane in np.flatnonzero(mask):
                want[lane] = getattr(scalars[lane], flow)(
                    power[lane], DT).achieved_w
            got = getattr(batch, flow)(mask, power, DT)
            assert all(same(g, w) for g, w in zip(got, want))
            touched |= mask
        second = present & np.array([o == "discharge" and a is not None
                                     for o, _, a, _ in ops])
        if second.any():
            again = np.array([a or 0.0 for _, _, a, _ in ops])
            want = np.zeros(lanes)
            for lane in np.flatnonzero(second):
                want[lane] = scalars[lane].discharge(
                    again[lane], DT).achieved_w
            got = batch.discharge(second, again, DT)
            assert all(same(g, w) for g, w in zip(got, want))
        rest = present & ~touched
        for lane in np.flatnonzero(rest):
            scalars[lane].rest(DT)
        batch.rest(rest, DT)
        for lane in np.flatnonzero(present):
            assert same(batch.charge_c[lane], scalars[lane]._charge_c)
    for lane in np.flatnonzero(present):
        batch.write_back(lane, mirrors[lane])
        assert mirrors[lane].telemetry == scalars[lane].telemetry


def test_time_counters_are_sequential_sums():
    """Step-counted time counters read back as the scalar's running
    ``+= dt`` (not ``steps * dt``), for every count up to 40."""
    scalars = [LeadAcidBattery(prototype_battery()) for _ in range(40)]
    batch = BatchBattery(
        [LeadAcidBattery(prototype_battery()) for _ in range(40)], DT)
    for tick in range(40):
        resting = np.arange(40) > tick
        for lane in np.flatnonzero(resting):
            scalars[lane].rest(DT)
        batch.step_all()
        batch.telemetry.record_rest(resting)
    for lane, scalar in enumerate(scalars):
        assert same(batch.telemetry.rest_time_s[lane],
                    scalar.telemetry.rest_time_s)


# -- pilot re-packing ---------------------------------------------------

PILOT_DT = 5.0


def test_pilot_repacks_and_matches_oracle(monkeypatch):
    """Lanes that fail at very different times force several re-packs;
    every runtime still equals the scalar pilot's."""
    sc_config = prototype_supercap()
    battery_config = prototype_battery()

    def sc_factory():
        return Supercapacitor(sc_config)

    def battery_factory():
        return LeadAcidBattery(battery_config)

    lanes = [(sc_soc, ba_soc, deficit, ratio)
             for sc_soc in (0.1, 1.0)
             for ba_soc in (0.22, 0.6, 1.0)
             for deficit in (60.0, 400.0, 2500.0)
             for ratio in (0.0, 0.3, 1.0)]
    packs = []
    keep = BatchBattery.keep

    def counting_keep(self, kept):
        packs.append(kept.size)
        keep(self, kept)

    monkeypatch.setattr(BatchBattery, "keep", counting_keep)
    got = pilot_runtimes(sc_factory, battery_factory, lanes, dt=PILOT_DT,
                         max_time_s=3600.0)
    assert len(packs) >= 2
    want = [oracle_runtime(sc_factory, battery_factory, deficit, ratio,
                           sc_soc=sc_soc, battery_soc=ba_soc,
                           dt=PILOT_DT, max_time_s=3600.0)
            for sc_soc, ba_soc, deficit, ratio in lanes]
    assert got == want


@pytest.mark.parametrize("width", [1, 2, 3])
def test_pilot_narrow_widths(width):
    """One to three lanes, where a single finish crosses the re-pack
    threshold."""
    sc_config = prototype_supercap()
    battery_config = prototype_battery()
    lanes = [(1.0, 1.0, 150.0 * (i + 1), 0.5) for i in range(width)]
    got = pilot_runtimes(lambda: Supercapacitor(sc_config),
                         lambda: LeadAcidBattery(battery_config), lanes,
                         dt=PILOT_DT, max_time_s=1800.0)
    want = [oracle_runtime(lambda: Supercapacitor(sc_config),
                           lambda: LeadAcidBattery(battery_config),
                           deficit, ratio, sc_soc=sc, battery_soc=ba,
                           dt=PILOT_DT, max_time_s=1800.0)
            for sc, ba, deficit, ratio in lanes]
    assert got == want
