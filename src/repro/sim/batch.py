"""The batched multi-scenario engine: one tick loop, N scenarios.

:class:`BatchSimulation` advances N independent scalar
:class:`~repro.sim.engine.Simulation` scenarios through a single
vectorized tick loop, threading a leading *lane* axis through every
array the scalar engine already carries: per-server draws become
(lanes, servers), buffer wells and telemetry become (lanes,) columns,
and the metrics accumulator becomes a bank of (lanes,) running sums.
Per-scenario divergence — policy branches, slot plans, pool fallback,
shedding, restarts — is handled by boolean lane masks; the rare
genuinely sequential paths (LRU shedding, restart scans, slot closes)
drop to per-lane Python only on the lanes that need them.

The scalar ``Simulation`` is untouched and stays the bit-exactness
oracle: ``BatchSimulation([s1, ..., sN]).run_all()`` returns
:class:`~repro.sim.results.RunResult` objects **exactly equal** to
``[s1.run(), ..., sN.run()]``, per scenario.  Every expression here is
a lane-wise transcription of the scalar code with operand order,
branch structure, and epsilon thresholds preserved; where the scalar
engine leans on Python semantics (selection ``min``/``max``, CPython
``**``, element-order sums) the batch path replicates those semantics
rather than substituting the NumPy near-equivalent (see
:mod:`repro.storage.batch`).

Scenario sets must share the tick grid (trace length, ``dt``, slot
length) and the cluster shape; anything else — budgets, converter
efficiencies, policies, workloads, buffer sizings, supplies, fault
schedules — may vary per lane.  Incompatible sets raise
:class:`~repro.errors.BatchCompatibilityError`, which the batched
runner treats as "fall back to scalar".

Fault injection rides the same loop (:class:`BatchFaults`): each
faulted lane's :class:`~repro.faults.FaultInjector` lays its schedule
out as constant fault states over the tick grid, and the loop folds
them in exactly where the scalar engine's hooks fire — budget sags into
the lane's budget, pool reachability into the scheduler, buffer and
charge masks, SC leakage as a masked device step, aging and ESR drift
through the scalar device methods, sensor noise from the lane's own
RNG at slot boundaries, and downtime attribution per fault class.

Memory does not grow with ticks x lanes: demands and budgets are read
in blocks of :data:`_BLOCK_TICKS` ticks, the metric accumulators are
running per-lane sums, and only the current slot's demand totals are
kept for its analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.batch import BatchScheduler
from ..core.peaks import analyze_slots, expected_peak_duration_s
from ..core.policies.base import SlotObservation, SlotPlan, SlotResult
from ..errors import BatchCompatibilityError
from ..power.batch import BatchFabric, BatchIPDU
from ..server.batch import (SOURCE_SUPERCAP, SOURCE_UTILITY, BatchCluster,
                            SOURCE_BATTERY)
from ..storage.batch import BatchBattery, BatchLifetime, BatchSupercap
from ..storage.battery import LeadAcidBattery
from ..storage.supercap import Supercapacitor
from .buffers import HybridBuffers
from .engine import Simulation, _CALENDAR_LIFE_YEARS, _EPSILON
from .metrics import MetricsAccumulator, finalize_metrics
from .results import RunResult, SlotRecord

#: Widest cluster the batched path accepts: the per-tick demand totals
#: rely on ``np.add.reduce`` staying sequential, which numpy guarantees
#: only below its pairwise-summation threshold (the scalar engine keys
#: the same fast path on this width).
_MAX_BATCH_SERVERS = 8

#: Ticks of demand, budget and accumulator rows held at a time.
_BLOCK_TICKS = 128

#: Charge orders the merged three-call schedule can interleave without
#: per-group calls: every shipped policy emits one of these.  Any other
#: order (from a custom policy) falls back to the generic group loop.
_MERGEABLE_ORDERS = frozenset({
    (), ("sc",), ("battery",), ("sc", "battery"), ("battery", "sc")})


class BatchBuffers:
    """Lane-parallel :class:`~repro.sim.buffers.HybridBuffers`.

    Wraps one :class:`BatchBattery`, one :class:`BatchSupercap` (with
    absent lanes parked), and one :class:`BatchLifetime`, enforcing the
    scalar tick protocol: touched-pool tracking per tick, battery
    discharges feeding the lifetime model with the *post-step* SoC,
    battery charges and rests extending its observation window.  The
    engine calls the battery's flows directly (``battery.discharge``,
    ``battery.charge``): the battery tracks its own touched lanes.
    """

    def __init__(self, buffers: Sequence[HybridBuffers], dt: float) -> None:
        n = len(buffers)
        self.n = n
        self.scalars = list(buffers)
        self.battery = BatchBattery([b.battery for b in buffers], dt)
        self.sc = BatchSupercap([b.sc for b in buffers], dt)
        self.lifetime = BatchLifetime([b.lifetime for b in buffers], dt)
        # Battery discharges feed the lifetime model when their
        # deferred KiBaM step lands (it reads the post-step SoC).
        self.battery.wear = self.lifetime
        self.has_sc = self.sc.present
        self._sc_touched = np.zeros(n, dtype=bool)

    # -- state views ---------------------------------------------------

    def sc_usable_j(self) -> np.ndarray:
        return np.where(self.has_sc, self.sc.usable_j(), 0.0)

    def battery_usable_j(self) -> np.ndarray:
        return self.battery.usable_j()

    def sc_nominal_j(self) -> np.ndarray:
        return np.where(self.has_sc, self.sc.nominal_j, 0.0)

    def battery_nominal_j(self) -> np.ndarray:
        return self.battery.nominal_j

    # -- tick protocol -------------------------------------------------

    def begin_tick(self) -> None:
        # The battery tracks its own touched lanes (its pending steps).
        self._sc_touched[:] = False

    def discharge_sc(self, mask: np.ndarray, power_w: np.ndarray,
                     dt: float) -> np.ndarray:
        self._sc_touched |= mask
        return self.sc.discharge(mask, power_w, dt)

    def charge_sc(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        self._sc_touched |= mask
        return self.sc.charge(mask, power_w, dt)

    def settle(self, dt: float) -> None:
        # Every lane's battery steps once: the deferred flows land and
        # the untouched lanes rest, in one well update.
        touched, discharged = self.battery.step_all()
        self.battery.telemetry.record_rest(~touched)
        # Idle observation covers charged *and* rested lanes — exactly
        # the complement of this tick's discharges (charge and
        # discharge lanes are disjoint within a tick), merged into one
        # add since nothing reads the model mid-tick.
        self.lifetime.observe_idle(~discharged, dt)
        self.sc.rest(self.has_sc & ~self._sc_touched, dt)

    # -- finalization --------------------------------------------------

    def write_back(self) -> None:
        """Install final device state into every lane's scalar buffers."""
        for lane in range(self.n):
            self.write_back_lane(lane)

    def write_back_lane(self, lane: int) -> None:
        """Install one lane's device state into its scalar buffers."""
        buf = self.scalars[lane]
        self.battery.write_back(lane, buf.battery)
        if buf.sc is not None:
            self.sc.write_back(lane, buf.sc)
        self.lifetime.write_back(lane, buf.lifetime)

    def load_lane(self, lane: int) -> None:
        """Re-read one lane's devices after a scalar method mutated them
        (the fault path's aging and ESR-drift steps)."""
        buf = self.scalars[lane]
        self.battery.load_lane(lane, buf.battery)
        if buf.sc is not None:
            self.sc.load_lane(lane, buf.sc)


class BatchFaults:
    """The fault state of every lane, as (lanes,) columns.

    Each faulted lane's injector lays its schedule out as a
    :func:`~repro.faults.fault_timeline` (lanes with equal schedules
    share one); the columns change only at the ticks in ``changes``,
    where some lane's active event set changes.  Clean lanes keep the
    no-fault values for the whole run and are never attributed
    downtime.
    """

    def __init__(self, sims: Sequence[Simulation], num_ticks: int,
                 dt: float) -> None:
        n = len(sims)
        self.injectors = [sim.injector for sim in sims]
        timelines: Dict = {}
        #: tick -> [(lane, state, step events)] in lane order.
        self.changes: Dict[int, List[Tuple[int, object, tuple]]] = {}
        for lane, injector in enumerate(self.injectors):
            if injector is None:
                continue
            timeline = timelines.get(injector.schedule)
            if timeline is None:
                timeline = injector.timeline(num_ticks, dt)
                timelines[injector.schedule] = timeline
            for tick, state, steps in timeline:
                self.changes.setdefault(tick, []).append(
                    (lane, state, steps))
        #: Every downtime bucket any lane can charge, sorted by name
        #: (the order ``FaultInjector.downtime_by_class`` reports).
        self.kinds: List[str] = sorted({
            kind for timeline in timelines.values()
            for _, state, _ in timeline
            for kind in state.attributed})
        self.states: List = [None] * n
        self.budget_fraction = np.ones(n)
        self.sc_ok = np.ones(n, dtype=bool)
        self.ba_ok = np.ones(n, dtype=bool)
        self.leak_w = np.zeros(n)
        self.any_sag = False
        self.any_leak = False
        self._charged_by = np.zeros((n, len(self.kinds)), dtype=bool)
        self._num_charged = np.ones(n)
        self.downtime_s = np.zeros((n, len(self.kinds)))
        self._touched = np.zeros((n, len(self.kinds)), dtype=bool)

    def advance(self, tick: int, buffers: BatchBuffers) -> None:
        """Install the states that begin at ``tick`` and apply the step
        events falling due there.

        Aging and ESR drift are rare, so each runs the lane's own
        injector step on its written-back scalar devices, which the
        lane then re-reads.
        """
        for lane, state, steps in self.changes[tick]:
            self.states[lane] = state
            self.budget_fraction[lane] = state.budget_fraction
            self.sc_ok[lane] = state.sc_available
            self.ba_ok[lane] = state.battery_available
            self.leak_w[lane] = state.leakage_w
            attributed = state.attributed
            self._charged_by[lane] = [kind in attributed
                                      for kind in self.kinds]
            self._num_charged[lane] = len(attributed)
            if steps:
                buffers.write_back_lane(lane)
                for event in steps:
                    self.injectors[lane].apply_step(
                        event, buffers.scalars[lane])
                buffers.load_lane(lane)
        self.any_sag = bool(np.count_nonzero(self.budget_fraction < 1.0))
        self.any_leak = bool(np.count_nonzero(self.leak_w > 0.0))

    def observe(self, lane: int,
                observation: SlotObservation) -> SlotObservation:
        """What the lane's controller sees: the injector's view of the
        observation under the lane's state (sensor noise is drawn from
        the lane's own RNG); clean lanes see it unchanged."""
        injector = self.injectors[lane]
        if injector is None:
            return observation
        return injector.observe(observation, self.states[lane])

    def attribute_downtime(self, delta_s: np.ndarray) -> None:
        """Charge each lane's newly accrued downtime to its buckets.

        Lane-parallel ``FaultInjector.attribute_downtime``: a positive
        delta splits evenly over the lane's attributed classes, folded
        in tick order.
        """
        charged = self._charged_by & (delta_s > 0.0)[:, None]
        if np.count_nonzero(charged):
            share = delta_s / self._num_charged
            self.downtime_s = self.downtime_s + np.where(
                charged, share[:, None], 0.0)
            self._touched |= charged

    def downtime_by_class(self, lane: int) -> Optional[Dict[str, float]]:
        """The lane's ``RunMetrics.fault_downtime_s`` (None when clean
        or nothing accrued)."""
        if self.injectors[lane] is None:
            return None
        buckets = {kind: float(self.downtime_s[lane, index])
                   for index, kind in enumerate(self.kinds)
                   if self._touched[lane, index]}
        return buckets or None


def _check_compatible(sims: Sequence[Simulation]) -> None:
    """Raise :class:`BatchCompatibilityError` unless one tick loop fits."""
    first = sims[0]
    dt = first.sim_config.tick_seconds
    num_ticks = first.trace.num_samples
    slot_ticks = max(1, int(round(first.controller_config.slot_seconds / dt)))
    num_servers = first.cluster_config.num_servers
    server_config = first.cluster_config.server
    if num_servers > _MAX_BATCH_SERVERS:
        raise BatchCompatibilityError(
            f"batched path supports at most {_MAX_BATCH_SERVERS} servers, "
            f"got {num_servers}")
    for index, sim in enumerate(sims):
        if sim.profiler is not None:
            raise BatchCompatibilityError(
                f"scenario {index}: tick profiling requires the scalar path")
        if not isinstance(sim.buffers.battery, LeadAcidBattery):
            raise BatchCompatibilityError(
                f"scenario {index}: battery pool is not a single "
                "LeadAcidBattery")
        if sim.buffers.sc is not None and not isinstance(
                sim.buffers.sc, Supercapacitor):
            raise BatchCompatibilityError(
                f"scenario {index}: SC pool is not a single Supercapacitor")
        if abs(sim.sim_config.tick_seconds - dt) > 1e-12:
            raise BatchCompatibilityError(
                f"scenario {index}: tick length differs")
        if sim.trace.num_samples != num_ticks:
            raise BatchCompatibilityError(
                f"scenario {index}: trace length differs")
        sim_slot_ticks = max(1, int(round(
            sim.controller_config.slot_seconds / sim.sim_config.tick_seconds)))
        if sim_slot_ticks != slot_ticks:
            raise BatchCompatibilityError(
                f"scenario {index}: slot grid differs")
        if sim.cluster_config.num_servers != num_servers:
            raise BatchCompatibilityError(
                f"scenario {index}: cluster size differs")
        if sim.cluster_config.server != server_config:
            raise BatchCompatibilityError(
                f"scenario {index}: server configuration differs")


class BatchSimulation:
    """N scenario runs advanced by one vectorized tick loop.

    Args:
        sims: Freshly constructed scalar simulations, one per scenario.
            Their constructors have already validated trace/supply/config
            consistency; this class only adds cross-scenario checks.
            The scalar objects are *consumed*: their device state is
            advanced by the batch run exactly as their own ``run()``
            would have advanced it.
        profiler: Optional tick profiler (``repro.perf.TickProfiler``)
            for the whole batch, timing the scalar engine's six phases
            (slot, schedule, actuate, buffers, charge, bookkeeping).
            Injected, never imported: it reads the clock and nothing
            else, so results are identical with or without it.  Its
            report is :attr:`perf` after :meth:`run_all`; per-lane
            results keep ``perf=None``, and per-scenario profilers are
            still rejected.
    """

    def __init__(self, sims: Sequence[Simulation],
                 profiler=None) -> None:
        self.sims = list(sims)
        self.profiler = profiler
        #: The profiler's report for the last :meth:`run_all`.
        self.perf = None
        if self.sims:
            _check_compatible(self.sims)

    # ------------------------------------------------------------------

    def run_all(self) -> List[RunResult]:
        """Execute every scenario; returns per-scenario results in order.

        Each result is exactly equal to what the corresponding scalar
        ``Simulation.run()`` would have returned.
        """
        sims = self.sims
        if not sims:
            return []
        n = len(sims)
        first = sims[0]
        dt = first.sim_config.tick_seconds
        num_ticks = first.trace.num_samples
        slot_ticks = max(1, int(round(
            first.controller_config.slot_seconds / dt)))
        s = first.cluster_config.num_servers

        cluster = BatchCluster(n, s, first.cluster_config.server)
        scheduler = BatchScheduler(n, s)
        fabric = BatchFabric(n, s)
        ipdu = BatchIPDU(n, s)
        buffers = BatchBuffers([sim.buffers for sim in sims], dt)
        has_sc = buffers.has_sc
        faults = (BatchFaults(sims, num_ticks, dt)
                  if any(sim.injector is not None for sim in sims)
                  else None)
        # Pool reachability per lane (the fault columns, updated in
        # place; all-True without faults).
        if faults is None:
            sc_ok = ba_ok = np.ones(n, dtype=bool)
        else:
            sc_ok, ba_ok = faults.sc_ok, faults.ba_ok
        last_downtime_s = np.zeros(n)

        eff = np.array([sim.cluster_config.converter_efficiency
                        for sim in sims])
        one_m_eff = 1.0 - eff
        renewable = [sim.renewable for sim in sims]
        fixed_budget = [sim.cluster_config.utility_budget_w for sim in sims]

        # Running per-lane sums of the scalar accumulator.  Each block's
        # (ticks, lanes) rate rows are folded with ``np.cumsum`` over
        # ``[carry; rows * dt]``, a strictly sequential (tick-order)
        # accumulation at every lane width — bit-identical to the
        # scalar's per-tick ``+= w * dt``.  Rows a tick never stores
        # keep their zeros, matching the scalar's exact ``+= 0.0 * dt``.
        block_len = min(_BLOCK_TICKS, num_ticks)
        rows_served = np.zeros((block_len, n))
        rows_unserved = np.zeros((block_len, n))
        rows_utility = np.zeros((block_len, n))
        rows_charge = np.zeros((block_len, n))
        rows_loss = np.zeros((block_len, n))
        sums = [np.zeros(n) for _ in range(5)]
        deficit_ticks = np.zeros(n, dtype=np.int64)
        shed_events = np.zeros(n, dtype=np.int64)

        def fold(rows: int) -> None:
            for index, bank in enumerate((rows_served, rows_unserved,
                                          rows_utility, rows_charge,
                                          rows_loss)):
                sums[index] = np.cumsum(
                    np.concatenate((sums[index][None], bank[:rows] * dt)),
                    axis=0)[-1]
                bank.fill(0.0)

        # The current slot's per-tick demand totals (its analysis input)
        # and the budget in force at its start.
        slot_totals = np.zeros((min(slot_ticks, num_ticks), n))
        slot_budget = np.zeros(n)

        # Per-lane slot state.
        plans: List[Optional[SlotPlan]] = [None] * n
        observations: List[Optional[SlotObservation]] = [None] * n
        last_analysis: List = [None] * n
        slot_records: List[List[SlotRecord]] = [[] for _ in range(n)]
        slot_downtime_base = [0.0] * n
        slot_start = 0

        # Plan-derived lane arrays, rebuilt at each slot boundary (the
        # first tick is always a boundary, so these placeholders are
        # never read), and their fault-masked forms, rebuilt whenever
        # the plans or any lane's pool reachability change.
        r_lambda = np.zeros(n)
        plan_use_sc = np.zeros(n, dtype=bool)
        plan_use_battery = np.zeros(n, dtype=bool)
        plan_fallback = np.zeros(n, dtype=bool)
        plan_generic: Optional[Dict[Tuple[str, ...], np.ndarray]] = None
        plan_sc_lead = plan_bat = plan_sc_trail = np.zeros(n, dtype=bool)
        use_sc = use_battery = no_pools = plan_use_sc
        any_no_pools = False
        fallback_ba = fallback_sc = plan_fallback
        charge_sc_lead: Optional[np.ndarray] = None
        charge_bat: Optional[np.ndarray] = None
        charge_sc_trail: Optional[np.ndarray] = None

        for sim in sims:
            sim.policy.reset()

        def close_slot_lane(lane: int, analysis,
                            sc_usable: np.ndarray,
                            battery_usable: np.ndarray) -> None:
            observation = observations[lane]
            plan = plans[lane]
            assert observation is not None and plan is not None
            downtime = (cluster.total_downtime_lane(lane)
                        - slot_downtime_base[lane])
            peak_duration_s = expected_peak_duration_s(analysis)
            sc_usable_end = float(sc_usable[lane])
            battery_usable_end = float(battery_usable[lane])
            sims[lane].policy.end_slot(SlotResult(
                observation=observation,
                plan=plan,
                sc_usable_end_j=sc_usable_end,
                battery_usable_end_j=battery_usable_end,
                actual_peak_w=analysis.peak_w,
                actual_valley_w=analysis.valley_w,
                actual_peak_duration_s=peak_duration_s,
                downtime_s=downtime,
            ))
            slot_records[lane].append(SlotRecord(
                index=observation.index,
                note=plan.note,
                r_lambda=plan.r_lambda,
                peak_w=analysis.peak_w,
                valley_w=analysis.valley_w,
                peak_duration_s=peak_duration_s,
                sc_usable_end_j=sc_usable_end,
                battery_usable_end_j=battery_usable_end,
                downtime_in_slot_s=downtime,
            ))
            last_analysis[lane] = analysis

        block_start = block_end = 0
        stack = totals = budgets = np.zeros((0, n))

        prof = self.profiler
        with np.errstate(all="ignore"):
            for tick in range(num_ticks):
                now = tick * dt
                if prof is not None:
                    prof.begin_tick()
                if tick == block_end:
                    # --- next input block ---------------------------------
                    if tick:
                        fold(block_end - block_start)
                    block_start = tick
                    block_end = min(tick + block_len, num_ticks)
                    stack, totals, budgets = self._load_block(
                        block_start, block_end, fixed_budget)
                row = tick - block_start
                budget = budgets[row]

                # --- fault prologue ------------------------------------
                masks_stale = False
                if faults is not None:
                    if tick in faults.changes:
                        faults.advance(tick, buffers)
                        masks_stale = True
                    if faults.any_leak:
                        buffers.sc.apply_leakage(has_sc, faults.leak_w, dt)
                    if faults.any_sag:
                        # budget * 1.0 is the budget itself, so clean
                        # lanes keep the scalar's untransformed value.
                        budget = budget * faults.budget_fraction

                # --- slot boundary ------------------------------------
                if tick % slot_ticks == 0:
                    sc_usable = buffers.sc_usable_j()
                    battery_usable = buffers.battery_usable_j()
                    sc_nominal = buffers.sc_nominal_j()
                    battery_nominal = buffers.battery_nominal_j()
                    analyses = None
                    if plans[0] is not None:
                        # Every lane's plan is set at the same boundary,
                        # so one row-parallel analysis covers them all.
                        analyses = analyze_slots(
                            np.ascontiguousarray(
                                slot_totals[:tick - slot_start].T),
                            slot_budget, dt)
                    for lane in range(n):
                        if analyses is not None:
                            close_slot_lane(lane, analyses[lane],
                                            sc_usable, battery_usable)
                        slot_downtime_base[lane] = (
                            cluster.total_downtime_lane(lane))
                        analysis = last_analysis[lane]
                        if analysis is None:
                            last_peak = last_valley = last_duration = 0.0
                        else:
                            last_peak = analysis.peak_w
                            last_valley = analysis.valley_w
                            last_duration = expected_peak_duration_s(analysis)
                        observation = SlotObservation(
                            index=tick // slot_ticks,
                            start_s=now,
                            budget_w=float(budget[lane]),
                            sc_usable_j=float(sc_usable[lane]),
                            battery_usable_j=float(battery_usable[lane]),
                            sc_nominal_j=float(sc_nominal[lane]),
                            battery_nominal_j=float(battery_nominal[lane]),
                            last_peak_w=last_peak,
                            last_valley_w=last_valley,
                            last_peak_duration_s=last_duration,
                            num_servers=s,
                        )
                        if faults is not None:
                            # The controller sees what its sensors
                            # report.
                            observation = faults.observe(lane, observation)
                        observations[lane] = observation
                        plans[lane] = sims[lane].policy.begin_slot(
                            observation)
                    slot_start = tick
                    slot_budget = budget.copy()
                    r_lambda = np.array(
                        [p.r_lambda for p in plans], dtype=float)
                    # clamp(r_lambda, 0, 1) with the scalar's NaN -> 1.0
                    # quirk, hoisted out of the tick loop (plans are
                    # constant within a slot).
                    r_lambda = np.where(
                        ~(r_lambda < 1.0), 1.0,
                        np.where(r_lambda < 0.0, 0.0, r_lambda))
                    plan_use_battery = np.array(
                        [p.use_battery for p in plans], dtype=bool)
                    plan_fallback = np.array(
                        [p.fallback for p in plans], dtype=bool)
                    plan_use_sc = np.array(
                        [p.use_sc for p in plans], dtype=bool) & has_sc
                    orders = [p.charge_order for p in plans]
                    if all(o in _MERGEABLE_ORDERS for o in orders):
                        # Merged schedule: one SC call for sc-leading
                        # lanes, one battery call, one SC call for
                        # ("battery", "sc") lanes.
                        plan_generic = None
                        plan_sc_lead = np.array(
                            [o[:1] == ("sc",) for o in orders],
                            dtype=bool) & has_sc
                        plan_bat = np.array(
                            ["battery" in o for o in orders], dtype=bool)
                        plan_sc_trail = np.array(
                            [o == ("battery", "sc") for o in orders],
                            dtype=bool) & has_sc
                    else:
                        plan_generic = {}
                        for lane, plan in enumerate(plans):
                            mask = plan_generic.get(plan.charge_order)
                            if mask is None:
                                mask = np.zeros(n, dtype=bool)
                                plan_generic[plan.charge_order] = mask
                            mask[lane] = True
                    masks_stale = True
                    if prof is not None:
                        prof.mark("slot")

                if masks_stale:
                    # Unreachable pools neither serve their cohort, nor
                    # back up the other pool, nor absorb surplus.
                    use_sc = plan_use_sc & sc_ok
                    use_battery = plan_use_battery & ba_ok
                    no_pools = ~use_sc & ~use_battery
                    any_no_pools = bool(np.count_nonzero(no_pools))
                    fallback_ba = plan_fallback & ba_ok
                    fallback_sc = plan_fallback & has_sc & sc_ok
                    if plan_generic is None:
                        # Empty masks drop their call entirely.
                        lead = plan_sc_lead & sc_ok
                        charge_sc_lead = (lead if np.count_nonzero(lead)
                                          else None)
                        bat = plan_bat & ba_ok
                        charge_bat = bat if np.count_nonzero(bat) else None
                        trail = plan_sc_trail & sc_ok
                        charge_sc_trail = (trail
                                           if np.count_nonzero(trail)
                                           else None)

                # --- demand & assignment ------------------------------
                all_on = cluster.all_on
                raw = stack[row]
                total = totals[row]
                slot_totals[tick - slot_start] = total
                draws = cluster.draw_array(raw)
                assignment = scheduler.assign(
                    draws, None if all_on else cluster.powered_mask(),
                    budget, r_lambda, use_sc=use_sc,
                    use_battery=use_battery, no_pools=no_pools,
                    total=total if all_on else None)
                if prof is not None:
                    prof.mark("schedule")

                # The scalar engine skips relay applies only on ticks
                # where an apply would move zero relays, so per-tick
                # diff counting is switch-count identical.
                cluster.assign_sources(assignment.sources)
                fabric.apply_sources(assignment.sources)

                utility_draw = assignment.utility_draw_w
                unserved = None
                if not all_on:
                    off = cluster.off_mask()
                    unserved = np.zeros(n)
                    for j in range(s):
                        unserved = unserved + np.where(
                            off[:, j], raw[:, j], 0.0)

                # Forced capping: no pool could absorb the excess.
                # Skippable when every lane stayed within budget with
                # pools enabled (the within check already proved
                # ``total <= budget`` for every no-pools lane).
                if any_no_pools or not assignment.all_utility:
                    over = utility_draw - budget
                    over_mask = over > _EPSILON
                    if np.count_nonzero(over_mask):
                        if unserved is None:
                            unserved = np.zeros(n)
                        # utility_draw may alias the block's totals row;
                        # never mutate through it.
                        if (utility_draw.base is not None
                                or not utility_draw.flags.writeable):
                            utility_draw = utility_draw.copy()
                        for lane in np.flatnonzero(over_mask).tolist():
                            shed_ids = cluster.shed_lru_lane(
                                lane, float(over[lane]), draws,
                                (SOURCE_UTILITY,))
                            freed = 0.0
                            for sid in shed_ids:  # repro: noqa[RPR502] shed-order re-sum matches the scalar engine
                                freed += float(draws[lane, sid])
                            utility_draw[lane] -= freed
                            unserved[lane] += freed
                            shed_events[lane] += len(shed_ids)

                if prof is not None:
                    prof.mark("actuate")

                # --- buffer service -----------------------------------
                buffers.begin_tick()
                served = loss = None
                if not assignment.all_utility:
                    served, shortfall_unserved, loss = self._serve_buffers(
                        buffers, cluster, assignment, fallback_ba,
                        fallback_sc, draws, eff, one_m_eff, shed_events, dt)
                    if shortfall_unserved is not None:
                        unserved = (shortfall_unserved if unserved is None
                                    else unserved + shortfall_unserved)
                if prof is not None:
                    prof.mark("buffers")

                # --- charging / restarts ------------------------------
                charge_w = None
                headroom = budget - utility_draw
                if assignment.all_utility:
                    deficit = None
                    can_charge = headroom > _EPSILON
                else:
                    deficit = assignment.n_buffered > 0
                    can_charge = ~deficit & (headroom > _EPSILON)
                if np.count_nonzero(can_charge):
                    if not cluster.all_on:
                        restart_lanes = can_charge & (cluster.num_off() > 0)
                        if np.count_nonzero(restart_lanes):
                            headroom = headroom.copy()
                            for lane in np.flatnonzero(
                                    restart_lanes).tolist():
                                needed = cluster.restart_offline_lane(
                                    lane, float(headroom[lane]))
                                for needed_w in needed:  # repro: noqa[RPR502] restart-order deduction matches the scalar engine
                                    headroom[lane] -= needed_w
                    if plan_generic is None:
                        charge_w = self._charge_pools_merged(
                            buffers, charge_sc_lead, charge_bat,
                            charge_sc_trail, can_charge, headroom, dt)
                    else:
                        charge_w = self._charge_pools(
                            buffers, plan_generic, can_charge,
                            has_sc & sc_ok, ba_ok, headroom, dt)
                buffers.settle(dt)
                if prof is not None:
                    prof.mark("charge")

                # --- bookkeeping --------------------------------------
                downtime_accrues = not cluster.all_on
                cluster.tick(dt, now, raw)
                if faults is not None and downtime_accrues:
                    # Downtime only accrues on ticks that start with a
                    # server down, so the totals are read only then.
                    downtime_total = cluster.total_downtime()
                    faults.attribute_downtime(
                        downtime_total - last_downtime_s)
                    last_downtime_s = downtime_total
                ipdu.record_array(now, draws, dt, total if all_on else None)
                rows_utility[row] = utility_draw
                if served is None:
                    rows_served[row] = utility_draw
                else:
                    rows_served[row] = utility_draw + served
                if unserved is not None:
                    rows_unserved[row] = unserved
                if charge_w is not None:
                    rows_charge[row] = charge_w
                if loss is not None:
                    rows_loss[row] = loss
                if deficit is not None:
                    deficit_ticks += deficit
                if prof is not None:
                    prof.mark("bookkeeping")

        if prof is not None:
            prof.count("lanes", n)
            self.perf = prof.report()
        fold(block_end - block_start)
        sc_usable = buffers.sc_usable_j()
        battery_usable = buffers.battery_usable_j()
        if plans[0] is not None:
            analyses = analyze_slots(
                np.ascontiguousarray(slot_totals[:num_ticks - slot_start].T),
                slot_budget, dt)
            for lane in range(n):
                close_slot_lane(lane, analyses[lane], sc_usable,
                                battery_usable)

        # --- finalization --------------------------------------------
        served_energy, unserved_energy, utility_energy, charge_energy, \
            conversion_loss = sums
        buffers.write_back()
        duration_s = num_ticks * dt
        results: List[RunResult] = []
        for lane, sim in enumerate(sims):
            buf = sim.buffers
            report = buf.lifetime_report()
            lifetime_years = min(report.estimated_lifetime_years,
                                 _CALENDAR_LIFE_YEARS)
            accumulator = MetricsAccumulator(
                served_energy_j=float(served_energy[lane]),
                unserved_energy_j=float(unserved_energy[lane]),
                utility_energy_j=float(utility_energy[lane]),
                charge_energy_j=float(charge_energy[lane]),
                generation_energy_j=self._generation_energy(sim, dt),
                conversion_loss_j=float(conversion_loss[lane]),
                deficit_ticks=int(deficit_ticks[lane]),
                total_ticks=num_ticks,
                shed_events=int(shed_events[lane]),
            )
            metrics = finalize_metrics(
                accumulator,
                buffer_in_j=buf.energy_in_j(),
                buffer_out_j=buf.energy_out_j(),
                initial_stored_j=buf.initial_stored_j,
                final_stored_j=buf.total_stored_j,
                downtime_s=cluster.total_downtime_lane(lane),
                num_servers=s,
                duration_s=duration_s,
                lifetime_years=lifetime_years,
                equivalent_cycles=report.equivalent_full_cycles,
                total_restarts=cluster.total_restarts_lane(lane),
                restart_energy_j=cluster.total_restart_energy_lane(lane),
                relay_switches=fabric.total_switches_lane(lane),
                renewable=renewable[lane],
                fault_downtime_s=(faults.downtime_by_class(lane)
                                  if faults is not None else None),
            )
            results.append(RunResult(
                scheme=sim.policy.name,
                workload=sim.trace.name,
                metrics=metrics,
                lifetime=report,
                slots=tuple(slot_records[lane]),
                perf=None,
            ))
        return results

    # ------------------------------------------------------------------

    def _load_block(self, start: int, stop: int,
                    fixed_budget: Sequence[float]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ticks ``[start, stop)`` of every lane's inputs.

        Returns the (ticks, lanes, servers) demand stack, its per-tick
        demand totals and the (ticks, lanes) supply budgets — bit-exact
        copies of every lane's per-tick scalars.  Totals accumulate
        server-by-server in index order: the scalar engine's
        ``np.add.reduce(values, axis=-2)`` is sequential over the
        (outer) server axis, and a contiguous inner-axis reduce would
        switch to numpy's unrolled pairwise path at exactly 8 servers.
        """
        n = len(self.sims)
        s = self.sims[0].cluster_config.num_servers
        stack = np.empty((stop - start, n, s))
        budgets = np.empty((stop - start, n))
        for lane, sim in enumerate(self.sims):
            stack[:, lane, :] = sim.trace.values_w[:, start:stop].T
            if sim.supply is not None:
                budgets[:, lane] = sim.supply.values_w[start:stop]
            else:
                budgets[:, lane] = fixed_budget[lane]
        totals = np.zeros((stop - start, n))
        for j in range(s):
            totals = totals + stack[:, :, j]
        return stack, totals, budgets

    @staticmethod
    def _generation_energy(sim: Simulation, dt: float) -> float:
        """The scalar's tick-order ``generation += supply[tick] * dt``."""
        if sim.supply is None:
            return 0.0
        values = sim.supply.values_w[:sim.trace.num_samples]
        return float(np.cumsum(np.concatenate(([0.0], values * dt)))[-1])

    @staticmethod
    def _serve_buffers(buffers: BatchBuffers, cluster: BatchCluster,
                       assignment, fallback_ba: np.ndarray,
                       fallback_sc: np.ndarray, draws: np.ndarray,
                       eff: np.ndarray, one_m_eff: np.ndarray,
                       shed_events: np.ndarray, dt: float):
        """Lane-parallel ``Simulation._serve_buffers``.

        ``fallback_ba`` marks lanes whose battery may take over the SC
        pool's shortfall (plan fallback, battery reachable);
        ``fallback_sc`` lanes whose SC pool may take over the battery's
        (plan fallback, SC present and reachable).

        ``served``/``loss``/``unserved`` stay ``None`` until a pool
        actually contributes; the pool ``achieved`` arrays are exact
        zeros off-mask, so the unmasked adds reproduce the scalar
        running sums bit-for-bit (``0.0 + x == x`` and ``x + 0.0 == x``
        for the non-negative quantities involved).
        """
        n = buffers.n
        served = loss = sc_short = ba_short = None
        # The shortfalls are clamped with np.maximum rather than
        # Python's selection ``max(0.0, x)``: they only ever feed
        # ``short > eps`` tests and the lanes passing them, so a zero's
        # sign never shows.
        draw = assignment.sc_draw_w
        mask = draw > _EPSILON
        if np.count_nonzero(mask):
            achieved = buffers.discharge_sc(mask, draw / eff, dt)
            served = achieved * eff
            loss = achieved * one_m_eff
            sc_short = np.maximum(draw - served, 0.0)
        draw = assignment.battery_draw_w
        mask = draw > _EPSILON
        if np.count_nonzero(mask):
            achieved = buffers.battery.discharge(mask, draw / eff, dt)
            delivered = achieved * eff
            term = achieved * one_m_eff
            loss = term if loss is None else loss + term
            served = delivered if served is None else served + delivered
            ba_short = np.maximum(draw - delivered, 0.0)

        if sc_short is not None:
            mask = fallback_ba & (sc_short > _EPSILON)
            if np.count_nonzero(mask):
                achieved = buffers.battery.discharge(
                    mask, sc_short / eff, dt)
                delivered = achieved * eff
                loss = loss + achieved * one_m_eff
                served = served + delivered
                sc_short = np.maximum(sc_short - delivered, 0.0)
        if ba_short is not None:
            mask = fallback_sc & (ba_short > _EPSILON)
            if np.count_nonzero(mask):
                achieved = buffers.discharge_sc(mask, ba_short / eff, dt)
                delivered = achieved * eff
                loss = loss + achieved * one_m_eff
                served = served + delivered
                ba_short = np.maximum(ba_short - delivered, 0.0)

        unserved = None
        for short, source in ((sc_short, SOURCE_SUPERCAP),
                              (ba_short, SOURCE_BATTERY)):
            if short is None:
                continue
            short_mask = short > _EPSILON
            if not np.count_nonzero(short_mask):
                continue
            if unserved is None:
                unserved = np.zeros(n)
            for lane in np.flatnonzero(short_mask).tolist():
                shed_ids = cluster.shed_lru_lane(
                    lane, float(short[lane]), draws, (source,))
                for sid in shed_ids:  # repro: noqa[RPR502] shed-order re-sum matches the scalar engine
                    unserved[lane] += float(draws[lane, sid])
                shed_events[lane] += len(shed_ids)
        return served, unserved, loss

    @staticmethod
    def _charge_pools_merged(buffers: BatchBuffers,
                             sc_lead: Optional[np.ndarray],
                             bat: Optional[np.ndarray],
                             sc_trail: Optional[np.ndarray],
                             eligible: np.ndarray, headroom: np.ndarray,
                             dt: float) -> Optional[np.ndarray]:
        """Interleaved charge schedule in three pool calls.

        Exact for every order in :data:`_MERGEABLE_ORDERS`: each lane
        sees its pools in its own order because sc-leading lanes get
        the first SC call, every battery-bearing lane shares one
        battery call (with the scalar's ``remaining > eps`` recheck
        when an SC call preceded it), and ("battery", "sc") lanes get
        the trailing SC call.  Eligibility already implies
        ``headroom > eps``, so the first call a lane participates in
        needs no recheck.  Returns ``None`` when no pool accepted
        anything (exact zeros otherwise off-mask).
        """
        remaining = headroom
        accepted = None
        if sc_lead is not None:
            active = sc_lead & eligible
            if np.count_nonzero(active):
                achieved = buffers.charge_sc(active, remaining, dt)
                accepted = achieved
                # achieved is an exact 0.0 off ``active``, where
                # ``remaining - 0.0`` is ``remaining`` itself.
                remaining = remaining - achieved
        if bat is not None:
            active = bat & eligible
            if accepted is not None:
                active = active & (remaining > _EPSILON)
            if np.count_nonzero(active):
                achieved = buffers.battery.charge(active, remaining, dt)
                accepted = (achieved if accepted is None
                            else accepted + achieved)
                if sc_trail is not None:
                    remaining = remaining - achieved
        if sc_trail is not None:
            active = sc_trail & eligible & (remaining > _EPSILON)
            if np.count_nonzero(active):
                achieved = buffers.charge_sc(active, remaining, dt)
                accepted = (achieved if accepted is None
                            else accepted + achieved)
        return accepted

    @staticmethod
    def _charge_pools(buffers: BatchBuffers,
                      charge_groups: Dict[Tuple[str, ...], np.ndarray],
                      eligible: np.ndarray, sc_ok: np.ndarray,
                      ba_ok: np.ndarray, headroom: np.ndarray,
                      dt: float) -> np.ndarray:
        """Lane-parallel ``Simulation._charge_pools``.

        Generic per-group fallback for charge orders outside
        :data:`_MERGEABLE_ORDERS` (an order that revisits the battery
        lands the first flow's deferred step before the second).  ``sc_ok``
        marks lanes with a present, reachable SC pool, ``ba_ok`` lanes
        with a reachable battery.
        """
        accepted = np.zeros(buffers.n)
        remaining = headroom
        for order, group in charge_groups.items():
            lanes = group & eligible
            if not np.count_nonzero(lanes):
                continue
            for name in order:
                active = lanes & (remaining > _EPSILON)
                active = active & (sc_ok if name == "sc" else ba_ok)
                if not np.count_nonzero(active):
                    continue
                if name == "sc":
                    achieved = buffers.charge_sc(active, remaining, dt)
                else:
                    achieved = buffers.battery.charge(active, remaining, dt)
                accepted = accepted + np.where(active, achieved, 0.0)
                remaining = np.where(active, remaining - achieved,
                                     remaining)
        return accepted


__all__ = ["BatchBuffers", "BatchSimulation"]
