"""Vectorized lane-parallel storage state for the batched engine.

One :class:`BatchBuffers <repro.sim.batch.BatchBuffers>` advances N
independent (battery, supercap, lifetime-model) triples through the
exact per-tick operation sequence of
:class:`~repro.sim.buffers.HybridBuffers` — with every lane's
arithmetic bit-identical to the scalar device models.  The scalar
models stay the oracle; this module re-derives each of their
expressions over a leading lane axis, preserving operand order, branch
structure (as masks), and epsilon thresholds exactly.

Two portability traps drive the helper functions here:

* ``np.power`` takes a SIMD path whose results differ from CPython's
  ``**`` in the last ulps on this platform, so every Peukert/lifetime
  power law is evaluated element-by-element through Python ``pow`` on
  the lanes that need it (:func:`pow_lanes`).
* Python's ``min``/``max`` builtins are *selections*, not IEEE
  min/max — ``min(a, b)`` returns ``b`` only when ``b < a`` — and the
  scalar models rely on that NaN/tie behaviour.  :func:`sel_min` /
  :func:`sel_max` replicate the selection semantics with ``np.where``.
  On the hot flow paths below, ``np.minimum``/``np.maximum`` are used
  instead where the operands are provably finite (no NaN reaches
  them), because for finite operands the selection and the IEEE
  min/max agree on every value — the only divergence, the sign of a
  ``+0.0``/``-0.0`` tie, is absorbed by the downstream no-flow
  zeroing and never feeds a sign-sensitive operation.

Throughput notes (this module is the batched engine's inner loop, and
at the lane widths it runs at a numpy call costs about the same
whatever its length, so the kernels minimise calls, not arithmetic):

* the battery discharge, which touches a handful of lanes per call,
  works on its invoked lanes only: it gathers their columns
  (``column[lanes]`` is cheaper than a masked ``np.where``), computes
  without masks and scatters the result; the other flows touch enough
  lanes that full width with masks is cheaper;
* per-lane constants and constant *subexpressions* — ``4R``,
  ``0.5 C``, ``1 - c``, the KiBaM well capacities — are hoisted at
  construction; each hoisted value is the bitwise result of the scalar
  expression;
* identical-valued subexpressions (``y1 + y2``, the OCV, ``v * v``,
  ``4 ESR P``) are computed once per flow and reused, and both Peukert
  inversions of a battery discharge share one CPython-pow pass;
* the battery's KiBaM well update is *deferred*: a flow records its
  well current and the step lands later, for every lane at once, when
  the engine settles the tick (or when the pilot ends its step).  A
  lane that takes a second battery flow before that steps at once, so
  each lane still sees the scalar sequence;
* telemetry sums are banked and folded with ``np.cumsum``
  (:class:`_BankedSum`), a strictly sequential accumulation, and the
  counters the scalar advances by ``dt`` per call are step counts
  (:func:`_step_times`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..storage.battery import LeadAcidBattery
from ..storage.device import DeviceTelemetry
from ..storage.kibam import KiBaMState, kibam_coefficients
from ..storage.lifetime import AhThroughputLifetimeModel
from ..storage.supercap import Supercapacitor

#: Device-model epsilon (``storage.battery._EPSILON`` and
#: ``storage.supercap._EPSILON``).
_DEVICE_EPS = 1e-12

#: Banked increments a telemetry sum holds before it folds them, in
#: lane-values (so a wide batch folds after fewer flows and the bank
#: stays ~16 KB per counter).
_BANK_VALUES = 2048


def sel_min(a, b):
    """Elementwise Python ``min(a, b)``: ``b`` if ``b < a`` else ``a``."""
    return np.where(b < a, b, a)


def sel_max(a, b):
    """Elementwise Python ``max(a, b)``: ``b`` if ``b > a`` else ``a``."""
    return np.where(b > a, b, a)


def pow_lanes(base: np.ndarray, exponents: np.ndarray, keep: np.ndarray,
              fallback: np.ndarray) -> np.ndarray:
    """``fallback[i] if keep[i] else base[i] ** exponents[i]``: the
    scalar models' conditional power laws (Peukert, current stress),
    with the power evaluated element by element through CPython pow on
    just the lanes that need it."""
    lanes = (~keep).nonzero()[0]
    if not lanes.size:
        return fallback
    out = fallback.copy()
    out[lanes] = list(map(pow, base[lanes].tolist(),
                          exponents[lanes].tolist()))
    return out


class _BankedSum:
    """A (lanes,) running sum whose increments are banked, then folded.

    :meth:`add` only records ``(lanes, values)``; folding lays the
    banked increments out as rows (zeros off their lanes) under the
    carried sums and runs ``np.cumsum`` down them, which accumulates each
    lane strictly in call order — bitwise the scalar's sequence of
    ``+=``, since an untouched lane adds an exact ``+0.0`` to its
    non-negative counter.
    """

    __slots__ = ("_carry", "_banked", "_limit")

    def __init__(self, n: int) -> None:
        self._carry = np.zeros(n)
        self._banked: list = []
        self._limit = max(1, _BANK_VALUES // max(1, n))

    def add(self, lanes: Optional[np.ndarray], values: np.ndarray) -> None:
        """Bank one increment per lane in ``lanes`` (``values`` holds
        just those lanes; ``lanes=None``: every lane, exact zeros on
        the untouched ones).  ``values`` must not be mutated afterwards."""
        self._banked.append((lanes, values))
        if len(self._banked) >= self._limit:
            self._fold()

    def _fold(self) -> None:
        banked = self._banked
        if banked:
            rows = np.zeros((len(banked) + 1, self._carry.size))
            rows[0] = self._carry
            for row, (lanes, values) in enumerate(banked, 1):
                if lanes is None:
                    rows[row] = values
                else:
                    rows[row][lanes] = values
            self._carry = rows.cumsum(axis=0)[-1]
            self._banked = []

    def total(self) -> np.ndarray:
        """The folded (lanes,) sums."""
        self._fold()
        return self._carry

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane not in ``lanes`` (renumbered in that order)."""
        self._fold()
        self._carry = self._carry[lanes]
        self._limit = max(1, _BANK_VALUES // max(1, lanes.size))


def _step_times(steps: np.ndarray, dt: float) -> np.ndarray:
    """``dt`` added ``steps[i]`` times in sequence, per lane: the scalar
    models' ``counter += dt`` per call, rebuilt from a step count (the
    cumsum of a run of ``dt`` is that sequential sum)."""
    top = int(steps.max()) if steps.size else 0
    return np.concatenate(([0.0], np.full(top, dt).cumsum()))[steps]


class BatchTelemetry:
    """Lane-parallel :class:`~repro.storage.device.DeviceTelemetry`.

    Flows report on the invoked lanes: ``mask`` is the (lanes,) call
    mask, ``lanes`` an index array of the lanes whose increments are
    given (arrays over just those lanes).  The float sums are banked
    (:class:`_BankedSum`) and the time counters, which the scalar
    advances by ``dt`` per call, are step counts (every flow uses the
    ``dt`` the model was built with); both are rebuilt on read by the
    properties.
    """

    def __init__(self, n: int, dt: float) -> None:
        self.n = n
        self.dt = dt
        self._energy_in = _BankedSum(n)
        self._energy_out = _BankedSum(n)
        self._loss = _BankedSum(n)
        self._charge_throughput = _BankedSum(n)
        self._discharge_throughput = _BankedSum(n)
        self._discharge_steps = np.zeros(n, dtype=np.int64)
        self._charge_steps = np.zeros(n, dtype=np.int64)
        self._rest_steps = np.zeros(n, dtype=np.int64)
        self.peak_discharge_current_a = np.zeros(n)
        self.unmet_requests = np.zeros(n, dtype=np.int64)

    @property
    def energy_in_j(self) -> np.ndarray:
        return self._energy_in.total()

    @property
    def energy_out_j(self) -> np.ndarray:
        return self._energy_out.total()

    @property
    def loss_j(self) -> np.ndarray:
        return self._loss.total()

    @property
    def charge_throughput_c(self) -> np.ndarray:
        return self._charge_throughput.total()

    @property
    def discharge_throughput_c(self) -> np.ndarray:
        return self._discharge_throughput.total()

    @property
    def discharge_time_s(self) -> np.ndarray:
        return _step_times(self._discharge_steps, self.dt)

    @property
    def charge_time_s(self) -> np.ndarray:
        return _step_times(self._charge_steps, self.dt)

    @property
    def rest_time_s(self) -> np.ndarray:
        return _step_times(self._rest_steps, self.dt)

    def record_discharge(self, mask: np.ndarray,
                         lanes: Optional[np.ndarray],
                         energy_j: np.ndarray, loss_j: np.ndarray,
                         current: np.ndarray, limited: np.ndarray) -> None:
        """Fold one discharge step into the lanes of ``mask``.

        ``lanes=None``: the increments span every lane (exact zeros
        outside ``mask``, where ``limited`` is False).  Otherwise
        ``lanes`` lists the lanes of ``mask`` and the increments hold
        just those.
        """
        self._energy_out.add(lanes, energy_j)
        self._loss.add(lanes, loss_j)
        self._discharge_throughput.add(lanes, current * self.dt)
        self._discharge_steps = self._discharge_steps + mask
        # maximum() picks the same value as the scalar's strict-greater
        # update (ties keep an identical float; other lanes race an
        # exact 0.0).  The counters are replaced, never mutated:
        # readers may hold the previous array.
        if lanes is None:
            self.peak_discharge_current_a = np.maximum(
                self.peak_discharge_current_a, current)
            self.unmet_requests = self.unmet_requests + limited
            return
        flow_current = np.zeros(self.n)
        flow_current[lanes] = current
        self.peak_discharge_current_a = np.maximum(
            self.peak_discharge_current_a, flow_current)
        self.unmet_requests = self.unmet_requests + np.bincount(
            lanes[limited], minlength=self.n)

    def record_charge(self, mask: np.ndarray, energy_j: np.ndarray,
                      loss_j: np.ndarray, current: np.ndarray) -> None:
        """Fold one charge step into the lanes of ``mask`` (increments
        over every lane, exact zeros outside ``mask``)."""
        self._charge_steps = self._charge_steps + mask
        self._energy_in.add(None, energy_j)
        self._loss.add(None, loss_j)
        self._charge_throughput.add(None, current * self.dt)

    def record_charge_time_only(self, mask: np.ndarray) -> None:
        """A charge step whose flow increments are all exactly zero."""
        self._charge_steps = self._charge_steps + mask

    def record_rest(self, mask: np.ndarray) -> None:
        self._rest_steps = self._rest_steps + mask

    def record_loss(self, lanes: np.ndarray, loss_j: np.ndarray) -> None:
        """Loss without a flow (SC self-discharge)."""
        self._loss.add(lanes, loss_j)

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane not in ``lanes`` (renumbered in that order)."""
        self.n = lanes.size
        for banked in (self._energy_in, self._energy_out, self._loss,
                       self._charge_throughput, self._discharge_throughput):
            banked.keep(lanes)
        self._discharge_steps = self._discharge_steps[lanes]
        self._charge_steps = self._charge_steps[lanes]
        self._rest_steps = self._rest_steps[lanes]
        self.peak_discharge_current_a = self.peak_discharge_current_a[lanes]
        self.unmet_requests = self.unmet_requests[lanes]

    def write_back(self, lane: int, telemetry: DeviceTelemetry) -> None:
        """Copy one lane's counters into a scalar telemetry object."""
        telemetry.energy_in_j = float(self.energy_in_j[lane])
        telemetry.energy_out_j = float(self.energy_out_j[lane])
        telemetry.loss_j = float(self.loss_j[lane])
        telemetry.charge_throughput_c = float(self.charge_throughput_c[lane])
        telemetry.discharge_throughput_c = float(
            self.discharge_throughput_c[lane])
        telemetry.peak_discharge_current_a = float(
            self.peak_discharge_current_a[lane])
        telemetry.discharge_time_s = float(self.discharge_time_s[lane])
        telemetry.charge_time_s = float(self.charge_time_s[lane])
        telemetry.rest_time_s = float(self.rest_time_s[lane])
        telemetry.unmet_requests = int(self.unmet_requests[lane])


class _BatteryLane(NamedTuple):
    """One battery's well contents and per-lane constants."""

    y1: float
    y2: float
    capacity_c: float
    c: float
    k: float
    mean_v: float
    ocv_empty: float
    ocv_span: float
    r: float
    soc_floor: float
    nominal_j: float
    eff_discharge: float
    eff_charge: float
    gassing_threshold: float
    gassing_penalty: float
    gassing_span: float
    max_charge_current: float
    min_terminal_v: float
    ref: float
    pk_is_one: bool
    ref_pow: float
    inv_pk: float
    pk_m1: float
    ekt: float
    one_m_ekt: float
    ramp: float
    denominator: float


def _battery_lane(b: LeadAcidBattery, dt: float) -> _BatteryLane:
    """Read one scalar battery into lane form: the single place every
    per-lane battery constant is derived (construction and the in-run
    re-read after aging both go through here)."""
    cfg = b.config
    coeffs = kibam_coefficients(cfg.kibam_k_per_s, cfg.kibam_c, dt)
    return _BatteryLane(
        y1=b.state.available_c,
        y2=b.state.bound_c,
        capacity_c=b.state.capacity_c,
        c=b.state.c,
        k=b.state.k,
        mean_v=b._mean_voltage,
        ocv_empty=b._ocv_empty,
        ocv_span=b._ocv_span,
        r=b._aged_resistance,
        soc_floor=b._soc_floor,
        # nominal = config_nominal * (1 - age), the expression the scalar
        # paths evaluate per call from two constants.
        nominal_j=b._config_nominal_j * (1.0 - b._age_fraction),
        eff_discharge=cfg.discharge_efficiency,
        eff_charge=cfg.charge_efficiency,
        gassing_threshold=cfg.gassing_soc_threshold,
        gassing_penalty=cfg.gassing_penalty,
        gassing_span=1.0 - cfg.gassing_soc_threshold,
        max_charge_current=cfg.max_charge_current_a,
        min_terminal_v=cfg.min_terminal_voltage_v,
        ref=cfg.reference_current_a,
        pk_is_one=cfg.peukert_exponent == 1.0,
        # Scalar-pow constants, evaluated per lane through CPython pow
        # exactly as the scalar call sites do on every invocation.
        ref_pow=cfg.reference_current_a ** (cfg.peukert_exponent - 1.0),
        inv_pk=1.0 / cfg.peukert_exponent,
        pk_m1=cfg.peukert_exponent - 1.0,
        ekt=coeffs.ekt,
        one_m_ekt=coeffs.one_m_ekt,
        ramp=coeffs.kdt_m_one_m_ekt,
        denominator=coeffs.denominator,
    )


class BatchBattery:
    """N lead-acid batteries advanced in lockstep.

    Per-lane constants are hoisted from each scalar battery at
    construction; the two well contents are the only per-tick state.
    An in-run mutation of one lane's scalar battery (fault-injected
    aging) is picked up by :meth:`load_lane`.

    Flows defer their KiBaM well update (see the module notes): the
    wells read by the state views are current only after
    :meth:`step_all` or :meth:`step_pending`.  ``wear``, when set, is
    the lifetime model that observes every discharge flow, with the
    post-step SoC, when that flow's step lands.
    """

    def __init__(self, batteries: Sequence[LeadAcidBattery],
                 dt: float) -> None:
        n = len(batteries)
        self.dt = dt
        self.telemetry = BatchTelemetry(n, dt)
        self.wear: Optional[BatchLifetime] = None

        rows = [_battery_lane(b, dt) for b in batteries]
        for index, name in enumerate(_BatteryLane._fields):
            setattr(self, name, np.array(
                [row[index] for row in rows],
                dtype=bool if name == "pk_is_one" else float))
        self._derive()

        self._size(n)

    def _size(self, n: int) -> None:
        """(Re)allocate the per-lane scratch for ``n`` lanes."""
        self.n = n
        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)
        self._ones = np.ones(n)
        self._ones.setflags(write=False)
        # Deferred steps: the well current of each lane's pending flow
        # (0.0 on lanes without one, which then rest), and for pending
        # discharges the terminal current the wear model observes.
        self._step_i = np.zeros(n)
        self._pending = np.zeros(n, dtype=bool)
        self._any_pending = False
        self._wear_i = np.zeros(n)
        self._wear = np.zeros(n, dtype=bool)
        self._any_wear = False

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane not in ``lanes`` (renumbered in that order).

        Only between steps (no flow pending) and without a wear model:
        the pilot packs its live lanes with it.
        """
        assert not self._any_pending and self.wear is None
        for name in _BatteryLane._fields:
            setattr(self, name, getattr(self, name)[lanes])
        self.telemetry.keep(lanes)
        self._size(lanes.size)
        self._derive()

    def _derive(self) -> None:
        """Constant subexpressions of the per-lane columns (each the
        bitwise result the scalar code computes fresh every call)."""
        self.floor_j = self.soc_floor * self.nominal_j
        self.floor_c = self.soc_floor * self.capacity_c
        self.avail_cap = self.capacity_c * self.c
        self.bound_cap = self.capacity_c * (1.0 - self.c)
        self.one_m_c = 1.0 - self.c
        self.four_r = 4.0 * self.r

        self.r_small = self.r <= _DEVICE_EPS
        self.r_safe = np.where(self.r_small, 1.0, self.r)
        self.two_r = 2.0 * self.r_safe
        self.any_r_small = bool(self.r_small.any())

        self.den_bad = self.denominator <= 0.0
        self.den_safe = np.where(self.den_bad, 1.0, self.denominator)
        self.any_den_bad = bool(self.den_bad.any())

        self.any_pk = not bool(self.pk_is_one.all())

        # With the wells inside their capacity bounds, the scalar's
        # ``min(1, max(0, y1 / avail_cap))`` SoC fraction is bitwise the
        # bare ratio; the KiBaM clamps maintain the invariant, so it
        # only needs checking on a freshly read state.
        self.fraction_plain = bool(
            (self.y1 >= 0.0).all() and (self.y1 <= self.avail_cap).all())

    def load_lane(self, lane: int, battery: LeadAcidBattery) -> None:
        """Re-read one lane's wells and constants from its scalar battery.

        The inverse of :meth:`write_back` for state the scalar model
        changed mid-run (aging resizes the wells and raises the
        resistance); telemetry stays in the batch counters.
        """
        for name, value in zip(_BatteryLane._fields,
                               _battery_lane(battery, self.dt)):
            getattr(self, name)[lane] = value
        self._derive()

    # -- state views ---------------------------------------------------

    def open_circuit_voltage(self) -> np.ndarray:
        fraction = np.minimum(1.0, np.maximum(0.0, self.y1 / self.avail_cap))
        return self.ocv_empty + self.ocv_span * fraction

    def stored_j(self) -> np.ndarray:
        return (self.y1 + self.y2) * self.mean_v

    def soc(self) -> np.ndarray:
        return np.maximum(0.0, np.minimum(1.0, self.stored_j()
                                          / self.nominal_j))

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- deferred KiBaM steps ------------------------------------------

    def step_all(self):
        """Land every deferred flow's step and rest every other lane
        (a zero-current step), as one full-width update.

        Returns ``(touched, discharged)``: the lanes that took a flow
        since the last :meth:`step_all`, and those of them that
        discharged (tracked only with a wear model).
        """
        touched, discharged = self._pending, self._wear
        self._step(None)
        return touched, discharged

    def step_pending(self) -> None:
        """Land the deferred flows' steps; lanes without one stay put."""
        if self._any_pending:
            self._step(self._pending.nonzero()[0])
            self._any_pending = False

    def _land(self, mask: np.ndarray) -> None:
        """Step the lanes of a new flow that still have one pending."""
        again = mask & self._pending
        if np.count_nonzero(again):
            self._step(again.nonzero()[0])

    def _defer(self, mask: np.ndarray, lanes: np.ndarray,
               well_current: np.ndarray) -> None:
        self._step_i[lanes] = well_current
        self._pending |= mask
        self._any_pending = True

    def _step(self, lanes: Optional[np.ndarray]) -> None:
        """The KiBaM step on ``lanes`` (``None``: every lane) at each
        lane's deferred current (``+0.0`` on rest lanes and ``-0.0`` on
        no-flow charge lanes, which every term absorbs exactly as the
        scalar's ``0.0``)."""
        if lanes is None:
            y1, y2, i = self.y1, self.y2, self._step_i
            k, c, one_m_c = self.k, self.c, self.one_m_c
            ekt, one_m_ekt, ramp = self.ekt, self.one_m_ekt, self.ramp
            avail_cap, bound_cap = self.avail_cap, self.bound_cap
        else:
            y1, y2, i = self.y1[lanes], self.y2[lanes], self._step_i[lanes]
            k, c, one_m_c = self.k[lanes], self.c[lanes], self.one_m_c[lanes]
            ekt = self.ekt[lanes]
            one_m_ekt = self.one_m_ekt[lanes]
            ramp = self.ramp[lanes]
            avail_cap = self.avail_cap[lanes]
            bound_cap = self.bound_cap[lanes]
        y0 = y1 + y2
        new_y1 = (y1 * ekt
                  + (y0 * k * c - i) * one_m_ekt / k
                  - i * c * ramp / k)
        new_y2 = (y2 * ekt
                  + y0 * one_m_c * one_m_ekt
                  - i * one_m_c * ramp / k)
        # Branchy clamps into [0, well capacity] (the wells rarely reach
        # either bound, so the selects usually drop out).
        low, high = new_y1 < 0.0, new_y1 > avail_cap
        if np.count_nonzero(low | high):
            new_y1 = np.where(low, 0.0, np.where(high, avail_cap, new_y1))
        low, high = new_y2 < 0.0, new_y2 > bound_cap
        if np.count_nonzero(low | high):
            new_y2 = np.where(low, 0.0, np.where(high, bound_cap, new_y2))
        if lanes is None:
            self.y1 = new_y1
            self.y2 = new_y2
            self._step_i = np.zeros(self.n)
            self._pending = np.zeros(self.n, dtype=bool)
            self._any_pending = False
            if self._any_wear:
                self._observe_wear(self._wear)
                self._wear = np.zeros(self.n, dtype=bool)
                self._any_wear = False
            return
        self.y1[lanes] = new_y1
        self.y2[lanes] = new_y2
        self._step_i[lanes] = 0.0
        self._pending[lanes] = False
        if self._any_wear:
            worn = np.zeros(self.n, dtype=bool)
            worn[lanes] = True
            worn &= self._wear
            if np.count_nonzero(worn):
                self._observe_wear(worn)
                self._wear = self._wear & ~worn

    def _observe_wear(self, mask: np.ndarray) -> None:
        """Hand the landed discharges on ``mask`` to the wear model,
        with the post-step SoC."""
        assert self.wear is not None
        self.wear.observe_discharge(
            mask, np.where(mask, self._wear_i, 0.0), self.dt, self.soc())

    # -- flows ---------------------------------------------------------

    def _invert_peukert(self, lanes: np.ndarray, i_kibam_eff: np.ndarray,
                        i_floor_eff: np.ndarray):
        """``LeadAcidBattery._invert_peukert`` of both effective-current
        limits, in one CPython-pow pass over ``lanes`` twice."""
        if not self.any_pk:
            return i_kibam_eff, i_floor_eff
        both = np.concatenate((lanes, lanes))
        effective = np.concatenate((i_kibam_eff, i_floor_eff))
        # effective = I^pk / I_ref^(pk-1)  =>  I = (effective * I_ref^(pk-1))^(1/pk)
        inverted = pow_lanes(
            effective * self.ref_pow[both], self.inv_pk[both],
            (effective <= self.ref[both]) | self.pk_is_one[both], effective)
        return inverted[:lanes.size], inverted[lanes.size:]

    def discharge(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        """Lane-parallel ``LeadAcidBattery.discharge``.

        Returns the achieved power, 0.0 outside ``mask`` and on no-flow
        lanes.  The KiBaM step is deferred.
        """
        if self._any_pending:
            self._land(mask)
        lanes = mask.nonzero()[0]
        p = power_w[lanes]
        y1 = self.y1[lanes]
        y0 = y1 + self.y2[lanes]
        fraction = y1 / self.avail_cap[lanes]
        if not self.fraction_plain:
            fraction = np.minimum(1.0, np.maximum(0.0, fraction))
        v_oc = self.ocv_empty[lanes] + self.ocv_span[lanes] * fraction
        noflow = (p <= 0.0) | (
            y0 * self.mean_v[lanes] - self.floor_j[lanes] <= 1e-9)

        # Request current: smaller root of I (V_oc - I R) = P.
        r = self.r[lanes]
        two_r = self.two_r[lanes]
        discriminant = v_oc * v_oc - self.four_r[lanes] * p
        neg = discriminant < 0.0
        if np.count_nonzero(neg):
            root = np.sqrt(np.where(neg, 0.0, discriminant))
            i_request = np.where(neg, v_oc / two_r, (v_oc - root) / two_r)
        else:
            i_request = (v_oc - np.sqrt(discriminant)) / two_r
        # Limit (1): terminal voltage above the brown-out floor.
        i_voltage = np.maximum(
            0.0, (v_oc - self.min_terminal_v[lanes]) / self.r_safe[lanes])
        if self.any_r_small:
            r_small = self.r_small[lanes]
            i_request = np.where(r_small, p / v_oc, i_request)
            i_voltage = np.where(r_small, np.inf, i_voltage)
        # Limit (2): available well must not empty (Peukert-scaled).
        k = self.k[lanes]
        eff = self.eff_discharge[lanes]
        numerator = (k * y1 * self.ekt[lanes]
                     + y0 * k * self.c[lanes] * self.one_m_ekt[lanes])
        i_kibam_eff = np.maximum(0.0, numerator / self.den_safe[lanes])
        if self.any_den_bad:
            i_kibam_eff = np.where(self.den_bad[lanes], 0.0, i_kibam_eff)
        i_kibam_eff = i_kibam_eff * eff
        # Limit (3): total charge must stay above the DoD floor.
        i_floor_eff = (np.maximum(0.0, y0 - self.floor_c[lanes]) / dt
                       * eff)
        i_kibam, i_floor = self._invert_peukert(lanes, i_kibam_eff,
                                                i_floor_eff)
        i_limit = np.maximum(
            0.0, np.minimum(np.minimum(i_voltage, i_kibam), i_floor))

        current = np.minimum(i_request, i_limit)
        noflow |= current <= _DEVICE_EPS
        current[noflow] = 0.0

        terminal_v = v_oc - current * r
        # current is exactly 0.0 on no-flow lanes, and v_oc is finite
        # positive, so the products below are exact +0.0 there.
        achieved = current * terminal_v

        if self.any_pk:
            # Peukert drain multiplier, 1.0 at or below the reference.
            ref = self.ref[lanes]
            drain = current * pow_lanes(
                current / ref, self.pk_m1[lanes],
                (current <= ref) | self.pk_is_one[lanes],
                self._ones[:lanes.size]) / eff
        else:
            drain = current / eff
        ir_loss = current * current * r * dt
        internal_loss = (drain - current) * terminal_v * dt
        loss = ir_loss + np.maximum(0.0, internal_loss)

        self._defer(mask, lanes, drain)
        if self.wear is not None:
            self._wear_i[lanes] = current
            self._wear |= mask
            self._any_wear = True
        self.telemetry.record_discharge(
            mask, lanes, achieved * dt, loss, current,
            np.where(noflow, p > 0.0, achieved < p - 1e-6))
        out = np.zeros(self.n)
        out[lanes] = achieved
        return out

    def charge(self, mask: np.ndarray, power_w: np.ndarray,
               dt: float) -> np.ndarray:
        """Lane-parallel ``LeadAcidBattery.charge``; returns achieved.

        The KiBaM step is deferred.  Charge calls span many lanes, so
        this flow runs at full width with masks.
        """
        if self._any_pending:
            self._land(mask)
        self._pending |= mask
        self._any_pending = True
        y1 = self.y1
        y0 = y1 + self.y2
        stored = y0 * self.mean_v
        noflow = (power_w <= 0.0) | (self.nominal_j - stored <= 1e-9)
        active = mask & ~noflow
        if not np.count_nonzero(active):
            # Every invoked lane is a no-flow: zero increments, i=0 step.
            self.telemetry.record_charge_time_only(mask)
            return self._zeros

        fraction = y1 / self.avail_cap
        if not self.fraction_plain:
            fraction = np.minimum(1.0, np.maximum(0.0, fraction))
        v_oc = self.ocv_empty + self.ocv_span * fraction
        discriminant = v_oc * v_oc + self.four_r * power_w
        i_request = (-v_oc + np.sqrt(discriminant)) / self.two_r
        if self.any_r_small:
            i_request = np.where(self.r_small, power_w / v_oc, i_request)

        # Gassing-degraded efficiency at the pre-step SoC.
        soc = np.maximum(0.0, np.minimum(1.0, stored / self.nominal_j))
        efficiency = self.eff_charge
        gassing = soc > self.gassing_threshold
        if np.count_nonzero(gassing):
            fraction = np.minimum(
                1.0, (soc - self.gassing_threshold) / self.gassing_span)
            efficiency = np.where(
                gassing,
                efficiency * (1.0 - self.gassing_penalty * fraction),
                efficiency)
        numerator = (self.avail_cap - y1 * self.ekt
                     - y0 * self.c * self.one_m_ekt) * self.k
        kibam_max = np.maximum(0.0, numerator / self.den_safe)
        if self.any_den_bad:
            kibam_max = np.where(self.den_bad, 0.0, kibam_max)
        i_kibam = kibam_max / efficiency
        i_headroom = (np.maximum(0.0, self.capacity_c - y0) / dt
                      / efficiency)
        i_limit = np.maximum(
            0.0, np.minimum(np.minimum(self.max_charge_current, i_kibam),
                            i_headroom))

        current = np.minimum(i_request, i_limit)
        current = np.where(active & (current > _DEVICE_EPS), current, 0.0)

        terminal_v = v_oc + current * self.r
        # current is exactly 0.0 off the flowing lanes and v_oc is
        # finite positive, so the products below are exact +0.0 there.
        achieved = current * terminal_v
        stored_current = current * efficiency
        ir_loss = current * current * self.r * dt
        coulombic_loss = (current - stored_current) * v_oc * dt
        loss = ir_loss + coulombic_loss

        # The charged lanes have nothing pending (a revisit landed
        # above), so their deferred current is ``0.0 - stored_current``;
        # elsewhere stored_current is an exact 0.0 and the pending
        # current stays put.  A no-flow lane's ``-0.0`` is absorbed by
        # every KiBaM term like the scalar's ``0.0``.
        self._step_i = self._step_i - stored_current
        self.telemetry.record_charge(mask, achieved * dt, loss, current)
        return achieved

    def write_back(self, lane: int, battery: LeadAcidBattery) -> None:
        """Install one lane's final wells and telemetry into a battery."""
        battery._state = KiBaMState(
            available_c=float(self.y1[lane]),
            bound_c=float(self.y2[lane]),
            capacity_c=float(self.capacity_c[lane]),
            c=float(self.c[lane]),
            k=float(self.k[lane]),
        )
        self.telemetry.write_back(lane, battery.telemetry)


class _SupercapLane(NamedTuple):
    """One supercapacitor's stored charge and per-lane constants."""

    charge_c: float
    capacitance: float
    esr: float
    min_v: float
    min_v_sq: float
    max_charge_c: float
    max_charge_current: float
    nominal_j: float
    soc_floor: float
    floor_voltage: float


#: Benign constants for lanes without an SC pool.
_PARKED_SC = _SupercapLane(charge_c=0.0, capacitance=1.0, esr=0.0,
                           min_v=0.0, min_v_sq=0.0, max_charge_c=0.0,
                           max_charge_current=0.0, nominal_j=1.0,
                           soc_floor=0.0, floor_voltage=0.0)


def _supercap_lane(s: Optional[Supercapacitor]) -> _SupercapLane:
    """Read one scalar supercapacitor into lane form (parked when
    absent): the single place every per-lane SC constant is derived."""
    if s is None:
        return _PARKED_SC
    return _SupercapLane(
        charge_c=s._charge_c,
        capacitance=s._capacitance,
        esr=s._esr,
        min_v=s._min_v,
        min_v_sq=s._min_v_sq,
        max_charge_c=s._max_charge_c,
        max_charge_current=s._max_charge_current,
        nominal_j=s._nominal_j,
        soc_floor=s._soc_floor,
        # _floor_voltage(): a pure function of constants; evaluated per
        # lane through math.sqrt exactly as the scalar method does.
        floor_voltage=s._floor_voltage(),
    )


class BatchSupercap:
    """N supercapacitors advanced in lockstep.

    Lanes without an SC pool (``present`` False) carry benign parked
    constants and are excluded from every operation mask by the caller.
    An in-run mutation of one lane's scalar device (fault-injected ESR
    drift) is picked up by :meth:`load_lane`.
    """

    def __init__(self, scs: Sequence[Optional[Supercapacitor]],
                 dt: float) -> None:
        n = len(scs)
        self.n = n
        self.telemetry = BatchTelemetry(n, dt)
        self.present = np.array([s is not None for s in scs], dtype=bool)

        rows = [_supercap_lane(s) for s in scs]
        for index, name in enumerate(_SupercapLane._fields):
            setattr(self, name,
                    np.array([row[index] for row in rows], dtype=float))
        self._derive()

        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane not in ``lanes`` (renumbered in that order)."""
        for name in _SupercapLane._fields:
            setattr(self, name, getattr(self, name)[lanes])
        self.present = self.present[lanes]
        self.telemetry.keep(lanes)
        self.n = lanes.size
        self._zeros = np.zeros(lanes.size)
        self._zeros.setflags(write=False)
        self._derive()

    def _derive(self) -> None:
        """Constant subexpressions of the per-lane columns."""
        self.floor_j = self.soc_floor * self.nominal_j
        self.floor_charge = self.floor_voltage * self.capacitance
        self.half_cap = 0.5 * self.capacitance
        self.four_esr = 4.0 * self.esr

        self.esr_small = self.esr <= _DEVICE_EPS
        self.esr_safe = np.where(self.esr_small, 1.0, self.esr)
        self.two_esr = 2.0 * self.esr_safe
        # True when every *present* lane has a real ESR — the common
        # case, which skips the zero-ESR current formulas entirely
        # (parked lanes compute garbage that their masks discard).
        self.esr_uniform = not bool((self.esr_small & self.present).any())

    def load_lane(self, lane: int, sc: Supercapacitor) -> None:
        """Re-read one lane's charge and constants from its scalar
        device (the inverse of :meth:`write_back`; ESR drift changes
        the resistance mid-run)."""
        for name, value in zip(_SupercapLane._fields, _supercap_lane(sc)):
            getattr(self, name)[lane] = value
        self._derive()

    # -- state views ---------------------------------------------------

    def stored_j(self) -> np.ndarray:
        v = self.charge_c / self.capacitance
        stored = self.half_cap * (v * v - self.min_v_sq)
        return np.where(v <= self.min_v, 0.0, stored)

    def usable_j(self) -> np.ndarray:
        return np.maximum(0.0, self.stored_j() - self.floor_j)

    # -- flows ---------------------------------------------------------

    def discharge(self, mask: np.ndarray, power_w: np.ndarray,
                  dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.discharge``; returns achieved."""
        cap = self.capacitance
        v = self.charge_c / cap
        vv = v * v
        stored = np.where(v <= self.min_v, 0.0,
                          self.half_cap * (vv - self.min_v_sq))
        noflow = (power_w <= 0.0) | (stored - self.floor_j <= 1e-9)

        # 4 ESR P: the scalar's ``4.0 * esr * power_w``, shared by every
        # discriminant below.
        four_esr_p = self.four_esr * power_w
        discriminant = vv - four_esr_p
        neg = discriminant < 0.0
        if np.count_nonzero(neg):
            root = np.sqrt(np.where(neg, 0.0, discriminant))
            with_esr = np.where(neg, v / self.two_esr,
                                (v - root) / self.two_esr)
        else:
            with_esr = (v - np.sqrt(discriminant)) / self.two_esr
        if self.esr_uniform:
            i_request = with_esr
        else:
            no_esr = np.where(v > _DEVICE_EPS,
                              power_w / np.where(v > _DEVICE_EPS, v, 1.0),
                              0.0)
            i_request = np.where(self.esr_small, no_esr, with_esr)

        # Mid-step refinement with the scalar loop's two break points
        # emulated by a frozen mask (a broken lane keeps its current).
        frozen = None
        half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
        for _ in range(3):
            v_mid = v - i_request * half_dt / cap
            low = v_mid <= _DEVICE_EPS
            if frozen is not None:
                frozen = frozen | low
            elif np.count_nonzero(low):
                frozen = low
            discriminant = v_mid * v_mid - four_esr_p
            neg = discriminant < 0.0
            if np.count_nonzero(neg):
                hit_max = neg if frozen is None else ~frozen & neg
                i_request = np.where(hit_max & ~self.esr_small,
                                     v_mid / self.two_esr, i_request)
                frozen = hit_max if frozen is None else frozen | hit_max
                root = np.sqrt(np.where(neg, 0.0, discriminant))
            else:
                root = np.sqrt(discriminant)
            if self.esr_uniform:
                refined = (v_mid - root) / self.two_esr
            else:
                refined = np.where(
                    self.esr_small,
                    power_w / (v_mid if frozen is None
                               else np.where(frozen, 1.0, v_mid)),
                    (v_mid - root) / self.two_esr)
            if frozen is None:
                i_request = refined
            else:
                i_request = np.where(frozen, i_request, refined)

        i_limit = np.maximum(0.0, self.charge_c - self.floor_charge) / dt
        current = np.minimum(i_request, i_limit)
        noflow = noflow | (current <= _DEVICE_EPS)
        active = mask & ~noflow
        current = np.where(active, current, 0.0)

        left = self.charge_c - current * dt
        v_mid = 0.5 * (v + left / cap)
        terminal_v = v_mid - current * self.esr
        # current is exactly 0.0 off-active and v_mid >= 0, so the
        # product is an exact +0.0 there.
        achieved = current * terminal_v
        loss = current * current * self.esr * dt

        # Off-active lanes subtract an exact 0.0 from a non-negative
        # charge, and maximum(0, x) returns x for x >= +0.0.
        self.charge_c = np.maximum(0.0, left)
        self.telemetry.record_discharge(
            mask, None, achieved * dt, loss, current,
            mask & np.where(noflow, power_w > 0.0,
                            achieved < power_w * (1.0 - 1e-6) - 1e-9))
        return achieved

    def charge(self, mask: np.ndarray, power_w: np.ndarray,
               dt: float) -> np.ndarray:
        """Lane-parallel ``Supercapacitor.charge``; returns achieved."""
        cap = self.capacitance
        v = self.charge_c / cap
        vv = v * v
        stored = np.where(v <= self.min_v, 0.0,
                          self.half_cap * (vv - self.min_v_sq))
        noflow = (power_w <= 0.0) | (self.nominal_j - stored <= 1e-9)
        active = mask & ~noflow
        if not np.count_nonzero(active):
            self.telemetry.record_charge_time_only(mask)
            return self._zeros

        four_esr_p = self.four_esr * power_w
        with_esr = (-v + np.sqrt(vv + four_esr_p)) / self.two_esr
        if self.esr_uniform:
            i_request = with_esr
        else:
            no_esr = power_w / sel_max(sel_max(v, self.min_v), _DEVICE_EPS)
            i_request = np.where(self.esr_small, no_esr, with_esr)

        half_dt = 0.5 * dt  # exact; (0.5*i)*dt == i*(0.5*dt) bitwise
        for _ in range(3):
            v_mid = v + i_request * half_dt / cap
            with_esr = (-v_mid + np.sqrt(v_mid * v_mid + four_esr_p)
                        ) / self.two_esr
            if self.esr_uniform:
                i_request = with_esr
            else:
                i_request = np.where(self.esr_small,
                                     power_w / sel_max(v_mid, _DEVICE_EPS),
                                     with_esr)

        headroom_c = np.maximum(0.0, self.max_charge_c - self.charge_c)
        current = np.minimum(np.minimum(i_request, self.max_charge_current),
                             headroom_c / dt)
        current = np.where(active & (current > _DEVICE_EPS), current, 0.0)

        added = current * dt
        v_end = (self.charge_c + added) / cap
        v_mid = 0.5 * (v + v_end)
        terminal_v = v_mid + current * self.esr
        achieved = current * terminal_v
        loss = current * current * self.esr * dt

        # current is exactly 0.0 off the flowing lanes, so the unmasked
        # add leaves their (non-negative) charge unchanged.
        self.charge_c = self.charge_c + added
        self.telemetry.record_charge(mask, achieved * dt, loss, current)
        return achieved

    def apply_leakage(self, mask: np.ndarray, power_w: np.ndarray,
                      dt: float) -> None:
        """Lane-parallel ``Supercapacitor.apply_leakage`` on ``mask``.

        The drained energy lands in the loss counter only, never in
        ``energy_out_j``; lanes outside ``mask``, without a drain, or
        at (near) zero voltage keep their charge and counters.
        """
        lanes = (mask & (power_w > 0.0)).nonzero()[0]
        charge = self.charge_c[lanes]
        cap = self.capacitance[lanes]
        v = charge / cap
        leaking = (v > _DEVICE_EPS).nonzero()[0]
        if leaking.size < lanes.size:
            lanes, charge, cap, v = (lanes[leaking], charge[leaking],
                                     cap[leaking], v[leaking])
        if not lanes.size:
            return
        drained_c = sel_min(charge, power_w[lanes] / v * dt)
        v_end = (charge - drained_c) / cap
        self.charge_c[lanes] = charge - drained_c
        self.telemetry.record_loss(lanes, 0.5 * (v + v_end) * drained_c)

    def rest(self, mask: np.ndarray, dt: float) -> None:
        self.telemetry.record_rest(mask)

    def write_back(self, lane: int, sc: Supercapacitor) -> None:
        sc._charge_c = float(self.charge_c[lane])
        self.telemetry.write_back(lane, sc.telemetry)


class BatchLifetime:
    """Lane-parallel :class:`AhThroughputLifetimeModel` counters.

    The throughput sums are banked (:class:`_BankedSum`); the
    observation window, which the scalar extends by ``dt`` per
    observation, is kept as an observation count (see
    :class:`BatchTelemetry`).
    """

    def __init__(self, models: Sequence[AhThroughputLifetimeModel],
                 dt: float) -> None:
        n = len(models)
        self.n = n
        self.dt = dt
        self.ref = np.array(
            [m.config.reference_current_a for m in models])
        self.exponent_on = np.array(
            [bool(m.current_stress_exponent) for m in models], dtype=bool)
        self.exponents = np.array(
            [m.current_stress_exponent for m in models], dtype=float)
        self.stress = np.array([m.low_soc_stress for m in models])
        self._effective = _BankedSum(n)
        self._raw = _BankedSum(n)
        self._observations = np.zeros(n, dtype=np.int64)
        self._ones = np.ones(n)
        self._ones.setflags(write=False)

    @property
    def effective_c(self) -> np.ndarray:
        return self._effective.total()

    @property
    def raw_c(self) -> np.ndarray:
        return self._raw.total()

    @property
    def observation_s(self) -> np.ndarray:
        return _step_times(self._observations, self.dt)

    def observe_discharge(self, mask: np.ndarray, current: np.ndarray,
                          dt: float, soc: np.ndarray) -> None:
        """Fold one discharge step per lane of ``mask`` (``current`` is
        an exact 0.0 elsewhere, so the unmasked adds are exact)."""
        charge_c = current * dt
        # current_weight * soc_weight (current_weight is 1.0 at or below
        # the reference, and 1.0 * w == w bitwise).
        weight = pow_lanes(
            current / self.ref, self.exponents,
            (current <= self.ref) | ~self.exponent_on, self._ones) * (
                1.0 + self.stress * np.maximum(0.0, 1.0 - soc))
        self._raw.add(None, charge_c)
        self._effective.add(None, charge_c * weight)
        self._observations = self._observations + mask

    def observe_idle(self, mask: Optional[np.ndarray], dt: float) -> None:
        """Extend the observation window; ``mask=None`` = every lane."""
        if mask is None:
            self._observations = self._observations + 1
        else:
            self._observations = self._observations + mask

    def write_back(self, lane: int,
                   model: AhThroughputLifetimeModel) -> None:
        model._effective_throughput_c = float(self.effective_c[lane])
        model._raw_throughput_c = float(self.raw_c[lane])
        model._observation_s = float(self.observation_s[lane])


__all__ = [
    "BatchBattery",
    "BatchLifetime",
    "BatchSupercap",
    "BatchTelemetry",
    "pow_lanes",
    "sel_max",
    "sel_min",
]
