"""Lane-parallel relay assignment for the batched engine.

:class:`BatchScheduler` computes, for N scenario lanes at once, exactly
what :func:`repro.core.scheduler.reference_assign` computes per lane —
the memoized fast paths in :class:`~repro.core.scheduler.LoadScheduler`
are pure caches of the reference semantics, so the batch path targets
the reference directly.

Exactness notes mirrored from the scalar code:

* totals accumulate column-by-column in server-index order (a masked
  running sum), never via ``np.sum`` whose pairwise tree reorders terms
  beyond 8 elements;
* the descending-demand order is a keyed *stable* argsort — identical
  tie-breaking to ``sorted(key=lambda i: (-demand[i], i))``, with
  unavailable servers keyed ``inf`` so they sort past every active one;
* the greedy cutoff's running draws are one ``np.cumsum`` down the
  ranks (an accumulate, so sequential at every width) and the take
  mask is their over-budget prefix (``np.logical_and.accumulate``);
* ``np.rint`` is round-half-even like Python's ``round``, so the SC
  pool split matches ``int(round(r_lambda * n_buffered))`` bit-for-bit.

The caller owns the per-slot invariants: ``r_lambda`` arrives already
clamped (with the scalar's NaN -> 1.0 quirk) because it is constant
within a slot, and ``available=None`` declares every server available —
both let the per-tick fast path skip work the slot boundary already
did.  On the all-within fast path the returned draw/count arrays are
shared read-only zeros and ``sources`` is a shared read-only
all-UTILITY template; consumers that mutate (the cluster's shed paths)
copy-on-write.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..server.batch import (SOURCE_BATTERY, SOURCE_NONE, SOURCE_SUPERCAP,
                            SOURCE_UTILITY)

_INF = float("inf")


class BatchAssignment:
    """One tick's relay plans for every lane.

    Attributes:
        sources: (lanes, servers) int8 source codes.
        utility_draw_w: (lanes,) demand left on the utility feed.
        sc_draw_w: (lanes,) demand assigned to the SC pool.
        battery_draw_w: (lanes,) demand assigned to the battery pool.
        n_buffered: (lanes,) servers moved off utility.
        all_utility: True when no lane buffered anything this tick —
            the draw/count arrays are all zero and buffer service can
            be skipped wholesale.
    """

    __slots__ = ("sources", "utility_draw_w", "sc_draw_w",
                 "battery_draw_w", "n_buffered", "all_utility")

    def __init__(self, sources: np.ndarray, utility_draw_w: np.ndarray,
                 sc_draw_w: np.ndarray, battery_draw_w: np.ndarray,
                 n_buffered: np.ndarray, all_utility: bool = False) -> None:
        self.sources = sources
        self.utility_draw_w = utility_draw_w
        self.sc_draw_w = sc_draw_w
        self.battery_draw_w = battery_draw_w
        self.n_buffered = n_buffered
        self.all_utility = all_utility


class BatchScheduler:
    """Stateless lane-parallel twin of :class:`LoadScheduler`."""

    def __init__(self, n: int, num_servers: int) -> None:
        self.n = n
        self.num_servers = num_servers
        self._zeros = np.zeros(n)
        self._zeros.setflags(write=False)
        self._zeros_i = np.zeros(n, dtype=np.int64)
        self._zeros_i.setflags(write=False)
        self._template = np.full((n, num_servers), SOURCE_UTILITY,
                                 dtype=np.int8)
        self._template.setflags(write=False)
        self._lanes = np.arange(n)
        self._offsets = self._lanes[:, None] * num_servers
        self._ranks = np.arange(num_servers)[:, None]

    def assign(self,
               demands_w: np.ndarray,
               available: Optional[np.ndarray],
               budget_w: np.ndarray,
               r_lambda: np.ndarray,
               use_sc: np.ndarray,
               use_battery: np.ndarray,
               no_pools: Optional[np.ndarray] = None,
               total: Optional[np.ndarray] = None) -> BatchAssignment:
        """Relay plans for one tick across all lanes.

        Args:
            demands_w: (lanes, servers) per-server demand.
            available: (lanes, servers) availability mask, or ``None``
                when every server is available.
            budget_w: (lanes,) utility budgets.
            r_lambda: (lanes,) SC-pool fractions, already clamped to
                [0, 1] with the scalar's NaN -> 1.0 quirk.
            use_sc / use_battery: (lanes,) pool-usability masks.
            no_pools: optional precomputed ``~use_sc & ~use_battery``
                (constant within a slot).
            total: optional precomputed demand totals (valid only with
                ``available=None``); may be a read-through view the
                caller must not see mutated.
        """
        n, s = demands_w.shape
        if total is None:
            # Active total, accumulated in server-index order.
            total = np.zeros(n)
            if available is None:
                for j in range(s):
                    total = total + demands_w[:, j]
            else:
                for j in range(s):
                    total = total + np.where(available[:, j],
                                             demands_w[:, j], 0.0)

        if no_pools is None:
            no_pools = ~use_sc & ~use_battery
        within = (total <= budget_w) | no_pools
        if np.count_nonzero(within) == n:
            # The shared template never flows into the scatter path
            # below — this branch returns, and the mutable plan always
            # starts from a fresh array.
            return BatchAssignment(
                self._template if available is None
                else np.where(available, SOURCE_UTILITY,
                              SOURCE_NONE).astype(np.int8),
                total, self._zeros, self._zeros,
                self._zeros_i, all_utility=True)

        # Descending-demand order; unavailable servers key to +inf so
        # they sort after every active server and are never taken.
        if available is None:
            order = np.argsort(-demands_w, axis=-1, kind="stable")
        else:
            order = np.argsort(np.where(available, -demands_w, _INF),
                               axis=-1, kind="stable")
        # Rank-major (ranks, lanes) layout from here on: the flat index
        # of each lane's r-th server, so every per-rank pass below runs
        # down axis 0 across all lanes at once.
        flat = (order + self._offsets).T
        rank_demand = demands_w.take(flat)

        # The utility draw before each rank's cutoff test: the scalar's
        # running ``utility_draw -= demand`` as a cumsum down
        # ``[total; -d0; -d1; ...]`` (sequential; ``x + -d == x - d``).
        draws = np.concatenate((total[None], -rank_demand)).cumsum(axis=0)
        # A rank is taken while every earlier rank was and the draw is
        # still over budget (and the server is available).  A lane
        # within budget fails the test at rank 0 already; only lanes
        # without pools need masking.
        take = draws[:s] > budget_w
        if np.count_nonzero(no_pools):
            take[:, no_pools] = False
        if available is None:
            base = SOURCE_UTILITY
        else:
            rank_available = available.take(flat)
            take &= rank_available
            base = np.where(rank_available, SOURCE_UTILITY, SOURCE_NONE)
        took = np.logical_and.accumulate(take, axis=0)
        n_buffered = np.add.reduce(took, axis=0, dtype=np.int64)
        utility_draw = draws[n_buffered, self._lanes]

        # round(r * n_buffered) SC servers, with r forced to 0.0 without
        # an SC pool and 1.0 without a battery pool (``rint`` of 0.0 and
        # of 1.0 * n are exact).
        n_sc = np.rint(np.where(use_sc, np.where(use_battery, r_lambda, 1.0),
                                0.0) * n_buffered)

        # Pool assembly in rank (descending-demand) order: the first
        # n_sc taken ranks go to the SC pool, the other taken ones to
        # the battery pool; one flat scatter through ``order`` places
        # every rank's source code.
        on_sc = took & (self._ranks < n_sc)
        sources = np.zeros((n, s), dtype=np.int8)
        sources.put(flat, np.where(
            on_sc, SOURCE_SUPERCAP, np.where(took, SOURCE_BATTERY, base)))
        # Each pool total is a cumsum of demand * mask down the ranks,
        # which is the demand on the pool's ranks and an exact +0.0
        # elsewhere — the scalar's buffered-order accumulation.
        sc_draw = (rank_demand * on_sc).cumsum(axis=0)[-1]
        battery_draw = (rank_demand * (took ^ on_sc)).cumsum(axis=0)[-1]

        return BatchAssignment(sources, utility_draw, sc_draw,
                               battery_draw, n_buffered)


__all__ = ["BatchAssignment", "BatchScheduler"]
