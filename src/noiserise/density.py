"""Greedy schedulers under a per-user interference-density cap.

Capping ``l_i * p_i / x_i`` at the budget for every user makes the
transmit power density independent of the schedule, so scheduling
decouples from power control and reduces to ranking users by weighted
Shannon rate at full density.  Every allocation produced here also
satisfies the whole-band budget, since summing the density cap over
users gives ``sum l_i p_i <= I * sum x_i <= I``.

Each scheme is one frame function ``(cells, w, e, l, cap, budget)`` that
schedules every cell of a :class:`Cells` layout at once from per-user
arrays, the budget one for all users or one per user; the simulator binds
it in ``make_scheme``, and the function
taking a :class:`UserLink` list runs it on one cell through
:func:`~noiserise.solver.one_cell`.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .model import Allocation, Cells, FrameAllocation, UserLink, budget_watts, winner_takes_band
from .solver import one_cell

__all__ = [
    "schedule_density",
    "schedule_density_capped",
]


def density_frame(cells: Cells, w, e, l, cap, budget) -> FrameAllocation:
    """Each cell's user with the best weighted Shannon rate at full
    density, ``w log(1 + (I/l) e)``, takes the band at ``p = I/l``; ``cap``
    is not used."""
    return winner_takes_band(cells, w * np.log1p(budget / l * e), budget / l)


def capped_frame(cells: Cells, w, e, l, cap, budget) -> FrameAllocation:
    """The capped cascade (see :func:`schedule_density_capped`), every cell
    at once.

    Within a row, users are ranked by weighted full-density rate (ties to
    the lowest index); ``np.subtract.accumulate`` gives the band left
    before each rank with the same sequential rounding as a walk.
    """
    n = len(l)
    score = cells.gather(w * np.log1p(budget * e / l), -np.inf)
    order = np.argsort(-score, axis=1, kind="stable")
    ranked = np.take_along_axis(cells.index, order, axis=1)
    valid = np.take_along_axis(cells.valid, order, axis=1)
    cap_r = cap[ranked]
    l_r = l[ranked]
    budget_r = budget[ranked] if np.ndim(budget) else budget
    share = np.where(valid, cap_r * l_r / budget_r, 0.0)
    band = np.empty((cells.n_cells, share.shape[1] + 1))
    band[:, 0] = 1.0
    band[:, 1:] = share
    left = np.subtract.accumulate(band, axis=1)
    before = left[:, :-1]  # band remaining when each rank's turn comes
    live = valid & (before > 0.0)
    full = live & (share <= before)  # granted its cap-limited share
    last = live & ~full  # takes whatever band is left
    x_r = np.where(full, share, np.where(last, before, 0.0))
    p_r = np.where(full, cap_r, np.where(last, before * budget_r / l_r, 0.0))
    # band to spare after every user is capped: spread it over the grantees
    remaining = np.maximum(left[:, -1], 0.0)
    granted = 1.0 - remaining
    x_r = x_r / np.where((remaining > 0.0) & (granted > 0.0), granted, 1.0)[:, None]
    x = np.zeros(n)
    p = np.zeros(n)
    x[ranked[valid]] = x_r[valid]
    p[ranked[valid]] = p_r[valid]
    return FrameAllocation(x, p)


def schedule_density(links: Sequence[UserLink], budget) -> Allocation:
    """Single-winner scheduler under the per-user density cap.

    Every user would transmit at density ``I / l_i``, so the user
    maximizing ``weight * log(1 + (I / l_i) e_i)`` takes the whole band
    at exactly that density.  Ties go to the lowest index; if every
    weighted rate is zero the lowest-index user is still scheduled (at
    zero rate), so the output shape is always the same.  A winner whose
    ``I / l_i`` breaks its ``max_power`` raises :class:`ValueError`;
    :func:`schedule_density_capped` honours the cap.
    """
    return one_cell(links, partial(density_frame, budget=budget_watts(budget)))


def schedule_density_capped(links: Sequence[UserLink], budget) -> Allocation:
    """Cascading variant of the density scheduler honoring max power.

    Users are ranked by weighted full-density Shannon rate; each one takes
    the largest band share its power cap supports at full density
    (``x = Pmax * l / I`` pins ``p`` at Pmax), and the walk stops once the
    band is gone.  If every user is power-capped with band to spare, the
    leftover is spread over the scheduled users proportionally to their
    shares with powers frozen, which drops their density below the cap but
    never violates the budget.  A missing ``max_power`` means no cap.
    """
    return one_cell(links, partial(capped_frame, budget=budget_watts(budget)))
