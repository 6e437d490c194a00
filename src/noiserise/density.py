"""Greedy schedulers under a per-user interference-density cap.

Capping ``l_i * p_i / x_i`` at the budget for every user makes the
transmit power density independent of the schedule, so scheduling
decouples from power control and reduces to ranking users by weighted
Shannon rate at full density.  Every allocation produced here also
satisfies the whole-band budget, since summing the density cap over
users gives ``sum l_i p_i <= I * sum x_i <= I``.

Each scheme is one binder ``(cells, e, l, cap, budget)`` that, bound to
a :class:`Cells` layout and per-user arrays, returns the frame function
``schedule(w)`` scheduling every cell at once, the budget one for all
cells or one per cell.  ``simnet.make_scheme`` builds the schemes from
them, and ``simnet`` holds their per-cell functions.  Both rank users by
the rate factor of :func:`density_rates`, the one home of that formula.
"""

from __future__ import annotations

import numpy as np

from .model import Cells, FrameAllocation

__all__ = []


def density_rates(e, l, budget):
    """Each user's rate factor at full density, ``log(1 + (I/l) e)``, and
    its power there, ``I/l``."""
    power = budget / l
    return np.log1p(power * e), power


def bind_capped(cells: Cells, e, l, cap, budget):
    """The capped cascade (see
    :func:`noiserise.simnet.schedule_density_capped`) bound to a run: each
    user's full-density rate factor is computed once, and the frame
    function ``schedule(w)`` ranks every cell's users by ``w`` times it."""
    budget = cells.per_cell(budget)[cells.cell_of]
    rate, _ = density_rates(e, l, budget)
    return lambda w: _cascade(cells, w * rate, l, cap, budget)


def _cascade(cells: Cells, score, l, cap, budget) -> FrameAllocation:
    """The capped cascade of every cell at once, users ranked by ``score``.

    Within a row, ties go to the lowest index; ``np.subtract.accumulate``
    gives the band left before each rank with the same sequential
    rounding as a walk.
    """
    n = len(l)
    order = np.argsort(-cells.gather(score, -np.inf), axis=1, kind="stable")
    ranked = np.take_along_axis(cells.index, order, axis=1)
    valid = np.take_along_axis(cells.valid, order, axis=1)
    cap_r = cap[ranked]
    l_r = l[ranked]
    budget_r = budget[ranked]
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
