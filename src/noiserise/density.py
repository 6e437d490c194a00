"""Greedy schedulers under a per-user interference-density cap.

Capping ``l_i * p_i / x_i`` at the budget for every user makes the
transmit power density independent of the schedule, so scheduling
decouples from power control and reduces to ranking users by weighted
rate at full density.  Any rate-adaptation hook can supply that rate;
Shannon capacity is the default.  Every allocation produced here also
satisfies the whole-band budget, since summing the density cap over
users gives ``sum l_i p_i <= I * sum x_i <= I``.

The array functions schedule every cell of a :class:`Cells` layout at
once from per-user arrays; the functions taking :class:`UserLink` lists
convert at the boundary and call them on a single cell.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .model import Allocation, Cells, UserLink, budget_watts, link_arrays, winner_takes_band
from .solver import objective

__all__ = [
    "RateAdaptation",
    "shannon_rate_adaptation",
    "schedule_density",
    "schedule_density_capped",
]

# maps (power density in Watts per unit band fraction, link) to a rate per
# unit bandwidth; must be nondecreasing in the density and 0 at density 0
RateAdaptation = Callable[[float, UserLink], float]


def shannon_rate_adaptation(power_density: float, link: UserLink) -> float:
    """Default rate hook: log(1 + density * e) nats per unit bandwidth."""
    return math.log1p(power_density * link.norm_sinr)


def density_scores(w, e, l, budget):
    """Weighted Shannon rate ``w log(1 + (I/l) e)`` at full density, per user."""
    return w * np.log1p(budget / l * e)


def capped_frame(cells: Cells, w, e, l, cap, budget):
    """Per-user ``(x, p)`` of the capped cascade, every cell at once.

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
    share = np.where(valid, cap_r * l_r / budget, 0.0)
    band = np.empty((cells.n_cells, share.shape[1] + 1))
    band[:, 0] = 1.0
    band[:, 1:] = share
    left = np.subtract.accumulate(band, axis=1)
    before = left[:, :-1]  # band remaining when each rank's turn comes
    live = valid & (before > 0.0)
    full = live & (share <= before)  # granted its cap-limited share
    last = live & ~full  # takes whatever band is left
    x_r = np.where(full, share, np.where(last, before, 0.0))
    p_r = np.where(full, cap_r, np.where(last, before * budget / l_r, 0.0))
    # band to spare after every user is capped: spread it over the grantees
    remaining = np.maximum(left[:, -1], 0.0)
    granted = 1.0 - remaining
    x_r = x_r / np.where((remaining > 0.0) & (granted > 0.0), granted, 1.0)[:, None]
    x = np.zeros(n)
    p = np.zeros(n)
    x[ranked[valid]] = x_r[valid]
    p[ranked[valid]] = p_r[valid]
    return x, p


def schedule_density(links: Sequence[UserLink], budget, rate_fn: RateAdaptation = shannon_rate_adaptation) -> Allocation:
    """Single-winner scheduler under the per-user density cap.

    Every user would transmit at density ``I / l_i``, so the user
    maximizing ``weight * rate_fn(I / l_i)`` takes the whole band at
    exactly that density.  Ties go to the lowest index; if every weighted
    rate is zero the lowest-index user is still scheduled (at zero rate),
    so the output shape is always the same.
    """
    I = budget_watts(budget)
    if not links:
        raise ValueError("at least one user required")
    w, e, l, _ = link_arrays(links)
    if rate_fn is shannon_rate_adaptation:
        scores = density_scores(w, e, l, I)
    else:
        scores = np.array([u.weight * rate_fn(I / u.norm_interference, u) for u in links])
    x, p = winner_takes_band(Cells.single(len(links)), scores, I / l)
    return Allocation(x=x.tolist(), p=p.tolist(), objective=max(float(scores.max()), 0.0))


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
    I = budget_watts(budget)
    if not links:
        raise ValueError("at least one user required")
    w, e, l, cap = link_arrays(links)
    x, p = capped_frame(Cells.single(len(links)), w, e, l, cap, I)
    x, p = x.tolist(), p.tolist()
    return Allocation(x=x, p=p, objective=objective(x, p, links))
