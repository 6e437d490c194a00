"""Comparison schemes: fixed-power single-user scheduling with
mean-interference calibration, and a simplified target-SINR power control.

Both baselines schedule exactly one user per frame on the whole band;
neither respects the egress budget by construction, which is the point of
comparing against them.  As in :mod:`noiserise.density`, each scheme is
one binder ``(cells, e, l, cap, <param>)`` returning the frame function
``schedule(w)`` that serves every cell of a :class:`Cells` layout at
once; ``simnet.make_scheme`` builds the schemes from them, and
``simnet`` holds their per-cell functions.  The fixed-power formulas
live in :func:`fixed_rates`, which the binder
:func:`~noiserise.model.greedy` evaluates once per run.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .model import Cells, winner_takes_band

__all__ = [
    "CalibrationError",
    "calibrate_fixed_power",
    "calibrate_in_lockstep",
]


_TOLERANCE = 0.02  # relative mean-ingress mismatch a calibration accepts
_MAX_EXPANSIONS = 60
_MAX_BISECTIONS = 80


class CalibrationError(RuntimeError):
    """Fixed-power calibration could not match the reference interference."""


def fixed_rates(e, l, power):
    """Each user's full-band rate factor at constant power, ``log(1 + P e)``,
    and that power, one for all or one per user; ``l`` is not used."""
    return np.log1p(power * e), power


def calibrate_fixed_power(
    run_mean_ingress: Callable[[float], float],
    reference_mean_ingress: float,
    initial_power: float = 1.0,
) -> float:
    """Find the constant power whose mean ingress matches the reference.

    ``run_mean_ingress`` must rerun the calibration simulation (fixed
    seed, enough frames to be stable) at the given power and return its
    mean ingress interference; it is assumed nondecreasing in the power.
    The search expands geometrically from ``initial_power``, up or down
    as its first probe falls short of or overshoots the reference, until
    the reference is bracketed, then bisects in log scale until the
    relative mismatch is within 2%.  This is :func:`calibrate_in_lockstep`
    with one search.
    """
    (power,) = calibrate_in_lockstep(
        lambda powers: [run_mean_ingress(p) for p in powers.values()],
        [reference_mean_ingress],
        [initial_power],
    )
    if isinstance(power, CalibrationError):
        raise power
    return power


def calibrate_in_lockstep(
    run_round: Callable[[dict], Sequence[float]],
    references: Sequence[float],
    initial_powers: Sequence[float],
) -> list:
    """Run the :func:`calibrate_fixed_power` search for every reference
    at once, from its initial power, advancing the searches in rounds.

    Each round calls ``run_round({search: power})`` once, with the next
    power of every unfinished search keyed by its index, and takes back
    their mean ingresses in the same order.  Every search probes exactly
    the powers it probes alone.  Returns per search its matched power, or
    the :class:`CalibrationError` that ended it.
    """
    results = [None] * len(references)
    searches = [_search(ref, power) for ref, power in zip(references, initial_powers)]
    sent = dict.fromkeys(range(len(searches)))  # None starts a search
    while sent:
        powers = {}
        for k, value in sent.items():
            try:
                powers[k] = searches[k].send(value)
            except StopIteration as done:
                results[k] = done.value
            except CalibrationError as exc:
                results[k] = exc
        sent = dict(zip(powers, run_round(powers))) if powers else {}
    return results


def _search(ref: float, initial_power: float):
    """The calibration search: yields each power to probe and is sent its
    mean ingress; returns the matched power."""
    if not ref > 0:
        raise CalibrationError(f"reference mean ingress must be positive, got {ref!r}")
    if not initial_power > 0:
        raise ValueError("initial_power must be > 0")

    def within(value):
        return abs(value - ref) / ref <= _TOLERANCE

    power = initial_power
    value = yield power
    if within(value):
        return power
    rising = value < ref
    for _ in range(_MAX_EXPANSIONS):
        last = power
        power *= 4.0 if rising else 0.25
        value = yield power
        if within(value):
            return power
        if value >= ref if rising else value <= ref:
            lo, hi = sorted((last, power))
            break
    else:
        raise CalibrationError(
            f"could not bracket the reference ingress {ref!r}: "
            f"last power {power!r} gave mean ingress {value!r}"
        )
    for _ in range(_MAX_BISECTIONS):
        power = math.sqrt(lo * hi)
        value = yield power
        if within(value):
            return power
        if value < ref:
            lo = power
        else:
            hi = power
    raise CalibrationError(
        f"bisection exhausted without matching the reference to {_TOLERANCE:.0%}: "
        f"bracket [{lo!r}, {hi!r}], last mean ingress {value!r} vs reference {ref!r}"
    )


def bind_target_sinr(cells: Cells, e, l, cap, target_sinr):
    """The target-SINR scheme bound to a run: each user with ``e > 0`` is
    given, once, the power reaching ``target_sinr`` at SINR ``e``, clamped
    at ``cap``, and the frame function ``schedule(w)`` gives each cell's
    band to its heaviest such user at that power; a cell where nobody has
    ``e > 0`` gives the band to its first user at zero power.  ``l`` is
    not used."""
    able = e > 0
    power = np.zeros(len(e))
    power[able] = np.minimum(target_sinr / e[able], cap[able])
    rate = math.log1p(target_sinr)
    # a user without e > 0 keeps the buffer's -inf, which is never
    # multiplied by a weight: a weight of 0 would make it NaN
    scores = cells.score_buffer()
    users = scores[:-1]

    def schedule(w):
        np.multiply(w, rate, out=users, where=able)
        return winner_takes_band(cells, scores, power)

    return schedule
