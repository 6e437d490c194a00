"""Comparison schemes: fixed-power single-user scheduling with
mean-interference calibration, and a simplified target-SINR power control.

Both baselines schedule exactly one user per frame on the whole band;
neither respects the egress budget by construction, which is the point of
comparing against them.  As in :mod:`noiserise.density`, the array
functions serve every cell of a :class:`Cells` layout at once and the
:class:`UserLink` functions call them on a single cell.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .model import Allocation, Cells, UserLink, link_arrays, winner_takes_band

__all__ = [
    "CalibrationError",
    "schedule_fixed_power",
    "calibrate_fixed_power",
    "schedule_target_sinr",
]


class CalibrationError(RuntimeError):
    """Fixed-power calibration could not match the reference interference."""


def fixed_power_scores(w, e, power):
    """Weighted full-band rate ``w log(1 + P e)`` at constant power, per user."""
    return w * np.log1p(power * e)


def schedule_fixed_power(links: Sequence[UserLink], power: float) -> Allocation:
    """Schedule the user with the best weighted full-band rate at constant power.

    The winner is ``argmax w_i * log(1 + P * e_i)`` (ties to the lowest
    index) and takes the whole band at exactly ``P`` Watts regardless of
    the interference it injects.
    """
    if not power > 0:
        raise ValueError(f"power must be > 0, got {power!r}")
    if not links:
        raise ValueError("at least one user required")
    w, e, _, _ = link_arrays(links)
    scores = fixed_power_scores(w, e, power)
    x, p = winner_takes_band(Cells.single(len(links)), scores, power)
    return Allocation(x=x.tolist(), p=p.tolist(), objective=max(float(scores.max()), 0.0))


def calibrate_fixed_power(
    run_mean_ingress: Callable[[float], float],
    reference_mean_ingress: float,
    tolerance: float = 0.02,
    initial_power: float = 1.0,
    max_expansions: int = 60,
    max_bisections: int = 80,
) -> float:
    """Find the constant power whose mean ingress matches the reference.

    ``run_mean_ingress`` must rerun the calibration simulation (fixed
    seed, enough frames to be stable) at the given power and return its
    mean ingress interference; it is assumed nondecreasing in the power.
    The search expands geometrically until the reference is bracketed,
    then bisects in log scale until the relative mismatch is within
    ``tolerance``.
    """
    ref = reference_mean_ingress
    if not ref > 0:
        raise CalibrationError(f"reference mean ingress must be positive, got {ref!r}")
    if not initial_power > 0:
        raise ValueError("initial_power must be > 0")

    def within(value):
        return abs(value - ref) / ref <= tolerance

    power = initial_power
    value = run_mean_ingress(power)
    if within(value):
        return power
    lo = hi = None
    if value < ref:
        lo = power
        for _ in range(max_expansions):
            power *= 4.0
            value = run_mean_ingress(power)
            if within(value):
                return power
            if value >= ref:
                hi = power
                break
            lo = power
    else:
        hi = power
        for _ in range(max_expansions):
            power *= 0.25
            value = run_mean_ingress(power)
            if within(value):
                return power
            if value <= ref:
                lo = power
                break
            hi = power
    if lo is None or hi is None:
        raise CalibrationError(
            f"could not bracket the reference ingress {ref!r}: "
            f"last power {power!r} gave mean ingress {value!r}"
        )
    for _ in range(max_bisections):
        power = math.sqrt(lo * hi)
        value = run_mean_ingress(power)
        if within(value):
            return power
        if value < ref:
            lo = power
        else:
            hi = power
    raise CalibrationError(
        f"bisection exhausted without matching the reference to {tolerance:.0%}: "
        f"bracket [{lo!r}, {hi!r}], last mean ingress {value!r} vs reference {ref!r}"
    )


def target_sinr_frame(cells: Cells, w, e, cap, target_sinr, scale=1.0):
    """Per-user ``(x, p)``: each cell's heaviest user with ``e > 0`` takes the
    band at the power reaching ``target_sinr`` with SINR ``e * scale``,
    clamped at ``cap``; a cell where nobody has ``e > 0`` gives the band to
    its first user at zero power."""
    able = e > 0
    scores = np.where(able, w * math.log1p(target_sinr), -np.inf)
    power = np.zeros(len(e))
    power[able] = np.minimum(target_sinr / (e[able] * scale), cap[able])
    return winner_takes_band(cells, scores, power)


def schedule_target_sinr(
    links: Sequence[UserLink],
    target_sinr: float,
    assumed_noise_plus_interference: float,
    e_reference_power: float | None = None,
) -> Allocation:
    """Winner-takes-band power control aiming at a fixed received SINR.

    The winner's power is set so its received SINR equals ``target_sinr``
    under the assumed noise-plus-interference power; the rate factor
    ``log(1 + target)`` is common to everyone, so the winner is simply the
    heaviest user able to transmit (ties to the lowest index).  When the
    links' ``norm_sinr`` was normalized against a different total power,
    pass it as ``e_reference_power`` so the effective e can be rescaled.
    Power is clamped to ``max_power`` when the link carries one.
    """
    if not target_sinr > 0:
        raise ValueError(f"target_sinr must be > 0, got {target_sinr!r}")
    if not assumed_noise_plus_interference > 0:
        raise ValueError("assumed_noise_plus_interference must be > 0")
    if not links:
        raise ValueError("at least one user required")
    scale = 1.0
    if e_reference_power is not None:
        if not e_reference_power > 0:
            raise ValueError("e_reference_power must be > 0")
        scale = e_reference_power / assumed_noise_plus_interference
    w, e, _, cap = link_arrays(links)
    x, p = target_sinr_frame(Cells.single(len(links)), w, e, cap, target_sinr, scale)
    best = int(x.argmax())
    obj = float(w[best]) * math.log1p(float(p[best]) * (float(e[best]) * scale))
    return Allocation(x=x.tolist(), p=p.tolist(), objective=obj)
