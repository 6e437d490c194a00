"""Domain types and the stateless link formulas shared by every scheduler.

Conventions used across the package: rates are in nats (natural log;
divide by ``LN2`` for bits), the egress-interference budget ``I`` is a
whole-band power in Watts, and the noise-rise dB target is referenced to
the total in-band noise power ``P_N = N0 * B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

__all__ = [
    "LN2",
    "UserLink",
    "Cells",
    "FrameAllocation",
    "Allocation",
    "NoiseRiseBudget",
    "SolverConfig",
    "budget_watts",
    "normalized_interference",
    "noise_rise_budget_from_db",
]


def _check_finite(name, value):
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class UserLink:
    """Scheduling inputs for one mobile station as seen by its serving cell.

    ``norm_sinr`` (e) is the serving-link gain divided by the total
    noise-plus-interference power in the band, in 1/Watt, so ``p * e`` is
    the term inside the rate log at full band.  ``norm_interference`` (l)
    is the summed channel gain toward all non-serving base stations, i.e.
    interference injected per Watt transmitted.  ``max_power`` is None in
    the interference-limited regime where the budget, not the amplifier,
    caps the transmit power.
    """

    id: int | str
    weight: float
    norm_sinr: float
    norm_interference: float
    max_power: float | None = None

    def __post_init__(self):
        _check_finite("weight", self.weight)
        _check_finite("norm_sinr", self.norm_sinr)
        if self.weight < 0 or self.norm_sinr < 0:
            raise ValueError("weight and norm_sinr must be >= 0")
        l = self.norm_interference
        if not (math.isfinite(l) and l > 0):
            raise ValueError(f"norm_interference must be finite and > 0, got {l!r}")
        if self.max_power is not None and not self.max_power > 0:
            raise ValueError(f"max_power must be positive when given, got {self.max_power!r}")


def link_arrays(links):
    """Per-user ``(w, e, l, cap)`` float arrays of validated links; ``cap``
    is ``inf`` where a link has no ``max_power``."""
    w = np.array([u.weight for u in links], dtype=float)
    e = np.array([u.norm_sinr for u in links], dtype=float)
    l = np.array([u.norm_interference for u in links], dtype=float)
    cap = np.array([math.inf if u.max_power is None else u.max_power for u in links], dtype=float)
    return w, e, l, cap


@dataclass(frozen=True)
class Cells:
    """Which users each cell serves, as a padded index matrix.

    Row k of ``index`` lists cell k's users in ascending order, padded
    with 0 where ``valid`` is False; ``cell_of[i]`` is user i's cell.
    Per-user arrays gathered through ``index`` give one row per cell, so
    a reduction along axis 1 schedules every cell at once.
    """

    cell_of: np.ndarray
    index: np.ndarray
    valid: np.ndarray

    @classmethod
    def from_cell_of(cls, cell_of, n_cells: int) -> "Cells":
        cell_of = np.asarray(cell_of, dtype=np.intp)
        counts = np.bincount(cell_of, minlength=n_cells)
        valid = np.arange(max(int(counts.max(initial=0)), 1))[None, :] < counts[:, None]
        index = np.zeros(valid.shape, dtype=np.intp)
        index[valid] = np.argsort(cell_of, kind="stable")  # row-major fill keeps cell order
        return cls(cell_of=cell_of, index=index, valid=valid)

    @classmethod
    def single(cls, n: int) -> "Cells":
        """One cell serving users 0..n-1, for the per-cell library calls."""
        return cls.from_cell_of(np.zeros(n, dtype=np.intp), 1)

    @property
    def n_cells(self) -> int:
        return self.index.shape[0]

    def gather(self, values, fill):
        """``values`` per user as an (n_cells, width) matrix, ``fill`` in padding."""
        return np.where(self.valid, values[self.index], fill)

    def winners(self, scores):
        """Each non-empty cell's highest-scoring user, ties to the lowest index."""
        col = self.gather(scores, -np.inf).argmax(axis=1)
        rows = np.arange(self.n_cells)
        return self.index[rows, col][self.valid[rows, col]]

    def sums(self, values):
        """Per-cell sums of a per-user array."""
        return np.bincount(self.cell_of, weights=values, minlength=self.n_cells)


@dataclass(frozen=True)
class FrameAllocation:
    """One frame's schedule: band share ``x`` and power ``p`` per mobile.

    The other fields hold one entry per cell of an exact dual solve and
    are None for the greedy schemes: the budget and band prices (NaN for
    a cell with no mobiles), the walk's envelope probes and kink searches,
    whether it reached a stationary point, and the KKT residual (NaN for a
    cell with no mobiles).
    """

    x: np.ndarray
    p: np.ndarray
    lambda1: np.ndarray | None = None
    lambda2: np.ndarray | None = None
    probes: np.ndarray | None = None
    kinks: np.ndarray | None = None
    converged: np.ndarray | None = None
    kkt_residual: np.ndarray | None = None


def winner_takes_band(cells: Cells, scores, power) -> FrameAllocation:
    """Each cell's highest-scoring user holds the whole band at ``power``
    (a scalar or per-user array), everyone else nothing."""
    x = np.zeros(len(cells.cell_of))
    p = np.zeros(len(cells.cell_of))
    best = cells.winners(scores)
    x[best] = 1.0
    p[best] = power[best] if np.ndim(power) else power
    return FrameAllocation(x, p)


@dataclass(frozen=True)
class NoiseRiseBudget:
    """Egress-interference cap: the dB target plus its linear value in Watts."""

    target_db: float
    linear_budget: float

    def __post_init__(self):
        if not (math.isfinite(self.linear_budget) and self.linear_budget > 0):
            raise ValueError(f"linear_budget must be finite and > 0, got {self.linear_budget!r}")


def noise_rise_budget_from_db(target_db, n0_density, bandwidth):
    """Convert a noise-rise target in dB to a linear egress budget.

    The reference is the total in-band noise power ``P_N = n0_density *
    bandwidth``; a target of gamma dB then tolerates interference
    ``I = P_N * (10**(gamma/10) - 1)`` before the received noise plus
    interference exceeds gamma over the noise floor.
    """
    if not target_db > 0:
        raise ValueError(f"target_db must be > 0, got {target_db!r}")
    if not n0_density > 0:
        raise ValueError(f"n0_density must be > 0, got {n0_density!r}")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
    p_noise = n0_density * bandwidth
    return NoiseRiseBudget(float(target_db), p_noise * (10.0 ** (target_db / 10.0) - 1.0))


def budget_watts(budget):
    """Accept either a :class:`NoiseRiseBudget` or a plain power in Watts."""
    if isinstance(budget, NoiseRiseBudget):
        return budget.linear_budget
    value = float(budget)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"budget must be a positive power in Watts, got {budget!r}")
    return value


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration limits for the joint solver."""

    tol_bandwidth: float = 1e-9
    tol_convergence: float = 1e-8
    tol_kkt: float = 1e-6
    max_iterations: int = 200
    epsilon_floor: float = 1e-6

    def __post_init__(self):
        for name in ("tol_bandwidth", "tol_convergence", "tol_kkt", "epsilon_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Allocation:
    """Per-cell scheduling outcome: bandwidth fractions and powers per user.

    ``lambda1``/``lambda2`` are the duals of the egress budget and of the
    bandwidth constraint when produced by the joint solver and None for
    the greedy schedulers.  ``objective`` is the weighted sum rate in nats
    with the bandwidth factor omitted.
    """

    x: list
    p: list
    lambda1: float | None = None
    lambda2: float | None = None
    objective: float = 0.0
    iterations: int = 0
    converged: bool | None = None
    certified: bool | None = None
    kkt_residual: float | None = None
    trace: list | None = None

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise ValueError("x and p must have the same length")
        for xi, pi in zip(self.x, self.p):
            if xi < 0 or pi < 0:
                raise ValueError("bandwidth fractions and powers must be >= 0")
            if xi == 0 and pi != 0:
                raise ValueError("power assigned to a user holding no bandwidth")


def normalized_interference(serving_gain, downlink_sir):
    """Per-Watt egress interference ``l`` estimated from the downlink SIR.

    By channel reciprocity the gain sum toward all non-serving stations
    equals ``serving_gain / downlink_sir``, so a base station can estimate
    l from its mobiles' ordinary channel-quality reports without any
    inter-cell message exchange.
    """
    if not serving_gain > 0:
        raise ValueError(f"serving_gain must be > 0, got {serving_gain!r}")
    if not downlink_sir > 0:
        raise ValueError(f"downlink_sir must be > 0, got {downlink_sir!r}")
    return serving_gain / downlink_sir
