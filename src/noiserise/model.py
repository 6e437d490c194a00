"""Domain types and the stateless link formulas shared by every scheduler.

Conventions used across the package: rates are in nats (natural log;
divide by ``LN2`` for bits), the egress-interference budget ``I`` is a
whole-band power in Watts, and the noise-rise dB target is referenced to
the total in-band noise power ``P_N = N0 * B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        """The layout of ``n_cells`` cells serving user ``i`` in cell
        ``cell_of[i]``; ``ValueError`` for an id outside ``[0, n_cells)``."""
        cell_of = np.asarray(cell_of, dtype=np.intp)
        # the initial values leave an empty cell_of in range
        if not (cell_of.min(initial=0) >= 0 and cell_of.max(initial=-1) < n_cells):
            raise ValueError(f"cell ids must lie in [0, {n_cells}), got {cell_of.min()} to {cell_of.max()}")
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

    @cached_property
    def occupied(self) -> np.ndarray:
        """The non-empty cells, in ascending order; read-only, as every
        :class:`Winners` frame of the layout holds this one array."""
        rows = self.valid[:, 0].nonzero()[0]
        rows.flags.writeable = False
        return rows

    @cached_property
    def _pick(self):
        """The users of each occupied cell as one padded row, the padding
        at ``n``, the slot after the last of the ``n`` users; the rows
        flattened; and the offset of each row in them."""
        rows = self.occupied
        padded = np.where(self.valid[rows], self.index[rows], len(self.cell_of))
        row_base = np.arange(0, padded.size, padded.shape[1])
        padded.flags.writeable = row_base.flags.writeable = False
        return padded, padded.ravel(), row_base

    def score_buffer(self) -> np.ndarray:
        """A buffer of scores for :meth:`winners`: one per user, for the
        caller to write, and a last entry ``-inf``, which the padding
        reads and which the caller leaves as it is."""
        return np.full(len(self.cell_of) + 1, -np.inf)

    def winners(self, scores):
        """Each non-empty cell's highest-scoring user, ties to the lowest
        index, in the order of :attr:`occupied`.  ``scores`` is a
        :meth:`score_buffer`, so that every row's padding scores ``-inf``
        and one gather scores every occupied cell."""
        padded, flat, row_base = self._pick
        return flat[row_base + scores[padded].argmax(axis=1)]

    def sums(self, values):
        """Per-cell sums of a per-user array."""
        return np.bincount(self.cell_of, weights=values, minlength=self.n_cells)

    def per_cell(self, value) -> np.ndarray:
        """``value``, one number for every cell or an array of one per cell,
        as an array of one per cell (:func:`_per_cell`)."""
        return _per_cell(value, self.n_cells)


def _per_cell(value, n_cells: int) -> np.ndarray:
    """``value``, one number for every one of ``n_cells`` cells or an
    array of one per cell, as an array of one per cell; ``ValueError``
    for an array of another length."""
    if not np.ndim(value):
        return np.full(n_cells, value, dtype=float)
    values = np.asarray(value, dtype=float)
    if values.shape != (n_cells,):
        raise ValueError(f"expected one value, or one per cell of {n_cells} cells, got {values.tolist()!r}")
    return values


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


@dataclass(frozen=True)
class Winners:
    """A greedy frame: in each non-empty cell ``cell[k]``, ascending, the
    one user ``users[k]`` holds the whole band at ``power[k]``, and the
    other users of the ``n`` mobiles hold nothing.

    The dense ``x`` and ``p`` of :class:`FrameAllocation` are derived from
    these fields on every read, so they cannot be set and cannot disagree
    with them; the solver fields are None, as for every greedy frame.
    """

    users: np.ndarray
    cell: np.ndarray
    power: np.ndarray
    n: int

    lambda1 = lambda2 = probes = kinks = converged = kkt_residual = None

    @property
    def x(self) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.users] = 1.0
        return x

    @property
    def p(self) -> np.ndarray:
        p = np.zeros(self.n)
        p[self.users] = self.power
        return p


def winner_takes_band(cells: Cells, scores, power) -> Winners:
    """Each non-empty cell's highest-scoring user, ties to the lowest
    index, holds the whole band at its entry of the per-user ``power``;
    ``scores`` is a :meth:`Cells.score_buffer`."""
    users = cells.winners(scores)
    return Winners(users, cells.occupied, power[users], len(cells.cell_of))


def greedy(rates, value):
    """The binder ``bind(cells, e, l, cap)`` of a greedy scheme whose users'
    rate factors and powers are ``rate, power = rates(e, l, v)``, ``v``
    being ``value`` (one for every cell or one per cell) at each user's
    cell.

    Bound to a run's layout ``cells`` and the arrays ``e`` and ``l`` it
    hands every frame, it computes them once and returns the run's frame
    function ``schedule(w)``: each non-empty cell's user with the best
    ``w * rate``, written into the binding's :meth:`Cells.score_buffer`,
    takes the band at ``power`` (:func:`winner_takes_band`).  ``cap`` is
    not used.
    """

    def bind(cells: Cells, e, l, cap):
        rate, power = rates(e, l, cells.per_cell(value)[cells.cell_of])
        scores = cells.score_buffer()
        users = scores[:-1]

        def schedule(w):
            np.multiply(w, rate, out=users)
            return winner_takes_band(cells, scores, power)

        return schedule

    return bind


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


def _powers(name: str, value):
    """``value``, one positive finite power for every cell or a sequence of
    one per cell, as a float or an array; ``ValueError`` for any other
    shape or value, a bool or a string among them."""
    powers = np.asarray(value)
    # a bool or a string is no power, though numpy reads it as one; None
    # and ragged sequences are objects
    if (powers.dtype.kind in "iuf" and powers.ndim <= 1 and powers.size
            and powers.min() > 0 and powers.max() < math.inf):
        return powers.astype(float) if powers.ndim else float(powers)
    raise ValueError(f"{name} must be one positive finite power, or one per cell, got {value!r}")


def _watts(budget):
    """``budget``, a :class:`NoiseRiseBudget` or Watts, one for every cell
    or one per cell, in Watts (:func:`_powers`): the one rule for every
    budget the package takes."""
    return _powers("budget", budget.linear_budget if isinstance(budget, NoiseRiseBudget) else budget)


def budget_watts(budget) -> float:
    """One cell's budget in Watts: a :class:`NoiseRiseBudget` or Watts,
    one value or a sequence of one, by the rule of :func:`_watts`;
    ``ValueError`` for anything else."""
    return float(_per_cell(_watts(budget), 1)[0])


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
