"""Multi-cell uplink simulator: hexagonal deployments, COST-Hata channel
gains, per-frame scheduling across cells, measured-SINR throughput and
proportional-fair weight dynamics.

Interference model: every transmission is spread uniformly over the whole
band (distributed-permutation assumption), so the interference a base
station receives is a single scalar power.  Scheduling in each cell uses
the planned, budgeted interference level; delivered bits are then scored
against the interference that actually materializes, which is exactly the
gap a bounded egress budget narrows.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .baselines import fixed_frame, target_sinr_frame
from .baselines import schedule_fixed_power  # noqa: F401 - bench/spans.py wraps simnet.schedule_fixed_power by name
from .density import capped_frame, density_frame
from .density import schedule_density  # noqa: F401 - bench/spans.py wraps simnet.schedule_density by name
from .model import (
    LN2,
    Cells,
    FrameAllocation,
    NoiseRiseBudget,
    SolverConfig,
    budget_watts,
    noise_rise_budget_from_db,
)
from .model import _check_finite as _check_finite_value
from .model import UserLink  # noqa: F401 - bench/spans.py counts simnet.UserLink constructions
from .solver import solve_dual_frame
from .solver import solve_joint  # noqa: F401 - bench/spans.py wraps simnet.solve_joint by name

__all__ = [
    "PathLossParams",
    "DeploymentConfig",
    "Deployment",
    "ChannelConfig",
    "SchemeConfig",
    "RunConfig",
    "SimConfig",
    "MetricsBundle",
    "Batch",
    "Scheme",
    "FrameAllocation",
    "cost_hata_pl",
    "build_deployment",
    "shared_draws",
    "make_scheme",
    "run_frame",
    "update_pf",
    "run_frames",
    "run_simulation",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("nr", "nr_density", "nr_density_capped", "fixed", "target_sinr")
_SLACK = 1e-9  # relative rounding a frame check forgives on each bound


def _check_finite(config) -> None:
    """Refuse a NaN or infinite value in any float field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            _check_finite_value(f.name, value)


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


# ---------------------------------------------------------------------------
# channel model


@dataclass(frozen=True)
class PathLossParams:
    """COST-Hata urban-macro parameters (frequency in MHz, heights in m)."""

    freq_mhz: float = 2000.0
    bs_height_m: float = 50.0
    ms_height_m: float = 1.5
    c_m_db: float = 0.0  # 0 models a medium-size city
    shadowing_sigma_db: float = 0.0
    min_distance_m: float = 35.0

    def __post_init__(self):
        _check_finite(self)
        if not (self.freq_mhz > 0 and self.bs_height_m > 0 and self.ms_height_m > 0):
            raise ValueError("frequency and antenna heights must be positive")
        if self.min_distance_m <= 0:
            raise ValueError("min_distance_m must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be >= 0")
        if not 1500.0 <= self.freq_mhz <= 2000.0:
            warnings.warn(
                f"COST-Hata is fitted for 1500-2000 MHz; got {self.freq_mhz} MHz",
                stacklevel=2,
            )


def cost_hata_pl(distance_m, params: PathLossParams = PathLossParams(), rng=None):
    """COST-Hata path loss in dB for a scalar or array of distances in meters.

    Distances below ``params.min_distance_m`` are clamped to it (the model
    has no near-field validity).  Log-normal shadowing with
    ``shadowing_sigma_db`` is added when an ``rng`` is supplied.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be > 0")
    d = np.maximum(d, params.min_distance_m)
    lf = math.log10(params.freq_mhz)
    a_hm = (1.1 * lf - 0.7) * params.ms_height_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * math.log10(params.bs_height_m)
    pl = (
        46.3
        + 33.9 * lf
        - 13.82 * math.log10(params.bs_height_m)
        - a_hm
        + slope * np.log10(d / 1000.0)
        + params.c_m_db
    )
    if params.shadowing_sigma_db > 0:
        if rng is None:
            raise ValueError("shadowing requires an rng")
        pl = pl + rng.normal(0.0, params.shadowing_sigma_db, size=np.shape(pl))
    if np.ndim(distance_m) == 0:
        return float(pl)
    return pl


# ---------------------------------------------------------------------------
# deployment geometry


@dataclass(frozen=True)
class DeploymentConfig:
    """Geometry of the BS lattice and the mobile draw.

    ``layout='rings'`` builds a hexagonal cluster with the given number of
    rings (2 rings -> 19 cells); ``layout='grid'`` builds a rows x cols
    rhombic lattice (8 x 9 -> 72 cells).  ``ms_total`` overrides
    ``ms_per_cell * n_cells`` when set.
    """

    layout: str = "rings"
    rings: int = 2
    rows: int = 8
    cols: int = 9
    isd_m: float = 1500.0
    ms_per_cell: int = 10
    ms_total: int | None = None
    min_ms_per_cell: int = 2
    wrap: bool = True
    max_attempts: int = 10_000

    def __post_init__(self):
        _check_finite(self)
        if self.layout not in ("rings", "grid"):
            raise ValueError(f"layout must be 'rings' or 'grid', got {self.layout!r}")
        if self.layout == "rings" and self.rings < 0:
            raise ValueError("rings must be >= 0")
        if self.layout == "grid" and (self.rows < 1 or self.cols < 1):
            raise ValueError("rows and cols must be >= 1")
        if self.isd_m <= 0:
            raise ValueError("isd_m must be positive")
        if self.n_cells < 2:
            # a lone cell's mobiles inject no interference anywhere (l = 0)
            raise ValueError(f"layout gives {self.n_cells} cell; at least 2 are needed")
        if self.n_ms < self.min_ms_per_cell * self.n_cells:
            raise ValueError(
                f"ms_total or ms_per_cell gives {self.n_ms} MSs, too few for "
                f"{self.n_cells} cells with at least {self.min_ms_per_cell} each"
            )
        if self.n_ms < 1:
            raise ValueError(f"ms_total or ms_per_cell gives {self.n_ms} MSs; at least 1 is needed")

    @property
    def n_cells(self) -> int:
        if self.layout == "rings":
            r = self.rings
            return 1 + 3 * r * (r + 1)
        return self.rows * self.cols

    @property
    def n_ms(self) -> int:
        return self.ms_total if self.ms_total is not None else self.n_cells * self.ms_per_cell


def _lattice(cfg: DeploymentConfig):
    """BS positions plus the two wrap translation vectors of the layout."""
    s = cfg.isd_m
    a1 = np.array([s, 0.0])
    a2 = np.array([0.5 * s, 0.5 * math.sqrt(3.0) * s])
    if cfg.layout == "rings":
        r = cfg.rings
        coords = [
            (q, t)
            for q in range(-r, r + 1)
            for t in range(-r, r + 1)
            if max(abs(q), abs(t), abs(q + t)) <= r
        ]
        # center cell first, then by ring for a stable ordering
        coords.sort(key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), c))
        # cluster translation (r+1, r) and its 60-degree rotation tile the
        # plane with exactly n_cells cells per tile
        u1 = (r + 1) * a1 + r * a2
        u2 = -r * a1 + (2 * r + 1) * a2
        centered = True
    else:
        coords = [(i, j) for i in range(cfg.rows) for j in range(cfg.cols)]
        u1 = cfg.rows * a1
        u2 = cfg.cols * a2
        centered = False
    bs = np.array([q * a1 + t * a2 for q, t in coords])
    return bs, u1, u2, centered


def _wrap_shifts(u1, u2, wrap: bool):
    if not wrap:
        return np.zeros((1, 2))
    return np.array([m * u1 + n * u2 for m in (-1, 0, 1) for n in (-1, 0, 1)])


def _distances(ms_xy, bs_xy, shifts):
    # min over the 3x3 block of lattice images; exact for these lattices.
    # sqrt is monotone and correctly rounded, so it is taken once, after
    # the minimum of the squared distances
    mx, my = ms_xy[:, :1], ms_xy[:, 1:]
    best = np.full((len(ms_xy), len(bs_xy)), np.inf)
    dx = np.empty_like(best)
    dy = np.empty_like(best)
    for sx, sy in shifts:
        np.subtract(mx, bs_xy[:, 0] + sx, out=dx)
        np.subtract(my, bs_xy[:, 1] + sy, out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.minimum(best, dx, out=best)
    return np.sqrt(best, out=best)


@dataclass
class Deployment:
    """The serving map and the full linear channel-gain matrix of a drawn
    BS/MS geometry.

    ``gain_matrix[ms, bs]`` is a linear power gain and ``serving_map[ms]``
    the strongest-gain BS.  Derived per-MS quantities (serving gain,
    summed non-serving gain) and the cell membership layout ``cells`` are
    computed once at construction; ``members(cell)`` lists a cell's
    mobiles in ascending order.
    """

    serving_map: np.ndarray
    gain_matrix: np.ndarray
    serving_gain: np.ndarray = field(init=False, repr=False)
    norm_interference: np.ndarray = field(init=False, repr=False)
    cells: Cells = field(init=False, repr=False)

    def __post_init__(self):
        gain = np.asarray(self.gain_matrix, dtype=float)
        if gain.ndim != 2:
            raise ValueError("gain_matrix must be 2-D (ms, bs)")
        if not np.all(np.isfinite(gain)) or np.any(gain <= 0):
            raise ValueError("channel gains must be positive and finite")
        n_ms, n_bs = gain.shape
        serving = np.asarray(self.serving_map, dtype=int)
        if serving.shape != (n_ms,) or serving.min() < 0 or serving.max() >= n_bs:
            raise ValueError("serving_map entries must index a BS for every MS")
        idx = np.arange(n_ms)
        self.serving_gain = gain[idx, serving]
        self.norm_interference = gain.sum(axis=1) - self.serving_gain
        self.cells = Cells.from_cell_of(serving, n_bs)

    @property
    def n_bs(self) -> int:
        return self.gain_matrix.shape[1]

    @property
    def n_ms(self) -> int:
        return self.gain_matrix.shape[0]

    def members(self, bs: int) -> np.ndarray:
        if not 0 <= bs < self.n_bs:
            raise ValueError(f"unknown BS id {bs!r}")
        return self.cells.index[bs, self.cells.valid[bs]]

    def received(self, power: np.ndarray) -> np.ndarray:
        """The power each BS receives from all mobiles: ``gain_matrix.T @ power``."""
        return self.gain_matrix.T @ power


class _Copies:
    """``runs`` copies of a deployment side by side, as one layout of
    ``runs * n_bs`` cells over ``runs * n_ms`` mobiles: copy ``r`` holds
    cells ``r * n_bs`` on and mobiles ``r * n_ms`` on, in the deployment's
    order, so each cell's users stay in ascending order.  A scheme
    schedules every cell on its own, so the copies meet only in
    :meth:`received`, which keeps one ``gain_matrix.T @ power`` per copy
    and so sums each copy's received powers as a lone run does."""

    def __init__(self, deployment: Deployment, runs: int):
        self.deployment = deployment
        self.runs = runs
        self.n_bs = runs * deployment.n_bs
        self.n_ms = runs * deployment.n_ms
        shift = np.repeat(np.arange(runs) * deployment.n_bs, deployment.n_ms)
        self.cells = Cells.from_cell_of(np.tile(deployment.cells.cell_of, runs) + shift, self.n_bs)
        self.serving_gain = np.tile(deployment.serving_gain, runs)
        self.norm_interference = np.tile(deployment.norm_interference, runs)
        _read_only(self.serving_gain, self.norm_interference,
                   self.cells.cell_of, self.cells.index, self.cells.valid)

    def received(self, power: np.ndarray) -> np.ndarray:
        n_ms = self.deployment.n_ms
        gain_t = self.deployment.gain_matrix.T
        return np.concatenate([gain_t @ power[r * n_ms:(r + 1) * n_ms] for r in range(self.runs)])


_draws: dict | None = None  # the shared draws while a shared_draws block runs


@contextlib.contextmanager
def shared_draws():
    """Within the block, :func:`build_deployment` draws each
    ``(DeploymentConfig, PathLossParams, seed)``, compared by value, once
    and returns that one :class:`Deployment` to every later call.

    A sweep's runs and calibration probes share one deployment config and
    seed, so the sweep draws it once.  A nested block shares the outer
    block's draws; when the outermost block ends, by return or by
    exception, every call draws afresh again.
    """
    global _draws
    outer = _draws
    if outer is None:
        _draws = {}
    try:
        yield
    finally:
        _draws = outer


def build_deployment(cfg: DeploymentConfig, channel: PathLossParams, seed) -> Deployment:
    """Draw a deployment: lattice BSs, uniform MS positions, COST-Hata gains.

    MS positions are uniform over the lattice's fundamental rhombus (torus
    and plain modes use the same region, only the distance metric
    differs); the whole draw is rejected and repeated until every cell
    serves at least ``cfg.min_ms_per_cell`` mobiles.  Deterministic for a
    given seed.  The deployment's arrays are read-only, so a draw that
    :func:`shared_draws` hands to several runs is the same for each.
    """
    if _draws is None:
        return _draw_deployment(cfg, channel, seed)
    key = (cfg, channel, seed)
    if key not in _draws:
        _draws[key] = _draw_deployment(cfg, channel, seed)
    return _draws[key]


def _draw_deployment(cfg: DeploymentConfig, channel: PathLossParams, seed) -> Deployment:
    rng = np.random.default_rng(seed)
    bs_xy, u1, u2, centered = _lattice(cfg)
    shifts = _wrap_shifts(u1, u2, cfg.wrap)
    n_bs = len(bs_xy)
    n_ms = cfg.n_ms
    offset = -0.5 * (u1 + u2) if centered else np.zeros(2)
    for _ in range(cfg.max_attempts):
        st = rng.random((n_ms, 2))
        ms_xy = offset + st[:, :1] * u1 + st[:, 1:] * u2
        d = _distances(ms_xy, bs_xy, shifts)
        pl = cost_hata_pl(d, channel, rng if channel.shadowing_sigma_db > 0 else None)
        gain = 10.0 ** (-pl / 10.0)
        serving = gain.argmax(axis=1)
        counts = np.bincount(serving, minlength=n_bs)
        if counts.min() >= cfg.min_ms_per_cell:
            deployment = Deployment(serving_map=serving, gain_matrix=gain)
            cells = deployment.cells
            _read_only(serving, gain, deployment.serving_gain, deployment.norm_interference,
                       cells.cell_of, cells.index, cells.valid)
            return deployment
    raise RuntimeError(
        f"could not place at least {cfg.min_ms_per_cell} MSs in each of "
        f"{n_bs} cells after {cfg.max_attempts} draws"
    )


# ---------------------------------------------------------------------------
# proportional fairness


def update_pf(t_avg: np.ndarray, delivered_bits: np.ndarray, beta: float) -> None:
    """Advance the accumulated-throughput tracker in place:
    ``t_avg += (1 - beta) * bits``.

    The fairness weights are ``1 / t_avg``, so the weight of a served user
    decays while an unserved user's weight holds, which is what rotates
    service across the cell.
    """
    t_avg += (1.0 - beta) * delivered_bits


# ---------------------------------------------------------------------------
# schemes


@dataclass(frozen=True)
class Scheme:
    """A frame-level scheduler plus the feasibility check it must satisfy.

    ``schedule(cells, w, e, l, cap)`` maps the frame's per-mobile weights,
    normalized SINRs, normalized interferences and power caps (``inf`` for
    none) to a :class:`FrameAllocation`, scheduling every cell of the
    ``cells`` layout independently.  ``check(cells, alloc, l, cap)``
    raises ``AssertionError`` if the schedule breaks the scheme's
    constraints in any cell.
    """

    name: str
    schedule: Callable[..., FrameAllocation]
    check: Callable[..., None]


def _frame_check(I, tol_kkt, egress=False, density=False):
    """The check every scheme's frame must pass: no negative, NaN or
    infinite share or power, no cell's band over 1, no power over its cap,
    no power on a user without band, and a KKT residual within ``tol_kkt``
    wherever the schedule carries one.  ``egress`` adds each cell's egress
    budget ``I``, one for all cells or one per cell (``nr``), ``density``
    each user's interference density ``l p / x <= I``, one for all users or
    one per user (the density schemes).  Every bound is written so that
    NaN fails it, except the residual's: an empty cell's residual is NaN."""

    def check(cells, alloc, l, cap):
        x, p = alloc.x, alloc.p
        # reductions, which NaN fails, cost fewer numpy calls than sign
        # tests; an infinite share overcommits its cell's band
        if not (x.min() >= 0.0 and p.min() >= 0.0):
            raise AssertionError("negative or NaN allocation")
        if not cells.sums(x).max() <= 1.0 + _SLACK:
            raise AssertionError("bandwidth overcommitted")
        # strictly below, so that an infinite power fails an infinite cap
        if not (p < cap * (1.0 + _SLACK)).all():
            raise AssertionError("infinite power" if np.isinf(p).any() else "max power violated")
        if p.dot(x == 0.0) > 0.0:  # the powers are finite and >= 0 here
            raise AssertionError("power on a user without band")
        if egress:
            spent = cells.sums(l * p)
            within = spent <= I * (1.0 + _SLACK)
            if not within.all():
                k = np.flatnonzero(~within)[0]
                budget = I[k] if np.ndim(I) else I
                raise AssertionError(f"egress budget violated in cell {k}: {spent[k]} > {budget}")
        if density:
            on = x > 0
            if not (l[on] * p[on] / x[on] <= (I[on] if np.ndim(I) else I) * (1.0 + _SLACK)).all():
                raise AssertionError("per-user density cap violated")
        if alloc.kkt_residual is not None and (alloc.kkt_residual > tol_kkt).any():
            worst = np.nanmax(alloc.kkt_residual)
            raise AssertionError(f"uncertified allocation: KKT residual {worst}")

    return check


def make_scheme(
    name: str,
    budget,
    solver_config: SolverConfig | None = None,
    fixed_power=None,
    target_sinr: float | None = None,
    assumed_noise_plus_interference: float | None = None,
    cells: Cells | None = None,
) -> Scheme:
    """Build the named scheduling scheme.

    ``budget`` (a :class:`NoiseRiseBudget` or Watts) and ``fixed_power``
    hold one value for every cell; with ``cells``, they are arrays of one
    value per cell of that layout, the only layout the scheme then
    schedules.  ``assumed_noise_plus_interference`` is not used: no
    scheme reads it, and it is accepted so that existing callers keep
    working.
    """
    if cells is None:
        I = I_user = budget_watts(budget)
    else:
        I = np.array(budget, dtype=float)
        if I.shape != (cells.n_cells,) or not (I.min() > 0 and I.max() < math.inf):
            raise ValueError(f"budget must be one positive finite power per cell, got {budget!r}")
        I_user = I[cells.cell_of]
        if fixed_power is not None:
            fixed_power = np.asarray(fixed_power, dtype=float)[cells.cell_of]
    tol_kkt = (solver_config if solver_config is not None else SolverConfig()).tol_kkt
    if name == "nr":
        return Scheme(name, partial(solve_dual_frame, budget=I), _frame_check(I, tol_kkt, egress=True))
    if name == "nr_density":
        return Scheme(name, partial(density_frame, budget=I_user), _frame_check(I_user, tol_kkt, density=True))
    if name == "nr_density_capped":
        return Scheme(name, partial(capped_frame, budget=I_user), _frame_check(I_user, tol_kkt, density=True))
    if name == "fixed":
        if fixed_power is None or not np.min(fixed_power) > 0:
            raise ValueError("scheme 'fixed' needs a positive fixed_power")
        return Scheme(name, partial(fixed_frame, power=fixed_power), _frame_check(I, tol_kkt))
    if name == "target_sinr":
        if target_sinr is None or not target_sinr > 0:
            raise ValueError("scheme 'target_sinr' needs a positive target_sinr")
        return Scheme(name, partial(target_sinr_frame, target_sinr=target_sinr), _frame_check(I, tol_kkt))
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")


# ---------------------------------------------------------------------------
# quantization


def _quantize_frame(cells: Cells, alloc: FrameAllocation, l, cap, num_units: int) -> FrameAllocation:
    """Re-express every cell's shares and powers on the resource-unit grid.

    Largest-remainder rounding: each user gets ``floor(x N)`` units, and
    each cell's leftover units, up to ``min(N, round(N sum x))``, go to its
    largest fractional remainders, ties to the lowest index.  Users
    rounded to zero units lose their power; the freed egress is handed
    back in proportion to the surviving powers (clamped at ``cap``), which
    keeps each cell's egress at or below its pre-quantization level and
    hence within the budget.  ``cells.sums`` adds a cell's users in
    ascending order, as a walk over the cell would.
    """
    x, p = alloc.x, alloc.p
    scaled = x * num_units
    units = np.floor(scaled)
    extra = np.minimum(num_units, np.round(cells.sums(x) * num_units)) - cells.sums(units)
    order = np.argsort(cells.gather(units - scaled, np.inf), axis=1, kind="stable")
    ranked = np.take_along_axis(cells.index, order, axis=1)
    bump = np.take_along_axis(cells.valid, order, axis=1) & (np.arange(order.shape[1]) < extra[:, None])
    units[ranked[bump]] += 1.0
    xq = units / num_units

    zeroed = (xq == 0.0) & (p > 0.0)
    lp = l * p
    freed = cells.sums(np.where(zeroed, lp, 0.0))
    kept = cells.sums(np.where(zeroed, 0.0, lp))
    rescale = ((freed > 0.0) & (kept > 0.0))[cells.cell_of] & (p > 0.0)
    scale = ((kept + freed) / np.where(kept > 0.0, kept, 1.0))[cells.cell_of]
    pq = np.where(zeroed, 0.0, np.where(rescale, np.minimum(p * scale, cap), p))
    return replace(alloc, x=xq, p=pq)


# ---------------------------------------------------------------------------
# frame loop


_SOLVER_FIELDS = ("kkt_residual", "probes", "kinks")


class _Run:
    """The constants of a run, or of a batch of runs on copies of one
    deployment (:class:`_Copies`), and the arrays its frames write into.

    ``cfg`` is one :class:`SimConfig` or a batch of them (see
    :func:`_batch`).  The noise power, band, frame duration, quantization,
    PF settings (``run_cfg``) and power caps are the batch's; each run's
    budget and its users' scheduling SINR ``g / (N0*B + I)`` are its own.
    All are computed once from configs whose dataclasses checked them when
    they were built.  Frame ``t`` writes row ``t`` of the MS powers and
    delivered bits, the BS ingress and, for the exact dual solver, the
    per-cell KKT residuals, envelope probes and kink searches, each run in
    its own columns; :meth:`metrics` derives the rest once, after the last
    frame.
    """

    def __init__(self, layout, cfg):
        configs = _batch(cfg)
        self.single = isinstance(cfg, SimConfig)
        self.runs = runs = len(configs)
        first = configs[0]
        self.run_cfg = first.run
        frames, n_ms = first.run.frames, layout.n_ms
        self.scheme = first.scheme.name
        self.band = first.channel.bandwidth_hz
        self.p_noise = first.channel.noise_power_w
        self.budgets = [c.budget().linear_budget for c in configs]
        self.frame_duration_s = first.run.frame_duration_s
        self.quantize_units = first.run.quantize_units
        max_power = first.scheme.max_power_w
        # every frame hands the same two arrays to the scheme, so no frame may edit them
        self.e = layout.serving_gain / (self.p_noise + np.repeat(self.budgets, n_ms // runs))
        self.cap = np.full(n_ms, math.inf if max_power is None else max_power)
        _read_only(self.e, self.cap)
        self.cells = layout.cells
        self.l = layout.norm_interference
        self.power = np.empty((frames, n_ms))
        self.bits = np.zeros((frames, n_ms))
        self.ingress = np.empty((frames, layout.n_bs))
        self.solver = {}

    def record(self, t: int, alloc: FrameAllocation) -> None:
        """Write frame ``t``'s powers and whichever solver fields it carries."""
        self.power[t] = alloc.p
        for name in _SOLVER_FIELDS:
            row = getattr(alloc, name)
            if row is not None:
                if name not in self.solver:
                    self.solver[name] = np.empty((len(self.power), len(row)), row.dtype)
                self.solver[name][t] = row

    def metrics(self):
        """The run's :class:`MetricsBundle`, or a batch's :class:`Batch`.
        Frame ``t``'s users are binned at ``t * n_cells + cell``, so one
        ``bincount`` adds each cell's users in ascending order, as
        :meth:`Cells.sums` does per frame."""
        n_frames = len(self.power)
        n_ms, n_cells = self.power.shape[1] // self.runs, self.ingress.shape[1] // self.runs
        bins = (np.arange(n_frames)[:, None] * n_cells + self.cells.cell_of[:n_ms]).ravel()

        def cell_sums(values):
            sums = np.bincount(bins, weights=values.ravel(), minlength=n_frames * n_cells)
            return sums.reshape(n_frames, n_cells)

        def bundle(r):
            users, cells = slice(r * n_ms, (r + 1) * n_ms), slice(r * n_cells, (r + 1) * n_cells)
            # the MS arrays are views of run r's columns: a bundle reduces
            # them only along frames, which adds in frame order on any
            # strides; the ingress, which mean and std reduce whole, is
            # copied out, so that it sums as a lone run's contiguous array
            power, bits = self.power[:, users], self.bits[:, users]
            ingress = np.ascontiguousarray(self.ingress[:, cells])
            return MetricsBundle(
                scheme=self.scheme,
                budget_w=self.budgets[r],
                bandwidth_hz=self.band,
                frame_duration_s=self.frame_duration_s,
                cell_bits=cell_sums(bits),
                ingress_w=ingress,
                ingress_db=10.0 * np.log10((self.p_noise + ingress) / self.p_noise),
                egress_w=cell_sums(self.l[users] * power),
                ms_power_w=power,
                ms_bits=bits,
                **{name: values[:, cells] for name, values in self.solver.items()},
            )

        bundles = Batch(bundle(r) for r in range(self.runs))
        return bundles[0] if self.single else bundles


def run_frame(deployment, scheme: Scheme, weights: np.ndarray, run: _Run, t: int) -> np.ndarray:
    """Schedule every cell of frame ``t`` against the planned interference,
    then score it at the interference that actually materialized; returns
    the frame's delivered bits per MS.

    ``deployment`` is a :class:`Deployment`, or the :class:`_Copies` of a
    batch, whose ``n_bs`` cells are all scheduled here.  Scheduling builds
    each user's normalized SINR from the budgeted noise-plus-interference
    ``N0*B + I``; delivered bits use the measured ingress at the serving
    BS instead, spread uniformly over the band.  Cells are independent
    within a frame, so the scheme schedules and checks all of them in one
    call on per-mobile arrays.  The frame writes row ``t`` of ``run``'s
    arrays and computes nothing the next frame does not need.
    """
    # NaN fails both comparisons, so two reductions refuse what
    # isfinite().all() and (>= 0).all() would
    if not (weights.min() >= 0.0 and weights.max() < math.inf):
        raise ValueError("PF weights must be finite and >= 0")
    cells = deployment.cells
    g = deployment.serving_gain
    l = deployment.norm_interference
    alloc = scheme.schedule(cells, weights, run.e, l, run.cap)
    scheme.check(cells, alloc, l, run.cap)
    if run.quantize_units:
        alloc = _quantize_frame(cells, alloc, l, run.cap, run.quantize_units)
    run.record(t, alloc)
    frac, power = alloc.x, alloc.p

    ingress = run.ingress[t]
    np.maximum(deployment.received(power) - cells.sums(g * power), 0.0, out=ingress)

    bits = run.bits[t]
    on = np.flatnonzero((frac > 0.0) & (power > 0.0))
    e_act = g[on] / (run.p_noise + ingress[cells.cell_of[on]])
    x_on = frac[on]
    rate = run.band * x_on * np.log1p(power[on] * e_act / x_on)
    bits[on] = rate / LN2 * run.frame_duration_s
    return bits


# ---------------------------------------------------------------------------
# whole-run configuration and metrics


@dataclass(frozen=True)
class ChannelConfig:
    """Noise and band constants plus the path-loss parameterization."""

    pathloss: PathLossParams = PathLossParams()
    n0_dbm_per_hz: float = -174.0
    noise_figure_db: float = 5.0
    bandwidth_hz: float = 10e6

    def __post_init__(self):
        _check_finite(self)
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def n0_w_per_hz(self) -> float:
        return 10.0 ** ((self.n0_dbm_per_hz + self.noise_figure_db - 30.0) / 10.0)

    @property
    def noise_power_w(self) -> float:
        return self.n0_w_per_hz * self.bandwidth_hz


@dataclass(frozen=True)
class SchemeConfig:
    name: str = "nr"
    noise_rise_db: float = 5.0
    fixed_power_w: float | None = None
    max_power_w: float | None = None
    target_sinr: float | None = None

    def __post_init__(self):
        _check_finite(self)
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"name must be one of {SCHEME_NAMES}, got {self.name!r}")
        if self.noise_rise_db <= 0:
            raise ValueError("noise_rise_db must be positive")
        for field in ("fixed_power_w", "max_power_w", "target_sinr"):
            value = getattr(self, field)
            if value is not None and not value > 0:
                raise ValueError(f"{field} must be > 0 when given, got {value!r}")
        if self.name == "fixed" and self.fixed_power_w is None:
            raise ValueError("fixed_power_w is required by scheme 'fixed'")
        if self.name == "target_sinr" and self.target_sinr is None:
            raise ValueError("target_sinr is required by scheme 'target_sinr'")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    frames: int = 80
    frame_duration_s: float = 0.005
    quantize_units: int | None = None
    pf_beta: float = 0.9
    pf_init: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.frame_duration_s <= 0:
            raise ValueError("frame_duration_s must be positive")
        if not 0.0 <= self.pf_beta <= 1.0:
            raise ValueError(f"pf_beta must be in [0, 1], got {self.pf_beta!r}")
        if not self.pf_init > 0:
            raise ValueError(f"pf_init must be > 0, got {self.pf_init!r}")
        if self.quantize_units is not None and self.quantize_units < 1:
            raise ValueError(f"quantize_units must be >= 1 when set, got {self.quantize_units!r}")


@dataclass(frozen=True)
class SimConfig:
    deployment: DeploymentConfig = DeploymentConfig()
    channel: ChannelConfig = ChannelConfig()
    scheme: SchemeConfig = SchemeConfig()
    solver: SolverConfig = SolverConfig()
    run: RunConfig = RunConfig()

    def budget(self) -> NoiseRiseBudget:
        return noise_rise_budget_from_db(
            self.scheme.noise_rise_db, self.channel.n0_w_per_hz, self.channel.bandwidth_hz
        )


@dataclass(frozen=True, kw_only=True)
class MetricsBundle:
    """A run's observables as ``(frames, cells)`` or ``(frames, ms)``
    arrays, including the solver's per-cell KKT residuals, envelope probes
    and kink searches (None for the greedy schemes), with the summary
    statistics the CLI reports."""

    scheme: str
    budget_w: float
    bandwidth_hz: float
    frame_duration_s: float
    cell_bits: np.ndarray
    ingress_w: np.ndarray
    ingress_db: np.ndarray
    egress_w: np.ndarray
    ms_power_w: np.ndarray
    ms_bits: np.ndarray
    kkt_residual: np.ndarray | None = None
    probes: np.ndarray | None = None
    kinks: np.ndarray | None = None

    @property
    def n_frames(self) -> int:
        return self.cell_bits.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_bits.shape[1]

    @property
    def n_ms(self) -> int:
        return self.ms_bits.shape[1]

    def mean_cell_throughput(self) -> float:
        """Mean delivered bits per cell per frame."""
        return float(self.cell_bits.mean())

    def mean_ingress_w(self) -> float:
        return float(self.ingress_w.mean())

    def ingress_std_w(self) -> float:
        return float(self.ingress_w.std())

    def ingress_std_db(self) -> float:
        return float(self.ingress_db.std())

    def per_ms_spectral_efficiency(self) -> np.ndarray:
        """Average bits/s/Hz per MS over the whole run."""
        total_time = self.n_frames * self.frame_duration_s
        return self.ms_bits.sum(axis=0) / (total_time * self.bandwidth_hz)

    def edge_spectral_efficiency(self, percentile: float = 5.0) -> float:
        return float(np.percentile(self.per_ms_spectral_efficiency(), percentile))

    def solver_stats(self) -> dict | None:
        """How hard the exact dual solver worked over the run, and its worst
        KKT residual; None for the greedy schemes.  There are no timings,
        so identical runs report identical figures."""
        if self.probes is None:
            return None
        solved = ~np.isnan(self.kkt_residual)
        probes = self.probes[solved]
        return {
            "cells_solved": int(solved.sum()),
            "probes_p50": float(np.median(probes)),
            "probes_max": int(probes.max()),
            "kink_searches": int(self.kinks.sum()),
            "kkt_residual_max": float(self.kkt_residual[solved].max()),
        }

    def jain_fairness(self) -> float:
        totals = self.ms_bits.sum(axis=0)
        denom = len(totals) * float((totals**2).sum())
        if denom == 0:
            return 0.0
        return float(totals.sum()) ** 2 / denom


class Batch(tuple):
    """The :class:`MetricsBundle` of every run of a batch, in the order of
    their configs."""

    @property
    def n_frames(self) -> int:
        return self[0].n_frames

    @property
    def n_cells(self) -> int:
        """The cells of every run, so that ``n_cells * n_frames`` counts
        the batch's cell-frames."""
        return sum(bundle.n_cells for bundle in self)


def _batch(cfg) -> list:
    """The configs of ``cfg``: one :class:`SimConfig`, a batch of one, or a
    nonempty sequence of them that differ only in the scheme's
    ``noise_rise_db`` and ``fixed_power_w``, so that they run as one."""
    if isinstance(cfg, SimConfig):
        return [cfg]
    configs = list(cfg)
    if not configs:
        raise ValueError("a batch needs at least one config")
    first = configs[0].scheme
    for c in configs:
        if replace(c, scheme=replace(c.scheme, noise_rise_db=first.noise_rise_db,
                                     fixed_power_w=first.fixed_power_w)) != configs[0]:
            raise ValueError("the configs of a batch may differ only in scheme.noise_rise_db "
                             "and scheme.fixed_power_w")
    return configs


def run_frames(deployment, scheme: Scheme, cfg):
    """Run ``cfg.run.frames`` frames of ``scheme`` on ``deployment``, the
    proportional-fair weights of each frame ``1 / t_avg`` of the bits
    delivered before it.  For a batch of configs, ``deployment`` is their
    :class:`_Copies` and ``scheme`` schedules that layout."""
    run = _Run(deployment, cfg)
    run_cfg = run.run_cfg
    t_avg = np.full(deployment.n_ms, run_cfg.pf_init, dtype=float)
    # bench/ wraps run_frame and update_pf by their simnet names, so both
    # stay module-level calls, once per frame
    for t in range(run_cfg.frames):
        update_pf(t_avg, run_frame(deployment, scheme, 1.0 / t_avg, run, t), run_cfg.pf_beta)
    return run.metrics()


def run_simulation(cfg):
    """Build the deployment and the scheme, then run the frame loop.

    ``cfg`` is one :class:`SimConfig`, which returns its
    :class:`MetricsBundle`, or a sequence of configs that differ only in
    the scheme's ``noise_rise_db`` and ``fixed_power_w`` (else
    ``ValueError``), which returns their :class:`Batch`.  A batch runs as
    one: the frame loop schedules copies of the one deployment draw side
    by side (:class:`_Copies`), each with its run's budget and fixed power
    per cell, and every run's figures equal its own run's.
    """
    configs = _batch(cfg)
    first = configs[0]
    deployment = build_deployment(first.deployment, first.channel.pathloss, first.run.seed)
    layout = deployment if len(configs) == 1 else _Copies(deployment, len(configs))
    n_bs = deployment.n_bs
    scheme = make_scheme(
        first.scheme.name,
        np.repeat([c.budget().linear_budget for c in configs], n_bs),
        solver_config=first.solver,
        fixed_power=(np.repeat([c.scheme.fixed_power_w for c in configs], n_bs)
                     if first.scheme.name == "fixed" else None),
        target_sinr=first.scheme.target_sinr,
        cells=layout.cells,
    )
    return run_frames(layout, scheme, cfg)
