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

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import fixed_power_scores, target_sinr_frame
from .baselines import schedule_fixed_power  # noqa: F401 - bench/spans.py wraps simnet.schedule_fixed_power by name
from .density import capped_frame, density_scores
from .density import schedule_density  # noqa: F401 - bench/spans.py wraps simnet.schedule_density by name
from .model import (
    LN2,
    Cells,
    NoiseRiseBudget,
    SolverConfig,
    budget_watts,
    noise_rise_budget_from_db,
    winner_takes_band,
)
from .model import UserLink  # noqa: F401 - bench/spans.py counts simnet.UserLink constructions
from .solver import dual_optimum
from .solver import solve_joint  # noqa: F401 - bench/spans.py wraps simnet.solve_joint by name

__all__ = [
    "PathLossParams",
    "DeploymentConfig",
    "Deployment",
    "ChannelConfig",
    "SchemeConfig",
    "RunConfig",
    "SimConfig",
    "PFState",
    "FrameConfig",
    "FrameMetrics",
    "MetricsBundle",
    "Scheme",
    "FrameAllocation",
    "cost_hata_pl",
    "build_deployment",
    "make_scheme",
    "run_frame",
    "update_pf",
    "quantize_allocation",
    "run_simulation",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("nr", "nr_density", "nr_density_capped", "fixed", "target_sinr")


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
        if self.layout not in ("rings", "grid"):
            raise ValueError(f"layout must be 'rings' or 'grid', got {self.layout!r}")
        if self.layout == "rings" and self.rings < 0:
            raise ValueError("rings must be >= 0")
        if self.layout == "grid" and (self.rows < 1 or self.cols < 1):
            raise ValueError("rows and cols must be >= 1")
        if self.isd_m <= 0:
            raise ValueError("isd_m must be positive")
        if self.n_ms < self.min_ms_per_cell * self.n_cells:
            raise ValueError(
                f"ms_total or ms_per_cell gives {self.n_ms} MSs, too few for "
                f"{self.n_cells} cells with at least {self.min_ms_per_cell} each"
            )

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
    best = None
    for sx, sy in shifts:
        dx = mx - (bs_xy[:, 0] + sx)
        dy = my - (bs_xy[:, 1] + sy)
        d2 = dx * dx + dy * dy
        best = d2 if best is None else np.minimum(best, d2, out=best)
    return np.sqrt(best)


@dataclass
class Deployment:
    """BS/MS geometry with the full linear channel-gain matrix.

    ``gain_matrix[ms, bs]`` is a linear power gain and ``serving_map[ms]``
    the strongest-gain BS.  Derived per-MS quantities (serving gain,
    summed non-serving gain) and the cell membership layout ``cells`` are
    computed once at construction; ``members(cell)`` lists a cell's
    mobiles in ascending order.
    """

    bs_positions: np.ndarray
    ms_positions: np.ndarray
    serving_map: np.ndarray
    gain_matrix: np.ndarray
    wrap: bool
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


def build_deployment(cfg: DeploymentConfig, channel: PathLossParams, seed) -> Deployment:
    """Draw a deployment: lattice BSs, uniform MS positions, COST-Hata gains.

    MS positions are uniform over the lattice's fundamental rhombus (torus
    and plain modes use the same region, only the distance metric
    differs); the whole draw is rejected and repeated until every cell
    serves at least ``cfg.min_ms_per_cell`` mobiles.  Deterministic for a
    given seed.
    """
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
            return Deployment(
                bs_positions=bs_xy,
                ms_positions=ms_xy,
                serving_map=serving,
                gain_matrix=gain,
                wrap=cfg.wrap,
            )
    raise RuntimeError(
        f"could not place at least {cfg.min_ms_per_cell} MSs in each of "
        f"{n_bs} cells after {cfg.max_attempts} draws"
    )


# ---------------------------------------------------------------------------
# proportional fairness


@dataclass(frozen=True)
class PFState:
    """Accumulated-throughput tracker driving the fairness weights.

    ``t_avg`` accumulates ``(1 - beta)`` times the delivered bits, so the
    weight of a served user decays while an unserved user's weight holds,
    which is what rotates service across the cell.
    """

    t_avg: np.ndarray
    beta: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not np.all(np.asarray(self.t_avg) > 0):  # NaN fails too
            raise ValueError("t_avg must be positive everywhere")

    @classmethod
    def initial(cls, n_ms: int, beta: float = 0.9, t0: float = 1.0) -> "PFState":
        if not t0 > 0:
            raise ValueError("t0 must be positive")
        return cls(t_avg=np.full(n_ms, float(t0)), beta=beta)

    def weights(self) -> np.ndarray:
        return 1.0 / self.t_avg


def update_pf(state: PFState, delivered_bits) -> PFState:
    """Advance the tracker: T += (1 - beta) * bits; weights are 1/T."""
    bits = np.asarray(delivered_bits, dtype=float)
    if bits.shape != state.t_avg.shape:
        raise ValueError("delivered_bits shape does not match the tracker")
    if np.any(bits < 0):
        raise ValueError("delivered bits must be >= 0")
    return PFState(t_avg=state.t_avg + (1.0 - state.beta) * bits, beta=state.beta)


# ---------------------------------------------------------------------------
# schemes


@dataclass(frozen=True)
class FrameAllocation:
    """One frame's schedule: band share ``x`` and power ``p`` per mobile.

    ``kkt_residual`` holds one entry per cell for solver-made schedules
    (``NaN`` for a cell with no mobiles) and is None for the greedy schemes.
    """

    x: np.ndarray
    p: np.ndarray
    kkt_residual: np.ndarray | None = None


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


def _band_check(cells, alloc, l, cap, eps=1e-9):
    if (alloc.x < 0).any() or (alloc.p < 0).any():
        raise AssertionError("negative allocation")
    if (cells.sums(alloc.x) > 1.0 + eps).any():
        raise AssertionError("bandwidth overcommitted")


def _budget_check(I, tol_kkt, eps=1e-9):
    def check(cells, alloc, l, cap):
        _band_check(cells, alloc, l, cap, eps)
        spent = cells.sums(l * alloc.p)
        if (spent > I * (1.0 + eps)).any():
            raise AssertionError(f"egress budget violated: {spent.max()} > {I}")
        if alloc.kkt_residual is not None and (alloc.kkt_residual > tol_kkt).any():
            worst = np.nanmax(alloc.kkt_residual)
            raise AssertionError(f"uncertified allocation: KKT residual {worst}")

    return check


def _density_check(I, capped, eps=1e-9):
    def check(cells, alloc, l, cap):
        _band_check(cells, alloc, l, cap, eps)
        on = alloc.x > 0
        if (l[on] * alloc.p[on] / alloc.x[on] > I * (1.0 + eps)).any():
            raise AssertionError("per-user density cap violated")
        if capped and (alloc.p > cap * (1.0 + eps)).any():
            raise AssertionError("max power violated")

    return check


def _solve_cells(I):
    """Frame schedule of the exact dual solver, one cell at a time."""

    def schedule(cells, w, e, l, cap):
        rows = zip(cells.index.tolist(), cells.valid.sum(axis=1).tolist(),
                   w[cells.index].tolist(), e[cells.index].tolist(), l[cells.index].tolist())
        x = np.zeros(len(w))
        p = np.zeros(len(w))
        res = np.full(cells.n_cells, np.nan)
        for k, (ms, n, wk, ek, lk) in enumerate(rows):
            if n:
                xk, pk, *_, res[k] = dual_optimum(wk[:n], ek[:n], lk[:n], I)
                x[ms[:n]] = xk
                p[ms[:n]] = pk
        return FrameAllocation(x, p, kkt_residual=res)

    return schedule


def make_scheme(
    name: str,
    budget,
    solver_config: SolverConfig | None = None,
    fixed_power: float | None = None,
    target_sinr: float | None = None,
    assumed_noise_plus_interference: float | None = None,
) -> Scheme:
    """Build the named scheduling scheme against a common budget."""
    I = budget_watts(budget)
    if name == "nr":
        cfg = solver_config if solver_config is not None else SolverConfig()
        return Scheme(name, _solve_cells(I), _budget_check(I, cfg.tol_kkt))
    if name == "nr_density":
        return Scheme(
            name,
            lambda cells, w, e, l, cap: FrameAllocation(
                *winner_takes_band(cells, density_scores(w, e, l, I), I / l)),
            _density_check(I, capped=False),
        )
    if name == "nr_density_capped":
        return Scheme(
            name,
            lambda cells, w, e, l, cap: FrameAllocation(*capped_frame(cells, w, e, l, cap, I)),
            _density_check(I, capped=True),
        )
    if name == "fixed":
        if fixed_power is None or not fixed_power > 0:
            raise ValueError("scheme 'fixed' needs a positive fixed_power")
        return Scheme(
            name,
            lambda cells, w, e, l, cap: FrameAllocation(
                *winner_takes_band(cells, fixed_power_scores(w, e, fixed_power), fixed_power)),
            _band_check,
        )
    if name == "target_sinr":
        if target_sinr is None or not target_sinr > 0:
            raise ValueError("scheme 'target_sinr' needs a positive target_sinr")
        if assumed_noise_plus_interference is None:
            raise ValueError("scheme 'target_sinr' needs the assumed noise-plus-interference power")
        if not assumed_noise_plus_interference > 0:
            raise ValueError("assumed_noise_plus_interference must be > 0")
        return Scheme(
            name,
            lambda cells, w, e, l, cap: FrameAllocation(*target_sinr_frame(cells, w, e, cap, target_sinr)),
            _band_check,
        )
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")


# ---------------------------------------------------------------------------
# quantization


def quantize_allocation(x, num_units: int):
    """Largest-remainder rounding of band fractions to integer unit counts.

    The unit total is ``round(num_units * sum(x))`` (never above
    ``num_units``), each entry is its floor or ceiling, and leftover units
    go to the largest fractional remainders with index as the tie-break.
    """
    if num_units < 1:
        raise ValueError("num_units must be >= 1")
    total = 0.0
    for v in x:
        if v < 0:
            raise ValueError("fractions must be >= 0")
        total += v
    if total > 1.0 + 1e-9:
        raise ValueError("fractions exceed the band")
    scaled = [v * num_units for v in x]
    units = [int(math.floor(s)) for s in scaled]
    target = min(num_units, int(round(total * num_units)))
    extras = target - sum(units)
    if extras > 0:
        order = sorted(range(len(x)), key=lambda i: (-(scaled[i] - units[i]), i))
        for i in order[:extras]:
            units[i] += 1
    return units


def _quantize_cell(x, p, l, cap, num_units: int):
    """Re-express one cell's shares and powers (lists) on the resource-unit grid.

    Users rounded to zero units lose their power; the freed egress budget
    is redistributed proportionally over the surviving powers (clamped at
    ``cap``), which keeps the total egress at or below its
    pre-quantization level and hence within the budget.
    """
    units = quantize_allocation(x, num_units)
    xq = [u / num_units for u in units]
    pq = list(p)
    freed = 0.0
    kept = 0.0
    for i in range(len(pq)):
        if xq[i] == 0.0 and pq[i] > 0.0:
            freed += l[i] * pq[i]
            pq[i] = 0.0
        elif pq[i] > 0.0:
            kept += l[i] * pq[i]
    if freed > 0.0 and kept > 0.0:
        scale = (kept + freed) / kept
        for i in range(len(pq)):
            if pq[i] > 0.0:
                pq[i] = min(pq[i] * scale, cap[i])
    return xq, pq


def _quantize_frame(cells: Cells, alloc: FrameAllocation, l, cap, num_units: int) -> FrameAllocation:
    x = alloc.x.copy()
    p = alloc.p.copy()
    for index, valid in zip(cells.index, cells.valid):
        ms = index[valid]
        if len(ms):
            x[ms], p[ms] = _quantize_cell(x[ms].tolist(), p[ms].tolist(), l[ms].tolist(),
                                          cap[ms].tolist(), num_units)
    return FrameAllocation(x, p, alloc.kkt_residual)


# ---------------------------------------------------------------------------
# frame loop


@dataclass(frozen=True)
class FrameConfig:
    """Physical constants and evaluation options for one frame."""

    bandwidth_hz: float
    n0_w_per_hz: float  # thermal density including the receiver noise figure
    frame_duration_s: float = 0.005
    quantize_units: int | None = None

    def __post_init__(self):
        if not (self.bandwidth_hz > 0 and self.n0_w_per_hz > 0 and self.frame_duration_s > 0):
            raise ValueError("bandwidth, noise density and frame duration must be positive")
        if self.quantize_units is not None and self.quantize_units < 1:
            raise ValueError("quantize_units must be >= 1 when set")


@dataclass(frozen=True)
class FrameMetrics:
    """Per-frame observables, per cell and per MS."""

    cell_bits: np.ndarray
    ingress_w: np.ndarray
    ingress_db: np.ndarray
    egress_w: np.ndarray
    ms_power_w: np.ndarray
    ms_bits: np.ndarray


def run_frame(
    deployment: Deployment,
    scheme: Scheme,
    pf: PFState,
    budget,
    frame_cfg: FrameConfig,
    max_power: float | None = None,
) -> FrameMetrics:
    """Schedule every cell against the planned interference, then score the
    frame at the interference that actually materialized.

    Scheduling builds each user's normalized SINR from the budgeted
    noise-plus-interference ``N0*B + I``; delivered bits use the measured
    ingress at the serving BS instead, spread uniformly over the band.
    Cells are independent within a frame, so the scheme schedules and
    checks all of them in one call on per-mobile arrays.
    """
    I = budget_watts(budget)
    if max_power is not None and not max_power > 0:
        raise ValueError(f"max_power must be positive when given, got {max_power!r}")
    weights = pf.weights()
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ValueError("PF weights must be finite and >= 0")
    band = frame_cfg.bandwidth_hz
    p_noise = frame_cfg.n0_w_per_hz * band
    cells = deployment.cells
    g = deployment.serving_gain
    l = deployment.norm_interference
    cap = np.full(deployment.n_ms, math.inf if max_power is None else max_power)
    alloc = scheme.schedule(cells, weights, g / (p_noise + I), l, cap)
    scheme.check(cells, alloc, l, cap)
    if frame_cfg.quantize_units:
        alloc = _quantize_frame(cells, alloc, l, cap, frame_cfg.quantize_units)
    frac, power = alloc.x, alloc.p

    received = deployment.gain_matrix.T @ power
    ingress = np.maximum(received - cells.sums(g * power), 0.0)
    egress = cells.sums(l * power)

    ms_bits = np.zeros(deployment.n_ms)
    on = np.flatnonzero((frac > 0.0) & (power > 0.0))
    e_act = g[on] / (p_noise + ingress[cells.cell_of[on]])
    x_on = frac[on]
    rate = band * x_on * np.log1p(power[on] * e_act / x_on)
    ms_bits[on] = rate / LN2 * frame_cfg.frame_duration_s
    return FrameMetrics(
        cell_bits=cells.sums(ms_bits),
        ingress_w=ingress,
        ingress_db=10.0 * np.log10((p_noise + ingress) / p_noise),
        egress_w=egress,
        ms_power_w=power,
        ms_bits=ms_bits,
    )


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


@dataclass
class MetricsBundle:
    """Stacked per-frame metrics with the summary statistics the CLI reports."""

    scheme: str
    budget_w: float
    bandwidth_hz: float
    frame_duration_s: float
    noise_power_w: float
    cell_bits: np.ndarray  # (frames, cells)
    ingress_w: np.ndarray
    ingress_db: np.ndarray
    egress_w: np.ndarray
    ms_power_w: np.ndarray  # (frames, ms)
    ms_bits: np.ndarray

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

    def jain_fairness(self) -> float:
        totals = self.ms_bits.sum(axis=0)
        denom = len(totals) * float((totals**2).sum())
        if denom == 0:
            return 0.0
        return float(totals.sum()) ** 2 / denom


def run_simulation(cfg: SimConfig) -> MetricsBundle:
    """Build the deployment, run the frame loop, stack the metrics."""
    deployment = build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    budget = cfg.budget()
    planned = cfg.channel.noise_power_w + budget.linear_budget
    scheme = make_scheme(
        cfg.scheme.name,
        budget,
        solver_config=cfg.solver,
        fixed_power=cfg.scheme.fixed_power_w,
        target_sinr=cfg.scheme.target_sinr,
        assumed_noise_plus_interference=planned,
    )
    frame_cfg = FrameConfig(
        bandwidth_hz=cfg.channel.bandwidth_hz,
        n0_w_per_hz=cfg.channel.n0_w_per_hz,
        frame_duration_s=cfg.run.frame_duration_s,
        quantize_units=cfg.run.quantize_units,
    )
    pf = PFState.initial(deployment.n_ms, beta=cfg.run.pf_beta, t0=cfg.run.pf_init)
    frames = []
    for _ in range(cfg.run.frames):
        fm = run_frame(deployment, scheme, pf, budget, frame_cfg, max_power=cfg.scheme.max_power_w)
        pf = update_pf(pf, fm.ms_bits)
        frames.append(fm)
    return MetricsBundle(
        scheme=cfg.scheme.name,
        budget_w=budget.linear_budget,
        bandwidth_hz=cfg.channel.bandwidth_hz,
        frame_duration_s=cfg.run.frame_duration_s,
        noise_power_w=cfg.channel.noise_power_w,
        cell_bits=np.stack([f.cell_bits for f in frames]),
        ingress_w=np.stack([f.ingress_w for f in frames]),
        ingress_db=np.stack([f.ingress_db for f in frames]),
        egress_w=np.stack([f.egress_w for f in frames]),
        ms_power_w=np.stack([f.ms_power_w for f in frames]),
        ms_bits=np.stack([f.ms_bits for f in frames]),
    )
