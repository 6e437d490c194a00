"""Multi-cell uplink simulator: hexagonal deployments, COST-Hata channel
gains, per-frame scheduling across cells, measured-SINR throughput and
proportional-fair weight dynamics.

Interference model: every transmission is spread uniformly over the whole
band (distributed-permutation assumption), so the interference a base
station receives is a single scalar power.  Scheduling in each cell uses
the planned, budgeted interference level; delivered bits are then scored
against the interference that actually materializes, which is exactly the
gap a bounded egress budget narrows.

:func:`make_scheme` builds the schemes from the binders of the modules
below this one, which never import it.  Each per-cell library function
taking a ``UserLink`` list is :func:`one_cell`: a one-cell, one-frame
run of a scheme, ending in the scheme's frame check.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from typing import Callable, ClassVar

import numpy as np

from .baselines import bind_target_sinr, fixed_rates
from .density import bind_capped, density_rates
from .model import (
    LN2,
    Allocation,
    Cells,
    FrameAllocation,
    NoiseRiseBudget,
    SolverConfig,
    Winners,
    _SLACK,
    _cap_bound,
    _powers,
    _refuse_over_cap,
    _watts,
    db_to_linear,
    greedy,
    link_arrays,
    noise_rise_budget_from_db,
)
from .model import _check_finite as _check_finite_value
from .model import UserLink  # noqa: F401 - bench/spans.py counts simnet.UserLink constructions
from .solver import DualRun, NoTransmitterError, _objective
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
    "one_cell",
    "solve_dual",
    "schedule_density",
    "schedule_density_capped",
    "schedule_fixed_power",
    "schedule_target_sinr",
    "run_frame",
    "update_pf",
    "run_frames",
    "run_simulation",
    "SCHEME_NAMES",
]

SCHEME_NAMES = ("nr", "nr_density", "nr_density_capped", "fixed", "target_sinr")


def _check_finite(config) -> None:
    """Refuse a NaN or infinite value in any float field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            _check_finite_value(f.name, value)


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


def _positive_finite(a: np.ndarray) -> bool:
    # two reductions, which NaN fails; the initial values pass an empty array
    return a.min(initial=math.inf) > 0.0 and a.max(initial=0.0) < math.inf


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
    has no near-field validity); one that is not positive and finite
    raises ``ValueError``.  Log-normal shadowing with
    ``shadowing_sigma_db`` is added when an ``rng`` is supplied.
    """
    d = np.asarray(distance_m, dtype=float)
    if not _positive_finite(d):
        raise ValueError("distances must be positive and finite")
    lf = math.log10(params.freq_mhz)
    a_hm = (1.1 * lf - 0.7) * params.ms_height_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * math.log10(params.bs_height_m)
    intercept = 46.3 + 33.9 * lf - 13.82 * math.log10(params.bs_height_m) - a_hm
    # intercept + slope * log10(d / 1 km) + c_m, in place on one fresh
    # array (0-d for a scalar), so the caller's distances are never written
    pl = np.maximum(d, params.min_distance_m, out=np.empty_like(d))
    np.divide(pl, 1000.0, out=pl)
    np.log10(pl, out=pl)
    np.multiply(pl, slope, out=pl)
    np.add(pl, intercept, out=pl)
    np.add(pl, params.c_m_db, out=pl)
    if params.shadowing_sigma_db > 0:
        if rng is None:
            raise ValueError("shadowing requires an rng")
        np.add(pl, rng.normal(0.0, params.shadowing_sigma_db, size=pl.shape), out=pl)
    if pl.ndim == 0:
        return float(pl)
    return pl


# ---------------------------------------------------------------------------
# deployment geometry


@dataclass(frozen=True)
class DeploymentConfig:
    """Geometry of the BS lattice and the mobile draw.

    ``layout='rings'`` builds a hexagonal cluster with the given number of
    rings (2 rings -> 19 cells); ``layout='grid'`` builds a rows x cols
    rhombic lattice (8 x 9 -> 72 cells), which on the torus (``wrap``)
    needs ``max(rows, cols) <= 2 * min(rows, cols)``.  ``ms_total`` overrides
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
        if self.layout == "grid" and self.wrap and max(self.rows, self.cols) > 2 * min(self.rows, self.cols):
            # beyond that ratio a nearest lattice image can lie outside the
            # 3x3 block of images that the distances are taken over
            raise ValueError(
                f"rows and cols of a wrapped grid need max(rows, cols) <= 2 * min(rows, cols), "
                f"got {self.rows} x {self.cols}"
            )
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
    qt = np.array(coords, dtype=float)
    bs = qt[:, :1] * a1 + qt[:, 1:] * a2
    return bs, u1, u2, centered


def _wrap_shifts(u1, u2, wrap: bool):
    """The lattice translations a distance is minimised over: on the torus
    the 3x3 block of images (the wrap-around of 3GPP TR 36.814, Annex A),
    on the plane none."""
    if not wrap:
        return np.zeros((1, 2))
    return np.array([m * u1 + n * u2 for m in (-1, 0, 1) for n in (-1, 0, 1)])


def _distances(ms_xy, bs_xy, shifts):
    # The minimum over the given lattice images (the 3x3 block on a torus).
    # That block holds a nearest image of every point on a ring layout and
    # on a rows x cols grid with max(rows, cols) <= 2 min(rows, cols);
    # DeploymentConfig refuses a longer wrapped grid.
    # The images are taken a row at a time, a row being the images of one
    # y-shift: the minimum of the row's squared x-offsets first, then the
    # row's squared y-offset added once.  That is exact, because fl(a + c)
    # never decreases as a grows, so the minimum commutes with adding c.
    # sqrt is monotone and correctly rounded, so it is taken once, after
    # the minimum of the squared distances.
    rows: dict = {}
    for sx, sy in shifts:
        rows.setdefault(sy, []).append(sx)
    mx, my = ms_xy[:, :1], ms_xy[:, 1:]
    best = np.empty((len(ms_xy), len(bs_xy)))
    row, tmp = np.empty_like(best), np.empty_like(best)
    for i, (sy, sxs) in enumerate(rows.items()):
        acc = best if i == 0 else row
        np.subtract(mx, bs_xy[:, 0] + sxs[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for sx in sxs[1:]:
            np.subtract(mx, bs_xy[:, 0] + sx, out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.minimum(acc, tmp, out=acc)
        np.subtract(my, bs_xy[:, 1] + sy, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(acc, tmp, out=acc)
        if i:
            np.minimum(best, acc, out=best)
    return np.sqrt(best, out=best)


@dataclass
class Deployment:
    """The serving map and the full linear channel-gain matrix of a drawn
    BS/MS geometry.

    ``gain_matrix[ms, bs]`` is a linear power gain and ``serving_map[ms]``
    the strongest-gain BS.  Derived per-MS quantities (serving gain,
    summed non-serving gain) and the cell membership layout ``cells`` are
    computed once at construction.
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
        if not _positive_finite(gain):
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
        # the gain 10 ** (-pl / 10), in place on the path-loss array
        gain = cost_hata_pl(d, channel, rng if channel.shadowing_sigma_db > 0 else None)
        np.negative(gain, out=gain)
        np.divide(gain, 10.0, out=gain)
        np.power(10.0, gain, out=gain)
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

    ``bind(cells, e, l, cap)`` takes what a run hands every frame: the
    ``cells`` layout and the per-mobile normalized SINRs, normalized
    interferences and power caps (``inf`` for none).  It returns the run's
    frame function ``schedule(w)``, which maps the frame's per-mobile
    weights to a :class:`FrameAllocation`, scheduling every cell
    independently.  ``check(cells, alloc, l, cap)`` raises
    ``ValueError`` if a frame's schedule breaks the scheme's constraints
    in any cell.
    """

    name: str
    bind: Callable[..., Callable[[np.ndarray], FrameAllocation]]
    check: Callable[..., None]


def _frame_check(I, tol_kkt, egress=False, density=False):
    """The check every scheme's frame must pass, raising ``ValueError``:
    no negative, NaN or infinite share or power, no cell's band over 1, no
    power over its cap (the message names the mobiles over it), no power
    on a user without band, and a KKT residual within ``tol_kkt`` wherever
    the schedule carries one.  ``egress`` adds each cell's egress budget
    ``I``, one for all cells or one per cell (``nr``), ``density`` each
    user's interference density ``l p / x <= I``, ``I`` of its cell (the
    density schemes).  Every bound is written so that NaN fails it, except
    the residual's: an empty cell's residual is NaN.

    Without ``egress``, a :class:`Winners` frame is checked on its winners
    alone: their powers, and one test that the k-th winner lies in the
    k-th occupied cell, for every occupied cell and no more.  ``I`` is
    scaled by the forgiven rounding once, here; each frame scales the caps
    it bounds, a winners frame only its winners'."""
    I_max = I * (1.0 + _SLACK)

    def check_winners(cells, alloc, l, cap):
        users, power, occupied = alloc.users, alloc.power, cells.occupied
        if not (users.shape == occupied.shape and np.logical_and.reduce(cells.cell_of[users] == occupied)):
            raise ValueError("bandwidth overcommitted or idle: not one winner per occupied cell")
        if not np.minimum.reduce(power) >= 0.0:
            raise ValueError("negative or NaN allocation")
        _refuse_over_cap(power, _cap_bound(cap[users]), users)
        # a winner's density l p / x at x = 1
        if density and not np.logical_and.reduce(l[users] * power <= (I_max[occupied] if np.ndim(I) else I_max)):
            raise ValueError("per-user density cap violated")

    def check(cells, alloc, l, cap):
        if isinstance(alloc, Winners) and not egress:
            return check_winners(cells, alloc, l, cap)
        x, p = alloc.x, alloc.p
        # reductions, which NaN fails, cost fewer numpy calls than sign
        # tests; an infinite share overcommits its cell's band
        if not (np.minimum.reduce(x) >= 0.0 and np.minimum.reduce(p) >= 0.0):
            raise ValueError("negative or NaN allocation")
        if not np.maximum.reduce(cells.sums(x)) <= 1.0 + _SLACK:
            raise ValueError("bandwidth overcommitted")
        _refuse_over_cap(p, _cap_bound(cap))
        if p.dot(x == 0.0) > 0.0:  # the powers are finite and >= 0 here
            raise ValueError("power on a user without band")
        if egress:
            spent = cells.sums(l * p)
            within = spent <= I_max
            if not np.logical_and.reduce(within):
                k = np.flatnonzero(~within)[0]
                budget = I[k] if np.ndim(I) else I
                raise ValueError(f"egress budget violated in cell {k}: {spent[k]} > {budget}")
        # l p <= I x is l p / x <= I where x > 0, and 0 <= 0 where x = 0,
        # as no power is left on a user without band
        if density and not np.logical_and.reduce(l * p <= (I_max[cells.cell_of] if np.ndim(I) else I_max) * x):
            raise ValueError("per-user density cap violated")
        if alloc.kkt_residual is not None and np.logical_or.reduce(alloc.kkt_residual > tol_kkt):
            worst = np.nanmax(alloc.kkt_residual)
            raise ValueError(f"uncertified allocation: KKT residual {worst}")

    return check


def make_scheme(
    name: str,
    budget,
    solver_config: SolverConfig | None = None,
    fixed_power=None,
    target_sinr: float | None = None,
    assumed_noise_plus_interference: float | None = None,
) -> Scheme:
    """Build the named scheduling scheme.

    ``budget`` (a :class:`NoiseRiseBudget` or Watts) and ``fixed_power``
    are one value for every cell or a sequence of one per cell, which the
    scheme's ``bind`` lays out per user of the layout it binds to (and
    refuses for a layout of another number of cells).  Either raises
    ``ValueError`` for another shape or for a value that is not a
    positive finite number, as ``target_sinr`` does.  What a run fixes,
    ``bind`` computes once: ``nr`` binds a
    :class:`~noiserise.solver.DualRun`, ``nr_density`` and ``fixed`` each
    user's rate factor and power (:func:`~noiserise.model.greedy`).
    ``nr``, ``nr_density`` and ``fixed`` do not honour the power caps:
    their check refuses a power over its cap.
    ``assumed_noise_plus_interference`` is not used: no scheme reads it,
    and it is accepted so that existing callers keep working.
    """
    I = _watts(budget)
    tol_kkt = (solver_config if solver_config is not None else SolverConfig()).tol_kkt
    if name == "nr":
        return Scheme(name, lambda cells, e, l, cap: DualRun(cells, e, l, I).solve,
                      _frame_check(I, tol_kkt, egress=True))
    if name == "nr_density":
        return Scheme(name, greedy(density_rates, I), _frame_check(I, tol_kkt, density=True))
    if name == "nr_density_capped":
        return Scheme(name, partial(bind_capped, budget=I), _frame_check(I, tol_kkt, density=True))
    if name == "fixed":
        return Scheme(name, greedy(fixed_rates, _powers("fixed_power", fixed_power)), _frame_check(I, tol_kkt))
    if name == "target_sinr":
        # a bool, a string and None are no number, whatever kind numpy gives them
        target = np.asarray(target_sinr)
        if not (target.ndim == 0 and target.dtype.kind in "iuf" and 0 < target < math.inf):
            raise ValueError(f"scheme 'target_sinr' needs a positive finite target_sinr, got {target_sinr!r}")
        return Scheme(name, partial(bind_target_sinr, target_sinr=target_sinr), _frame_check(I, tol_kkt))
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")


# ---------------------------------------------------------------------------
# per-cell library calls


def one_cell(links, scheme: Scheme, able=None) -> Allocation:
    """Schedule one cell's ``UserLink`` list as a one-frame run of
    ``scheme``, bound to a one-cell layout and called with the links'
    weights, and run ``scheme.check`` on the frame, without its KKT
    residual, which the caller reports as ``certified`` instead.  Given
    ``able``, one flag per link, the run takes the flagged links alone
    and the others hold share and power 0; the check sees every link, so
    its messages name the caller's users.  Returns the shares, powers
    and weighted sum rate, plus the cell's prices, probes (as
    ``iterations``), convergence and KKT residual when the frame carries
    them."""
    if not links:
        raise ValueError("at least one user required")
    w, e, l, cap = link_arrays(links)
    cells = Cells.single(len(links))
    if able is None:
        alloc = scheme.bind(cells, e, l, cap)(w)
    else:
        ids = np.flatnonzero(able)
        part = scheme.bind(Cells.single(len(ids)), e[ids], l[ids], cap[ids])(w[ids])
        x, p = np.zeros(len(links)), np.zeros(len(links))
        x[ids], p[ids] = part.x, part.p
        alloc = replace(part, x=x, p=p)
    scheme.check(cells, alloc if alloc.kkt_residual is None else replace(alloc, kkt_residual=None), l, cap)
    x, p = alloc.x.tolist(), alloc.p.tolist()
    solved = {}
    if alloc.probes is not None:
        solved = dict(lambda1=float(alloc.lambda1[0]), lambda2=float(alloc.lambda2[0]),
                      iterations=int(alloc.probes[0]), converged=bool(alloc.converged[0]),
                      kkt_residual=float(alloc.kkt_residual[0]))
    return Allocation(x=x, p=p, objective=_objective(x, p, w.tolist(), e.tolist()), **solved)


def solve_dual(links, budget, config=None) -> Allocation:
    """Exact joint optimum through the one-dimensional dual of the budget:
    :func:`one_cell` on the ``nr`` scheme over the links with positive
    weight and SINR; the others take no band and no power.  Raises
    :class:`~noiserise.solver.NoTransmitterError` if no link can transmit.

    At the minimiser either one user takes the whole band at ``p = I/l``,
    or two tied users share it so that their spends ``c_i = w_i/lambda1 -
    l_i/e_i`` average to ``I``.  Tie rule, for any number of users tied on
    the envelope: if some spend ``I`` (to rounding), the lowest index of
    them takes the whole band; otherwise the highest and the lowest
    spender share it, each the lowest index among spends equal to
    rounding.  ``iterations`` counts envelope probes and there is no
    trace.  ``certified`` compares the KKT residual with
    ``config.tol_kkt``; an uncertified solve is reported, not refused.

    The walk does not honour ``max_power``: the scheme's check refuses a
    power over a link's cap ("max power violated by users [...]").
    """
    cfg = config if config is not None else SolverConfig()
    scheme = make_scheme("nr", budget)
    able = [u.weight > 0.0 and u.norm_sinr > 0.0 for u in links]
    if links and not any(able):
        raise NoTransmitterError("no user with positive weight and SINR")
    alloc = one_cell(links, scheme, able)
    alloc.certified = alloc.kkt_residual <= cfg.tol_kkt
    return alloc


def schedule_density(links, budget) -> Allocation:
    """The ``nr_density`` scheme on one cell: the user maximizing
    ``weight * log(1 + (I / l_i) e_i)`` (ties to the lowest index, even
    at zero rate) takes the whole band at density ``I / l_i``.  A winner
    whose ``I / l_i`` breaks its ``max_power``, or is infinite, raises
    :class:`ValueError`; :func:`schedule_density_capped` honours the cap.
    """
    return one_cell(links, make_scheme("nr_density", budget))


def schedule_density_capped(links, budget) -> Allocation:
    """The ``nr_density_capped`` scheme on one cell: users ranked by
    weighted full-density rate each take the largest band share their
    ``max_power`` supports at full density (``x = Pmax * l / I``) until
    the band is gone.  Band to spare after every user is capped is spread
    over the scheduled users in proportion to their shares, at frozen
    powers, which stays within the budget.  No ``max_power``, no cap.
    """
    return one_cell(links, make_scheme("nr_density_capped", budget))


def schedule_fixed_power(links, power) -> Allocation:
    """The ``fixed`` scheme on one cell: the user maximizing
    ``w_i * log(1 + P * e_i)`` (ties to the lowest index) takes the whole
    band at ``P`` Watts, whatever interference it injects.  A ``power``
    that is not positive and finite, or over the winner's ``max_power``,
    raises :class:`ValueError`.
    """
    # the budget is a placeholder: neither the scheme nor its check reads it
    return one_cell(links, make_scheme("fixed", 1.0, fixed_power=power))


def schedule_target_sinr(links, target_sinr) -> Allocation:
    """The ``target_sinr`` scheme on one cell: the heaviest user with
    ``e > 0`` (ties to the lowest index) takes the whole band at the power
    where ``p * e`` is ``target_sinr``, clamped at its ``max_power``.  A
    ``target_sinr`` that is not positive and finite raises
    :class:`ValueError`.
    """
    # the budget is a placeholder: neither the scheme nor its check reads it
    return one_cell(links, make_scheme("target_sinr", 1.0, target_sinr=target_sinr))


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
    hence within the budget.  Each user's density ``l p / x`` is not
    kept: a share rounded down, or a power scaled up, can break a density
    scheme's per-user cap ``l p <= I x``, and the frame's check ran before
    the rounding.  ``cells.sums`` adds a cell's users in ascending order,
    as a walk over the cell would.
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
    """The frame loop's one layout: a run, or a batch of runs on copies of
    one deployment side by side, and the arrays its frames write into.

    ``configs`` is a list of :class:`SimConfig` that :func:`_batch` has
    checked, one copy of ``deployment`` each.  Copy ``r``
    holds cells ``r * n_bs`` on and mobiles ``r * n_ms`` on, in the
    deployment's order, so each cell's users stay in ascending order.  A
    scheme schedules every cell on its own, so the copies meet only in
    :meth:`received`, one ``gain_matrix.T @ power`` per copy in one stacked
    product, which sums each copy's received powers as a lone run does.  The noise
    power, band, frame duration, quantization, PF settings (``run_cfg``)
    and power caps are the batch's; each run's budget and its users'
    scheduling SINR ``g / (N0*B + I)`` are its own.  All are computed once
    from configs whose dataclasses checked them when they were built.
    Frame ``t`` writes row ``t`` of the MS powers and delivered bits, the
    BS ingress and, for the exact dual solver, the per-cell KKT residuals,
    envelope probes and kink searches, each run in its own columns; the
    powers and bits start at 0, so a frame writes only its transmitters'.
    :meth:`metrics` hands each run its columns after the last frame; a
    :class:`MetricsBundle` derives its per-cell figures from them on
    first read.
    """

    def __init__(self, deployment: Deployment, configs: list):
        self.runs = runs = len(configs)
        first = configs[0]
        self.run_cfg = first.run
        self.scheme = first.scheme.name
        self.band = first.channel.bandwidth_hz
        self.p_noise = first.channel.noise_power_w
        self.budgets = [c.budget().linear_budget for c in configs]
        self.frame_duration_s = first.run.frame_duration_s
        self.quantize_units = first.run.quantize_units
        max_power = first.scheme.max_power_w
        self.gain_t = deployment.gain_matrix.T
        n_bs, n_ms = deployment.n_bs, deployment.n_ms
        drawn = deployment.cells
        copy = np.arange(runs)
        # the draw's layout offset to each copy's cells and mobiles, not
        # sorted again
        self.cells = Cells(
            cell_of=(drawn.cell_of + (copy * n_bs)[:, None]).ravel(),
            index=(drawn.index + (copy * n_ms)[:, None, None]).reshape(runs * n_bs, -1),
            valid=np.tile(drawn.valid, (runs, 1)),
        )
        self.g = np.tile(deployment.serving_gain, runs)
        self.l = np.tile(deployment.norm_interference, runs)
        # every frame hands the same arrays to the scheme, so no frame may edit them
        self.e = self.g / (self.p_noise + np.repeat(self.budgets, n_ms))
        self.cap = np.full(runs * n_ms, math.inf if max_power is None else max_power)
        _read_only(self.g, self.l, self.e, self.cap, self.cells.cell_of, self.cells.index, self.cells.valid)
        frames = first.run.frames
        self.power = np.zeros((frames, runs * n_ms))
        self.bits = np.zeros((frames, runs * n_ms))
        self.ingress = np.empty((frames, runs * n_bs))
        self.solver = {}

    def received(self, power: np.ndarray, out: np.ndarray) -> None:
        """Write into ``out`` the power each BS receives from the mobiles of
        its own copy."""
        n_bs, n_ms = self.gain_t.shape
        np.matmul(self.gain_t, power.reshape(self.runs, n_ms, 1), out=out.reshape(self.runs, n_bs, 1))

    def record(self, t: int, alloc) -> np.ndarray:
        """Write frame ``t``'s powers and whichever solver fields it
        carries; returns the powers' row."""
        power = self.power[t]
        if isinstance(alloc, Winners):
            power[alloc.users] = alloc.power
            return power
        power[...] = alloc.p
        for name in _SOLVER_FIELDS:
            row = getattr(alloc, name)
            if row is not None:
                if name not in self.solver:
                    self.solver[name] = np.empty((len(self.power), len(row)), row.dtype)
                self.solver[name][t] = row
        return power

    def metrics(self) -> Batch:
        """The :class:`MetricsBundle` of every run, as a :class:`Batch`.
        A bundle's MS arrays are views of its run's columns, which it
        reduces only along frames, and so adds in frame order on any
        strides; its ingress, which mean and std reduce whole, is copied
        out, so that it sums as one contiguous array in any batch."""
        n_cells, n_ms = self.gain_t.shape
        cell_of = self.cells.cell_of[:n_ms]

        def bundle(r):
            users, cells = slice(r * n_ms, (r + 1) * n_ms), slice(r * n_cells, (r + 1) * n_cells)
            return MetricsBundle(
                scheme=self.scheme,
                budget_w=self.budgets[r],
                bandwidth_hz=self.band,
                frame_duration_s=self.frame_duration_s,
                noise_power_w=self.p_noise,
                ingress_w=np.ascontiguousarray(self.ingress[:, cells]),
                ms_power_w=self.power[:, users],
                ms_bits=self.bits[:, users],
                ms_cell=cell_of,
                ms_norm_interference=self.l[users],
                **{name: values[:, cells] for name, values in self.solver.items()},
            )

        return Batch(bundle(r) for r in range(self.runs))


def run_frame(run: _Run, schedule, check, weights: np.ndarray, t: int) -> np.ndarray:
    """Schedule every cell of frame ``t`` against the planned interference,
    then score it at the interference that actually materialized; returns
    the frame's delivered bits per MS.

    ``schedule(weights)`` is a scheme's frame function bound to ``run``
    (:attr:`Scheme.bind`), which schedules ``run.cells``, every cell of
    every run of the batch, and ``check`` is the scheme's check.  The PF
    weights must be positive and finite.  Scheduling builds each user's
    normalized SINR from the budgeted noise-plus-interference
    ``N0*B + I``; delivered bits use the
    measured ingress at the serving BS instead, spread uniformly over the
    band.  Cells are independent within a frame, so the scheme schedules
    and checks all of them in one call on per-mobile arrays.  The frame
    writes row ``t`` of ``run``'s arrays and computes nothing the next
    frame does not need.  A :class:`Winners` frame, whose shares are 0
    or 1 and so on the resource-unit grid already, is not quantized, and
    is scored at its winners only, with the floating-point operations of
    the dense scoring at a share of 1.
    """
    # NaN fails both comparisons, so two reductions refuse what
    # isfinite().all() and (> 0).all() would
    if not (np.minimum.reduce(weights) > 0.0 and np.maximum.reduce(weights) < math.inf):
        raise ValueError("PF weights must be positive and finite")
    cells, g, l = run.cells, run.g, run.l
    alloc = schedule(weights)
    check(cells, alloc, l, run.cap)
    winners = isinstance(alloc, Winners)
    if run.quantize_units and not winners:
        alloc = _quantize_frame(cells, alloc, l, run.cap, run.quantize_units)
    power = run.record(t, alloc)

    ingress = run.ingress[t]
    run.received(power, out=ingress)
    bits = run.bits[t]
    if winners:
        # each cell's own received power is its winner's alone
        users, cell = alloc.users, cells.occupied
        g_on, p_on = g[users], alloc.power
        ingress[cell] -= g_on * p_on
        np.maximum(ingress, 0.0, out=ingress)
        # a winner without power scores log1p(0) = 0 bits
        e_act = g_on / (run.p_noise + ingress[cell])
        bits[users] = run.band * np.log1p(p_on * e_act) / LN2 * run.frame_duration_s
        return bits
    frac = alloc.x
    np.maximum(np.subtract(ingress, cells.sums(g * power), out=ingress), 0.0, out=ingress)
    on = ((frac > 0.0) & (power > 0.0)).nonzero()[0]
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
        p_noise = self.noise_power_w
        if not 0.0 < p_noise < math.inf:
            raise ValueError(f"n0_dbm_per_hz + noise_figure_db must give a positive finite noise power, "
                             f"got {p_noise!r} W")

    @property
    def n0_w_per_hz(self) -> float:
        return db_to_linear(self.n0_dbm_per_hz + self.noise_figure_db - 30.0)

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
    run: RunConfig = RunConfig()
    # not a field: every run certifies its nr frames at the one default
    solver: ClassVar[SolverConfig] = SolverConfig()

    def __post_init__(self):
        try:
            self.budget()
        except ValueError as exc:
            raise ValueError(f"noise_rise_db must give a positive finite budget: {exc}") from None

    def budget(self) -> NoiseRiseBudget:
        return noise_rise_budget_from_db(
            self.scheme.noise_rise_db, self.channel.n0_w_per_hz, self.channel.bandwidth_hz
        )


@dataclass(frozen=True, kw_only=True)
class MetricsBundle:
    """A run's observables as ``(frames, cells)`` or ``(frames, ms)``
    arrays, including the solver's per-cell KKT residuals, envelope probes
    and kink searches (None for the greedy schemes), with the summary
    statistics the CLI reports.

    ``cell_bits`` (delivered bits per cell), ``egress_w`` (the interference
    each cell's mobiles inject, ``l p`` summed) and ``ingress_db`` (the
    ingress over the noise power ``noise_power_w``, in dB) are derived
    from the other fields the first time each is read, and kept, so that a
    run whose caller reads only its mean ingress, as a calibration probe
    does, derives none of them.  ``n_frames`` and ``n_cells`` read the
    shape of ``ingress_w``.  ``ms_cell`` is each mobile's cell and
    ``ms_norm_interference`` its ``l``."""

    scheme: str
    budget_w: float
    bandwidth_hz: float
    frame_duration_s: float
    noise_power_w: float
    ingress_w: np.ndarray
    ms_power_w: np.ndarray
    ms_bits: np.ndarray
    ms_cell: np.ndarray
    ms_norm_interference: np.ndarray
    kkt_residual: np.ndarray | None = None
    probes: np.ndarray | None = None
    kinks: np.ndarray | None = None

    @property
    def n_frames(self) -> int:
        return self.ingress_w.shape[0]

    @property
    def n_cells(self) -> int:
        return self.ingress_w.shape[1]

    def _cell_sums(self, values) -> np.ndarray:
        """Per-frame, per-cell sums of a ``(frames, ms)`` array.  Frame
        ``t``'s users are binned at ``t * n_cells + cell``, so one
        ``bincount`` adds each cell's users in ascending order, as
        :meth:`Cells.sums` does per frame."""
        n_frames, n_cells = self.ingress_w.shape
        bins = (np.arange(n_frames)[:, None] * n_cells + self.ms_cell).ravel()
        sums = np.bincount(bins, weights=values.ravel(), minlength=n_frames * n_cells)
        return sums.reshape(n_frames, n_cells)

    @cached_property
    def cell_bits(self) -> np.ndarray:
        return self._cell_sums(self.ms_bits)

    @cached_property
    def egress_w(self) -> np.ndarray:
        return self._cell_sums(self.ms_norm_interference * self.ms_power_w)

    @cached_property
    def ingress_db(self) -> np.ndarray:
        return 10.0 * np.log10((self.noise_power_w + self.ingress_w) / self.noise_power_w)

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

    def edge_spectral_efficiency(self) -> float:
        """The 5th percentile of :meth:`per_ms_spectral_efficiency`."""
        return float(np.percentile(self.per_ms_spectral_efficiency(), 5.0))

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


def run_frames(run: _Run, scheme: Scheme) -> Batch:
    """Bind ``scheme`` once to ``run`` (its layout ``run.cells`` and the
    arrays ``run.e``, ``run.l`` and ``run.cap``) and run its frames, the
    proportional-fair weights of each frame ``1 / t_avg`` of the bits
    delivered before it; returns every run's :class:`MetricsBundle` as a
    :class:`Batch`."""
    run_cfg = run.run_cfg
    t_avg = np.full(len(run.g), run_cfg.pf_init, dtype=float)
    schedule = scheme.bind(run.cells, run.e, run.l, run.cap)
    # bench/ wraps run_frame and update_pf by their simnet names, so both
    # stay module-level calls, once per frame
    for t in range(run_cfg.frames):
        update_pf(t_avg, run_frame(run, schedule, scheme.check, 1.0 / t_avg, t), run_cfg.pf_beta)
    return run.metrics()


def run_simulation(cfg):
    """Draw the deployment, lay out its :class:`_Run`, build the scheme
    with each run's budget and fixed power per cell and run the frame loop,
    which binds the scheme to the layout.

    ``cfg`` is one :class:`SimConfig`, which returns its
    :class:`MetricsBundle`, or a sequence of configs that differ only in
    the scheme's ``noise_rise_db`` and ``fixed_power_w`` (else
    ``ValueError``), which returns their :class:`Batch`.  Either runs as a
    batch of copies of one deployment draw (:class:`_Run`), each copy with
    its run's budget and fixed power per cell, and every run's figures
    equal its own run's.
    """
    configs = _batch(cfg)
    first = configs[0]
    deployment = build_deployment(first.deployment, first.channel.pathloss, first.run.seed)
    run = _Run(deployment, configs)
    n_bs = deployment.n_bs
    scheme = make_scheme(
        first.scheme.name,
        np.repeat(run.budgets, n_bs),
        solver_config=first.solver,
        fixed_power=(np.repeat([c.scheme.fixed_power_w for c in configs], n_bs)
                     if first.scheme.name == "fixed" else None),
        target_sinr=first.scheme.target_sinr,
    )
    batch = run_frames(run, scheme)
    return batch[0] if isinstance(cfg, SimConfig) else batch
