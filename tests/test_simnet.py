import itertools
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiserise import simnet
from noiserise.model import LN2, Allocation, Cells, SolverConfig, UserLink, Winners, link_arrays
from noiserise.simnet import (
    SCHEME_NAMES,
    Batch,
    Deployment,
    DeploymentConfig,
    FrameAllocation,
    MetricsBundle,
    PathLossParams,
    RunConfig,
    Scheme,
    SchemeConfig,
    SimConfig,
    _quantize_frame,
    _Run,
    build_deployment,
    cost_hata_pl,
    make_scheme,
    one_cell,
    run_frame,
    run_frames,
    run_simulation,
    schedule_density,
    schedule_density_capped,
    schedule_fixed_power,
    schedule_target_sinr,
    shared_draws,
    solve_dual,
    update_pf,
)

from noiserise.solver import DualRun, NoTransmitterError, _objective

from oracles import (
    FrameMetrics,
    reference_quantize,
    reference_run_frame,
    reference_schedule,
    reference_winners,
    shannon_rate,
)


# ---------------------------------------------------------------------------
# path loss


def test_cost_hata_reference_distance():
    # hand evaluation of the urban-macro formula at 1 km, f=2000 MHz,
    # h_B=50 m, h_m=1.5 m, c_m=0
    assert cost_hata_pl(1000.0) == pytest.approx(134.678058693, abs=1e-3)


def test_cost_hata_decade_slope():
    slope = cost_hata_pl(10_000.0) - cost_hata_pl(1000.0)
    assert slope == pytest.approx(44.9 - 6.55 * math.log10(50.0), abs=1e-9)


def test_cost_hata_deterministic_without_shadowing():
    a = cost_hata_pl(700.0)
    b = cost_hata_pl(700.0)
    assert a == b


def test_cost_hata_clamps_small_distances():
    params = PathLossParams()
    assert cost_hata_pl(1.0, params) == cost_hata_pl(params.min_distance_m, params)
    with pytest.raises(ValueError):
        cost_hata_pl(0.0, params)


def test_cost_hata_warns_outside_fit_range():
    with pytest.warns(UserWarning):
        PathLossParams(freq_mhz=900.0)


def test_cost_hata_shadowing_needs_rng():
    params = PathLossParams(shadowing_sigma_db=4.0)
    with pytest.raises(ValueError):
        cost_hata_pl(500.0, params)
    rng = np.random.default_rng(0)
    values = cost_hata_pl(np.full(2000, 500.0), params, rng)
    spread = values.std()
    assert spread == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# deployment


def test_build_deployment_layout_sizes():
    dep = build_deployment(DeploymentConfig(rings=2, ms_per_cell=4), PathLossParams(), seed=0)
    assert dep.n_bs == 19
    assert dep.n_ms == 76


def test_build_deployment_72_cells_722_ms():
    cfg = DeploymentConfig(layout="grid", rows=8, cols=9, ms_total=722, min_ms_per_cell=2)
    dep = build_deployment(cfg, PathLossParams(), seed=1)
    assert dep.n_bs == 72
    assert dep.n_ms == 722
    counts = np.bincount(dep.serving_map, minlength=72)
    assert counts.min() >= 2


def test_shared_draw_is_one_read_only_deployment():
    cfg = DeploymentConfig(rings=1, ms_per_cell=3)
    with shared_draws():
        dep = build_deployment(cfg, PathLossParams(), seed=4)
        # the same config, path loss and seed, compared by value
        assert build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), 4) is dep
        assert build_deployment(cfg, PathLossParams(), seed=5) is not dep
        assert build_deployment(cfg, PathLossParams(shadowing_sigma_db=8.0), seed=4) is not dep
    assert build_deployment(cfg, PathLossParams(), seed=4) is not dep
    cells = dep.cells
    for array in (dep.serving_map, dep.gain_matrix, dep.serving_gain, dep.norm_interference,
                  cells.cell_of, cells.index, cells.valid):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


def test_build_deployment_deterministic():
    cfg = DeploymentConfig(rings=1, ms_per_cell=4)
    a = build_deployment(cfg, PathLossParams(), seed=42)
    b = build_deployment(cfg, PathLossParams(), seed=42)
    assert np.array_equal(a.gain_matrix, b.gain_matrix)
    assert np.array_equal(a.serving_map, b.serving_map)
    c = build_deployment(cfg, PathLossParams(), seed=43)
    assert not np.array_equal(a.gain_matrix, c.gain_matrix)


def test_torus_neighborhoods_identical():
    # on the wrapped lattice every BS sees the same multiset of distances
    # to the other BSs
    from noiserise.simnet import _lattice, _wrap_shifts

    cfg = DeploymentConfig(rings=2)
    bs, u1, u2, _ = _lattice(cfg)
    shifts = _wrap_shifts(u1, u2, wrap=True)
    diff = bs[:, None, None, :] - (bs[None, :, None, :] + shifts[None, None, :, :])
    d = np.sqrt((diff**2).sum(-1)).min(-1)
    profiles = np.sort(d, axis=1)
    for k in range(1, len(bs)):
        assert profiles[k] == pytest.approx(profiles[0], rel=1e-9)


def test_serving_is_strongest_gain():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=3)
    assert np.array_equal(dep.serving_map, dep.gain_matrix.argmax(axis=1))


def test_min_ms_per_cell_enforced():
    cfg = DeploymentConfig(rings=1, ms_per_cell=2, min_ms_per_cell=2)
    dep = build_deployment(cfg, PathLossParams(), seed=7)
    assert np.bincount(dep.serving_map, minlength=dep.n_bs).min() >= 2
    for kwargs in ({"ms_total": 3}, {"ms_total": 0}, {"ms_per_cell": 0}):
        with pytest.raises(ValueError, match="too few"):
            DeploymentConfig(rings=1, **kwargs)


def test_distances_match_the_four_dimensional_form():
    from noiserise.simnet import _distances, _lattice, _wrap_shifts

    cfg = DeploymentConfig(layout="grid", rows=3, cols=4)
    bs, u1, u2, _ = _lattice(cfg)
    ms = np.random.default_rng(4).random((50, 2)) * 5000.0
    for wrap in (True, False):
        shifts = _wrap_shifts(u1, u2, wrap)
        diff = ms[:, None, None, :] - (bs[None, :, None, :] + shifts[None, None, :, :])
        assert np.array_equal(_distances(ms, bs, shifts), np.sqrt((diff**2).sum(axis=-1)).min(axis=-1))


def test_cells_layout_matches_members():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=4), PathLossParams(), seed=3)
    cells = dep.cells
    assert np.array_equal(cells.cell_of, dep.serving_map)
    for k in range(dep.n_bs):
        assert np.array_equal(dep.members(k), np.flatnonzero(dep.serving_map == k))
        assert np.array_equal(cells.index[k][cells.valid[k]], dep.members(k))
    # ties go to the lowest index, as in a walk over members(k); the
    # winners read the users' scores, written into the buffer, alone
    scores = cells.score_buffer()
    assert len(scores) == dep.n_ms + 1 and np.all(scores == -np.inf)
    scores[:-1] = 1.0
    assert np.array_equal(cells.winners(scores), [dep.members(k)[0] for k in range(dep.n_bs)])
    assert scores[-1] == -np.inf and np.all(scores[:-1] == 1.0)


def test_cells_with_an_empty_cell():
    cells = Cells.from_cell_of([2, 0, 2, 0], 3)
    assert cells.valid.sum(axis=1).tolist() == [2, 0, 2]
    scores = cells.score_buffer()
    scores[:-1] = [1.0, 5.0, 3.0, 2.0]
    assert cells.winners(scores).tolist() == [1, 2]
    assert cells.sums(np.ones(4)).tolist() == [2.0, 0.0, 2.0]
    # a cell of three beside a cell of two: the padding's -inf never wins
    cells = Cells.from_cell_of([2, 0, 2, 0, 2], 3)
    scores = cells.score_buffer()
    scores[:-1] = [-np.inf, 5.0, -np.inf, 2.0, -np.inf]
    assert cells.winners(scores).tolist() == [1, 0]
    scores[:-1] = [1.0, 5.0, 3.0, 2.0, 3.0]
    assert cells.winners(scores).tolist() == [1, 2]


@st.composite
def winner_frames(draw):
    """A run's layout of 1 to 4 copies of a drawn layout, some of whose
    cells serve nobody, and per-user scores drawn from a few values, so
    that ties are common, ``-inf`` among them."""
    n_cells = draw(st.integers(1, 6))
    cell_of = draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=12))
    copies = draw(st.integers(1, 4))
    dep = Deployment(serving_map=np.array(cell_of), gain_matrix=np.ones((len(cell_of), n_cells)))
    run = _Run(dep, [SimConfig()] * copies)
    scores = draw(st.lists(st.sampled_from([-np.inf, 0.0, 1.0, 2.5]), min_size=copies * len(cell_of),
                           max_size=copies * len(cell_of)))
    return run.cells, np.array(scores)


@settings(max_examples=200, deadline=None)
@given(winner_frames())
def test_property_winners_are_the_reference_pick(frame):
    cells, scores = frame
    buffer = cells.score_buffer()
    buffer[:-1] = scores
    got = cells.winners(buffer)
    assert np.array_equal(got, reference_winners(cells, scores))
    # each occupied cell's first user among its best, in the order of the cells
    want = []
    for k in np.unique(cells.cell_of):
        members = np.flatnonzero(cells.cell_of == k)
        want.append(members[np.argmax(scores[members] == scores[members].max())])
    assert got.tolist() == want
    assert np.array_equal(cells.occupied, np.unique(cells.cell_of))
    assert buffer[-1] == -np.inf and np.array_equal(buffer[:-1], scores)


def test_target_sinr_scores_no_weight_times_minus_inf():
    # user 0, without e > 0, scores -inf; multiplied by its weight of 0 it
    # would score NaN, which argmax picks
    links = [UserLink(id=0, weight=0.0, norm_sinr=0.0, norm_interference=1.0),
             UserLink(id=1, weight=0.0, norm_sinr=1.0, norm_interference=1.0)]
    assert schedule_target_sinr(links, 4.0).x == [0.0, 1.0]


def test_cells_refuse_an_id_outside_the_layout():
    for cell_of in ([0, 5], [0, 2], [-1, 0]):
        with pytest.raises(ValueError, match=r"cell ids must lie in \[0, 2\)"):
            Cells.from_cell_of(cell_of, 2)
    assert Cells.from_cell_of([], 2).valid.sum() == 0


# ---------------------------------------------------------------------------
# frame loop


def _silent_scheme():
    return Scheme(
        name="silent",
        bind=lambda cells, e, l, cap: lambda w: FrameAllocation(x=np.zeros(len(w)), p=np.zeros(len(w))),
        check=lambda cells, alloc, l, cap: None,
    )


def _only_cell_zero(bind):
    """Wraps a scheme's binder so that only cell 0 transmits."""

    def only_cell_zero(cells, e, l, cap):
        schedule = bind(cells, e, l, cap)
        keep = cells.cell_of == 0

        def frame(w):
            alloc = schedule(w)
            return FrameAllocation(x=np.where(keep, alloc.x, 0.0), p=np.where(keep, alloc.p, 0.0))

        return frame

    return only_cell_zero


def _bound(scheme, run):
    """``scheme``'s frame function bound to ``run``, as :func:`run_frames`
    binds it."""
    return scheme.bind(run.cells, run.e, run.l, run.cap)


def _first_frame(dep, scheme, cfg):
    """Frame 0 of a run of ``scheme`` on ``dep``, where every PF weight is
    ``1 / pf_init`` (1 by default)."""
    (bundle,) = run_frames(_Run(dep, [replace(cfg, run=replace(cfg.run, frames=1))]), scheme)
    return FrameMetrics(**{f.name: getattr(bundle, f.name)[0] for f in fields(FrameMetrics)})


def test_run_frame_all_silent_all_zero():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=5)
    metrics = _first_frame(dep, _silent_scheme(), SimConfig())
    assert metrics.cell_bits.sum() == 0
    assert metrics.ingress_w.sum() == 0
    assert metrics.egress_w.sum() == 0
    assert metrics.ms_bits.sum() == 0
    assert np.all(metrics.ingress_db == 0.0)


def test_run_frame_isolated_cell_matches_shannon_rate():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=5)
    cfg = SimConfig()
    channel = cfg.channel
    inner = make_scheme("nr_density", cfg.budget())
    scheme = Scheme(name="only0", bind=_only_cell_zero(inner.bind), check=lambda *args: None)
    metrics = _first_frame(dep, scheme, cfg)
    # no other cell transmits, so cell 0 is scored at zero ingress
    assert metrics.ingress_w[0] == 0.0
    members = dep.members(0)
    winner = [ms for ms in members if metrics.ms_power_w[ms] > 0]
    assert len(winner) == 1
    ms = winner[0]
    e_act = dep.serving_gain[ms] / channel.noise_power_w
    expected_bits = (
        shannon_rate(1.0, float(metrics.ms_power_w[ms]), float(e_act), channel.bandwidth_hz)
        / LN2
        * cfg.run.frame_duration_s
    )
    assert metrics.ms_bits[ms] == pytest.approx(expected_bits, rel=1e-12)
    # neighbors hear exactly gain * power
    assert metrics.ingress_w[1] == pytest.approx(
        float(dep.gain_matrix[ms, 1] * metrics.ms_power_w[ms]), rel=1e-9
    )


def test_run_frame_two_cell_hand_ingress():
    # two hand-placed cells, one MS each; ingress equals the cross gains
    gain = np.array([[2e-6, 3e-9], [4e-9, 1e-6]])
    dep = Deployment(serving_map=np.array([0, 1]), gain_matrix=gain)
    cfg = SimConfig()
    budget = cfg.budget()
    scheme = make_scheme("nr_density", budget)
    metrics = _first_frame(dep, scheme, cfg)
    I = budget.linear_budget
    p0 = I / dep.norm_interference[0]
    p1 = I / dep.norm_interference[1]
    assert metrics.ms_power_w == pytest.approx([p0, p1], rel=1e-12)
    assert metrics.ingress_w[0] == pytest.approx(gain[1, 0] * p1, rel=1e-12)
    assert metrics.ingress_w[1] == pytest.approx(gain[0, 1] * p0, rel=1e-12)
    assert metrics.egress_w[0] == pytest.approx(I, rel=1e-12)


def test_run_frame_scheme_constraints_asserted():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=2), PathLossParams(), seed=2)
    cfg = SimConfig()
    bad = Scheme(
        name="nr",
        bind=lambda cells, e, l, cap: lambda w: FrameAllocation(x=np.ones(len(w)), p=np.ones(len(w))),
        check=make_scheme("nr", cfg.budget()).check,
    )
    with pytest.raises(AssertionError):
        _first_frame(dep, bad, cfg)


def test_run_frame_empty_cell_stays_silent():
    # BS 1 serves nobody: it schedules nothing and only hears interference
    gain = np.array([[2e-6, 1e-9, 3e-9], [1e-9, 2e-9, 1e-6]])
    dep = Deployment(serving_map=np.array([0, 2]), gain_matrix=gain)
    cfg = SimConfig()
    for name in ("nr", "nr_density", "nr_density_capped"):
        metrics = _first_frame(dep, make_scheme(name, cfg.budget()), cfg)
        assert metrics.egress_w[1] == 0.0 and metrics.cell_bits[1] == 0.0
        assert metrics.ingress_w[1] > 0.0
        assert (metrics.ms_power_w > 0).all()


def test_run_frame_validates_weights():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=2), PathLossParams(), seed=2)
    cfg = SimConfig()
    scheme = make_scheme("nr_density", cfg.budget())
    run = _Run(dep, [cfg])
    # a run binds its schedule without weights, for PF weights 1/t_avg,
    # which are positive: a zero weight is refused as well
    for weight in (np.nan, -1.0, np.inf, 0.0):
        w = np.ones(dep.n_ms)
        w[3] = weight
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            run_frame(run, _bound(scheme, run), scheme.check, w, 0)


def test_density_checks_reject_violations():
    cells = Cells.from_cell_of([0, 0, 1], 2)
    l = np.array([1.0, 2.0, 1.0])
    cap = np.array([1.0, 1.0, np.inf])
    plain = make_scheme("nr_density", 2.0).check
    capped = make_scheme("nr_density_capped", 2.0).check
    ok = FrameAllocation(x=np.array([0.5, 0.5, 1.0]), p=np.array([1.0, 0.5, 2.0]))
    plain(cells, ok, l, cap)
    capped(cells, ok, l, cap)
    dense = FrameAllocation(x=np.array([0.5, 0.5, 1.0]), p=np.array([1.0, 0.5, 2.5]))
    with pytest.raises(AssertionError, match="density cap"):
        plain(cells, dense, l, cap)
    # every scheme refuses power over the cap, whether it honours the cap or not
    loud = FrameAllocation(x=np.array([1.0, 0.0, 1.0]), p=np.array([1.5, 0.0, 2.0]))
    for name in SCHEME_NAMES:
        scheme = make_scheme(name, 2.0, fixed_power=1.0, target_sinr=1.0, assumed_noise_plus_interference=1.0)
        with pytest.raises(AssertionError, match="max power"):
            scheme.check(cells, loud, l, cap)
    wide = FrameAllocation(x=np.array([0.6, 0.5, 1.0]), p=np.array([1.0, 0.5, 2.0]))
    with pytest.raises(AssertionError, match="overcommitted"):
        plain(cells, wide, l, cap)
    negative = FrameAllocation(x=np.array([0.5, 0.5, 1.0]), p=np.array([1.0, -0.5, 2.0]))
    with pytest.raises(AssertionError, match="negative"):
        plain(cells, negative, l, cap)


def test_checks_take_one_budget_per_cell():
    # two cells, budgets 2 W and 1 W: cell 1's egress of 1.5 W is over its
    # own budget only, and its user's density over its own cap only
    cells = Cells.from_cell_of([0, 0, 1], 2)
    l = np.ones(3)
    cap = np.full(3, np.inf)
    alloc = FrameAllocation(x=np.array([0.5, 0.5, 1.0]), p=np.array([0.5, 1.0, 1.5]))
    make_scheme("nr", 2.0).check(cells, alloc, l, cap)
    make_scheme("nr_density", 2.0).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match=r"egress budget violated in cell 1: 1\.5 > 1\.0"):
        make_scheme("nr", [2.0, 1.0]).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match="density cap"):
        make_scheme("nr_density", [2.0, 1.0]).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match=r"egress budget violated in cell 0: 1\.5 > 1\.0"):
        make_scheme("nr", 1.0).check(cells, alloc, l, cap)
    # one budget for the wrong number of cells is refused when the scheme
    # binds to the layout, a budget that is not positive and finite at once
    for budget in ([2.0], [2.0, 0.0], [2.0, np.nan], [2.0, np.inf]):
        with pytest.raises(ValueError, match="one per cell"):
            make_scheme("nr", budget).bind(cells, np.ones(3), l, cap)


def test_checks_take_a_winners_frame():
    # users 1 and 2 win cells 0 and 1 at 2 W and 1.5 W; the density check
    # and the caps read the winners alone, and nr's egress check, which no
    # greedy frame meets in a run, reads the derived dense frame
    cells = Cells.from_cell_of([0, 0, 1], 2)
    l, cap = np.ones(3), np.full(3, np.inf)
    alloc = Winners(users=np.array([1, 2]), cell=np.array([0, 1]), power=np.array([2.0, 1.5]), n=3)
    for name in ("nr_density", "nr"):
        make_scheme(name, [2.0, 1.5]).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match="density cap"):
        make_scheme("nr_density", [2.0, 1.0]).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match=r"egress budget violated in cell 1: 1\.5 > 1\.0"):
        make_scheme("nr", [2.0, 1.0]).check(cells, alloc, l, cap)
    with pytest.raises(AssertionError, match="max power"):
        make_scheme("fixed", 2.0, fixed_power=1.0).check(cells, alloc, l, np.array([1.0, 1.9, 1.0]))


@pytest.mark.parametrize("name", ["nr_density", "fixed", "target_sinr"])
def test_winners_check_tests_the_cells_it_cannot_prove_ascending(name):
    # users 0 and 1 in cell 0, user 2 in cell 1, user 3 in cell 2; the
    # check skips the ascending test for the layout's own occupied cells
    # only, and tests every other array of cells, even an equal copy
    cells = Cells.from_cell_of([0, 0, 1, 2], 3)
    l, cap, power = np.ones(4), np.full(4, np.inf), np.ones(3)
    check = make_scheme(name, 1.0, fixed_power=1.0, target_sinr=1.0).check
    occupied = cells.occupied
    for cell in (occupied, occupied.copy()):
        check(cells, Winners(users=np.array([0, 2, 3]), cell=cell, power=power, n=4), l, cap)
    refused = {
        "out_of_order_copy": Winners(users=np.array([2, 0, 3]), cell=np.array([1, 0, 2]), power=power, n=4),
        "repeated_cell": Winners(users=np.array([0, 1, 3]), cell=np.array([0, 0, 2]), power=power, n=4),
        "outside_its_cell": Winners(users=np.array([0, 3, 3]), cell=occupied, power=power, n=4),
    }
    for fault, alloc in refused.items():
        with pytest.raises(AssertionError, match="bandwidth overcommitted"):
            check(cells, alloc, l, cap)
            pytest.fail(f"the check passed {fault}")


def test_fixed_power_is_one_positive_finite_power_per_cell():
    cells = Cells.from_cell_of([0, 0, 1], 2)
    layout = (cells, np.array([1.0, 2.0, 1.0]), np.ones(3), np.full(3, np.inf))
    alloc = make_scheme("fixed", [2.0, 1.0], fixed_power=[0.1, 0.2]).bind(*layout)(np.ones(3))
    assert alloc.p.tolist() == [0.0, 0.1, 0.2]
    # one power for every cell is laid out per user by bind
    assert make_scheme("fixed", 2.0, fixed_power=0.1).bind(*layout)(np.ones(3)).p.tolist() == [0.0, 0.1, 0.1]
    # the wrong number of cells, refused by bind
    for power in ([0.1, 0.2, 0.2], [0.1]):
        scheme = make_scheme("fixed", 2.0, fixed_power=power)
        with pytest.raises(ValueError, match=r"expected one value, or one per cell of 2 cells"):
            scheme.bind(*layout)
    # a power that is not one positive finite number, or a sequence of
    # them, refused by make_scheme: a bool or a string among them
    for power in ([0.1, 0.0, 0.2], [0.1, 0.0], [0.1, np.nan], [0.1, np.inf], None, np.inf, np.nan, 0.0,
                  [[0.1, 0.2]], [], True, "0.5", [True, True], ["1", "2"]):
        with pytest.raises(ValueError, match=re.escape(f"fixed_power must be one positive finite power, "
                                                       f"or one per cell, got {power!r}")):
            make_scheme("fixed", 2.0, fixed_power=power)


def _fault_at(bind, fault, at):
    """Wraps a scheme's binder so that frame ``at`` of the bound run hands
    ``fault`` of its allocation, given the layout, to the check."""

    def faulty(cells, e, l, cap):
        schedule = bind(cells, e, l, cap)
        frames = itertools.count()

        def frame(w):
            alloc = schedule(w)
            return fault(alloc, cells) if next(frames) == at else alloc

        return frame

    return faulty


def _on_first_transmitter(field, value):
    """A fault setting ``field`` of the first user holding band and power.
    A :class:`Winners` frame keeps its powers in ``power``, one per
    winner, and has no field for its shares: setting ``x`` raises
    ``TypeError``."""

    def fault(alloc, cells):
        if isinstance(alloc, Winners) and field == "p":
            k = np.flatnonzero(alloc.power > 0)[0]
            power = alloc.power.copy()
            power[k] = value
            return replace(alloc, power=power)
        i = np.flatnonzero((alloc.x > 0) & (alloc.p > 0))[0]
        values = getattr(alloc, field).copy()
        values[i] = value
        return replace(alloc, **{field: values})

    return fault


def _winner_outside_its_cell(alloc, cells):
    """The second cell's winner also stands in for the first cell's."""
    users = alloc.users.copy()
    users[0] = users[1]
    return replace(alloc, users=users)


def _two_winners_in_one_cell(alloc, cells):
    """Another user of the first cell joins its winner at the same power."""
    k, winner = alloc.cell[0], alloc.users[0]
    members = cells.index[k, cells.valid[k]]
    other = members[members != winner][0]
    return replace(alloc, users=np.insert(alloc.users, 1, other), cell=np.insert(alloc.cell, 1, k),
                   power=np.insert(alloc.power, 1, alloc.power[0]))


_FAULTS = {
    "nan_share": (_on_first_transmitter("x", np.nan), "NaN allocation"),
    "nan_power": (_on_first_transmitter("p", np.nan), "NaN allocation"),
    "inf_power": (_on_first_transmitter("p", np.inf), "infinite power"),
    "power_without_band": (_on_first_transmitter("x", 0.0), "without band"),
    "winner_outside_its_cell": (_winner_outside_its_cell, "bandwidth overcommitted"),
    "two_winners_in_one_cell": (_two_winners_in_one_cell, "bandwidth overcommitted"),
}
# the schemes whose frames are Winners, and the faults only they can carry
_GREEDY = ("nr_density", "fixed", "target_sinr")
_WINNERS_FAULTS = ("winner_outside_its_cell", "two_winners_in_one_cell")


@pytest.mark.parametrize("at", [0, 2], ids=["first_frame", "last_frame"])
@pytest.mark.parametrize("name, fault", [
    (name, fault) for name in SCHEME_NAMES for fault in _FAULTS
    # the egress and density bounds of the budgeted schemes refuse an
    # infinite power already
    if not (fault == "inf_power" and name in ("nr", "nr_density", "nr_density_capped"))
    and (fault not in _WINNERS_FAULTS or name in _GREEDY)
])
def test_frame_check_refuses_a_faulty_allocation(name, fault, at):
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=3),
        scheme=SchemeConfig(name=name, fixed_power_w=0.1, target_sinr=10.0),
        run=RunConfig(frames=3),
    )
    dep = build_deployment(cfg.deployment, cfg.channel.pathloss, seed=5)
    scheme = _schemes(cfg)[0]
    run_frames(_Run(dep, [cfg]), scheme)  # the run passes without the fault
    inject, message = _FAULTS[fault]
    faulty = Scheme(name, _fault_at(scheme.bind, inject, at), scheme.check)
    if name in _GREEDY and fault in ("nan_share", "power_without_band"):
        # a winners frame cannot carry a fault in its shares: x is derived
        # (see test_winners_frame_derives_its_shares_and_powers)
        with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
            run_frames(_Run(dep, [cfg]), faulty)
        return
    with pytest.raises(AssertionError, match=message):
        run_frames(_Run(dep, [cfg]), faulty)


def _empty_cell_run(name="nr_density"):
    """Seven of the 19 cells of this draw serve nobody."""
    cfg = SimConfig(deployment=DeploymentConfig(ms_per_cell=1, min_ms_per_cell=0),
                    scheme=SchemeConfig(name=name, fixed_power_w=0.1, target_sinr=10.0), run=RunConfig(seed=1))
    dep = build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    assert int((np.bincount(dep.serving_map, minlength=dep.n_bs) == 0).sum()) == 7
    return dep, cfg


@pytest.mark.parametrize("name", _GREEDY)
def test_winners_frame_derives_its_shares_and_powers(name):
    dep, cfg = _empty_cell_run(name)
    run = _Run(dep, [cfg])
    alloc = _bound(_schemes(cfg)[0], run)(np.ones(dep.n_ms))
    assert isinstance(alloc, Winners)
    with pytest.raises(TypeError):
        replace(alloc, x=alloc.x)
    with pytest.raises(TypeError):
        replace(alloc, p=alloc.p)
    for field in ("x", "p"):
        with pytest.raises(FrozenInstanceError):
            setattr(alloc, field, np.zeros(dep.n_ms))
    x, p = alloc.x, alloc.p
    occupied = np.bincount(dep.serving_map, minlength=dep.n_bs) > 0
    # exactly one 1.0 per non-empty cell, 0.0 everywhere else
    assert np.array_equal(np.bincount(dep.serving_map, weights=x == 1.0, minlength=dep.n_bs), occupied)
    assert set(x.tolist()) == {0.0, 1.0}
    assert np.array_equal(np.flatnonzero(x), np.sort(alloc.users))
    assert np.array_equal(alloc.cell, np.flatnonzero(occupied))
    # the powers sit on the winners only
    assert np.array_equal(p[alloc.users], alloc.power)
    assert not p[x == 0.0].any()


# ---------------------------------------------------------------------------
# proportional fairness


def test_update_pf_zero_bits_keeps_weights():
    t_avg = np.full(4, 2.0)
    update_pf(t_avg, np.zeros(4), 0.9)
    assert np.array_equal(t_avg, np.full(4, 2.0))
    assert np.array_equal(1.0 / t_avg, np.full(4, 0.5))


def test_update_pf_beta_one_freezes_weights():
    t_avg = np.ones(3)
    update_pf(t_avg, np.array([10.0, 0.0, 5.0]), 1.0)
    assert np.array_equal(1.0 / t_avg, np.ones(3))


def test_update_pf_accumulates():
    t_avg = np.ones(2)
    update_pf(t_avg, np.array([100.0, 0.0]), 0.9)
    assert t_avg[0] == pytest.approx(1.0 + 0.1 * 100.0)
    assert t_avg[1] == 1.0


def test_update_pf_unscheduled_user_gains_relative_weight():
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=4),
        run=RunConfig(seed=6, frames=80),
    )
    bundle = run_simulation(cfg)
    totals = bundle.ms_bits.sum(axis=0)
    assert (totals > 0).any()
    # replay the weight dynamics over the 80 frames: weights order inversely
    # with delivered bits, so whoever was served least ends up weighted most
    t_avg = np.ones(bundle.n_ms)
    for t in range(bundle.n_frames):
        update_pf(t_avg, bundle.ms_bits[t], 0.9)
    weights = 1.0 / t_avg
    order = np.argsort(totals)
    assert weights[order[0]] == weights.max()
    served = totals > 0
    if (~served).any():
        assert weights[~served].min() > weights[served].max()
    # and the ratio against the start moved in the unserved user's favor
    start = np.ones(bundle.n_ms)
    rel_start = start[order[0]] / start[order[-1]]
    rel_end = weights[order[0]] / weights[order[-1]]
    assert rel_end > rel_start


# ---------------------------------------------------------------------------
# quantization


def _quantize_one_cell(x, num_units, p=None, l=None, cap=None):
    n = len(x)
    alloc = FrameAllocation(x=np.array(x, dtype=float),
                            p=np.array(p if p is not None else np.zeros(n), dtype=float))
    l = np.array(l if l is not None else np.ones(n), dtype=float)
    cap = np.array(cap if cap is not None else np.full(n, np.inf), dtype=float)
    return _quantize_frame(Cells.single(n), alloc, l, cap, num_units)


def test_quantize_even_split():
    assert (_quantize_one_cell([0.5, 0.5], 48).x * 48).tolist() == [24, 24]


def test_quantize_full_band():
    assert (_quantize_one_cell([1.0], 48).x * 48).tolist() == [48]


def test_quantize_largest_remainder_error_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        x = rng.dirichlet(np.ones(m))
        units = np.rint(_quantize_one_cell(x, 48).x * 48)
        assert units.sum() <= 48
        for xi, u in zip(x, units):
            assert abs(u / 48 - xi) <= 1.0 / 48 + 1e-12


def test_quantize_redistributes_power_of_zeroed_users():
    l = [4.0, 1.0]
    # user 0 holds less than half a unit of band, so 48-unit rounding
    # zeroes it and its egress share moves to user 1
    x, p = [0.005, 0.995], [0.25, 1.0]
    egress_before = 4.0 * 0.25 + 1.0 * 1.0
    q = _quantize_one_cell(x, 48, p, l)
    assert q.x[0] == 0.0 and q.p[0] == 0.0
    assert q.x[1] == pytest.approx(48 / 48)
    egress_after = 1.0 * q.p[1]
    assert egress_after == pytest.approx(egress_before, rel=1e-12)
    # a max_power cap on the survivor clamps the redistribution
    clamped = _quantize_one_cell(x, 48, p, l, [np.inf, 1.2])
    assert clamped.p[1] == pytest.approx(1.2)


@st.composite
def quantizable_frames(draw):
    """A multi-cell frame as a scheme hands it to the quantizer: each cell's
    shares sum to at most 1, some users hold no power, and every power is
    within its cap (finite or infinite)."""
    n = draw(st.integers(1, 30))
    n_cells = draw(st.integers(1, 6))
    cell_of = np.array(draw(st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n)))
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(1e-3, 1.0),
                                 min_size=n, max_size=n)))
    band = np.array(draw(st.lists(st.sampled_from([1.0]) | st.floats(0.0, 1.0),
                                  min_size=n_cells, max_size=n_cells)))
    cells = Cells.from_cell_of(cell_of, n_cells)
    totals = cells.sums(raw)[cell_of]
    x = np.where(raw > 0.0, raw / np.where(totals > 0.0, totals, 1.0) * band[cell_of], 0.0)
    on = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p = np.where(on, np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))), 0.0)
    headroom = np.array(draw(st.lists(st.sampled_from([1.0, np.inf]) | st.floats(1.0, 3.0),
                                      min_size=n, max_size=n)))
    cap = np.maximum(p, 1e-3) * headroom  # every power is at least 1e-3 W
    l = np.array(draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n)))
    return cells, FrameAllocation(x=x, p=p), l, cap, draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(quantizable_frames())
def test_property_quantize_frame_matches_per_cell_reference(frame):
    cells, alloc, l, cap, num_units = frame
    got = _quantize_frame(cells, alloc, l, cap, num_units)
    want_x = np.zeros(len(l))
    want_p = np.zeros(len(l))
    for k in range(cells.n_cells):
        ms = cells.index[k, cells.valid[k]]
        want_x[ms], want_p[ms] = reference_quantize(alloc.x[ms].tolist(), alloc.p[ms].tolist(),
                                                    l[ms].tolist(), cap[ms].tolist(), num_units)
    assert np.array_equal(got.x, want_x)
    assert np.array_equal(got.p, want_p)
    units = np.rint(got.x * num_units)
    assert np.array_equal(units / num_units, got.x)
    assert np.array_equal(cells.sums(units), np.minimum(num_units, np.round(cells.sums(alloc.x) * num_units)))
    scaled = alloc.x * num_units
    assert ((units == np.floor(scaled)) | (units == np.ceil(scaled))).all()
    assert not ((got.x == 0.0) & (got.p > 0.0)).any()
    # the redistributed powers are scaled products, so the egress may land
    # a few ulps above its old level, never more
    assert (cells.sums(l * got.p) <= cells.sums(l * alloc.p) * (1.0 + 1e-12)).all()


# ---------------------------------------------------------------------------
# whole runs


def test_run_simulation_deterministic():
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=3),
        run=RunConfig(seed=9, frames=6),
    )
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert np.array_equal(a.cell_bits, b.cell_bits)
    assert np.array_equal(a.ms_power_w, b.ms_power_w)
    assert np.array_equal(a.ingress_w, b.ingress_w)


def test_run_simulation_calls_frame_hooks_once_per_frame(monkeypatch):
    # bench/spans.py and bench/run.py wrap simnet.run_frame and
    # simnet.update_pf by name, so run_simulation must call both through
    # the module globals, once per frame
    from noiserise import simnet

    calls = {"run_frame": 0, "update_pf": 0}

    def counting(name):
        original = getattr(simnet, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(simnet, name, counting(name))
    run_simulation(SimConfig(deployment=DeploymentConfig(rings=1, ms_per_cell=3), run=RunConfig(frames=3)))
    assert calls == {"run_frame": 3, "update_pf": 3}


def _recording(bind, allocations):
    """Wraps a scheme's binder so that its frames append their allocations
    to ``allocations``."""

    def recording(cells, e, l, cap):
        schedule = bind(cells, e, l, cap)

        def frame(w):
            allocations.append(schedule(w))
            return allocations[-1]

        return frame

    return recording


def test_default_run_every_nr_allocation_certified(monkeypatch):
    allocations = []
    make = simnet.make_scheme

    def recording_scheme(*args, **kwargs):
        scheme = make(*args, **kwargs)
        return Scheme(scheme.name, _recording(scheme.bind, allocations), scheme.check)

    monkeypatch.setattr(simnet, "make_scheme", recording_scheme)
    run_simulation(SimConfig())
    assert len(allocations) == 80
    residuals = np.concatenate([a.kkt_residual for a in allocations])
    assert len(residuals) == 19 * 80
    uncertified = int((~(residuals <= SolverConfig().tol_kkt)).sum())
    assert uncertified == 0, f"{uncertified} of {len(residuals)} allocations uncertified"


def test_nr_check_rejects_uncertified_allocation():
    check = make_scheme("nr", 1.0).check
    cells = Cells.single(1)
    l = np.ones(1)
    cap = np.full(1, np.inf)

    def alloc(residual):
        return FrameAllocation(x=np.ones(1), p=np.ones(1), kkt_residual=np.array([residual]))

    check(cells, alloc(0.0), l, cap)
    with pytest.raises(AssertionError, match="uncertified"):
        check(cells, alloc(0.1), l, cap)


def test_torus_mean_ingress_matches_budget():
    # every cell spends exactly its egress budget, and summed over cells
    # ingress equals egress, so the mean tracks the budget tightly
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=4),
        run=RunConfig(seed=10, frames=30),
    )
    bundle = run_simulation(cfg)
    assert abs(bundle.mean_ingress_w() - bundle.budget_w) / bundle.budget_w <= 0.05


def test_noise_rise_histogram_concentrates():
    # default torus at 5 dB: at least 80% of cell-frame noise-rise samples
    # within +-1.5 dB of the target
    cfg = SimConfig(run=RunConfig(seed=1, frames=80))
    bundle = run_simulation(cfg)
    target = 5.0
    samples = bundle.ingress_db.ravel()
    frac = np.mean(np.abs(samples - target) <= 1.5)
    assert frac >= 0.80


def test_quantized_vs_continuous_throughput_close():
    base = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=5),
        run=RunConfig(seed=12, frames=30),
    )
    from dataclasses import replace

    quant = replace(base, run=replace(base.run, quantize_units=48))
    cont = run_simulation(base)
    qnt = run_simulation(quant)
    total_c = cont.cell_bits.sum()
    total_q = qnt.cell_bits.sum()
    assert abs(total_q - total_c) / total_c < 0.05


def test_scheme_config_validation():
    for kwargs in (
        {"name": "bogus"},
        {"name": "fixed"},
        {"name": "fixed", "fixed_power_w": 0.0},
        {"name": "target_sinr"},
        {"name": "target_sinr", "target_sinr": -2.0},
        {"max_power_w": -1.0},
        {"max_power_w": 0.0},
        {"max_power_w": math.nan},
    ):
        with pytest.raises(ValueError):
            SchemeConfig(**kwargs)
    with pytest.raises(ValueError):
        make_scheme("fixed", 1.0)
    with pytest.raises(ValueError):
        make_scheme("target_sinr", 1.0)


def test_target_sinr_scheme_refuses_a_target_that_is_not_positive_and_finite():
    # an infinite target makes every score infinite, so each cell's band
    # would go to its lowest-index user with e > 0 whatever the weights,
    # here [0, 2], and every power to its cap; a finite target gives the
    # band to the heaviest users; a string is no number, and a bool, which
    # 0 < True < inf would read as SINR 1, is none either
    cells = Cells.from_cell_of([0, 0, 1, 1], 2)
    layout = (cells, np.ones(4), np.ones(4), np.full(4, 0.5))
    w = np.array([1.0, 2.0, 1.0, 2.0])
    assert make_scheme("target_sinr", 1.0, target_sinr=4.0).bind(*layout)(w).users.tolist() == [1, 3]
    for target in (np.inf, np.nan, 0.0, -1.0, None, "4", True):
        with pytest.raises(ValueError, match=re.escape(f"positive finite target_sinr, got {target!r}")):
            make_scheme("target_sinr", 1.0, target_sinr=target)


def test_target_sinr_scheme_takes_no_assumed_noise_plus_interference():
    # the keyword is accepted and not used, whatever its value
    layout = (Cells.single(2), np.array([1.0, 2.0]), np.ones(2), np.full(2, np.inf))
    want = make_scheme("target_sinr", 1.0, target_sinr=4.0).bind(*layout)(np.ones(2))
    for assumed in (None, 0.0, -1.0):
        got = make_scheme("target_sinr", 1.0, target_sinr=4.0,
                          assumed_noise_plus_interference=assumed).bind(*layout)(np.ones(2))
        assert np.array_equal(got.x, want.x) and np.array_equal(got.p, want.p)


# ---------------------------------------------------------------------------
# array frame loop against the per-cell reference loop


def _schemes(cfg):
    budget = cfg.budget()
    planned = cfg.channel.noise_power_w + budget.linear_budget
    name, fixed_power, target_sinr = cfg.scheme.name, cfg.scheme.fixed_power_w, cfg.scheme.target_sinr
    return make_scheme(name, budget, fixed_power=fixed_power, target_sinr=target_sinr,
                       assumed_noise_plus_interference=planned), reference_schedule(
        name, budget, fixed_power=fixed_power, target_sinr=target_sinr)


@pytest.mark.parametrize("max_power", [None, 0.02, 5.0], ids=["uncapped", "all_capped", "cascade"])
@pytest.mark.parametrize("quantize", [None, 12], ids=["continuous", "quantized"])
@pytest.mark.parametrize("wrap", [True, False], ids=["torus", "plain"])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_run_frame_matches_per_cell_reference(name, wrap, quantize, max_power):
    # 0.02 W caps every user (the cascade spreads leftover band); at 5 W
    # some users are capped and one per cell takes the band that is left
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=6, wrap=wrap),
        scheme=SchemeConfig(name=name, fixed_power_w=0.1, max_power_w=max_power, target_sinr=10.0),
        run=RunConfig(frames=6, quantize_units=quantize),
    )
    dep = build_deployment(cfg.deployment, cfg.channel.pathloss, seed=11)
    run = _Run(dep, [cfg])
    scheme, reference = _schemes(cfg)
    shares = []
    recording = _recording(scheme.bind, shares)(run.cells, run.e, run.l, run.cap)
    t_avg = np.ones(dep.n_ms)
    # nr and nr_density ignore the cap (their first frame reaches watts
    # here) and fixed sends its fixed power whatever the cap, so the check
    # refuses the first frame of every case whose cap they break
    breaks_cap = max_power is not None and (
        name in ("nr", "nr_density") or name == "fixed" and max_power < cfg.scheme.fixed_power_w)
    if breaks_cap:
        with pytest.raises(AssertionError, match="max power violated"):
            run_frame(run, recording, scheme.check, 1.0 / t_avg, 0)
        return
    wants = []
    for t in range(cfg.run.frames):
        weights = 1.0 / t_avg
        wants.append(reference_run_frame(dep, reference, weights, cfg))
        update_pf(t_avg, run_frame(run, recording, scheme.check, weights, t), cfg.run.pf_beta)
    (got,) = run.metrics()
    for t, (want, want_x) in enumerate(wants):
        # both loops see the same weights, so the schedules are the same floats
        if quantize is None:
            assert np.array_equal(shares[t].x, want_x)
        assert np.array_equal(got.ms_power_w[t], want.ms_power_w)
        for field in ("ms_bits", "cell_bits", "ingress_w", "ingress_db", "egress_w"):
            np.testing.assert_allclose(getattr(got, field)[t], getattr(want, field), rtol=1e-12, atol=0,
                                       err_msg=field)


@pytest.mark.parametrize("quantize", [None, 12], ids=["continuous", "quantized"])
@pytest.mark.parametrize("wrap", [True, False], ids=["torus", "plain"])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_run_simulation_matches_reference_frame_loop(name, wrap, quantize):
    # the whole run against the per-cell reference frame with its own PF
    # loop: the per-cell sums and dB figures derived once after the loop
    # must equal the per-frame ones
    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=6, wrap=wrap),
        scheme=SchemeConfig(name=name, fixed_power_w=0.1, target_sinr=10.0),
        run=RunConfig(seed=11, frames=4, quantize_units=quantize),
    )
    bundle = run_simulation(cfg)
    dep = build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    _, reference = _schemes(cfg)
    assert (bundle.scheme, bundle.n_frames, bundle.n_cells, bundle.n_ms) == (name, 4, dep.n_bs, dep.n_ms)
    assert bundle.budget_w == cfg.budget().linear_budget
    for field in ("kkt_residual", "probes", "kinks"):
        solved = getattr(bundle, field)
        assert solved is None if name != "nr" else solved.shape == (4, dep.n_bs)
    t_avg = np.full(dep.n_ms, cfg.run.pf_init)
    for t in range(cfg.run.frames):
        want, _ = reference_run_frame(dep, reference, 1.0 / t_avg, cfg)
        assert np.array_equal(bundle.ms_power_w[t], want.ms_power_w)
        for field in ("ms_bits", "cell_bits", "ingress_w", "ingress_db", "egress_w"):
            np.testing.assert_allclose(getattr(bundle, field)[t], getattr(want, field), rtol=1e-12, atol=0,
                                       err_msg=field)
        update_pf(t_avg, want.ms_bits, cfg.run.pf_beta)


# ---------------------------------------------------------------------------
# a batch of runs against each run alone


_DERIVED = ("cell_bits", "egress_w", "ingress_db")  # a bundle's figures derived on first read


def _assert_same_fields(got, want):
    """Every field of two bundles, solver fields included, and every
    figure derived from them on first read, is the same floats."""
    for name in [f.name for f in fields(MetricsBundle)] + list(_DERIVED):
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
        else:
            assert a == b, name


@pytest.mark.parametrize("name, quantize, max_power", [
    (name, quantize, max_power)
    for name in SCHEME_NAMES for quantize in (None, 12) for max_power in (None, 5.0)
    # nr and nr_density break any cap they meet here (see above)
    if not (max_power is not None and name in ("nr", "nr_density"))
])
def test_batch_runs_equal_their_own_runs(name, quantize, max_power):
    # three dB points, and for fixed three powers, as one batch: every
    # field of every run, solver fields included, is the same floats as
    # the run's own
    base = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=6),
        scheme=SchemeConfig(name=name, max_power_w=max_power, target_sinr=10.0,
                            fixed_power_w=0.1 if name == "fixed" else None),
        run=RunConfig(seed=11, frames=5, quantize_units=quantize),
    )
    configs = [replace(base, scheme=replace(base.scheme, noise_rise_db=db,
                                            fixed_power_w=power if name == "fixed" else None))
               for db, power in ((2.0, 0.05), (5.0, 0.1), (8.0, 0.2))]
    batch = run_simulation(configs)
    assert isinstance(batch, Batch) and len(batch) == 3
    assert batch.n_cells * batch.n_frames == 3 * 7 * 5
    for cfg, bundle in zip(configs, batch):
        alone = run_simulation(cfg)
        _assert_same_fields(bundle, alone)
        # and so is every figure derived from them, whatever the arrays' strides
        for stat in ("mean_cell_throughput", "mean_ingress_w", "ingress_std_w", "ingress_std_db",
                     "edge_spectral_efficiency", "jain_fairness", "solver_stats"):
            assert getattr(bundle, stat)() == getattr(alone, stat)(), stat
        assert np.array_equal(bundle.per_ms_spectral_efficiency(), alone.per_ms_spectral_efficiency())
        assert (bundle.probes is not None) == (name == "nr")


@pytest.mark.parametrize("name", ["nr", "fixed"])
def test_a_batch_of_one_is_the_run_alone(name):
    # run_simulation alone picks the return shape: a MetricsBundle for a
    # SimConfig, a Batch for a sequence, here of one equal bundle
    cfg = SimConfig(deployment=DeploymentConfig(rings=1, ms_per_cell=4),
                    scheme=SchemeConfig(name=name, fixed_power_w=0.1), run=RunConfig(seed=3, frames=4))
    alone = run_simulation(cfg)
    batch = run_simulation([cfg])
    assert isinstance(alone, MetricsBundle)
    assert isinstance(batch, Batch) and len(batch) == 1
    assert (batch.n_cells, batch.n_frames) == (alone.n_cells, alone.n_frames) == (7, 4)
    assert (alone.probes is not None) == (name == "nr")
    _assert_same_fields(batch[0], alone)


def test_a_batch_derives_no_figure_that_is_not_read():
    # a calibration probe reads mean_ingress_w() alone, and the benchmark
    # counts n_cells * n_frames of every batch: neither derives cell_bits,
    # egress_w or ingress_db, which are derived once on first read
    base = SimConfig(deployment=DeploymentConfig(rings=1, ms_per_cell=4),
                     scheme=SchemeConfig(name="fixed", fixed_power_w=0.1), run=RunConfig(seed=3, frames=4))
    batch = run_simulation([replace(base, scheme=replace(base.scheme, fixed_power_w=power))
                            for power in (0.05, 0.1, 0.2)])
    assert batch.n_cells * batch.n_frames == 3 * 7 * 4
    means = [bundle.mean_ingress_w() for bundle in batch]
    for bundle in batch:
        assert (bundle.n_frames, bundle.n_cells) == (4, 7)
        assert not set(_DERIVED) & set(vars(bundle))
    for bundle, mean in zip(batch, means):
        assert bundle.mean_cell_throughput() > 0 and bundle.ingress_std_db() > 0
        assert set(vars(bundle)) >= {"cell_bits", "ingress_db"} and "egress_w" not in vars(bundle)
        assert bundle.cell_bits is bundle.cell_bits and bundle.egress_w is bundle.egress_w
        assert bundle.mean_ingress_w() == mean



def test_long_batch_runs_sum_as_their_own_runs():
    # 1,200 frames x 7 cells: numpy sums a strided array of more than
    # 8,192 entries in another order than a contiguous one
    base = SimConfig(deployment=DeploymentConfig(rings=1, ms_per_cell=2), scheme=SchemeConfig(name="nr_density"),
                     run=RunConfig(frames=1200))
    configs = [base, replace(base, scheme=replace(base.scheme, noise_rise_db=8.0))]
    for cfg, bundle in zip(configs, run_simulation(configs)):
        alone = run_simulation(cfg)
        for stat in ("mean_ingress_w", "ingress_std_w", "ingress_std_db", "edge_spectral_efficiency"):
            assert getattr(bundle, stat)() == getattr(alone, stat)(), stat


def test_batch_configs_differ_only_in_db_and_fixed_power():
    base = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=3),
        scheme=SchemeConfig(name="fixed", fixed_power_w=0.1),
        run=RunConfig(frames=2),
    )
    run_simulation([base, replace(base, scheme=replace(base.scheme, noise_rise_db=8.0, fixed_power_w=0.3))])
    for other in (
        replace(base, run=replace(base.run, seed=2)),
        replace(base, run=replace(base.run, frames=3)),
        replace(base, scheme=replace(base.scheme, name="nr")),
        replace(base, scheme=replace(base.scheme, max_power_w=1.0)),
        replace(base, deployment=replace(base.deployment, wrap=False)),
    ):
        with pytest.raises(ValueError, match="differ only"):
            run_simulation([base, other])
    with pytest.raises(ValueError, match="at least one"):
        run_simulation([])


# ---------------------------------------------------------------------------
# per-cell UserLink functions against the frame schemes


# each scheme's UserLink function, and the make_scheme keywords that bind
# the same parameter: budget 2 W, fixed power 0.5 W, target SINR 4
PER_CELL = {
    "nr": (lambda links: solve_dual(links, 2.0), {}),
    "nr_density": (lambda links: schedule_density(links, 2.0), {}),
    "nr_density_capped": (lambda links: schedule_density_capped(links, 2.0), {}),
    "fixed": (lambda links: schedule_fixed_power(links, 0.5), {"fixed_power": 0.5}),
    "target_sinr": (lambda links: schedule_target_sinr(links, 4.0),
                    {"target_sinr": 4.0, "assumed_noise_plus_interference": 1.0}),
}


@st.composite
def user_links(draw):
    """1-9 users with some zero weights, some zero SINRs, and power caps
    mixing None with finite values."""
    n = draw(st.integers(1, 9))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    w = column(st.sampled_from([0.0]) | st.floats(1e-3, 10.0))
    e = column(st.sampled_from([0.0]) | st.floats(1e-3, 100.0))
    l = column(st.floats(1e-3, 10.0))
    cap = column(st.none() | st.floats(1e-3, 5.0))
    return [UserLink(id=i, weight=w[i], norm_sinr=e[i], norm_interference=l[i], max_power=cap[i])
            for i in range(n)]


@pytest.mark.parametrize("name", PER_CELL)
@settings(max_examples=100, deadline=None)
@given(links=user_links())
def test_property_per_cell_function_is_the_frame_scheme_on_one_cell(name, links):
    schedule, keywords = PER_CELL[name]
    n = len(links)
    w, e, l, cap = link_arrays(links)
    layout = (Cells.single(n), e, l, cap)
    bound = make_scheme(name, 2.0, **keywords).bind
    if name == "nr" and not (w > 0).all():
        # a run binds nr without weights, as its PF weights are positive;
        # solve_dual binds with the call's, so a user of zero weight is
        # ineligible, as in a frame solve bound to them
        def bound(cells, e, l, cap):
            return lambda w: DualRun(cells, e, l, 2.0, w).solve(w)
    if name == "nr" and not any(u.weight > 0 and u.norm_sinr > 0 for u in links):
        # the dual solve needs a user that can transmit, on either path
        with pytest.raises(NoTransmitterError):
            schedule(links)
        with pytest.raises(NoTransmitterError):
            bound(*layout)(w)
        return
    frame = bound(*layout)(w)
    over = np.flatnonzero(frame.p > cap).tolist()
    if over:
        assert name not in ("nr_density_capped", "target_sinr")  # these two clamp at the cap
        # the scheme's frame check refuses such powers, in a simulated frame
        # and in the per-cell call alike, naming the mobiles over their cap
        message = re.escape(f"max power violated by users {over}")
        with pytest.raises(AssertionError, match=message):
            make_scheme(name, 2.0, **keywords).check(layout[0], frame, l, cap)
        with pytest.raises(ValueError, match=message):
            schedule(links)
        return
    # a frame the check passes (leaving certification to ``certified``) is
    # the per-cell call's allocation
    checked = frame if frame.kkt_residual is None else replace(frame, kkt_residual=None)
    make_scheme(name, 2.0, **keywords).check(layout[0], checked, l, cap)
    alloc = schedule(links)
    assert alloc.x == frame.x.tolist()
    assert alloc.p == frame.p.tolist()
    assert alloc.objective == _objective(alloc.x, alloc.p, w.tolist(), e.tolist())
    if frame.probes is not None:
        assert (alloc.lambda1, alloc.lambda2) == (frame.lambda1[0], frame.lambda2[0])
        assert alloc.iterations == frame.probes[0]
        assert alloc.kkt_residual == frame.kkt_residual[0]


def test_per_cell_density_functions_refuse_an_infinite_power():
    # I / l overflows for l = 1e-320, so user 0 would take the band at
    # p = inf and objective inf; numpy warns of the overflow, and the
    # scheme's check refuses the frame
    links = [UserLink(id=0, weight=1.0, norm_sinr=1.0, norm_interference=1e-320),
             UserLink(id=1, weight=1.0, norm_sinr=1.0, norm_interference=1.0)]
    for schedule in (schedule_density, schedule_density_capped):
        with pytest.raises(ValueError, match="^infinite power$"), pytest.warns(RuntimeWarning, match="overflow"):
            schedule(links, 2.0)


@pytest.mark.parametrize("fault, message", [
    (lambda alloc: FrameAllocation(-alloc.x, alloc.p), "negative or NaN allocation"),
    (lambda alloc: FrameAllocation(np.zeros_like(alloc.x), alloc.p), "power on a user without band"),
], ids=["negative_share", "power_without_band"])
def test_one_cell_refuses_a_frame_its_check_refuses(fault, message):
    # a fixed scheme at 0.5 W whose binder hands out a faulty frame
    links = [UserLink(id=i, weight=1.0, norm_sinr=2.0, norm_interference=1.0) for i in range(3)]
    fixed = make_scheme("fixed", 1.0, fixed_power=0.5)

    def bind(cells, e, l, cap):
        return lambda w: fault(fixed.bind(cells, e, l, cap)(w))

    scheme = replace(fixed, bind=bind)
    frame = scheme.bind(Cells.single(3), *link_arrays(links)[1:])(np.ones(3))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        scheme.check(Cells.single(3), frame, np.ones(3), np.full(3, np.inf))
    with pytest.raises(ValueError, match=f"^{message}$"):
        one_cell(links, scheme)
    # the unbroken scheme passes
    assert one_cell(links, fixed).x == [1.0, 0.0, 0.0]


def test_one_cell_leaves_certification_to_the_caller():
    # a frame whose residual the simulator's check refuses as uncertified
    # is returned with that residual: certification is the caller's
    # ``certified`` flag, not a refusal
    links = [UserLink(id=0, weight=1.0, norm_sinr=2.0, norm_interference=1.0),
             UserLink(id=1, weight=2.0, norm_sinr=1.0, norm_interference=3.0)]
    nr = make_scheme("nr", 2.0)

    def bind(cells, e, l, cap):
        return lambda w: replace(nr.bind(cells, e, l, cap)(w), kkt_residual=np.ones(1))

    uncertified = replace(nr, bind=bind)
    frame = uncertified.bind(Cells.single(2), *link_arrays(links)[1:])(np.array([1.0, 2.0]))
    with pytest.raises(AssertionError, match="uncertified allocation: KKT residual 1.0"):
        nr.check(Cells.single(2), frame, np.array([1.0, 3.0]), np.full(2, np.inf))
    alloc = one_cell(links, uncertified)
    assert alloc.kkt_residual == 1.0 and alloc.certified is None
    exact = solve_dual(links, 2.0)
    assert (alloc.x, alloc.p) == (exact.x, exact.p)


def _bound_run(layout):
    """A run's layout and configs, by name: the default run, the 72-cell
    grid, a batch of four configs, and a layout with empty cells."""
    base = SimConfig(scheme=SchemeConfig(fixed_power_w=0.1), run=RunConfig(seed=1))
    if layout == "empty_cells":
        dep, cfg = _empty_cell_run()
        return dep, [replace(cfg, scheme=base.scheme)]
    configs = [base]
    if layout == "grid72":
        configs = [replace(base, deployment=DeploymentConfig(layout="grid", ms_total=722))]
    if layout == "batch4":
        configs = [replace(base, scheme=replace(base.scheme, noise_rise_db=db, fixed_power_w=power))
                   for db, power in ((2.0, 0.01), (5.0, 0.02), (7.0, 0.05), (10.0, 0.1))]
    cfg = configs[0]
    return build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed), configs


def _reference_frame(schedule, cells, w, e, l):
    """The frame of per-cell scheduler ``schedule`` (see
    :func:`oracles.reference_schedule`), each cell's links built from
    ``w, e, l``, as per-user ``x`` and ``p``."""
    x, p = np.zeros(len(w)), np.zeros(len(w))
    for k in range(cells.n_cells):
        ms = cells.index[k, cells.valid[k]]
        if len(ms):
            alloc = schedule([UserLink(id=int(i), weight=w[i], norm_sinr=e[i], norm_interference=l[i]) for i in ms])
            x[ms], p[ms] = alloc.x, alloc.p
    return x, p


@pytest.mark.parametrize("layout", ["default", "grid72", "batch4", "empty_cells"])
def test_bound_greedy_schemes_are_their_frame_functions(layout):
    # bound once to a run's cells, e and l, with each run's budget and
    # fixed power per cell, as run_frames binds them, every frame is the
    # per-cell reference scheduler's, cell by cell at that cell's own
    # budget or power; bound to changed arrays, it is the reference's on
    # those arrays
    dep, configs = _bound_run(layout)
    run = _Run(dep, configs)
    budget = np.repeat(run.budgets, dep.n_bs)
    fixed_power = np.repeat([c.scheme.fixed_power_w for c in configs], dep.n_bs)
    rng = np.random.default_rng(3)

    def reference(name, w, e, l):
        x, p = np.zeros(len(w)), np.zeros(len(w))
        for r, cfg in enumerate(configs):
            users = slice(r * dep.n_ms, (r + 1) * dep.n_ms)
            schedule = reference_schedule(name, cfg.budget(), fixed_power=cfg.scheme.fixed_power_w)
            x[users], p[users] = _reference_frame(schedule, dep.cells, w[users], e[users], l[users])
        return x, p

    for name in ("nr_density", "fixed"):
        scheme = make_scheme(name, budget, fixed_power=fixed_power)
        schedule = scheme.bind(run.cells, run.e, run.l, run.cap)
        e, l = run.e.copy(), run.l.copy()
        for w in (np.ones(len(run.g)), rng.uniform(0.1, 10.0, len(run.g))):
            bound = schedule(w)
            x, p = reference(name, w, run.e, run.l)
            assert np.array_equal(bound.x, x) and np.array_equal(bound.p, p), name
            e[bound.users] *= 1e-3
            l[bound.users] *= 1e3
            got = scheme.bind(run.cells, e, l, run.cap)(w)
            x, p = reference(name, w, e, l)
            assert np.array_equal(got.x, x) and np.array_equal(got.p, p), name
            assert not np.array_equal(got.p, bound.p), name


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_run_frames_binds_once_per_run(monkeypatch, name):
    # whatever its frame count or batch size, a run binds its scheme once
    # to its whole layout, and nr builds one DualRun, bound without
    # weights; each frame calls the bound schedule once
    binds, dual_runs, frames = [], [], []

    class CountedDualRun(DualRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            dual_runs.append(kwargs.get("w", args[4] if len(args) > 4 else None))

    make = simnet.make_scheme

    def counted_scheme(*args, **kwargs):
        scheme = make(*args, **kwargs)

        def bind(*layout):
            binds.append(layout)
            return _recording(scheme.bind, frames)(*layout)

        return Scheme(scheme.name, bind, scheme.check)

    monkeypatch.setattr(simnet, "DualRun", CountedDualRun)
    monkeypatch.setattr(simnet, "make_scheme", counted_scheme)
    for n_frames, runs in ((1, 1), (7, 1), (7, 3)):
        base = SimConfig(deployment=DeploymentConfig(rings=1, ms_per_cell=3),
                         scheme=SchemeConfig(name=name, fixed_power_w=0.1, target_sinr=10.0),
                         run=RunConfig(frames=n_frames))
        configs = [replace(base, scheme=replace(base.scheme, noise_rise_db=db)) for db in (2.0, 5.0, 8.0)[:runs]]
        for calls in (binds, dual_runs, frames):
            calls.clear()
        run_simulation(configs)
        assert len(binds) == 1 and len(frames) == n_frames
        cells, e, l, cap = binds[0]
        assert cells.n_cells == runs * 7 and len(e) == len(l) == len(cap) == runs * 21
        assert dual_runs == ([None] if name == "nr" else [])


@pytest.mark.parametrize("runs", [1, 4])
def test_received_is_each_copys_product(runs):
    dep, configs = _bound_run("batch4")
    run = _Run(dep, configs[:runs])
    power = np.random.default_rng(5).uniform(0.0, 2.0, runs * dep.n_ms)
    power[::3] = 0.0
    got = np.empty(runs * dep.n_bs)
    run.received(power, out=got)
    want = np.concatenate([dep.gain_matrix.T @ power[r * dep.n_ms:(r + 1) * dep.n_ms] for r in range(runs)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["nr_density", "fixed", "target_sinr"])
@settings(max_examples=100, deadline=None)
@given(links=user_links())
def test_property_greedy_library_calls_match_the_reference(name, links):
    # the same Allocation as the per-cell reference schedulers give, its
    # objective included; a winner over its max_power is refused (the
    # target-SINR scheme clamps at the cap instead)
    schedule, _ = PER_CELL[name]
    ref = reference_schedule(name, 2.0, fixed_power=0.5, target_sinr=4.0)(links)
    caps = [math.inf if u.max_power is None else u.max_power for u in links]
    if any(p > cap for p, cap in zip(ref.p, caps)):
        with pytest.raises(ValueError, match="max power violated"):
            schedule(links)
        return
    w, e, _, _ = link_arrays(links)
    assert schedule(links) == Allocation(x=ref.x, p=ref.p, objective=_objective(ref.x, ref.p, w.tolist(), e.tolist()))
