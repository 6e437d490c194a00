import math

import numpy as np
import pytest

from noiserise.model import LN2, Cells, SolverConfig, noise_rise_budget_from_db, shannon_rate
from noiserise.simnet import (
    SCHEME_NAMES,
    ChannelConfig,
    Deployment,
    DeploymentConfig,
    FrameAllocation,
    FrameConfig,
    PathLossParams,
    PFState,
    RunConfig,
    Scheme,
    SchemeConfig,
    SimConfig,
    build_deployment,
    cost_hata_pl,
    make_scheme,
    quantize_allocation,
    run_frame,
    run_simulation,
    update_pf,
)

from oracles import reference_run_frame, reference_schedule


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


def test_build_deployment_deterministic():
    cfg = DeploymentConfig(rings=1, ms_per_cell=4)
    a = build_deployment(cfg, PathLossParams(), seed=42)
    b = build_deployment(cfg, PathLossParams(), seed=42)
    assert np.array_equal(a.ms_positions, b.ms_positions)
    assert np.array_equal(a.gain_matrix, b.gain_matrix)
    assert np.array_equal(a.serving_map, b.serving_map)
    c = build_deployment(cfg, PathLossParams(), seed=43)
    assert not np.array_equal(a.ms_positions, c.ms_positions)


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
    # ties go to the lowest index, as in a walk over members(k)
    scores = np.ones(dep.n_ms)
    assert np.array_equal(cells.winners(scores), [dep.members(k)[0] for k in range(dep.n_bs)])


def test_cells_with_an_empty_cell():
    cells = Cells.from_cell_of([2, 0, 2, 0], 3)
    assert cells.valid.sum(axis=1).tolist() == [2, 0, 2]
    assert cells.winners(np.array([1.0, 5.0, 3.0, 2.0])).tolist() == [1, 2]
    assert cells.sums(np.ones(4)).tolist() == [2.0, 0.0, 2.0]


# ---------------------------------------------------------------------------
# frame loop


def _frame_cfg():
    channel = ChannelConfig()
    return FrameConfig(bandwidth_hz=channel.bandwidth_hz, n0_w_per_hz=channel.n0_w_per_hz), channel


def _silent_scheme():
    return Scheme(
        name="silent",
        schedule=lambda cells, w, e, l, cap: FrameAllocation(x=np.zeros(len(w)), p=np.zeros(len(w))),
        check=lambda cells, alloc, l, cap: None,
    )


class _OnlyCellZero:
    """Wraps a frame schedule so that only cell 0 transmits."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, cells, w, e, l, cap):
        alloc = self.inner(cells, w, e, l, cap)
        keep = cells.cell_of == 0
        return FrameAllocation(x=np.where(keep, alloc.x, 0.0), p=np.where(keep, alloc.p, 0.0))


def test_run_frame_all_silent_all_zero():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=5)
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    pf = PFState.initial(dep.n_ms)
    metrics = run_frame(dep, _silent_scheme(), pf, budget, frame_cfg)
    assert metrics.cell_bits.sum() == 0
    assert metrics.ingress_w.sum() == 0
    assert metrics.egress_w.sum() == 0
    assert metrics.ms_bits.sum() == 0
    assert np.all(metrics.ingress_db == 0.0)


def test_run_frame_isolated_cell_matches_shannon_rate():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=5)
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    pf = PFState.initial(dep.n_ms)
    inner = make_scheme("nr_density", budget)
    scheme = Scheme(name="only0", schedule=_OnlyCellZero(inner.schedule), check=lambda *args: None)
    metrics = run_frame(dep, scheme, pf, budget, frame_cfg)
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
        * frame_cfg.frame_duration_s
    )
    assert metrics.ms_bits[ms] == pytest.approx(expected_bits, rel=1e-12)
    # neighbors hear exactly gain * power
    assert metrics.ingress_w[1] == pytest.approx(
        float(dep.gain_matrix[ms, 1] * metrics.ms_power_w[ms]), rel=1e-9
    )


def test_run_frame_two_cell_hand_ingress():
    # two hand-placed cells, one MS each; ingress equals the cross gains
    gain = np.array([[2e-6, 3e-9], [4e-9, 1e-6]])
    dep = Deployment(
        bs_positions=np.zeros((2, 2)),
        ms_positions=np.zeros((2, 2)),
        serving_map=np.array([0, 1]),
        gain_matrix=gain,
        wrap=False,
    )
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    pf = PFState.initial(2)
    scheme = make_scheme("nr_density", budget)
    metrics = run_frame(dep, scheme, pf, budget, frame_cfg)
    I = budget.linear_budget
    p0 = I / dep.norm_interference[0]
    p1 = I / dep.norm_interference[1]
    assert metrics.ms_power_w == pytest.approx([p0, p1], rel=1e-12)
    assert metrics.ingress_w[0] == pytest.approx(gain[1, 0] * p1, rel=1e-12)
    assert metrics.ingress_w[1] == pytest.approx(gain[0, 1] * p0, rel=1e-12)
    assert metrics.egress_w[0] == pytest.approx(I, rel=1e-12)


def test_run_frame_scheme_constraints_asserted():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=2), PathLossParams(), seed=2)
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    pf = PFState.initial(dep.n_ms)
    bad = Scheme(
        name="nr",
        schedule=lambda cells, w, e, l, cap: FrameAllocation(x=np.ones(len(w)), p=np.ones(len(w))),
        check=make_scheme("nr", budget).check,
    )
    with pytest.raises(AssertionError):
        run_frame(dep, bad, pf, budget, frame_cfg)


def test_run_frame_empty_cell_stays_silent():
    # BS 1 serves nobody: it schedules nothing and only hears interference
    gain = np.array([[2e-6, 1e-9, 3e-9], [1e-9, 2e-9, 1e-6]])
    dep = Deployment(
        bs_positions=np.zeros((3, 2)),
        ms_positions=np.zeros((2, 2)),
        serving_map=np.array([0, 2]),
        gain_matrix=gain,
        wrap=False,
    )
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    for name in ("nr", "nr_density", "nr_density_capped"):
        metrics = run_frame(dep, make_scheme(name, budget), PFState.initial(2), budget, frame_cfg)
        assert metrics.egress_w[1] == 0.0 and metrics.cell_bits[1] == 0.0
        assert metrics.ingress_w[1] > 0.0
        assert (metrics.ms_power_w > 0).all()


def test_run_frame_validates_weights_and_max_power():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=2), PathLossParams(), seed=2)
    frame_cfg, channel = _frame_cfg()
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    scheme = make_scheme("nr_density", budget)
    for t_avg in (np.nan, -1.0):
        with pytest.raises(ValueError, match="t_avg"):
            PFState(t_avg=np.full(dep.n_ms, t_avg))
        pf = PFState(t_avg=np.ones(dep.n_ms), beta=0.9)
        object.__setattr__(pf, "t_avg", np.full(dep.n_ms, t_avg))
        with pytest.raises(ValueError, match="weights"):
            run_frame(dep, scheme, pf, budget, frame_cfg)
    with pytest.raises(ValueError, match="max_power"):
        run_frame(dep, scheme, PFState.initial(dep.n_ms), budget, frame_cfg, max_power=0.0)


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
    loud = FrameAllocation(x=np.array([1.0, 0.0, 1.0]), p=np.array([1.5, 0.0, 2.0]))
    plain(cells, loud, l, cap)
    with pytest.raises(AssertionError, match="max power"):
        capped(cells, loud, l, cap)
    wide = FrameAllocation(x=np.array([0.6, 0.5, 1.0]), p=np.array([1.0, 0.5, 2.0]))
    with pytest.raises(AssertionError, match="overcommitted"):
        plain(cells, wide, l, cap)
    negative = FrameAllocation(x=np.array([0.5, 0.5, 1.0]), p=np.array([1.0, -0.5, 2.0]))
    with pytest.raises(AssertionError, match="negative"):
        plain(cells, negative, l, cap)


# ---------------------------------------------------------------------------
# proportional fairness


def test_update_pf_zero_bits_keeps_weights():
    state = PFState.initial(4, beta=0.9, t0=2.0)
    after = update_pf(state, np.zeros(4))
    assert np.array_equal(after.t_avg, state.t_avg)
    assert np.array_equal(after.weights(), state.weights())


def test_update_pf_beta_one_freezes_weights():
    state = PFState.initial(3, beta=1.0)
    after = update_pf(state, np.array([10.0, 0.0, 5.0]))
    assert np.array_equal(after.weights(), state.weights())


def test_update_pf_accumulates():
    state = PFState.initial(2, beta=0.9, t0=1.0)
    after = update_pf(state, np.array([100.0, 0.0]))
    assert after.t_avg[0] == pytest.approx(1.0 + 0.1 * 100.0)
    assert after.t_avg[1] == 1.0


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
    state = PFState.initial(bundle.n_ms, beta=0.9, t0=1.0)
    for t in range(bundle.n_frames):
        state = update_pf(state, bundle.ms_bits[t])
    weights = state.weights()
    order = np.argsort(totals)
    assert weights[order[0]] == weights.max()
    served = totals > 0
    if (~served).any():
        assert weights[~served].min() > weights[served].max()
    # and the ratio against the start moved in the unserved user's favor
    start = PFState.initial(bundle.n_ms, beta=0.9, t0=1.0).weights()
    rel_start = start[order[0]] / start[order[-1]]
    rel_end = weights[order[0]] / weights[order[-1]]
    assert rel_end > rel_start


def test_quantize_redistributes_power_of_zeroed_users():
    from noiserise.simnet import _quantize_cell

    l = [4.0, 1.0]
    uncapped = [np.inf, np.inf]
    # user 0 holds less than half a unit of band, so 48-unit rounding
    # zeroes it and its egress share moves to user 1
    x, p = [0.005, 0.995], [0.25, 1.0]
    egress_before = 4.0 * 0.25 + 1.0 * 1.0
    xq, pq = _quantize_cell(x, p, l, uncapped, 48)
    assert xq[0] == 0.0 and pq[0] == 0.0
    assert xq[1] == pytest.approx(48 / 48)
    egress_after = 1.0 * pq[1]
    assert egress_after == pytest.approx(egress_before, rel=1e-12)
    # a max_power cap on the survivor clamps the redistribution
    _, clamped = _quantize_cell(x, p, l, [np.inf, 1.2], 48)
    assert clamped[1] == pytest.approx(1.2)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_even_split():
    assert quantize_allocation([0.5, 0.5], 48) == [24, 24]


def test_quantize_full_band():
    assert quantize_allocation([1.0], 48) == [48]


def test_quantize_largest_remainder_error_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        x = rng.dirichlet(np.ones(m))
        units = quantize_allocation(list(x), 48)
        assert sum(units) <= 48
        for xi, u in zip(x, units):
            assert abs(u / 48 - xi) <= 1.0 / 48 + 1e-12


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quantize_allocation([0.5], 0)
    with pytest.raises(ValueError):
        quantize_allocation([-0.1], 8)
    with pytest.raises(ValueError):
        quantize_allocation([0.7, 0.7], 8)


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


def test_default_run_every_nr_allocation_certified(monkeypatch):
    from noiserise import simnet

    allocations = []
    make = simnet.make_scheme

    def recording_scheme(*args, **kwargs):
        scheme = make(*args, **kwargs)

        def schedule(*frame):
            alloc = scheme.schedule(*frame)
            allocations.append(alloc)
            return alloc

        return Scheme(scheme.name, schedule, scheme.check)

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
        {"max_power_w": math.nan},
    ):
        with pytest.raises(ValueError):
            SchemeConfig(**kwargs)
    with pytest.raises(ValueError):
        make_scheme("fixed", 1.0)
    with pytest.raises(ValueError):
        make_scheme("target_sinr", 1.0)


# ---------------------------------------------------------------------------
# array frame loop against the per-cell reference loop


def _schemes(name, budget, channel):
    planned = channel.noise_power_w + budget.linear_budget
    kwargs = {"fixed_power": 0.1, "target_sinr": 10.0, "assumed_noise_plus_interference": planned}
    return make_scheme(name, budget, **kwargs), reference_schedule(
        name, budget, fixed_power=0.1, target_sinr=10.0)


@pytest.mark.parametrize("max_power", [None, 0.02, 5.0], ids=["uncapped", "all_capped", "cascade"])
@pytest.mark.parametrize("quantize", [None, 12], ids=["continuous", "quantized"])
@pytest.mark.parametrize("wrap", [True, False], ids=["torus", "plain"])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_run_frame_matches_per_cell_reference(name, wrap, quantize, max_power):
    # 0.02 W caps every user (the cascade spreads leftover band); at 5 W
    # some users are capped and one per cell takes the band that is left
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=6, wrap=wrap), PathLossParams(), seed=11)
    channel = ChannelConfig()
    frame_cfg = FrameConfig(bandwidth_hz=channel.bandwidth_hz, n0_w_per_hz=channel.n0_w_per_hz,
                            quantize_units=quantize)
    budget = noise_rise_budget_from_db(5.0, channel.n0_w_per_hz, channel.bandwidth_hz)
    scheme, reference = _schemes(name, budget, channel)
    shares = []

    def schedule(*frame):
        shares.append(scheme.schedule(*frame))
        return shares[-1]

    recording = Scheme(name, schedule, scheme.check)
    pf = PFState.initial(dep.n_ms)
    for _ in range(6):
        got = run_frame(dep, recording, pf, budget, frame_cfg, max_power=max_power)
        want, want_x = reference_run_frame(dep, reference, pf, budget, frame_cfg, max_power=max_power)
        # both loops see the same weights, so the schedules are the same floats
        if quantize is None:
            assert np.array_equal(shares[-1].x, want_x)
        assert np.array_equal(got.ms_power_w, want.ms_power_w)
        for field in ("ms_bits", "cell_bits", "ingress_w", "ingress_db", "egress_w"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-12, atol=0,
                                       err_msg=field)
        pf = update_pf(pf, got.ms_bits)
