import math

import numpy as np
import pytest

from noiserise.model import LN2, Allocation, UserLink, noise_rise_budget_from_db, shannon_rate
from noiserise.simnet import (
    ChannelConfig,
    Deployment,
    DeploymentConfig,
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
    with pytest.raises(ValueError):
        build_deployment(DeploymentConfig(rings=1, ms_total=3), PathLossParams(), seed=0)


# ---------------------------------------------------------------------------
# frame loop


def _frame_cfg():
    channel = ChannelConfig()
    return FrameConfig(bandwidth_hz=channel.bandwidth_hz, n0_w_per_hz=channel.n0_w_per_hz), channel


def _silent_scheme():
    return Scheme(
        name="silent",
        schedule=lambda links: Allocation(x=[0.0] * len(links), p=[0.0] * len(links)),
        check=lambda alloc, links: None,
    )


class _OnlyCellZero:
    """Wraps a scheme so only the first scheduled cell transmits; relies on
    run_frame processing cells in index order."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, links):
        index = self.calls
        self.calls += 1
        if index == 0:
            return self.inner(links)
        return Allocation(x=[0.0] * len(links), p=[0.0] * len(links))


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
    scheme = Scheme(name="only0", schedule=_OnlyCellZero(inner.schedule), check=lambda a, b: None)
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
        schedule=lambda links: Allocation(x=[1.0] * len(links), p=[1.0] * len(links)),
        check=make_scheme("nr", budget).check,
    )
    with pytest.raises(AssertionError):
        run_frame(dep, bad, pf, budget, frame_cfg)


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
    from noiserise.simnet import _quantize_alloc

    links = [
        UserLink(id=0, weight=1.0, norm_sinr=2.0, norm_interference=4.0),
        UserLink(id=1, weight=1.0, norm_sinr=1.0, norm_interference=1.0),
    ]
    # user 0 holds less than half a unit of band, so 48-unit rounding
    # zeroes it and its egress share moves to user 1
    alloc = Allocation(x=[0.005, 0.995], p=[0.25, 1.0])
    egress_before = 4.0 * 0.25 + 1.0 * 1.0
    quantized = _quantize_alloc(alloc, links, 48)
    assert quantized.x[0] == 0.0 and quantized.p[0] == 0.0
    assert quantized.x[1] == pytest.approx(48 / 48)
    egress_after = 1.0 * quantized.p[1]
    assert egress_after == pytest.approx(egress_before, rel=1e-12)
    # a max_power cap on the survivor clamps the redistribution
    capped_links = [
        links[0],
        UserLink(id=1, weight=1.0, norm_sinr=1.0, norm_interference=1.0, max_power=1.2),
    ]
    clamped = _quantize_alloc(alloc, capped_links, 48)
    assert clamped.p[1] == pytest.approx(1.2)


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

        def schedule(links):
            alloc = scheme.schedule(links)
            allocations.append(alloc)
            return alloc

        return Scheme(scheme.name, schedule, scheme.check)

    monkeypatch.setattr(simnet, "make_scheme", recording_scheme)
    run_simulation(SimConfig())
    assert len(allocations) == 19 * 80
    uncertified = sum(1 for a in allocations if not a.certified)
    assert uncertified == 0, f"{uncertified} of {len(allocations)} allocations uncertified"


def test_nr_check_rejects_uncertified_allocation():
    check = make_scheme("nr", 1.0).check
    links = [UserLink(id=0, weight=1.0, norm_sinr=1.0, norm_interference=1.0)]
    check(Allocation(x=[1.0], p=[1.0], certified=True, kkt_residual=0.0), links)
    with pytest.raises(AssertionError, match="uncertified"):
        check(Allocation(x=[1.0], p=[1.0], certified=False, kkt_residual=0.1), links)


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
    with pytest.raises(ValueError):
        SchemeConfig(name="bogus")
    with pytest.raises(ValueError):
        make_scheme("fixed", 1.0)
    with pytest.raises(ValueError):
        make_scheme("target_sinr", 1.0)
