import math
import re
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noiserise import simnet, solver
from noiserise.model import Cells, SolverConfig, UserLink, link_arrays
from noiserise.simnet import (
    SimConfig,
    run_simulation,
    schedule_density,
    schedule_density_capped,
    schedule_fixed_power,
    schedule_target_sinr,
    solve_dual,
)
from noiserise.solver import (
    _FLAT,
    DualRun,
    NoTransmitterError,
    _bandwidth_step,
    _objective,
    _power_step,
    _walk,
    solve_joint,
)

from oracles import (
    _envelope,
    _kkt_residual,
    bandwidth_for_multiplier,
    bandwidth_shares_ref,
    dual_optimum,
    find_lambda2_ref,
    grid_search_two_user,
    lambda2_bounds,
    reference_walk,
    waterfill_bisect,
)

GOLDEN_LINKS = [
    UserLink(id=0, weight=1.1, norm_sinr=16.25, norm_interference=4.0),
    UserLink(id=1, weight=9.4, norm_sinr=0.1, norm_interference=1.0),
]
GOLDEN_BUDGET = 4.0
GOLDEN_X1, GOLDEN_P1 = 0.667419, 0.315037


def _links(weights, sinrs, interferences):
    return [
        UserLink(id=i, weight=w, norm_sinr=e, norm_interference=l)
        for i, (w, e, l) in enumerate(zip(weights, sinrs, interferences))
    ]


def _random_links(rng, m, lo=0.1, hi=20.0):
    return _links(rng.uniform(lo, hi, m), rng.uniform(lo, hi, m), rng.uniform(lo, hi, m))


def _wel(links):
    """Per-user ``w, e, l`` lists, as solve_joint reads them."""
    return [a.tolist() for a in link_arrays(links)[:3]]


def _active(p):
    """The users the power step lets transmit."""
    return [i for i, v in enumerate(p) if v > 0.0]


TOL_BANDWIDTH = SolverConfig().tol_bandwidth


# ---------------------------------------------------------------------------
# power step


def test_power_step_single_user():
    p, lambda1 = _power_step([1.0], *_wel(_links([1.0], [1.0], [1.0])), 1.0)
    assert lambda1 == pytest.approx(0.5, rel=1e-12)
    assert p[0] == pytest.approx(1.0, rel=1e-12)
    assert _active(p) == [0]


def test_power_step_symmetric_pair():
    p, lambda1 = _power_step([0.5, 0.5], *_wel(_links([1, 1], [1, 1], [1, 1])), 1.0)
    assert lambda1 == pytest.approx(0.5, rel=1e-12)
    assert p == pytest.approx([0.5, 0.5], rel=1e-12)


def test_power_step_budget_spent_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(2, 9)
        links = _random_links(rng, m)
        x = rng.dirichlet(np.ones(m)).tolist()
        budget = float(rng.uniform(0.5, 10.0))
        p, _ = _power_step(x, *_wel(links), budget)
        spent = sum(u.norm_interference * pi for u, pi in zip(links, p))
        assert spent == pytest.approx(budget, rel=1e-9)


def test_power_step_matches_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        links = _random_links(rng, 3)
        x = rng.dirichlet(np.ones(3)).tolist()
        budget = float(rng.uniform(0.5, 10.0))
        w, e, l = _wel(links)
        p, _ = _power_step(x, w, e, l, budget)
        p_ref, _mu = waterfill_bisect(x, w, e, l, budget)
        assert p == pytest.approx(p_ref, abs=1e-8)


def test_power_step_remark_closed_form():
    # unit weights, feasible x summing to one, budget large enough that
    # everyone transmits: the water-level closed form applies
    rng = np.random.default_rng(2)
    m = 5
    e = rng.uniform(5.0, 10.0, m)
    l = rng.uniform(0.5, 1.0, m)
    x = [1.0 / m] * m
    budget = 50.0
    links = _links(np.ones(m), e, l)
    p, _ = _power_step(x, *_wel(links), budget)
    level = budget + sum(x[j] * l[j] / e[j] for j in range(m))
    expected = [x[i] * (level / l[i] - 1.0 / e[i]) for i in range(m)]
    assert p == pytest.approx(expected, rel=1e-12)
    assert len(_active(p)) == m


def test_power_step_water_level_monotone_in_interference():
    # all else equal, a user injecting more interference gets less power
    base = dict(weight=1.0, norm_sinr=4.0)
    for la, lb in [(0.5, 0.7), (0.7, 1.1), (1.1, 2.0)]:
        links = [
            UserLink(id=0, norm_interference=la, **base),
            UserLink(id=1, norm_interference=lb, **base),
        ]
        p, _ = _power_step([0.5, 0.5], *_wel(links), 20.0)
        assert p[0] >= p[1]


def test_power_step_zero_bandwidth_user_gets_zero_power():
    links = _links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    p, _ = _power_step([1.0, 0.0], *_wel(links), 1.0)
    assert p[1] == 0.0
    assert _active(p) == [0]


def test_power_step_no_transmitter():
    links = _links([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(NoTransmitterError):
        _power_step([0.5, 0.5], *_wel(links), 1.0)


# ---------------------------------------------------------------------------
# bandwidth multiplier bounds


def test_lambda2_bounds_single_user_coincide():
    links = _links([1.0], [1.0], [1.0])
    lo, hi = lambda2_bounds([1.0], links)
    expected = 0.5 - math.log(2.0)
    assert lo == pytest.approx(expected, rel=1e-12)
    assert hi == pytest.approx(expected, rel=1e-12)


def test_lambda2_bounds_sign_and_order():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.integers(1, 8)
        links = _random_links(rng, m)
        p = rng.uniform(0.0, 3.0, m).tolist()
        if not any(pi * u.norm_sinr > 0 for pi, u in zip(p, links)):
            continue
        lo, hi = lambda2_bounds(p, links)
        assert lo <= hi <= 0.0


def test_lambda2_bounds_contain_reference_root():
    rng = np.random.default_rng(4)
    for _ in range(20):
        links = _random_links(rng, 3)
        p = rng.uniform(0.05, 3.0, 3).tolist()
        lo, hi = lambda2_bounds(p, links)
        w = [u.weight for u in links]
        e = [u.norm_sinr for u in links]
        root = find_lambda2_ref(p, w, e)
        assert lo - 1e-12 <= root <= hi + 1e-12


def test_lambda2_bounds_need_received_power():
    links = _links([1.0], [0.0], [1.0])
    with pytest.raises(NoTransmitterError):
        lambda2_bounds([1.0], links)


# ---------------------------------------------------------------------------
# bandwidth step


def test_bandwidth_step_single_user_takes_band():
    w, e, _ = _wel(_links([2.0], [3.0], [1.0]))
    x, lambda2 = _bandwidth_step([0.7], w, e, TOL_BANDWIDTH)
    assert x == [1.0]
    pe = 0.7 * 3.0
    assert lambda2 == pytest.approx(2.0 * (pe / (1 + pe) - math.log1p(pe)), rel=1e-12)


def test_bandwidth_step_identical_users_split_evenly():
    w, e, _ = _wel(_links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]))
    x, _ = _bandwidth_step([0.7, 0.7], w, e, TOL_BANDWIDTH)
    assert x[0] == pytest.approx(0.5, rel=1e-9)
    assert x[1] == pytest.approx(0.5, rel=1e-9)


def test_bandwidth_step_matches_reference_root():
    rng = np.random.default_rng(5)
    for _ in range(20):
        links = _random_links(rng, 3)
        p = rng.uniform(0.05, 3.0, 3).tolist()
        w, e, _ = _wel(links)
        x, lambda2 = _bandwidth_step(p, w, e, TOL_BANDWIDTH)
        root = find_lambda2_ref(p, w, e)
        shares = bandwidth_shares_ref(p, w, e, root)
        assert x == pytest.approx(shares, abs=1e-6)
        lo, hi = lambda2_bounds(p, links)
        assert lo - 1e-12 <= lambda2 <= hi + 1e-12


def test_bandwidth_share_sum_monotone_in_multiplier():
    rng = np.random.default_rng(6)
    for _ in range(10):
        links = _random_links(rng, 3)
        p = rng.uniform(0.05, 3.0, 3).tolist()
        lo, hi = lambda2_bounds(p, links)
        lams = np.linspace(lo, hi, 100)
        sums = [sum(bandwidth_for_multiplier(p, links, lam)) for lam in lams]
        for a, b in zip(sums, sums[1:]):
            assert b >= a - 1e-12


def test_bandwidth_for_multiplier_outside_the_bracket():
    # users 0 and 1 receive power; user 2 has no SINR and user 3 no power
    links = _links([1.0, 2.0, 1.0, 1.0], [1.0, 3.0, 0.0, 2.0], [1.0] * 4)
    p = [0.5, 0.2, 1.0, 0.0]
    # a free band: every user with received power wants all of it
    assert bandwidth_for_multiplier(p, links, 0.0) == [math.inf, math.inf, 0.0, 0.0]
    # -lambda2/w = 1e4 is past the saturation point: the share underflows
    assert bandwidth_for_multiplier([0.5], _links([1.0], [1.0], [1.0]), -1e4) == [0.0]
    with pytest.raises(ValueError):
        bandwidth_for_multiplier(p, links, 1e-3)


def test_bandwidth_step_zero_power_user_gets_nothing():
    w, e, _ = _wel(_links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]))
    x, _ = _bandwidth_step([1.0, 0.0], w, e, TOL_BANDWIDTH)
    assert x[1] == 0.0
    assert x[0] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# joint solve


def test_solve_joint_reference_two_user():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    assert alloc.x[0] == pytest.approx(GOLDEN_X1, abs=1e-4)
    assert alloc.p[0] == pytest.approx(GOLDEN_P1, abs=1e-4)
    assert alloc.x[1] == pytest.approx(1.0 - GOLDEN_X1, abs=1e-4)
    assert alloc.p[1] == pytest.approx((4.0 - 4.0 * GOLDEN_P1) / 1.0, abs=1e-3)
    assert alloc.iterations <= 20
    assert alloc.converged and alloc.certified


def test_solve_joint_single_user():
    alloc = solve_joint([UserLink(id=0, weight=2.0, norm_sinr=3.0, norm_interference=0.5)], 2.0)
    assert alloc.x == [1.0]
    assert alloc.p[0] == pytest.approx(4.0, rel=1e-12)


def test_solve_joint_matches_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        links = _random_links(rng, 2)
        budget = float(rng.uniform(0.5, 10.0))
        alloc = solve_joint(links, budget)
        w = [u.weight for u in links]
        e = [u.norm_sinr for u in links]
        l = [u.norm_interference for u in links]
        best, _, _ = grid_search_two_user(w, e, l, budget, n=2000)
        assert alloc.objective >= best - 1e-3 * abs(best)


def test_solve_joint_feasible_every_iteration():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    # the trace carries the per-iteration residual, whose band and budget
    # blocks cover feasibility; final allocation checked directly
    assert sum(alloc.x) == pytest.approx(1.0, abs=1e-9)
    spent = sum(u.norm_interference * p for u, p in zip(GOLDEN_LINKS, alloc.p))
    assert spent == pytest.approx(GOLDEN_BUDGET, rel=1e-9)
    assert all(x >= 0 for x in alloc.x)
    assert all(p >= 0 for p in alloc.p)


def test_solve_joint_objective_monotone():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 11))
        links = _random_links(rng, m)
        budget = float(rng.uniform(0.5, 10.0))
        alloc = solve_joint(links, budget)
        objs = [rec.objective for rec in alloc.trace]
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-10


def test_solve_joint_lambda2_within_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = int(rng.integers(2, 11))
        links = _random_links(rng, m)
        alloc = solve_joint(links, float(rng.uniform(0.5, 10.0)))
        lo, hi = lambda2_bounds(alloc.p, links)
        assert lo - 1e-9 <= alloc.lambda2 <= hi + 1e-9


def test_solve_joint_weight_scale_covariance():
    rng = np.random.default_rng(10)
    links = _random_links(rng, 4)
    budget = 3.0
    base = solve_joint(links, budget)
    for c in (0.25, 7.0):
        scaled_links = [
            UserLink(id=u.id, weight=c * u.weight, norm_sinr=u.norm_sinr,
                     norm_interference=u.norm_interference)
            for u in links
        ]
        scaled = solve_joint(scaled_links, budget)
        assert scaled.x == pytest.approx(base.x, abs=1e-6)
        assert scaled.p == pytest.approx(base.p, abs=1e-6)
        assert scaled.objective == pytest.approx(c * base.objective, rel=1e-6)


def test_solve_joint_degenerate_user_excluded():
    links = [
        UserLink(id=0, weight=0.0, norm_sinr=5.0, norm_interference=1.0),
        UserLink(id=1, weight=1.0, norm_sinr=0.0, norm_interference=1.0),
        UserLink(id=2, weight=1.0, norm_sinr=5.0, norm_interference=1.0),
    ]
    alloc = solve_joint(links, 2.0)
    assert alloc.x[0] == 0.0 and alloc.p[0] == 0.0
    assert alloc.x[1] == 0.0 and alloc.p[1] == 0.0
    assert alloc.x[2] == pytest.approx(1.0, abs=1e-9)


def test_solve_joint_all_degenerate_raises():
    links = _links([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(NoTransmitterError):
        solve_joint(links, 1.0)


def test_solve_joint_uncertified_flagged_not_silent():
    # one iteration cannot converge; the result must say so
    cfg = SolverConfig(max_iterations=1)
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET, cfg)
    assert alloc.converged is False
    assert alloc.certified is False
    assert alloc.kkt_residual > cfg.tol_kkt


def test_solve_joint_accepts_noise_rise_budget_object():
    from noiserise.model import noise_rise_budget_from_db

    budget = noise_rise_budget_from_db(6.0206, 1.0, 1.0)  # I very close to 3
    alloc = solve_joint(GOLDEN_LINKS, budget)
    assert alloc.certified


def test_solve_joint_refuses_a_binding_power_cap():
    # the golden optimum transmits p = (0.315, 2.74)
    for caps in ((0.01, 0.01), (0.3, None), (None, 2.7)):
        links = [replace(u, max_power=c) for u, c in zip(GOLDEN_LINKS, caps)]
        with pytest.raises(ValueError, match="max power violated"):
            solve_joint(links, GOLDEN_BUDGET)
    # caps that do not bind leave the uncapped optimum as it is
    loose = [replace(u, max_power=c) for u, c in zip(GOLDEN_LINKS, (0.32, 10.0))]
    assert solve_joint(loose, GOLDEN_BUDGET) == solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)


def test_per_cell_functions_refuse_a_broken_power_cap():
    # the golden instance with both users capped at 0.01 W: the uncapped
    # schedulers would transmit p = (0.315, 2.74), (0, 4) and (0.5, 0); the
    # scheme's frame check refuses each, naming the mobiles over their cap,
    # and the per-cell call raises its message as a ValueError
    capped = [replace(u, max_power=0.01) for u in GOLDEN_LINKS]
    for schedule, over in ((lambda: solve_dual(capped, GOLDEN_BUDGET), "[0, 1]"),
                           (lambda: schedule_density(capped, GOLDEN_BUDGET), "[1]"),
                           (lambda: schedule_fixed_power(capped, 0.5), "[0]")):
        with pytest.raises(ValueError, match=re.escape(f"max power violated by users {over}") + "$"):
            schedule()
    # the schedulers that clamp at the cap are unaffected
    for alloc in (schedule_density_capped(capped, GOLDEN_BUDGET), schedule_target_sinr(capped, 4.0)):
        assert 0.0 < max(alloc.p) <= 0.01


# ---------------------------------------------------------------------------
# certification and objective


def test_kkt_residual_small_at_reference_optimum():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    residual = _kkt_residual(alloc.x, alloc.p, alloc.lambda1, alloc.lambda2,
                             *_wel(GOLDEN_LINKS), GOLDEN_BUDGET)
    assert residual <= 1e-4
    # the solver certifies with the array residual of a frame's cells,
    # which agrees with the scalar one to rounding
    assert abs(alloc.kkt_residual - residual) <= 1e-14


def test_kkt_residual_decreases_along_trace():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    residuals = [rec.kkt_residual for rec in alloc.trace]
    assert residuals[0] > residuals[-1]
    assert residuals[-1] <= 1e-6


def test_kkt_residual_at_grid_optimum():
    # the reference instance has an interior optimum, so duals can be
    # implied from stationarity at the grid point
    budget = GOLDEN_BUDGET
    w, e, l = _wel(GOLDEN_LINKS)
    best, x1, p1 = grid_search_two_user(w, e, l, budget, n=2000)
    x = [x1, 1.0 - x1]
    p = [p1, (budget - l[0] * p1) / l[1]]
    lam1 = np.mean([w[i] * x[i] * e[i] / (x[i] + p[i] * e[i]) / l[i] for i in range(2)])
    gap = lambda a: math.log1p(a) - a / (1.0 + a)
    lam2 = -np.mean([w[i] * gap(p[i] * e[i] / x[i]) for i in range(2)])
    assert _kkt_residual(x, p, float(lam1), float(lam2), w, e, l, budget) <= 1e-2


def test_objective_values():
    w, e, _ = _wel(_links([2.0], [1.0], [1.0]))
    assert _objective([1.0], [1.0], w, e) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    w2, e2, _ = _wel(_links([1.0, 3.0], [1.0, 2.0], [1.0, 1.0]))
    assert _objective([0.0, 0.5], [0.0, 0.0], w2, e2) == 0.0


def test_objective_matches_grid_at_reference():
    w, e, l = _wel(GOLDEN_LINKS)
    best, _, _ = grid_search_two_user(w, e, l, GOLDEN_BUDGET, n=2000)
    value = _objective([GOLDEN_X1, 1 - GOLDEN_X1], [GOLDEN_P1, 4 - 4 * GOLDEN_P1], w, e)
    assert value == pytest.approx(best, abs=1e-3)


# ---------------------------------------------------------------------------
# exact dual solve

LONG = SolverConfig(max_iterations=20000)


def _spent(links, alloc):
    return sum(u.norm_interference * p for u, p in zip(links, alloc.p))


def _dual_value(links, budget, lam):
    """g(lam) = lam*I + max_i w_i (ln r_i - 1 + 1/r_i), r_i = w_i e_i / (lam l_i):
    an upper bound on the optimum for every lam > 0 (weak duality)."""
    best = 0.0
    for u in links:
        if u.weight > 0 and u.norm_sinr > 0:
            a = u.weight * u.norm_sinr / (lam * u.norm_interference) - 1.0
            if a > 0:
                best = max(best, u.weight * (math.log1p(a) - a / (1.0 + a)))
    return lam * budget + best


def test_solve_dual_reference_two_user():
    alloc = solve_dual(GOLDEN_LINKS, GOLDEN_BUDGET)
    assert alloc.x == pytest.approx([0.6674185, 0.3325815], abs=1e-7)
    assert alloc.p[0] == pytest.approx(GOLDEN_P1, abs=1e-6)
    assert alloc.certified and alloc.converged and alloc.trace is None
    assert alloc.kkt_residual <= 1e-12
    joint = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    assert alloc.objective == pytest.approx(joint.objective, rel=1e-12)
    assert alloc.lambda1 == pytest.approx(joint.lambda1, rel=1e-9)
    assert alloc.lambda2 == pytest.approx(joint.lambda2, rel=1e-9)


def test_solve_dual_single_user_takes_band_at_budget():
    link = UserLink(id=0, weight=2.0, norm_sinr=3.0, norm_interference=0.5)
    alloc = solve_dual([link], 2.0)
    assert alloc.x == [1.0]
    assert alloc.p == [4.0]
    assert alloc.lambda1 == pytest.approx(2.0 / (2.0 + 0.5 / 3.0), rel=1e-15)
    assert alloc.certified


def test_solve_dual_degenerate_users_excluded():
    links = [
        UserLink(id=0, weight=0.0, norm_sinr=5.0, norm_interference=1.0),
        UserLink(id=1, weight=1.0, norm_sinr=0.0, norm_interference=1.0),
        UserLink(id=2, weight=1.0, norm_sinr=5.0, norm_interference=1.0),
    ]
    alloc = solve_dual(links, 2.0)
    assert alloc.x == [0.0, 0.0, 1.0]
    assert alloc.p == [0.0, 0.0, 2.0]
    with pytest.raises(NoTransmitterError):
        solve_dual(_links([0.0, 0.0], [1.0, 1.0], [1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        solve_dual([], 1.0)


def test_solve_dual_matches_solve_joint_on_uniform_instances():
    # the criterion-3 generator: uniform draws from [0.1, 20]
    rng = np.random.default_rng(77)
    for _ in range(200):
        links = _random_links(rng, int(rng.integers(2, 11)))
        budget = float(rng.uniform(0.5, 10.0))
        alloc = solve_dual(links, budget)
        joint = solve_joint(links, budget, LONG)
        assert alloc.certified and joint.certified
        assert alloc.objective == pytest.approx(joint.objective, rel=1e-9)
        assert alloc.converged


def test_solve_dual_identical_users_lowest_index_takes_band():
    # three or more users tied on the envelope: identical users all spend
    # the budget at the same price, and the tie rule hands the whole band
    # to the lowest index among them
    links = _links([1.5] * 4, [2.0] * 4, [0.5] * 4)
    alloc = solve_dual(links, 3.0)
    assert alloc.x == [1.0, 0.0, 0.0, 0.0]
    assert alloc.p == [6.0, 0.0, 0.0, 0.0]
    assert alloc.certified
    joint = solve_joint(links, 3.0)
    assert joint.x == pytest.approx([0.25] * 4)
    assert alloc.objective == pytest.approx(1.5 * math.log(13.0), rel=1e-15)
    assert alloc.objective == pytest.approx(joint.objective, rel=1e-9)


def test_solve_dual_duplicated_user_tie_goes_to_lowest_index():
    # the golden optimum mixes two users; a copy of user 0 appended at
    # index 2 ties with it everywhere, and the lower index keeps the share
    links = GOLDEN_LINKS + [
        UserLink(id=2, weight=1.1, norm_sinr=16.25, norm_interference=4.0)
    ]
    alloc = solve_dual(links, GOLDEN_BUDGET)
    assert alloc.x[0] == pytest.approx(0.6674185, abs=1e-7)
    assert alloc.x[2] == 0.0 and alloc.p[2] == 0.0
    assert alloc.certified
    joint = solve_joint(links, GOLDEN_BUDGET)
    assert alloc.objective == pytest.approx(joint.objective, rel=1e-9)


# a cell of the default simulation (frame 6, cell 17) on which the default
# alternating solve stalls uncertified at x = (5e-4, 0.9995); the optimum is
# x = (0.086, 0.914) and alternation needs about 400 iterations to reach it
STALLED_BUDGET = 2.7221462937408145e-13
STALLED_CELL = [
    (0.0001299073485670229, 0.6451292893366949, 9.392873346670657e-14),
    (0.0006065653975203864, 0.1481381635751598, 1.4046960618720302e-13),
    (0.0002487868233841415, 0.3441610207342786, 1.0618524560918655e-13),
    (0.00014167742325854412, 0.6085985726678793, 9.506041320549942e-14),
    (0.0001889719604618734, 0.24809589165087073, 1.3294031920716402e-13),
]


def test_solve_dual_certified_where_default_solve_joint_stalls():
    links = _links(*zip(*STALLED_CELL))
    stalled = solve_joint(links, STALLED_BUDGET)
    assert not stalled.certified
    alloc = solve_dual(links, STALLED_BUDGET)
    assert alloc.certified and alloc.kkt_residual <= 1e-12
    assert alloc.x[1:3] == pytest.approx([0.0864, 0.9136], abs=1e-4)
    reference = solve_joint(links, STALLED_BUDGET, LONG)
    assert reference.certified
    assert alloc.objective == pytest.approx(reference.objective, rel=1e-12)
    assert alloc.objective > stalled.objective
    gap = _dual_value(links, STALLED_BUDGET, alloc.lambda1) - alloc.objective
    assert abs(gap) <= 1e-12 * alloc.objective


# the simulator's regime: gains of 1e-15..1e-11 against budgets of the same
# order, normalized SINRs of 1e-3..10, PF weights spanning six decades; each
# drawn log-uniformly so that every decade is exercised
def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda t: 10.0**t)


@st.composite
def simulator_cells(draw):
    m = draw(st.integers(1, 15))
    weights = draw(st.lists(_decades(-6, 0), min_size=m, max_size=m))
    sinrs = draw(st.lists(_decades(-3, 1), min_size=m, max_size=m))
    gains = draw(st.lists(_decades(-15, -11), min_size=m, max_size=m))
    return _links(weights, sinrs, gains), draw(_decades(-15, -11))


@st.composite
def planted_cells(draw):
    """A simulator cell with one or two copies of one of its users
    appended, each exact or with its weight moved by one ulp: the ties
    that simulator draws never make, where a walk's tie handling shows."""
    links, budget = draw(simulator_cells())
    user = draw(st.sampled_from(links))
    weights = st.sampled_from([user.weight, math.nextafter(user.weight, math.inf),
                               math.nextafter(user.weight, 0.0)])
    return links + [replace(user, id=i, weight=draw(weights))
                    for i in range(len(links), len(links) + draw(st.integers(1, 2)))], budget


@settings(max_examples=300, deadline=None)
@given(simulator_cells())
def test_property_solve_dual_certified_feasible_and_zero_gap(cell):
    links, budget = cell
    alloc = solve_dual(links, budget)
    assert alloc.certified
    assert sum(alloc.x) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= x <= 1.0 for x in alloc.x)
    assert _spent(links, alloc) == pytest.approx(budget, rel=1e-9)
    assert _spent(links, alloc) <= budget * (1.0 + 1e-9)
    # a zero duality gap proves global optimality on its own
    gap = _dual_value(links, budget, alloc.lambda1) - alloc.objective
    assert abs(gap) <= 1e-9 * alloc.objective


@settings(max_examples=100, deadline=None)
@given(simulator_cells())
# a lone transmitter with I e / l near 1e-7, where p = x (w/(lam l) - 1/e)
# cancels to a power 1.2e-9 over the budget
@example(cell=(_links([0.1], [10.0**-2.875], [1e-11]), 10.0**-14.9375))
def test_property_solve_dual_matches_long_solve_joint(cell):
    # solve_joint's objective is feasible, so at most the optimum, and its
    # own multiplier bounds the optimum from above; the exact optimum must
    # land in that bracket.  When the bracket is narrower than 1e-9 (the
    # usual case) this is agreement within 1e-9; near-ties between users
    # widen it, because alternation certifies (KKT residual <= 1e-6) a
    # split that is up to ~5e-8 below the optimum there, and can still be
    # uncertified after 20000 iterations.
    links, budget = cell
    alloc = solve_dual(links, budget)
    joint = solve_joint(links, budget, LONG)
    assert alloc.objective >= joint.objective * (1.0 - 1e-9)
    assert alloc.objective <= _dual_value(links, budget, joint.lambda1) * (1.0 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(simulator_cells(), _decades(-3, 3))
def test_property_solve_dual_gain_and_budget_scale_together(cell, c):
    # l and I in the same unit: scaling both changes nothing
    links, budget = cell
    base = solve_dual(links, budget)
    scaled_links = [
        UserLink(id=u.id, weight=u.weight, norm_sinr=u.norm_sinr,
                 norm_interference=c * u.norm_interference)
        for u in links
    ]
    scaled = solve_dual(scaled_links, c * budget)
    assert scaled.x == pytest.approx(base.x, rel=1e-9, abs=1e-12)
    assert scaled.p == pytest.approx(base.p, rel=1e-9, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(simulator_cells(), _decades(-3, 3))
def test_property_solve_dual_sinr_against_budget_scale(cell, c):
    # e up by c and I down by c: the same shares at powers down by c
    links, budget = cell
    base = solve_dual(links, budget)
    scaled_links = [
        UserLink(id=u.id, weight=u.weight, norm_sinr=c * u.norm_sinr,
                 norm_interference=u.norm_interference)
        for u in links
    ]
    scaled = solve_dual(scaled_links, budget / c)
    assert scaled.x == pytest.approx(base.x, rel=1e-9, abs=1e-12)
    assert [c * p for p in scaled.p] == pytest.approx(base.p, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# frame-level dual solve against the reference walk


def _frame_solve(cells, w, e, l, budget):
    """The frame solve of every cell of ``cells`` under weights ``w``, by
    a fresh binding, as a run binds it."""
    return DualRun(cells, e, l, budget).solve(w)


class _RecordingDualRun(DualRun):
    """A run's :class:`DualRun`, which records each frame's inputs
    ``(cells, w, e, l, budget)``, with one budget per cell, and its
    allocation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = []

    def solve(self, w):
        alloc = super().solve(w)
        self.frames.append(((self.cells, w, self.e, self.l, self.budget), alloc))
        return alloc


def _nr_runs(cfg):
    """The :class:`_RecordingDualRun` of the run of ``cfg``, one config or
    a batch, one per binding."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(_RecordingDualRun(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "DualRun", recording)
        run_simulation(cfg)
    return runs


def _nr_frames(cfg):
    """Every frame's frame-solve inputs ``(cells, w, e, l, budget)`` in the
    run of ``cfg``, one config or a batch, with one budget per cell."""
    return [frame for run in _nr_runs(cfg) for frame, _ in run.frames]


@pytest.fixture(scope="module")
def default_run_frames():
    """The default run's 80 frame schedule inputs ``(cells, w, e, l)`` and
    its budget."""
    cfg = SimConfig()
    frames = [frame[:4] for frame in _nr_frames(cfg)]
    assert len(frames) == 80
    return frames, cfg.budget().linear_budget


def _cells_of(cells, *arrays):
    for k in range(cells.n_cells):
        ms = cells.index[k, cells.valid[k]]
        yield k, ms, [a[ms].tolist() for a in arrays]


def _assert_frame_solve_matches_reference_walk(frames):
    """Solve each frame and check every cell against the reference walk;
    returns the number of cells solved."""
    solved = 0
    for cells, w, e, l, budget in frames:
        sol = _frame_solve(cells, w, e, l, budget)
        budgets = np.broadcast_to(budget, (cells.n_cells,)).tolist()
        for k, ms, (wk, ek, lk) in _cells_of(cells, w, e, l):
            I = budgets[k]
            x, p, *_ = dual_optimum(wk, ek, lk, I)
            xk, pk = sol.x[ms].tolist(), sol.p[ms].tolist()
            assert _objective(xk, pk, wk, ek) == pytest.approx(_objective(x, p, wk, ek), rel=1e-12)
            # the array certification agrees with the scalar residual to the
            # rounding of the O(1)..O(10) terms it is built from
            scalar = _kkt_residual(xk, pk, sol.lambda1[k], sol.lambda2[k], wk, ek, lk, I)
            assert abs(sol.kkt_residual[k] - scalar) <= 1e-14
            assert sol.converged[k] and 1 <= sol.probes[k] <= 4
            solved += 1
    return solved


def test_frame_solve_matches_reference_walk_on_default_run(default_run_frames):
    frames, budget = default_run_frames
    assert _assert_frame_solve_matches_reference_walk(
        [(cells, w, e, l, budget) for cells, w, e, l in frames]) == 1520


_DEFAULT = SimConfig()
_GRID72 = replace(_DEFAULT, deployment=replace(_DEFAULT.deployment, layout="grid", ms_total=722))
_BATCH4 = [replace(_DEFAULT, scheme=replace(_DEFAULT.scheme, noise_rise_db=db))
           for db in (2.0, 5.0, 7.0, 10.0)]


@pytest.mark.parametrize("cfg, cells", [(_GRID72, 72), (_BATCH4, 4 * 19)], ids=["grid72", "batch4"])
def test_frame_solve_matches_reference_walk_on_wide_frames(cfg, cells):
    # the 72-cell grid, and a batch of four runs at their own budgets,
    # 76 cells per frame
    frames = _nr_frames(cfg)
    assert len(frames) == 80 and all(frame[0].n_cells == cells for frame in frames)
    assert _assert_frame_solve_matches_reference_walk(frames) == 80 * cells


def test_frame_solve_takes_the_default_runs_walk_path(default_run_frames):
    # the walk's path, not only where it lands: a rewrite that probes
    # elsewhere changes these counts even where its allocations agree
    frames, budget = default_run_frames
    probes = np.zeros(5, dtype=int)
    kinks = 0
    for cells, w, e, l in frames:
        sol = _frame_solve(cells, w, e, l, budget)
        probes += np.bincount(sol.probes, minlength=5)
        kinks += int(sol.kinks.sum())
    assert probes.tolist() == [0, 1150, 315, 54, 1]
    assert kinks == 1615


def _assert_settled_cells_are_the_walks(frames):
    """Check that every cell the seed pass settles gets exactly what the
    walk returns from that cell's bracket; returns the number settled."""
    settled = 0
    for cells, w, e, l, budget in frames:
        sol = _frame_solve(cells, w, e, l, budget)
        lo, a, hi, b, start, own = (seed.tolist() for seed in _seeds(cells, w, e, l, budget))
        budgets = np.broadcast_to(budget, (cells.n_cells,)).tolist()
        for k, ms, (wk, ek, lk) in _cells_of(cells, w, e, l):
            if own[k] < 0:
                continue
            I = budgets[k]
            rk = [wi * ei / li for wi, ei, li in zip(wk, ek, lk)]
            bk = [li / ei for ei, li in zip(ek, lk)]
            sk = [wi / (I + bi) for wi, bi in zip(wk, bk)]
            walk = _walk(wk, rk, bk, sk, lk, I, lo[k], a[k], hi[k], b[k], start[k])
            xk = [0.0] * len(ms)
            pk = [0.0] * len(ms)
            for user, share, power in zip(*walk[5:]):
                xk[user], pk[user] = share, power
            assert walk[0] == start[k] and walk[2:6] == (1, 0, True, (own[k],))
            assert (sol.lambda1[k], sol.lambda2[k], sol.probes[k], sol.kinks[k], sol.converged[k]) == walk[:5]
            assert sol.x[ms].tolist() == xk and sol.p[ms].tolist() == pk
            settled += 1
    return settled


def test_settled_cells_are_the_walks_on_default_run(default_run_frames):
    frames, budget = default_run_frames
    assert _assert_settled_cells_are_the_walks(
        [(cells, w, e, l, budget) for cells, w, e, l in frames]) == 331


@pytest.mark.parametrize("cfg, settled", [(_GRID72, 1256), (_BATCH4, 1320)], ids=["grid72", "batch4"])
def test_settled_cells_are_the_walks_on_wide_frames(cfg, settled):
    assert _assert_settled_cells_are_the_walks(_nr_frames(cfg)) == settled


def test_a_start_topped_by_another_user_is_walked():
    # both users' minimisers are 1.0, so the start is user 0's, but user 1
    # tops the envelope there alone and spends the budget: the seed pass
    # leaves the cell to the walk, which gives user 1 the band
    w, e, l = np.array([4.0, 2.0]), np.ones(2), np.array([3.0, 1.0])
    cells = Cells.single(2)
    *_, start, own = _seeds(cells, w, e, l, 1.0)
    assert start.tolist() == [1.0] and own.tolist() == [-1]
    sol = _frame_solve(cells, w, e, l, 1.0)
    assert sol.x.tolist() == [0.0, 1.0] and sol.p.tolist() == [0.0, 1.0]
    assert (sol.lambda1[0], sol.probes[0], sol.kinks[0]) == (1.0, 1, 0)


def test_a_start_on_a_tie_is_walked():
    # two identical users tie everywhere, so no candidate is alone: the
    # walk settles the tie, to the lowest index
    w, e, l = np.array([2.0, 2.0]), np.ones(2), np.ones(2)
    cells = Cells.single(2)
    *_, start, own = _seeds(cells, w, e, l, 1.0)
    assert start.tolist() == [1.0] and own.tolist() == [-1]
    sol = _frame_solve(cells, w, e, l, 1.0)
    assert sol.x.tolist() == [1.0, 0.0] and sol.p.tolist() == [1.0, 0.0]


def _walk_calls(solve):
    """The arguments of every ``solver._walk`` call that ``solve()`` makes."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _walk(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_walk", recording)
        solve()
    return calls


def _assert_walks_are_the_reference_walks(calls):
    """Check that each recorded walk returns, repr for repr, what the
    reference walk returns; returns the reference walks' tie-set sizes,
    one per probe, counted."""
    ties = []
    for args in calls:
        assert repr(_walk(*args)) == repr(reference_walk(*args, ties=ties))
    return Counter(ties)


@pytest.mark.parametrize("cfg, ties", [
    (_DEFAULT, {1: 426, 2: 1189}),
    (_GRID72, {1: 1576, 2: 4504}),
    (_BATCH4, {1: 1756, 2: 4760}),
], ids=["default", "grid72", "batch4"])
def test_frame_walks_are_the_reference_walks(cfg, ties):
    # every walk of a run's frame solves, bit for bit; each starts at the
    # kink of its bracket ends' top users, the tie sets its probes meet
    # hold one user or two, and a pair ends every walk
    calls = _walk_calls(lambda: run_simulation(cfg))
    counted = _assert_walks_are_the_reference_walks(calls)
    assert counted == ties and counted[2] == len(calls)
    for *_, lo, a, hi, b, lam in calls:
        assert -math.inf < lo < hi < math.inf and a != b and lam == math.inf


@settings(max_examples=300, deadline=None)
@given(simulator_cells())
def test_property_walk_is_the_reference_walk(cell):
    links, budget = cell
    _assert_walks_are_the_reference_walks(_walk_calls(lambda: solve_dual(links, budget)))


@settings(max_examples=300, deadline=None)
@given(planted_cells())
def test_property_walk_is_the_reference_walk_on_planted_ties(cell):
    links, budget = cell
    _assert_walks_are_the_reference_walks(_walk_calls(lambda: solve_dual(links, budget)))


def test_a_tie_of_four_takes_the_walks_general_branch():
    # three exact copies of the user that takes the band alone: no
    # candidate stands alone, so the cell is walked, every probe meets the
    # four copies tied, and the lowest index keeps the band
    links = [replace(GOLDEN_LINKS[0], id=i) for i in (2, 3, 4)]
    calls = _walk_calls(lambda: solve_dual(GOLDEN_LINKS + links, 1.0))
    assert len(calls) == 1
    assert _assert_walks_are_the_reference_walks(calls) == {4: 2}
    alloc = solve_dual(GOLDEN_LINKS + links, 1.0)
    assert alloc.x == [1.0, 0.0, 0.0, 0.0, 0.0] and alloc.p == [0.25, 0.0, 0.0, 0.0, 0.0]


def _pair_walk(ws, rs, bs, I, lo, a, hi, b, lam):
    """The walk of a hand-built cell from a bracket, checked against the
    reference walk; every power is spent at ``l = 1``."""
    args = (ws, rs, bs, [w / (I + beta) for w, beta in zip(ws, bs)], [1.0] * len(ws), I, lo, a, hi, b, lam)
    walk = _walk(*args)
    assert repr(walk) == repr(reference_walk(*args))
    return walk


def test_a_pairs_verdicts_on_the_slack_edge_are_the_reference_walks():
    # neither user wants power at the probe lam = 1 (r < lam), so their
    # band values tie at 0 and the spends w/lam - l/e alone decide.  The
    # spends 1 + 4e-12 and 2 against I = 1: the slack is judged by the
    # larger weight (8e-12), so user 0 spends the budget and takes the band
    walk = _pair_walk([2.0, 8.0], [0.5, 0.5], [1.0 - 4e-12, 6.0], 1.0, -math.inf, 0, math.inf, 0, 1.0)
    assert walk[2:6] == (1, 0, True, (0,))
    # equal spends of 0.5 over I = 0.25: the lowest index tops the left
    # end, and its own minimiser, the next probe, spends the budget
    walk = _pair_walk([1.0, 2.0], [0.5, 0.9], [0.5, 1.5], 0.25, -math.inf, 0, 2.0, 1, 1.0)
    assert walk[0] == 1.0 / 0.75 and walk[2:6] == (2, 0, True, (0,))


# a walk state that never converges: users 0 and 1 tie at every lam and
# spend 0.1 apart, both under the budget, and user 2 tops the left end;
# the lists are not drawn from consistent w, e, l
_EXHAUSTED = ([2.0, 2.0, 0.5], [8.0, 8.0, 16.0], [0.2, 0.3, 1.0], [1.0, 0.1, 0.1], [1.0, 1.0, 1.0], 0.1,
              0.5, 2, 1.0, 2, math.inf)


def _residual(users, shares, powers, lam1, lam2):
    """The KKT residual of an allocation of the exhausted walk's cell; the
    terms of a broken allocation may divide by 0 or take inf - inf."""
    ws, _, bs, _, ls, I = _EXHAUSTED[:6]
    x, p = np.zeros(3), np.zeros(3)
    x[list(users)], p[list(users)] = shares, powers
    l = np.array(ls)
    with np.errstate(divide="ignore", invalid="ignore"):
        return solver._kkt_residuals(Cells.single(3), x, p, np.array([lam1]), np.array([lam2]),
                                     np.array(ws), l / np.array(bs), l, I)[0]


def test_an_exhausted_walk_ends_on_its_last_finite_probe_and_is_refused():
    # the reference walk ended at lam = inf, with a negative power; the
    # walk now ends on its last probe, after the same probes and kinks
    walk, ended_at_inf = _walk(*_EXHAUSTED), reference_walk(*_EXHAUSTED)
    assert ended_at_inf[0] == math.inf and min(ended_at_inf[7]) < 0.0
    assert _residual(*ended_at_inf[5:], *ended_at_inf[:2]) == math.inf
    assert walk[1:6] == ended_at_inf[1:6]
    lam1, lam2, probes, kinks, converged, users, shares, powers = walk
    assert (probes, kinks, converged) == (solver._MAX_PROBES, solver._MAX_PROBES - 1, False)
    assert 0.5 < lam1 <= 1.0 and math.isfinite(lam2)
    assert min(powers) >= 0.0
    assert _residual(users, shares, powers, lam1, lam2) > SolverConfig().tol_kkt


@pytest.mark.parametrize("lam1, lam2, powers", [
    (math.inf, -2.4, (-0.2, -0.0)),  # what the walk returned when it ended at lam = inf
    (math.inf, -2.4, (0.05, 0.0)),
    (1.0, math.nan, (0.05, 0.0)),
    (math.nan, -2.4, (0.05, 0.0)),
    (1.0, -2.4, (-0.2, 0.0)),
    (1.0, -2.4, (math.nan, 0.0)),
], ids=["inf_price_negative_power", "inf_lambda1", "nan_lambda2", "nan_lambda1", "negative_power", "nan_power"])
def test_a_price_that_is_not_finite_or_a_power_that_is_negative_reads_an_infinite_residual(lam1, lam2, powers):
    assert _residual((0, 1), (1.0, 0.0), powers, lam1, lam2) == math.inf


def _assert_same_frame(got, want):
    for name in ("x", "p", "lambda1", "lambda2", "probes", "kinks", "converged", "kkt_residual"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


@pytest.mark.parametrize("cfg", [_DEFAULT, _GRID72, _BATCH4], ids=["default", "grid72", "batch4"])
def test_run_bound_frame_solve_is_the_per_call_solve(cfg):
    # a run binds its frame solve once, and each of its frames equals the
    # solve of a fresh binding: nothing a frame leaves behind changes the
    # next
    runs = _nr_runs(cfg)
    assert len(runs) == 1 and len(runs[0].frames) == 80
    for (cells, w, e, l, budget), alloc in runs[0].frames:
        _assert_same_frame(alloc, _frame_solve(cells, w, e, l, budget))


def test_run_bound_frame_solve_is_the_per_cell_solve_dual():
    # an empty cell and a budget per cell: a binding serves frames of
    # positive weights, each equal to a fresh binding's solve; every cell's
    # schedule is the one solve_dual gives it alone, and a user of zero
    # weight or SINR added to that call takes no band
    rng = np.random.default_rng(7)
    n = 40
    cell_of = rng.integers(0, 5, n)
    cell_of[cell_of == 3] = 4
    e = 10.0 ** rng.uniform(-3, 1, n)
    l = 10.0 ** rng.uniform(-15, -11, n)
    cells = Cells.from_cell_of(cell_of, 5)
    budget = np.array([3e-13, 1e-13, 5e-13, 2e-13, 4e-13])
    run = DualRun(cells, e, l, budget)
    for frame in range(6):
        w = 10.0 ** rng.uniform(-6, 0, n)
        got = run.solve(w)
        want = _frame_solve(cells, w, e, l, budget)
        assert np.isnan(want.lambda1[3]) and want.probes[3] == 0
        _assert_same_frame(got, want)
        k = cell_of[rng.integers(0, n)]
        ms = cells.index[k, cells.valid[k]]
        links = _links(w[ms].tolist(), e[ms].tolist(), l[ms].tolist())
        at = rng.integers(0, len(ms) + 1, 2)
        links.insert(at[0], UserLink(id=-1, weight=0.0, norm_sinr=1.0, norm_interference=1e-13))
        links.insert(at[1], UserLink(id=-2, weight=1.0, norm_sinr=0.0, norm_interference=1e-13))
        alloc = solve_dual(links, budget[k])
        idle = [i for i, u in enumerate(links) if u.id < 0]
        assert [alloc.x[i] for i in idle] == [alloc.p[i] for i in idle] == [0.0, 0.0]
        kept = [i for i, u in enumerate(links) if u.id >= 0]
        assert got.x[ms].tolist() == [alloc.x[i] for i in kept]
        assert got.p[ms].tolist() == [alloc.p[i] for i in kept]
        assert (got.lambda1[k], got.lambda2[k], got.probes[k]) == (alloc.lambda1, alloc.lambda2, alloc.iterations)


def test_dual_run_refuses_a_user_without_sinr_at_bind():
    # a run's SINRs are positive, so a binding takes every user of its
    # layout and refuses one with e <= 0 (or NaN) before any frame
    cells = Cells.from_cell_of([0, 1, 1, 0], 2)
    l = np.ones(4)
    for bad in (0.0, -1.0, np.nan):
        e = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(NoTransmitterError, match=re.escape("users [2] have no positive SINR")):
            DualRun(cells, e, l, 1.0)
    assert DualRun(cells, np.array([1.0, 2.0, 0.5, 3.0]), l, 1.0).counts == [2, 2]


def _seeds(cells, w, e, l, budget):
    """The seed pass of a frame: per cell ``lo, a, hi, b, start`` and the
    settled user (-1 if none)."""
    run = DualRun(cells, e, l, budget)
    return run.seed(*run.rows_of(w))


def _assert_seeds_are_the_walks_verdicts(cells, w, e, l, budget):
    # every bracket end the array pass proposes is one the scalar envelope
    # of the reference walk classifies the same way, with the same top
    # user, and every cell it settles is one where the reference envelope
    # at the start is topped by the start's own user alone, spending the
    # budget to within the walk's slack
    lo, a, hi, b, start, own = _seeds(cells, w, e, l, budget)
    for k, _, (wk, ek, lk) in _cells_of(cells, w, e, l):
        users = range(len(wk))
        rk = [wi * ei / li for wi, ei, li in zip(wk, ek, lk)]
        bk = [li / ei for ei, li in zip(ek, lk)]
        for lam, user, sign in ((lo[k], a[k], 1.0), (hi[k], b[k], -1.0)):
            if not np.isfinite(lam):
                continue
            _, spend = _envelope(lam, users, wk, rk, bk, budget)
            assert list(spend) == [user]
            assert sign * (spend[user] - budget) > _FLAT * wk[user] / lam
        assert lo[k] < hi[k] and (np.isinf(start[k]) or lo[k] < start[k] < hi[k])
        user = own[k]
        if user >= 0:
            assert start[k] == wk[user] / (budget + bk[user])
            _, spend = _envelope(start[k], users, wk, rk, bk, budget)
            assert list(spend) == [user]
            assert abs(spend[user] - budget) <= _FLAT * wk[user] / start[k]


def test_seed_brackets_are_the_walks_verdicts_on_default_run(default_run_frames):
    frames, budget = default_run_frames
    for cells, w, e, l in frames:
        _assert_seeds_are_the_walks_verdicts(cells, w, e, l, budget)


@settings(max_examples=300, deadline=None)
@given(simulator_cells())
def test_property_seed_brackets_are_the_walks_verdicts(cell):
    links, budget = cell
    w, e, l, _ = link_arrays(links)
    _assert_seeds_are_the_walks_verdicts(Cells.single(len(links)), w, e, l, budget)


@settings(max_examples=300, deadline=None)
@given(planted_cells())
def test_property_seed_brackets_are_the_walks_verdicts_on_planted_ties(cell):
    links, budget = cell
    w, e, l, _ = link_arrays(links)
    _assert_seeds_are_the_walks_verdicts(Cells.single(len(links)), w, e, l, budget)


@settings(max_examples=300, deadline=None)
@given(simulator_cells())
def test_property_solve_dual_matches_reference_walk(cell):
    links, budget = cell
    alloc = solve_dual(links, budget)
    w, e, l = (a.tolist() for a in link_arrays(links)[:3])
    x, p, *_ = dual_optimum(w, e, l, budget)
    assert alloc.objective == pytest.approx(_objective(x, p, w, e), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(simulator_cells(), st.data())
def test_property_solve_dual_is_the_solve_of_its_transmitting_links(cell, data):
    # users of zero weight or SINR take no band and no power, and the others
    # get, bit for bit, what solve_dual gives them alone
    links, budget = cell
    rare = st.lists(st.sampled_from([False, False, False, True]), min_size=len(links), max_size=len(links))
    links = [replace(u, weight=0.0 if zero_w else u.weight, norm_sinr=0.0 if zero_e else u.norm_sinr)
             for u, zero_w, zero_e in zip(links, data.draw(rare), data.draw(rare))]
    on = [u.weight > 0.0 and u.norm_sinr > 0.0 for u in links]
    if not any(on):
        with pytest.raises(NoTransmitterError, match="^no user with positive weight and SINR$"):
            solve_dual(links, budget)
        return
    got = asdict(solve_dual(links, budget))
    want = asdict(solve_dual([u for u, ok in zip(links, on) if ok], budget))
    for name in ("x", "p"):
        values = iter(want[name])
        want[name] = [next(values) if ok else 0.0 for ok in on]
    assert repr(got) == repr(want)


def test_frame_solve_equals_per_cell_solve_dual():
    # cells of mixed size, one of them empty: every cell's schedule is the
    # one solve_dual gives it alone, and the users of zero weight or SINR
    # that the per-cell calls add, which the frame leaves out, take nothing
    rng = np.random.default_rng(31)
    n = 60
    cell_of = rng.integers(0, 6, n)
    cell_of[cell_of == 4] = 5
    w = 10.0 ** rng.uniform(-6, 0, n)
    e = 10.0 ** rng.uniform(-3, 1, n)
    l = 10.0 ** rng.uniform(-15, -11, n)
    w_call, e_call = w.copy(), e.copy()
    w_call[::7] = 0.0
    e_call[3::11] = 0.0
    on = np.flatnonzero((w_call > 0.0) & (e_call > 0.0))
    budget = 3e-13
    cells = Cells.from_cell_of(cell_of[on], 6)
    sol = _frame_solve(cells, w[on], e[on], l[on], budget)
    x, p = np.zeros(n), np.zeros(n)
    x[on], p[on] = sol.x, sol.p
    for k in range(6):
        ms = np.flatnonzero(cell_of == k)
        if not len(ms):
            assert np.isnan(sol.kkt_residual[k]) and np.isnan(sol.lambda1[k]) and sol.probes[k] == 0
            continue
        alloc = solve_dual(_links(w_call[ms].tolist(), e_call[ms].tolist(), l[ms].tolist()), budget)
        assert x[ms].tolist() == alloc.x and p[ms].tolist() == alloc.p
        assert (sol.lambda1[k], sol.lambda2[k]) == (alloc.lambda1, alloc.lambda2)
        assert sol.probes[k] == alloc.iterations
        assert abs(sol.kkt_residual[k] - alloc.kkt_residual) <= 1e-14
    assert len(on) < n and cells.n_cells - len(cells.occupied) == 1
    # a cell none of whose users can transmit: solve_dual refuses it, and a
    # binding refuses its users without SINR
    ms = np.flatnonzero(cell_of == 2)
    w_call[ms] = 0.0
    with pytest.raises(NoTransmitterError, match="^no user with positive weight and SINR$"):
        solve_dual(_links(w_call[ms].tolist(), e_call[ms].tolist(), l[ms].tolist()), budget)
    with pytest.raises(NoTransmitterError):
        DualRun(Cells.from_cell_of(cell_of, 6), e_call, l, budget)