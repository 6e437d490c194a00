import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiserise.model import SolverConfig, UserLink
from noiserise.solver import (
    NoTransmitterError,
    bandwidth_for_multiplier,
    bandwidth_step,
    kkt_residual,
    lambda2_bounds,
    objective,
    power_step,
    solve_dual,
    solve_joint,
)

from oracles import (
    bandwidth_shares_ref,
    find_lambda2_ref,
    grid_search_two_user,
    waterfill_bisect,
)

GOLDEN_LINKS = [
    UserLink(id=0, weight=1.1, norm_sinr=16.25, norm_interference=4.0),
    UserLink(id=1, weight=9.4, norm_sinr=0.1, norm_interference=1.0),
]
GOLDEN_BUDGET = 4.0
GOLDEN_X1, GOLDEN_P1 = 0.667419, 0.315038


def _links(weights, sinrs, interferences):
    return [
        UserLink(id=i, weight=w, norm_sinr=e, norm_interference=l)
        for i, (w, e, l) in enumerate(zip(weights, sinrs, interferences))
    ]


def _random_links(rng, m, lo=0.1, hi=20.0):
    return _links(rng.uniform(lo, hi, m), rng.uniform(lo, hi, m), rng.uniform(lo, hi, m))


# ---------------------------------------------------------------------------
# power step


def test_power_step_single_user():
    res = power_step([1.0], _links([1.0], [1.0], [1.0]), 1.0)
    assert res.lambda1 == pytest.approx(0.5, rel=1e-12)
    assert res.p[0] == pytest.approx(1.0, rel=1e-12)
    assert res.active_set == [0]


def test_power_step_symmetric_pair():
    res = power_step([0.5, 0.5], _links([1, 1], [1, 1], [1, 1]), 1.0)
    assert res.lambda1 == pytest.approx(0.5, rel=1e-12)
    assert res.p == pytest.approx([0.5, 0.5], rel=1e-12)


def test_power_step_budget_spent_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.integers(2, 9)
        links = _random_links(rng, m)
        x = rng.dirichlet(np.ones(m)).tolist()
        budget = float(rng.uniform(0.5, 10.0))
        res = power_step(x, links, budget)
        spent = sum(l.norm_interference * p for l, p in zip(links, res.p))
        assert spent == pytest.approx(budget, rel=1e-9)


def test_power_step_matches_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        links = _random_links(rng, 3)
        x = rng.dirichlet(np.ones(3)).tolist()
        budget = float(rng.uniform(0.5, 10.0))
        res = power_step(x, links, budget)
        w = [u.weight for u in links]
        e = [u.norm_sinr for u in links]
        l = [u.norm_interference for u in links]
        p_ref, _mu = waterfill_bisect(x, w, e, l, budget)
        assert res.p == pytest.approx(p_ref, abs=1e-8)


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
    res = power_step(x, links, budget)
    level = budget + sum(x[j] * l[j] / e[j] for j in range(m))
    expected = [x[i] * (level / l[i] - 1.0 / e[i]) for i in range(m)]
    assert res.p == pytest.approx(expected, rel=1e-12)
    assert len(res.active_set) == m


def test_power_step_water_level_monotone_in_interference():
    # all else equal, a user injecting more interference gets less power
    base = dict(weight=1.0, norm_sinr=4.0)
    for la, lb in [(0.5, 0.7), (0.7, 1.1), (1.1, 2.0)]:
        links = [
            UserLink(id=0, norm_interference=la, **base),
            UserLink(id=1, norm_interference=lb, **base),
        ]
        res = power_step([0.5, 0.5], links, 20.0)
        assert res.p[0] >= res.p[1]


def test_power_step_zero_bandwidth_user_gets_zero_power():
    links = _links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    res = power_step([1.0, 0.0], links, 1.0)
    assert res.p[1] == 0.0
    assert res.active_set == [0]


def test_power_step_no_transmitter():
    links = _links([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(NoTransmitterError):
        power_step([0.5, 0.5], links, 1.0)


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
    links = _links([2.0], [3.0], [1.0])
    res = bandwidth_step([0.7], links)
    assert res.x == [1.0]
    pe = 0.7 * 3.0
    assert res.lambda2 == pytest.approx(2.0 * (pe / (1 + pe) - math.log1p(pe)), rel=1e-12)


def test_bandwidth_step_identical_users_split_evenly():
    links = _links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    res = bandwidth_step([0.7, 0.7], links)
    assert res.x[0] == pytest.approx(0.5, rel=1e-9)
    assert res.x[1] == pytest.approx(0.5, rel=1e-9)


def test_bandwidth_step_matches_reference_root():
    rng = np.random.default_rng(5)
    for _ in range(20):
        links = _random_links(rng, 3)
        p = rng.uniform(0.05, 3.0, 3).tolist()
        res = bandwidth_step(p, links)
        w = [u.weight for u in links]
        e = [u.norm_sinr for u in links]
        root = find_lambda2_ref(p, w, e)
        shares = bandwidth_shares_ref(p, w, e, root)
        assert res.x == pytest.approx(shares, abs=1e-6)
        lo, hi = lambda2_bounds(p, links)
        assert lo - 1e-12 <= res.lambda2 <= hi + 1e-12


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


def test_bandwidth_step_zero_power_user_gets_nothing():
    links = _links([1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    res = bandwidth_step([1.0, 0.0], links)
    assert res.x[1] == 0.0
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


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


# ---------------------------------------------------------------------------
# certification and objective


def test_kkt_residual_small_at_reference_optimum():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    assert kkt_residual(alloc, GOLDEN_LINKS, GOLDEN_BUDGET) <= 1e-4


def test_kkt_residual_decreases_along_trace():
    alloc = solve_joint(GOLDEN_LINKS, GOLDEN_BUDGET)
    residuals = [rec.kkt_residual for rec in alloc.trace]
    assert residuals[0] > residuals[-1]
    assert residuals[-1] <= 1e-6


def test_kkt_residual_at_grid_optimum():
    # the reference instance has an interior optimum, so duals can be
    # implied from stationarity at the grid point
    links = GOLDEN_LINKS
    budget = GOLDEN_BUDGET
    w = [u.weight for u in links]
    e = [u.norm_sinr for u in links]
    l = [u.norm_interference for u in links]
    best, x1, p1 = grid_search_two_user(w, e, l, budget, n=2000)
    x = [x1, 1.0 - x1]
    p = [p1, (budget - l[0] * p1) / l[1]]
    lam1 = np.mean([w[i] * x[i] * e[i] / (x[i] + p[i] * e[i]) / l[i] for i in range(2)])
    gap = lambda a: math.log1p(a) - a / (1.0 + a)
    lam2 = -np.mean([w[i] * gap(p[i] * e[i] / x[i]) for i in range(2)])
    from noiserise.model import Allocation

    alloc = Allocation(x=x, p=p, lambda1=float(lam1), lambda2=float(lam2))
    assert kkt_residual(alloc, links, budget) <= 1e-2


def test_kkt_residual_requires_duals():
    from noiserise.model import Allocation

    alloc = Allocation(x=[1.0], p=[1.0])
    with pytest.raises(ValueError):
        kkt_residual(alloc, _links([1.0], [1.0], [1.0]), 1.0)


def test_objective_values():
    links = _links([2.0], [1.0], [1.0])
    assert objective([1.0], [1.0], links) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    links2 = _links([1.0, 3.0], [1.0, 2.0], [1.0, 1.0])
    assert objective([0.0, 0.5], [0.0, 0.0], links2) == 0.0


def test_objective_matches_grid_at_reference():
    w = [u.weight for u in GOLDEN_LINKS]
    e = [u.norm_sinr for u in GOLDEN_LINKS]
    l = [u.norm_interference for u in GOLDEN_LINKS]
    best, _, _ = grid_search_two_user(w, e, l, GOLDEN_BUDGET, n=2000)
    value = objective([GOLDEN_X1, 1 - GOLDEN_X1], [GOLDEN_P1, 4 - 4 * GOLDEN_P1], GOLDEN_LINKS)
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
