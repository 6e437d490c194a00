import math

import numpy as np
import pytest

from noiserise.model import UserLink
from noiserise.simnet import schedule_density, schedule_density_capped
from noiserise.solver import _objective, solve_joint

from oracles import cascade_ref


def _links(weights, sinrs, interferences, caps=None):
    caps = caps if caps is not None else [None] * len(weights)
    return [
        UserLink(id=i, weight=w, norm_sinr=e, norm_interference=l, max_power=c)
        for i, (w, e, l, c) in enumerate(zip(weights, sinrs, interferences, caps))
    ]


REF_LINKS = _links([1.0, 1.0], [16.25, 0.1], [4.0, 1.0])


def test_density_winner_forced_analytically():
    # ln(1 + 4*16.25/4) = ln 17.25 beats ln(1 + 4*0.1/1) = ln 1.4
    alloc = schedule_density(REF_LINKS, 4.0)
    assert alloc.x == [1.0, 0.0]
    assert alloc.p == [1.0, 0.0]
    assert alloc.objective == pytest.approx(math.log(17.25), rel=1e-12)


def test_density_single_user():
    alloc = schedule_density(_links([1.0], [2.0], [0.5]), 3.0)
    assert alloc.x == [1.0]
    assert alloc.p[0] == pytest.approx(6.0, rel=1e-12)


def test_density_construction_invariants():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        links = _links(rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m))
        budget = float(rng.uniform(0.5, 10))
        alloc = schedule_density(links, budget)
        winner = alloc.x.index(1.0)
        spent = sum(u.norm_interference * p for u, p in zip(links, alloc.p))
        assert spent == pytest.approx(budget, rel=1e-12)
        assert links[winner].norm_interference * alloc.p[winner] / alloc.x[winner] == pytest.approx(
            budget, rel=1e-12
        )


def test_density_all_zero_rates_schedules_first():
    links = _links([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    alloc = schedule_density(links, 2.0)
    assert alloc.x == [1.0, 0.0]
    assert alloc.p[0] == pytest.approx(2.0)
    assert alloc.objective == 0.0


def test_density_tie_breaks_to_lowest_index():
    links = _links([1.0, 1.0], [2.0, 2.0], [1.0, 1.0])
    alloc = schedule_density(links, 1.0)
    assert alloc.x == [1.0, 0.0]


def test_density_winner_invariant_under_weight_scaling():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        w = rng.uniform(0.1, 20, m)
        e = rng.uniform(0.1, 20, m)
        l = rng.uniform(0.1, 20, m)
        budget = float(rng.uniform(0.5, 10))
        a = schedule_density(_links(w, e, l), budget)
        b = schedule_density(_links(5.0 * w, e, l), budget)
        assert a.x == b.x


def test_density_never_beats_joint_solver():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        links = _links(rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m))
        budget = float(rng.uniform(0.5, 10))
        greedy = schedule_density(links, budget)
        joint = solve_joint(links, budget)
        assert greedy.objective <= joint.objective + 1e-9 * abs(joint.objective)


def test_density_single_winner_optimal_among_density_splits():
    # under the per-user cap the objective is linear in the split, so no
    # two-user division can beat the winner beyond grid resolution
    rng = np.random.default_rng(3)
    for _ in range(20):
        links = _links(rng.uniform(0.1, 20, 2), rng.uniform(0.1, 20, 2), rng.uniform(0.1, 20, 2))
        budget = float(rng.uniform(0.5, 10))
        winner = schedule_density(links, budget)
        w = [u.weight for u in links]
        e = [u.norm_sinr for u in links]
        best_split = -math.inf
        for x1 in np.linspace(0.0, 1.0, 2001):
            x = [x1, 1.0 - x1]
            p = [xi * budget / u.norm_interference for xi, u in zip(x, links)]
            best_split = max(best_split, _objective(x, p, w, e))
        assert winner.objective >= best_split - 1e-6


# ---------------------------------------------------------------------------
# capped cascade


def test_capped_not_binding_matches_uncapped():
    links = _links([1.0, 1.0], [16.25, 0.1], [4.0, 1.0], caps=[1.0, None])
    alloc = schedule_density_capped(links, 4.0)
    assert alloc.x == [1.0, 0.0]
    assert alloc.p == [1.0, 0.0]


def test_capped_hand_cascade():
    # caps bind for both users: shares at cap are 0.5 and 0.125, and the
    # leftover 0.375 spreads proportionally with powers frozen
    links = _links([1.0, 1.0], [16.25, 0.1], [4.0, 1.0], caps=[0.5, 0.5])
    alloc = schedule_density_capped(links, 4.0)
    assert alloc.x == pytest.approx([0.8, 0.2], rel=1e-12)
    assert alloc.p == pytest.approx([0.5, 0.5], rel=1e-12)


def test_capped_matches_independent_cascade():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        w = rng.uniform(0.1, 20, m)
        e = rng.uniform(0.1, 20, m)
        l = rng.uniform(0.1, 20, m)
        caps = [float(c) if rng.random() < 0.7 else None for c in rng.uniform(0.05, 2.0, m)]
        budget = float(rng.uniform(0.5, 10))
        alloc = schedule_density_capped(_links(w, e, l, caps), budget)
        x_ref, p_ref = cascade_ref(list(w), list(e), list(l), caps, budget)
        assert alloc.x == pytest.approx(x_ref, rel=1e-9, abs=1e-12)
        assert alloc.p == pytest.approx(p_ref, rel=1e-9, abs=1e-12)


def test_capped_single_user_gets_band_at_cap():
    links = _links([1.0], [2.0], [1.0], caps=[0.5])
    alloc = schedule_density_capped(links, 4.0)
    assert alloc.x == [1.0]
    assert alloc.p == [0.5]


def _fuzz_check(alloc, links, budget, eps=1e-9):
    assert all(x >= 0 for x in alloc.x)
    assert all(p >= 0 for p in alloc.p)
    assert sum(alloc.x) <= 1.0 + eps
    spent = sum(u.norm_interference * p for u, p in zip(links, alloc.p))
    assert spent <= budget * (1.0 + eps)
    for u, x, p in zip(links, alloc.x, alloc.p):
        if x > 0:
            assert u.norm_interference * p / x <= budget * (1.0 + eps)
        if u.max_power is not None:
            assert p <= u.max_power * (1.0 + eps)


def test_density_fuzz_safety():
    # the plain scheduler lives in the interference-limited regime (no
    # caps on its links); the capped variant gets a mix of caps
    rng = np.random.default_rng(5)
    for _ in range(1000):
        m = int(rng.integers(1, 10))
        w = rng.uniform(0.0, 20, m)
        e = rng.uniform(0.0, 20, m)
        l = rng.uniform(1e-3, 20, m)
        caps = [float(c) if rng.random() < 0.5 else None for c in rng.uniform(0.01, 3.0, m)]
        budget = float(rng.uniform(0.01, 10))
        plain = _links(w, e, l)
        _fuzz_check(schedule_density(plain, budget), plain, budget)
        capped = _links(w, e, l, caps)
        _fuzz_check(schedule_density_capped(capped, budget), capped, budget)
