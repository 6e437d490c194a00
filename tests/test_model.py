import contextlib
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from noiserise.cli import main
from noiserise.model import (
    Allocation,
    Cells,
    NoiseRiseBudget,
    UserLink,
    budget_watts,
    noise_rise_budget_from_db,
    normalized_interference,
)
from noiserise.simnet import (
    DeploymentConfig,
    PathLossParams,
    build_deployment,
    make_scheme,
    schedule_density,
    solve_dual,
)
from noiserise.solver import solve_joint

from oracles import cell_members, egress_interference, ingress_interference, shannon_rate


def test_shannon_rate_unit_case():
    assert shannon_rate(1.0, 1.0, 1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_shannon_rate_zero_allocation():
    assert shannon_rate(0.0, 0.0, 5.0, 1.0) == 0.0
    # holding power without bandwidth still delivers nothing
    assert shannon_rate(0.0, 3.0, 5.0, 1.0) == 0.0


def test_shannon_rate_reference_point():
    # direct evaluation at the known two-user optimum; cross-checked
    # against the grid oracle in the solver tests
    value = shannon_rate(0.667419, 0.315038, 16.25, 1.0)
    assert value == pytest.approx(1.4415678910872585, abs=1e-9)


def test_shannon_rate_rejects_nan():
    with pytest.raises(ValueError):
        shannon_rate(float("nan"), 1.0, 1.0)
    with pytest.raises(ValueError):
        shannon_rate(0.5, float("nan"), 1.0)


def test_shannon_rate_scales_with_bandwidth():
    one = shannon_rate(0.5, 2.0, 3.0, 1.0)
    assert shannon_rate(0.5, 2.0, 3.0, 1e7) == pytest.approx(one * 1e7, rel=1e-12)


def test_shannon_rate_concavity_midpoint():
    rng = np.random.default_rng(11)
    for _ in range(300):
        e = rng.uniform(0.1, 20.0)
        xa, xb = rng.uniform(0.01, 1.0, size=2)
        pa, pb = rng.uniform(0.0, 5.0, size=2)
        mid = shannon_rate(0.5 * (xa + xb), 0.5 * (pa + pb), e)
        avg = 0.5 * (shannon_rate(xa, pa, e) + shannon_rate(xb, pb, e))
        assert mid >= avg - 1e-12


def test_normalized_interference_ratio():
    assert normalized_interference(0.01, 10.0) == pytest.approx(0.001, rel=1e-12)


def test_normalized_interference_identity():
    for gain in (1e-9, 0.5, 7.0):
        assert normalized_interference(gain, 1.0) == gain


def test_normalized_interference_rejects_nonpositive():
    with pytest.raises(ValueError):
        normalized_interference(0.0, 1.0)
    with pytest.raises(ValueError):
        normalized_interference(1.0, -2.0)


@pytest.mark.parametrize("gain, sir", [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf),
                                       (1e-200, 1e200), (1e300, 1e-300)])
def test_normalized_interference_rejects_non_finite(gain, sir):
    # (1, inf) would give l = 0 and (inf, 2) l = inf, which UserLink
    # refuses; so would the quotients that underflow or overflow
    with pytest.raises(ValueError, match="must be positive and finite"):
        normalized_interference(gain, sir)


def test_normalized_interference_matches_gain_sum():
    # downlink SIR built from the same geometry must reproduce the direct
    # non-serving gain sum through reciprocity
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=4), PathLossParams(), seed=5)
    for ms in range(dep.n_ms):
        serving = dep.serving_gain[ms]
        others = dep.gain_matrix[ms].sum() - serving
        sir_dl = serving / others
        est = normalized_interference(serving, sir_dl)
        assert est == pytest.approx(others, rel=1e-12)
        assert est == pytest.approx(dep.norm_interference[ms], rel=1e-12)


def test_egress_interference_direct_sum():
    assert egress_interference([1.0, 1.0], [4.0, 1.0]) == pytest.approx(5.0)
    assert egress_interference([0.0, 0.0, 0.0], [3.0, 2.0, 9.0]) == 0.0


def test_egress_interference_matches_double_loop():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.0, 2.0, size=12)
    gains = rng.uniform(1e-6, 1e-3, size=(12, 8))
    serving = rng.integers(0, 8, size=12)
    l = [float(gains[i].sum() - gains[i, serving[i]]) for i in range(12)]
    # brute force over every (ms, other-bs) pair
    expected = 0.0
    for i in range(12):
        for k in range(8):
            if k != serving[i]:
                expected += gains[i, k] * p[i]
    assert egress_interference(list(p), l) == pytest.approx(expected, rel=1e-12)


def test_egress_interference_linearity():
    rng = np.random.default_rng(4)
    p = list(rng.uniform(0.0, 3.0, size=9))
    l = list(rng.uniform(0.1, 2.0, size=9))
    assert egress_interference([2 * v for v in p], l) == pytest.approx(
        2.0 * egress_interference(p, l), rel=1e-15
    )


def test_egress_interference_length_mismatch():
    with pytest.raises(ValueError):
        egress_interference([1.0], [1.0, 2.0])


def _zero_alloc(n):
    return Allocation(x=[0.0] * n, p=[0.0] * n)


def test_ingress_single_active_cell_excludes_own():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=9)
    allocations = [_zero_alloc(len(cell_members(dep, k))) for k in range(dep.n_bs)]
    members0 = cell_members(dep, 0)
    alloc0 = Allocation(x=[1.0] + [0.0] * (len(members0) - 1), p=[2.0] + [0.0] * (len(members0) - 1))
    allocations[0] = alloc0
    assert ingress_interference(dep, allocations, 0) == 0.0
    # the neighbor hears exactly gain * power
    expected = float(dep.gain_matrix[members0[0], 1]) * 2.0
    assert ingress_interference(dep, allocations, 1) == pytest.approx(expected, rel=1e-12)


def test_ingress_unknown_bs():
    dep = build_deployment(DeploymentConfig(rings=1, ms_per_cell=3), PathLossParams(), seed=9)
    with pytest.raises(ValueError, match="unknown BS id 7"):
        ingress_interference(dep, [_zero_alloc(len(cell_members(dep, k))) for k in range(dep.n_bs)], 7)


def _hand_deployment(gain):
    from noiserise.simnet import Deployment

    return Deployment(serving_map=np.argmax(gain, axis=1), gain_matrix=gain)


def test_ingress_two_cell_symmetry():
    # hand-built two-cell deployment, one transmitter each; swapping the
    # gain matrix transpose swaps the ingress values
    gain = np.array([[1e-6, 2e-8], [3e-8, 1.5e-6]])
    dep = _hand_deployment(gain)
    allocations = [Allocation(x=[1.0], p=[1.5]), Allocation(x=[1.0], p=[0.5])]
    in0 = ingress_interference(dep, allocations, 0)
    in1 = ingress_interference(dep, allocations, 1)
    assert in0 == pytest.approx(3e-8 * 0.5, rel=1e-12)
    assert in1 == pytest.approx(2e-8 * 1.5, rel=1e-12)


def test_budget_doubling_case():
    budget = noise_rise_budget_from_db(3.0103, 1.0, 1.0)
    assert budget.linear_budget == pytest.approx(1.0, abs=1e-4)


def test_budget_ten_db():
    budget = noise_rise_budget_from_db(10.0, 0.5, 2.0)
    assert budget.linear_budget == pytest.approx(9.0, rel=1e-12)


def test_budget_thermal_example():
    budget = noise_rise_budget_from_db(2.0, 4e-21, 1e7)
    assert budget.linear_budget == pytest.approx(2.3395727698444545e-14, rel=1e-9)
    assert budget.target_db == 2.0


def test_budget_rejects_nonpositive_db():
    with pytest.raises(ValueError):
        noise_rise_budget_from_db(0.0, 1e-20, 1e7)
    with pytest.raises(ValueError):
        noise_rise_budget_from_db(-3.0, 1e-20, 1e7)


def test_budget_refuses_a_target_that_underflows_or_overflows():
    # 10**(1e-21) - 1 is 0.0, and 10**500 overflows: each a ValueError
    for target_db in (1e-20, 5000.0):
        with pytest.raises(ValueError, match="linear_budget must be finite and > 0"):
            noise_rise_budget_from_db(target_db, 1e-20, 1e7)


def test_budget_watts_takes_a_budget_or_a_real_number():
    assert budget_watts(NoiseRiseBudget(target_db=3.0, linear_budget=2.5)) == 2.5
    assert budget_watts(3) == 3.0 and budget_watts(np.float64(0.5)) == 0.5


def _budget_callers(tmp_path):
    """The six callers that take one cell's budget, each a function of the
    budget: ``budget_watts``, a ``make_scheme`` scheme bound to one cell,
    ``solve_dual``, ``schedule_density``, ``solve_joint`` and ``noiserise
    solve``, which returns its JSON output or raises ``ValueError`` with
    its error message."""
    link = [UserLink(id=0, weight=1.0, norm_sinr=2.0, norm_interference=1.0)]
    layout = (Cells.single(1), np.array([2.0]), np.ones(1), np.full(1, np.inf))

    def cli_solve(budget):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"budget": budget, "users": [{"weight": 1.0, "norm_sinr": 2.0,
                                                                 "norm_interference": 1.0}]}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["solve", str(path)])
        if rc:
            raise ValueError(err.getvalue())
        return json.loads(out.getvalue())

    return {
        "budget_watts": budget_watts,
        "make_scheme": lambda b: make_scheme("nr", b).bind(*layout)(np.ones(1)).p.tolist(),
        "solve_dual": lambda b: solve_dual(link, b),
        "schedule_density": lambda b: schedule_density(link, b),
        "solve_joint": lambda b: solve_joint(link, b),
        "noiserise_solve": cli_solve,
    }


@pytest.mark.parametrize("budget", [[1.0, 2.0], None, "3", True, [True, True], ["1", "2"]],
                         ids=["list", "none", "string", "bool", "bool_list", "string_list"])
def test_budget_that_is_not_a_real_number_is_a_value_error(budget, tmp_path):
    # every caller of one cell's budget refuses it, naming the value, by
    # the one rule of model._watts; a list of two is two cells' budgets,
    # refused for one cell
    for name, call in _budget_callers(tmp_path).items():
        with pytest.raises(ValueError, match=re.escape(repr(budget))):
            call(budget)
            pytest.fail(f"{name} took {budget!r}")


def test_one_budget_in_a_list_is_one_cells_budget(tmp_path):
    # a sequence of one budget per cell, here of the one cell, is that
    # budget to every caller
    for name, call in _budget_callers(tmp_path).items():
        assert call([2.0]) == call(2.0), name
    assert budget_watts([2.0]) == 2.0 and budget_watts(np.array([0.5])) == 0.5


def test_one_cap_rule_forgives_rounding_alone():
    # solve_joint and the frame check, here of nr (solve_dual) and of a
    # greedy scheme's winners (schedule_density), share model's cap rule:
    # a power 1e-12 relative over its cap is rounding, 1e-6 over is a
    # broken cap, refused naming the user
    link = UserLink(id=0, weight=1.0, norm_sinr=2.0, norm_interference=1.0)
    for call in (solve_joint, solve_dual, schedule_density):
        power = call([link], 2.0).p[0]
        assert call([replace(link, max_power=power / (1.0 + 1e-12))], 2.0).p[0] == power
        with pytest.raises(ValueError, match=re.escape("max power violated by users [0]") + "$"):
            call([replace(link, max_power=power / (1.0 + 1e-6))], 2.0)


def test_noise_rise_budget_validates():
    with pytest.raises(ValueError):
        NoiseRiseBudget(target_db=3.0, linear_budget=0.0)


def test_user_link_validation():
    with pytest.raises(ValueError):
        UserLink(id=0, weight=-1.0, norm_sinr=1.0, norm_interference=1.0)
    with pytest.raises(ValueError):
        UserLink(id=0, weight=1.0, norm_sinr=float("nan"), norm_interference=1.0)
    with pytest.raises(ValueError):
        UserLink(id=0, weight=1.0, norm_sinr=1.0, norm_interference=0.0)
    with pytest.raises(ValueError):
        UserLink(id=0, weight=1.0, norm_sinr=1.0, norm_interference=1.0, max_power=0.0)
    link = UserLink(id="ms-7", weight=0.0, norm_sinr=0.0, norm_interference=1e-12)
    assert link.max_power is None


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation(x=[0.5], p=[1.0, 2.0])
    with pytest.raises(ValueError):
        Allocation(x=[-0.1], p=[0.0])
    with pytest.raises(ValueError):
        Allocation(x=[0.0], p=[1.0])
    Allocation(x=[0.5, 0.0], p=[1.0, 0.0])
