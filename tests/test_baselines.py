import math
import re

import numpy as np
import pytest

from noiserise.baselines import CalibrationError, calibrate_fixed_power, calibrate_in_lockstep
from noiserise.model import UserLink
from noiserise.simnet import schedule_fixed_power, schedule_target_sinr


def _links(weights, sinrs, interferences, caps=None):
    caps = caps if caps is not None else [None] * len(weights)
    return [
        UserLink(id=i, weight=w, norm_sinr=e, norm_interference=l, max_power=c)
        for i, (w, e, l, c) in enumerate(zip(weights, sinrs, interferences, caps))
    ]


def test_fixed_power_better_sinr_wins():
    alloc = schedule_fixed_power(_links([1.0, 1.0], [2.0, 1.0], [1.0, 1.0]), 1.0)
    assert alloc.x == [1.0, 0.0]
    assert alloc.p == [1.0, 0.0]


def test_fixed_power_single_user():
    alloc = schedule_fixed_power(_links([3.0], [0.5], [1.0]), 0.25)
    assert alloc.x == [1.0]
    assert alloc.p == [0.25]


def test_fixed_power_weight_scaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 8))
        w = rng.uniform(0.1, 20, m)
        e = rng.uniform(0.1, 20, m)
        l = rng.uniform(0.1, 20, m)
        a = schedule_fixed_power(_links(w, e, l), 2.0)
        b = schedule_fixed_power(_links(3.0 * w, e, l), 2.0)
        assert a.x == b.x


def test_fixed_power_single_winner_full_band():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        links = _links(rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m), rng.uniform(0.1, 20, m))
        alloc = schedule_fixed_power(links, 1.5)
        assert sum(alloc.x) == 1.0
        assert sum(1 for p in alloc.p if p > 0) == 1
        winner = alloc.p.index(1.5)
        egress = sum(u.norm_interference * p for u, p in zip(links, alloc.p))
        assert egress == pytest.approx(links[winner].norm_interference * 1.5, rel=1e-15)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, True, "0.5", "4"])
def test_per_cell_baselines_refuse_a_power_or_target_that_is_not_positive_and_finite(value):
    # an infinite power or target would schedule [inf, 0.0] at objective inf,
    # and 0 < True < inf alone would let a bool through as 1 W or SINR 1;
    # the per-cell calls refuse every such value as make_scheme does, naming it
    links = _links([1.0, 1.0], [2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(f"fixed_power must be one positive finite power, "
                                                   f"or one per cell, got {value!r}")):
        schedule_fixed_power(links, value)
    with pytest.raises(ValueError, match=re.escape(f"positive finite target_sinr, got {value!r}")):
        schedule_target_sinr(links, value)


def test_calibration_zero_reference_errors():
    with pytest.raises(CalibrationError):
        calibrate_fixed_power(lambda p: p, 0.0)


def test_calibration_on_monotone_response():
    # synthetic, deterministic response standing in for a simulation
    response = lambda p: 0.3 * p**1.1
    ref = 2.5
    power = calibrate_fixed_power(response, ref, initial_power=0.01)
    assert abs(response(power) - ref) / ref <= 0.02


def test_calibration_from_above():
    response = lambda p: 4.0 * p
    power = calibrate_fixed_power(response, 0.001, initial_power=100.0)
    assert abs(response(power) - 0.001) / 0.001 <= 0.02


PROBE_SEQUENCES = [
    # from below: x4 expansions, then log-scale bisection
    (lambda p: 0.3 * p**1.1, 2.5, 0.01,
     [0.01, 0.04, 0.16, 0.64, 2.56, 10.24, 5.12, 7.240773439350247, 6.0887404288139315,
      6.639818519813169, 6.933788400316891]),
    # from above: x1/4 expansions, then log-scale bisection
    (lambda p: 4.0 * p, 0.001, 100.0,
     [100.0, 25.0, 6.25, 1.5625, 0.390625, 0.09765625, 0.0244140625, 0.006103515625,
      0.00152587890625, 0.0003814697265625, 9.5367431640625e-05, 0.00019073486328125,
      0.0002697398304697218, 0.00022682325649313377, 0.0002473525151540775]),
]


@pytest.mark.parametrize("response, ref, initial_power, probes", PROBE_SEQUENCES,
                         ids=["from_below", "from_above"])
def test_calibration_probe_sequence(response, ref, initial_power, probes):
    # the exact powers probed; each probe is a calibration simulation, so
    # the sweep's cost and its calibrated powers hang on this sequence
    seen = []

    def probe(power):
        seen.append(power)
        return response(power)

    assert calibrate_fixed_power(probe, ref, initial_power=initial_power) == probes[-1]
    assert seen == probes


def test_lockstep_searches_probe_what_they_probe_alone():
    # the two pinned searches, one that never brackets its reference and
    # one whose reference is 0, advanced together: each probes its own
    # sequence, and the failures leave the others' probes and powers alone
    saturating = lambda p: min(p, 1.0)  # noqa: E731
    cases = [case[:3] for case in PROBE_SEQUENCES] + [(saturating, 50.0, 1.0), (saturating, 0.0, 1.0)]
    seen = [[] for _ in cases]
    rounds = []

    def run_round(powers):
        rounds.append(list(powers))
        for k, power in powers.items():
            seen[k].append(power)
        return [cases[k][0](power) for k, power in powers.items()]

    results = calibrate_in_lockstep(run_round, [c[1] for c in cases], [c[2] for c in cases])
    assert seen[:2] == [case[3] for case in PROBE_SEQUENCES]
    assert results[:2] == [case[3][-1] for case in PROBE_SEQUENCES]
    alone = []
    with pytest.raises(CalibrationError, match="could not bracket") as failure:
        calibrate_fixed_power(lambda p: alone.append(p) or saturating(p), 50.0, 1.0)
    assert seen[2] == alone
    assert isinstance(results[2], CalibrationError) and str(results[2]) == str(failure.value)
    assert seen[3] == [] and isinstance(results[3], CalibrationError)
    assert "must be positive" in str(results[3])
    # each round holds the next probe of every unfinished search, in order
    assert rounds == [[k for k in range(len(cases)) if len(seen[k]) > r]
                      for r in range(max(map(len, seen)))]


def test_calibration_unreachable_reference_errors():
    # saturating response can never reach the reference
    response = lambda p: min(p, 1.0)
    with pytest.raises(CalibrationError):
        calibrate_fixed_power(response, 50.0)


def test_calibration_against_simulation_is_monotone_and_converges():
    # empirical check that mean ingress is nondecreasing in P on a fixed
    # seed before trusting bisection, then the calibration postcondition
    from noiserise.cli import _with_scheme
    from noiserise.simnet import DeploymentConfig, RunConfig, SimConfig, run_simulation

    cfg = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=3),
        run=RunConfig(seed=11, frames=8),
    )

    def mean_ingress(power):
        return run_simulation(
            _with_scheme(cfg, name="fixed", fixed_power_w=power)
        ).mean_ingress_w()

    powers = [0.05, 0.2, 1.0, 5.0]
    values = [mean_ingress(p) for p in powers]
    assert all(b >= a for a, b in zip(values, values[1:]))

    reference = run_simulation(cfg).mean_ingress_w()  # nr scheme
    calibrated = calibrate_fixed_power(mean_ingress, reference)
    assert abs(mean_ingress(calibrated) - reference) / reference <= 0.02


def test_target_sinr_identical_users_lowest_index():
    links = _links([2.0, 2.0], [0.5, 0.5], [1.0, 1.0])
    alloc = schedule_target_sinr(links, 10.0)
    assert alloc.x == [1.0, 0.0]
    assert alloc.p[0] == pytest.approx(10.0 / 0.5, rel=1e-12)


def test_target_sinr_received_equals_target_under_matched_assumption():
    # p * e equals the target exactly when the assumed interference is the
    # one used to normalize e
    links = _links([1.0, 4.0], [0.2, 0.8], [1.0, 1.0])
    target = 3.0
    alloc = schedule_target_sinr(links, target)
    winner = alloc.x.index(1.0)
    assert alloc.p[winner] * links[winner].norm_sinr == pytest.approx(target, rel=1e-12)


def test_target_sinr_respects_max_power():
    links = _links([1.0], [0.1], [1.0], caps=[2.0])
    alloc = schedule_target_sinr(links, 100.0)
    assert alloc.p[0] == 2.0


def test_target_sinr_throughput_spread_below_fixed():
    # qualitative fairness check: with comparable mean power, the
    # target-SINR policy spreads per-MS throughput more evenly than
    # fixed power does
    from noiserise.cli import _with_scheme
    from noiserise.simnet import DeploymentConfig, RunConfig, SimConfig, run_simulation

    base = SimConfig(
        deployment=DeploymentConfig(rings=1, ms_per_cell=4),
        run=RunConfig(seed=4, frames=60),
    )
    fixed_power = 1.0
    fixed = run_simulation(_with_scheme(base, name="fixed", fixed_power_w=fixed_power))
    mean_power_fixed = fixed.ms_power_w[fixed.ms_power_w > 0].mean()

    planned = base.channel.noise_power_w + base.budget().linear_budget
    # pick the target whose mean allocated power matches the fixed scheme
    lo, hi = 1e-3, 1e9
    for _ in range(60):
        target = math.sqrt(lo * hi)
        run = run_simulation(_with_scheme(base, name="target_sinr", target_sinr=target))
        mean_power = run.ms_power_w[run.ms_power_w > 0].mean()
        if abs(mean_power - mean_power_fixed) / mean_power_fixed < 0.05:
            break
        if mean_power < mean_power_fixed:
            lo = target
        else:
            hi = target
    sinr_run = run_simulation(_with_scheme(base, name="target_sinr", target_sinr=target))

    def spread(bundle):
        totals = bundle.ms_bits.sum(axis=0)
        return totals.std() / totals.mean()

    assert spread(sinr_run) < spread(fixed)
