"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from noiserise.cli import main, run_sweep
from noiserise.model import SolverConfig, UserLink
from noiserise.simnet import (
    DeploymentConfig,
    RunConfig,
    SimConfig,
    run_simulation,
    schedule_density,
    schedule_density_capped,
)
from noiserise.solver import solve_joint

from oracles import bandwidth_for_multiplier, grid_search_two_user, lambda2_bounds

GOLDEN = {
    "budget": 4.0,
    "users": [
        {"weight": 1.1, "norm_sinr": 16.25, "norm_interference": 4.0},
        {"weight": 9.4, "norm_sinr": 0.1, "norm_interference": 1.0},
    ],
}
GOLDEN_LINKS = [
    UserLink(id=0, weight=1.1, norm_sinr=16.25, norm_interference=4.0),
    UserLink(id=1, weight=9.4, norm_sinr=0.1, norm_interference=1.0),
]


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def _random_links(rng, m, lo=0.1, hi=20.0):
    return [
        UserLink(
            id=i,
            weight=float(rng.uniform(lo, hi)),
            norm_sinr=float(rng.uniform(lo, hi)),
            norm_interference=float(rng.uniform(lo, hi)),
        )
        for i in range(m)
    ]


def test_criterion_1_golden_vector(tmp_path, capsys):
    instance = tmp_path / "golden.json"
    instance.write_text(json.dumps(GOLDEN))
    rc = main(["solve", str(instance)])
    out = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        err_x = abs(out["x"][0] - 0.667419)
        err_p = abs(out["p"][0] - 0.315038)
        best = min(
            _timed(lambda: solve_joint(GOLDEN_LINKS, 4.0)) for _ in range(200)
        )
        ok = (
            rc == 0
            and err_x <= 1e-4
            and err_p <= 1e-4
            and out["iterations"] <= 20
            and best < 1e-3
        )
        _report(
            1,
            ok,
            f"|dx1|={err_x:.2e} |dp1|={err_p:.2e} iterations={out['iterations']} "
            f"best solve {best * 1e3:.3f} ms",
        )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_grid_oracle_equivalence(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        failures = 0
        for _ in range(50):
            links = _random_links(rng, 2)
            budget = float(rng.uniform(0.5, 10.0))
            alloc = solve_joint(links, budget)
            w = [u.weight for u in links]
            e = [u.norm_sinr for u in links]
            l = [u.norm_interference for u in links]
            best, _, _ = grid_search_two_user(w, e, l, budget, n=2000)
            shortfall = best - alloc.objective
            worst = max(worst, shortfall / abs(best))
            if alloc.objective < best - 1e-3 * abs(best):
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 30.0
        _report(
            2,
            ok,
            f"50 instances, worst relative shortfall {worst:.2e}, "
            f"{failures} below grid, {elapsed:.1f}s",
        )


def test_criterion_3_certification_rate(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(77)
        certified = 0
        flagged = 0
        for _ in range(200):
            m = int(rng.integers(2, 11))
            links = _random_links(rng, m)
            budget = float(rng.uniform(0.5, 10.0))
            alloc = solve_joint(links, budget)
            consistent = alloc.certified == (alloc.kkt_residual <= 1e-6)
            assert consistent, "certification flag must reflect the residual"
            if alloc.certified:
                certified += 1
            else:
                flagged += 1
        ok = certified >= 198  # >= 99% of 200
        _report(3, ok, f"{certified}/200 certified at 1e-6, {flagged} flagged uncertified")


def test_criterion_4_multiplier_properties(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(4100)
        violations = 0
        for _ in range(100):
            m = int(rng.integers(2, 9))
            links = _random_links(rng, m)
            budget = float(rng.uniform(0.5, 10.0))
            alloc = solve_joint(links, budget)
            lo, hi = lambda2_bounds(alloc.p, links)
            if not (lo - 1e-9 <= alloc.lambda2 <= hi + 1e-9):
                violations += 1
            sums = [
                sum(bandwidth_for_multiplier(alloc.p, links, lam))
                for lam in np.linspace(lo, hi, 100)
            ]
            if any(b < a - 1e-12 for a, b in zip(sums, sums[1:])):
                violations += 1
        _report(4, violations == 0, f"100 instances, {violations} violations")


def test_criterion_5_mean_ingress_tracks_budget(capsys):
    with capsys.disabled():
        cfg = SimConfig(
            deployment=DeploymentConfig(rings=2, ms_per_cell=10, wrap=True),
            run=RunConfig(seed=1, frames=200),
        )
        bundle = run_simulation(cfg)
        rel = abs(bundle.mean_ingress_w() - bundle.budget_w) / bundle.budget_w
        _report(5, rel <= 0.05, f"|mean ingress - I|/I = {rel:.2e} over 200 frames x 19 cells")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_5_companion_nr_spreads_ingress_less_than_fixed(seed, capsys):
    # criterion 5 holds by construction for any scheme that spends exactly
    # its budget, because ingress summed over cells equals egress; what a
    # budget controls is the spread.  On the plain layout (no wrap-around,
    # so edge cells see less interference), a fixed-power baseline
    # calibrated to nr's mean ingress must spread the noise rise wider
    with capsys.disabled():
        cfg = SimConfig(deployment=DeploymentConfig(wrap=False), run=RunConfig(seed=seed))
        rows = {r["scheme"]: r for r in run_sweep(cfg, [5.0], ["nr", "fixed"])}
        nr, fixed = rows["nr"]["ingress_std_db"], rows["fixed"]["ingress_std_db"]
        ok = rows["fixed"]["status"] == "ok" and nr < fixed
        _report("5 (companion)", ok,
                f"plain layout, 5 dB, seed {seed}: ingress std {nr:.2f} dB (nr) "
                f"< {fixed:.2f} dB (calibrated fixed)")


def test_criterion_6_sweep_orderings(capsys):
    with capsys.disabled():
        cfg = SimConfig(
            deployment=DeploymentConfig(rings=2, ms_per_cell=10, wrap=True),
            run=RunConfig(seed=1, frames=80),
        )
        start = time.perf_counter()
        rows = run_sweep(cfg, [2.0, 5.0, 7.0, 10.0], ["nr", "nr_density", "fixed"])
        elapsed = time.perf_counter() - start
        by_key = {(r["scheme"], r["nr_db"]): r for r in rows}
        problems = []
        for db in (2.0, 5.0, 7.0, 10.0):
            nr = by_key[("nr", db)]
            nrd = by_key[("nr_density", db)]
            fixed = by_key[("fixed", db)]
            if fixed["status"] != "ok":
                problems.append(f"{db} dB: {fixed['status']}")
                continue
            if not nr["mean_throughput_bits"] > fixed["mean_throughput_bits"]:
                problems.append(f"{db} dB: nr <= fixed throughput")
            if not nr["mean_throughput_bits"] >= nrd["mean_throughput_bits"]:
                problems.append(f"{db} dB: nr < nr_density throughput")
            if not nr["ingress_std_w"] < fixed["ingress_std_w"]:
                problems.append(f"{db} dB: nr std >= fixed std")
            if not nrd["ingress_std_w"] < fixed["ingress_std_w"]:
                problems.append(f"{db} dB: nr_density std >= fixed std")
        ok = not problems and elapsed < 300.0
        _report(
            6,
            ok,
            f"sweep 2/5/7/10 dB in {elapsed:.0f}s"
            + (f"; problems: {problems}" if problems else "; all orderings hold"),
        )


def test_criterion_7_density_fuzz(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(7000)
        eps = 1e-9
        violations = 0
        for _ in range(5000):
            m = int(rng.integers(1, 10))
            budget = float(rng.uniform(0.01, 10.0))
            plain = _random_links(rng, m, lo=1e-3, hi=20.0)
            capped = [
                UserLink(
                    id=u.id,
                    weight=u.weight,
                    norm_sinr=u.norm_sinr,
                    norm_interference=u.norm_interference,
                    max_power=float(rng.uniform(0.01, 3.0)) if rng.random() < 0.6 else None,
                )
                for u in plain
            ]
            for links, alloc in (
                (plain, schedule_density(plain, budget)),
                (capped, schedule_density_capped(capped, budget)),
            ):
                if sum(alloc.x) > 1.0 + eps:
                    violations += 1
                spent = sum(u.norm_interference * p for u, p in zip(links, alloc.p))
                if spent > budget * (1.0 + eps):
                    violations += 1
                for u, x, p in zip(links, alloc.x, alloc.p):
                    if x > 0 and u.norm_interference * p / x > budget * (1.0 + eps):
                        violations += 1
                    if u.max_power is not None and p > u.max_power * (1.0 + eps):
                        violations += 1
        _report(7, violations == 0, f"10000 scheduler calls, {violations} violations")


def test_criterion_8_hundred_user_solve_budget(capsys):
    with capsys.disabled():
        rng = np.random.default_rng(88)
        links = _random_links(rng, 100)
        budget = 5.0
        alloc = solve_joint(links, budget)
        best = min(_timed(lambda: solve_joint(links, budget)) for _ in range(15))
        ok = best < 10e-3 and alloc.certified
        _report(
            8,
            ok,
            f"M=100 solve best {best * 1e3:.2f} ms, certified={alloc.certified}, "
            f"iterations={alloc.iterations}",
        )


def test_criterion_9_quantization_gap(capsys):
    with capsys.disabled():
        base = SimConfig(
            deployment=DeploymentConfig(rings=2, ms_per_cell=10, wrap=True),
            run=RunConfig(seed=1, frames=80),
        )
        quant = replace(base, run=replace(base.run, quantize_units=48))
        continuous = run_simulation(base).cell_bits.sum()
        quantized = run_simulation(quant).cell_bits.sum()
        rel = abs(quantized - continuous) / continuous
        _report(9, rel < 0.05, f"quantized vs continuous total throughput gap {rel:.2%}")
