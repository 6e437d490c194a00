"""Fast self-test of the benchmark harness on tiny configs.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# appended after each workload's own overrides, so they win
TINY_OVERRIDES = {
    "ring19_nr": ("deployment.rings=1", "run.frames=3"),
    "grid72_density": ("deployment.rows=3", "deployment.cols=3", "deployment.ms_total=40",
                       "run.frames=3"),
    "sweep_density_fixed": ("deployment.rings=1", "run.frames=3"),
}


def tiny(name):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, overrides=workload.overrides + TINY_OVERRIDES[name])


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY_OVERRIDES))
def test_tiny_run_prints_the_declared_metrics(program, name, trace):
    result, info = run.measure(program, tiny(name), seed=1, seconds=0.01, trace=trace)
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert json.loads(json.dumps(result)) == result


def test_host_speed_counts_stretches_in_reference_seconds():
    speed = run.HostSpeed(None)
    r = run.SLICE_ITERS / run.REF_UNIT_ITERS  # a sample's length at reference speed
    # samples of length r, r and 3r with 2 s of program time after the first two:
    # the first stretch runs at reference speed, the second at half of it
    speed.slices = [(0.0, r), (2.0 + r, 2.0 + 2 * r), (4.0 + 2 * r, 4.0 + 5 * r)]
    program_s, ref_s = speed.totals()
    assert program_s == pytest.approx(4.0)
    assert ref_s == pytest.approx(2.0 + 1.0)


def test_traced_counts_cover_every_layer(program):
    result, _ = run.measure(program, tiny("sweep_density_fixed"), seed=1, seconds=0.01, trace=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["solver.solve_joint.calls"] == 0
    # per dB point: one nr_density run, the calibration probes, one final fixed run;
    # each point also builds a deployment for the calibration's initial power
    probes = values["baselines.calibrate_fixed_power.probe_runs"]
    assert values["cli.run_simulation.calls"] == 4 + probes + 4
    assert values["simnet.build_deployment.calls"] == values["cli.run_simulation.calls"] + 4
    assert values["model.UserLink.constructed"] > 0


def test_missing_traced_name_fails_loudly(program, monkeypatch):
    monkeypatch.delattr(program.simnet, "update_pf")
    with pytest.raises(AttributeError, match="simnet.update_pf"):
        with spans.installed(spans.Tracer("t"), program.simnet, program.cli):
            pass


def test_failed_main_fails_the_run(program, monkeypatch):
    monkeypatch.setattr(program.cli, "main", lambda argv: 2)
    result, info = run.measure(program, tiny("ring19_nr"), seed=1, seconds=0.01, trace=False)
    assert not result["correct"]
    assert "main returned 2" in info["problems"]


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring19_nr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "program source not found" in proc.stderr
