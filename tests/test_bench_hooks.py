"""The benchmark under ``bench/`` drives the program through names it
looks up at run time: the tracer swaps module-level names of
``noiserise.simnet`` and ``noiserise.cli``, and the harness builds each
workload's scheme through ``make_scheme``'s keywords.  ``bench`` is not
collected here, so these tests load its two modules by file path, without
editing them, and fail if a refactor removes a name or keyword they use,
or breaks a hook that ``measure`` installs on a small workload.
"""

import importlib.util
import sys
from pathlib import Path

import numpy
import pytest

from noiserise import cli, simnet

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in ("spans", "bench_run")}
    try:
        # bench/run.py imports spans.py as a sibling module named "spans"
        return _load("spans", "spans.py"), _load("bench_run", "run.py")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_tracer_finds_every_traced_name(bench):
    spans, _ = bench
    with spans.installed(spans.Tracer("t"), simnet, cli):
        pass


def test_every_workload_sets_up(bench):
    _, run = bench
    program = run.Program(cli, simnet, numpy)
    for workload in run.WORKLOADS.values():
        cfg = run.set_up(program, [*workload.overrides_for(1), "deployment.rings=1"])
        assert cfg.run.seed == 1


def test_cell_frame_counter_sees_every_sweep_frame(bench, tmp_path, monkeypatch):
    # the benchmark's throughput counts cell-frames through cli.run_simulation;
    # every frame the sweep runs, calibration probes and batched runs
    # included, must pass it
    _, run = bench
    cells_per_frame = []
    run_frame = simnet.run_frame

    def counted_run_frame(run, *args):
        cells_per_frame.append(run.cells.n_cells)
        return run_frame(run, *args)

    monkeypatch.setattr(simnet, "run_frame", counted_run_frame)
    for dbs, schemes in (("2,5", "nr_density,fixed"), ("2,5,7", "nr,nr_density,fixed")):
        cells_per_frame.clear()
        argv = ["sweep", "--out", str(tmp_path / schemes), "--db", dbs, "--schemes", schemes,
                "--set", "deployment.rings=1", "--set", "deployment.ms_per_cell=3", "--set", "run.frames=4"]
        with run.counting_cell_frames(cli) as counter:
            assert cli.main(argv) == 0
        assert counter["cell_frames"] == sum(cells_per_frame) > 0


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("command, sweep", [
    ("run", {}),
    ("sweep", {"sweep_dbs": "2,5", "sweep_schemes": "nr,fixed"}),
], ids=["run", "sweep"])
def test_measure_drives_a_small_workload_end_to_end(bench, tmp_path, monkeypatch, trace, command, sweep):
    # the host-speed hook and the tracer wrap simnet.run_frame; the counts
    # of cell-frames they see must be the frames times cells the runs make
    _, run = bench
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "_work")
    per_call = []  # [frames, cell-frames] of each main call
    main, run_frame = cli.main, simnet.run_frame

    def counted_main(argv):
        per_call.append([0, 0])
        return main(argv)

    def counted_run_frame(frame_run, *args):
        per_call[-1][0] += 1
        per_call[-1][1] += frame_run.cells.n_cells
        return run_frame(frame_run, *args)

    monkeypatch.setattr(cli, "main", counted_main)
    monkeypatch.setattr(simnet, "run_frame", counted_run_frame)
    small = ("deployment.rings=1", "deployment.ms_per_cell=3", "run.frames=4")
    workload = run.Workload(f"small_{command}", command, small, **sweep)
    result, info = run.measure(run.Program(cli, simnet, numpy), workload, 1, 0.01, trace)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0
    assert len(per_call) >= run.MIN_REPEATS and all(counts == per_call[0] for counts in per_call)
    frames, cell_frames = per_call[0]
    assert info["cell_frames_per_call"] == cell_frames
    if command == "run":
        assert (frames, cell_frames) == (4, 7 * 4)
    if trace:
        assert result["metrics"]["simnet.run_frame.calls"]["value"] == frames
