import contextlib
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noiserise
from noiserise import cli
from noiserise.cli import _BLOCK_ROWS, ConfigError, _floats, _write_rows, load_config, main
from noiserise.simnet import SimConfig, run_simulation

from oracles import reference_sweep, reference_write_csv
from test_acceptance import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

SMALL_7CELL = """
[deployment]
layout = rings
rings = 1
ms_per_cell = 3
wrap = true

[run]
seed = 5
frames = 10
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_7CELL)
    return str(path)


def _golden_instance(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps(
            {
                "budget": 4.0,
                "users": [
                    {"weight": 1.1, "norm_sinr": 16.25, "norm_interference": 4.0},
                    {"weight": 9.4, "norm_sinr": 0.1, "norm_interference": 1.0},
                ],
            }
        )
    )
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_load_config_defaults():
    cfg, resolved = load_config(None)
    assert cfg == SimConfig()
    assert cfg.deployment.n_cells == 19
    assert cfg.scheme.name == "nr"
    assert cfg.run.frames == 80
    assert "scheme.name='nr'" in resolved
    # summary.json's config_hash for the default run; it must not drift
    assert hashlib.sha256(resolved.encode()).hexdigest() == (
        "309663cad4496edfc04aaa5115be78d8a99426e6b2fb8da96f1501ee9d546b94"
    )


def test_readme_ini_block_is_the_default_config(tmp_path):
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg, _ = load_config(str(path))
    assert cfg == SimConfig()


def _python_m(*args):
    env = dict(os.environ)
    src = str(Path(noiserise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["noiserise", "noiserise.cli"])
def test_python_m_prints_version(module):
    done = _python_m(module, "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == f"noiserise {noiserise.__version__}"


def test_python_m_run_writes_artifacts(small_config, tmp_path):
    out = tmp_path / "x"
    done = _python_m("noiserise", "run", small_config, "--out", str(out), "--set", "run.frames=2")
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "summary.json").read_text())["scheme"] == "nr"


def test_readme_library_example_runs():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_readme_solve_example_is_the_tested_instance(tmp_path, capsys):
    # README's heredoc instance is the one the acceptance gate and the
    # artifact digests solve, and solve prints its stated optimum
    text = README.read_text()
    instance = json.loads(text.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "tools" / "artifact_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert instance == digests.README_INSTANCE == GOLDEN
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    stated = re.search(r"optimum is `x = \((\S+), (\S+)\)`, `p1 = (\S+)`", text)
    assert stated is not None
    # README states each figure rounded to six digits
    assert stated.groups() == tuple(f"{value:.6f}" for value in [*out["x"], out["p"][0]])


def test_readme_names_no_private_identifier():
    # mechanisms and private names are described in the docstrings beside
    # their code; README keeps the interfaces
    private = re.findall(r"(?<!\w)_\w+", README.read_text())
    assert not private, private


def test_load_config_overrides():
    cfg, _ = load_config(None, ["deployment.rings=1", "run.frames=7", "scheme.noise_rise_db=7"])
    assert cfg.deployment.rings == 1
    assert cfg.run.frames == 7
    assert cfg.scheme.noise_rise_db == 7.0


def test_load_config_integer_settings_take_integral_floats():
    # integer settings parse as floats first, so an exponent is fine; a
    # fraction is refused (see test_cmd_run_invalid_setting_exit_1)
    cfg, _ = load_config(None, ["run.frames=1e1", "deployment.rings=1.0", "run.quantize_units=4.8e1"])
    assert (cfg.run.frames, cfg.deployment.rings, cfg.run.quantize_units) == (10, 1, 48)


def test_load_config_dbm_conversion():
    cfg, _ = load_config(None, ["scheme.name=fixed", "scheme.fixed_power_dbm=30"])
    assert cfg.scheme.fixed_power_w == pytest.approx(1.0, rel=1e-12)
    cfg, _ = load_config(None, ["scheme.name=target_sinr", "scheme.target_sinr_db=10"])
    assert cfg.scheme.target_sinr == pytest.approx(10.0, rel=1e-12)


def test_load_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        load_config(None, ["scheme.name=bogus"])


def test_load_config_fixed_requires_power():
    with pytest.raises(ConfigError):
        load_config(None, ["scheme.name=fixed"])


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_load_config_default_section_is_a_config_error(tmp_path):
    # configparser copies [DEFAULT] keys into every section; the config
    # has no such section, so naming it is an error, in a file or an override
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\nseed = 3\n\n[run]\nframes = 2\n")
    with pytest.raises(ConfigError, match=r"DEFAULT\.seed: unknown section"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=r"DEFAULT\.seed: unknown section"):
        load_config(None, ["DEFAULT.seed=3"])


def test_load_config_bad_override_shape():
    with pytest.raises(ConfigError):
        load_config(None, ["not-a-setting"])


# ---------------------------------------------------------------------------
# run command


def test_cmd_run_smoke_emits_artifacts(small_config, tmp_path):
    out = str(tmp_path / "out")
    start = time.perf_counter()
    rc = main(["run", small_config, "--out", out])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 10.0
    for name in ("summary.json", "frames.csv", "powers.csv", "per_ms.csv"):
        assert os.path.exists(os.path.join(out, name))
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["cells"] == 7
    assert summary["frames"] == 10
    assert summary["mean_throughput_bits_per_cell_per_frame"] > 0
    header = Path(out, "frames.csv").read_text().splitlines()[0]
    assert header == "frame,cell,throughput_bits,ingress_w,ingress_db,egress_w"


def test_cmd_run_summary_reports_solver_work(small_config, tmp_path):
    # nr runs report the dual solver's counts; greedy schemes report none
    out = tmp_path / "nr"
    assert main(["run", small_config, "--out", str(out)]) == 0
    solver = json.loads((out / "summary.json").read_text())["solver"]
    assert solver["cells_solved"] == 7 * 10
    assert 1 <= solver["probes_p50"] <= solver["probes_max"]
    assert solver["kink_searches"] >= 0
    assert 0 <= solver["kkt_residual_max"] <= 1e-6
    greedy = tmp_path / "greedy"
    assert main(["run", small_config, "--out", str(greedy), "--set", "scheme.name=nr_density"]) == 0
    assert "solver" not in json.loads((greedy / "summary.json").read_text())


def test_cmd_run_byte_identical_reruns(small_config, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", small_config, "--out", out1]) == 0
    assert main(["run", small_config, "--out", out2]) == 0
    for name in ("frames.csv", "powers.csv", "per_ms.csv"):
        assert Path(out1, name).read_bytes() == Path(out2, name).read_bytes()


@pytest.mark.parametrize("overrides", [[], ["deployment.rings=2", "run.frames=80"], ["scheme.name=nr_density"]],
                         ids=["one_block", "several_blocks", "power_per_mobile"])
def test_cmd_run_csv_floats_carry_12_significant_digits(small_config, tmp_path, overrides):
    # every float in the run CSVs is format(v, ".12g") of the run's metrics;
    # 19 cells x 80 frames give frames.csv and powers.csv several row blocks
    out = tmp_path / "x"
    assert main(["run", small_config, "--out", str(out), *(a for o in overrides for a in ("--set", o))]) == 0
    bundle = run_simulation(load_config(small_config, overrides)[0])

    def rows(name):
        with open(out / name, newline="") as fh:
            return list(csv.reader(fh))[1:]

    def g(value):
        return format(float(value), ".12g")

    frames = rows("frames.csv")
    assert len(frames) == bundle.n_frames * bundle.n_cells
    for t, k, bits, ingress_w, ingress_db, egress_w in frames:
        t, k = int(t), int(k)
        assert [bits, ingress_w, ingress_db, egress_w] == [
            g(bundle.cell_bits[t, k]), g(bundle.ingress_w[t, k]),
            g(bundle.ingress_db[t, k]), g(bundle.egress_w[t, k]),
        ]
    t, ms = np.nonzero(bundle.ms_power_w > 0)
    assert rows("powers.csv") == [
        [str(ti), str(mi), g(bundle.ms_power_w[ti, mi])] for ti, mi in zip(t.tolist(), ms.tolist())
    ]
    totals = bundle.ms_bits.sum(axis=0)
    rates = totals / (bundle.n_frames * bundle.frame_duration_s)
    assert rows("per_ms.csv") == [[str(i), g(totals[i]), g(rates[i])] for i in range(bundle.n_ms)]


_AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, 12345678.5]


def _write_groups(path, sizes, columns, field_formats, monkeypatch=None):
    """``_write_rows`` on groups of ``sizes`` rows: group g's row i holds
    the integer keys g and ``(-7) ** (i % 5)`` in its template.  Returns
    the per-row writer's rows and, with ``monkeypatch``, the chunks the
    writer hands to ``_atomic_write``."""
    keys = [(g, (-7) ** (i % 5)) for g, size in enumerate(sizes) for i in range(size)]
    fields = ",".join(field_formats)
    groups = ("".join(f"{g},{(-7) ** (i % 5)},{fields}\n" for i in range(size)) for g, size in enumerate(sizes))
    written = []
    if monkeypatch is not None:
        def capture(path, chunks):
            written.extend(chunks)
            atomic_write(path, written)

        atomic_write = cli._atomic_write
        monkeypatch.setattr(cli, "_atomic_write", capture)
    _write_rows(str(path), "a,b,c,d", groups, columns)
    rows = [(*key, *values) for key, values in zip(keys, zip(*(c.tolist() for c in columns)))]
    return rows, written


_B = _BLOCK_ROWS


@pytest.mark.parametrize("sizes", [
    pytest.param([], id="0"),
    pytest.param([0, 0, 0], id="0_in_empty_groups"),
    pytest.param([1], id="1"),
    pytest.param([0, 1, 0], id="1_among_empty_groups"),
    pytest.param([_B - 1], id="1023"),
    pytest.param([_B], id="1024"),
    pytest.param([_B + 1], id="1025"),
    pytest.param([_B - 1, 1, 1], id="1023_then_1_then_1"),
    pytest.param([_B - 1, 2], id="1023_then_2"),
    pytest.param([1, _B - 1, 0, _B + 1, _B + 4], id="3077"),
    pytest.param([3 * _B + 5], id="3077_in_one_group"),
    pytest.param([_B // 2] * 7 + [5], id="half_blocks"),
    pytest.param([19] * 160, id="ring19_frames"),
    pytest.param([72] * 80, id="grid72_frames"),
])
def test_write_csv_matches_the_per_row_writer(tmp_path, monkeypatch, sizes):
    # integer keys in the templates and %.12g floats, NaN, infinities, -0.0
    # and subnormals included, give the per-row writer's bytes for groups
    # of 0, 1 and many rows and on and around every block edge
    n_rows = sum(sizes)
    columns = [
        np.array([_AWKWARD_FLOATS[i % len(_AWKWARD_FLOATS)] for i in range(n_rows)]),
        np.array([_AWKWARD_FLOATS[(3 * i + 1) % len(_AWKWARD_FLOATS)] * 10.0 ** (i % 7 - 3) for i in range(n_rows)]),
    ]
    rows, chunks = _write_groups(tmp_path / "groups.csv", sizes, columns, ["%.12g", "%.12g"], monkeypatch)
    reference_write_csv(str(tmp_path / "rows.csv"), "a,b,c,d", "%d,%d,%.12g,%.12g", rows)
    got = (tmp_path / "groups.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == n_rows + 1
    if n_rows == 0:
        assert got == b"a,b,c,d\n"
    assert not (tmp_path / "groups.csv.tmp").exists()
    # the header, then blocks that each end on a group's last row: every
    # block but the last holds at least _BLOCK_ROWS rows, and fewer than
    # _BLOCK_ROWS more than its last group
    assert chunks[0] == "a,b,c,d\n"
    ends = np.cumsum(sizes).tolist()
    blocks = [chunk.count("\n") for chunk in chunks[1:]]
    assert sum(blocks) == n_rows and blocks[-1] < _B
    for done, block in zip(np.cumsum(blocks).tolist(), blocks[:-1]):
        assert done in ends and _B <= block < _B + max(sizes)


# NaNs of other payloads and signs, beside 0.0 and -0.0, infinities and subnormals
_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(float)
_POOL = st.sampled_from([*_AWKWARD_FLOATS, 0.0, -5e-324, 2.2e-308, *_NANS.tolist()]) | st.floats()


@st.composite
def csv_columns(draw):
    """Group sizes and two float columns of their total length, on and
    around the block edges.  The first column is drawn from a pool of
    0.0, -0.0 and a few values, so that it repeats, or from that pool and
    as many other values as the column holds; the second takes a few
    per-key values at drawn keys, as ``powers.csv`` takes each mobile's
    power."""
    n = draw(st.sampled_from([0, 1, 2, _B - 1, _B, _B + 1, 2 * _B + 3]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.integers(0, n + 1, draw(st.integers(0, 6))))
    sizes = np.diff([0, *cuts.tolist(), n]).tolist()
    pool = np.array([0.0, -0.0, *draw(st.lists(_POOL, max_size=6))])
    if draw(st.booleans()):
        pool = np.concatenate([pool, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])
    values = pool[rng.integers(0, len(pool), n)]
    keyed = np.array(draw(st.lists(_POOL, min_size=1, max_size=6)))
    return sizes, values, keyed[rng.integers(0, len(keyed), n)]


@settings(max_examples=60, deadline=None)
@given(csv_columns())
def test_property_formatting_once_per_value_writes_the_per_row_bytes(tmp_path_factory, columns):
    # each distinct value's text, taken by bit pattern, in groups whose
    # templates hold the integer keys, gives the per-row writer's %.12g
    # bytes, on either side of the half-distinct rule
    sizes, values, keyed = columns
    value_format, value_column = _floats(values)
    distinct = len(np.unique(values.view(np.int64)))
    assert value_format == ("%s" if 2 * distinct <= len(values) else "%.12g")
    keyed_format, keyed_column = _floats(keyed)
    tmp = tmp_path_factory.mktemp("csv")
    _write_groups(tmp / "once.csv", sizes, [value_column, keyed_column], [value_format, keyed_format])
    rows, _ = _write_groups(tmp / "plain.csv", sizes, [values, keyed], ["%.12g", "%.12g"])
    reference_write_csv(str(tmp / "rows.csv"), "a,b,c,d", "%d,%d,%.12g,%.12g", rows)
    assert (tmp / "once.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        _write_rows(str(tmp_path / "x.csv"), "a,b", ["%.12g,%.12g\n"], [np.ones(2), np.ones(1)])
    for sizes in ([1], [2, 1]):
        with pytest.raises(ValueError, match="the groups hold"):
            _write_rows(str(tmp_path / "x.csv"), "a", ("%.12g\n" * n for n in sizes), [np.ones(2)])
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("overrides", [[], ["run.quantize_units=12"],
                                       ["scheme.name=nr_density", "deployment.ms_per_cell=60"]],
                         ids=["nr", "nr_q12", "nr_density_ms60"])
def test_cmd_run_csvs_are_the_per_row_writers_bytes(tmp_path, overrides):
    # the default 19 cells over 80 frames, so frames.csv and powers.csv
    # span blocks, and 1,140 mobiles, so per_ms.csv does too
    out = tmp_path / "x"
    assert main(["run", "--out", str(out), *(a for o in overrides for a in ("--set", o))]) == 0
    bundle = run_simulation(load_config(None, overrides)[0])
    reference = tmp_path / "rows"
    reference.mkdir()

    def write(name, header, row_format, rows):
        reference_write_csv(str(reference / name), header, row_format, rows)
        return (out / name).read_bytes() == (reference / name).read_bytes()

    frames = zip(*(a.ravel().tolist() for a in np.indices(bundle.cell_bits.shape)),
                 *(a.ravel().tolist() for a in (bundle.cell_bits, bundle.ingress_w, bundle.ingress_db,
                                                bundle.egress_w)))
    assert write("frames.csv", "frame,cell,throughput_bits,ingress_w,ingress_db,egress_w",
                 "%d,%d,%.12g,%.12g,%.12g,%.12g", frames)
    t, ms = np.nonzero(bundle.ms_power_w > 0)
    assert write("powers.csv", "frame,ms,power_w", "%d,%d,%.12g",
                 zip(t.tolist(), ms.tolist(), bundle.ms_power_w[t, ms].tolist()))
    totals = bundle.ms_bits.sum(axis=0)
    rates = totals / (bundle.n_frames * bundle.frame_duration_s)
    assert len(totals) > _B if "deployment.ms_per_cell=60" in overrides else len(totals) < _B
    assert write("per_ms.csv", "ms,total_bits,mean_rate_bits_per_s", "%d,%.12g,%.12g",
                 zip(range(len(totals)), totals.tolist(), rates.tolist()))


def test_cmd_run_unknown_scheme_exit_1(small_config, tmp_path, capsys):
    rc = main(["run", small_config, "--out", str(tmp_path / "x"), "--set", "scheme.name=nope"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "scheme.name" in err


@pytest.mark.parametrize("overrides", ids=",".join, argvalues=[
    ["scheme.max_power_w=-1"],
    ["scheme.name=fixed", "scheme.fixed_power_w=-1"],
    ["scheme.name=target_sinr", "scheme.target_sinr=-2"],
    ["scheme.max_power_w=0.2", "scheme.max_power_dbm=24"],
    ["deployment.ms_per_cell=0"],
    ["deployment.ms_total=0"],
    ["deployment.min_ms_per_cell=0", "deployment.ms_total=0"],
    ["deployment.rings=0"],
    ["deployment.layout=grid", "deployment.rows=1", "deployment.cols=1"],
    ["run.pf_beta=2"],
    ["run.pf_init=0"],
    ["run.quantize_units=-3"],
    ["run.frames=2.7"],
    ["deployment.rings=1.9"],
    ["run.quantize_units=12.5"],
    ["scheme.noise_rise_db=nan"],
    ["channel.shadowing_sigma_db=nan"],
    ["run.frame_duration_s=inf"],
    ["deployment.isd_m=nan"],
    ["scheme.max_power_dbm=inf"],
    ["scheme.max_power_dbm=5000"],  # overflows a float: inf W
    ["run.seed=5%"],
    ["run.seed=-1"],
    ["run.frame=3"],
    ["solver.tol_kkt=1e-3"],
    ["DEFAULT.seed=3"],
    [".seed=3"],
])
def test_cmd_run_invalid_setting_exit_1(tmp_path, capsys, overrides):
    argv = ["run", "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# a noise-rise target or a noise density whose linear value underflows to
# 0 or overflows: the run's and the sweep's way to give it, and the error
_NOT_POSITIVE_FINITE = {
    "budget_underflows": (["--set", "scheme.noise_rise_db=1e-20"], ["--db", "1e-20"],
                          "scheme.noise_rise_db must give a positive finite budget: "),
    "budget_overflows": (["--set", "scheme.noise_rise_db=5000"], ["--db", "5000"],
                         "scheme.noise_rise_db must give a positive finite budget: "),
    "noise_overflows": (["--set", "channel.n0_dbm_per_hz=5000"], ["--set", "channel.n0_dbm_per_hz=5000"],
                        "channel.n0_dbm_per_hz + noise_figure_db must give a positive finite noise power, got inf W"),
    "noise_underflows": (["--set", "channel.n0_dbm_per_hz=-5000"], ["--set", "channel.n0_dbm_per_hz=-5000"],
                         "channel.n0_dbm_per_hz + noise_figure_db must give a positive finite noise power, got 0.0 W"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(_NOT_POSITIVE_FINITE))
def test_noise_or_budget_not_positive_finite_exit_1(tmp_path, capsys, monkeypatch, command, case):
    from noiserise import cli

    def no_runs(cfg):
        raise AssertionError("a simulation ran on a config it should have refused")

    monkeypatch.setattr(cli, "run_simulation", no_runs)
    run_args, sweep_args, message = _NOT_POSITIVE_FINITE[case]
    out = tmp_path / "x"
    assert main([command, "--out", str(out), *(run_args if command == "run" else sweep_args)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_wrapped_grid_too_long_exit_1(tmp_path, capsys, monkeypatch, command):
    # a 1 x 9 torus: the 3x3 block of lattice images misses nearer images
    from noiserise import cli

    def no_runs(cfg):
        raise AssertionError("a simulation ran on a config it should have refused")

    monkeypatch.setattr(cli, "run_simulation", no_runs)
    out = tmp_path / "x"
    argv = [command, "--out", str(out), "--set", "deployment.layout=grid",
            "--set", "deployment.rows=1", "--set", "deployment.cols=9"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("config error: deployment.rows and cols of a wrapped grid need "
                   "max(rows, cols) <= 2 * min(rows, cols), got 1 x 9\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_config_file_exit_1(tmp_path, capsys, command, case):
    # a directory, or a file that is not UTF-8 text, is a config error, not
    # a traceback
    path = tmp_path / "config.ini"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[run]\nframes = 2\n# \xff\xfe\n")
    assert main([command, str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cmd_run_capped_nr_refused_exit_2(small_config, tmp_path, capsys):
    # nr does not honour a power cap yet, so its check refuses the first
    # frame instead of letting the run use an over-cap allocation
    out = tmp_path / "x"
    assert main(["run", small_config, "--out", str(out), "--set", "scheme.max_power_w=1e-3"]) == 2
    assert "max power violated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", [
    ["scheme.name=nr_density", "scheme.max_power_w=1e-3"],
    ["scheme.name=fixed", "scheme.fixed_power_w=0.5", "scheme.max_power_w=0.2"],
], ids=["nr_density", "fixed"])
def test_cmd_run_cap_breaking_scheme_refused_exit_2(small_config, tmp_path, capsys, scheme):
    # nr_density sends I/l and fixed its fixed power whatever the cap, so
    # the frame check refuses the first frame that breaks the cap
    out = tmp_path / "x"
    argv = ["run", small_config, "--out", str(out)]
    for item in scheme:
        argv += ["--set", item]
    assert main(argv) == 2
    assert "max power violated" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_run_all_schemes(small_config, tmp_path):
    for extra in (
        ["--set", "scheme.name=nr_density"],
        ["--set", "scheme.name=nr_density_capped", "--set", "scheme.max_power_dbm=24"],
        ["--set", "scheme.name=fixed", "--set", "scheme.fixed_power_dbm=20"],
        ["--set", "scheme.name=target_sinr", "--set", "scheme.target_sinr_db=10"],
    ):
        out = str(tmp_path / extra[1].split("=")[1])
        assert main(["run", small_config, "--out", out] + extra) == 0


# ---------------------------------------------------------------------------
# solve command


def test_cmd_solve_reference_instance(tmp_path, capsys):
    rc = main(["solve", _golden_instance(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x"][0] == pytest.approx(0.667419, abs=1e-4)
    assert out["x"][1] == pytest.approx(0.332581, abs=1e-4)
    assert out["p"][0] == pytest.approx(0.315037, abs=1e-4)
    assert out["certified"] is True
    assert out["iterations"] <= 20


def test_cmd_solve_trace(tmp_path, capsys):
    rc = main(["solve", _golden_instance(tmp_path), "--trace"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["trace"]) == out["iterations"]
    assert out["trace"][0]["iteration"] == 1


def test_cmd_solve_single_user(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"budget": 2.0, "users": [
        {"weight": 1.0, "norm_sinr": 3.0, "norm_interference": 0.5}]}))
    rc = main(["solve", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x"] == [1.0]
    assert out["p"][0] == pytest.approx(4.0, rel=1e-9)


def test_cmd_solve_infeasible_exit_2(tmp_path, capsys):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"budget": 1.0, "users": [
        {"weight": 1.0, "norm_sinr": 0.0, "norm_interference": 1.0},
        {"weight": 2.0, "norm_sinr": 0.0, "norm_interference": 2.0}]}))
    rc = main(["solve", str(path)])
    assert rc == 2
    assert "solve failed" in capsys.readouterr().err
    # the golden instance under a cap its optimum breaks
    path.write_text(json.dumps({"budget": 4.0, "users": [
        {"weight": 1.1, "norm_sinr": 16.25, "norm_interference": 4.0, "max_power": 0.01},
        {"weight": 9.4, "norm_sinr": 0.1, "norm_interference": 1.0, "max_power": 0.01}]}))
    assert main(["solve", str(path)]) == 2
    assert "solve failed: max power violated" in capsys.readouterr().err


def test_cmd_solve_malformed_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 1
    path.write_text(json.dumps({"users": []}))
    assert main(["solve", str(path)]) == 1
    user = {"weight": 1.0, "norm_sinr": 3.0, "norm_interference": 0.5}
    # JSON booleans are not numbers, and an id is an integer or a string;
    # at a budget of 0.25 W the user's power is 0.5 W, within a cap of true
    not_numbers = [{**user, field: True} for field in ("weight", "norm_sinr", "norm_interference",
                                                       "max_power")]
    bad_ids = [{**user, "id": value} for value in (False, [1, 2], {"a": 1})]
    found = {"weight": True, "norm_sinr": 3.0, "norm_interference": 0.5, "id": [1, 2]}
    for budget, users in ((-1, [user]), ("nan", [user]), (2.0, [1, 2]), (True, [user]),
                          *((0.25, [u]) for u in not_numbers + bad_ids), (True, [found])):
        path.write_text(json.dumps({"budget": budget, "users": users}))
        assert main(["solve", str(path)]) == 1
        assert "instance error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["weight", "norm_sinr", "norm_interference", "max_power"])
def test_cmd_solve_refuses_a_user_field_that_is_not_a_number(tmp_path, capsys, field):
    # a user field takes the budget's rule, a real JSON number, and the
    # error names the field; at a budget of 0.25 W the user's power is
    # 0.5 W, within a cap of 1.1, so the number 1.1 solves in every field
    path = tmp_path / "instance.json"
    user = {"weight": 1.0, "norm_sinr": 3.0, "norm_interference": 0.5}
    for value in ("1.1", "nan", True, False, None, 10**400):
        path.write_text(json.dumps({"budget": 0.25, "users": [{**user, field: value}]}))
        assert main(["solve", str(path)]) == 1
        assert f"instance error: {field} must be a number, got {json.dumps(value)}" in capsys.readouterr().err
    path.write_text(json.dumps({"budget": 0.25, "users": [{**user, field: 1.1}]}))
    assert main(["solve", str(path)]) == 0


# ---------------------------------------------------------------------------
# sweep command


def test_cmd_sweep_rows_and_ordering(small_config, tmp_path):
    out = str(tmp_path / "sweep")
    rc = main([
        "sweep", small_config, "--out", out,
        "--db", "2,5", "--schemes", "nr,nr_density,fixed",
        "--set", "run.frames=16",
    ])
    assert rc == 0
    lines = Path(out, "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("scheme,nr_db,")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["nr", "nr_density", "fixed"] * 2
    by_key = {(r[0], float(r[1])): r for r in rows}
    for db in (2.0, 5.0):
        nr_tput = float(by_key[("nr", db)][2])
        fixed_tput = float(by_key[("fixed", db)][2])
        assert nr_tput > fixed_tput
        assert by_key[("fixed", db)][7] == "ok"


def test_cmd_sweep_invalid_scheme_config_exit_1_before_any_run(small_config, tmp_path, capsys,
                                                               monkeypatch):
    from noiserise import cli

    def no_runs(cfg):
        raise AssertionError("a simulation ran before the sweep was checked")

    monkeypatch.setattr(cli, "run_simulation", no_runs)
    out = tmp_path / "s"
    for argv in (["--schemes", "nr,target_sinr"], ["--db", "5,-1", "--schemes", "nr"],
                 ["--db", "5,nan"]):
        assert main(["sweep", small_config, "--out", str(out), *argv]) == 1
        assert "config error: scheme." in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_empty_db_exit_1(small_config, tmp_path, capsys):
    for argv in (["--db", ""], ["--schemes", " , "]):
        assert main(["sweep", small_config, "--out", str(tmp_path / "s"), *argv]) == 1
        assert "config error: sweep needs at least one" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cmd_sweep_failed_calibration_row_is_quoted(small_config, tmp_path, monkeypatch):
    # the first calibration meets a response that jumps over the reference,
    # so its bisection exhausts with a message full of commas
    from noiserise import cli

    real = cli.calibrate_in_lockstep

    def calibrate(run_round, references, initial_powers):
        def jumpy(powers):
            values = run_round(powers)
            return [references[0] * (0.5 if power < 1.0 else 2.0) if k == 0 else value
                    for (k, power), value in zip(powers.items(), values)]

        return real(jumpy, references, initial_powers)

    monkeypatch.setattr(cli, "calibrate_in_lockstep", calibrate)
    out = tmp_path / "sweep"
    rc = main(["sweep", small_config, "--out", str(out), "--db", "2,5", "--schemes", "nr_density,fixed",
               "--set", "run.frames=8"])
    assert rc == 0
    with open(out / "sweep.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 8 and [len(row) for row in rows] == [8] * 4
    assert [(row[0], row[7].split(":")[0]) for row in rows] == [
        ("nr_density", "ok"), ("fixed", "calibration_failed"), ("nr_density", "ok"), ("fixed", "ok")]
    assert "bisection exhausted" in rows[1][7] and "," in rows[1][7]
    assert all(math.isnan(float(value)) for value in rows[1][2:7])


def _first_search_jumps(real):
    """A calibration search factory whose first search sees a response
    jumping over its reference at 1 W, so that it exhausts its bisection;
    every later search is ``real``'s."""
    made = []

    def search(ref, initial_power):
        made.append(ref)
        inner = real(ref, initial_power)
        return _jumping(inner, ref) if len(made) == 1 else inner

    return search


def _jumping(inner, ref):
    power = next(inner)
    while True:
        yield power  # the probe's own mean ingress is ignored
        try:
            power = inner.send(ref * (0.5 if power < 1.0 else 2.0))
        except StopIteration as done:
            return done.value


SWEEP_SCHEMES = {
    "nr_density_fixed": (["nr", "nr_density", "fixed"], []),
    "capped_target_q12": (["nr_density_capped", "target_sinr", "fixed"],
                          ["scheme.target_sinr_db=10", "run.quantize_units=12"]),
}


@pytest.mark.parametrize("schemes, wrap, seed, failing", [
    pytest.param(schemes, wrap, seed, failing,
                 id=f"{schemes}-{'torus' if wrap else 'plain'}-{seed}{'-calibration_failed' * failing}")
    for schemes in sorted(SWEEP_SCHEMES)
    for wrap, seed, failing in [(True, 1, False), (True, 7243, False), (False, 1, False),
                                (False, 7243, False), (True, 1, True)]
])
def test_sweep_rows_equal_one_run_per_config(schemes, wrap, seed, failing, monkeypatch):
    # the batched sweep against one run_simulation per config and one
    # calibrate_fixed_power per dB point: the same rows, float for float;
    # a failing calibration fails its own row only
    from noiserise import baselines, cli

    names, overrides = SWEEP_SCHEMES[schemes]
    cfg, _ = load_config(None, ["deployment.rings=1", "deployment.ms_per_cell=4", "run.frames=12",
                                f"deployment.wrap={wrap}", f"run.seed={seed}", *overrides])
    dbs = [2.0, 5.0, 8.0]
    real = baselines._search
    if failing:
        monkeypatch.setattr(baselines, "_search", _first_search_jumps(real))
    want = reference_sweep(cfg, dbs, names)
    if failing:
        monkeypatch.setattr(baselines, "_search", _first_search_jumps(real))
    got = cli.run_sweep(cfg, dbs, names)
    assert got == want
    statuses = [row["status"].split(":")[0] for row in got if row["scheme"] == "fixed"]
    assert statuses == (["calibration_failed", "ok", "ok"] if failing else ["ok"] * 3)


# ---------------------------------------------------------------------------
# one deployment draw per sweep


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


@pytest.fixture
def draws(monkeypatch):
    """The deployments actually drawn, shared or not."""
    from noiserise import simnet

    drawn = []
    monkeypatch.setattr(simnet, "_draw_deployment", _counting(simnet._draw_deployment, drawn))
    return drawn


def test_sweep_draws_its_deployment_once(small_config, tmp_path, monkeypatch, draws):
    from noiserise import cli, simnet

    builds, runs = [], []
    monkeypatch.setattr(simnet, "build_deployment", _counting(simnet.build_deployment, builds))
    monkeypatch.setattr(cli, "run_simulation", _counting(cli.run_simulation, runs))
    argv = ["--db", "2,5,7", "--schemes", "nr_density,fixed", "--set", "run.frames=8"]
    assert main(["sweep", small_config, "--out", str(tmp_path / "shared"), *argv]) == 0
    assert len(draws) == 1
    # every run, and each dB point's calibration start, still asks for the deployment
    calls = len(builds)
    assert calls == len(runs) + 3 > 3
    # a sweep whose every call draws afresh writes the same bytes
    monkeypatch.setattr(simnet, "shared_draws", contextlib.nullcontext)
    assert main(["sweep", small_config, "--out", str(tmp_path / "fresh"), *argv]) == 0
    assert len(builds) == 2 * calls and len(draws) == 1 + calls
    assert (tmp_path / "fresh" / "sweep.csv").read_bytes() == (tmp_path / "shared" / "sweep.csv").read_bytes()


def test_runs_outside_a_sweep_draw_afresh(small_config, draws):
    cfg, _ = load_config(small_config, ["run.frames=2"])
    run_simulation(cfg)
    run_simulation(cfg)
    assert len(draws) == 2


def test_sweep_that_raises_stops_sharing_its_draw(small_config, monkeypatch, draws):
    from noiserise import cli

    def broken(*args, **kwargs):
        raise RuntimeError("calibration broke")

    monkeypatch.setattr(cli, "calibrate_in_lockstep", broken)
    cfg, _ = load_config(small_config, ["run.frames=4"])
    with pytest.raises(RuntimeError, match="calibration broke"):
        cli.run_sweep(cfg, [2.0, 5.0], ["nr_density", "fixed"])
    assert len(draws) == 1
    run_simulation(cfg)
    assert len(draws) == 2


def test_cmd_sweep_bad_scheme_exit_1(small_config, tmp_path, capsys):
    rc = main(["sweep", small_config, "--out", str(tmp_path / "s"), "--schemes", "nr,wat"])
    assert rc == 1
    capsys.readouterr()
