import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from noiserise.cli import ConfigError, load_config, main
from noiserise.simnet import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_load_config_overrides():
    cfg, _ = load_config(None, ["deployment.rings=1", "run.frames=7", "scheme.noise_rise_db=7"])
    assert cfg.deployment.rings == 1
    assert cfg.run.frames == 7
    assert cfg.scheme.noise_rise_db == 7.0


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
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["cells"] == 7
    assert summary["frames"] == 10
    assert summary["mean_throughput_bits_per_cell_per_frame"] > 0
    header = open(os.path.join(out, "frames.csv")).readline().strip()
    assert header == "frame,cell,throughput_bits,ingress_w,ingress_db,egress_w"


def test_cmd_run_byte_identical_reruns(small_config, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", small_config, "--out", out1]) == 0
    assert main(["run", small_config, "--out", out2]) == 0
    for name in ("frames.csv", "powers.csv", "per_ms.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


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
    ["run.pf_beta=2"],
    ["run.pf_init=0"],
    ["run.quantize_units=-3"],
    ["run.seed=5%"],
    ["run.frame=3"],
    ["solver.tol_kkt=1e-3"],
])
def test_cmd_run_invalid_setting_exit_1(tmp_path, capsys, overrides):
    argv = ["run", "--out", str(tmp_path / "x")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
    assert out["p"][0] == pytest.approx(0.315038, abs=1e-4)
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


def test_cmd_solve_malformed_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 1
    path.write_text(json.dumps({"users": []}))
    assert main(["solve", str(path)]) == 1
    capsys.readouterr()


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
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
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


def test_cmd_sweep_empty_db_exit_1(small_config, tmp_path, capsys):
    rc = main(["sweep", small_config, "--out", str(tmp_path / "s"), "--db", ""])
    assert rc == 1
    capsys.readouterr()


def test_cmd_sweep_bad_scheme_exit_1(small_config, tmp_path, capsys):
    rc = main(["sweep", small_config, "--out", str(tmp_path / "s"), "--schemes", "nr,wat"])
    assert rc == 1
    capsys.readouterr()
