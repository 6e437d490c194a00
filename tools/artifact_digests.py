"""Digest the artifacts of a fixed list of noiserise invocations.

Run from the repository root:

    python3 tools/artifact_digests.py > digests.txt

Every invocation runs in process through ``noiserise.cli.main`` from this
tree's ``src``, writing into a temporary directory.  Each artifact prints
one ``label file sha256`` line.  ``summary.json`` is hashed without its
``runtime_s`` key, the one value that differs between identical runs;
``solve`` writes no file, so its stdout is hashed.  A change meant to
keep the artifacts byte-identical prints the same lines as its parent:
copy this script into the parent's tree, run both, and diff the outputs.
Uses only the standard library besides noiserise itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from noiserise.cli import main as noiserise_main  # noqa: E402

# the single-cell instance of README's "Solve a single-cell instance"
README_INSTANCE = {
    "budget": 4.0,
    "users": [
        {"weight": 1.1, "norm_sinr": 16.25, "norm_interference": 4.0},
        {"weight": 9.4, "norm_sinr": 0.1, "norm_interference": 1.0},
    ],
}


def _sets(*items):
    return [arg for item in items for arg in ("--set", item)]


DENSITY_FIXED = ["--db", "2,5,7,10", "--schemes", "nr_density,fixed"]

# label -> argv without --out; run and sweep write into <tmp>/<label>
INVOCATIONS = {
    "run_default": ["run"],
    "run_grid72_density": ["run", *_sets("deployment.layout=grid", "deployment.ms_total=722",
                                         "scheme.name=nr_density")],
    "run_fixed_20dbm": ["run", *_sets("scheme.name=fixed", "scheme.fixed_power_dbm=20")],
    "run_target_sinr_10db_cap0.2w_q12": ["run", *_sets("scheme.name=target_sinr", "scheme.target_sinr_db=10",
                                                       "scheme.max_power_w=0.2", "run.quantize_units=12")],
    "run_nr_density_capped_24dbm_q48": ["run", *_sets("scheme.name=nr_density_capped",
                                                      "scheme.max_power_dbm=24", "run.quantize_units=48")],
    "run_nr_plain": ["run", *_sets("deployment.wrap=false")],
    "run_nr_shadowing8db": ["run", *_sets("channel.shadowing_sigma_db=8")],
    "sweep_default": ["sweep"],
    "sweep_density_fixed_seed1": ["sweep", *DENSITY_FIXED, *_sets("run.seed=1")],
    "sweep_density_fixed_seed7243": ["sweep", *DENSITY_FIXED, *_sets("run.seed=7243")],
    "sweep_shadowing8db": ["sweep", "--db", "2,5", "--schemes", "nr_density,fixed",
                           *_sets("channel.shadowing_sigma_db=8")],
    "sweep_capped_target_q12": ["sweep", "--db", "2,5", "--schemes", "nr_density_capped,target_sinr,fixed",
                                *_sets("scheme.target_sinr_db=10", "run.quantize_units=12")],
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("runtime_s", None)
        data = json.dumps(summary, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def _call(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = noiserise_main(argv)
    if rc != 0:
        raise SystemExit(f"noiserise {' '.join(argv)} exited {rc}")
    return stdout.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, argv in INVOCATIONS.items():
            out = tmp / label
            _call([argv[0], "--out", str(out), *argv[1:]])
            for path in sorted(out.iterdir()):
                print(label, path.name, _digest(path))
        instance = tmp / "instance.json"
        instance.write_text(json.dumps(README_INSTANCE))
        stdout = _call(["solve", str(instance), "--trace"])
        print("solve_readme", "stdout", hashlib.sha256(stdout.encode()).hexdigest())


if __name__ == "__main__":
    main()
