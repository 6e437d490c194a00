"""Digest the artifacts of a fixed list of noiserise invocations.

Run from the repository root:

    python3 tools/artifact_digests.py > digests.txt
    python3 tools/artifact_digests.py --against HEAD~1

Every invocation runs in process through ``noiserise.cli.main`` from this
tree's ``src``, writing into a temporary directory.  Each artifact prints
one ``label file sha256`` line.  ``summary.json`` is hashed without its
``runtime_s`` key, the one value that differs between identical runs;
``solve`` writes no file, so its stdout is hashed, and the library's
``solve_dual`` is hashed as the JSON of its results on README's instance
and on that instance with a user of zero weight and one of zero SINR
appended.  A change meant to
keep the artifacts byte-identical prints the same lines as its parent.
``--against REV`` checks that: it extracts REV's ``src`` with ``git
archive`` into a temporary directory, runs this script there in a
subprocess, and prints every line that differs between REV's listing
(``-``) and this tree's (``+``); it exits 1 on any difference.  Uses only
the standard library and ``git`` besides noiserise itself.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from noiserise import UserLink  # noqa: E402
from noiserise.cli import main as noiserise_main  # noqa: E402
from noiserise.simnet import solve_dual  # noqa: E402

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
    "run_grid72_nr": ["run", *_sets("deployment.layout=grid", "deployment.ms_total=722")],
    # the grid's draws on the plane (one lattice image) and with shadowing,
    # beside run_grid72_density's on the torus (nine images), whose first
    # draw at seed 1 is rejected
    "run_grid72_density_plain": ["run", *_sets("deployment.layout=grid", "deployment.ms_total=722",
                                               "scheme.name=nr_density", "deployment.wrap=false")],
    "run_grid72_density_shadowing8db": ["run", *_sets("deployment.layout=grid", "deployment.ms_total=722",
                                                      "scheme.name=nr_density", "channel.shadowing_sigma_db=8")],
    "run_fixed_20dbm": ["run", *_sets("scheme.name=fixed", "scheme.fixed_power_dbm=20")],
    "run_target_sinr_10db_cap0.2w_q12": ["run", *_sets("scheme.name=target_sinr", "scheme.target_sinr_db=10",
                                                       "scheme.max_power_w=0.2", "run.quantize_units=12")],
    # quantized winners frames under the density check
    "run_nr_density_q12": ["run", *_sets("scheme.name=nr_density", "run.quantize_units=12")],
    "run_nr_density_capped_24dbm_q48": ["run", *_sets("scheme.name=nr_density_capped",
                                                      "scheme.max_power_dbm=24", "run.quantize_units=48")],
    # criterion 9's config: nr's cells of one or two users, quantized
    "run_nr_q48": ["run", *_sets("run.quantize_units=48")],
    "run_nr_plain": ["run", *_sets("deployment.wrap=false")],
    "run_nr_shadowing8db": ["run", *_sets("channel.shadowing_sigma_db=8")],
    "run_nr_seed7243": ["run", *_sets("run.seed=7243")],
    # 40-user cells (760 mobiles): the walk's tie sets and kink searches on wide cells
    "run_nr_ms40": ["run", *_sets("deployment.ms_per_cell=40")],
    # seven of the 19 cells serve nobody at seed 1
    "run_nr_density_empty_cells": ["run", *_sets("deployment.ms_per_cell=1", "deployment.min_ms_per_cell=0",
                                                 "scheme.name=nr_density")],
    # a torus twice as long as it is wide: rows of three x-shifted lattice images
    "run_grid4x8_density": ["run", *_sets("deployment.layout=grid", "deployment.rows=4", "deployment.cols=8",
                                          "scheme.name=nr_density")],
    "run_grid72_fixed": ["run", *_sets("deployment.layout=grid", "deployment.ms_total=722",
                                       "scheme.name=fixed", "scheme.fixed_power_dbm=20")],
    "sweep_default": ["sweep"],
    "sweep_density_fixed_seed1": ["sweep", *DENSITY_FIXED, *_sets("run.seed=1")],
    "sweep_density_fixed_seed7243": ["sweep", *DENSITY_FIXED, *_sets("run.seed=7243")],
    # batched greedy frames and calibration probes with seven empty cells per copy
    "sweep_density_fixed_empty_cells": ["sweep", *DENSITY_FIXED, *_sets("deployment.ms_per_cell=1",
                                                                       "deployment.min_ms_per_cell=0")],
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


def digest_lines() -> list:
    """The ``label file sha256`` line of every artifact, in a fixed order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, argv in INVOCATIONS.items():
            out = tmp / label
            _call([argv[0], "--out", str(out), *argv[1:]])
            lines += [f"{label} {path.name} {_digest(path)}" for path in sorted(out.iterdir())]
        instance = tmp / "instance.json"
        instance.write_text(json.dumps(README_INSTANCE))
        stdout = _call(["solve", str(instance), "--trace"])
        lines.append(f"solve_readme stdout {hashlib.sha256(stdout.encode()).hexdigest()}")
    links = [UserLink(id=i, **user) for i, user in enumerate(README_INSTANCE["users"])]
    idle = [UserLink(id=2, weight=0.0, norm_sinr=1.0, norm_interference=1.0),
            UserLink(id=3, weight=1.0, norm_sinr=0.0, norm_interference=1.0)]
    solved = [dataclasses.asdict(solve_dual(cell, README_INSTANCE["budget"])) for cell in (links, links + idle)]
    lines.append(f"library_solve_dual json {hashlib.sha256(json.dumps(solved).encode()).hexdigest()}")
    return lines


def lines_at(rev: str) -> list:
    """The digest lines of ``rev``'s ``src``, from this script run in a
    subprocess beside a ``git archive`` of it."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        (tmp / "tools").mkdir()
        script = shutil.copy(Path(__file__).resolve(), tmp / "tools")
        run = subprocess.run([sys.executable, str(script)], check=True, capture_output=True, text=True, cwd=tmp)
    return run.stdout.splitlines()


def differences(parent: list, here: list) -> list:
    """The lines of two digest listings that differ: ``- line`` for each
    line of ``parent`` missing from ``here``, then ``+ line`` for each line
    of ``here`` missing from ``parent``, each in its listing's order."""
    theirs, ours = set(parent), set(here)
    return [f"- {line}" for line in parent if line not in ours] + [f"+ {line}" for line in here if line not in theirs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest the artifacts of a fixed list of noiserise invocations.")
    parser.add_argument("--against", metavar="REV", help="compare with the digests of REV's src; exit 1 on a difference")
    args = parser.parse_args(argv)
    here = digest_lines()
    if args.against is None:
        print(*here, sep="\n")
        return 0
    diff = differences(lines_at(args.against), here)
    if diff:
        print(*diff, sep="\n")
        return 1
    print(f"all {len(here)} lines identical at {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
