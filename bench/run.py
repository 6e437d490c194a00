"""noiserise benchmark: one workload through ``noiserise.cli.main``, in process.

Run from the repository root:

    python3 bench/run.py --workload ring19_nr --seed 1 --seconds 40 --trace 0

``--trace 0`` times repeated untraced ``main`` calls on the config the
workload generates from ``--seed`` (passed in as ``run.seed``) and prints
the end-to-end metrics, each the median over the run's calls or set-ups.
Throughput is counted in reference seconds (see ``HostSpeed``): between
frames the benchmark times a fixed reference kernel, so that a call's
time is measured against the host's speed at that moment.  The wall time
and the throughput per host second are printed with the environment, not
as metrics, because the host's speed swings too far between runs for any
allowed bound and the sweep's work (its number of calibration probes)
depends on the seed.  ``--trace 1`` alternates untraced calls with
traced ones and prints the per-layer metrics of the first traced call
(see ``spans.py``), plus the tracing overhead.  Every call's artifacts are
checked; a failed check prints ``"correct": false`` and exits 1.  The last
line of stdout is the JSON result, the line before it the environment,
the raw samples and the artifact digest.  Spans of traced runs are
written to ``bench/_work/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, installed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

MIN_REPEATS = 3  # timed main() calls per run, whatever --seconds says
SETUP_REPEATS = 30  # about this many set-ups per untraced run, spread over its calls
# One reference second is the time the host takes for REF_UNIT_ITERS
# iterations of reference_slice: about one second on the host the
# benchmark was defined on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).
REF_UNIT_ITERS = 130_000
SLICE_ITERS = 2_000  # iterations per sample of the host's speed, about 15 ms
SLICE_EVERY_S = 0.2  # program time between samples, checked at frame starts
BUDGETED_SCHEMES = ("nr", "nr_density", "nr_density_capped")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    overrides: tuple = ()
    sweep_dbs: str = ""
    sweep_schemes: str = ""

    def overrides_for(self, seed: int) -> list:
        return [f"run.seed={seed}", *self.overrides]

    def argv(self, seed: int, out_dir: Path) -> list:
        argv = [self.command, "--out", str(out_dir)]
        if self.command == "sweep":
            argv += ["--db", self.sweep_dbs, "--schemes", self.sweep_schemes]
        for item in self.overrides_for(seed):
            argv += ["--set", item]
        return argv

    def sweep_rows(self) -> int:
        return len(self.sweep_dbs.split(",")) * len(self.sweep_schemes.split(","))


WORKLOADS = {w.name: w for w in (
    Workload("ring19_nr", "run"),
    Workload("grid72_density", "run",
             ("deployment.layout=grid", "deployment.ms_total=722", "scheme.name=nr_density")),
    Workload("sweep_density_fixed", "sweep", sweep_dbs="2,5,7,10", sweep_schemes="nr_density,fixed"),
)}


class BenchError(RuntimeError):
    """The benchmark cannot run here: the program source is missing."""


@dataclass
class Program:
    """The noiserise modules the benchmark drives."""

    cli: object
    simnet: object
    numpy: object


def import_program() -> Program:
    """Import noiserise from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "noiserise" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {src}")
    for name in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    import numpy
    from noiserise import cli, simnet

    if Path(cli.__file__).resolve().parent != src / "noiserise":
        raise BenchError(f"imported noiserise from {cli.__file__}, not from {src}")
    return Program(cli=cli, simnet=simnet, numpy=numpy)


def set_up(program: Program, overrides) -> object:
    """What a run does before its first frame: config, deployment, scheme."""
    cfg, _ = program.cli.load_config(None, overrides)
    program.simnet.build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    budget = cfg.budget()
    program.simnet.make_scheme(
        cfg.scheme.name,
        budget,
        solver_config=cfg.solver,
        fixed_power=cfg.scheme.fixed_power_w,
        target_sinr=cfg.scheme.target_sinr,
        assumed_noise_plus_interference=cfg.channel.noise_power_w + budget.linear_budget,
    )
    return cfg


@contextlib.contextmanager
def counting_cell_frames(cli):
    """Count cells x frames of every simulation ``main`` runs.

    Wraps only ``cli.run_simulation`` (tens of calls per ``main``), so it
    is active in untraced calls too; the per-call cost is a few reads.
    """
    original = cli.run_simulation
    counter = {"cell_frames": 0}

    def run_simulation(cfg):
        bundle = original(cfg)
        counter["cell_frames"] += bundle.n_cells * bundle.n_frames
        return bundle

    cli.run_simulation = run_simulation
    try:
        yield counter
    finally:
        cli.run_simulation = original


def reference_slice(np, iters: int) -> float:
    """Fixed reference work: small numpy calls inside a Python loop, like the program's."""
    a = np.linspace(0.1, 2.0, 16)
    s = 0.0
    for i in range(iters):
        b = np.log1p(a * (1.0 + i * 1e-9)) / a
        s += float(b.sum())
        for j in range(16):
            s += (j * 0.5) % 7.0
    return s


class HostSpeed:
    """Samples the host's speed on ``reference_slice`` during one ``main`` call.

    On a shared host the speed of the same code swings up to 2x for
    seconds to minutes.  A sample is taken when the call starts, when it
    ends and before every frame that starts at least ``SLICE_EVERY_S``
    after the last sample.  ``program_s`` is the call's time outside the
    samples; ``ref_s`` is the same time counted in reference seconds,
    each stretch between two samples divided by the mean length of a
    reference second the two measured.
    """

    def __init__(self, np):
        self.np = np
        self.slices = []  # (start, end) of each sample, perf_counter seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_slice(self.np, SLICE_ITERS)
        self.slices.append((t0, time.perf_counter()))

    def due(self) -> bool:
        return time.perf_counter() - self.slices[-1][1] >= SLICE_EVERY_S

    def totals(self) -> tuple:
        """(program_s, ref_s) over the stretches between the samples."""
        unit = REF_UNIT_ITERS / SLICE_ITERS
        program_s = ref_s = 0.0
        for (s0, e0), (s1, e1) in zip(self.slices, self.slices[1:]):
            stretch = s1 - e0
            program_s += stretch
            ref_s += stretch / (0.5 * ((e0 - s0) + (e1 - s1)) * unit)
        return program_s, ref_s


@contextlib.contextmanager
def sampling_host_speed(simnet, speed: HostSpeed):
    """Take a ``speed`` sample before each frame that is due for one."""
    original = simnet.run_frame

    def run_frame(*args, **kwargs):
        if speed.due():
            speed.sample()
        return original(*args, **kwargs)

    simnet.run_frame = run_frame
    try:
        yield
    finally:
        simnet.run_frame = original


@dataclass
class Call:
    """One checked ``main`` call."""

    wall_s: float  # outside the host-speed samples, if any
    ref_s: float | None  # wall_s in reference seconds; None on traced calls
    cell_frames: int
    attempted: int
    failed: int
    digest: str
    throughput: float | None
    problems: list


def check_artifacts(workload: Workload, cfg, out_dir: Path):
    """Validate the artifacts of one call.

    Returns (failed operations, problems, digest, throughput).  A failed
    operation is a ``frames.csv`` row whose egress exceeds the budget or
    a sweep row whose status is not ``ok``.  The digest covers every
    artifact except ``summary.json``'s ``runtime_s``.
    """
    problems = []
    failed = 0
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("runtime_s", None)
            data = json.dumps(summary, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")

    if workload.command == "sweep":
        rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        expected = workload.sweep_rows()
        if len(rows) != expected:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {expected}")
        bad = [r for r in rows if r.rsplit(",", 1)[-1] != "ok"]
        failed += len(bad)
        problems += [f"sweep row not ok: {r}" for r in bad]
        return failed, problems, digest.hexdigest(), None

    summary = json.loads((out_dir / "summary.json").read_text())
    rows = (out_dir / "frames.csv").read_text().splitlines()[1:]
    expected = cfg.run.frames * cfg.deployment.n_cells
    if len(rows) != expected:
        problems.append(f"frames.csv has {len(rows)} rows, expected {expected}")
    if cfg.scheme.name in BUDGETED_SCHEMES:
        cap = summary["budget_w"] * (1.0 + 1e-9)
        over = [r for r in rows if float(r.rsplit(",", 1)[-1]) > cap]
        failed += len(over)
        problems += [f"egress over budget {summary['budget_w']!r}: {r}" for r in over[:5]]
    throughput = summary["mean_throughput_bits_per_cell_per_frame"]
    return failed, problems, digest.hexdigest(), throughput


def call_main(program: Program, workload: Workload, cfg, seed: int, counter, out_dir: Path,
              tracer=None) -> Call:
    """Run ``main`` once into a fresh ``out_dir``, time it and check its output.

    Untraced calls sample the host's speed (``HostSpeed``); traced calls do not.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(seed, out_dir)
    before = counter["cell_frames"]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            speed = HostSpeed(program.numpy)
            with sampling_host_speed(program.simnet, speed):
                speed.sample()
                rc = program.cli.main(argv)
                speed.sample()
            wall, ref = speed.totals()
        else:
            t0 = time.perf_counter()
            rc = tracer.span("cli.main", program.cli.main)(argv)
            wall, ref = time.perf_counter() - t0, None
    cell_frames = counter["cell_frames"] - before
    if rc != 0:
        return Call(wall, ref, cell_frames, 1, 1, "", None, [f"main returned {rc}"])
    failed, problems, digest, throughput = check_artifacts(workload, cfg, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    # one operation per per-cell allocation the frame loop consumed, plus one per sweep row
    attempted = cell_frames + (workload.sweep_rows() if workload.command == "sweep" else 0)
    return Call(wall, ref, cell_frames, attempted, failed, digest, throughput, problems)


def environment(program: Program, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": program.numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(program: Program, workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result, info) as printed on the last two lines."""
    overrides = workload.overrides_for(seed)
    out_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    info = {"workload": workload.name, "env": environment(program, seed)}

    cfg = set_up(program, overrides)
    setups = []
    setups_per_call = 0
    calls, traced_calls, tracers = [], [], []
    start = time.perf_counter()
    with counting_cell_frames(program.cli) as counter:
        while True:
            # a few set-ups before every call, so that they meet the same
            # host states over the run as the calls do; each batch starts
            # on a collected heap, not on the previous call's garbage
            if setups_per_call:
                gc.collect()
            for _ in range(setups_per_call):
                t0 = time.perf_counter()
                set_up(program, overrides)
                setups.append(time.perf_counter() - t0)
            traced_turn = trace and len(traced_calls) < len(calls)
            if traced_turn:
                tracer = Tracer(uuid.uuid4().hex)
                with installed(tracer, program.simnet, program.cli):
                    traced_calls.append(
                        call_main(program, workload, cfg, seed, counter, out_dir, tracer))
                tracers.append(tracer)
            else:
                calls.append(call_main(program, workload, cfg, seed, counter, out_dir))
            done = calls + traced_calls
            elapsed = time.perf_counter() - start
            typical = statistics.median(c.wall_s for c in done)
            if not trace and len(done) == 1:
                expected_calls = max(MIN_REPEATS, seconds / typical)
                setups_per_call = min(SETUP_REPEATS // MIN_REPEATS,
                                      math.ceil(SETUP_REPEATS / expected_calls))
            enough = len(done) >= MIN_REPEATS and (not trace or traced_calls)
            if enough and elapsed + typical > seconds:
                break
    shutil.rmtree(out_dir, ignore_errors=True)

    done = calls + traced_calls
    problems = [p for c in done for p in c.problems]
    digests = sorted({c.digest for c in done})
    if len(digests) != 1:
        problems.append(f"artifacts differ between identical calls: {digests}")
    if len({c.cell_frames for c in done}) != 1:
        problems.append("cells x frames differ between identical calls")
    wall = statistics.median(c.wall_s for c in calls)
    ref = statistics.median(c.ref_s for c in calls)
    info.update({
        # recorded, not gated: the host's speed swings, and the sweep's work varies with the seed
        "wall_s": wall,
        "cell_frames_per_s": calls[0].cell_frames / wall,
        "untraced_wall_s": [c.wall_s for c in calls],
        "untraced_ref_s": [c.ref_s for c in calls],
        "setup_s": setups,
        "cell_frames_per_call": calls[0].cell_frames,
        "artifact_digest": digests[0],
        "mean_throughput_bits_per_cell_per_frame": calls[0].throughput,
    })

    if trace:
        first = tracers[0]
        counts = [t.layer_metrics() for t in tracers]
        if any(_counts(c) != _counts(counts[0]) for c in counts):
            problems.append("per-layer counts differ between traced calls")
        metrics = dict(counts[0])
        traced_wall = statistics.median(c.wall_s for c in traced_calls)
        metrics["trace_overhead_frac"] = (traced_wall / wall - 1.0, "ratio")
        call = traced_calls[0]
        metrics["failed_frac"] = ((first.uncertified() + call.failed) / call.attempted, "ratio")
        info["traced_wall_s"] = [c.wall_s for c in traced_calls]
        spans_dir = WORK_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{workload.name}-seed{seed}.csv"
        first.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "cell_frames_per_ref_s": (calls[0].cell_frames / ref, "1/ref_s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    info["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": sum(c.attempted for c in done),
        "failed": sum(c.failed for c in done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def _counts(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = import_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, info = measure(program, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    for problem in info["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
