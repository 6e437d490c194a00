"""In-memory span tracer for the benchmark's traced run.

``installed`` swaps the module-level names that ``noiserise.simnet`` and
``noiserise.cli`` resolve at call time for wrappers that record one span
per call: name, start, end and parent span, all under one run id.
``layer_metrics`` derives the per-layer metrics from the spans after the
run, and ``write`` dumps the spans as CSV.  Nothing inside the program is
edited; the originals are restored when the ``with`` block ends.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import statistics
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced ``main`` call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns)
        self.solves = []  # (iterations, certified, kkt_residual, active_users)
        self.user_links = 0
        self.probe_runs = 0
        self._stack = [None]
        self._ids = itertools.count()

    def span(self, name, fn):
        """Wrap ``fn`` so each call records a span named ``name``."""

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def _solver(self, solve):
        traced = self.span("solver.solve_joint", solve)

        def solve_joint(*args, **kwargs):
            alloc = traced(*args, **kwargs)
            active = sum(1 for x in alloc.x if x > 0.0)
            self.solves.append((alloc.iterations, alloc.certified, alloc.kkt_residual, active))
            return alloc

        return solve_joint

    def _scheme_factory(self, make_scheme):
        def traced_make_scheme(*args, **kwargs):
            scheme = make_scheme(*args, **kwargs)
            return dataclasses.replace(scheme, check=self.span("simnet.check", scheme.check))

        return traced_make_scheme

    def _user_link(self, user_link):
        def counted_user_link(*args, **kwargs):
            self.user_links += 1
            return user_link(*args, **kwargs)

        return counted_user_link

    def _calibration(self, calibrate):
        traced = self.span("baselines.calibrate_fixed_power", calibrate)

        def calibrate_fixed_power(run_mean_ingress, *args, **kwargs):
            def probe(power):
                self.probe_runs += 1
                return run_mean_ingress(power)

            return traced(probe, *args, **kwargs)

        return calibrate_fixed_power

    def _patches(self, simnet, cli):
        def named(name):
            return lambda fn: self.span(name, fn)

        return [
            (simnet, "solve_joint", self._solver),
            (simnet, "schedule_density", named("density.schedule_density")),
            (simnet, "schedule_fixed_power", named("baselines.schedule_fixed_power")),
            (simnet, "build_deployment", named("simnet.build_deployment")),
            (simnet, "run_frame", named("simnet.run_frame")),
            (simnet, "update_pf", named("simnet.update_pf")),
            (simnet, "make_scheme", self._scheme_factory),
            (simnet, "UserLink", self._user_link),
            (cli, "run_simulation", named("cli.run_simulation")),
            (cli, "calibrate_fixed_power", self._calibration),
            (cli, "load_config", named("cli.load_config")),
        ]

    def layer_metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``.

        A span's self time is its duration minus the durations of its
        direct children, which run inside it one after another.
        """
        durations = defaultdict(list)
        child_ns = defaultdict(int)
        for _, parent, name, start, end in self.spans:
            durations[name].append(end - start)
            if parent is not None:
                child_ns[parent] += end - start
        self_ns = defaultdict(int)
        for span_id, _, name, start, end in self.spans:
            self_ns[name] += end - start - child_ns[span_id]

        def calls(name):
            return len(durations[name]), "count"

        def busy_s(name):
            return sum(durations[name]) / 1e9, "s"

        def pct_us(name, q):
            return percentile(durations[name], q) / 1e3, "us"

        iterations = [s[0] for s in self.solves]
        calibrations = len(durations["baselines.calibrate_fixed_power"])
        return {
            "solver.solve_joint.calls": calls("solver.solve_joint"),
            "solver.solve_joint.busy_s": busy_s("solver.solve_joint"),
            "solver.solve_joint.p50_us": pct_us("solver.solve_joint", 50),
            "solver.solve_joint.p99_us": pct_us("solver.solve_joint", 99),
            "solver.solve_joint.iterations_p50": (percentile(iterations, 50), "count"),
            "solver.solve_joint.iterations_p90": (percentile(iterations, 90), "count"),
            "solver.solve_joint.iterations_max": (max(iterations, default=0), "count"),
            "solver.solve_joint.uncertified": (self.uncertified(), "count"),
            "solver.solve_joint.kkt_residual_max": (max((s[2] for s in self.solves), default=0.0), "1"),
            "solver.solve_joint.active_users_p50": (percentile([s[3] for s in self.solves], 50), "count"),
            "density.schedule_density.calls": calls("density.schedule_density"),
            "density.schedule_density.busy_s": busy_s("density.schedule_density"),
            "density.schedule_density.p99_us": pct_us("density.schedule_density", 99),
            "baselines.schedule_fixed_power.calls": calls("baselines.schedule_fixed_power"),
            "baselines.schedule_fixed_power.busy_s": busy_s("baselines.schedule_fixed_power"),
            "simnet.run_frame.calls": calls("simnet.run_frame"),
            "simnet.run_frame.self_s": (self_ns["simnet.run_frame"] / 1e9, "s"),
            "simnet.check.busy_s": busy_s("simnet.check"),
            "model.UserLink.constructed": (self.user_links, "count"),
            "simnet.build_deployment.calls": calls("simnet.build_deployment"),
            "simnet.build_deployment.busy_s": busy_s("simnet.build_deployment"),
            "simnet.update_pf.busy_s": busy_s("simnet.update_pf"),
            "baselines.calibrate_fixed_power.calls": (calibrations, "count"),
            "baselines.calibrate_fixed_power.busy_s": busy_s("baselines.calibrate_fixed_power"),
            "baselines.calibrate_fixed_power.probe_runs": (self.probe_runs, "count"),
            "baselines.calibrate_fixed_power.probes_per_row": (
                self.probe_runs / calibrations if calibrations else 0.0, "count"),
            "cli.run_simulation.calls": calls("cli.run_simulation"),
            "cli.load_config.busy_s": busy_s("cli.load_config"),
            "cli.self_s": (self_ns["cli.main"] / 1e9, "s"),
        }

    def uncertified(self) -> int:
        return sum(1 for s in self.solves if not s[1])

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_ns", "end_ns"])
            for span_id, parent, name, start, end in self.spans:
                out.writerow([self.run_id, span_id, "" if parent is None else parent, name, start, end])


@contextlib.contextmanager
def installed(tracer: Tracer, simnet, cli):
    """Patch the traced names for the duration of the block.

    Raises ``AttributeError`` if a name no longer exists, so that a
    refactor cannot make a layer silently report zero.
    """
    patches = tracer._patches(simnet, cli)
    missing = [f"{m.__name__}.{name}" for m, name, _ in patches if not hasattr(m, name)]
    if missing:
        raise AttributeError(f"traced names no longer exist: {', '.join(missing)}")
    originals = [(m, name, getattr(m, name)) for m, name, _ in patches]
    try:
        for module, name, wrap in patches:
            setattr(module, name, wrap(getattr(module, name)))
        yield tracer
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)


def percentile(values, q: int) -> float:
    """The q-th percentile (1 to 99), interpolated as numpy does; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
