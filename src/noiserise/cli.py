"""Batch front-end: config parsing, single runs, noise-rise sweeps,
calibrated baselines and direct solver access, writing CSV/JSON artifacts.

Config files are INI-style (sections: deployment, channel, scheme,
solver, run); every key falls back to the built-in default, and any
key can be overridden on the command line with ``--set section.key=value``.
All randomness flows from ``run.seed``, so identical invocations produce
byte-identical CSVs.  Exit codes: 0 success, 1 config/input error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__, simnet
from .baselines import CalibrationError, calibrate_fixed_power
from .model import SolverConfig, UserLink
from .simnet import (
    SCHEME_NAMES,
    ChannelConfig,
    DeploymentConfig,
    PathLossParams,
    RunConfig,
    SchemeConfig,
    SimConfig,
    run_simulation,
)
from .solver import solve_joint

__all__ = ["ConfigError", "load_config", "run_sweep", "cmd_run", "cmd_sweep", "cmd_solve", "main"]

_CALIBRATION_FRAMES = 40


class ConfigError(ValueError):
    """A configuration file or override could not be interpreted."""


def _fmt(value: float) -> str:
    """Floats in CSV artifacts carry 12 significant digits."""
    return f"{value:.12g}"


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


class _Section:
    """Typed access to one config section with defaults and error context."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}

    def _get(self, key, cast, default):
        if key not in self.raw:
            return default
        text = self.raw[key].strip()
        if text == "":
            return default
        try:
            return cast(text)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: cannot parse {text!r}") from None

    def text(self, key, default):
        return self._get(key, str, default)

    def number(self, key, default):
        return self._get(key, float, default)

    def integer(self, key, default):
        return self._get(key, lambda t: int(float(t)), default)

    def flag(self, key, default):
        return self._get(key, _parse_bool, default)

    def optional_number(self, key):
        return self._get(key, float, None)


def _apply_overrides(parser: configparser.ConfigParser, overrides):
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section = section.strip()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())


def load_config(path: str | None, overrides=None) -> tuple[SimConfig, str]:
    """Parse a config file plus overrides into a SimConfig.

    Returns the config and its canonical resolved text (used for the
    config hash in summary.json).  ``path`` may be None to start from the
    built-in defaults and rely on overrides only.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None
    _apply_overrides(parser, overrides)

    dep = _Section(parser, "deployment")
    cha = _Section(parser, "channel")
    sch = _Section(parser, "scheme")
    sol = _Section(parser, "solver")
    run = _Section(parser, "run")

    try:
        deployment = DeploymentConfig(
            layout=dep.text("layout", "rings"),
            rings=dep.integer("rings", 2),
            rows=dep.integer("rows", 8),
            cols=dep.integer("cols", 9),
            isd_m=dep.number("isd_m", 1500.0),
            ms_per_cell=dep.integer("ms_per_cell", 10),
            ms_total=(lambda v: int(v) if v is not None else None)(dep.optional_number("ms_total")),
            min_ms_per_cell=dep.integer("min_ms_per_cell", 2),
            wrap=dep.flag("wrap", True),
        )
        pathloss = PathLossParams(
            freq_mhz=cha.number("freq_mhz", 2000.0),
            bs_height_m=cha.number("bs_height_m", 50.0),
            ms_height_m=cha.number("ms_height_m", 1.5),
            c_m_db=cha.number("c_m_db", 0.0),
            shadowing_sigma_db=cha.number("shadowing_sigma_db", 0.0),
            min_distance_m=cha.number("min_distance_m", 35.0),
        )
        channel = ChannelConfig(
            pathloss=pathloss,
            n0_dbm_per_hz=cha.number("n0_dbm_per_hz", -174.0),
            noise_figure_db=cha.number("noise_figure_db", 5.0),
            bandwidth_hz=cha.number("bandwidth_hz", 10e6),
        )

        name = sch.text("name", "nr")
        if name not in SCHEME_NAMES:
            raise ConfigError(f"scheme.name: unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
        fixed_power_w = sch.optional_number("fixed_power_w")
        fixed_power_dbm = sch.optional_number("fixed_power_dbm")
        if fixed_power_w is not None and fixed_power_dbm is not None:
            raise ConfigError("scheme: give fixed_power_w or fixed_power_dbm, not both")
        if fixed_power_dbm is not None:
            fixed_power_w = _dbm_to_w(fixed_power_dbm)
        max_power_w = sch.optional_number("max_power_w")
        max_power_dbm = sch.optional_number("max_power_dbm")
        if max_power_w is not None and max_power_dbm is not None:
            raise ConfigError("scheme: give max_power_w or max_power_dbm, not both")
        if max_power_dbm is not None:
            max_power_w = _dbm_to_w(max_power_dbm)
        target_sinr = sch.optional_number("target_sinr")
        target_sinr_db = sch.optional_number("target_sinr_db")
        if target_sinr is not None and target_sinr_db is not None:
            raise ConfigError("scheme: give target_sinr or target_sinr_db, not both")
        if target_sinr_db is not None:
            target_sinr = _db_to_linear(target_sinr_db)
        scheme = SchemeConfig(
            name=name,
            noise_rise_db=sch.number("noise_rise_db", 5.0),
            fixed_power_w=fixed_power_w,
            max_power_w=max_power_w,
            target_sinr=target_sinr,
        )
        if name == "fixed" and scheme.fixed_power_w is None:
            raise ConfigError("scheme.fixed_power_dbm (or _w): required by scheme 'fixed'")
        if name == "target_sinr" and scheme.target_sinr is None:
            raise ConfigError("scheme.target_sinr_db (or target_sinr): required by scheme 'target_sinr'")

        solver = SolverConfig(
            tol_bandwidth=sol.number("tol_bandwidth", 1e-9),
            tol_convergence=sol.number("tol_convergence", 1e-8),
            tol_kkt=sol.number("tol_kkt", 1e-6),
            max_iterations=sol.integer("max_iterations", 200),
            epsilon_floor=sol.number("epsilon_floor", 1e-6),
        )
        quantize = run.integer("quantize_units", 0)
        run_cfg = RunConfig(
            seed=run.integer("seed", 1),
            frames=run.integer("frames", 80),
            frame_duration_s=run.number("frame_duration_s", 0.005),
            quantize_units=quantize if quantize > 0 else None,
            pf_beta=run.number("pf_beta", 0.9),
            pf_init=run.number("pf_init", 1.0),
        )
        cfg = SimConfig(deployment=deployment, channel=channel, scheme=scheme,
                        solver=solver, run=run_cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, _resolved_text(cfg)


def _resolved_text(cfg: SimConfig) -> str:
    """Canonical flat dump of every resolved config value."""
    parts = []
    for section_name, section in (
        ("deployment", cfg.deployment),
        ("channel.pathloss", cfg.channel.pathloss),
        ("channel", cfg.channel),
        ("scheme", cfg.scheme),
        ("solver", cfg.solver),
        ("run", cfg.run),
    ):
        for key, value in sorted(vars(section).items()):
            if key == "pathloss":
                continue
            parts.append(f"{section_name}.{key}={value!r}")
    return "\n".join(parts)


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_artifacts(out_dir: str, cfg: SimConfig, resolved: str, bundle, runtime_s: float) -> None:
    os.makedirs(out_dir, exist_ok=True)

    # Python floats from tolist() format several times faster than numpy scalars
    lines = ["frame,cell,throughput_bits,ingress_w,ingress_db,egress_w"]
    columns = (bundle.cell_bits, bundle.ingress_w, bundle.ingress_db, bundle.egress_w)
    for t, rows in enumerate(np.stack(columns, axis=-1).tolist()):
        for k, (bits, ingress_w, ingress_db, egress_w) in enumerate(rows):
            lines.append(f"{t},{k},{_fmt(bits)},{_fmt(ingress_w)},{_fmt(ingress_db)},{_fmt(egress_w)}")
    _atomic_write(os.path.join(out_dir, "frames.csv"), "\n".join(lines) + "\n")

    lines = ["frame,ms,power_w"]
    for t, row in enumerate(bundle.ms_power_w.tolist()):
        for ms, power in enumerate(row):
            if power > 0:
                lines.append(f"{t},{ms},{_fmt(power)}")
    _atomic_write(os.path.join(out_dir, "powers.csv"), "\n".join(lines) + "\n")

    lines = ["ms,total_bits,mean_rate_bits_per_s"]
    totals = bundle.ms_bits.sum(axis=0)
    total_time = bundle.n_frames * bundle.frame_duration_s
    for ms, (bits, rate) in enumerate(zip(totals.tolist(), (totals / total_time).tolist())):
        lines.append(f"{ms},{_fmt(bits)},{_fmt(rate)}")
    _atomic_write(os.path.join(out_dir, "per_ms.csv"), "\n".join(lines) + "\n")

    summary = {
        "scheme": bundle.scheme,
        "config_hash": hashlib.sha256(resolved.encode()).hexdigest(),
        "seed": cfg.run.seed,
        "cells": bundle.n_cells,
        "ms": bundle.n_ms,
        "frames": bundle.n_frames,
        "noise_rise_db": cfg.scheme.noise_rise_db,
        "budget_w": bundle.budget_w,
        "mean_throughput_bits_per_cell_per_frame": bundle.mean_cell_throughput(),
        "mean_ingress_w": bundle.mean_ingress_w(),
        "ingress_std_w": bundle.ingress_std_w(),
        "ingress_std_db": bundle.ingress_std_db(),
        "edge_5pct_se_bits_per_s_per_hz": bundle.edge_spectral_efficiency(),
        "jain_fairness": bundle.jain_fairness(),
        "runtime_s": runtime_s,
    }
    _atomic_write(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n")


def cmd_run(args) -> int:
    try:
        cfg, resolved = load_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        start = time.perf_counter()
        bundle = run_simulation(cfg)
        runtime = time.perf_counter() - start
        _write_artifacts(args.out, cfg, resolved, bundle, runtime)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{cfg.scheme.name}: {bundle.n_cells} cells, {bundle.n_frames} frames, "
        f"mean throughput {_fmt(bundle.mean_cell_throughput())} bits/cell/frame -> {args.out}"
    )
    return 0


def _with_scheme(cfg: SimConfig, **scheme_kwargs) -> SimConfig:
    return replace(cfg, scheme=replace(cfg.scheme, **scheme_kwargs))


def _with_frames(cfg: SimConfig, frames: int) -> SimConfig:
    return replace(cfg, run=replace(cfg.run, frames=frames))


def run_sweep(cfg: SimConfig, noise_rise_dbs, schemes, calibration_tolerance: float = 0.02):
    """Run every (scheme, dB) pair against a shared deployment seed.

    The fixed-power baseline is calibrated per dB so its mean ingress
    matches the first noise-rise scheme's (or the budget itself when no
    noise-rise scheme is in the sweep).  Returns one summary dict per
    pair, in sweep order; calibration failures mark the row and the sweep
    continues.
    """
    if not noise_rise_dbs:
        raise ConfigError("sweep needs at least one noise-rise value")
    if not schemes:
        raise ConfigError("sweep needs at least one scheme")
    for name in schemes:
        if name not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
    rows = []
    for db in noise_rise_dbs:
        base = _with_scheme(cfg, noise_rise_db=float(db))
        bundles = {}
        for name in schemes:
            if name == "fixed":
                continue
            bundles[name] = run_simulation(_with_scheme(base, name=name))
        # mean interference to match: the first budgeted scheme's, or the
        # budget itself if the sweep holds only baselines
        reference = base.budget().linear_budget
        for name in schemes:
            if name in ("nr", "nr_density", "nr_density_capped"):
                reference = bundles[name].mean_ingress_w()
                break
        for name in schemes:
            if name != "fixed":
                bundle = bundles[name]
                rows.append(_sweep_row(name, db, bundle, status="ok"))
                continue
            calib_cfg = _with_frames(_with_scheme(base, name="fixed", fixed_power_w=1.0),
                                     _CALIBRATION_FRAMES)

            def mean_ingress(power, _cfg=calib_cfg):
                return run_simulation(_with_scheme(_cfg, fixed_power_w=power)).mean_ingress_w()

            try:
                power = calibrate_fixed_power(
                    mean_ingress, reference, tolerance=calibration_tolerance,
                    initial_power=_power_guess(base),
                )
            except CalibrationError as exc:
                rows.append(
                    {
                        "scheme": name,
                        "nr_db": float(db),
                        "mean_throughput_bits": math.nan,
                        "ingress_std_w": math.nan,
                        "ingress_std_db": math.nan,
                        "edge_5pct_se": math.nan,
                        "fixed_power_w": math.nan,
                        "status": f"calibration_failed: {exc}",
                    }
                )
                continue
            bundle = run_simulation(_with_scheme(base, name="fixed", fixed_power_w=power))
            rows.append(_sweep_row(name, db, bundle, status="ok", fixed_power_w=power))
    return rows


def _power_guess(cfg: SimConfig) -> float:
    """Starting point for the calibration search: budget over a typical l."""
    deployment = simnet.build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    typical_l = float(np.median(deployment.norm_interference)) if deployment.n_ms else 1.0
    budget = cfg.budget().linear_budget
    return budget / typical_l if typical_l > 0 else 1.0


def _sweep_row(name, db, bundle, status, fixed_power_w=math.nan):
    return {
        "scheme": name,
        "nr_db": float(db),
        "mean_throughput_bits": bundle.mean_cell_throughput(),
        "ingress_std_w": bundle.ingress_std_w(),
        "ingress_std_db": bundle.ingress_std_db(),
        "edge_5pct_se": bundle.edge_spectral_efficiency(),
        "fixed_power_w": fixed_power_w,
        "status": status,
    }


def cmd_sweep(args) -> int:
    try:
        cfg, _resolved = load_config(args.config, args.set)
        dbs = [float(v) for v in args.db.split(",") if v.strip() != ""]
        schemes = [v.strip() for v in args.schemes.split(",") if v.strip() != ""]
        if not dbs:
            raise ConfigError("--db list is empty")
        if not schemes:
            raise ConfigError("--schemes list is empty")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(cfg, dbs, schemes)
        os.makedirs(args.out, exist_ok=True)
        lines = ["scheme,nr_db,mean_throughput_bits,ingress_std_w,ingress_std_db,edge_5pct_se,fixed_power_w,status"]
        for row in rows:
            lines.append(
                f"{row['scheme']},{_fmt(row['nr_db'])},{_fmt(row['mean_throughput_bits'])},"
                f"{_fmt(row['ingress_std_w'])},{_fmt(row['ingress_std_db'])},"
                f"{_fmt(row['edge_5pct_se'])},{_fmt(row['fixed_power_w'])},{row['status']}"
            )
        _atomic_write(os.path.join(args.out, "sweep.csv"), "\n".join(lines) + "\n")
    except ConfigError as exc:  # run_sweep validates the scheme names
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {len(rows)} rows -> {os.path.join(args.out, 'sweep.csv')}")
    return 0


def cmd_solve(args) -> int:
    try:
        with open(args.instance) as fh:
            instance = json.load(fh)
        budget = float(instance["budget"])
        users = instance["users"]
        if not isinstance(users, list) or not users:
            raise ValueError("'users' must be a nonempty list")
        links = [
            UserLink(
                id=user.get("id", i),
                weight=float(user["weight"]),
                norm_sinr=float(user["norm_sinr"]),
                norm_interference=float(user["norm_interference"]),
                max_power=(float(user["max_power"]) if "max_power" in user else None),
            )
            for i, user in enumerate(users)
        ]
        solver_cfg = SolverConfig()
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 1
    try:
        alloc = solve_joint(links, budget, solver_cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2
    out = {
        "x": alloc.x,
        "p": alloc.p,
        "lambda1": alloc.lambda1,
        "lambda2": alloc.lambda2,
        "objective": alloc.objective,
        "iterations": alloc.iterations,
        "converged": alloc.converged,
        "certified": alloc.certified,
        "kkt_residual": alloc.kkt_residual,
    }
    if args.trace:
        out["trace"] = [
            {
                "iteration": r.iteration,
                "objective": r.objective,
                "lambda1": r.lambda1,
                "lambda2": r.lambda2,
                "max_delta_x": r.max_delta_x,
                "max_delta_p": r.max_delta_p,
                "kkt_residual": r.kkt_residual,
            }
            for r in alloc.trace
        ]
    print(json.dumps(out, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noiserise",
        description="Uplink scheduling under noise-rise budgets: runs, sweeps and solver access.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and write its artifacts")
    p_run.add_argument("config", nargs="?", default=None, help="INI config file (defaults apply)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep noise-rise targets across schemes")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("--db", default="2,5,7,10", help="comma-separated noise-rise dB list")
    p_sweep.add_argument("--schemes", default="nr,nr_density,fixed",
                         help="comma-separated scheme list")
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sweep.set_defaults(func=cmd_sweep)

    p_solve = sub.add_parser("solve", help="solve a single-cell instance from a JSON file")
    p_solve.add_argument("instance", help="JSON file with 'budget' and 'users'")
    p_solve.add_argument("--trace", action="store_true", help="include the iteration trace")
    p_solve.set_defaults(func=cmd_solve)

    args = parser.parse_args(argv)
    return args.func(args)


def console_entry() -> None:
    sys.exit(main())
