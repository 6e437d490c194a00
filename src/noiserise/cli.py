"""Batch front-end: config parsing, single runs, noise-rise sweeps,
calibrated baselines and direct solver access, writing CSV/JSON artifacts.

Config files are INI-style (sections: deployment, channel, scheme, run);
every key falls back to its config dataclass's default, and any key can
be overridden on the command line with ``--set section.key=value``.  An
unknown key or section, or a value the dataclass rejects, is a config
error.
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
from .model import UserLink
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


def _integer(text: str) -> int:
    return int(float(text))


def _flag(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _dbm_to_w(text: str) -> float:
    return 10.0 ** ((float(text) - 30.0) / 10.0)


def _db_to_linear(text: str) -> float:
    return 10.0 ** (float(text) / 10.0)


def _quantize_units(text: str) -> int | None:
    units = _integer(text)
    return units if units != 0 else None  # 0 means continuous band fractions


def _keys(cls, parse, *fields):
    return {field: (cls, field, parse) for field in fields}


# INI section -> key -> (config dataclass, field, parser).  Defaults and
# checks live on the dataclasses; the *_dbm and *_db keys are unit aliases.
_KEYS = {
    "deployment": {
        **_keys(DeploymentConfig, str, "layout"),
        **_keys(DeploymentConfig, _integer, "rings", "rows", "cols", "ms_per_cell", "ms_total",
                "min_ms_per_cell"),
        **_keys(DeploymentConfig, float, "isd_m"),
        **_keys(DeploymentConfig, _flag, "wrap"),
    },
    "channel": {
        **_keys(PathLossParams, float, "freq_mhz", "bs_height_m", "ms_height_m", "c_m_db",
                "shadowing_sigma_db", "min_distance_m"),
        **_keys(ChannelConfig, float, "n0_dbm_per_hz", "noise_figure_db", "bandwidth_hz"),
    },
    "scheme": {
        **_keys(SchemeConfig, str, "name"),
        **_keys(SchemeConfig, float, "noise_rise_db", "fixed_power_w", "max_power_w", "target_sinr"),
        "fixed_power_dbm": (SchemeConfig, "fixed_power_w", _dbm_to_w),
        "max_power_dbm": (SchemeConfig, "max_power_w", _dbm_to_w),
        "target_sinr_db": (SchemeConfig, "target_sinr", _db_to_linear),
    },
    "run": {
        **_keys(RunConfig, _integer, "seed", "frames"),
        **_keys(RunConfig, float, "frame_duration_s", "pf_beta", "pf_init"),
        "quantize_units": (RunConfig, "quantize_units", _quantize_units),
    },
}
_SECTION_OF = {cls: section for section, table in _KEYS.items() for cls, _, _ in table.values()}


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


def _field_values(parser: configparser.ConfigParser) -> dict:
    """Parse every present, nonempty key into ``{dataclass: {field: value}}``."""
    values = {cls: {} for cls in _SECTION_OF}
    given = {}
    for section in parser.sections():
        table = _KEYS.get(section)
        keys = parser.options(section)
        if table is None:
            where = f"{section}.{keys[0]}" if keys else f"[{section}]"
            raise ConfigError(f"{where}: unknown section; expected one of {tuple(_KEYS)}")
        for key in keys:
            if key not in table:
                raise ConfigError(f"{section}.{key}: unknown key; expected one of {tuple(table)}")
            text = parser.get(section, key).strip()
            if text == "":
                continue
            cls, field, parse = table[key]
            if (cls, field) in given:
                raise ConfigError(f"{section}: give {given[cls, field]} or {key}, not both")
            try:
                values[cls][field] = parse(text)
            except (KeyError, OverflowError, ValueError):
                raise ConfigError(f"{section}.{key}: cannot parse {text!r}") from None
            given[cls, field] = key
    return values


def load_config(path: str | None, overrides=None) -> tuple[SimConfig, str]:
    """Parse a config file plus overrides into a SimConfig.

    Returns the config and its canonical resolved text (used for the
    config hash in summary.json).  ``path`` may be None to start from the
    built-in defaults and rely on overrides only.  Absent keys keep the
    config dataclasses' defaults; an unknown key or section, or a value
    a dataclass rejects, raises ConfigError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None
    _apply_overrides(parser, overrides)
    values = _field_values(parser)

    def build(cls, **extra):
        try:
            return cls(**values[cls], **extra)
        except ValueError as exc:
            raise ConfigError(f"{_SECTION_OF[cls]}.{exc}") from None

    cfg = SimConfig(
        deployment=build(DeploymentConfig),
        channel=build(ChannelConfig, pathloss=build(PathLossParams)),
        scheme=build(SchemeConfig),
        run=build(RunConfig),
    )
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
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 1
    try:
        alloc = solve_joint(links, budget)
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
