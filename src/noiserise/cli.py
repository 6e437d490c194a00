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
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__, simnet
from .baselines import CalibrationError, calibrate_in_lockstep
from .baselines import calibrate_fixed_power  # noqa: F401 - bench/spans.py wraps cli.calibrate_fixed_power by name
from .model import UserLink, budget_watts
from .simnet import (
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
    value = float(text)  # so "1e3" reads as 1000
    if not value.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(value)


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
        section, key = section.strip(), key.strip()
        if not section or not key:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        # DEFAULT is configparser's own section; _field_values rejects it
        if section != parser.default_section and not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())


def _field_values(parser: configparser.ConfigParser) -> dict:
    """Parse every present, nonempty key into ``{dataclass: {field: value}}``."""
    values = {cls: {} for cls in _SECTION_OF}
    given = {}
    if parser.defaults():
        where = f"{parser.default_section}.{next(iter(parser.defaults()))}"
        raise ConfigError(f"{where}: unknown section; expected one of {tuple(_KEYS)}")
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


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to a temp file, then rename it into
    place, so a reader never sees a half-written artifact."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


_BLOCK_ROWS = 1024  # CSV rows formatted by one % in _write_csv


def _write_csv(path: str, header: str, row_format: str, columns) -> None:
    """One line per row of the equal-length ``columns``, formatted by
    ``row_format``; its float fields are ``%.12g``, the bytes :func:`_fmt`
    gives.  The columns (Python ints and floats, which format several
    times faster than numpy scalars) are interleaved into one flat list
    and streamed ``_BLOCK_ROWS`` lines per ``%``: fewer calls than one
    ``%`` per row, without holding the whole file's text at once."""
    width = len(columns)
    flat = [None] * (width * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j::width] = column  # a column of another length raises ValueError
    line = row_format + "\n"
    step = _BLOCK_ROWS * width

    def chunks():
        yield header + "\n"
        for start in range(0, len(flat), step):
            block = flat[start:start + step]
            yield (line * (len(block) // width)) % tuple(block)

    _atomic_write(path, chunks())


def _write_artifacts(out_dir: str, cfg: SimConfig, resolved: str, bundle, runtime_s: float) -> None:
    os.makedirs(out_dir, exist_ok=True)

    n_frames, n_cells = bundle.n_frames, bundle.n_cells
    _write_csv(
        os.path.join(out_dir, "frames.csv"),
        "frame,cell,throughput_bits,ingress_w,ingress_db,egress_w",
        "%d,%d,%.12g,%.12g,%.12g,%.12g",
        [np.repeat(np.arange(n_frames), n_cells).tolist(), list(range(n_cells)) * n_frames,
         *(values.ravel().tolist()
           for values in (bundle.cell_bits, bundle.ingress_w, bundle.ingress_db, bundle.egress_w))],
    )
    frame, ms = np.nonzero(bundle.ms_power_w > 0)  # row-major: by frame, then by MS
    _write_csv(
        os.path.join(out_dir, "powers.csv"),
        "frame,ms,power_w",
        "%d,%d,%.12g",
        [frame.tolist(), ms.tolist(), bundle.ms_power_w[frame, ms].tolist()],
    )
    totals = bundle.ms_bits.sum(axis=0)
    rates = totals / (bundle.n_frames * bundle.frame_duration_s)
    _write_csv(
        os.path.join(out_dir, "per_ms.csv"),
        "ms,total_bits,mean_rate_bits_per_s",
        "%d,%.12g,%.12g",
        [range(len(totals)), totals.tolist(), rates.tolist()],
    )

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
    }
    solver = bundle.solver_stats()
    if solver is not None:
        summary["solver"] = solver
    summary["runtime_s"] = runtime_s
    _atomic_write(os.path.join(out_dir, "summary.json"), [json.dumps(summary, indent=2) + "\n"])


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


def run_sweep(cfg: SimConfig, noise_rise_dbs, schemes):
    """Run every (scheme, dB) pair on one shared deployment draw.

    The fixed-power baseline is calibrated per dB so its mean ingress
    matches the first noise-rise scheme's (or the budget itself when no
    noise-rise scheme is in the sweep).  Returns one summary dict per
    pair, in sweep order; calibration failures mark the row and the sweep
    continues.  Each other scheme runs over every dB point as one batch;
    the calibrations advance in lockstep, each round one batch of the
    next probe of every unfinished search; the calibrated ``fixed`` rows
    then run as one batch.  Every run's figures are those it has alone.
    """
    if not noise_rise_dbs:
        raise ConfigError("sweep needs at least one noise-rise value")
    if not schemes:
        raise ConfigError("sweep needs at least one scheme")
    # building every pair's config checks it before any run starts; the
    # fixed baseline's 1 W placeholder power is replaced by calibration
    try:
        by_db = [
            [_with_scheme(cfg, noise_rise_db=float(db), name=name,
                          **({"fixed_power_w": 1.0} if name == "fixed" else {}))
             for name in schemes]
            for db in noise_rise_dbs
        ]
    except ValueError as exc:
        raise ConfigError(f"scheme.{exc}") from None
    pairs = [(i, j) for i in range(len(by_db)) for j in range(len(schemes))]
    fixed = [(i, j) for i, j in pairs if schemes[j] == "fixed"]
    rows = {}
    # mean interference to match: the first budgeted scheme's, or the
    # budget itself if the sweep holds only baselines
    references = [configs[0].budget().linear_budget for configs in by_db]
    budgeted = next((j for j, name in enumerate(schemes)
                     if name in ("nr", "nr_density", "nr_density_capped")), None)
    # every run and calibration probe below shares one draw of the deployment
    with simnet.shared_draws():
        # the schemes run first: fixed is calibrated against one of them
        for j, name in enumerate(schemes):
            if name != "fixed":
                for i, bundle in enumerate(run_simulation([configs[j] for configs in by_db])):
                    rows[i, j] = _sweep_row(by_db[i][j], bundle)
                    if j == budgeted:
                        references[i] = bundle.mean_ingress_w()
        calibration = [replace(by_db[i][j], run=replace(cfg.run, frames=_CALIBRATION_FRAMES))
                       for i, j in fixed]

        def probe_round(powers):
            batch = run_simulation([_with_scheme(calibration[k], fixed_power_w=power)
                                    for k, power in powers.items()])
            return [bundle.mean_ingress_w() for bundle in batch]

        powers = calibrate_in_lockstep(probe_round, [references[i] for i, _ in fixed],
                                       [_power_guess(by_db[i][j]) for i, j in fixed])
        calibrated = {}
        for (i, j), power in zip(fixed, powers):
            if isinstance(power, CalibrationError):
                rows[i, j] = _sweep_row(by_db[i][j], status=f"calibration_failed: {power}")
            else:
                calibrated[i, j] = power
        if calibrated:
            batch = run_simulation([_with_scheme(by_db[i][j], fixed_power_w=power)
                                    for (i, j), power in calibrated.items()])
            for ((i, j), power), bundle in zip(calibrated.items(), batch):
                rows[i, j] = _sweep_row(by_db[i][j], bundle, fixed_power_w=power)
    return [rows[pair] for pair in pairs]


def _power_guess(cfg: SimConfig) -> float:
    """Starting point for the calibration search: budget over a typical l."""
    deployment = simnet.build_deployment(cfg.deployment, cfg.channel.pathloss, cfg.run.seed)
    return cfg.budget().linear_budget / float(np.median(deployment.norm_interference))


def _sweep_row(cfg: SimConfig, bundle=None, fixed_power_w=math.nan, status="ok") -> dict:
    """One sweep row; its keys, in order, are the ``sweep.csv`` header.  A
    row without a bundle (a failed calibration) has NaN metrics."""

    def metric(name):
        return math.nan if bundle is None else getattr(bundle, name)()

    return {
        "scheme": cfg.scheme.name,
        "nr_db": cfg.scheme.noise_rise_db,
        "mean_throughput_bits": metric("mean_cell_throughput"),
        "ingress_std_w": metric("ingress_std_w"),
        "ingress_std_db": metric("ingress_std_db"),
        "edge_5pct_se": metric("edge_spectral_efficiency"),
        "fixed_power_w": fixed_power_w,
        "status": status,
    }


def cmd_sweep(args) -> int:
    try:
        cfg, _resolved = load_config(args.config, args.set)
        dbs = [float(v) for v in args.db.split(",") if v.strip() != ""]
        schemes = [v.strip() for v in args.schemes.split(",") if v.strip() != ""]
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(cfg, dbs, schemes)
        os.makedirs(args.out, exist_ok=True)
        text = io.StringIO()
        # a calibration_failed status holds commas, so fields are CSV-quoted
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_fmt(v) if isinstance(v, float) else v for v in row.values())
        _atomic_write(os.path.join(args.out, "sweep.csv"), [text.getvalue()])
    except ConfigError as exc:  # run_sweep checks the lists and every pair's settings
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {len(rows)} rows -> {os.path.join(args.out, 'sweep.csv')}")
    return 0


def _number(name: str, value) -> float:
    """A JSON number as a float; ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _user_id(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"id must be an integer or a string, got {json.dumps(value)}")
    return value


def cmd_solve(args) -> int:
    try:
        with open(args.instance) as fh:
            instance = json.load(fh)
        budget = budget_watts(instance["budget"])
        users = instance["users"]
        if not isinstance(users, list) or not users or not all(isinstance(u, dict) for u in users):
            raise ValueError("'users' must be a nonempty list of objects")
        links = [
            UserLink(
                id=_user_id(user.get("id", i)),
                weight=_number("weight", user["weight"]),
                norm_sinr=_number("norm_sinr", user["norm_sinr"]),
                norm_interference=_number("norm_interference", user["norm_interference"]),
                max_power=(_number("max_power", user["max_power"]) if "max_power" in user else None),
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
    out = asdict(alloc)  # field order is the JSON key order
    trace = out.pop("trace")
    if args.trace:
        out["trace"] = trace
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


if __name__ == "__main__":
    console_entry()
