import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import noiserise

MODULES = ["noiserise", *(f"noiserise.{m.name}" for m in pkgutil.iter_modules(noiserise.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"


# each module's public surface, pinned so that it cannot grow or shrink
# unnoticed
SURFACES = {
    "noiserise": [
        "UserLink",
        "normalized_interference",
        "solve_dual",
        "solve_joint",
    ],
    "noiserise.solver": [
        "NoTransmitterError",
        "IterationRecord",
        "solve_joint",
    ],
    "noiserise.density": [],
    "noiserise.baselines": [
        "CalibrationError",
        "calibrate_fixed_power",
        "calibrate_in_lockstep",
    ],
    "noiserise.simnet": [
        "PathLossParams",
        "DeploymentConfig",
        "Deployment",
        "ChannelConfig",
        "SchemeConfig",
        "RunConfig",
        "SimConfig",
        "MetricsBundle",
        "Batch",
        "Scheme",
        "FrameAllocation",
        "cost_hata_pl",
        "build_deployment",
        "shared_draws",
        "make_scheme",
        "one_cell",
        "solve_dual",
        "schedule_density",
        "schedule_density_capped",
        "schedule_fixed_power",
        "schedule_target_sinr",
        "run_frame",
        "update_pf",
        "run_frames",
        "run_simulation",
        "SCHEME_NAMES",
    ],
    "noiserise.model": [
        "LN2",
        "UserLink",
        "Cells",
        "FrameAllocation",
        "Allocation",
        "NoiseRiseBudget",
        "SolverConfig",
        "budget_watts",
        "normalized_interference",
        "noise_rise_budget_from_db",
    ],
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_public_surface_is_pinned(name):
    assert sorted(importlib.import_module(name).__all__) == sorted(SURFACES[name])


# the modules below simnet, which simnet builds its schemes from
LOWER = ["model", "solver", "density", "baselines"]


def _imported_modules(name):
    """The noiserise modules that module ``name`` imports, relative
    imports resolved, from its source."""
    tree = ast.parse((Path(noiserise.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "noiserise" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            found.add(module)
            # ``from . import simnet`` names the module in the alias
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name", LOWER)
def test_lower_modules_do_not_import_simnet_or_cli(name):
    # the per-cell library calls live in simnet beside make_scheme, which
    # builds its schemes from these modules: an import back would be a cycle
    imported = _imported_modules(name)
    assert not imported & {"noiserise.simnet", "noiserise.cli"}, imported


def test_import_parser_sees_each_import_form():
    # cli imports simnet as ``from . import simnet`` and ``from .simnet import``,
    # and simnet imports solver as ``from .solver import``
    assert "noiserise.simnet" in _imported_modules("cli")
    assert {"noiserise.solver", "noiserise.model"} <= _imported_modules("simnet")
