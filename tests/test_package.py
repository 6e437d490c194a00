import importlib
import pkgutil

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
    "noiserise.solver": [
        "NoTransmitterError",
        "IterationRecord",
        "lambda2_bounds",
        "bandwidth_for_multiplier",
        "solve_joint",
        "solve_dual",
        "one_cell",
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
