"""Joint uplink bandwidth/power scheduling under per-cell noise-rise budgets.

The package provides the optimal iterative water-filling solver, the
density-capped greedy schedulers, fixed-power and target-SINR baselines,
and a multi-cell Shannon-capacity simulator with a batch CLI.  The top
level re-exports what README's library example uses; everything else is
imported from its module (``noiserise.simnet``, ``noiserise.solver``, ...).
"""

from .model import UserLink, normalized_interference
from .solver import solve_dual, solve_joint

__all__ = [
    "UserLink",
    "normalized_interference",
    "solve_dual",
    "solve_joint",
]

__version__ = "0.1.0"
