"""Solvers for the zero-sum transmitter-vs-jammer power allocation game.

A transmitter and a jammer split fixed power budgets across M parallel
Gaussian channels; the transmitter maximizes the aggregate rate and the
jammer minimizes it.  The package computes exact best responses for both
sides, the unique Nash equilibrium in closed form, and independent checks
(KKT residuals, a brute-force minimax grid, best-response dynamics) that the
equilibrium is what it claims to be.

The package exports the entry points, the types a caller builds, and what
the acceptance gate uses; everything else lives in its own module.
"""

from .best_response import (
    JammerKktState,
    jam_best_response,
    jam_rate_gradient,
    kkt_report,
    tx_best_response,
)
from .core import Allocation, GameParams, sample_simplex, utility, utility_batch
from .equilibrium import RegimeLabel, saddle_probe, solve_nash, verify_nash
from .oracle import GridSpec, grid_minimax, run_dynamics
from .waterfill import water_fill

__all__ = [
    "Allocation",
    "GameParams",
    "GridSpec",
    "JammerKktState",
    "RegimeLabel",
    "grid_minimax",
    "jam_best_response",
    "jam_rate_gradient",
    "kkt_report",
    "run_dynamics",
    "sample_simplex",
    "saddle_probe",
    "solve_nash",
    "tx_best_response",
    "utility",
    "utility_batch",
    "verify_nash",
    "water_fill",
]

__version__ = "0.1.0"
