"""Solvers for the zero-sum transmitter-vs-jammer power allocation game.

A transmitter and a jammer split fixed power budgets across M parallel
Gaussian channels; the transmitter maximizes the aggregate rate and the
jammer minimizes it.  The package computes exact best responses for both
sides, the unique Nash equilibrium in closed form, and independent checks
(KKT residuals, a brute-force minimax grid, best-response dynamics) that the
equilibrium is what it claims to be.
"""

from .best_response import (
    EPS_KKT,
    EPS_OPT,
    JammerKktState,
    KktReport,
    jam_best_response,
    jam_closed_form,
    jam_rate_gradient,
    kkt_report,
    tx_best_response,
)
from .core import (
    BUDGET_RTOL,
    Allocation,
    AllocationReport,
    ChannelSet,
    GameParams,
    sample_simplex,
    utility,
    utility_batch,
    validate_allocation,
)
from .equilibrium import (
    NashSolution,
    NashVerification,
    RegimeLabel,
    SaddleReport,
    classify_regimes,
    saddle_probe,
    solve_nash,
    verify_nash,
)
from .oracle import (
    EPS_DYN,
    DynamicsTrace,
    GridMinimaxResult,
    GridSpec,
    grid_minimax,
    run_dynamics,
)
from .waterfill import EPS_SOLVE, LevelCheck, WaterSolution, level_for_fills, water_fill

__all__ = [
    "BUDGET_RTOL",
    "EPS_DYN",
    "EPS_KKT",
    "EPS_OPT",
    "EPS_SOLVE",
    "Allocation",
    "AllocationReport",
    "ChannelSet",
    "DynamicsTrace",
    "GameParams",
    "GridMinimaxResult",
    "GridSpec",
    "JammerKktState",
    "KktReport",
    "LevelCheck",
    "NashSolution",
    "NashVerification",
    "RegimeLabel",
    "SaddleReport",
    "WaterSolution",
    "classify_regimes",
    "grid_minimax",
    "jam_best_response",
    "jam_closed_form",
    "jam_rate_gradient",
    "kkt_report",
    "level_for_fills",
    "run_dynamics",
    "sample_simplex",
    "saddle_probe",
    "solve_nash",
    "tx_best_response",
    "utility",
    "utility_batch",
    "validate_allocation",
    "verify_nash",
    "water_fill",
]

__version__ = "0.1.0"
