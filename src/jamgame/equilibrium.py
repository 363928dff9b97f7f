"""Nash equilibrium of the power allocation game, in closed form.

The game has a saddle point in which the jammer itself water-fills: the
equilibrium jammer allocation pours alpha_j*J over the noise floors up to a
level w, and the transmitter then water-fills alpha_t*T over the flattened
floors max(N_k, w) up to a level v > w.  The jammer's budget multiplier is
recovered exactly from the pair of levels:

    w = v*alpha_j / (alpha_j + 2*u*v)   <=>   u = alpha_j*(v - w) / (2*v*w).

Each channel falls into one of three regimes by comparing its noise power to
the two levels: noise at or above v is unused by both players, noise strictly
between w and v carries transmitter power but no jamming, and noise at or
below w is contested.  Every powered channel reaches the transmitter level:
alpha_t*T_k + alpha_j*J_k + N_k = v, with J_k = 0 on TxOnly channels.

saddle_probe, which verify_nash runs, checks a candidate saddle against
random unilateral deviations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .best_response import (
    EPS_KKT,
    EPS_OPT,
    JammerKktState,
    KktReport,
    jam_best_response,
    jam_rate_gradient,
    kkt_report,
    tx_best_response,
)
from .core import (
    Allocation,
    GameParams,
    _readonly,
    require_feasible,
    sample_simplex,
    utility,
    utility_batch,
)
from .waterfill import water_fill

__all__ = [
    "NashSolution",
    "NashVerification",
    "REGIME_LABELS",
    "RegimeLabel",
    "SaddleReport",
    "classify_regimes",
    "saddle_probe",
    "solve_nash",
    "verify_nash",
]


class RegimeLabel(enum.Enum):
    """Which role a channel plays at equilibrium."""

    UNUSED = "Unused"
    TX_ONLY = "TxOnly"
    CONTESTED = "Contested"


# Entries (rows times M) per chunk of saddle_probe deviations: one chunk up
# to M = 128 at verify_nash's 512 deviations, a single row from M = 65 536.
_PROBE_CHUNK_ENTRIES = 2**16

#: The label of each regime code: REGIME_LABELS[code].
REGIME_LABELS = (RegimeLabel.UNUSED, RegimeLabel.TX_ONLY, RegimeLabel.CONTESTED)


@dataclass(frozen=True, eq=False)
class NashSolution:
    """Equilibrium allocations with the levels and multiplier behind them.

    ``v`` is the transmitter water level, ``w`` the jammer water level,
    ``u`` the jammer budget multiplier, ``value`` the equilibrium rate.
    ``codes`` holds each channel's regime code, as classify_regimes returns it.
    """

    tx: Allocation
    jam: Allocation
    v: float
    w: float
    u: float
    codes: np.ndarray
    value: float

    @property
    def regimes(self) -> tuple[RegimeLabel, ...]:
        """Each channel's RegimeLabel, built from ``codes`` when read."""
        return tuple(REGIME_LABELS[code] for code in self.codes.tolist())


def classify_regimes(noise: np.ndarray, v: float, w: float) -> np.ndarray:
    """Each channel's regime code, in a read-only int8 array, from its noise and
    the two water levels v > w: 0 (Unused) where N_k >= v, 1 (TxOnly) where
    w < N_k < v, 2 (Contested) where N_k <= w; REGIME_LABELS[code] labels it."""
    noise = np.asarray(noise)
    return _readonly(np.where(noise >= v, 0, np.where(noise > w, 1, 2)).astype(np.int8))


def _multiplier(alpha_j: float, v: float, w: float) -> float:
    """u = alpha_j*(v - w) / (2*v*w), with v and w first scaled by 2^-e.

    e is the mean of their binary exponents, so that 2*v*w neither overflows
    nor underflows.  Scaling by a power of two is exact, so for levels of
    moderate size the result is the plain formula's float, bit for bit.  A
    multiplier outside the float range raises ValueError.
    """
    e = (math.frexp(v)[1] + math.frexp(w)[1]) // 2
    vs, ws = math.ldexp(v, -e), math.ldexp(w, -e)
    try:
        u = math.ldexp(alpha_j * (vs - ws) / (2.0 * vs * ws), -e)
    except OverflowError:
        u = math.inf
    if not 0.0 < u < math.inf:
        raise ValueError(
            f"jammer multiplier u for the levels v = {v:.6g}, w = {w:.6g} "
            "is outside the float range"
        )
    return u


def solve_nash(params: GameParams) -> NashSolution:
    """Compute the unique Nash equilibrium of the game.

    The construction is two nested water-fillings.  First the jammer pours
    alpha_j*J over the raw noise floors, fixing the level w.  Then the
    transmitter pours alpha_t*T over the floors max(N_k, w), fixing v.  The
    multiplier u follows algebraically from (v, w).  A budget so small next
    to the floors it is poured over that it fills no channel in floating
    point raises ValueError naming that budget.
    """
    noise = params.noise
    jam_ws = water_fill(noise, params.alpha_j * params.j_budget)
    w = jam_ws.level
    if jam_ws.active.size == 0:
        raise ValueError(
            f"j_budget {params.j_budget:.6g} is below the float resolution of "
            f"the noise floors it is poured over (lowest {float(noise.min()):.6g})"
        )

    tx_ws = water_fill(np.maximum(noise, w), params.alpha_t * params.t_budget)
    v = tx_ws.level
    if tx_ws.active.size == 0:
        raise ValueError(
            f"t_budget {params.t_budget:.6g} is below the float resolution of "
            f"the floors max(N_k, w) it is poured over (jammer level w = {w:.6g})"
        )

    u = _multiplier(params.alpha_j, v, w)
    tx = Allocation(powers=tx_ws.fills / params.alpha_t, budget=params.t_budget)
    jam = Allocation(powers=jam_ws.fills / params.alpha_j, budget=params.j_budget)
    return NashSolution(
        tx=tx,
        jam=jam,
        v=v,
        w=w,
        u=u,
        codes=classify_regimes(noise, v, w),
        value=float(utility_batch(params, tx.powers, jam.powers)[0]),
    )


@dataclass(frozen=True)
class SaddleReport:
    """Tally of random unilateral deviations against a candidate saddle.

    ``tx_excess`` / ``jam_shortfall`` are the largest payoff improvements any
    deviation achieved (positive means the saddle property was beaten);
    the violation counts use ``tol`` as the pass line.
    """

    trials: int
    seed: int
    tol: float
    tx_excess: float
    jam_shortfall: float
    tx_violations: int
    jam_violations: int
    ok: bool


def _deviation_chunks(
    rng: np.random.Generator, trials: int, m: int, budget: float
) -> Iterator[np.ndarray]:
    """``trials`` uniform simplex points, drawn in (rows, m) chunks of about
    _PROBE_CHUNK_ENTRIES entries each."""
    rows = max(1, _PROBE_CHUNK_ENTRIES // m)
    for start in range(0, trials, rows):
        yield sample_simplex(rng, min(rows, trials - start), m, budget)


def saddle_probe(
    params: GameParams,
    tx: Allocation,
    jam: Allocation,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = EPS_OPT,
) -> SaddleReport:
    """Test the saddle inequalities against random unilateral deviations.

    No transmitter deviation should raise the payoff above the candidate
    value, and no jammer deviation should push it below.  Draws ``trials``
    transmitter deviations and then ``trials`` jammer deviations from the
    uniform simplex distribution (one shared generator, fixed draw order, so
    a seed pins the entire report bit for bit) and records the worst
    violation on each side.  Deviations are drawn and scored in chunks of
    about _PROBE_CHUNK_ENTRIES entries, so memory stays O(M); the generator
    yields the same rows in chunks as in one draw, so the report does not
    depend on the chunk size.  Zero trials is vacuous; a negative count
    raises ValueError.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0:
        return SaddleReport(0, seed, tol, 0.0, 0.0, 0, 0, True)
    value = utility(params, tx, jam)
    rng = np.random.default_rng(seed)
    tx_max, tx_violations = -math.inf, 0
    for devs in _deviation_chunks(rng, trials, params.m, params.t_budget):
        tx_vals = utility_batch(params, devs, jam.powers)
        tx_max = np.maximum(tx_max, tx_vals.max())
        tx_violations += int(np.count_nonzero(tx_vals > value + tol))
    jam_min, jam_violations = math.inf, 0
    for devs in _deviation_chunks(rng, trials, params.m, params.j_budget):
        jam_vals = utility_batch(params, tx.powers, devs)
        jam_min = np.minimum(jam_min, jam_vals.min())
        jam_violations += int(np.count_nonzero(jam_vals < value - tol))
    return SaddleReport(
        trials=trials,
        seed=seed,
        tol=tol,
        tx_excess=float(tx_max - value),
        jam_shortfall=float(value - jam_min),
        tx_violations=tx_violations,
        jam_violations=jam_violations,
        ok=tx_violations == 0 and jam_violations == 0,
    )


@dataclass(frozen=True, eq=False)
class NashVerification:
    """Evidence that a candidate solution is the saddle point.

    ``tx_gap`` is how much the transmitter could still gain (best response
    value minus candidate value; nonnegative, near zero at equilibrium), and
    ``jam_gap`` how much the jammer could still remove.  ``tx_excess`` and
    ``jam_shortfall`` are the worst payoff movements over random deviations:
    positive tx_excess means some transmitter deviation beat the candidate,
    positive jam_shortfall means some jammer deviation pushed the rate below
    it.  ``kkt`` carries the jammer multiplier residuals, and the two
    reconstruction gaps tie the stored levels back to the allocations.
    """

    tx_gap: float
    jam_gap: float
    tx_excess: float
    jam_shortfall: float
    kkt: KktReport
    regime_failures: tuple[str, ...]
    level_gap: float
    multiplier_gap: float
    deviations: int
    seed: int
    ok: bool


def verify_nash(
    params: GameParams,
    sol: NashSolution,
    deviations: int = 512,
    seed: int = 0,
) -> NashVerification:
    """Stress a candidate equilibrium from every angle the theory offers.

    Checks are: (1) both allocations feasible; (2) best-response gaps for the
    two players within EPS_OPT; (3) ``deviations`` random simplex deviations
    per player (saddle_probe) never improve on the candidate beyond EPS_OPT;
    (4) jammer KKT residuals within EPS_KKT, the budget residual relative
    to max(1, j_budget); (5) the regime codes match the stored levels, Unused
    channels carry no power, TxOnly channels are not jammed, and every
    powered channel reaches height v within EPS_OPT: masks over the codes,
    with messages built for flagged channels only, in channel order;
    (6) the stored (v, w, u) reproduce each other through the closed-form
    relation.  Zero deviations skip check (3); a negative count, or codes
    that are not M regime codes, raise ValueError.  The candidate's
    feasibility is checked six times: both allocations on entry, the
    opponent's allocation in each best response, and both again in
    saddle_probe's payoff (four times with zero deviations).  The best
    responses built from it are scored unchecked.
    """
    require_feasible(sol.tx, params.t_budget, params.m, "tx")
    require_feasible(sol.jam, params.j_budget, params.m, "jam")
    codes = np.asarray(sol.codes)
    if codes.shape != (params.m,) or codes.min() < 0 or codes.max() > 2:
        raise ValueError(f"codes of shape {codes.shape} are not {params.m} regime codes")

    value = float(utility_batch(params, sol.tx.powers, sol.jam.powers)[0])

    tx_star, _ = tx_best_response(params, sol.jam)
    tx_gap = float(utility_batch(params, tx_star.powers, sol.jam.powers)[0]) - value

    jam_star, _ = jam_best_response(params, sol.tx)
    jam_gap = value - float(utility_batch(params, sol.tx.powers, jam_star.powers)[0])

    probe = saddle_probe(params, sol.tx, sol.jam, trials=deviations, seed=seed)

    state = JammerKktState(
        u=sol.u,
        lambdas=jam_rate_gradient(params, sol.tx.powers, sol.jam.powers) + sol.u,
    )
    kkt = kkt_report(params, sol.tx, sol.jam, state)

    expected = classify_regimes(params.noise, sol.v, sol.w)
    tx, jam = sol.tx.powers, sol.jam.powers
    labeled = codes == expected
    jam_on = jam > 1e-9 * params.j_budget
    height = params.alpha_t * tx + params.alpha_j * jam + params.noise
    unused = labeled & (codes == 0) & ((tx > 1e-9 * params.t_budget) | jam_on)
    jammed = labeled & (codes == 1) & jam_on
    off = labeled & (codes != 0) & (np.abs(height - sol.v) > EPS_OPT * max(1.0, sol.v))
    regime_failures: list[str] = []
    for k in np.flatnonzero(~labeled | unused | jammed | off).tolist():
        if not labeled[k]:
            label, want = REGIME_LABELS[codes[k]].value, REGIME_LABELS[expected[k]].value
            regime_failures.append(f"channel {k}: labeled {label}, levels say {want}")
        if unused[k]:
            regime_failures.append(f"channel {k}: Unused but carries power")
        if jammed[k]:
            regime_failures.append(f"channel {k}: TxOnly but jammed")
        if off[k]:
            name = "contested" if codes[k] == 2 else "TxOnly"
            regime_failures.append(f"channel {k}: {name} height {height[k]:.12g} misses v")

    w_back = sol.v * params.alpha_j / (params.alpha_j + 2.0 * sol.u * sol.v)
    level_gap = abs(w_back - sol.w)
    u_back = _multiplier(params.alpha_j, sol.v, sol.w)
    multiplier_gap = abs(u_back - sol.u)

    ok = (
        tx_gap <= EPS_OPT
        and jam_gap <= EPS_OPT
        and probe.tx_excess <= EPS_OPT
        and probe.jam_shortfall <= EPS_OPT
        and kkt.ok(EPS_KKT)
        and not regime_failures
        and level_gap <= EPS_OPT * max(1.0, sol.w)
        and multiplier_gap <= EPS_OPT * max(1.0, sol.u)
    )
    return NashVerification(
        tx_gap=float(tx_gap),
        jam_gap=float(jam_gap),
        tx_excess=probe.tx_excess,
        jam_shortfall=probe.jam_shortfall,
        kkt=kkt,
        regime_failures=tuple(regime_failures),
        level_gap=float(level_gap),
        multiplier_gap=float(multiplier_gap),
        deviations=deviations,
        seed=seed,
        ok=ok,
    )
