"""Shared fixtures and independent re-computation helpers.

The helpers here deliberately avoid the package's own code paths: rates are
recomputed with scalar math.log, optima are found by brute-force grids, so
tests compare two genuinely different routes to the same number.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from jamgame import Allocation, ChannelSet, GameParams
from jamgame.best_response import jam_closed_form
from jamgame.core import require_feasible


def make_params(noise, t_budget, j_budget, alpha_t=1.0, alpha_j=1.0) -> GameParams:
    return GameParams(
        channels=ChannelSet(
            noise=np.array(noise, dtype=float), alpha_t=alpha_t, alpha_j=alpha_j
        ),
        t_budget=t_budget,
        j_budget=j_budget,
    )


def alloc(powers, budget) -> Allocation:
    return Allocation(powers=np.array(powers, dtype=float), budget=budget)


def rate(noise, alpha_t, alpha_j, tx_powers, jam_powers) -> float:
    """Scalar re-evaluation of the payoff, term by term, via math.log."""
    total = 0.0
    for n, t, j in zip(noise, tx_powers, jam_powers):
        total += 0.5 * math.log(1.0 + alpha_t * t / (alpha_j * j + n))
    return total


def simplex_grid(budget: float, m: int, resolution: int):
    """Every point of the discretized simplex, for brute-force oracles."""
    steps = resolution - 1
    h = budget / steps
    for combo in itertools.product(range(steps + 1), repeat=m - 1):
        remainder = steps - sum(combo)
        if remainder >= 0:
            yield np.array(combo + (remainder,), dtype=float) * h


def random_instance(rng: np.random.Generator, m: int | None = None) -> GameParams:
    """One game drawn from the acceptance-test parameter ranges, with 2 or 3
    channels unless ``m`` is given."""
    if m is None:
        m = int(rng.integers(2, 4))
    return make_params(
        noise=rng.uniform(0.5, 8.0, size=m),
        t_budget=float(rng.uniform(0.5, 5.0)),
        j_budget=float(rng.uniform(0.5, 5.0)),
        alpha_t=float(rng.uniform(0.5, 2.0)),
        alpha_j=float(rng.uniform(0.5, 2.0)),
    )


@pytest.fixture
def symmetric2() -> GameParams:
    return make_params([1.0, 1.0], 2.0, 1.0)


@pytest.fixture
def asym3() -> GameParams:
    return make_params([1.0, 3.0, 6.0], 4.0, 1.0)


@pytest.fixture
def single1() -> GameParams:
    return make_params([1.0], 1.0, 1.0)


def _patch_everywhere(monkeypatch, name: str, original, replacement) -> None:
    """Replace ``original`` by ``replacement`` at every jamgame module that
    binds it under ``name``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] != "jamgame":
            continue
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def feasibility_checks(monkeypatch):
    """Record the ``who`` of every require_feasible call, at every jamgame
    module that binds it."""
    calls = []

    def counting(alloc, budget, m, who):
        calls.append(who)
        return require_feasible(alloc, budget, m, who)

    _patch_everywhere(monkeypatch, "require_feasible", require_feasible, counting)
    return calls


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Record the multiplier u of every jam_closed_form call, at every
    jamgame module that binds it."""
    calls = []

    def counting(params, tx, u):
        calls.append(u)
        return jam_closed_form(params, tx, u)

    _patch_everywhere(monkeypatch, "jam_closed_form", jam_closed_form, counting)
    return calls
