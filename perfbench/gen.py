"""Seeded input generators for the benchmark workloads.

Each generator writes game configs into a directory and returns a plan: the
list of CLI calls the client cycles through, how many of them warm up, and
the workload's sizes and command mix (BENCHMARK.json says why each workload
exists).  The same seed always gives the same configs and the same calls.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: Acceptance-test ranges for random games.
NOISE = (0.5, 8.0)
BUDGET = (0.5, 5.0)
GAIN = (0.5, 2.0)

# One 40-call block of the cli-small mix, repeated: 28 nash, 3 + 3 best
# responses, 5 sweeps, 1 dynamics.  The order inside the block is fixed so
# that a run that stops mid-cycle still sees the same proportions.
_KINDS = {"N": "nash", "T": "br-tx", "J": "br-jam", "S": "sweep", "D": "dynamics"}
CLI_SMALL_BLOCK = [_KINDS[c] for c in "NNNTNNNSNNNJNNNSNNNTNNNJNNSNNNTNNJNNSNSD"]
CLI_SMALL_BLOCKS = 25
DYNAMICS_MAX_ITERS = 40
SWEEP_STEPS = 3

WIDE_M = 65_536
WIDE_GAMES = 3

# grid-oracle: (channels, resolution) cycled as M=3, M=3, M=4 so that the
# median call always falls among the M = 3 calls.  The calls leave out
# --verify, which only turns a within_bound of false into exit code 3: the
# work is the same, and known defect (b) would fail a correct call on about
# 3 % of seeds (an equilibrium jammer on a grid vertex).  run.py still reports
# each such within_bound as a note.
GRID_PATTERN = ((3, 201), (3, 201), (4, 41))
GRID_CYCLES = 2


def _game(rng: np.random.Generator, m: int, budget_scale: float = 1.0) -> dict:
    return {
        "alpha_t": float(rng.uniform(*GAIN)),
        "alpha_j": float(rng.uniform(*GAIN)),
        "t_budget": float(rng.uniform(*BUDGET) * budget_scale),
        "j_budget": float(rng.uniform(*BUDGET) * budget_scale),
        "channels": [float(x) for x in rng.uniform(*NOISE, size=m)],
    }


def _write(cfg: dict, directory: str, index: int) -> str:
    path = os.path.join(directory, f"game{index:04d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def _simplex_point(rng: np.random.Generator, m: int, budget: float) -> list[float]:
    return [float(x) for x in rng.dirichlet(np.ones(m)) * budget]


def _cli_small_call(rng: np.random.Generator, kind: str, cfg: dict, path: str) -> dict:
    m = len(cfg["channels"])
    call = {"kind": kind, "config": cfg}
    if kind == "nash":
        call["argv"] = ["nash", "--config", path, "--verify"]
    elif kind in ("br-tx", "br-jam"):
        player, budget = ("tx", cfg["j_budget"]) if kind == "br-tx" else ("jam", cfg["t_budget"])
        fixed = _simplex_point(rng, m, budget)
        call["fixed"] = fixed
        call["argv"] = [
            "best-response", "--config", path, "--verify", "--player", player,
            "--fixed", ",".join(repr(x) for x in fixed),
        ]
    elif kind == "sweep":
        choice = int(rng.integers(0, 3))
        if choice == 2:
            vary = f"noise:{int(rng.integers(1, m + 1))}"
            lo = float(rng.uniform(0.5, 4.0))
            hi = lo + float(rng.uniform(0.5, 4.0))
        else:
            vary = ("t_budget", "j_budget")[choice]
            lo = float(rng.uniform(0.5, 2.5))
            hi = lo + float(rng.uniform(0.5, 2.5))
        call["sweep"] = {"vary": vary, "from": lo, "to": hi, "steps": SWEEP_STEPS}
        call["argv"] = [
            "sweep", "--config", path, "--verify", "--vary", vary,
            "--from", repr(lo), "--to", repr(hi), "--steps", str(SWEEP_STEPS),
        ]
    else:
        seed = int(rng.integers(0, 2**31))
        call["dynamics"] = {"seed": seed, "max_iters": DYNAMICS_MAX_ITERS}
        call["argv"] = [
            "dynamics", "--config", path, "--seed", str(seed),
            "--max-iters", str(DYNAMICS_MAX_ITERS),
        ]
    return call


def cli_small(seed: int, directory: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    calls = []
    for index, kind in enumerate(CLI_SMALL_BLOCK * CLI_SMALL_BLOCKS):
        cfg = _game(rng, int(rng.integers(2, 9)))
        calls.append(_cli_small_call(rng, kind, cfg, _write(cfg, directory, index)))
    return {"calls": calls, "warmup": len(CLI_SMALL_BLOCK), "sizes": "M in [2, 8]"}


def wide_verify(seed: int, directory: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    calls = []
    for index in range(WIDE_GAMES):
        cfg = _game(rng, WIDE_M, budget_scale=WIDE_M)
        path = _write(cfg, directory, index)
        calls.append({"kind": "nash", "config": cfg, "argv": ["nash", "--config", path, "--verify"]})
    return {"calls": calls, "warmup": 1, "sizes": f"M = {WIDE_M}, budgets ~ U(0.5, 5) * M"}


def grid_oracle(seed: int, directory: str) -> dict:
    rng = np.random.default_rng([seed, 3])
    calls = []
    for index, (m, resolution) in enumerate(GRID_PATTERN * GRID_CYCLES):
        cfg = _game(rng, m)
        path = _write(cfg, directory, index)
        calls.append({
            "kind": "oracle",
            "config": cfg,
            "resolution": resolution,
            "argv": ["oracle", "--config", path, "--resolution", str(resolution)],
        })
    sizes = ", ".join(
        f"M = {m} at resolution {r} ({math.comb(r - 1 + m - 1, m - 1)} points)"
        for m, r in dict.fromkeys(GRID_PATTERN)
    )
    return {"calls": calls, "warmup": 1, "sizes": sizes}


GENERATORS = {"cli-small": cli_small, "wide-verify": wide_verify, "grid-oracle": grid_oracle}


def make_plan(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's configs into ``directory`` and return its plan."""
    os.makedirs(directory, exist_ok=True)
    plan = GENERATORS[workload](seed, directory)
    mix: dict[str, int] = {}
    for call in plan["calls"]:
        mix[call["kind"]] = mix.get(call["kind"], 0) + 1
    plan["mix"] = mix
    return plan


def setup_game(seed: int) -> dict:
    """The 2-channel game whose cold CLI call measures set-up time."""
    return _game(np.random.default_rng([seed, 0]), 2)
