"""Command-line front end for the power allocation game solvers.

Reads a flat JSON config describing the game, runs the requested solver or
checker, and emits JSON, CSV, or a plain table.  All numbers are serialized
with 12 significant digits so identical inputs produce byte-identical output.
Exit codes: 0 success, 2 input error, 3 verification failure.

``main(argv)`` may be called any number of times in one process.  It builds
the argument parser once, on its first call, and finds each subcommand's
``cmd_*`` handler by name when the call runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import Callable

import numpy as np

from .best_response import jam_best_response, kkt_report, tx_best_response
from .core import (
    Allocation,
    GameParams,
    require_feasible,
    sample_simplex,
    utility_batch,
)
from .equilibrium import REGIME_LABELS, NashSolution, solve_nash, verify_nash
from .oracle import EPS_DYN, GridSpec, grid_minimax, run_dynamics
from .waterfill import EPS_SOLVE, level_for_fills

__all__ = [
    "ConfigError",
    "cmd_best_response",
    "cmd_dynamics",
    "cmd_nash",
    "cmd_oracle",
    "cmd_sweep",
    "load_config",
    "main",
    "run",
]


class ConfigError(ValueError):
    """Raised when a config file or CLI argument is unusable; maps to exit 2."""


_SCALARS = ("alpha_t", "alpha_j", "t_budget", "j_budget")
_REQUIRED_FIELDS = _SCALARS + ("channels",)
_KNOWN_FIELDS = _REQUIRED_FIELDS + ("noise_unit",)
#: The most values one sweep solves: each is a solve_nash call and an output row.
_MAX_SWEEP_STEPS = 10_000
#: The most steps x M one sweep may hold: every row is kept until it is written.
_MAX_SWEEP_ENTRIES = 2_000_000


def _number(value: object, name: str) -> float:
    """A config number as a finite float; JSON booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{name} must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def load_config(path: str) -> GameParams:
    """Read and validate a flat JSON config; dB noise converts here, once."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _KNOWN_FIELDS:
            raise ConfigError(f"unknown config field: {key}")
    for key in _REQUIRED_FIELDS:
        if key not in raw:
            raise ConfigError(f"{key} is required")

    scalars = {}
    for key in _SCALARS:
        value = _number(raw[key], key)
        if value <= 0.0:
            raise ConfigError(f"{key} must be positive")
        scalars[key] = value

    unit = raw.get("noise_unit", "linear")
    if unit not in ("linear", "db"):
        raise ConfigError("noise_unit must be 'linear' or 'db'")

    channels = raw["channels"]
    if not isinstance(channels, list) or not channels:
        raise ConfigError("channels must be non-empty")
    noise: list[float] = []
    for k, entry in enumerate(channels):
        value = _number(entry, f"channels[{k}]")
        if unit == "db":
            try:
                value = 10.0 ** (value / 10.0)
            except OverflowError:
                raise ConfigError(f"channels[{k}] is too large to convert from dB") from None
        if value <= 0.0:
            raise ConfigError(f"channels[{k}] must be positive")
        noise.append(value)

    return GameParams(noise=np.array(noise), **scalars)


# ---------------------------------------------------------------------------
# output: every command builds one rounded record and hands it to _emit

def _s12(x: float) -> str:
    return f"{float(x):.12g}"


def _f12(x: float) -> float:
    return float(_s12(x))


def _echo(params: GameParams) -> dict:
    record = {key: _f12(getattr(params, key)) for key in _SCALARS}
    return {**record, "channels": [_f12(n) for n in params.noise]}


def _show(x: object) -> str:
    """One table value: floats to 12 digits, lists in brackets, booleans in lower case."""
    if isinstance(x, float):
        return _s12(x)
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, list):
        return f"[{', '.join(map(_show, x))}]"
    return str(x)


def _lines(record: dict, *keys: str, sep: str = "\n") -> str:
    """Table text ``key = value`` for ``keys`` of ``record``, joined by ``sep``."""
    return sep.join(f"{key} = {_show(record[key])}" for key in keys) + "\n"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def _emit(
    args: argparse.Namespace,
    record: dict,
    table: Callable[[], str],
    csv: Callable[[], str] | None = None,
) -> None:
    """Write ``record`` as JSON, or the text ``table()`` or ``csv()`` builds, per --format.

    The output goes to --out when given, else to stdout.  A file that cannot
    be written is a ConfigError, so the call exits 2.
    """
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "table":
        text = table()
    else:
        text = csv()
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


_CSV_SCALARS = ("varied", "value", "v", "w", "u")
_KKT_RESIDUALS = ("stationarity", "complementarity", "dual_violation", "primal_gap")


def _nash_row(varied: float | None, sol: NashSolution) -> dict:
    """One solved game, rounded: the one place a NashSolution is rounded."""
    return {
        "varied": varied,
        "value": _f12(sol.value),
        "v": _f12(sol.v),
        "w": _f12(sol.w),
        "u": _f12(sol.u),
        "tx_powers": [_f12(p) for p in sol.tx.powers],
        "jam_powers": [_f12(p) for p in sol.jam.powers],
        "regimes": [REGIME_LABELS[code].value for code in sol.codes.tolist()],
    }


def _row_cells(row: dict) -> list[str]:
    cells = ["" if row["varied"] is None else _s12(row["varied"])]
    cells += [_s12(row[key]) for key in _CSV_SCALARS[1:]]
    cells += [_s12(p) for p in row["tx_powers"] + row["jam_powers"]]
    return cells + row["regimes"]


def _csv(rows: list[dict]) -> str:
    m = len(rows[0]["regimes"])
    cols = list(_CSV_SCALARS)
    cols += [f"{name}_{k}" for name in ("T", "J", "regime") for k in range(1, m + 1)]
    lines = [",".join(cols)] + [",".join(_row_cells(row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# nash

def _verification_record(params: GameParams, sol: NashSolution) -> dict:
    report = verify_nash(params, sol)
    return {
        "ok": report.ok,
        "tx_gap": _f12(report.tx_gap),
        "jam_gap": _f12(report.jam_gap),
        "tx_excess": _f12(report.tx_excess),
        "jam_shortfall": _f12(report.jam_shortfall),
        **{f"kkt_{key}": _f12(getattr(report.kkt, key)) for key in _KKT_RESIDUALS},
        "regime_failures": list(report.regime_failures),
        "level_gap": _f12(report.level_gap),
        "multiplier_gap": _f12(report.multiplier_gap),
        "deviations": report.deviations,
        "seed": report.seed,
    }


def cmd_nash(args: argparse.Namespace) -> int:
    params = load_config(args.config)
    sol = solve_nash(params)
    config = _echo(params)
    row = _nash_row(None, sol)
    columns = (config["channels"], row["tx_powers"], row["jam_powers"], row["regimes"])
    solution = {key: row[key] for key in ("v", "w", "u", "value")}
    solution["channels"] = [
        {"k": k, "noise": n, "tx_power": t, "jam_power": j, "regime": r}
        for k, (n, t, j, r) in enumerate(zip(*columns), 1)
    ]
    record = {"command": "nash", "config": config, "solution": solution}
    code = 0
    if args.verify:
        record["verification"] = _verification_record(params, sol)
        if not record["verification"]["ok"]:
            code = 3

    def table() -> str:
        rows = enumerate(zip(*columns), 1)
        cells = [[str(k), _s12(n), _s12(t), _s12(j), r] for k, (n, t, j, r) in rows]
        header = ["k", "noise", "tx_power", "jam_power", "regime"]
        text = _lines(solution, "v", "w", "u", "value") + _table([header, *cells])
        if args.verify:
            text += f"verification: {'pass' if code == 0 else 'FAIL'}\n"
        return text

    _emit(args, record, table, lambda: _csv([row]))
    return code


# ---------------------------------------------------------------------------
# best-response

def _parse_fixed(
    text: str, m: int, budget: float, who: str, allow_all_zero: bool = False
) -> Allocation:
    try:
        powers = np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"--fixed must be comma-separated numbers: {exc}") from exc
    alloc = Allocation(powers=powers, budget=budget)
    if allow_all_zero and powers.size == m and not np.any(powers != 0.0):
        return alloc
    try:
        require_feasible(alloc, budget, m, who)
    except ValueError as exc:
        raise ConfigError(f"--fixed: {exc}") from exc
    return alloc


def cmd_best_response(args: argparse.Namespace) -> int:
    params = load_config(args.config)
    record: dict = {"command": "best-response", "config": _echo(params), "player": args.player}

    if args.player == "tx":
        jam = _parse_fixed(args.fixed, params.m, params.j_budget, "jammer")
        record["fixed_jam"] = [_f12(p) for p in jam.powers]
        tx, level = tx_best_response(params, jam)
        check = level_for_fills(
            params.alpha_j * jam.powers + params.noise, params.alpha_t * tx.powers
        )
        resp = record["response"] = {
            "tx_powers": [_f12(p) for p in tx.powers],
            "level": _f12(level),
            "value": _f12(float(utility_batch(params, tx.powers, jam.powers)[0])),
            "level_consistent": check.consistent,
        }
        shown, tail = ("tx_powers", "level", "value", "level_consistent"), ""
        verified_ok = check.consistent
    else:
        tx = _parse_fixed(
            args.fixed, params.m, params.t_budget, "transmitter", allow_all_zero=True
        )
        record["fixed_tx"] = [_f12(p) for p in tx.powers]
        jam, state = jam_best_response(params, tx)
        report = kkt_report(params, tx, jam, state)
        value = float(utility_batch(params, tx.powers, jam.powers)[0])
        resp = record["response"] = {
            "jam_powers": [_f12(p) for p in jam.powers],
            "u": _f12(state.u),
            "lambdas": [_f12(lam) for lam in state.lambdas],
            "value": _f12(value),
            "kkt": {key: _f12(getattr(report, key)) for key in _KKT_RESIDUALS}
            | {"ok": report.ok()},
        }
        kkt = resp["kkt"]
        shown = ("jam_powers", "u", "lambdas", "value")
        tail = (
            f"kkt residuals: stationarity={_show(kkt['stationarity'])} "
            f"complementarity={_show(kkt['complementarity'])} "
            f"dual={_show(kkt['dual_violation'])} primal={_show(kkt['primal_gap'])}\n"
        )
        if state.degenerate:
            resp["note"] = (
                "degenerate: any allocation optimal; "
                "canonical noise-waterfilling returned"
            )
            tail += resp["note"] + "\n"
        verified_ok = report.ok()

    _emit(args, record, lambda: _lines(record, "player") + _lines(resp, *shown) + tail)
    return 3 if args.verify and not verified_ok else 0


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args: argparse.Namespace) -> int:
    params = load_config(args.config)
    if params.m > 4:
        raise ConfigError(
            f"oracle supports at most 4 channels (config has {params.m}); "
            "the grid grows combinatorially beyond that"
        )
    spec = GridSpec(resolution=args.resolution, m=params.m)
    # solve first: a game that solve_nash rejects exits before the grid runs
    sol = solve_nash(params)
    result = grid_minimax(params, spec)
    gap = result.value - sol.value
    record = {
        "command": "oracle",
        "config": _echo(params),
        "resolution": args.resolution,
        "n_points": result.n_points,
        "grid_value": _f12(result.value),
        "nash_value": _f12(sol.value),
        "gap": _f12(gap),
        "spacing": _f12(result.spacing),
        "lipschitz_bound": _f12(result.lipschitz_bound),
        "gap_bound": _f12(result.gap_bound),
        "grid_jam": [_f12(p) for p in result.jam],
    }
    # the grid value bounds the game value from above; allow rounding below
    ok = -EPS_SOLVE * max(1.0, sol.value) <= gap <= result.gap_bound
    record["within_bound"] = ok

    def table() -> str:
        return (
            f"resolution = {args.resolution} ({result.n_points} grid points)\n"
            + _lines(record, "grid_value", "nash_value")
            + f"gap = {_show(record['gap'])} (bound {_show(record['gap_bound'])})\n"
            + _lines(record, "grid_jam", "within_bound")
        )

    _emit(args, record, table)
    return 3 if args.verify and not ok else 0


# ---------------------------------------------------------------------------
# dynamics

def cmd_dynamics(args: argparse.Namespace) -> int:
    params = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    start = (
        sample_simplex(rng, 1, params.m, params.t_budget)[0],
        sample_simplex(rng, 1, params.m, params.j_budget)[0],
    )
    trace = run_dynamics(
        params,
        damping=args.gamma,
        max_iters=args.max_iters,
        start=start,
        alternating=args.alternating,
    )
    record = {
        "command": "dynamics",
        "config": _echo(params),
        "gamma": _f12(args.gamma),
        "seed": args.seed,
        "max_iters": args.max_iters,
        "alternating": args.alternating,
        "start_tx": [_f12(p) for p in start[0]],
        "start_jam": [_f12(p) for p in start[1]],
        "iterations": trace.n_iters,
        "converged": trace.converged,
        "final_distance": _f12(trace.final_distance),
        "final_tx": [_f12(p) for p in trace.final_tx],
        "final_jam": [_f12(p) for p in trace.final_jam],
        "final_value": _f12(trace.final_value),
    }
    ok = trace.converged and trace.final_distance <= EPS_DYN

    def table() -> str:
        return (
            _lines(record, "gamma", "seed", sep="  ")
            + _lines(record, "iterations", "converged", sep="  ")
            + _lines(record, "final_distance", "final_tx", "final_jam", "final_value")
        )

    _emit(args, record, table)
    return 3 if args.verify and not ok else 0


# ---------------------------------------------------------------------------
# sweep

def _vary_channel(key: str, m: int) -> int | None:
    """Check a --vary key; the 0-based channel of ``noise:<k>``, None for a budget."""
    if key in ("t_budget", "j_budget"):
        return None
    if key.startswith("noise:"):
        suffix = key.split(":", 1)[1]
        k = suffix.lstrip("0") or "0"  # no int() of more digits than m has
        if suffix.isascii() and suffix.isdigit() and len(k) <= len(str(m)) and 1 <= int(k) <= m:
            return int(k) - 1
        raise ConfigError(f"unknown --vary key: {key} (channel index must be 1..{m})")
    raise ConfigError(f"unknown --vary key: {key}")


def _sweep_params(
    params: GameParams, key: str, channel: int | None, value: float
) -> GameParams:
    if channel is None:
        return replace(params, **{key: value})
    noise = params.noise.copy()
    noise[channel] = value
    return replace(params, noise=noise)


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    channel = _vary_channel(args.vary, base.m)
    if not (math.isfinite(args.from_) and math.isfinite(args.to)):
        raise ConfigError("--from and --to must be finite")
    if not args.from_ < args.to:
        raise ConfigError("--from must be less than --to")
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    if args.steps > _MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must be at most {_MAX_SWEEP_STEPS}")
    if args.steps * base.m > _MAX_SWEEP_ENTRIES:
        raise ConfigError(f"--steps times channels must be at most {_MAX_SWEEP_ENTRIES}")
    if args.from_ <= 0.0:
        raise ConfigError(f"--from must be positive when varying {args.vary}")

    rows = []
    all_ok = True
    # near the float range, linspace overflows at its last point, then sets it to --to
    with np.errstate(over="ignore"):
        values = np.linspace(args.from_, args.to, args.steps)
    for value in values:
        params = _sweep_params(base, args.vary, channel, float(value))
        sol = solve_nash(params)
        if args.verify:
            all_ok = all_ok and verify_nash(params, sol).ok
        rows.append(_nash_row(_f12(value), sol))

    record = {"command": "sweep", "config": _echo(base), "vary": args.vary, "rows": rows}
    width = len(_CSV_SCALARS)
    _emit(
        args,
        record,
        lambda: _table([list(_CSV_SCALARS)] + [_row_cells(row)[:width] for row in rows]),
        lambda: _csv(rows),
    )
    return 3 if args.verify and not all_ok else 0


# ---------------------------------------------------------------------------
# entry points

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="jamgame",
        description="Solvers for the transmitter-vs-jammer power allocation game.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON game config")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument("--verify", action="store_true", help="run self-checks; exit 3 on failure")

    sub = parser.add_subparsers(dest="command", required=True)

    p_nash = sub.add_parser("nash", parents=[common], help="solve for the Nash equilibrium")
    p_nash.add_argument("--format", choices=("json", "table", "csv"), default="json")

    p_br = sub.add_parser(
        "best-response", parents=[common], help="best response to a fixed opponent allocation"
    )
    p_br.add_argument("--format", choices=("json", "table"), default="json")
    p_br.add_argument("--player", choices=("tx", "jam"), required=True)
    p_br.add_argument(
        "--fixed",
        required=True,
        help="opponent allocation as comma-separated powers, e.g. 1,0",
    )

    p_oracle = sub.add_parser(
        "oracle", parents=[common], help="brute-force minimax check of the equilibrium value"
    )
    p_oracle.add_argument("--format", choices=("json", "table"), default="json")
    p_oracle.add_argument("--resolution", type=int, default=101)

    p_dyn = sub.add_parser(
        "dynamics", parents=[common], help="damped best-response dynamics from a seeded start"
    )
    p_dyn.add_argument("--format", choices=("json", "table"), default="json")
    p_dyn.add_argument("--gamma", type=float, default=0.5)
    p_dyn.add_argument("--seed", type=int, default=0)
    p_dyn.add_argument("--max-iters", type=int, default=10_000)
    p_dyn.add_argument("--alternating", action="store_true")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="solve across a swept parameter, one CSV row per step"
    )
    p_sweep.add_argument("--format", choices=("json", "table", "csv"), default="csv")
    p_sweep.add_argument(
        "--vary",
        required=True,
        help="t_budget, j_budget, or noise:<k> with k a 1-based channel index",
    )
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Look the handler up by name at call time: the cached parser holds no
    # function, so a rebinding of cmd_* in this module takes effect.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
