"""Spans around the program's layer functions, recorded from outside it.

``patch`` replaces each target function with a recording wrapper in every
jamgame module that binds it (``from .x import f`` copies the binding at
import time, so patching only the defining module would miss most calls),
and puts the originals back.
Spans (name, start, end, parent, one or two quantities read from the return
value) live in flat in-memory arrays and are written out once, at the end.
``layer_metrics`` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

_CMDS = ("cmd_nash", "cmd_best_response", "cmd_oracle", "cmd_dynamics", "cmd_sweep")

#: (defining module, function, quantities read from its return value).
#: kkt_report and level_for_fills have no metric of their own: they are
#: wrapped so that the time the CLI spends verifying with them is subtracted
#: from the self time of the cmd_* spans (cli.self_ms).
TARGETS = (
    [("cli", "main", None), ("cli", "load_config", None)]
    + [("cli", cmd, None) for cmd in _CMDS]
    + [
        ("best_response", "jam_best_response", None),
        ("best_response", "jam_closed_form", None),
        ("best_response", "tx_best_response", None),
        ("best_response", "kkt_report", None),
        ("core", "sample_simplex", lambda r: (r.nbytes, 0.0)),
        ("core", "utility_batch", None),
        ("core", "utility", None),
        ("core", "require_feasible", None),
        ("equilibrium", "solve_nash", None),
        ("equilibrium", "verify_nash", None),
        ("waterfill", "water_fill", None),
        ("waterfill", "level_for_fills", None),
        ("oracle", "grid_minimax", lambda r: (r.n_points, 0.0)),
        ("oracle", "run_dynamics", lambda r: (r.n_iters, float(r.converged))),
    ]
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.qty2 = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, quantities):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        qty, qty2, stack, clock = self.qty, self.qty2, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            qty.append(0.0)
            qty2.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if quantities is not None:
                qty[idx], qty2[idx] = quantities(result)
            return result

        return wrapper

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            qty=np.frombuffer(self.qty),
            qty2=np.frombuffer(self.qty2),
        )


def wrappers(recorder: Recorder) -> tuple[list[tuple], list[str]]:
    """Wrap every target; return the (module, attribute, original, wrapper)
    bindings to patch, at every jamgame module that binds the target, and the
    targets not found."""
    modules = [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "jamgame"]
    bindings, missing = [], []
    for module_name, fn_name, quantities in TARGETS:
        original = getattr(sys.modules.get(f"jamgame.{module_name}"), fn_name, None)
        if original is None:
            missing.append(f"{module_name}.{fn_name}")
            continue
        wrapper = recorder.wrap(f"{module_name}.{fn_name}", original, quantities)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    bindings.append((module, attr, original, wrapper))
    return bindings, missing


def patch(bindings: list[tuple], traced: bool) -> None:
    """Bind every target to its wrapper (traced) or back to the original."""
    for module, attr, original, wrapper in bindings:
        setattr(module, attr, wrapper if traced else original)


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics from a span file, per CLI call unless stated otherwise.

    ``ms`` is inclusive time; ``self_ms`` subtracts the time of the wrapped
    child spans (a parent's span covers its children entirely).
    """
    spans = np.load(path)
    names = spans["names"][spans["name"]]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child

    def mask(fn: str) -> np.ndarray:
        return names == fn

    ops = max(int(mask("cli.main").sum()), 1)
    cmds = np.isin(names, [f"cli.{cmd}" for cmd in _CMDS])

    def ms(fn: str) -> float:
        return float(dur[mask(fn)].sum()) * 1e3 / ops

    def calls(fn: str) -> float:
        return float(mask(fn).sum()) / ops

    def self_ms(sel: np.ndarray) -> float:
        return float(own[sel].sum()) * 1e3 / ops

    def total(fn: str, column: str = "qty") -> float:
        return float(spans[column][mask(fn)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    jbr = mask("best_response.jam_best_response").sum()
    dyn = mask("oracle.run_dynamics").sum()
    return {
        "cli.argparse_ms": self_ms(mask("cli.main")),
        "cli.load_config.ms": ms("cli.load_config"),
        "cli.self_ms": self_ms(cmds),
        "best_response.jam_best_response.ms": ms("best_response.jam_best_response"),
        "best_response.jam_best_response.calls": calls("best_response.jam_best_response"),
        "best_response.jam_closed_form.calls": calls("best_response.jam_closed_form"),
        "best_response.multiplier_evals_per_call": ratio(
            mask("best_response.jam_closed_form").sum(), jbr
        ),
        "best_response.tx_best_response.ms": ms("best_response.tx_best_response"),
        "best_response.tx_best_response.calls": calls("best_response.tx_best_response"),
        "core.sample_simplex.ms": ms("core.sample_simplex"),
        "core.sample_simplex.bytes": total("core.sample_simplex") / ops,
        "core.utility_batch.ms": ms("core.utility_batch"),
        "core.utility.calls": calls("core.utility"),
        "core.utility.ms": ms("core.utility"),
        "core.require_feasible.calls": calls("core.require_feasible"),
        "core.require_feasible.ms": ms("core.require_feasible"),
        "equilibrium.solve_nash.ms": ms("equilibrium.solve_nash"),
        "equilibrium.solve_nash.self_ms": self_ms(mask("equilibrium.solve_nash")),
        "equilibrium.verify_nash.ms": ms("equilibrium.verify_nash"),
        "equilibrium.verify_nash.self_ms": self_ms(mask("equilibrium.verify_nash")),
        "waterfill.water_fill.ms": ms("waterfill.water_fill"),
        "waterfill.water_fill.calls": calls("waterfill.water_fill"),
        "oracle.grid_minimax.ms": ms("oracle.grid_minimax"),
        "oracle.grid_minimax.points": total("oracle.grid_minimax") / ops,
        "oracle.grid_minimax.us_per_point": ratio(
            float(dur[mask("oracle.grid_minimax")].sum()) * 1e6, total("oracle.grid_minimax")
        ),
        "oracle.run_dynamics.ms": ms("oracle.run_dynamics"),
        "oracle.run_dynamics.steps": total("oracle.run_dynamics") / ops,
        "oracle.run_dynamics.converged": ratio(total("oracle.run_dynamics", "qty2"), dyn),
        "oracle.run_dynamics.step_us": ratio(
            float(dur[mask("oracle.run_dynamics")].sum()) * 1e6, total("oracle.run_dynamics")
        ),
    }
