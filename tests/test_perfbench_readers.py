"""The traced benchmark reads quantities off the results of some library
functions (perfbench/spans.py, TARGETS).  A record refactor that renames or
drops such a field would break the traced run silently; here every reader is
applied to a real result of its function."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from jamgame import GridSpec, grid_minimax, run_dynamics, sample_simplex

from conftest import make_params

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


_GAME = make_params([1.0, 2.0, 4.0], 3.0, 1.5)

#: One real call of every function that has a reader, and what it should read.
CALLS = {
    "sample_simplex": (
        lambda: sample_simplex(np.random.default_rng(1), 5, 3, 2.0), (5 * 3 * 8, 0.0)
    ),
    "grid_minimax": (lambda: grid_minimax(_GAME, GridSpec(resolution=9, m=3)), (45, 0.0)),
    "run_dynamics": (lambda: run_dynamics(_GAME, max_iters=3), (3, 0.0)),
}


def test_every_target_exists():
    for module, name, _ in _targets():
        assert callable(getattr(importlib.import_module(f"jamgame.{module}"), name, None))


def test_every_reader_has_a_call():
    assert {name for _, name, read in _targets() if read is not None} == set(CALLS)


@pytest.mark.parametrize("name", list(CALLS))
def test_reader_applies_to_a_real_result(name):
    (read,) = [read for _, fn, read in _targets() if fn == name]
    call, expected = CALLS[name]
    assert tuple(float(v) for v in read(call())) == expected
