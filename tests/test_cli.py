"""CLI behavior: config validation, record contents, formats, exit codes,
byte-level determinism, and golden-file comparison."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jamgame import (
    Allocation,
    GameParams,
    RegimeLabel,
    solve_nash,
    utility,
    verify_nash,
)
import jamgame.cli as cli_module
from jamgame.cli import ConfigError, load_config, main
from jamgame.core import BUDGET_RTOL
from jamgame.equilibrium import REGIME_LABELS, NashSolution
from jamgame.oracle import MAX_GRID_POINTS

from conftest import make_params

GOLDEN = Path(__file__).parent / "golden"

_SWEEP_J = ("--vary", "j_budget", "--from", "0.5", "--to", "2.5", "--steps", "5")

#: Golden file -> CLI arguments after the command, run on the default
#: two-channel config of ``write_config`` unless GOLDEN_CONFIGS overrides it.
#: nash_m2.json and sweep_m2.csv have their own tests below.
GOLDEN_CASES = {
    "nash_m2_table.txt": ("nash", "--verify", "--format", "table"),
    "nash_m2.csv": ("nash", "--verify", "--format", "csv"),
    "sweep_m2.json": ("sweep", *_SWEEP_J, "--format", "json"),
    "sweep_m2_table.txt": ("sweep", *_SWEEP_J, "--format", "table"),
    "sweep_m2_noise2.csv": (
        "sweep", "--vary", "noise:2", "--from", "0.5", "--to", "4", "--steps", "8",
    ),
    "best_response_m2_tx.json": ("best-response", "--player", "tx", "--fixed", "1,0"),
    "best_response_m2_jam.json": ("best-response", "--player", "jam", "--fixed", "2,0"),
    "oracle_m2.json": ("oracle", "--resolution", "21"),
    "dynamics_m2.json": ("dynamics", "--seed", "3", "--max-iters", "40"),
    "best_response_m2_tx_table.txt": (
        "best-response", "--player", "tx", "--fixed", "1,0", "--format", "table",
    ),
    "best_response_m2_jam_table.txt": (
        "best-response", "--player", "jam", "--fixed", "2,0", "--format", "table",
    ),
    "best_response_m2_jam_degenerate_table.txt": (
        "best-response", "--player", "jam", "--fixed", "0,0", "--format", "table",
    ),
    "oracle_m2_table.txt": ("oracle", "--resolution", "21", "--format", "table"),
    "dynamics_m2_table.txt": (
        "dynamics", "--seed", "3", "--max-iters", "40", "--format", "table",
    ),
    "nash_m3_regimes.json": ("nash", "--verify"),
    "nash_m3_regimes_table.txt": ("nash", "--verify", "--format", "table"),
    "nash_m3_regimes.csv": ("nash", "--verify", "--format", "csv"),
}

#: A game with one channel in each regime: Contested, TxOnly and Unused.
_THREE_REGIMES = {"t_budget": 4.0, "j_budget": 1.0, "channels": [1.0, 3.0, 6.0]}

#: Golden file -> config overrides, for the files not on the default config.
GOLDEN_CONFIGS = {
    "nash_m3_regimes.json": _THREE_REGIMES,
    "nash_m3_regimes_table.txt": _THREE_REGIMES,
    "nash_m3_regimes.csv": _THREE_REGIMES,
}


#: Every golden file with its arguments, including the two with own tests.
ALL_GOLDEN_CASES = {
    **GOLDEN_CASES,
    "nash_m2.json": ("nash", "--verify"),
    "sweep_m2.csv": ("sweep", *_SWEEP_J),
}


def write_config(tmp_path, name="game.json", **overrides):
    config = {
        "alpha_t": 1.0,
        "alpha_j": 1.0,
        "t_budget": 2.0,
        "j_budget": 1.0,
        "channels": [1.0, 1.0],
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def solution_from_record(record: dict) -> tuple[GameParams, NashSolution]:
    """Rebuild (GameParams, NashSolution) from a nash JSON record."""
    cfg = record["config"]
    params = GameParams(
        noise=np.array(cfg["channels"], dtype=float),
        alpha_t=cfg["alpha_t"],
        alpha_j=cfg["alpha_j"],
        t_budget=cfg["t_budget"],
        j_budget=cfg["j_budget"],
    )
    sol_rec = record["solution"]
    rows = sol_rec["channels"]
    sol = NashSolution(
        tx=Allocation(np.array([row["tx_power"] for row in rows]), params.t_budget),
        jam=Allocation(np.array([row["jam_power"] for row in rows]), params.j_budget),
        v=float(sol_rec["v"]),
        w=float(sol_rec["w"]),
        u=float(sol_rec["u"]),
        codes=np.array(
            [REGIME_LABELS.index(RegimeLabel(row["regime"])) for row in rows], dtype=np.int8
        ),
        value=float(sol_rec["value"]),
    )
    return params, sol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_keeping_the_exit_contract(argv, codes=(0, 2, 3)):
    """Run ``main(argv)`` in process with warnings as errors and check the exit
    contract: a code in ``codes``, no traceback, and on exit 2 an empty stdout
    and a message on stderr.  Returns the code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects an unparsable value
                code = exc.code
    assert code in codes, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().strip()
    return code, out.getvalue(), err.getvalue()


def golden_argv(tmp_path, name):
    """The CLI arguments that produce golden file ``name``."""
    command, *rest = ALL_GOLDEN_CASES[name]
    path = write_config(tmp_path, **GOLDEN_CONFIGS.get(name, {}))
    return (command, "--config", path, *rest)


class TestLoadConfig:
    def test_valid_config(self, tmp_path):
        params = load_config(write_config(tmp_path))
        assert params.m == 2
        assert list(params.noise) == [1.0, 1.0]
        assert params.t_budget == 2.0

    def test_db_noise_converts_once(self, tmp_path):
        path = write_config(tmp_path, channels=[0.0, 10.0, -3.0], noise_unit="db")
        noise = load_config(path).noise
        assert noise[0] == pytest.approx(1.0)
        assert noise[1] == pytest.approx(10.0)
        assert noise[2] == pytest.approx(10.0 ** (-0.3))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha_t": 1.0}))
        with pytest.raises(ConfigError, match="alpha_j is required"):
            load_config(str(path))

    def test_unknown_field_named(self, tmp_path):
        path = write_config(tmp_path, extra=1)
        with pytest.raises(ConfigError, match="unknown config field: extra"):
            load_config(path)

    def test_zero_j_budget_rejected(self, tmp_path):
        path = write_config(tmp_path, j_budget=0)
        with pytest.raises(ConfigError, match="j_budget must be positive"):
            load_config(path)

    def test_empty_channels_rejected(self, tmp_path):
        path = write_config(tmp_path, channels=[])
        with pytest.raises(ConfigError, match="channels must be non-empty"):
            load_config(path)

    def test_non_numeric_channel_named(self, tmp_path):
        path = write_config(tmp_path, channels=[1.0, "x"])
        with pytest.raises(ConfigError, match=r"channels\[1\] must be a number"):
            load_config(path)

    def test_bad_noise_unit(self, tmp_path):
        path = write_config(tmp_path, noise_unit="watts")
        with pytest.raises(ConfigError, match="noise_unit"):
            load_config(path)

    def test_negative_linear_channel_rejected(self, tmp_path):
        path = write_config(tmp_path, channels=[1.0, -2.0])
        with pytest.raises(ConfigError, match=r"channels\[1\] must be positive"):
            load_config(path)

    def test_db_noise_too_large_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, channels=[4000, 1], noise_unit="db")
        with pytest.raises(ConfigError, match=r"channels\[0\] is too large to convert from dB"):
            load_config(path)
        code, out, err = run_cli(capsys, "nash", "--config", path)
        assert (code, out) == (2, "")
        assert err == "error: channels[0] is too large to convert from dB\n"

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"t_budget": 10**400}, "t_budget"),
            ({"channels": [1.0, 10**400]}, "channels[1]"),
            ({"t_budget": math.inf}, "t_budget"),
            ({"channels": [1.0, math.nan]}, "channels[1]"),
        ],
        ids=["scalar", "channel", "scalar-inf", "channel-nan"],
    )
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, overrides, name):
        # json reads the 401-digit integer exactly, and float() of it
        # overflows; json writes and reads inf and nan as Infinity and NaN
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be finite$"):
            load_config(path)
        code, out, err = run_cli(capsys, "nash", "--config", path)
        assert (code, out, err) == (2, "", f"error: {name} must be finite\n")

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1.0, 1.0]))
        with pytest.raises(ConfigError, match="^config must be a JSON object$"):
            load_config(str(path))
        code, out, err = run_cli(capsys, "nash", "--config", str(path))
        assert (code, out, err) == (2, "", "error: config must be a JSON object\n")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))


class TestNashCommand:
    def test_record_contents(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "nash", "--config", write_config(tmp_path))
        assert code == 0
        record = json.loads(out)
        sol = record["solution"]
        assert sol["v"] == 2.5 and sol["w"] == 1.5
        assert sol["value"] == pytest.approx(math.log(5 / 3), abs=1e-9)
        rows = sol["channels"]
        assert [row["k"] for row in rows] == [1, 2]
        assert all(row["regime"] == "Contested" for row in rows)
        assert [row["tx_power"] for row in rows] == [1.0, 1.0]
        assert [row["jam_power"] for row in rows] == [0.5, 0.5]

    def test_rows_sum_to_budgets(self, tmp_path, capsys):
        path = write_config(
            tmp_path, channels=[0.9, 1.7, 4.2], t_budget=3.3, j_budget=2.1
        )
        code, out, _ = run_cli(capsys, "nash", "--config", path)
        assert code == 0
        record = json.loads(out)
        rows = record["solution"]["channels"]
        tx_total = sum(row["tx_power"] for row in rows)
        jam_total = sum(row["jam_power"] for row in rows)
        assert abs(tx_total - 3.3) <= BUDGET_RTOL * 3.3
        assert abs(jam_total - 2.1) <= BUDGET_RTOL * 2.1
        # reported value matches a recomputation from the reported rows
        params = make_params([0.9, 1.7, 4.2], 3.3, 2.1)
        sol = solve_nash(params)
        assert record["solution"]["value"] == pytest.approx(
            utility(params, sol.tx, sol.jam), rel=1e-11
        )

    def test_verify_flag_adds_residuals(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--verify"
        )
        assert code == 0
        record = json.loads(out)
        assert record["verification"]["ok"] is True
        assert record["verification"]["tx_gap"] <= 1e-6

    def test_round_trip_passes_verification(self, tmp_path, capsys):
        path = write_config(
            tmp_path, channels=[0.8, 2.5, 5.5], t_budget=3.7, j_budget=1.9
        )
        code, out, _ = run_cli(capsys, "nash", "--config", path)
        assert code == 0
        params, sol = solution_from_record(json.loads(out))
        assert verify_nash(params, sol).ok

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, j_budget=0)
        code, out, err = run_cli(capsys, "nash", "--config", path)
        assert code == 2
        assert out == ""
        assert "j_budget must be positive" in err

    def test_budget_below_float_resolution_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, t_budget=1e-300, channels=[1.0, 2.0])
        code, out, err = run_cli(capsys, "nash", "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: t_budget 1e-300 is below the float resolution")
        assert err.count("\n") == 1

    def test_huge_budgets_verify(self, tmp_path, capsys):
        path = write_config(
            tmp_path, t_budget=1e300, j_budget=1e300, channels=[1.0, 2.0]
        )
        code, out, _ = run_cli(capsys, "nash", "--config", path, "--verify")
        assert code == 0
        record = json.loads(out)
        assert record["solution"]["u"] == 5e-301
        assert record["verification"]["ok"] is True

    def test_exit_3_on_verification_failure(self, tmp_path, capsys, monkeypatch):
        # force the verifier to report failure; the record is still emitted
        def fake_verification(params, sol):
            return {"ok": False, "note": "forced"}

        monkeypatch.setattr(cli_module, "_verification_record", fake_verification)
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--verify"
        )
        assert code == 3
        assert json.loads(out)["verification"]["ok"] is False

    def test_table_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--format", "table"
        )
        assert code == 0
        assert "v = 2.5" in out
        assert "Contested" in out

    def test_csv_format_single_row(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "varied,value,v,w,u,T_1,T_2,J_1,J_2,regime_1,regime_2"
        assert len(lines) == 2
        assert lines[1].startswith(",")  # nothing varied

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["solution"]["v"] == 2.5

    @pytest.mark.parametrize(
        "target", ["a_dir", "missing/result.json"], ids=["directory", "missing_parent"]
    )
    def test_unwritable_out_file_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "a_dir").mkdir()
        code, out, err = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--out", str(tmp_path / target)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output file")
        assert err.count("\n") == 1


class TestBestResponseCommand:
    def test_tx_player(self, tmp_path, capsys):
        path = write_config(tmp_path, channels=[1.0, 3.0], t_budget=4.0)
        code, out, _ = run_cli(
            capsys,
            "best-response", "--config", path, "--player", "tx", "--fixed", "1,0",
        )
        assert code == 0
        resp = json.loads(out)["response"]
        assert resp["tx_powers"] == [2.5, 1.5]
        assert resp["level"] == 4.5
        assert resp["level_consistent"] is True

    def test_jam_player(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "best-response", "--config", write_config(tmp_path),
            "--player", "jam", "--fixed", "2,0",
        )
        assert code == 0
        resp = json.loads(out)["response"]
        np.testing.assert_allclose(resp["jam_powers"], [1.0, 0.0], atol=1e-9)
        assert resp["u"] == pytest.approx(0.125, abs=1e-9)
        assert resp["kkt"]["ok"] is True

    def test_degenerate_all_zero_tx_flagged(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "best-response", "--config", write_config(tmp_path),
            "--player", "jam", "--fixed", "0,0",
        )
        assert code == 0
        resp = json.loads(out)["response"]
        assert resp["note"] == (
            "degenerate: any allocation optimal; "
            "canonical noise-waterfilling returned"
        )
        assert resp["jam_powers"] == [0.5, 0.5]

    def test_infeasible_fixed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "best-response", "--config", write_config(tmp_path),
            "--player", "jam", "--fixed", "9,9",
        )
        assert code == 2
        assert "--fixed" in err
        assert "power sum off budget" in err

    def test_malformed_fixed_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "best-response", "--config", write_config(tmp_path),
            "--player", "tx", "--fixed", "a,b",
        )
        assert code == 2
        assert "comma-separated" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("best-response", "--player", "tx", "--fixed", "0.5,0.5"),
            ("oracle", "--resolution", "201"),
            ("dynamics",),
        ],
        ids=lambda command: command[0],
    )
    def test_csv_format_rejected(self, tmp_path, capsys, command):
        # argparse refuses the format before the command does any work
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--config", write_config(tmp_path), "--format", "csv"])
        assert excinfo.value.code == 2
        assert "csv" in capsys.readouterr().err


class TestOracleCommand:
    def test_symmetric_within_bound(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--config", write_config(tmp_path), "--resolution", "101",
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["gap"]) <= 1e-3
        assert record["within_bound"] is True
        assert record["n_points"] == 101

    def test_verify_accepts_gap_rounded_below_zero(self, tmp_path, capsys):
        # the equilibrium jammer sits on a grid vertex, so the computed gap
        # comes out a few 1e-16 below zero on a correct answer
        path = write_config(
            tmp_path, alpha_t=0.5, alpha_j=1.1, t_budget=2.0, j_budget=0.5,
            channels=[0.5, 0.5, 0.5],
        )
        code, out, _ = run_cli(
            capsys, "oracle", "--config", path, "--resolution", "7", "--verify",
        )
        assert code == 0
        record = json.loads(out)
        assert record["within_bound"] is True
        assert abs(record["gap"]) <= 1e-12

    def test_too_many_channels_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, channels=[1.0] * 5)
        code, _, err = run_cli(capsys, "oracle", "--config", path)
        assert code == 2
        assert "at most 4 channels" in err

    def test_rejected_game_exits_2_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # solve_nash rejects the budget, and the grid is never scored
        scored = []
        monkeypatch.setattr(cli_module, "grid_minimax", lambda *args: scored.append(args))
        path = write_config(tmp_path, j_budget=1e-300, channels=[1.0, 2.0])
        code, out, err = run_cli(capsys, "oracle", "--config", path, "--resolution", "201")
        assert (code, out) == (2, "")
        assert err.startswith("error: j_budget 1e-300 is below the float resolution")
        assert scored == []

    def test_bad_resolution_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--config", write_config(tmp_path), "--resolution", "1",
        )
        assert code == 2
        assert "resolution" in err

    def test_resolution_beyond_int64_exits_2(self, tmp_path, capsys):
        # a one-channel grid has one point, so only the step count can refuse it
        path = write_config(tmp_path, channels=[1.0])
        code, out, err = run_cli(
            capsys, "oracle", "--config", path, "--resolution", str(10**20),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: resolution - 1 must fit in a 64-bit integer")

    def test_grid_of_infinite_scores_takes_its_first_point(self, tmp_path, capsys):
        # every score is +inf, a comparable score: the first point in order is taken
        path = write_config(tmp_path, t_budget=1e308, j_budget=1e-300, channels=[1e-300] * 2)
        with warnings.catch_warnings():
            # the payoff's own overflow warning at these magnitudes is not this case's
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, "oracle", "--config", path, "--resolution", "5")
        assert code == 0, err
        record = json.loads(out)
        assert record["grid_value"] == math.inf
        assert record["grid_jam"] == [0.0, 1e-300]  # the lexicographically smallest point

    def test_bound_past_the_float_range_warns_nothing(self, tmp_path, capsys):
        # alpha_t*T / N overflows in the payoff bound, whose exact value is then +inf
        path = write_config(tmp_path, t_budget=1e300, j_budget=1.0, channels=[1e-300] * 2)
        code, out, err = call_keeping_the_exit_contract(
            ["oracle", "--config", path, "--resolution", "5"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["grid_jam"] == [0.5, 0.5]


class TestDynamicsCommand:
    def test_converges_from_seeded_start(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "dynamics", "--config", write_config(tmp_path),
            "--gamma", "0.5", "--seed", "7",
        )
        assert code == 0
        record = json.loads(out)
        assert record["converged"] is True
        assert record["final_distance"] <= 1e-6
        assert record["seed"] == 7

    def test_undamped_outcome_is_data_not_error(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "dynamics", "--config", write_config(tmp_path),
            "--gamma", "1.0", "--seed", "7",
        )
        assert code == 0
        assert isinstance(json.loads(out)["converged"], bool)

    def test_verify_fails_when_not_converged(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "dynamics", "--config", write_config(tmp_path),
            "--gamma", "0.5", "--seed", "7", "--max-iters", "3", "--verify",
        )
        assert code == 3
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("budget", ["t_budget", "j_budget"])
    def test_budget_below_float_resolution_exits_2(self, tmp_path, capsys, budget):
        path = write_config(tmp_path, channels=[1.0, 2.0], **{budget: 1e-300})
        code, out, err = run_cli(capsys, "dynamics", "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {budget} 1e-300 is below the float resolution")

    def test_deterministic_per_seed(self, tmp_path, capsys):
        args = ("dynamics", "--config", write_config(tmp_path), "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


@pytest.fixture(scope="module")
def three_regime_config(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("sweep"), **_THREE_REGIMES)


class TestSweepCommand:
    def test_jam_budget_sweep_value_decreases(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "0.1", "--to", "10", "--steps", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "varied,value,v,w,u,T_1,T_2,J_1,J_2,regime_1,regime_2"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_each_row_matches_solver(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "0.5", "--to", "2.5", "--steps", "3",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            varied = float(cells[0])
            params = make_params([1.0, 1.0], 2.0, varied)
            sol = solve_nash(params)
            assert float(cells[1]) == pytest.approx(sol.value, rel=1e-11)
            assert float(cells[2]) == pytest.approx(sol.v, rel=1e-11)
            assert [float(c) for c in cells[5:7]] == pytest.approx(
                list(sol.tx.powers), rel=1e-11
            )

    def test_two_steps_gives_endpoints(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "t_budget", "--from", "1", "--to", "5", "--steps", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[0] == "5"

    def test_high_power_rows_become_uniform(self, tmp_path, capsys):
        path = write_config(tmp_path, channels=[1.0, 3.0, 6.0], t_budget=4.0)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", path,
            "--vary", "t_budget", "--from", "1", "--to", "1000000", "--steps", "3",
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        tx_powers = [float(c) for c in last[5:8]]
        third = 1e6 / 3.0
        assert max(abs(t - third) for t in tx_powers) / third <= 1e-3

    def test_noise_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "noise:1", "--from", "0.5", "--to", "2.0", "--steps", "4",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_unknown_vary_key_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "bogus", "--from", "1", "--to", "2", "--steps", "2",
        )
        assert code == 2
        assert "unknown --vary key: bogus" in err

    def test_out_of_range_noise_index_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "noise:5", "--from", "1", "--to", "2", "--steps", "2",
        )
        assert code == 2
        assert "noise:5" in err

    def test_reversed_range_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "5", "--to", "1", "--steps", "3",
        )
        assert code == 2
        assert "--from must be less than --to" in err

    def test_single_step_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "1", "--to", "2", "--steps", "1",
        )
        assert code == 2
        assert "--steps" in err

    @pytest.mark.parametrize(
        "bounds", [("1", "inf"), ("-inf", "2"), ("nan", "2"), ("1", "nan"), ("1", "1e400")]
    )
    def test_non_finite_range_exits_2(self, tmp_path, capsys, bounds):
        # checked before the grid is built: np.linspace warned on an infinite
        # end, and a NaN --from was reported as "--from must be less than --to"
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path), "--vary", "t_budget",
            f"--from={bounds[0]}", f"--to={bounds[1]}", "--steps", "3",
        )
        assert (code, out, err) == (2, "", "error: --from and --to must be finite\n")

    @pytest.mark.parametrize(
        "key",
        [
            "noise:\u00b2", "noise:\u0661", "noise:\uff11",
            # more digits than int() parses by default
            pytest.param("noise:" + "1" * 5000, id="noise:5000-digits"),
        ],
    )
    def test_non_ascii_channel_index_exits_2(self, tmp_path, capsys, key):
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", key, "--from", "1", "--to", "2", "--steps", "2",
        )
        assert (code, out) == (2, "")
        assert err == f"error: unknown --vary key: {key} (channel index must be 1..2)\n"

    @pytest.mark.parametrize("steps", [cli_module._MAX_SWEEP_STEPS + 1, 10**20])
    def test_steps_beyond_cap_exits_2(self, tmp_path, capsys, steps):
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "t_budget", "--from", "1", "--to", "2", "--steps", str(steps),
        )
        assert (code, out) == (2, "")
        assert err == f"error: --steps must be at most {cli_module._MAX_SWEEP_STEPS}\n"

    def test_steps_times_channels_beyond_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # rejected before any solve: every row is kept until it is written
        def no_solve(params):
            raise AssertionError("a sweep beyond the cap must not solve")

        monkeypatch.setattr(cli_module, "solve_nash", no_solve)
        m = cli_module._MAX_SWEEP_ENTRIES // cli_module._MAX_SWEEP_STEPS + 1
        code, out, err = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path, channels=[1.0] * m),
            "--vary", "t_budget", "--from", "1", "--to", "2",
            "--steps", str(cli_module._MAX_SWEEP_STEPS),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --steps times channels must be at most "
            f"{cli_module._MAX_SWEEP_ENTRIES}\n"
        )

    def test_steps_at_cap_runs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path), "--vary", "t_budget",
            "--from", "1", "--to", "2", "--steps", str(cli_module._MAX_SWEEP_STEPS),
        )
        assert code == 0
        assert len(out.splitlines()) == cli_module._MAX_SWEEP_STEPS + 1

    @given(
        key=st.one_of(
            st.sampled_from(
                ["t_budget", "j_budget", "noise:1", "noise:2", "noise:3", "noise:01",
                 "noise:0", "noise:4", "noise:-1", "noise:", "noise:\u00b2",
                 "noise:\u0663", "bogus"]
            ),
            st.text(max_size=6).map("noise:".__add__),
        ),
        bounds=st.lists(
            st.one_of(
                st.sampled_from(
                    ["inf", "-inf", "nan", "1e400", "-1", "0", "-0", "0.5", "2", "1e-320",
                     "1e300", "\u0663", "x", ""]
                ),
                st.floats().map(repr),
            ),
            min_size=2,
            max_size=2,
        ),
        steps=st.one_of(
            st.integers(-1, 6).map(str),
            st.sampled_from([str(cli_module._MAX_SWEEP_STEPS + 1), "1000000000",
                             "100000000000000000000", "9" * 5000, "\u0663", "1e3", ""]),
        ),
    )
    # linspace overflowed at its last point, and warned, before setting it to --to
    @example(key="t_budget", bounds=["1.0", "1.7976931348623157e+308"], steps="4")
    @settings(max_examples=300, deadline=None)
    def test_adversarial_arguments_keep_the_exit_contract(
        self, three_regime_config, key, bounds, steps
    ):
        # every call exits 0 or 2, with no traceback or warning, and an
        # input error leaves stdout empty
        argv = ["sweep", "--config", three_regime_config, f"--vary={key}",
                f"--from={bounds[0]}", f"--to={bounds[1]}", f"--steps={steps}"]
        call_keeping_the_exit_contract(argv, codes=(0, 2))


@pytest.fixture(scope="module")
def configs_by_width(tmp_path_factory):
    """Configs of 1 to 5 channels from the acceptance-test ranges."""
    rng = np.random.default_rng(83)
    folder = tmp_path_factory.mktemp("widths")
    return [
        write_config(
            folder, name=f"m{m}.json", channels=rng.uniform(0.5, 8.0, m).tolist(),
            t_budget=float(rng.uniform(0.5, 5.0)), j_budget=float(rng.uniform(0.5, 5.0)),
            alpha_t=float(rng.uniform(0.5, 2.0)), alpha_j=float(rng.uniform(0.5, 2.0)),
        )
        for m in range(1, 6)
    ]


#: --fixed fields: plain powers and every malformed kind.
_FIXED_FIELDS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1e308", "-1", "", "0", "0.5", "1", "2", "\u0663",
     "0x10", "9" * 400, "1" + "0" * 399]
)


class TestCommandExitContract:
    @given(
        width=st.integers(1, 5),
        command=st.sampled_from(["best-response", "oracle", "dynamics"]),
        extra=st.sampled_from([[], ["--verify"], ["--format", "table"]]),
        player=st.sampled_from(["tx", "jam"]),
        # any length, so wrong ones too, or all zeros
        fixed=st.one_of(
            st.lists(_FIXED_FIELDS, max_size=6), st.integers(1, 5).map(lambda n: ["0"] * n)
        ).map(",".join),
        resolution=st.one_of(
            st.integers(-5, 60),
            st.sampled_from([MAX_GRID_POINTS + 1, 10**12, 2**63, 2**200]),
        ),
        gamma=st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1", "1e400", "0.5"]),
        seed=st.one_of(st.integers(-(2**64), -1), st.integers(0, 2**200)),
        max_iters=st.integers(-2, 50),
        alternating=st.booleans(),
    )
    # opposite infinities, and a sum past the float range, warned from the sum
    @example(width=2, command="best-response", extra=[], player="tx", fixed="inf,-inf",
             resolution=2, gamma="0.5", seed=0, max_iters=1, alternating=False)
    @example(width=2, command="best-response", extra=[], player="jam", fixed="1e308,1e308",
             resolution=2, gamma="0.5", seed=0, max_iters=1, alternating=False)
    # NumPy's "expected non-negative integer" named no flag
    @example(width=2, command="dynamics", extra=[], player="tx", fixed="1,0",
             resolution=2, gamma="0.5", seed=-1, max_iters=1, alternating=False)
    @settings(max_examples=250, deadline=None)
    def test_adversarial_arguments_keep_the_exit_contract(
        self, configs_by_width, width, command, extra, player, fixed, resolution, gamma,
        seed, max_iters, alternating,
    ):
        # best-response, oracle and dynamics: every call exits 0, 2 or 3, with
        # no traceback or warning, and an input error leaves stdout empty
        args = {
            "best-response": ["--player", player, f"--fixed={fixed}"],
            "oracle": [f"--resolution={resolution}"],
            "dynamics": [f"--gamma={gamma}", f"--seed={seed}", f"--max-iters={max_iters}"]
            + ["--alternating"] * alternating,
        }[command]
        argv = [command, "--config", configs_by_width[width - 1], *args, *extra]
        _, _, err = call_keeping_the_exit_contract(argv)
        if command == "dynamics" and seed < 0:
            assert err == "error: --seed must be a nonnegative integer\n"

    def test_nash_keeps_the_exit_contract_on_random_configs(self, tmp_path):
        # every number 10**U(-12, 12), every seventh config in dB; each
        # format, with and without --verify
        rng = np.random.default_rng(97)
        codes = {0: 0, 2: 0, 3: 0}
        for i in range(70):
            m = int(rng.integers(1, 7))
            numbers = 10.0 ** rng.uniform(-12.0, 12.0, size=4 + m)
            config = dict(zip(cli_module._SCALARS, numbers[:4].tolist()))
            config["channels"] = numbers[4:].tolist()
            if i % 7 == 6:
                config["noise_unit"] = "db"
                config["channels"] = (10.0 * np.log10(numbers[4:])).tolist()
            path = write_config(tmp_path, name=f"game{i}.json", **config)
            for fmt in ("json", "table", "csv"):
                for verify in ([], ["--verify"]):
                    argv = ["nash", "--config", path, "--format", fmt, *verify]
                    codes[call_keeping_the_exit_contract(argv)[0]] += 1
        # the draw reaches all three exits
        assert all(codes.values()), codes


class TestDeterminismAndGoldens:
    def test_nash_json_byte_identical(self, tmp_path, capsys):
        args = ("nash", "--config", write_config(tmp_path), "--verify")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_sweep_csv_byte_identical(self, tmp_path, capsys):
        args = (
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "0.5", "--to", "2.5", "--steps", "5",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_nash_golden_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "nash", "--config", write_config(tmp_path), "--verify"
        )
        assert code == 0
        assert out == (GOLDEN / "nash_m2.json").read_text()

    def test_sweep_golden_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", write_config(tmp_path),
            "--vary", "j_budget", "--from", "0.5", "--to", "2.5", "--steps", "5",
        )
        assert code == 0
        assert out == (GOLDEN / "sweep_m2.csv").read_text()

    def test_sweep_verify_keeps_the_golden_bytes(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, *golden_argv(tmp_path, "sweep_m2.csv"), "--verify")
        assert code == 0
        assert out == (GOLDEN / "sweep_m2.csv").read_text()

    def test_sweep_verify_failure_exits_3_with_every_row(self, tmp_path, capsys, monkeypatch):
        # the verifier fails the second row only; every row is still written
        calls = []

        def failing_second(params, sol):
            calls.append(params.j_budget)
            return replace(verify_nash(params, sol), ok=len(calls) != 2)

        monkeypatch.setattr(cli_module, "verify_nash", failing_second)
        code, out, _ = run_cli(capsys, *golden_argv(tmp_path, "sweep_m2.csv"), "--verify")
        assert code == 3
        assert out == (GOLDEN / "sweep_m2.csv").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_file(self, tmp_path, capsys, name):
        code, out, _ = run_cli(capsys, *golden_argv(tmp_path, name))
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_every_golden_file_has_a_case(self):
        # a golden file that no case reads would go unchecked
        assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(ALL_GOLDEN_CASES)


class TestArgumentErrors:
    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["nash"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x.json"])
        assert excinfo.value.code == 2

    def test_console_entry_exits_with_the_code_of_main(self, tmp_path, capsys, monkeypatch):
        # run() is what the installed `jamgame` script calls
        for j_budget, expected in ((1.0, 0), (0.0, 2)):
            path = write_config(tmp_path, j_budget=j_budget)
            monkeypatch.setattr(sys, "argv", ["jamgame", "nash", "--config", path])
            with pytest.raises(SystemExit) as excinfo:
                cli_module.run()
            assert excinfo.value.code == expected


@pytest.fixture
def fresh_parser(monkeypatch):
    """Give main an empty parser cache, so its next call is a first call."""
    monkeypatch.setattr(
        cli_module, "_build_parser", functools.cache(cli_module._build_parser.__wrapped__)
    )


class TestParserReuse:
    """main(argv) called repeatedly in one process, on one cached parser."""

    @pytest.mark.parametrize(
        "reverse", [False, True], ids=["sorted", "reversed"]
    )
    def test_goldens_back_to_back(self, tmp_path, capsys, reverse):
        for name in sorted(ALL_GOLDEN_CASES, reverse=reverse):
            code, out, _ = run_cli(capsys, *golden_argv(tmp_path, name))
            assert code == 0, name
            assert out == (GOLDEN / name).read_text(), name

    def test_no_option_carries_over(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out_file = tmp_path / "table.txt"
        code, out, _ = run_cli(
            capsys, "nash", "--config", path, "--verify", "--format", "table",
            "--out", str(out_file),
        )
        assert code == 0 and out == ""
        assert out_file.read_text() == (GOLDEN / "nash_m2_table.txt").read_text()
        code, out, _ = run_cli(capsys, "nash", "--config", path)
        assert code == 0
        record = json.loads(out)
        assert "verification" not in record
        golden = json.loads((GOLDEN / "nash_m2.json").read_text())
        del golden["verification"]
        assert record == golden

    def test_argparse_error_between_calls(self, tmp_path, capsys, fresh_parser):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["nash"])
        assert excinfo.value.code == 2
        first_err = capsys.readouterr().err
        assert "--config" in first_err
        for _ in range(2):
            code, out, _ = run_cli(capsys, "nash", "--config", path, "--verify")
            assert code == 0
            assert out == (GOLDEN / "nash_m2.json").read_text()
            with pytest.raises(SystemExit) as excinfo:
                main(["nash"])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err == first_err

    def test_rebound_handler_is_called(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path)
        assert run_cli(capsys, "nash", "--config", path)[0] == 0
        seen = []

        def fake_nash(args):
            seen.append((args.command, args.format))
            return 3

        monkeypatch.setattr(cli_module, "cmd_nash", fake_nash)
        code, out, _ = run_cli(capsys, "nash", "--config", path, "--format", "csv")
        assert (code, out) == (3, "")
        assert seen == [("nash", "csv")]

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch, fresh_parser):
        built = []
        original_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = write_config(tmp_path)
        assert run_cli(capsys, "nash", "--config", path)[0] == 0
        first = len(built)
        assert first > 0
        for argv in (("nash", "--config", path), ("oracle", "--config", path)):
            assert run_cli(capsys, *argv)[0] == 0
        assert len(built) == first

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "original_init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    original_init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import jamgame.cli\n"
            "print(len(built))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout == "0\n"
