"""Independent reference for every output the benchmark's CLI calls write.

Nothing here calls jamgame.  Water levels come from bisection on the spill
sum (the program sorts breakpoints instead); the equilibrium from nested
jammer-then-transmitter fills; the jammer best response is checked through
its own KKT conditions, with the gradient computed here.

Tolerances are derived, not tuned:

* every float the CLI prints is rounded to 12 significant digits, which
  moves it by at most RHO = 5e-12 of itself;
* a quantity built from a sum over n channels carries a float error of at
  most gamma(n) = n*u / (1 - n*u) of the sum (u = 2**-53).  Program and
  reference each carry one such error, so levels are compared within
  2*gamma(n) plus rounding, and every derived quantity within that error
  pushed through its derivatives.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

U = 2.0**-53
RHO = 5e-12
#: The solver's documented stopping tolerance on the jammer budget equation,
#: relative to max(1, J); the budget is then met exactly by rescaling.
EPS_SOLVE = 1e-12
#: Documented sup-norm distance to equilibrium that "converged" dynamics meet.
EPS_DYN = 1e-6
#: verify_nash calls a TxOnly channel silent when T_k <= ZERO_FRAC * t_budget.
ZERO_FRAC = 1e-9

DEFECT_A = "known defect (a): verify_nash calls a legitimately tiny TxOnly power silent"
DEFECT_B = "known defect (b): oracle requires gap >= 0 exactly, so within_bound is false"
_SILENT = re.compile(r"channel (\d+): TxOnly but transmitter silent")


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def level(floors: np.ndarray, budget: float) -> float:
    """Water level with sum (level - floors)+ = budget, by bisection."""
    lo = float(floors.min())
    hi = lo + budget  # all of the budget on the lowest floor spills at least that
    for _ in range(2200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if float(np.maximum(mid - floors, 0.0).sum()) > budget:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class Game:
    def __init__(self, cfg: dict):
        self.noise = np.array(cfg["channels"], dtype=float)
        self.at = float(cfg["alpha_t"])
        self.aj = float(cfg["alpha_j"])
        self.tb = float(cfg["t_budget"])
        self.jb = float(cfg["j_budget"])
        self.m = self.noise.size
        self.g = gamma(self.m + 2)

    def rate(self, tx: np.ndarray, jam: np.ndarray):
        """Rate, its T-gradient and the magnitude of its J-gradient."""
        base = self.aj * jam + self.noise
        top = self.at * tx + base
        value = 0.5 * float(np.log1p(self.at * tx / base).sum())
        return value, 0.5 * self.at / top, 0.5 * self.aj * (1.0 / base - 1.0 / top)

    def value_error(self, value: float, d_tx, e_tx, d_jam, e_jam) -> float:
        """Float error of a rate whose powers are each off by e_tx / e_jam."""
        return (
            float(np.sum(d_tx * e_tx)) + float(np.sum(d_jam * e_jam))
            + 2.0 * (self.g + 4.0 * U) * value
        )


_CODES = {"Unused": 0, "TxOnly": 1, "Contested": 2}


def _labels(noise: np.ndarray, v: float, w: float) -> np.ndarray:
    return np.where(noise >= v, 0, np.where(noise > w, 1, 2))


class Nash:
    """The equilibrium from nested fills, with an error budget per quantity."""

    def __init__(self, game: Game):
        n, g = game.noise, game.g
        self.w = level(n, game.aj * game.jb)
        self.jam = np.maximum(self.w - n, 0.0) / game.aj
        self.v = level(np.maximum(n, self.w), game.at * game.tb)
        self.tx = np.maximum(self.v - np.maximum(n, self.w), 0.0) / game.at
        self.u = game.aj * (self.v - self.w) / (2.0 * self.v * self.w)
        self.ev = (2.0 * g + 4.0 * U) * self.v
        self.ew = (2.0 * g + 4.0 * U) * self.w
        self.e_tx = (self.ev + self.ew + 2.0 * U * (self.v + self.w)) / game.at
        self.e_jam = (self.ew + 2.0 * U * self.w) / game.aj
        self.eu = self.u * (
            (self.ev + self.ew) / (self.v - self.w) + self.ev / self.v + self.ew / self.w
            + 8.0 * U
        )
        self.value, d_tx, d_jam = game.rate(self.tx, self.jam)
        self.e_value = game.value_error(self.value, d_tx, self.e_tx, d_jam, self.e_jam)
        # A label is right if some levels within the error budget give it.
        corners = [
            _labels(n, v, w)
            for v in (self.v - self.ev, self.v, self.v + self.ev)
            for w in (self.w - self.ew, self.w, self.w + self.ew)
        ]
        self.labels = np.stack(corners)

    def label_ok(self, labels_out) -> np.ndarray:
        codes = np.array([_CODES.get(label, -1) for label in labels_out])
        return np.any(self.labels == codes, axis=0)


def _compare(bad: list, what: str, out, ref, err) -> None:
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    tol = np.broadcast_to(err + RHO * np.maximum(np.abs(out), np.abs(ref)), out.shape)
    ok = np.abs(out - ref) <= tol
    if not np.all(ok):
        k = int(np.argmin(ok.ravel()))
        where = f"[{k}]" if out.ndim else ""
        bad.append(
            f"{what}{where} = {float(out.ravel()[k])!r}, reference {float(ref.ravel()[k])!r} "
            f"(tolerance {tol.ravel()[k]:.3g})"
        )


def _check_solution(bad: list, what: str, ref: Nash, v, w, u, value, tx, jam, labels) -> None:
    _compare(bad, f"{what} v", v, ref.v, ref.ev)
    _compare(bad, f"{what} w", w, ref.w, ref.ew)
    _compare(bad, f"{what} u", u, ref.u, ref.eu)
    _compare(bad, f"{what} value", value, ref.value, ref.e_value)
    _compare(bad, f"{what} tx_power", tx, ref.tx, ref.e_tx)
    _compare(bad, f"{what} jam_power", jam, ref.jam, ref.e_jam)
    ok = ref.label_ok(labels)
    if not np.all(ok):
        k = int(np.argmin(ok))
        bad.append(f"{what} regime[{k}] = {labels[k]!r} disagrees with the reference levels")


def _silent_channels_explained(ref: Nash, game: Game, failures: list[str]) -> bool:
    """True if every verifier complaint is defect (a) on a correct answer."""
    if not failures:
        return False
    for text in failures:
        match = _SILENT.fullmatch(text)
        if match is None:
            return False
        k = int(match.group(1))
        if not 0.0 < ref.tx[k] <= ZERO_FRAC * game.tb + ref.e_tx:
            return False
    return True


def _tiny_tx_only(ref: Nash, game: Game) -> bool:
    tx_only = (game.noise > ref.w) & (game.noise < ref.v)
    return bool(np.any(tx_only & (ref.tx <= ZERO_FRAC * game.tb + ref.e_tx)))


class Checker:
    """Checks CLI outputs against the reference; caches references per game."""

    def __init__(self) -> None:
        self._refs: dict = {}
        self._kinds = {
            "nash": self._nash, "sweep": self._sweep, "br-tx": self._br_tx,
            "br-jam": self._br_jam, "oracle": self._oracle, "dynamics": self._dynamics,
        }

    def _ref(self, key, cfg: dict) -> tuple[Game, Nash]:
        if key not in self._refs:
            game = Game(cfg)
            self._refs[key] = (game, Nash(game))
        return self._refs[key]

    def check(self, call: dict, text: str, rc) -> tuple[list[str], str | None]:
        """Return (disagreements with the reference, reason the program said no).

        The reason explains a non-zero exit or, for oracle, a within_bound of
        false in the output (which exits 0 without --verify); it is None when
        the program accepted its own answer.  A rejected answer that agrees
        with the reference gets a named reason when one of the known verifier
        defects explains it.
        """
        bad: list[str] = []
        try:
            reason = self._kinds[call["kind"]](call, text, rc, bad)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad.append(f"output does not parse: {exc!r}")
            reason = None
        if rc != 0 and reason is None:
            reason = f"exit {rc}, unexplained"
        return bad, reason

    def _config_echo(self, bad: list, record: dict, game: Game) -> None:
        echo = record["config"]
        _compare(bad, "config channels", echo["channels"], game.noise, 0.0)
        for key, ref in (("t_budget", game.tb), ("j_budget", game.jb)):
            _compare(bad, f"config {key}", echo[key], ref, 0.0)

    # -- nash ---------------------------------------------------------------

    def _nash(self, call, text, rc, bad):
        record = json.loads(text)
        game, ref = self._ref(call["argv"][2], call["config"])
        self._config_echo(bad, record, game)
        sol = record["solution"]
        rows = sol["channels"]
        if [row["k"] for row in rows] != list(range(1, game.m + 1)):
            bad.append("channel indices are not 1..M")
            return None
        _check_solution(
            bad, "nash", ref, sol["v"], sol["w"], sol["u"], sol["value"],
            [row["tx_power"] for row in rows], [row["jam_power"] for row in rows],
            [row["regime"] for row in rows],
        )
        verification = record.get("verification")
        if (verification is None) == ("--verify" in call["argv"]):
            bad.append("verification record present iff --verify: violated")
            return None
        if verification is None:
            if rc != 0:
                bad.append(f"nash without --verify exited {rc}")
            return None
        if rc != (0 if verification["ok"] else 3):
            bad.append(f"exit {rc} does not match verification ok={verification['ok']}")
        if rc == 3 and _silent_channels_explained(ref, game, verification["regime_failures"]):
            return DEFECT_A
        if rc == 3:
            failures = verification["regime_failures"]
            return "verify_nash rejected: " + (failures[0] if failures else "gap or KKT residual")
        return None

    # -- sweep --------------------------------------------------------------

    def _sweep(self, call, text, rc, bad):
        spec = call["sweep"]
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        cfg = call["config"]
        m = len(cfg["channels"])
        if len(header) != 5 + 3 * m or len(body) != spec["steps"]:
            bad.append("sweep CSV has the wrong shape")
            return None
        values = np.linspace(spec["from"], spec["to"], spec["steps"])
        tiny = False
        for step, (row, varied) in enumerate(zip(body, values)):
            step_cfg = dict(cfg)
            if spec["vary"].startswith("noise:"):
                channels = list(cfg["channels"])
                channels[int(spec["vary"].split(":")[1]) - 1] = float(varied)
                step_cfg["channels"] = channels
            else:
                step_cfg[spec["vary"]] = float(varied)
            game, ref = self._ref((call["argv"][2], step), step_cfg)
            nums = [float(x) for x in row[: 5 + 2 * m]]
            _compare(bad, f"sweep row {step} varied", nums[0], varied, 4.0 * U * abs(varied))
            _check_solution(
                bad, f"sweep row {step}", ref, nums[2], nums[3], nums[4], nums[1],
                nums[5 : 5 + m], nums[5 + m : 5 + 2 * m], row[5 + 2 * m :],
            )
            tiny = tiny or _tiny_tx_only(ref, game)
        if rc not in (0, 3):
            bad.append(f"sweep exited {rc}")
        if rc == 3:
            return DEFECT_A + " (sweep step)" if tiny else None
        return None

    # -- best-response --------------------------------------------------------

    def _br_tx(self, call, text, rc, bad):
        record = json.loads(text)
        game = Game(call["config"])
        self._config_echo(bad, record, game)
        jam = np.array(call["fixed"])
        _compare(bad, "fixed_jam", record["fixed_jam"], jam, 0.0)
        floors = game.aj * jam + game.noise
        lvl = level(floors, game.at * game.tb)
        tx = np.maximum(lvl - floors, 0.0) / game.at
        e_lvl = (2.0 * game.g + 4.0 * U) * lvl
        e_tx = (e_lvl + 2.0 * U * lvl) / game.at
        value, d_tx, _ = game.rate(tx, jam)
        resp = record["response"]
        _compare(bad, "br-tx level", resp["level"], lvl, e_lvl)
        _compare(bad, "br-tx tx_powers", resp["tx_powers"], tx, e_tx)
        _compare(bad, "br-tx value", resp["value"], value, game.value_error(value, d_tx, e_tx, 0.0, 0.0))
        if rc != (0 if resp["level_consistent"] else 3):
            bad.append(f"exit {rc} does not match level_consistent={resp['level_consistent']}")
        return "best-response tx: level_for_fills rejected a correct fill" if rc == 3 else None

    def _br_jam(self, call, text, rc, bad):
        record = json.loads(text)
        game = Game(call["config"])
        self._config_echo(bad, record, game)
        tx = np.array(call["fixed"])
        _compare(bad, "fixed_tx", record["fixed_tx"], tx, 0.0)
        resp = record["response"]
        jam = np.array(resp["jam_powers"], dtype=float)
        u = float(resp["u"])
        if np.any(jam < 0.0):
            bad.append("br-jam: negative jammer power")
        _compare(
            bad, "br-jam budget", float(jam.sum()), game.jb,
            RHO * float(jam.sum()) + (2.0 * game.g + 4.0 * U) * game.jb,
        )
        # KKT of min rate over the jammer simplex (a convex problem): with
        # g = d rate / dJ, lambda = g + u must vanish where J > 0 and be >= 0
        # elsewhere.  J is off by its rounding, the solver's budget-equation
        # tolerance, and the float error of the closed-form root.
        value, _, d_jam = game.rate(tx, jam)
        g = -d_jam
        lam = g + u
        a = game.at * tx
        eps_s = EPS_SOLVE * max(1.0, game.jb) / game.jb + 2.0 * game.g
        e_jam = (RHO + eps_s) * jam + 8.0 * U * (a + 2.0 * game.noise) / game.aj
        base_lo = game.aj * np.maximum(jam - e_jam, 0.0) + game.noise
        e_lam = 0.5 * game.aj**2 / base_lo**2 * e_jam + RHO * abs(u) + 8.0 * U * (np.abs(g) + abs(u))
        active = jam > 0.0
        if np.any(active & (np.abs(lam) > e_lam)):
            k = int(np.argmax(active & (np.abs(lam) > e_lam)))
            bad.append(f"br-jam stationarity fails on channel {k}: lambda {lam[k]:.3g}")
        if np.any(~active & (lam < -e_lam)):
            k = int(np.argmax(~active & (lam < -e_lam)))
            bad.append(f"br-jam dual feasibility fails on channel {k}: lambda {lam[k]:.3g}")
        _compare(bad, "br-jam lambdas", resp["lambdas"], lam, e_lam)
        _compare(
            bad, "br-jam value", resp["value"], value,
            game.value_error(value, 0.0, 0.0, d_jam, RHO * jam),
        )
        ok = resp["kkt"]["ok"]
        if rc != (0 if ok else 3):
            bad.append(f"exit {rc} does not match kkt ok={ok}")
        return "best-response jam: kkt_report rejected a KKT point" if rc == 3 else None

    # -- oracle ---------------------------------------------------------------

    def _oracle(self, call, text, rc, bad):
        record = json.loads(text)
        game, ref = self._ref(call["argv"][2], call["config"])
        self._config_echo(bad, record, game)
        res = call["resolution"]
        steps = res - 1
        spacing = game.jb / steps
        if record["n_points"] != math.comb(steps + game.m - 1, game.m - 1):
            bad.append(f"oracle n_points {record['n_points']} is not the grid size")
        bound = spacing * game.m * game.aj / (2.0 * float(game.noise.min()))
        _compare(bad, "oracle gap_bound", record["gap_bound"], bound, 8.0 * U * bound)
        _compare(bad, "oracle nash_value", record["nash_value"], ref.value, ref.e_value)

        # The reported grid point must be a grid point whose inner value is
        # the reported grid value.
        grid_jam = np.array(record["grid_jam"], dtype=float)
        idx = np.rint(grid_jam / spacing)
        if np.any(idx < 0) or int(idx.sum()) != steps:
            bad.append("oracle grid_jam is not on the grid")
        jam = idx * spacing
        _compare(bad, "oracle grid_jam", grid_jam, jam, 2.0 * U * jam)
        floors = game.aj * jam + game.noise
        lvl = level(floors, game.at * game.tb)
        tx = np.maximum(lvl - floors, 0.0) / game.at
        e_tx = (2.0 * game.g + 6.0 * U) * lvl / game.at
        inner, d_tx, _ = game.rate(tx, jam)
        e_inner = game.value_error(inner, d_tx, e_tx, 0.0, 0.0)
        grid_value = float(record["grid_value"])
        _compare(bad, "oracle grid_value at grid_jam", grid_value, inner, e_inner)

        # The grid minimum is an upper bound on the game value, within gap_bound.
        slack = ref.e_value + e_inner + RHO * abs(grid_value)
        if grid_value < ref.value - slack:
            bad.append(f"oracle grid_value {grid_value!r} below the game value {ref.value!r}")
        if grid_value - ref.value > bound + slack:
            bad.append("oracle grid_value exceeds the game value by more than gap_bound")
        gap = float(record["gap"])
        gap_err = RHO * (abs(gap) + abs(grid_value) + abs(record["nash_value"])) + 4.0 * U * grid_value
        _compare(bad, "oracle gap", gap, grid_value - record["nash_value"], gap_err)
        verify = "--verify" in call["argv"]
        if rc != (3 if verify and not record["within_bound"] else 0):
            bad.append(f"exit {rc} does not match within_bound={record['within_bound']}")
        if not record["within_bound"]:
            return DEFECT_B if gap < 0.0 else "oracle within_bound false: gap above gap_bound"
        return None

    # -- dynamics -------------------------------------------------------------

    def _dynamics(self, call, text, rc, bad):
        record = json.loads(text)
        game, ref = self._ref(call["argv"][2], call["config"])
        self._config_echo(bad, record, game)
        iters = int(record["iterations"])
        max_iters = call["dynamics"]["max_iters"]
        if not 1 <= iters <= max_iters or (not record["converged"] and iters != max_iters):
            bad.append(f"dynamics stopped after {iters} of {max_iters} steps unconverged")
        for name, budget, drift in (
            ("start_tx", game.tb, 1), ("start_jam", game.jb, 1),
            ("final_tx", game.tb, iters + 1), ("final_jam", game.jb, iters + 1),
        ):
            x = np.array(record[name], dtype=float)
            if x.shape != (game.m,) or np.any(x < 0.0):
                bad.append(f"dynamics {name} is not a nonnegative vector of length M")
                return None
            err = RHO * float(x.sum()) + drift * (game.m + 4) * 2.0 * U * budget
            _compare(bad, f"dynamics {name} budget", float(x.sum()), budget, err)
        tx = np.array(record["final_tx"], dtype=float)
        jam = np.array(record["final_jam"], dtype=float)
        value, d_tx, d_jam = game.rate(tx, jam)
        _compare(
            bad, "dynamics final_value", record["final_value"], value,
            game.value_error(value, d_tx, RHO * tx, d_jam, RHO * jam),
        )
        distance = max(float(np.max(np.abs(tx - ref.tx))), float(np.max(np.abs(jam - ref.jam))))
        e_dist = max(ref.e_tx, ref.e_jam) + RHO * max(float(tx.max()), float(jam.max()))
        _compare(bad, "dynamics final_distance", record["final_distance"], distance, e_dist)
        if record["converged"] and not (
            record["final_distance"] <= EPS_DYN and distance <= EPS_DYN + e_dist
        ):
            bad.append(f"dynamics converged but final_distance {distance:.3g} > {EPS_DYN}")
        if rc != 0:
            bad.append(f"dynamics without --verify exited {rc}")
        return None
