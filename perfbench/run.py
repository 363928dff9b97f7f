"""Run one workload of the jamgame benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
src/.  Inputs come from --seed alone.  One child process (worker.py) runs
the workload's CLI calls in a closed loop for --seconds; every output is then
checked against refcheck.py.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The lines before it give
each metric with its unit and sample count, failures by reason, and the
workload's provenance.  When the benchmark itself cannot run (no program
sources, a crashed or hung child) it exits non-zero with no JSON line.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
import refcheck
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".perfbench_work"

SETUP_SPAWNS = 15
# What the `jamgame` console script runs.
SETUP_CODE = "import sys; from jamgame.cli import run; sys.argv[0] = 'jamgame'; run()"
SPAWN_TIMEOUT_S = 30
# Time the worker may take beyond --seconds: warm-up, the call (or, traced,
# the untraced and traced pair) running when the time is up, and writing out.
WORKER_MARGIN_S = 90

#: Unit of every end-to-end metric a run measures.  BENCHMARK.json bounds all
#: of them but op_p50_ms, which is printed only (layer_map.json says why).
MEASURED_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units and bounds."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(trace: bool) -> dict[str, str]:
    """Unit of every metric a run reports, in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def _env() -> dict:
    path = os.path.abspath("src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def measure_setup(seed: int, work: str) -> tuple[list[float], list[tuple]]:
    """Cold spawn-to-exit times of `jamgame nash` on a 2-channel game."""
    config = os.path.join(work, "setup.json")
    game = gen.setup_game(seed)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(game, fh)
    call = {"kind": "nash", "config": game, "argv": ["nash", "--config", config]}
    samples, outputs = [], []
    for i in range(SETUP_SPAWNS):
        out = os.path.join(work, f"setup{i}.out")
        argv = [sys.executable, "-c", SETUP_CODE, *call["argv"], "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=SPAWN_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - t0)
        outputs.append((call, out, proc.returncode, proc.stderr.decode(errors="replace")))
    return samples, outputs


def run_worker(plan: dict, work: str) -> dict:
    """Run the client process and return its result."""
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    log = os.path.join(work, "worker.log")
    with open(log, "wb") as log_fh:
        proc = subprocess.Popen(
            [sys.executable, WORKER, plan_path], env=_env(), stdout=log_fh, stderr=log_fh
        )
        timeout = plan["seconds"] + WORKER_MARGIN_S
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker ran past {timeout:g} s") from None
    if proc.returncode != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"worker exited {proc.returncode}:\n{fh.read()[-3000:]}")
    with open(plan["result"], encoding="utf-8") as fh:
        return json.load(fh)


class Verdicts:
    """Checks outputs once per distinct (call, exit code, bytes) and tallies them."""

    def __init__(self) -> None:
        self.checker = refcheck.Checker()
        self._seen: dict = {}
        self.wrong: list[str] = []

    def verdict(self, call: dict, path: str, rc, err) -> tuple[str | None, bool]:
        """Return (reason, failed) for one call.

        The call failed if it raised, exited non-zero, wrote nothing or wrote
        a wrong answer.  A reason with failed False is a note: the call exited
        0 with a correct answer, but the program's own verdict in the output
        said no (see refcheck.Checker.check).
        """
        if rc is None:
            last = err.strip().splitlines()[-1] if err.strip() else "no message"
            self.wrong.append(f"{call['argv'][0]} failed: {last}")
            return "raised", True
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self.wrong.append(f"{call['argv'][0]} exited {rc} with no output")
            return f"exit {rc}, no output", True
        key = (call["argv"][2], rc, hashlib.sha256(data).digest())
        if key not in self._seen:
            bad, reason = self.checker.check(call, data.decode("utf-8"), rc)
            self._seen[key] = (bad, reason)
            self.wrong.extend(f"{call['argv'][0]} {call['argv'][2]}: {b}" for b in bad)
        bad, reason = self._seen[key]
        if bad:
            return "wrong answer", True
        return reason, rc != 0

    def tally(
        self, calls: list[dict], outdir: str, records: list
    ) -> tuple[collections.Counter, collections.Counter]:
        """Failures and notes of the recorded calls, each counted by reason."""
        reasons, notes = collections.Counter(), collections.Counter()
        for index, rc, _, seq, err in records:
            reason, failed = self.verdict(calls[index], os.path.join(outdir, f"{seq}.out"), rc, err)
            if reason is not None:
                (reasons if failed else notes)[reason] += 1
        return reasons, notes


def tail_ms(durations: list[float]) -> tuple[str, float] | None:
    """p99 when at least 1000 calls ran, else the highest percentile with ten
    samples beyond it, else None."""
    ordered = sorted(durations)
    n = len(ordered)
    if n >= 1000:
        return "op_p99_ms", ordered[math.ceil(0.99 * n) - 1] * 1e3
    if n > 10:
        return f"op_p{100.0 * (n - 10) / n:.1f}_ms", ordered[n - 11] * 1e3
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, run and check one workload; return everything measured."""
    if not os.path.isfile(os.path.join("src", "jamgame", "cli.py")):
        raise BenchError("src/jamgame not found: run from the root of a jamgame checkout")
    work = os.path.abspath(os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
    outdir = os.path.join(work, "out")
    os.makedirs(outdir)
    try:
        plan = gen.make_plan(workload, seed, os.path.join(work, "in"))
        calls = plan["calls"]
        verdicts = Verdicts()
        details = {"workload": workload, "seed": seed, "trace": trace, "plan": plan}
        if not trace:
            setup, outputs = measure_setup(seed, work)
            details["setup"] = setup
            for call, out, rc, err in outputs:
                verdicts.verdict(call, out, None if rc else 0, err)
        result = run_worker(
            {
                "argvs": [call["argv"] for call in calls],
                "warmup": plan["warmup"],
                "seconds": seconds,
                "trace": trace,
                "outdir": outdir,
                "result": os.path.join(work, "result.json"),
                "spans": os.path.join(work, "spans.npz"),
            },
            work,
        )
        verdicts.tally(calls, outdir, result["warmup"])
        timed = result["timed"] + result.get("traced", [])
        details["reasons"], details["notes"] = verdicts.tally(calls, outdir, timed)
        details["attempted"] = len(timed)
        details["wrong"] = verdicts.wrong
        details["durations"] = [record[2] for record in result["timed"]]
        details["wall"] = result["wall"]
        details["peak_rss_mb"] = result["peak_rss_mb"]
        if trace:
            layers = spans.layer_metrics(os.path.join(work, "spans.npz"))
            layers["trace.overhead_frac"] = result["traced_wall"] / result["wall"] - 1.0
            details["layers"] = layers
            details["missing_targets"] = result["missing_targets"]
        return details
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run is still using it
            pass


def metrics(details: dict) -> dict[str, float]:
    """The run's end-to-end metrics, or its per-layer metrics when traced."""
    if details["trace"]:
        return dict(details["layers"])
    durations = details["durations"]
    return {
        "setup_s": statistics.median(details["setup"]),
        "ops_per_s": len(durations) / details["wall"],
        "op_p50_ms": statistics.median(durations) * 1e3,
        "peak_rss_mb": details["peak_rss_mb"],
    }


def result_line(details: dict) -> str:
    values = metrics(details)
    return json.dumps({
        "correct": not details["wrong"],
        "attempted": details["attempted"],
        "failed": sum(details["reasons"].values()),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units(details["trace"]).items()
        },
    })


def describe(details: dict) -> list[str]:
    """Human-readable lines: provenance, metrics with units and counts, failures."""
    plan = details["plan"]
    why = {w["name"]: w["why"] for w in spec()["workloads"]}
    why.setdefault(details["workload"], "not listed in BENCHMARK.json; see layer_map.json")
    mix = ", ".join(f"{kind} {count}" for kind, count in plan["mix"].items())
    lines = [
        f"# workload {details['workload']} seed {details['seed']}"
        f" trace {int(details['trace'])}: {len(plan['calls'])} distinct calls ({mix});"
        f" {plan['sizes']}",
        f"# why: {why[details['workload']]}",
    ]
    n = len(details["durations"])
    values = metrics(details)
    if details["trace"]:
        lines.append(f"# per-layer metrics over {details['attempted'] - n} traced calls")
        lines += [
            f"{name:44s} {values[name]:14.6g} {unit}" for name, unit in units(True).items()
        ]
        if details["missing_targets"]:
            lines.append(f"# not found, counted as 0: {', '.join(details['missing_targets'])}")
    else:
        counts = {
            "setup_s": f"median of {len(details['setup'])} cold spawns",
            "ops_per_s": f"{n} calls in {details['wall']:.3f} s, one client",
            "op_p50_ms": f"median of {n} calls",
            "peak_rss_mb": "peak of the one client process",
        }
        for name, unit in MEASURED_UNITS.items():
            lines.append(f"{name:14s} {values[name]:14.6g} {unit:4s} ({counts[name]})")
        tail = tail_ms(details["durations"])
        if tail is None:
            lines.append(f"{'op_tail_ms':14s} {'none':>14s} ms   (fewer than 11 calls)")
        else:
            lines.append(f"{tail[0]:14s} {tail[1]:14.6g} ms   (of {n} calls)")
    failed = sum(details["reasons"].values())
    lines.append(
        f"{'failed_frac':14s} {failed / details['attempted']:14.6g} 1    "
        f"({failed} of {details['attempted']} calls)"
    )
    for reason, count in sorted(details["reasons"].items()):
        lines.append(f"#   {count:6d} x {reason}")
    for note, count in sorted(details["notes"].items()):
        lines.append(f"# note, exit 0 with a correct answer: {count} x {note}")
    for text in details["wrong"][:20]:
        lines.append(f"# WRONG: {text}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(details)))
    print(result_line(details), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
