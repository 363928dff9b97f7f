"""Benchmark client: one closed loop of in-process jamgame CLI calls.

    PYTHONPATH=src python3 perfbench/worker.py WORKDIR/plan.json

run.py starts this as its child process, one per workload run.  Each call
is ``jamgame.cli.main(argv)`` with ``--out`` naming a fresh file under
WORKDIR/out, so the parent can check every output after the loop.  The next
call starts only when the previous one returned.  Warm-up calls run first
and are reported apart.  In trace mode every call runs twice, untraced and
then with spans recorded, which gives the tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _call(cli, argv: list[str]):
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects a command line this way
        return (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception:  # the loop must go on; the parent counts the failure
        return None, traceback.format_exc(limit=4)


class Loop:
    def __init__(self, cli, argvs: list[list[str]], outdir: str):
        self.cli = cli
        self.argvs = argvs
        self.outdir = outdir
        self.seq = 0

    def run(self, indices=None, seconds: float | None = None):
        """Run ``indices`` in order, or cycle through all calls for ``seconds``.

        Returns the records [index, exit code, seconds, output seq, error]
        and the loop's wall time.
        """
        records = []
        start = time.perf_counter()
        while True:
            if indices is not None:
                if len(records) == len(indices):
                    break
                index = indices[len(records)]
            else:
                if time.perf_counter() - start >= seconds:
                    break
                index = len(records) % len(self.argvs)
            argv = self.argvs[index] + ["--out", os.path.join(self.outdir, f"{self.seq}.out")]
            t0 = time.perf_counter()
            rc, err = _call(self.cli, argv)
            records.append([index, rc, time.perf_counter() - t0, self.seq, err])
            self.seq += 1
        return records, time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's own peak RSS since exec.

    getrusage's ru_maxrss would also count the parent's RSS at fork time,
    which the kernel carries over into the child across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    from jamgame import cli

    loop = Loop(cli, plan["argvs"], plan["outdir"])
    result = {}
    result["warmup"], _ = loop.run(indices=list(range(plan["warmup"])))
    if not plan["trace"]:
        result["timed"], result["wall"] = loop.run(seconds=plan["seconds"])
    else:
        import spans

        recorder = spans.Recorder()
        bindings, result["missing_targets"] = spans.wrappers(recorder)
        # Each call runs untraced and then traced, back to back, so that a
        # drift in machine speed affects both sides of the overhead alike.
        result["timed"], result["traced"] = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < plan["seconds"]:
            index = len(result["timed"]) % len(plan["argvs"])
            result["timed"] += loop.run(indices=[index])[0]
            spans.patch(bindings, traced=True)
            result["traced"] += loop.run(indices=[index])[0]
            spans.patch(bindings, traced=False)
        result["wall"] = sum(record[2] for record in result["timed"])
        result["traced_wall"] = sum(record[2] for record in result["traced"])
        recorder.save(plan["spans"])
    result["peak_rss_mb"] = peak_rss_mb()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
