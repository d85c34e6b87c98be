"""Benchmark of ``timeop run``: dense verification, baker-grid probes, small-config batch.

Usage, from the root of the repository:

    python3 perfbench/run.py                      # all workloads, 40 s each
    python3 perfbench/run.py --workload shift-batch --seed 3 --seconds 40 --trace 0

For ``--seconds`` seconds the parent starts one fresh child interpreter
at a time (``child.py``), each running one whole round of the workload,
and reports medians over the rounds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's public calls and
reports per-layer self times and call counts instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--workload all`` each workload prints
such a line after its figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Two BLAS threads (the machine has two cores): baker5-verify rounds ran
# 1.6x faster than with one thread and repeated as well (see README).
BLAS_THREADS = "2"
MIN_ROUNDS = 2  # the determinism check compares the reports of at least two rounds
TIME_LIMIT_S = 170.0  # no round starts that could end later than this after the start

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _round(workload: str, seed: int, trace: int, timeout: float) -> dict:
    """One whole round of the workload in a fresh interpreter."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--start", repr(start), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, env=_child_env(), timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Whole rounds for ``seconds`` seconds (at least MIN_ROUNDS); medians over rounds.

    No round starts that the longest round so far would carry past
    ``deadline``, the end of the whole invocation's time.
    """
    began = time.monotonic()
    rounds = []
    while True:
        now = time.monotonic()
        longest = max((r["wall_s"] for r in rounds), default=0.0)
        if len(rounds) >= MIN_ROUNDS and (now - began + longest > seconds
                                          or now + longest > deadline):
            break
        rounds.append(_round(workload, seed, trace, deadline - now))

    # every round runs the same operations, so a run reports those of one
    # round plus one determinism op: the reports of all rounds are identical
    unexpected = sorted({name for r in rounds for name in r["unexpected"]})
    if len({(r["attempted"], r["failed"]) for r in rounds}) > 1:
        unexpected.append("rounds of the same seed disagree on operations attempted or failed")
    deterministic = len({r["report_sha256"] for r in rounds}) == 1
    if not deterministic:
        unexpected.append("report.json differs between rounds of the same seed")
    attempted = rounds[0]["attempted"] + 1
    failed = rounds[0]["failed"] + (not deterministic)

    if trace:
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}_s"] = {
                "value": statistics.median(r["layers"][layer]["self_s"] for r in rounds),
                "unit": "s"}
            metrics[f"{layer}_calls"] = {
                "value": statistics.median_low(r["layers"][layer]["calls"] for r in rounds),
                "unit": "count"}
        metrics["runner.emit_bytes"] = {
            "value": statistics.median_low(r["emit_bytes"] for r in rounds), "unit": "bytes"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "per_round": {key: [r[key] for r in rounds] for key in ("run_s", "setup_s")},
        "unexpected": unexpected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "timeop" / "__init__.py").is_file():
        print(f"no timeop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.seconds * len(workloads) > TIME_LIMIT_S:
        print(f"note: rounds stop {TIME_LIMIT_S:.0f} s after the start, before "
              f"{args.seconds * len(workloads):.0f} s are measured", file=sys.stderr)
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        mode = "traced" if args.trace else "untraced"
        print(f"{workload}: {result['rounds']} rounds, seed {args.seed}, {mode}, "
              f"{result['attempted']} ops attempted, {result['failed']} failed")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if args.trace:
            print(f"  traced run_s = {result['run_s']:.6g} s")
        for key in ("run_s", "setup_s"):
            print(f"  per round {key}: " + " ".join(f"{v:.4g}" for v in result["per_round"][key]))
        for name in result["unexpected"]:
            print(f"  UNEXPECTED FAILURE: {name}")
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
