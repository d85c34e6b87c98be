"""One measured round of a workload, in a fresh interpreter.

Started by ``run.py`` with the parent's monotonic clock reading just
before the start, so ``setup_s`` covers interpreter start, the numpy
and timeop imports and ``parse_config``.  The round then drives the
same public calls ``timeop run`` makes: ``run_experiments`` and
``emit_report`` per config.  After the timed part it checks every
report and prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=float, required=True,
                        help="parent's time.monotonic() just before this process started")
    parser.add_argument("--out", required=True, help="directory for the emitted reports")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import timeop.config
    import timeop.runner

    if src not in Path(timeop.__file__).resolve().parents:
        raise SystemExit(f"timeop was imported from {timeop.__file__}, not from {src}")

    from checks import check_report
    from spans import Tracer
    from workloads import GENERATORS, render

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    specs = GENERATORS[args.workload](args.seed)
    configs = [timeop.config.parse_config(render(spec)) for spec in specs]
    setup_s = time.monotonic() - args.start

    out = Path(args.out)
    written = []
    start = time.perf_counter()
    for spec, config in zip(specs, configs):
        bundle = timeop.runner.run_experiments(config)
        written.append(timeop.runner.emit_report(bundle, out / spec["name"]))
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = hashlib.sha256()
    ops = []
    emit_bytes = 0
    for spec, paths in zip(specs, written):
        emit_bytes += sum(Path(p).stat().st_size for p in paths)
        raw = (out / spec["name"] / "report.json").read_bytes()
        digest.update(raw)
        ops += check_report(spec, json.loads(raw))

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "unexpected": [op.name for op in ops if not op.ok and not op.known_fault],
        "report_sha256": digest.hexdigest(),
        "emit_bytes": emit_bytes,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
