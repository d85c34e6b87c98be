"""One benchmark round of each workload passes the benchmark's own checks.

``perfbench/child.py`` runs one whole round of a workload in a fresh
interpreter, checks every report it wrote and prints one JSON line; a
round whose reports fail a check that is not a known fault lists it in
``unexpected``.  Running one round per workload here catches a change
that breaks those checks before the benchmark is run.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", workloads())
def test_one_round_passes_the_checks(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1",
         "--start", repr(time.monotonic()), "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["unexpected"] == []
