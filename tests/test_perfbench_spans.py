"""Every call the benchmark tracer wraps exists on the package.

``perfbench/run.py --trace 1`` looks up each ``(module, attribute)``
pair of ``perfbench/spans.py``'s ``LAYERS`` with ``getattr``, so a
renamed or removed function breaks the traced benchmark.  The table is
loaded from its file, as the benchmark child loads it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, module, attr) for layer, targets in spans.LAYERS.items()
            for module, attr in targets]


@pytest.mark.parametrize("layer,module,attr", traced_calls())
def test_traced_call_resolves(layer, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{layer}: {module}.{attr} is not callable"
