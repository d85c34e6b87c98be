"""Golden report fixtures: ``timeop run`` output must not drift.

Each fixture is ``bundle.to_dict()`` for one config with
``manifest.versions`` removed, serialized exactly as ``report.json``
is, by the same writer, so a non-finite float is pinned as the null it
is emitted as.  A refactor that keeps reports byte-identical passes
untouched; a change that moves any reported float fails here and has
to be recorded by regenerating the fixtures
(``python tests/test_golden.py``) in the same change.
"""

from pathlib import Path

import pytest

from timeop.config import parse_config
from timeop.runner import _json_text, run_experiments

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
CONFIGS = {
    "experiment": HERE.parent / "demos" / "experiment.cfg",
    "baker3": GOLDEN / "baker3.cfg",
    "baker4_probe": GOLDEN / "baker4_probe.cfg",
    "shift_wide": GOLDEN / "shift_wide.cfg",
    "spectra_underflow": GOLDEN / "spectra_underflow.cfg",
}


def _report_text(config_path: Path) -> str:
    doc = run_experiments(parse_config(config_path.read_text())).to_dict()
    del doc["manifest"]["versions"]
    return _json_text(doc)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert _report_text(CONFIGS[name]) == expected


if __name__ == "__main__":
    for name, path in CONFIGS.items():
        (GOLDEN / f"{name}.json").write_text(_report_text(path))
