"""The report writer is the standard encoder, byte for byte.

``_json_text`` writes report trees in one pass.  The text it replaced,
``json.dumps`` with indent 2 and sorted keys over a copy of the tree
with non-finite floats set to None, is kept here as the reference, and
both files that ``emit_report`` writes are checked against it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeop.config import DEMO_CONFIG, parse_config
from timeop.runner import _json_text, _Nested, emit_report, run_experiments

ROOT = Path(__file__).resolve().parent.parent


def _finite(value):
    """The JSON tree with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def reference(doc) -> str:
    return json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


# non-ASCII, astral and control characters, quotes and backslashes
texts = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f é😀'),
                max_size=8)
floats = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf])
scalars = (st.none() | st.booleans() | st.integers(-(2**200), 2**200) | floats
           | floats.map(np.float64) | texts)
trees = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_writer_is_the_reference_encoder(doc):
    assert _json_text(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(trees, texts)
def test_nested_text_is_the_subtree_written_in_place(doc, key):
    for wrap in (lambda v: {key: v, "other": [v]}, lambda v: [v, {"k": v}]):
        assert _json_text(wrap(_Nested(_json_text(doc)))) == _json_text(wrap(doc))


CONFIG_TEXTS = {"DEMO_CONFIG": DEMO_CONFIG} | {
    path.name: path.read_text()
    for path in [ROOT / "demos" / "experiment.cfg", *sorted((ROOT / "tests" / "golden").glob("*.cfg"))]
}


@pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
def test_emitted_files_are_the_reference_text(name, tmp_path):
    bundle = run_experiments(parse_config(CONFIG_TEXTS[name]))
    emit_report(bundle, tmp_path)
    assert (tmp_path / "manifest.json").read_text() == reference(bundle.manifest)
    assert (tmp_path / "report.json").read_text() == reference(bundle.to_dict())


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}}, {"a": [[], ()]}, [{"b": -0.0, "a": math.nan}], "é\n", 10**40,
], ids=repr)
def test_edge_documents(doc):
    assert _json_text(doc) == reference(doc)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), object(), {1, 2}, b"x"],
                         ids=lambda v: type(v).__name__)
def test_values_the_reference_rejects_raise_type_error(value):
    for doc in (value, [1.0, value], {"a": {"b": (value,)}}):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            _json_text(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2), np.int64(1)], ids=repr)
def test_non_str_keys_raise_type_error(key):
    with pytest.raises(TypeError, match="keys must be str"):
        _json_text({"a": [{key: 1, "b": 2}]})
