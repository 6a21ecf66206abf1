"""``cli.json_text`` writes the bytes of ``json.dumps(obj, indent=2)``.

The writer runs on every Python version here, including those where
``Report.render`` calls ``json.dumps`` itself.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.cli import json_text

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e22, -1e22, 0.1, math.nan, math.inf, -math.inf]
EDGE_INTS = [2**70, -(2**70), 0, -1, 2**63]
EDGE_TEXT = ["", "%", "%s", "a\nb", 'say "hi"', "\\", "é", "ü☃", "\U0001f600", "\x00\x1f"]

text = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=6))
scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(EDGE_INTS),
    st.integers(),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    text,
)
cell = st.one_of(scalar, st.lists(scalar, max_size=4))


@st.composite
def tables(draw):
    """Lists of records: mostly one key order, sometimes a record with
    another order or key set."""
    keys = draw(st.lists(text, min_size=0, max_size=4, unique=True))
    columns = {k: draw(st.one_of(st.just(scalar), st.just(cell))) for k in keys}
    rows = draw(st.lists(
        st.fixed_dictionaries({k: columns[k] for k in keys}), min_size=0, max_size=6
    ))
    if rows and draw(st.booleans()):
        odd = dict(reversed(list(draw(st.dictionaries(text, cell, max_size=4)).items())))
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


documents = st.recursive(
    st.one_of(cell, tables()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(text, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(documents)
@example({"manifest": {"inputs": []}, "result": {}})
@example([{"x": 1, "y": 2.5}, {"x": True, "y": None}, {"x": -0.0, "y": [1, "a\n"]}])
@example([{"a": 1, "b": 2}, {"b": 1, "a": 2}, {"a": 3}])
@example([{"%d": "%s", 'k"\n': 5e-324}, {"%d": "é", 'k"\n': 1e16}])
@example([{"route": []}, {"route": [1, "é", math.nan]}])
@example([[], {}, [[]], [{}], {"": []}])
@example({1: "a", "b": [math.inf, -math.inf, -(2**70)]})
def test_writer_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)

