"""``cli.json_text`` writes the bytes of ``json.dumps(obj, indent=2)``.

``Report.render`` calls it on every Python version. A table reaches it as
columns (``cli.Table``) and is written as the list of its rows' records; a
list of dicts takes the generic path.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.cli import Report, Table, json_text

from interpreters import byte_check

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


ROUTES = ([], [1, "é", math.nan], [], [True], [-0.0, 2**70], ["%", "a\nb"])


@st.composite
def column_tables(draw):
    """(columns, level): a table as columns of one length, each of scalars
    or of scalar lists, and the nesting level it is written at."""
    rows = draw(st.integers(0, 6))
    keys = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    columns = {}
    for key in keys:
        values = draw(st.sampled_from([scalar, st.lists(scalar, max_size=4)]))
        column = draw(st.lists(values, min_size=rows, max_size=rows))
        columns[key] = draw(st.sampled_from([list, tuple]))(column)
    return columns, draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(column_tables())
@example(({"x": [], "y": ()}, 0))
@example(({"%d": [EDGE_TEXT]}, 1))
@example(({'k"é': EDGE_FLOATS[:5], "%s": EDGE_INTS}, 2))
@example(({"route": ROUTES, "ü☃": ("", "\\", "\x00\x1f", "\U0001f600", 1e22, -1e22)}, 3))
def test_table_columns_match_json_dumps_of_records(case):
    columns, level = case
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert json_text(Table(columns), level) == json.dumps(records, indent=2).replace(
        "\n", "\n" + "  " * level)


def test_table_refuses_columns_of_unequal_length():
    # zip would drop the rows the longer column holds past the shorter one
    rep = Report("fuse", [])
    with pytest.raises(RuntimeError, match="table 'omega' has columns of unequal length"):
        rep.table("omega", {"breakpoint": [0.0, 1.0], "count": [1]}, lambda x, c: "")


def test_stdlib_byte_check_finds_no_difference():
    # interpreters.py runs the same check where pytest is not installed
    assert byte_check(200) == []
