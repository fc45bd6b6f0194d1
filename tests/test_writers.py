"""The CLI's CSV and JSON writers against their oracles, over random
tables: ``json.dumps(obj, indent=2)`` for every JSON shape the CLI
emits, and the cell rule of the former per-cell CSV writer for CSV.
Cells include ``Direction`` members, which report rows carry and both
writers write as their value."""

import json
import math

from hypothesis import given, strategies as st

from bayesflip._writers import csv_text, json_text
from bayesflip.bayes_factor import Direction
from bayesflip.cli import Table

FLOATS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308,
                     1.7976931348623157e308, math.nan, math.inf, -math.inf]),
)
INTS = st.integers(min_value=-10**30, max_value=10**30)
TEXT = st.text(st.one_of(st.sampled_from('"\\%\n,'), st.characters()), max_size=8)
CELLS = st.one_of(st.none(), FLOATS, INTS, TEXT, st.sampled_from(Direction))


@st.composite
def tables(draw, name=TEXT, min_rows=1, max_rows=6):
    header = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.tuples(*[CELLS] * len(header)), min_size=min_rows,
                         max_size=max_rows))
    return Table(draw(name), tuple(header), rows)


def plain(cell):
    return cell.value if isinstance(cell, Direction) else cell


def objects(table):
    return [dict(zip(table.header, map(plain, row))) for row in table.rows]


@given(tables(min_rows=1, max_rows=1))
def test_one_object(table):
    assert json_text([table], True) == json.dumps(objects(table)[0], indent=2)


@given(tables())
def test_list_of_objects(table):
    assert json_text([table], False) == json.dumps(objects(table), indent=2)


@given(st.lists(tables(max_rows=3), min_size=2, max_size=3, unique_by=lambda t: t.name))
def test_object_of_lists(tabs):
    # figure1's {"panel_a": [...], "panel_b": [...]}
    expected = json.dumps({t.name: objects(t) for t in tabs}, indent=2)
    assert json_text(tabs, False) == expected


def former_cell(v):
    """The former CSV cell rule."""
    if v is None:
        return ""
    if isinstance(v, Direction):
        return v.value
    if isinstance(v, float):
        return repr(v)
    return str(v)


@given(tables())
def test_csv(table):
    lines = [",".join(table.header)]
    lines.extend(",".join(former_cell(c) for c in row) for row in table.rows)
    assert csv_text(table) == "\n".join(lines) + "\n"
