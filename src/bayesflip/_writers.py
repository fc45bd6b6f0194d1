"""CSV and JSON text of the CLI's tables.

A table has ``name``, ``header`` (unique column names) and ``rows``
(sequences of cells, one per column, at least one row).  A cell that is
not ``None``, an ``int`` or a ``float`` (a ``Direction``, say) is written
as its ``str``.  Both writers keep full float precision: ``str`` and
``repr`` of a float are equal and round-trip.

CSV: a header line, then one line per row; ``None`` is an empty cell and
every other cell is its ``str``.  Cells are not quoted.

JSON: exactly the text of ``json.dumps(obj, indent=2)``, where each row
is the object ``dict(zip(header, row))``, its cells taken as above.
Each table's rows are filled into one ``%``-template, because
``json.dumps`` with an indent runs CPython's pure-Python encoder.  Cells
are formatted a column at a time, by one of two paths: a column of
finite floats is its ``repr``s, and any other column formats each
distinct object once, looked up by identity, which is exact for any type
(kind tags, directions or ``None`` are a few objects).  ``json`` is
imported only when JSON is written.
"""

__all__ = ["csv_text", "json_text"]


def csv_text(table) -> str:
    lines = [",".join(table.header)]
    lines.extend([",".join(["" if c is None else str(c) for c in row]) for row in table.rows])
    return "\n".join(lines) + "\n"


def json_text(tables, one_object: bool) -> str:
    """The one row of the one table as an object when ``one_object``;
    otherwise the rows of a single table as a list of objects, or several
    tables as an object of such lists keyed by table name."""
    from json import dumps
    from json.encoder import encode_basestring_ascii as quote
    from math import isfinite

    def cell(v):
        if type(v) is float and isfinite(v):
            return repr(v)
        if v is None or isinstance(v, (int, float)):
            return dumps(v)
        return quote(str(v))

    def column(cells):
        """The JSON text of each cell of one column."""
        if set(map(type, cells)) == {float} and all(map(isfinite, cells)):
            return map(repr, cells)
        text = {id(v): v for v in cells}  # by identity: exact for any type
        text = {i: cell(v) for i, v in text.items()}
        return map(text.__getitem__, map(id, cells))

    def template(header, indent):
        """%-template of one row object whose closing brace is at indent."""
        sep = "\n" + indent + "  "
        keys = [quote(h).replace("%", "%%") + ": %s" for h in header]
        return "{" + sep + ("," + sep).join(keys) + "\n" + indent + "}"

    def rows(table, indent):
        sep = "\n" + indent + "  "
        cells = zip(*map(column, zip(*table.rows)))  # row by row, formatted by column
        objects = map(template(table.header, indent + "  ").__mod__, cells)
        return "[" + sep + ("," + sep).join(objects) + "\n" + indent + "]"

    if one_object:
        (table,) = tables
        (row,) = table.rows
        return template(table.header, "") % tuple(map(cell, row))
    if len(tables) == 1:
        return rows(tables[0], "")
    return "{\n  " + ",\n  ".join(quote(t.name) + ": " + rows(t, "  ") for t in tables) + "\n}"
