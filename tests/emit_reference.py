"""A reference writer of the CLI's tables, built on csv.writer and json.dumps, for the emission tests."""

import csv
import io
import json
import math


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return value


def _json_cell(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def reference_text(rows, fieldnames, fmt):
    """The text of rows, lists of Python float, int, bool or str cells in fieldnames order.

    CSV is csv.writer over "%.17g", str(int), true/false and the raw str
    cells; JSON is json.dumps of the row objects, with None for a non-finite
    float, and a newline.
    """
    if fmt == "json":
        return json.dumps([{name: _json_cell(v) for name, v in zip(fieldnames, row)} for row in rows]) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fieldnames)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return out.getvalue()
