"""CSV data series: the one writer behind every ``to_csv`` and ``--format csv``."""

from __future__ import annotations

import csv
import numbers


def write_series(path, header, rows):
    """Write header and rows as CSV: integers and strings as they are, any
    other number as repr(float(x)), which float() reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([x if isinstance(x, (str, numbers.Integral)) else repr(float(x))
                          for x in row] for row in rows)
