"""The one CSV writer behind every table the package emits."""

import numpy as np


def write_csv(path, header, table) -> None:
    """Write a ``header`` line of column names, then one line per row of ``table``.

    ``table`` is a 2-D array, or a list of equal-length rows, with one
    column per name in ``header``.  Values are written as ``.17g``
    (round-trip double precision) in one formatting pass, and lines end in
    ``\\n`` on every platform, so equal inputs give byte-identical files.
    """
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))
