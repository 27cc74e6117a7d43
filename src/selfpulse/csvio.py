"""The one CSV writer behind every table the package emits."""


def write_csv(path, header, table) -> None:
    """Write a ``header`` line of column names, then one line per row of ``table``.

    ``table`` is a list of rows, each a sequence of numbers with one value
    per name in ``header`` (an array's ``tolist()`` is one).  Values are
    written as ``.17g`` (round-trip double precision) in one formatting
    pass, and lines end in ``\\n`` on every platform, so equal inputs give
    byte-identical files.
    """
    width = len(header)
    if any(len(row) != width for row in table):
        raise ValueError(f"every row of the table needs {width} values")
    line = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(table) % tuple(v for row in table for v in row))
