"""The one CSV writer behind every table the package emits."""


def write_csv(path, header, rows) -> None:
    """Write a ``header`` line of column names, then one line per row of numbers.

    Values are written as ``.17g`` (round-trip double precision) and lines end
    in ``\\n`` on every platform, so equal inputs give byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
