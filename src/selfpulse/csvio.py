"""The one CSV writer behind every table the package emits."""

import contextlib
import os


def write_csv(path, header, rows) -> None:
    """Write a ``header`` line of column names, then one line per row of ``rows``.

    ``rows`` is any iterable of rows, each a sequence of numbers with one
    value per name in ``header`` (an array's ``tolist()`` is one); a
    generator is written as it yields, so the table is never held whole.
    Values are written as ``.17g`` (round-trip double precision) and lines
    end in ``\\n`` on every platform, so equal inputs give byte-identical
    files.  Rows go to a sibling ``<path>.tmp`` that replaces ``path`` after
    the last row and is deleted on any error, so a table is written whole
    or not at all.
    """
    width = len(header)
    line = ",".join(["%.17g"] * width) + "\n"
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                if len(row) != width:
                    raise ValueError(f"every row of the table needs {width} values")
                fh.write(line % tuple(row))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
