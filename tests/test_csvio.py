import numpy as np
import pytest

from selfpulse.csvio import write_csv


def row_by_row(path, header, rows):
    """The writer ``write_csv`` replaced: one ``format(v, ".17g")`` per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def test_matches_the_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf, 0.1, 1 / 3]
    x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                        special])
    y = x[::-1].copy()
    counts = [int(n) for n in rng.integers(0, 2**40, len(x))]  # written as ints before
    header = ("x", "y", "n")
    row_by_row(tmp_path / "old.csv", header, zip(x, y, counts))
    write_csv(tmp_path / "new.csv", header, np.column_stack([x, y, counts]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def two_rows_then_fail():
    yield (1.0, 2.0)
    yield (3.0, 4.0)
    raise ArithmeticError("the third row fails")


@pytest.mark.parametrize("earlier", [None, "before\n"], ids=["no_file", "earlier_file"])
def test_failing_table_leaves_the_path_as_it_was(tmp_path, earlier):
    if earlier is not None:
        (tmp_path / "t.csv").write_text(earlier)
    with pytest.raises(ArithmeticError):
        write_csv(tmp_path / "t.csv", ("x", "y"), two_rows_then_fail())
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["t.csv"])
    if earlier is not None:
        assert (tmp_path / "t.csv").read_text() == earlier
