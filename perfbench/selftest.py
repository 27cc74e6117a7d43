"""Self-test of the benchmark's own arithmetic (stats.py).

Runs at the start of every benchmark run, and on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys

import stats


class SelfTestError(AssertionError):
    pass


def _expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def _near(a, b, message):
    _expect(abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"{message}: {a!r} != {b!r}")


def test_self_times():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "c", "start": 5.0, "end": 9.0, "parent": 0},
        {"name": "a", "start": 9.5, "end": 9.75, "parent": 0},
    ]
    own = stats.self_times(spans)
    for got, want in zip(own, [10 - 3 - 4 - 0.25, 2.0, 1.0, 4.0, 0.25]):
        _near(got, want, "self time")
    busy = stats.busy_by_name(spans)
    _near(busy["a"], 2.25, "busy time summed over spans of one name")
    _near(sum(busy.values()), 10.0, "self times partition the root span")


def test_tail_percentile():
    _expect(stats.tail_percentile(list(range(10))) == (None, None),
            "ten samples leave no percentile with ten beyond it")
    pct, val = stats.tail_percentile(list(range(11)))
    _expect(val == 0 and math.isclose(pct, 100 / 11), "11 samples: only the minimum qualifies")
    pct, val = stats.tail_percentile(list(range(100, 0, -1)))
    _expect(pct == 90.0 and val == 90, f"100 samples give p90 = 90, got p{pct} = {val}")
    summary = stats.timing_summary([3.0, 1.0, 2.0])
    _expect(summary == {"median": 2.0, "tail_percentile": None, "tail_value": None,
                        "samples": 3}, f"timing summary {summary}")


def test_rusage():
    children = [{"utime": 1.5, "stime": 0.25, "maxrss_kb": 2048},
                {"utime": 0.5, "stime": 0.75, "maxrss_kb": 4096}]
    agg = stats.aggregate_rusage(children)
    _near(agg["cpu_s"], 3.0, "cpu time adds over children")
    _near(agg["peak_rss_mb"], 4.0, "peak is the largest child")


def test_ratios():
    _near(stats.error_ratio(1.05, 1.0, 0.1), 0.5, "error ratio")
    _expect(math.isnan(stats.error_ratio(float("nan"), 1.0, 0.1)), "nan value is a failure")
    _expect(stats.largest_finite([0.2, 0.7, 0.1]) == 0.7, "largest ratio")
    _expect(stats.largest_finite([0.2, float("nan"), math.inf]) == 0.2,
            "failed checks stay out of the ratio metric")
    try:
        stats.error_ratio(1.0, 1.0, 0.0)
    except ValueError:
        pass
    else:
        raise SelfTestError("zero tolerance accepted")


def test_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       400 |        450 |     scipy.integrate",
        "import time:        20 |        470 |   selfpulse.semiclassics",
        "import time:        30 |        800 | selfpulse",
        "import time:        10 |         10 | selfpulse.cli",
    ])
    got = stats.parse_importtime(text)
    _near(got["total_s"], 810e-6, "total = top-level selfpulse cumulative")
    _near(got["scipy_s"], 450e-6, "scipy counted once at its outermost import")
    _near(got["selfpulse_self_s"], 60e-6, "selfpulse self time")


def run():
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run()
    print("selftest ok")
    sys.exit(0)
