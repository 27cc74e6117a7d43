"""The benchmark's own arithmetic: summaries, span self time, rusage, ratios.

Kept free of numpy and of selfpulse so that ``selftest.py`` can check it in
isolation and so that the orchestrator can use it before anything is built.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values) if values else math.nan


def tail_percentile(values):
    """Highest percentile of ``values`` with >= TAIL_SAMPLES samples beyond it.

    Returns ``(percent, value)`` using the nearest-rank definition: the
    k-th smallest of n samples is the 100*k/n percentile and has n-k
    samples above it.  With fewer than TAIL_SAMPLES + 1 samples no
    percentile qualifies and ``(None, None)`` is returned.
    """
    n = len(values)
    k = n - TAIL_SAMPLES
    if k < 1:
        return None, None
    ordered = sorted(values)
    return 100.0 * k / n, ordered[k - 1]


def timing_summary(values) -> dict:
    """Median, qualifying tail percentile and sample count of a timing."""
    pct, val = tail_percentile(values)
    return {"median": median(values), "tail_percentile": pct, "tail_value": val,
            "samples": len(values)}


def self_times(spans) -> list:
    """Self time of every span: its duration minus the time of its children.

    ``spans`` is a list of dicts with ``start``, ``end`` and ``parent`` (the
    index of the enclosing span or None).  Spans come from one thread, so
    the children of a span are disjoint and lie inside it.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def busy_by_name(spans) -> dict:
    """Summed self time per span name."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def aggregate_rusage(children) -> dict:
    """Pass-level resource figures from per-child ``os.wait4`` rusage.

    ``children`` holds one dict per child process with ``utime``, ``stime``
    (seconds) and ``maxrss_kb``.  CPU time adds up across children; the
    resident-set peak is the largest single child, since children run one
    after another.
    """
    cpu = sum(c["utime"] + c["stime"] for c in children)
    peak = max((c["maxrss_kb"] for c in children), default=0)
    return {"cpu_s": cpu, "peak_rss_mb": peak / 1024.0}


def error_ratio(value, reference, tolerance) -> float:
    """|value - reference| / tolerance; nan (a failure) for non-finite input."""
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    err = abs(float(value) - float(reference))
    return err / tolerance if math.isfinite(err) else math.nan


def largest_finite(ratios) -> float:
    """Largest finite ratio.  Non-finite ratios are failed checks, which are
    counted as failed operations rather than folded into a metric."""
    return max((r for r in ratios if math.isfinite(r)), default=0.0)


def parse_importtime(text: str) -> dict:
    """Set-up breakdown from ``python -X importtime -c "import selfpulse.cli"``.

    ``total_s`` sums the cumulative time of the top-level selfpulse imports;
    ``scipy_s`` sums the cumulative time of every scipy import not nested in
    another scipy import, i.e. all that importing scipy costs; and
    ``selfpulse_self_s`` sums the self time of the selfpulse modules.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2][1:].rstrip()  # "| " then two spaces per nesting level
        level = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((level, name.strip().split(".")[0], int(fields[0]), int(fields[1])))
    total = scipy = own = 0
    ancestors = []
    # Lines are printed as imports finish, children before their parent, so
    # walking them backwards visits every parent before its children.
    for level, root, self_us, cum_us in reversed(rows):
        del ancestors[level:]
        if root == "selfpulse":
            own += self_us
            total += cum_us if level == 0 else 0
        elif root == "scipy" and "scipy" not in ancestors:
            scipy += cum_us
        ancestors.append(root)
    return {"total_s": total / 1e6, "scipy_s": scipy / 1e6, "selfpulse_self_s": own / 1e6}
