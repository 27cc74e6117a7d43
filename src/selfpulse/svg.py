"""Minimal deterministic SVG line plots (no external plotting dependency).

Output contains no timestamps or machine-dependent content, so repeated
runs with identical data produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
_N_TICKS = 5
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Curve:
    x: object
    y: object
    label: str = ""
    dashed: bool = False


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _N_TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def render_svg(path, curves, *, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Render polyline curves with axes, ticks and a small legend."""
    xs = [float(v) for c in curves for v in c.x]
    ys = [float(v) for c in curves for v in c.y]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        y0 = _MARGIN_T + plot_h
        out.append(f'<line x1="{x:.2f}" y1="{y0:.2f}" x2="{x:.2f}" y2="{y0 + 5:.2f}" '
                   'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{y0 + 18:.2f}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_MARGIN_L - 5:.2f}" y1="{y:.2f}" x2="{_MARGIN_L:.2f}" '
                   f'y2="{y:.2f}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{t:.4g}</text>')

    for idx, c in enumerate(curves):
        color = _COLORS[idx % len(_COLORS)]
        dash = ' stroke-dasharray="6,4"' if c.dashed else ""
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(c.x, c.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')

    if title:
        out.append(f'<text x="{_WIDTH / 2:.2f}" y="18" font-size="13" text-anchor="middle" '
                   f'font-family="sans-serif">{title}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 8:.2f}" '
                   f'font-size="12" text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        cx, cy = 14.0, _MARGIN_T + plot_h / 2
        out.append(f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="12" text-anchor="middle" '
                   f'font-family="sans-serif" transform="rotate(-90 {cx:.2f} {cy:.2f})">{ylabel}</text>')

    ly = _MARGIN_T + 14
    for idx, c in enumerate(curves):
        if not c.label:
            continue
        color = _COLORS[idx % len(_COLORS)]
        dash = ' stroke-dasharray="6,4"' if c.dashed else ""
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 24:.2f}" y2="{ly - 4:.2f}" '
                   f'stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{lx + 30:.2f}" y="{ly:.2f}" font-size="11" '
                   f'font-family="sans-serif">{c.label}</text>')
        ly += 16

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def gnuplot_script(path, data_files, *, title: str = "", xlabel: str = "",
                   ylabel: str = "") -> None:
    """Emit a plot script referencing already-written data files.

    ``data_files`` holds one ``(file name, label, columns, dashed)`` entry
    per curve.
    """
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key top right",
    ]
    plots = []
    for fname, label, cols, dashed in data_files:
        dash = " dashtype 2" if dashed else ""
        plots.append(f"'{fname}' using {cols} with lines{dash} title '{label}'")
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
