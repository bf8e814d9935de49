"""Minimal hand-emitted SVG line plots (no plotting dependency).

CSV stays the canonical output; these are quick-look figures with linear or
log axes, one polyline per series, and a small legend.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks_linear(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(v)
        v += step
    return out


def _ticks_log(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def line_plot(series, title="", xlabel="", ylabel="", log_x=False, log_y=False):
    """Render series = [(label, xs, ys), ...] to an SVG string."""
    pts = [(float(x), float(y)) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")

    def tx(v):
        return math.log10(v) if log_x else v

    def ty(v):
        return math.log10(v) if log_y else v

    xs_all = [tx(x) for x, _ in pts if (not log_x or x > 0)]
    ys_all = [ty(y) for _, y in pts if (not log_y or y > 0)]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    padx = 0.05 * (x_hi - x_lo)
    pady = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - padx, x_hi + padx
    y_lo, y_hi = y_lo - pady, y_hi + pady

    def px(v):
        return _ML + (tx(v) - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (ty(v) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes box
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>'
    )
    # ticks
    if log_x:
        tick_x = [v for v in _ticks_log(10**x_lo, 10**x_hi) if x_lo <= math.log10(v) <= x_hi]
    else:
        tick_x = _ticks_linear(x_lo, x_hi)
    for v in tick_x:
        x = px(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">{v:.3g}</text>'
        )
    if log_y:
        tick_y = [v for v in _ticks_log(10**y_lo, 10**y_hi) if y_lo <= math.log10(v) <= y_hi]
    else:
        tick_y = _ticks_linear(y_lo, y_hi)
    for v in tick_y:
        y = py(v)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_H / 2:.0f})">{ylabel}</text>'
    )
    # series
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = [
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if (not log_x or x > 0) and (not log_y or y > 0)
        ]
        if coords:
            parts.append(
                f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 170}" y1="{ly}" x2="{_W - 145}" y2="{ly}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{_W - 140}" y="{ly + 4}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
