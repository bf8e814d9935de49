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


def _axis(values, log, pad, start, length):
    """(pixel map, ticks) of an axis whose transformed range, padded by
    `pad` of its span on each side, maps onto [start, start + length]; a
    log axis ignores values <= 0."""
    tr = math.log10 if log else float
    shown = [tr(v) for v in values if not log or v > 0]
    lo, hi = min(shown), max(shown)
    if hi == lo:
        hi = lo + 1.0
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin

    def pixel(v):
        return start + (tr(v) - lo) / (hi - lo) * length

    if log:
        return pixel, [v for v in _ticks_log(10**lo, 10**hi) if lo <= math.log10(v) <= hi]
    return pixel, _ticks_linear(lo, hi)


def line_plot(series, title="", xlabel="", ylabel="", log_x=False, log_y=False):
    """Render series = [(label, xs, ys), ...] to an SVG string."""
    pts = [(float(x), float(y)) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    px, tick_x = _axis([x for x, _ in pts], log_x, 0.05, _ML, _W - _ML - _MR)
    # pixel y grows downward: the y axis runs up from the bottom margin
    py, tick_y = _axis([y for _, y in pts], log_y, 0.08, _H - _MB, -(_H - _MT - _MB))

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
    for v in tick_x:
        x = px(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">{v:.3g}</text>'
        )
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
