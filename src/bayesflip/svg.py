"""Minimal self-contained SVG line charts.

Just enough for the sensitivity plots: axes with ticks, optional log
scales, one polyline per series, circle markers, and dashed reference
lines.  Pure string assembly, no plotting dependency.
"""

from __future__ import annotations

import math

from ._record import record

__all__ = ["Series", "Marker", "line_chart", "PALETTE"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 30, 46
_MARKER_COLOR = PALETTE[1]


def _escape(text: str) -> str:
    """XML text escape: the three characters ``xml.sax.saxutils.escape``
    replaces, without that module's ``urllib``/``email`` import chain."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class Series(record("Series", "label xs ys color", defaults=(PALETTE[0],))):
    """One polyline: a legend label, x and y coordinate tuples, a colour."""

    __slots__ = ()


class Marker(record("Marker", "x y label", defaults=("",))):
    """One circle marker at (x, y), labelled when label is not empty."""

    __slots__ = ()


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6.0:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = [10.0 ** e for e in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    return ticks or [10.0 ** lo]


def _fmt(v: float) -> str:
    if v != 0.0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(series: list[Series], markers: list[Marker] = (), *,
               title: str = "", x_label: str = "", y_label: str = "",
               log_x: bool = False, log_y: bool = False,
               ref_y: float | None = None, ref_x: float | None = None) -> str:
    """Render the chart, 720 x 480 pixels, as an SVG document string."""
    tx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)

    xs = [tx(x) for s in series for x in s.xs] + [tx(m.x) for m in markers]
    ys = [ty(y) for s in series for y in s.ys] + [ty(m.y) for m in markers]
    if ref_y is not None:
        ys.append(ty(ref_y))
    if ref_x is not None:
        xs.append(tx(ref_x))
    xs = [v for v in xs if math.isfinite(v)]
    ys = [v for v in ys if math.isfinite(v)]
    if not xs or not ys:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = 0.04 * (x_hi - x_lo) or 0.5
    y_pad = 0.06 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - ty(v)) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="14">{_escape(title)}</text>')

    # axes box
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')

    x_ticks = _decade_ticks(x_lo, x_hi) if log_x else _nice_ticks(x_lo, x_hi)
    y_ticks = _decade_ticks(y_lo, y_hi) if log_y else _nice_ticks(y_lo, y_hi)
    for t in x_ticks:
        x = px(t)
        if not _MARGIN_L - 0.5 <= x <= _WIDTH - _MARGIN_R + 0.5:
            continue
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    for t in y_ticks:
        y = py(t)
        if not _MARGIN_T - 0.5 <= y <= _HEIGHT - _MARGIN_B + 0.5:
            continue
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
                   f'y2="{y:.1f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{_fmt(t)}</text>')
    if x_label:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
                   f'text-anchor="middle">{_escape(x_label)}</text>')
    if y_label:
        yc = _MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{yc:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {yc:.1f})">{_escape(y_label)}</text>')

    if ref_y is not None:
        y = py(ref_y)
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{y:.1f}" stroke="#666" stroke-dasharray="6 4"/>')
    if ref_x is not None:
        x = px(ref_x)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#666" stroke-dasharray="6 4"/>')

    for s in series:
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(s.xs, s.ys)
            if math.isfinite(tx(x)) and math.isfinite(ty(y))
        )
        out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                   f'stroke-width="1.6"/>')
    for m in markers:
        out.append(f'<circle cx="{px(m.x):.2f}" cy="{py(m.y):.2f}" r="3.5" '
                   f'fill="{_MARKER_COLOR}" stroke="white" stroke-width="1"/>')
        if m.label:
            out.append(f'<text x="{px(m.x) + 6:.1f}" y="{py(m.y) - 6:.1f}" '
                       f'fill="{_MARKER_COLOR}">{_escape(m.label)}</text>')

    # legend, top-right inside the plot box
    for i, s in enumerate(series):
        if not s.label:
            continue
        y = _MARGIN_T + 16 + 16 * i
        x = _MARGIN_L + plot_w - 130
        out.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                   f'stroke="{s.color}" stroke-width="1.6"/>')
        out.append(f'<text x="{x + 28}" y="{y}">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out)
