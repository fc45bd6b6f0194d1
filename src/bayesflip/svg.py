"""Minimal self-contained SVG line charts.

Just enough for the BF01 charts: axes with ticks, optional log scales,
one polyline per series, circle markers, and dashed reference lines at
BF01 = 1 and at an optional x.  Pure string assembly, no plotting
dependency.
"""

from __future__ import annotations

import math
import sys

from ._record import record
from .errors import DomainError

__all__ = ["Series", "Marker", "line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 30, 46
_MARKER_COLOR = _PALETTE[1]
_DBL_MAX = sys.float_info.max


def _escape(text: str) -> str:
    """XML text escape: the three characters ``xml.sax.saxutils.escape``
    replaces, without that module's ``urllib``/``email`` import chain."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


Series = record(
    "Series", "label xs ys",
    """One polyline: a legend label and x and y coordinate tuples.""")

Marker = record(
    "Marker", "x y label",
    """One circle marker at (x, y), labelled when label is not empty.""",
    defaults=("",))


def _padded(lo: float, hi: float, frac: float) -> tuple[float, float]:
    """[lo, hi] widened at each end by frac of its span, or by half of
    max(1, |lo|) with no span: axis bounds that are finite and distinct."""
    pad = frac * (hi - lo) or 0.5 * max(1.0, abs(lo))
    return max(lo - pad, -_DBL_MAX), min(hi + pad, _DBL_MAX)


def _nice_step(lo: float, hi: float) -> float:
    quarter = hi / 4.0 - lo / 4.0  # span / 4, finite where the span overflows
    step = 10.0 ** math.floor(math.log10(quarter))
    return next(step * m for m in (1.0, 2.0, 5.0, 10.0) if quarter / (step * m) <= 1.5)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(lo, hi)
    top = hi / step + 4e-9 * (hi / 4.0 - lo / 4.0) / step
    return [i * step for i in range(math.ceil(lo / step), math.floor(top) + 1)]


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = [10.0 ** e for e in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    return ticks or [10.0 ** lo]


def _fmt(v: float, unit: int | None) -> str:
    """Label of tick v with its digits down to 10**unit (one if unit is None),
    zeros dropped: :g form, 6 digits or more, in [1e-3, 1e4), else exponent form."""
    places = 0 if unit is None else max(0, math.floor(math.log10(abs(v) or 1.0)) - unit)
    if v == 0.0 or 1e-3 <= abs(v) < 1e4:
        return f"{v:.{min(17, max(6, places + 1))}g}"
    mantissa, exp = f"{v:.{min(16, places)}e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exp}"


def _drawn_ticks(lo: float, hi: float, log: bool, to_px, px_lo: float, px_hi: float):
    """(pixel, label) of each tick of [lo, hi] (decades if log) within half a
    pixel of [px_lo, px_hi] whose label and pixel, as written, both differ
    from the last drawn: on an axis finer than the labels, ticks overprint."""
    unit = None if log else math.floor(math.log10(_nice_step(lo, hi)))
    last_pos = last_label = None
    for t in _decade_ticks(lo, hi) if log else _nice_ticks(lo, hi):
        p = to_px(t)
        pos, label = f"{p:.1f}", _fmt(t, unit)
        if px_lo - 0.5 <= p <= px_hi + 0.5 and pos != last_pos and label != last_label:
            last_pos, last_label = pos, label
            yield p, label


def line_chart(series: list[Series], markers: list[Marker] = (), *, title: str,
               x_label: str, log_x: bool = False, log_y: bool = False,
               ref_x: float | None = None) -> str:
    """Render the chart of BF01 against x, 720 x 480 pixels, as an SVG
    document string; series i is drawn in palette colour i."""
    tx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)

    # each series on the axes' scales, transformed once for bounds and polyline
    series_xs = [list(map(math.log10, s.xs)) if log_x else s.xs for s in series]
    series_ys = [list(map(math.log10, s.ys)) if log_y else s.ys for s in series]
    xs = [v for t in series_xs for v in t] + [tx(m.x) for m in markers]
    ys = [v for t in series_ys for v in t] + [ty(m.y) for m in markers] + [ty(1.0)]
    if ref_x is not None:
        xs.append(tx(ref_x))
    xs = [v for v in xs if math.isfinite(v)]
    ys = [v for v in ys if math.isfinite(v)]
    if not xs:  # ys holds at least the BF01 = 1 line
        raise DomainError("nothing finite to plot")
    x_lo, x_hi = _padded(min(xs), max(xs), 0.04)
    y_lo, y_hi = _padded(min(ys), max(ys), 0.06)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # differences of halves: exact halves, and finite on any finite axis
    x_lo2, x_span2 = x_lo / 2, x_hi / 2 - x_lo / 2
    y_hi2, y_span2 = y_hi / 2, y_hi / 2 - y_lo / 2

    def px(v: float) -> float:
        return _MARGIN_L + (tx(v) / 2 - x_lo2) / x_span2 * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi2 - ty(v) / 2) / y_span2 * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>',
    ]

    # axes box
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')

    for x, label in _drawn_ticks(x_lo, x_hi, log_x, px, _MARGIN_L, _WIDTH - _MARGIN_R):
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for y, label in _drawn_ticks(y_lo, y_hi, log_y, py, _MARGIN_T, _HEIGHT - _MARGIN_B):
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
                   f'y2="{y:.1f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{label}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
               f'text-anchor="middle">{_escape(x_label)}</text>')
    yc = _MARGIN_T + plot_h / 2
    out.append(f'<text x="16" y="{yc:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {yc:.1f})">BF01</text>')

    y = py(1.0)
    out.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" '
               f'y2="{y:.1f}" stroke="#666" stroke-dasharray="6 4"/>')
    if ref_x is not None:
        x = px(ref_x)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#666" stroke-dasharray="6 4"/>')

    isfinite = math.isfinite
    for i, (sx, sy) in enumerate(zip(series_xs, series_ys)):
        # px and py of the transformed coordinates, the same arithmetic inline
        pts = " ".join(["%.2f,%.2f" % (_MARGIN_L + (a / 2 - x_lo2) / x_span2 * plot_w,
                                       _MARGIN_T + (y_hi2 - b / 2) / y_span2 * plot_h)
                        for a, b in zip(sx, sy) if isfinite(a) and isfinite(b)])
        out.append(f'<polyline points="{pts}" fill="none" '
                   f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.6"/>')
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
                   f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.6"/>')
        out.append(f'<text x="{x + 28}" y="{y}">{_escape(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out)
