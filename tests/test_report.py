"""Dataset builders (sweeps, reference table, figure panels) and the SVG
emitter."""

import math
import random
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from bayesflip.bayes_factor import Direction, TestSetup, log_bf01
from bayesflip.cauchy import CauchyPrior, bf01_cauchy
from bayesflip.errors import DomainError
from bayesflip.report import (
    ROW_FLIP,
    ROW_MARKER,
    ROW_POINT,
    TABLE_Z_VALUES,
    figure_panel_a,
    figure_panel_b,
    scale_grid,
    sweep_flip_row,
    sweep_rows,
    table_rows,
)
from bayesflip.svg import (_HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH,
                           Marker, Series, _nice_ticks, _padded, line_chart)

DBL_MAX = sys.float_info.max

# published-precision reference cells: z -> (p, k*, tau*(50), tau*(100))
TABLE_CELLS = {
    1.50: (0.134, 5.82, 0.34, 0.24),
    1.96: (0.050, 41.58, 0.91, 0.64),
    2.00: (0.046, 49.44, 0.99, 0.70),
    2.50: (0.012, 510.72, 3.20, 2.26),
    3.00: (0.003, 8093.08, 12.72, 9.00),
}


class TestScaleGrid:
    def test_linear(self):
        g = scale_grid(0.0, 1.0, 5)
        assert g == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log(self):
        g = scale_grid(0.01, 100.0, 5, "log")
        assert g == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            scale_grid(1.0, 2.0, 1)
        with pytest.raises(DomainError):
            scale_grid(2.0, 1.0, 10)
        with pytest.raises(DomainError):
            scale_grid(-1.0, 1.0, 10, "log")
        with pytest.raises(DomainError):
            scale_grid(0.0, 1.0, 10, "cubic")

    @pytest.mark.parametrize("lo,hi,points", [
        (0.1, 1e308, 100),
        (1e-300, 1.7976931348623157e308, 1000),
        (-1e308, 1e308, 7),
        (-1.7976931348623157e308, 1.7976931348623157e308, 3),
    ])
    def test_linear_bounds_near_the_float_range(self, lo, hi, points):
        # (hi - lo) * i overflows here, and inf points used to follow
        g = scale_grid(lo, hi, points)
        assert len(g) == points and g[0] == lo and g[-1] == hi
        assert all(math.isfinite(x) for x in g)
        assert all(a < b for a, b in zip(g, g[1:]))

    def test_log_grid_up_to_the_largest_float(self):
        # the last point, exp of a log rounded past log(DBL_MAX), used to overflow
        g = scale_grid(2.898708081470005e-121, DBL_MAX, 6, "log")
        assert len(g) == 6 and g[0] == 2.898708081470005e-121 and g[-1] == DBL_MAX
        assert all(math.isfinite(x) for x in g)
        assert all(a < b for a, b in zip(g, g[1:]))

    def test_linear_grid_within_two_ulps_of_exact(self):
        """Each point against lo + (hi - lo) i / n in exact rationals, with
        both ends exact and the points strictly increasing; the seeded
        draw reached 2.07 ulps under the old lo + (hi - lo) * i / n."""
        rng = random.Random(1)
        cases = [(0.1, 3.0, 100), (0.02, 4.7, 37), (1e300, 1e307, 11),
                 (0.1, 1e308, 100), (1e-300, DBL_MAX, 1000), (-1e308, 1e308, 7),
                 (-DBL_MAX, DBL_MAX, 3)]
        for _ in range(400):
            lo = rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-5, 5)
            cases.append((lo, lo + rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-5, 5),
                          rng.randint(2, 300)))
        for lo, hi, points in cases:
            g = scale_grid(lo, hi, points)
            assert len(g) == points and g[0] == lo and g[-1] == hi
            assert all(a < b for a, b in zip(g, g[1:]))
            for i, x in enumerate(g):
                exact = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * i / (points - 1)
                assert abs(Fraction(x) - exact) <= 2 * Fraction(math.ulp(exact)), (lo, hi, i)


class TestSweep:
    def test_normal_sweep_crosses_once_at_critical_scale(self):
        setup = TestSetup(n=50, z=2.0)
        rows = sweep_rows(setup, "normal", scale_grid(0.1, 3.0, 100))
        dirs = [r.direction for r in rows]
        # H1 region first, H0 region after; no return trips
        h1_idx = [i for i, d in enumerate(dirs) if d is Direction.FAVOURS_H1]
        h0_idx = [i for i, d in enumerate(dirs) if d is Direction.FAVOURS_H0]
        assert h1_idx and h0_idx
        assert max(h1_idx) < min(h0_idx)
        # the crossing brackets tau*
        lo = rows[max(h1_idx)].scale
        hi = rows[min(h0_idx)].scale
        assert lo < 0.9944 < hi
        assert hi - lo == pytest.approx(2.9 / 99.0, rel=1e-9)

    def test_small_z_never_favours_h1(self):
        rows = sweep_rows(TestSetup(n=50, z=0.5), "normal", scale_grid(0.05, 4.0, 40))
        assert all(r.direction in (Direction.FAVOURS_H0, Direction.NEUTRAL) for r in rows)
        assert sweep_flip_row(TestSetup(n=50, z=0.5)) is None

    def test_flip_annotation_row(self):
        row = sweep_flip_row(TestSetup(n=50, z=2.0))
        assert row.kind == ROW_FLIP
        assert row.k == pytest.approx(49.44, abs=0.01)
        assert row.scale == pytest.approx(0.99, abs=0.01)
        assert row.bf01 == 1.0 and row.direction is Direction.NEUTRAL

    @pytest.mark.parametrize("z", [26.6418, 30.0, -40.0])
    def test_no_flip_row_where_k_star_overflows(self, z):
        setup = TestSetup(n=50, z=z)
        assert sweep_flip_row(setup) is None
        assert len(sweep_rows(setup, "normal", scale_grid(0.1, 3.0, 10))) == 10

    def test_flip_row_up_to_the_largest_finite_k_star(self):
        row = sweep_flip_row(TestSetup(n=50, z=-26.6417))
        assert row.kind == ROW_FLIP and 1e308 < row.k < math.inf

    def test_large_sample_swing(self):
        """Across the four headline scales the factor swings 33-fold."""
        rows = sweep_rows(TestSetup(n=5000, z=1.96), "normal",
                          [0.05, math.sqrt(2.0) / 2.0, 1.0, 2.0])
        vals = [r.bf01 for r in rows]
        assert 32.0 <= max(vals) / min(vals) <= 34.0

    def test_cauchy_sweep_has_no_k(self):
        rows = sweep_rows(TestSetup(n=50, z=2.0), "cauchy", [0.3, 0.6, 1.0])
        assert all(r.k is None for r in rows)
        assert rows[0].bf01 < rows[-1].bf01

    def test_cauchy_rows_equal_bf01_cauchy(self):
        """n = 50, so y = Im zeta = 5r: with x = |z|/sqrt(2) the rows reach
        each route of the kernel, the trapezoidal rule (|zeta| < 7), the
        asymptotic series (|zeta| >= 7) and, at 1.7e308, the large-gamma
        asymptote (sqrt(n) r overflows)."""
        scales = [1e-9, 1e-6, 0.01, 0.1, 0.3, 0.7, 1.0, 1.4, 3.0, 10.0, 1e3, 1e9, 1.7e308]
        assert math.isinf(math.sqrt(50) * scales[-1])
        routes = set()
        for z in (0.0, 1.0, 3.0, -4.0, 9.0, 12.0, 38.0):
            setup = TestSetup(n=50, z=z)
            # below |z| ~ 2.9 BF01 overflows a float at the largest scale
            scales_z = scales if abs(z) >= 3.0 else scales[:-1]
            rows = sweep_rows(setup, "cauchy", scales_z)
            assert [r.scale for r in rows] == scales_z
            for r in rows:
                res = bf01_cauchy(setup, CauchyPrior(r.scale))
                assert (r.kind, r.k) == (ROW_POINT, None)
                assert r.bf01 == res.bf01 and r.log_bf01 == res.log_bf01
                assert r.direction == res.direction
                x, y = abs(z) / math.sqrt(2), 5.0 * r.scale
                routes.add("asymptote" if math.isinf(math.sqrt(50) * r.scale)
                           else "series" if x * x + y * y >= 49.0 else "trapezoid")
        assert routes == {"trapezoid", "series", "asymptote"}

    @pytest.mark.parametrize("family", ["normal", "cauchy"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_rejected_by_name(self, family, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad}")):
            sweep_rows(TestSetup(n=50, z=2.0), family, [0.5, bad, 1.0])

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            sweep_rows(TestSetup(n=50, z=2.0), "laplace", [1.0])

    def test_rows_consistent_with_closed_form(self):
        setup = TestSetup(n=50, z=2.0)
        for r in sweep_rows(setup, "normal", [0.3, 0.9944, 2.5]):
            assert r.log_bf01 == pytest.approx(log_bf01(2.0, r.k), rel=1e-15)
            assert r.bf01 == pytest.approx(math.exp(r.log_bf01), rel=1e-15)


class TestTableRows:
    def test_reference_cells_at_published_precision(self):
        rows = table_rows()
        assert [r.z for r in rows] == list(TABLE_Z_VALUES)
        for r in rows:
            p, k_star, t50, t100 = TABLE_CELLS[r.z]
            assert r.z_squared == r.z * r.z
            assert r.p_value == pytest.approx(p, abs=1e-3)
            assert r.k_star == pytest.approx(k_star, abs=0.01)
            assert r.tau_star_n50 == pytest.approx(t50, abs=0.01)
            assert r.tau_star_n100 == pytest.approx(t100, abs=0.01)


class TestFigureDatasets:
    def test_panel_a_structure(self):
        rows = figure_panel_a(points=50)
        points = [r for r in rows if r.kind == ROW_POINT]
        flips = [r for r in rows if r.kind == ROW_FLIP]
        assert len(points) == 50 * len(TABLE_Z_VALUES)
        assert len(flips) == len(TABLE_Z_VALUES)
        assert all(1e-2 <= r.x <= 1e5 for r in points)
        by_z = {r.z: r.x for r in flips}
        assert by_z[1.96] == pytest.approx(41.58, abs=0.01)
        assert by_z[3.00] == pytest.approx(8093.08, abs=0.5)

    def test_panel_b_markers(self):
        rows = figure_panel_b(points=30)
        markers = {r.x: r.bf01 for r in rows if r.kind == ROW_MARKER}
        assert markers[0.8] == pytest.approx(0.83, abs=0.01)
        assert markers[1.5] == pytest.approx(1.47, abs=0.01)
        flip = [r for r in rows if r.kind == ROW_FLIP]
        assert len(flip) == 1
        assert flip[0].x == pytest.approx(0.99, abs=0.01)


class TestSvgEmitter:
    def _chart(self, title="demo", **kwargs):
        xs = tuple(0.1 * i + 0.1 for i in range(30))
        ys = tuple(math.exp(math.sin(x)) for x in xs)
        return line_chart([Series("demo", xs, ys)],
                          [Marker(1.0, math.exp(math.sin(1.0)), label="m")],
                          title=title, x_label="x", **kwargs)

    def test_wellformed_xml_with_expected_elements(self):
        doc = self._chart(title="demo chart")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        body = doc.replace('xmlns="http://www.w3.org/2000/svg"', "")
        assert "<polyline" in body
        assert "<circle" in body
        assert "stroke-dasharray" in body  # the reference line at 1.0

    def test_log_axes_parse(self):
        doc = self._chart(log_x=True, log_y=True)
        ET.fromstring(doc)
        assert "<polyline" in doc

    def test_nothing_to_plot_raises(self):
        with pytest.raises(ValueError):
            line_chart([Series("empty", (), ())], title="empty", x_label="x")
        with pytest.raises(DomainError, match="nothing finite"):
            line_chart([Series("nan", (math.nan,), (1.0,))], title="nan", x_label="x")

    @pytest.mark.parametrize("x", [1e16, DBL_MAX, -DBL_MAX])
    def test_one_x_value_at_any_magnitude_parses(self, x):
        """The pad of a zero-width axis scales with the value: a pad of 0.5
        vanished past about 2^53 and left the axis with no width."""
        ET.fromstring(line_chart([Series("a", (x,), (1.0,))], title="t", x_label="x"))


# axis bounds as charts meet them: zero or a normal float, far from overflow
BOUNDS = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@st.composite
def axis_ranges(draw):
    """Finite lo < hi: two free bounds, or a span of 1 to 4 ulps."""
    lo = draw(BOUNDS)
    if lo != 0.0 and draw(st.booleans()):
        hi = lo
        for _ in range(draw(st.integers(1, 4))):
            hi = math.nextafter(hi, math.inf)
        return lo, hi
    hi = draw(BOUNDS)
    assume(lo != hi)
    return min(lo, hi), max(lo, hi)


@given(axis_ranges())
def test_nice_ticks_are_few_sorted_and_in_range(bounds):
    """Ticks are i * step for an integer range set by the span, so even a
    span of one ulp, below the step's resolution, gives a short list."""
    lo, hi = bounds
    ticks = _nice_ticks(lo, hi)
    top = hi + 1e-9 * (hi - lo)
    assert len(ticks) <= 12
    assert ticks == sorted(ticks)
    for t in ticks:
        assert lo - math.ulp(lo) <= t <= top + math.ulp(top)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(FINITE, FINITE, st.sampled_from([0.04, 0.06]))
def test_padded_axis_is_finite_and_distinct_over_the_float_range(a, b, frac):
    lo, hi = _padded(min(a, b), max(a, b), frac)
    assert -DBL_MAX <= lo <= min(a, b) <= max(a, b) <= hi <= DBL_MAX and lo < hi
    ticks = _nice_ticks(lo, hi)
    assert len(ticks) <= 12 and ticks == sorted(ticks)
    assert all(math.isfinite(t) for t in ticks)


@given(axis_ranges())
def test_chart_draws_each_tick_label_once(bounds):
    """On an axis finer than the labels' six digits, ticks that print alike
    (or land on the same pixel) are drawn once."""
    lo, hi = bounds
    chart = line_chart([Series("", (lo, hi), (1.0, 2.0))], title="t", x_label="x")
    texts = list(ET.fromstring(chart).iter("{http://www.w3.org/2000/svg}text"))
    # tick labels: x below the plot box, y right-aligned left of it
    for axis in ([t.text for t in texts if t.get("y") == "452"],
                 [t.text for t in texts if t.get("text-anchor") == "end"]):
        assert axis and len(axis) == len(set(axis)), axis


@pytest.mark.parametrize("lo,hi", [(0.1, math.inf), (math.nan, 3.0), (-math.inf, 1.0),
                                   (0.1, math.nan)])
@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_scale_grid_rejects_non_finite_bounds(lo, hi, spacing):
    with pytest.raises(DomainError, match="finite"):
        scale_grid(lo, hi, 10, spacing)


def former_polylines(series, log_x, log_y):
    """Each series' points= text by the former per-point formula, for a
    chart with no markers and no ref_x."""
    tx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)
    xs = [v for s in series for v in map(tx, s.xs) if math.isfinite(v)]
    ys = [v for s in series for v in map(ty, s.ys) if math.isfinite(v)] + [ty(1.0)]
    x_lo, x_hi = _padded(min(xs), max(xs), 0.04)
    y_lo, y_hi = _padded(min(ys), max(ys), 0.06)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x_lo2, x_span2 = x_lo / 2, x_hi / 2 - x_lo / 2
    y_hi2, y_span2 = y_hi / 2, y_hi / 2 - y_lo / 2

    def px(v):
        return _MARGIN_L + (tx(v) / 2 - x_lo2) / x_span2 * plot_w

    def py(v):
        return _MARGIN_T + (y_hi2 - ty(v) / 2) / y_span2 * plot_h

    return [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys)
                     if math.isfinite(tx(x)) and math.isfinite(ty(y)))
            for s in series]


LINEAR_COORD = st.one_of(st.floats(-1e100, 1e100),
                         st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))
LOG_COORD = st.one_of(st.floats(1e-100, 1e100), st.sampled_from([math.nan, math.inf]))


@st.composite
def charted_series(draw):
    """(series, log_x, log_y): one to three series of up to 20 points,
    finite and not, on linear or log axes, with at least one finite x."""
    log_x, log_y = draw(st.booleans()), draw(st.booleans())
    point = st.tuples(LOG_COORD if log_x else LINEAR_COORD, LOG_COORD if log_y else LINEAR_COORD)
    series = [Series(f"s{i}", *(zip(*pts) if pts else ((), ())))
              for i, pts in enumerate(draw(st.lists(st.lists(point, max_size=20),
                                                    min_size=1, max_size=3)))]
    assume(any(math.isfinite(x) for s in series for x in s.xs))
    return series, log_x, log_y


@given(charted_series())
def test_polylines_match_the_per_point_formula(drawn):
    series, log_x, log_y = drawn
    chart = line_chart(series, title="t", x_label="x", log_x=log_x, log_y=log_y)
    assert re.findall(r'<polyline points="([^"]*)"', chart) == former_polylines(
        series, log_x, log_y)
