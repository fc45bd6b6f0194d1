"""Checks of program outputs against the oracles in ``oracles.py``.

A ``Checker`` collects records while a run goes on and compares them
all at the end, so the numpy oracles see each run's outputs in a few
vectorized calls.  Every comparison of a Bayes factor is made in log
space on an absolute tolerance: log BF01 is near 0 close to the flip
point, where a relative test would fail on correct output.

The CLI parsers (``cli_*`` and ``figure1_*``) read what the program
wrote as JSON, CSV or SVG, check row counts and fixed grids, and file
every number as a record for the oracle comparison.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

import oracles

# Absolute tolerance on log BF01 for the closed form (normal prior).  Both
# sides are a handful of float operations on terms of size <= ~15, so
# rounding stays below 1e-13; 1e-11 leaves two orders of margin.
TOL_NORMAL_LOG = 1e-11
# Absolute tolerance on log BF01 for the Cauchy prior.  The program
# integrates numerically; its worst error seen against wofz over the
# workload domain is 2.0e-11 (z=5.2, n=807, r=3.6e-8), and 6.4e-11 on a
# 960-point grid at z=3, n=10, r=1e-6.  1e-9 is 15x the latter and still
# rejects a BF01 off by a factor 1 + 1e-6.
TOL_CAUCHY_LOG = 1e-9
# Relative tolerance on k* (and on tau* = sqrt(k*/n)).  Brent stops at
# rel_tol 1e-12 and the Lambert route loses at most a few ulps of z^2;
# the worst seen on z in [1.0001, 26] is 4.6e-12, near z = 1.0001 where
# the solver's absolute floor 1e-14 is a larger share of k* ~ 4(z-1).
TOL_K_STAR_REL = 1e-10
# r* is correct when the oracle's log BF01 changes sign between
# r*(1 - delta) and r*(1 + delta).  The solve's own error is ~1e-9
# relative (quadrature error over the slope of log BF01 in log r).
R_STAR_DELTA = 1e-6
# Relative tolerance for quantities that are exact functions of inputs
# (grids, k = n*tau^2, posteriors, p-values).
TOL_DERIVED_REL = 1e-12
# Program's tie band on log BF01: a |log BF01| at or below it is "neutral".
NEUTRAL_BAND = 1e-12

H1, NEUTRAL, H0 = "favours_h1", "neutral", "favours_h0"

TABLE_Z = (1.5, 1.96, 2.0, 2.5, 3.0)
FIG_A_POINTS, FIG_A_K = 200, (1e-2, 1e5)
FIG_B_POINTS, FIG_B_TAU = 120, (0.1, 3.0)
FIG_B_Z, FIG_B_N, FIG_B_MARKERS = 2.0, 50, (0.8, 1.5)
FIG_HEADER = ["panel", "z", "x", "bf01", "log_bf01", "direction", "kind"]
SVG_NS = "{http://www.w3.org/2000/svg}"


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


class Checker:
    """Collects outputs with their inputs; ``finish`` returns every problem."""

    def __init__(self):
        self.problems: list[str] = []
        self._normal: list[tuple] = []   # (where, z, k, log_bf, bf, direction)
        self._cauchy: list[tuple] = []   # (where, z, n, r, log_bf, bf, direction)
        self._r_star: list[tuple] = []   # (where, z, n, r)
        self._k_cache: dict[float, float] = {}
        self._seen: set[bytes] = set()
        self.checked = 0

    # -- scalar records -------------------------------------------------
    def fail(self, where, message):
        self.problems.append(f"{where}: {message}")

    def expect(self, where, ok, message):
        if not ok:
            self.fail(where, message)

    def close(self, where, name, got, want, rel=TOL_DERIVED_REL):
        if not (isinstance(got, (int, float)) and _rel_close(got, want, rel)):
            self.fail(where, f"{name} = {got!r}, expected {want!r} (rel tol {rel:g})")

    def k_star_of(self, z):
        z = abs(z)
        if z not in self._k_cache:
            self._k_cache[z] = oracles.k_star(z)
        return self._k_cache[z]

    def normal_bf(self, where, z, k, log_bf, bf, direction):
        self._normal.append((where, z, k, log_bf, bf, direction))

    def cauchy_bf(self, where, z, n, r, log_bf, bf, direction):
        self._cauchy.append((where, z, n, r, log_bf, bf, direction))

    def k_star(self, where, z, k):
        self.close(where, "k*", k, self.k_star_of(z), TOL_K_STAR_REL)

    def tau_star(self, where, z, n, tau):
        self.close(where, "tau*", tau, math.sqrt(self.k_star_of(z) / n), TOL_K_STAR_REL)

    def r_star(self, where, z, n, r):
        self._r_star.append((where, z, n, r))

    def pair(self, where, z, n, tau1, tau2, bf1, bf2):
        """A reversal pair: tau1 < tau* < tau2 and BF01(tau1) < 1 < BF01(tau2)."""
        ts = math.sqrt(self.k_star_of(z) / n)
        self.expect(where, tau1 < ts < tau2,
                    f"tau* = {ts!r} does not lie between tau1 = {tau1!r} and tau2 = {tau2!r}")
        lo, hi = oracles.normal_log_bf01([z, z], [n * tau1 * tau1, n * tau2 * tau2])
        self.expect(where, lo < 0.0 < hi,
                    f"oracle log BF01 at (tau1, tau2) = ({lo!r}, {hi!r}) is no reversal")
        self.normal_bf(where + " tau1", z, n * tau1 * tau1, None, bf1, H1)
        self.normal_bf(where + " tau2", z, n * tau2 * tau2, None, bf2, H0)

    def first_time(self, *key) -> bool:
        """False when an identical (inputs, output) pair was checked before;
        a repeat of a checked output needs no second oracle pass."""
        digest = hashlib.sha256(repr(key).encode()).digest()
        if digest in self._seen:
            return False
        self._seen.add(digest)
        return True

    # -- batch comparison -----------------------------------------------
    def _compare_bf(self, records, oracle_log, tol):
        for rec, want in zip(records, oracle_log):
            where, log_bf, bf, direction = rec[0], rec[-3], rec[-2], rec[-1]
            self.checked += 1
            if log_bf is not None and not abs(log_bf - want) <= tol:
                self.fail(where, f"log BF01 = {log_bf!r}, oracle {want!r} (abs tol {tol:g})")
            if bf is not None:
                if not (isinstance(bf, float) and bf > 0.0 and math.isfinite(bf)):
                    self.fail(where, f"BF01 = {bf!r} is not a positive finite number")
                elif not abs(math.log(bf) - want) <= tol:
                    self.fail(where, f"log of BF01 = {bf!r} is {math.log(bf)!r}, "
                                     f"oracle {want!r} (abs tol {tol:g})")
            if direction is not None:
                if want > tol + NEUTRAL_BAND:
                    expected = (H0,)
                elif want < -(tol + NEUTRAL_BAND):
                    expected = (H1,)
                else:  # within the tolerance of the tie band: any label holds
                    expected = (H1, NEUTRAL, H0)
                if direction not in expected:
                    self.fail(where, f"direction {direction!r} but oracle log BF01 = {want!r}")

    def finish(self) -> list[str]:
        if self._normal:
            cols = list(zip(*self._normal))
            self._compare_bf(self._normal, oracles.normal_log_bf01(cols[1], cols[2]),
                             TOL_NORMAL_LOG)
        if self._cauchy:
            cols = list(zip(*self._cauchy))
            self._compare_bf(self._cauchy, oracles.cauchy_log_bf01(cols[1], cols[2], cols[3]),
                             TOL_CAUCHY_LOG)
        if self._r_star:
            where, z, n, r = (np.asarray(c) for c in zip(*self._r_star))
            lo = oracles.cauchy_log_bf01(z, n, r * (1.0 - R_STAR_DELTA))
            hi = oracles.cauchy_log_bf01(z, n, r * (1.0 + R_STAR_DELTA))
            for i in np.flatnonzero(~((lo < 0.0) & (hi > 0.0))):
                self.fail(where[i], f"r* = {r[i]!r}: oracle log BF01 at r*(1 -/+ "
                                    f"{R_STAR_DELTA:g}) is ({lo[i]!r}, {hi[i]!r}), no sign change")
            self.checked += len(self._r_star)
        self._normal, self._cauchy, self._r_star = [], [], []
        return self.problems


# -- CLI and file outputs ----------------------------------------------

def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [r for r in rows[1:] if r]


def _num(cell):
    return None if cell == "" else float(cell)


def cli_bf(ck, where, p, stdout):
    """``bf --format json``: one Bayes factor, echoed inputs, posterior."""
    d = json.loads(stdout)
    ck.expect(where, (d["z"], d["n"], d["prior"], d["scale"]) == (p["z"], p["n"], p["prior"], p["scale"]),
              f"inputs echoed as {d['z']!r}, {d['n']!r}, {d['prior']!r}, {d['scale']!r}")
    if p["prior"] == "normal":
        k = p["n"] * p["scale"] ** 2
        ck.close(where, "k", d["k"], k)
        ck.normal_bf(where, p["z"], k, d["log_bf01"], d["bf01"], d["direction"])
    else:
        ck.expect(where, d["k"] is None, f"k = {d['k']!r} for a Cauchy prior")
        ck.cauchy_bf(where, p["z"], p["n"], p["scale"], d["log_bf01"], d["bf01"], d["direction"])
    ck.close(where, "posterior_prob_h0", d["posterior_prob_h0"], d["bf01"] / (1.0 + d["bf01"]))


def cli_flip(ck, where, p, stdout):
    """``flip --method both --format json``: k* by both routes, and tau*."""
    rows = json.loads(stdout)
    ck.expect(where, [r["method"] for r in rows] == ["bracketed", "lambert_w"],
              f"methods {[r['method'] for r in rows]}")
    for r in rows:
        ck.expect(where, r["z"] == p["z"], f"z echoed as {r['z']!r}")
        ck.k_star(f"{where} {r['method']}", p["z"], r["k_star"])
        ck.tau_star(f"{where} {r['method']}", p["z"], p["n"], r["tau_star"])


def cli_table1(ck, where, stdout):
    """``table1 --format csv``: the reference z grid with k*, tau*(50), tau*(100)."""
    header, rows = _csv_rows(stdout)
    ck.expect(where, header == ["z", "z_squared", "p_value", "k_star", "tau_star_n50",
                                "tau_star_n100"], f"header {header}")
    ck.expect(where, len(rows) == len(TABLE_Z), f"{len(rows)} rows, expected {len(TABLE_Z)}")
    for z, row in zip(TABLE_Z, rows):
        z_, z2, p, k, t50, t100 = (float(c) for c in row)
        w = f"{where} z={z:g}"
        ck.expect(w, z_ == z, f"z = {z_!r}")
        ck.close(w, "z^2", z2, z * z)
        ck.close(w, "p", p, float(oracles.two_sided_p(z)), 1e-10)
        ck.k_star(w, z, k)
        ck.tau_star(w, z, 50, t50)
        ck.tau_star(w, z, 100, t100)


def cli_paradox(ck, where, p, stdout):
    """``paradox --format json``: k*, tau*, a reversal pair and its posteriors."""
    d = json.loads(stdout)
    ck.expect(where, (d["z"], d["n"]) == (p["z"], p["n"]), f"inputs echoed as {d['z']!r}, {d['n']!r}")
    ck.k_star(where, p["z"], d["k_star"])
    ck.tau_star(where, p["z"], p["n"], d["tau_star"])
    ck.pair(where, p["z"], p["n"], d["tau1"], d["tau2"], d["bf1"], d["bf2"])
    ck.close(where, "posterior_h0_tau1", d["posterior_h0_tau1"], d["bf1"] / (1.0 + d["bf1"]))
    ck.close(where, "posterior_h0_tau2", d["posterior_h0_tau2"], d["bf2"] / (1.0 + d["bf2"]))
    ck.expect(where, (d["direction1"], d["direction2"]) == (H1, H0),
              f"directions {d['direction1']!r}, {d['direction2']!r}")


def cli_sweep(ck, where, p, stdout):
    """``sweep --prior normal --format csv``: the grid rows plus one flip row."""
    header, rows = _csv_rows(stdout)
    ck.expect(where, header == ["kind", "scale", "k", "bf01", "log_bf01", "direction"],
              f"header {header}")
    points = [r for r in rows if r[0] == "point"]
    flips = [r for r in rows if r[0] == "flip"]
    ck.expect(where, len(points) == p["points"] and len(flips) == 1 and len(rows) == p["points"] + 1,
              f"{len(points)} point rows and {len(flips)} flip rows, expected {p['points']} and 1")
    grid = np.linspace(p["scale_min"], p["scale_max"], p["points"])
    for i, (row, s) in enumerate(zip(points, grid)):
        scale, k, bf, log_bf = (_num(c) for c in row[1:5])
        w = f"{where} row {i}"
        ck.close(w, "scale", scale, float(s))
        ck.close(w, "k", k, p["n"] * scale * scale)
        ck.normal_bf(w, p["z"], k, log_bf, bf, row[5])
    for row in flips:
        ck.tau_star(f"{where} flip row", p["z"], p["n"], _num(row[1]))
        ck.k_star(f"{where} flip row", p["z"], _num(row[2]))


def _figure_rows(ck, where, panel_a, panel_b):
    """Rows of both figure panels as lists of FIG_HEADER cells."""
    a_points = [r for r in panel_a if r[6] == "point"]
    a_flips = [r for r in panel_a if r[6] == "flip"]
    ck.expect(where, len(panel_a) == len(TABLE_Z) * (FIG_A_POINTS + 1)
              and len(a_points) == len(TABLE_Z) * FIG_A_POINTS and len(a_flips) == len(TABLE_Z),
              f"panel a has {len(panel_a)} rows ({len(a_points)} points, {len(a_flips)} flips)")
    k_grid = np.logspace(math.log10(FIG_A_K[0]), math.log10(FIG_A_K[1]), FIG_A_POINTS)
    for j, z in enumerate(TABLE_Z):
        curve = [r for r in a_points if r[1] == z]
        ck.expect(where, len(curve) == FIG_A_POINTS, f"panel a z={z:g} has {len(curve)} points")
        for i, (row, k) in enumerate(zip(curve, k_grid)):
            w = f"{where} panel a z={z:g} row {i}"
            ck.close(w, "k", row[2], float(k), 1e-12)
            ck.normal_bf(w, z, row[2], row[4], row[3], row[5])
    for row in a_flips:
        ck.k_star(f"{where} panel a flip z={row[1]:g}", row[1], row[2])

    b_points = [r for r in panel_b if r[6] == "point"]
    b_markers = [r for r in panel_b if r[6] == "marker"]
    b_flips = [r for r in panel_b if r[6] == "flip"]
    ck.expect(where, len(panel_b) == FIG_B_POINTS + len(FIG_B_MARKERS) + 1
              and len(b_points) == FIG_B_POINTS and len(b_flips) == 1,
              f"panel b has {len(panel_b)} rows ({len(b_points)} points, {len(b_flips)} flips)")
    tau_grid = np.linspace(FIG_B_TAU[0], FIG_B_TAU[1], FIG_B_POINTS)
    for i, (row, tau) in enumerate(zip(b_points + b_markers,
                                       list(tau_grid) + list(FIG_B_MARKERS))):
        w = f"{where} panel b row {i}"
        ck.expect(w, row[1] == FIG_B_Z, f"z = {row[1]!r}")
        ck.close(w, "tau", row[2], float(tau))
        ck.normal_bf(w, FIG_B_Z, FIG_B_N * row[2] ** 2, row[4], row[3], row[5])
    for row in b_flips:
        ck.tau_star(f"{where} panel b flip", FIG_B_Z, FIG_B_N, row[2])


def figure1_csv(ck, where, text_a, text_b):
    panels = []
    for text in (text_a, text_b):
        header, rows = _csv_rows(text)
        ck.expect(where, header == FIG_HEADER, f"header {header}")
        panels.append([[r[0], float(r[1]), float(r[2]), float(r[3]), float(r[4]), r[5], r[6]]
                       for r in rows])
    _figure_rows(ck, where, *panels)


def figure1_json(ck, where, text):
    d = json.loads(text)
    ck.expect(where, sorted(d) == ["panel_a", "panel_b"], f"keys {sorted(d)}")
    panels = [[[r[h] for h in FIG_HEADER] for r in d[p]] for p in ("panel_a", "panel_b")]
    _figure_rows(ck, where, *panels)


def _svg_parts(ck, where, text):
    root = ET.fromstring(text)
    w, h = float(root.get("width")), float(root.get("height"))
    polylines = [[tuple(float(v) for v in pt.split(",")) for pt in e.get("points").split()]
                 for e in root.iter(SVG_NS + "polyline")]
    circles = [(float(e.get("cx")), float(e.get("cy"))) for e in root.iter(SVG_NS + "circle")]
    dashed = [e for e in root.iter(SVG_NS + "line") if e.get("stroke-dasharray")]
    for x, y in [pt for line in polylines for pt in line] + circles:
        if not (0.0 <= x <= w and 0.0 <= y <= h):
            ck.fail(where, f"point ({x}, {y}) lies outside the {w}x{h} canvas")
            break
    return polylines, circles, dashed


def figure1_svg(ck, where, text_a, text_b):
    """Panel a: one curve per reference z, its flip markers on the BF01 = 1
    line.  Panel b: the two analysts' markers on either side of the tau*
    line, one below and one above BF01 = 1 (y grows downwards)."""
    lines, circles, dashed = _svg_parts(ck, where + " panel a", text_a)
    ck.expect(where, [len(pl) for pl in lines] == [FIG_A_POINTS] * len(TABLE_Z),
              f"panel a polylines have {[len(pl) for pl in lines]} points")
    ck.expect(where, len(circles) == len(TABLE_Z) and len(dashed) == 1,
              f"panel a has {len(circles)} markers and {len(dashed)} reference lines")
    if dashed:
        ref_y = float(dashed[0].get("y1"))
        ck.expect(where, all(abs(cy - ref_y) < 0.06 for _, cy in circles),
                  f"panel a flip markers {circles} are off the BF01 = 1 line y = {ref_y}")

    lines, circles, dashed = _svg_parts(ck, where + " panel b", text_b)
    ck.expect(where, [len(pl) for pl in lines] == [FIG_B_POINTS],
              f"panel b polylines have {[len(pl) for pl in lines]} points")
    ck.expect(where, len(circles) == len(FIG_B_MARKERS) and len(dashed) == 2,
              f"panel b has {len(circles)} markers and {len(dashed)} reference lines")
    if len(circles) == 2 and len(dashed) == 2:
        horiz = [d for d in dashed if d.get("y1") == d.get("y2")]
        vert = [d for d in dashed if d.get("x1") == d.get("x2")]
        if len(horiz) == 1 and len(vert) == 1:
            ref_y, ref_x = float(horiz[0].get("y1")), float(vert[0].get("x1"))
            (x1, y1), (x2, y2) = circles
            ck.expect(where, x1 < ref_x < x2 and y1 > ref_y > y2,
                      f"panel b markers ({x1}, {y1}), ({x2}, {y2}) do not straddle "
                      f"tau* at x = {ref_x} and BF01 = 1 at y = {ref_y}")
        else:
            ck.fail(where, "panel b reference lines are not one horizontal and one vertical")
