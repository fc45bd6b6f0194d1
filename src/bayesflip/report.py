"""Dataset builders behind the CLI: prior-scale sensitivity sweeps, the
flip-point reference table, and the two panels of the reversal figure."""

from __future__ import annotations

import math

from ._record import record
from .bayes_factor import (
    BayesFactorResult,
    Direction,
    NormalPrior,
    TestSetup,
    bf01,
    log_bf01,
    two_sided_p,
)
from .errors import DomainError
from .flip import flip_point, tau_star

__all__ = [
    "SweepRow",
    "TableOneRow",
    "FigureRow",
    "TABLE_Z_VALUES",
    "ROW_POINT",
    "ROW_FLIP",
    "ROW_MARKER",
    "scale_grid",
    "sweep_rows",
    "sweep_flip_row",
    "table_rows",
    "figure_panel_a",
    "figure_panel_b",
]

TABLE_Z_VALUES = (1.50, 1.96, 2.00, 2.50, 3.00)

# row tags in sweep/figure datasets
ROW_POINT = "point"
ROW_FLIP = "flip"
ROW_MARKER = "marker"

FIGURE_A_K_RANGE = (1e-2, 1e5)
FIGURE_B_TAU_RANGE = (0.1, 3.0)
FIGURE_B_MARKER_TAUS = (0.8, 1.5)
_FIGURE_B_SETUP = TestSetup(n=50, z=2.0)


class SweepRow(record("SweepRow", "kind scale k bf01 log_bf01 direction")):
    """One (scale, BF01) record of a sensitivity sweep; k = n*tau^2 is
    None for Cauchy sweeps, and kind tags annotation rows."""

    __slots__ = ()


class TableOneRow(record("TableOneRow",
                         "z z_squared p_value k_star tau_star_n50 tau_star_n100")):
    """One row of the flip-point reference table."""

    __slots__ = ()


class FigureRow(record("FigureRow", "panel z x bf01 log_bf01 direction kind")):
    """One figure sample: x is k in panel a, tau in panel b."""

    __slots__ = ()


def scale_grid(lo: float, hi: float, points: int, spacing: str = "linear") -> list[float]:
    """Evenly spaced grid on [lo, hi], linear or logarithmic; the bounds
    must be finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got [{lo}, {hi}]")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points}")
    if not lo < hi:
        raise DomainError(f"grid needs lo < hi, got [{lo}, {hi}]")
    if spacing == "log":
        if not lo > 0.0:
            raise DomainError("log spacing needs positive bounds")
        la, lb = math.log(lo), math.log(hi)
        grid = [math.exp(la + (lb - la) * i / (points - 1)) for i in range(points)]
        grid[0], grid[-1] = lo, hi  # exp(log(x)) can miss x by an ulp
        return grid
    if spacing != "linear":
        raise DomainError(f"unknown spacing {spacing!r}")
    n = points - 1
    if math.isfinite((hi - lo) * n):
        return [lo + (hi - lo) * i / n for i in range(points)]
    # (hi - lo) * i overflows: weight the bounds, which stays finite
    return [lo * ((n - i) / n) + hi * (i / n) for i in range(points)]


def sweep_rows(setup: TestSetup, prior_family: str, scales: list[float]) -> list[SweepRow]:
    """One SweepRow per scale; normal priors use the closed form, Cauchy
    priors the closed-form Voigt marginal."""
    if prior_family == "cauchy":  # the only report that needs cauchy
        from .cauchy import CauchyPrior, bf01_cauchy
    rows = []
    for s in scales:
        if prior_family == "normal":
            res = bf01(setup, NormalPrior(s))
            k = setup.n * s * s
        elif prior_family == "cauchy":
            res = bf01_cauchy(setup, CauchyPrior(s))
            k = None
        else:
            raise DomainError(f"unknown prior family {prior_family!r}")
        rows.append(SweepRow(ROW_POINT, s, k, res.bf01, res.log_bf01, res.direction))
    return rows


def sweep_flip_row(setup: TestSetup) -> SweepRow | None:
    """Trailing annotation row carrying k* and tau* for normal-prior
    sweeps; None when |z| <= 1 (no flip point exists)."""
    if abs(setup.z) <= 1.0:
        return None
    fp = flip_point(setup.z)
    ts = tau_star(fp.k_star, setup.n)
    return SweepRow(ROW_FLIP, ts, fp.k_star, 1.0, 0.0, Direction.NEUTRAL)


def table_rows() -> list[TableOneRow]:
    """Flip points and critical prior scales for the reference z grid."""
    rows = []
    for z in TABLE_Z_VALUES:
        fp = flip_point(z)
        rows.append(TableOneRow(
            z=z,
            z_squared=z * z,
            p_value=two_sided_p(z),
            k_star=fp.k_star,
            tau_star_n50=tau_star(fp.k_star, 50),
            tau_star_n100=tau_star(fp.k_star, 100),
        ))
    return rows


def figure_panel_a(points: int = 200) -> list[FigureRow]:
    """BF01 vs k curves for the reference z grid, k log-spaced over
    [1e-2, 1e5], with one flip-point marker row per curve."""
    rows = []
    ks = scale_grid(*FIGURE_A_K_RANGE, points, "log")
    for z in TABLE_Z_VALUES:
        for k in ks:
            res = BayesFactorResult.from_log(log_bf01(z, k))
            rows.append(FigureRow("a", z, k, res.bf01, res.log_bf01, res.direction, ROW_POINT))
        fp = flip_point(z)
        rows.append(FigureRow("a", z, fp.k_star, 1.0, 0.0, Direction.NEUTRAL, ROW_FLIP))
    return rows


def figure_panel_b(points: int = 120) -> list[FigureRow]:
    """BF01 vs tau for z = 2, n = 50 over tau in [0.1, 3], with marker
    rows at the two headline scales and a flip row at tau*: the normal
    sweep of that setup, as figure rows."""
    setup = _FIGURE_B_SETUP
    markers = sweep_rows(setup, "normal", list(FIGURE_B_MARKER_TAUS))
    rows = [*sweep_rows(setup, "normal", scale_grid(*FIGURE_B_TAU_RANGE, points, "linear")),
            *(r._replace(kind=ROW_MARKER) for r in markers), sweep_flip_row(setup)]
    return [FigureRow("b", setup.z, r.scale, r.bf01, r.log_bf01, r.direction, r.kind)
            for r in rows]
