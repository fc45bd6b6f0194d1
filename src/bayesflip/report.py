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
from .errors import DomainError, NoFlipPoint
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
FIGURE_B_SETUP = TestSetup(n=50, z=2.0)


SweepRow = record(
    "SweepRow", "kind scale k bf01 log_bf01 direction",
    """One (scale, BF01) record of a sensitivity sweep; k = n*tau^2 is
    None for Cauchy sweeps, and kind tags annotation rows.""")

TableOneRow = record(
    "TableOneRow", "z z_squared p_value k_star tau_star_n50 tau_star_n100",
    """One row of the flip-point reference table.""")

FigureRow = record(
    "FigureRow", "panel z x bf01 log_bf01 direction kind",
    """One figure sample: x is k in panel a, tau in panel b.""")


def scale_grid(lo: float, hi: float, points: int, spacing: str = "linear") -> list[float]:
    """Evenly spaced grid on [lo, hi], linear or logarithmic, whose ends
    are the bounds as given; the bounds must be finite.  Interior point i,
    with n = points - 1, is lo ((n - i) / n) + hi (i / n), within 2 ulps
    of the exact lo + (hi - lo) i / n, or exp(log lo + (log hi - log lo)
    i / n): both finite for any finite bounds."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got [{lo}, {hi}]")
    if points < 2:
        raise DomainError(f"grid needs at least 2 points, got {points}")
    if not lo < hi:
        raise DomainError(f"grid needs lo < hi, got [{lo}, {hi}]")
    n = points - 1
    if spacing == "log":
        if not lo > 0.0:
            raise DomainError("log spacing needs positive bounds")
        la, lb = math.log(lo), math.log(hi)
        inner = [math.exp(la + (lb - la) * i / n) for i in range(1, n)]
    elif spacing == "linear":
        inner = [lo * ((n - i) / n) + hi * (i / n) for i in range(1, n)]
    else:
        raise DomainError(f"unknown spacing {spacing!r}")
    return [lo, *inner, hi]


def sweep_rows(setup: TestSetup, prior_family: str, scales: list[float]) -> list[SweepRow]:
    """One SweepRow per scale; normal priors use the closed form, Cauchy
    priors the closed-form Voigt marginal."""
    n = setup.n
    # a row ends with the result's fields, joined with + (unpacking a record
    # iterates it), and needs no check: skip the namedtuple's Python __new__
    if prior_family == "normal":
        points = ((s, n * s * s, bf01(setup, NormalPrior(s))) for s in scales)
        return [tuple.__new__(SweepRow, (ROW_POINT, s, k) + res) for s, k, res in points]
    if prior_family == "cauchy":
        from .cauchy import _log_bf01  # the only report that needs cauchy

        z, from_log = setup.z, BayesFactorResult.from_log  # one lookup per sweep
        # each row's fields as bf01_cauchy's, without a prior record
        return [tuple.__new__(SweepRow, (ROW_POINT, s, None) + from_log(_log_bf01(z, n, s)))
                for s in scales]
    raise DomainError(f"unknown prior family {prior_family!r}")


def sweep_flip_row(setup: TestSetup) -> SweepRow | None:
    """Trailing annotation row carrying k* and tau* for normal-prior
    sweeps; None where k* is not a finite float: |z| <= 1 (no flip point
    exists) and |z| above about 26.64 (k* overflows), where the sweep's
    point rows are still computed."""
    try:
        k_star = flip_point(setup.z).k_star
    except (NoFlipPoint, DomainError):  # setup.z is finite: |z| <= 1 or k* overflows
        return None
    return SweepRow(ROW_FLIP, tau_star(k_star, setup.n), k_star, 1.0, 0.0, Direction.NEUTRAL)


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
    from_log = BayesFactorResult.from_log
    for z in TABLE_Z_VALUES:
        # as in sweep_rows: the result's fields joined in, no namedtuple __new__
        rows.extend([tuple.__new__(FigureRow, ("a", z, k) + from_log(log_bf01(z, k))
                                   + (ROW_POINT,)) for k in ks])
        fp = flip_point(z)
        rows.append(FigureRow("a", z, fp.k_star, 1.0, 0.0, Direction.NEUTRAL, ROW_FLIP))
    return rows


def figure_panel_b(points: int = 120) -> list[FigureRow]:
    """BF01 vs tau for z = 2, n = 50 over tau in [0.1, 3], with marker
    rows at the two headline scales and a flip row at tau*: the normal
    sweep of that setup, as figure rows."""
    setup = FIGURE_B_SETUP
    markers = sweep_rows(setup, "normal", list(FIGURE_B_MARKER_TAUS))
    rows = [*sweep_rows(setup, "normal", scale_grid(*FIGURE_B_TAU_RANGE, points, "linear")),
            *(r._replace(kind=ROW_MARKER) for r in markers), sweep_flip_row(setup)]
    return [FigureRow("b", setup.z, r.scale, r.bf01, r.log_bf01, r.direction, r.kind)
            for r in rows]
