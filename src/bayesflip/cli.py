"""Command-line interface.

Subcommands: bf, flip, sweep, table1, figure1, paradox.  Human-readable
text goes to stdout by default; --format csv|json|svg switches to
machine output carrying full float precision, written to --out when
given.  Exit codes: 0 success, 1 computation/domain error or an output
file that cannot be written, 2 usage error.

Every invocation is a fresh process, so ``cauchy``, ``flip``, ``report``,
``svg`` and ``json`` are imported inside the handlers and renderers that
use them, and the package modules are called as module attributes (which
a tracer patching module namespaces still sees): a command loads only
the modules it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._record import record
from .bayes_factor import Direction, NormalPrior, TestSetup, bf01, posterior_prob_h0
from .errors import BayesFlipError

_DIRECTION_TEXT = {
    Direction.FAVOURS_H1: "favours H1",
    Direction.NEUTRAL: "neutral",
    Direction.FAVOURS_H0: "favours H0",
}


class RunConfig(record("RunConfig",
                       "command parameters output_format output_path precision")):
    """Validated invocation: the subcommand, a dict of its scalar
    parameters, the machine output format (None for human-readable text),
    the output path (None for stdout) and the human precision."""

    __slots__ = ()


class _OutputError(BayesFlipError):
    """An output file could not be written."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesflip",
        description="Bayes factors for the normal point null, prior-scale "
                    "flip points, and evidence-reversal demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=None,
                       help="machine output format (default: human-readable text)")
        p.add_argument("--out", default=None, help="write machine output to this path")
        p.add_argument("--precision", type=int, default=4,
                       help="decimal places for human-readable output (default 4)")

    p = sub.add_parser("bf", help="Bayes factor for one prior scale")
    p.add_argument("--z", type=float, required=True, help="z-statistic")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--prior", choices=("normal", "cauchy"), default="normal")
    p.add_argument("--scale", type=float, required=True,
                   help="prior scale (tau for normal, r for cauchy)")
    common(p)

    p = sub.add_parser("flip", help="flip point k* and critical prior scale")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="sample size for tau* = sqrt(k*/n) (optional)")
    p.add_argument("--method", choices=("bracketed", "lambert_w", "both"), default="both")
    common(p)

    p = sub.add_parser("sweep", help="Bayes factor over a grid of prior scales")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prior", choices=("normal", "cauchy"), default="normal")
    p.add_argument("--scale-min", type=float, required=True)
    p.add_argument("--scale-max", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    common(p, formats=("csv", "json", "svg"))

    p = sub.add_parser("table1", help="flip points for the reference z grid")
    common(p)

    p = sub.add_parser("figure1", help="datasets behind the two reversal panels")
    p.add_argument("--points-a", type=int, default=200, help="grid points per panel-A curve")
    p.add_argument("--points-b", type=int, default=120, help="grid points for panel B")
    common(p, formats=("csv", "json", "svg"))

    p = sub.add_parser("paradox", help="construct a reversal pair for the data")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spread", type=float, default=0.5,
                   help="multiplicative offset of the pair from tau*, in (0, 1)")
    common(p)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    """Flag-level validation; anything wrong here is a usage error (exit 2)."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "format", "out", "precision")}
    if args.precision < 0:
        parser.error("--precision must be nonnegative")
    for key in ("z", "scale", "scale_min", "scale_max"):
        if key in params and not math.isfinite(params[key]):
            parser.error(f"--{key.replace('_', '-')} must be finite, got {params[key]}")
    if "n" in params and params["n"] is not None and params["n"] < 1:
        parser.error("--n must be >= 1")
    if "scale" in params and not params["scale"] > 0.0:
        parser.error("--scale must be > 0")
    if "spread" in params and not 0.0 < params["spread"] < 1.0:
        parser.error("--spread must lie in (0, 1)")
    if args.command == "sweep":
        if not params["scale_min"] < params["scale_max"]:
            parser.error("--scale-min must be below --scale-max")
        if not params["scale_min"] > 0.0:
            parser.error("prior scales must be positive")
        if params["points"] < 2:
            parser.error("--points must be >= 2")
    if args.command == "figure1":
        if params["points_a"] < 2 or params["points_b"] < 2:
            parser.error("--points-a and --points-b must be >= 2")
        if args.format == "svg" and args.out is None:
            parser.error("figure1 --format svg needs --out (two documents)")
    return RunConfig(command=args.command, parameters=params,
                     output_format=args.format, output_path=args.out,
                     precision=args.precision)


def _mfloat(v: object) -> str:
    """Full-precision cell for machine output (repr round-trips floats)."""
    if v is None:
        return ""
    if isinstance(v, Direction):
        return v.value
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_mfloat(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _jsonable(v: object) -> object:
    return v.value if isinstance(v, Direction) else v


def _json_rows(header: list[str], rows: list[list]) -> list[dict]:
    return [{h: _jsonable(c) for h, c in zip(header, row)} for row in rows]


# --- command handlers -----------------------------------------------------

def _cmd_bf(run: RunConfig) -> dict:
    p = run.parameters
    setup = TestSetup(n=p["n"], z=p["z"])
    if p["prior"] == "normal":
        prior = NormalPrior(p["scale"])
        res = bf01(setup, prior)
        k = prior.k(setup)
    else:
        from . import cauchy

        res = cauchy.bf01_cauchy(setup, cauchy.CauchyPrior(p["scale"]))
        k = None
    # BF01 underflows to 0.0 below log BF01 ~ -745 (|z| >~ 39), where the
    # posterior of H0, below the smallest float, correctly rounds to 0.0
    post = posterior_prob_h0(res.bf01) if res.bf01 > 0.0 else 0.0
    d = run.precision
    human = "\n".join([
        f"z            {p['z']:.{d}f}",
        f"n            {p['n']}",
        f"prior        {p['prior']}",
        f"scale        {p['scale']:.{d}f}",
        f"k            {'-' if k is None else f'{k:.{d}f}'}",
        f"bf01         {res.bf01:.{d}f}",
        f"log_bf01     {res.log_bf01:.{d}f}",
        f"direction    {_DIRECTION_TEXT[res.direction]}",
        f"p_h0         {post:.{d}f}   (posterior of H0 at pi0 = 1/2)",
    ])
    header = ["z", "n", "prior", "scale", "k", "bf01", "log_bf01",
              "direction", "posterior_prob_h0"]
    row = [p["z"], p["n"], p["prior"], p["scale"], k,
           res.bf01, res.log_bf01, res.direction, post]
    return {"human": human, "header": header, "rows": [row], "json": _json_rows(header, [row])[0]}


def _cmd_flip(run: RunConfig) -> dict:
    from . import flip

    p = run.parameters
    methods = {
        "bracketed": (flip.FlipMethod.BRACKETED,),
        "lambert_w": (flip.FlipMethod.LAMBERT_W,),
        "both": (flip.FlipMethod.BRACKETED, flip.FlipMethod.LAMBERT_W),
    }[p["method"]]
    results = [flip.flip_point(p["z"], m) for m in methods]
    n = p["n"]
    header = ["z", "method", "k_star", "residual", "tau_star"]
    rows = [[r.z, r.method.value, r.k_star, r.residual,
             flip.tau_star(r.k_star, n) if n is not None else None] for r in results]
    d = run.precision
    lines = [f"z            {p['z']:.{d}f}"]
    for r in results:
        ts = (f"   tau*(n={n}) = {flip.tau_star(r.k_star, n):.{d}f}"
              if n is not None else "")
        lines.append(f"k* ({r.method.value:9s}) = {r.k_star:.{d}f}   "
                     f"residual = {r.residual:.2e}{ts}")
    if len(results) == 2:
        rel = abs(results[0].k_star - results[1].k_star) / results[0].k_star
        lines.append(f"method agreement: {rel:.2e} relative")
    return {"human": "\n".join(lines), "header": header, "rows": rows,
            "json": _json_rows(header, rows)}


def _cmd_sweep(run: RunConfig) -> dict:
    from . import report

    p = run.parameters
    setup = TestSetup(n=p["n"], z=p["z"])
    scales = report.scale_grid(p["scale_min"], p["scale_max"], p["points"], p["spacing"])
    rows = report.sweep_rows(setup, p["prior"], scales)
    if p["prior"] == "normal":
        flip_row = report.sweep_flip_row(setup)
        if flip_row is not None:
            rows = rows + [flip_row]
    header = ["kind", "scale", "k", "bf01", "log_bf01", "direction"]
    cells = [[r.kind, r.scale, r.k, r.bf01, r.log_bf01, r.direction] for r in rows]
    d = run.precision
    lines = [f"{'kind':8s} {'scale':>12s} {'bf01':>12s} direction"]
    lines.extend(
        f"{r.kind:8s} {r.scale:12.{d}f} {r.bf01:12.{d}f} {_DIRECTION_TEXT[r.direction]}"
        for r in rows
    )

    def _svg() -> str:
        from . import svg

        points = [r for r in rows if r.kind == report.ROW_POINT]
        markers = [svg.Marker(r.scale, r.bf01, label=f"scale*={r.scale:.3g}")
                   for r in rows if r.kind == report.ROW_FLIP]
        chart = svg.line_chart(
            [svg.Series(f"z={p['z']:g}", tuple(r.scale for r in points),
                        tuple(r.bf01 for r in points))],
            markers,
            title=f"BF01 vs prior scale ({p['prior']}, z={p['z']:g}, n={p['n']})",
            x_label="prior scale", y_label="BF01",
            log_x=(p["spacing"] == "log"), ref_y=1.0,
        )
        return chart

    return {"human": "\n".join(lines), "header": header, "rows": cells,
            "json": _json_rows(header, cells), "svg": _svg}


def _cmd_table1(run: RunConfig) -> dict:
    from . import report

    rows = report.table_rows()
    header = ["z", "z_squared", "p_value", "k_star", "tau_star_n50", "tau_star_n100"]
    cells = [[r.z, r.z_squared, r.p_value, r.k_star, r.tau_star_n50, r.tau_star_n100]
             for r in rows]
    # published-style rendering: z and z^2 and k* and tau* to 2 decimals, p to 3
    lines = [f"{'z':>5s} {'z^2':>6s} {'p':>6s} {'k*':>9s} {'tau*(50)':>9s} {'tau*(100)':>10s}"]
    lines.extend(
        f"{r.z:5.2f} {r.z_squared:6.2f} {r.p_value:6.3f} {r.k_star:9.2f} "
        f"{r.tau_star_n50:9.2f} {r.tau_star_n100:10.2f}"
        for r in rows
    )
    return {"human": "\n".join(lines), "header": header, "rows": cells,
            "json": _json_rows(header, cells)}


def _cmd_figure1(run: RunConfig) -> dict:
    from . import report

    p = run.parameters
    panel_a = report.figure_panel_a(p["points_a"])
    panel_b = report.figure_panel_b(p["points_b"])
    header = ["panel", "z", "x", "bf01", "log_bf01", "direction", "kind"]

    def cells(rows):
        return [[r.panel, r.z, r.x, r.bf01, r.log_bf01, r.direction, r.kind] for r in rows]

    d = run.precision
    human = "\n".join([
        f"panel a: {len(panel_a)} rows (BF01 vs k, z in "
        f"{', '.join(f'{z:g}' for z in report.TABLE_Z_VALUES)}; kind=flip rows mark k*)",
        f"panel b: {len(panel_b)} rows (BF01 vs tau, z=2, n=50; markers at tau=0.8, 1.5)",
        "use --format csv|json (and --out) for the data",
        "flip points: " + ", ".join(
            f"z={r.z:g}: k*={r.x:.{d}f}" for r in panel_a if r.kind == report.ROW_FLIP),
    ])

    def _svg_a() -> str:
        from . import svg

        series = []
        for i, z in enumerate(report.TABLE_Z_VALUES):
            pts = [r for r in panel_a if r.kind == report.ROW_POINT and r.z == z]
            series.append(svg.Series(f"z={z:g}", tuple(r.x for r in pts),
                                     tuple(r.bf01 for r in pts),
                                     color=svg.PALETTE[i % len(svg.PALETTE)]))
        markers = [svg.Marker(r.x, r.bf01) for r in panel_a if r.kind == report.ROW_FLIP]
        return svg.line_chart(series, markers, title="BF01 vs k = n tau^2",
                              x_label="k", y_label="BF01",
                              log_x=True, log_y=True, ref_y=1.0)

    def _svg_b() -> str:
        from . import svg

        pts = [r for r in panel_b if r.kind == report.ROW_POINT]
        markers = [svg.Marker(r.x, r.bf01, label=f"tau={r.x:.3g}")
                   for r in panel_b if r.kind == report.ROW_MARKER]
        flips = [r for r in panel_b if r.kind == report.ROW_FLIP]
        return svg.line_chart(
            [svg.Series("z=2, n=50", tuple(r.x for r in pts), tuple(r.bf01 for r in pts))],
            markers, title="BF01 vs tau (z=2, n=50)", x_label="tau", y_label="BF01",
            ref_y=1.0, ref_x=flips[0].x if flips else None,
        )

    return {
        "human": human,
        "multi": [("panel_a", header, cells(panel_a)), ("panel_b", header, cells(panel_b))],
        "json": {"panel_a": _json_rows(header, cells(panel_a)),
                 "panel_b": _json_rows(header, cells(panel_b))},
        "svg_multi": [("panel_a", _svg_a), ("panel_b", _svg_b)],
    }


def _cmd_paradox(run: RunConfig) -> dict:
    from . import flip

    p = run.parameters
    setup = TestSetup(n=p["n"], z=p["z"])
    fp = flip.flip_point(setup.z)
    ts = flip.tau_star(fp.k_star, setup.n)
    pair = flip.reversal_pair(setup, p["spread"])
    post1 = posterior_prob_h0(pair.bf1)
    post2 = posterior_prob_h0(pair.bf2)
    d = run.precision
    human = "\n".join([
        f"z = {setup.z:.{d}f}, n = {setup.n}",
        f"flip point k* = {fp.k_star:.{d}f}; critical prior sd tau* = {ts:.{d}f}",
        f"analyst 1: tau = {pair.tau1:.{d}f}  ->  BF01 = {pair.bf1:.{d}f}  "
        f"(favours H1), P(H0 | data) = {post1:.{d}f}",
        f"analyst 2: tau = {pair.tau2:.{d}f}  ->  BF01 = {pair.bf2:.{d}f}  "
        f"(favours H0), P(H0 | data) = {post2:.{d}f}",
        "same data, same hypotheses: the direction of evidence is set by "
        "the prior scale alone.",
    ])
    header = ["z", "n", "k_star", "tau_star", "tau1", "tau2", "bf1", "bf2",
              "posterior_h0_tau1", "posterior_h0_tau2", "direction1", "direction2"]
    row = [setup.z, setup.n, fp.k_star, ts, pair.tau1, pair.tau2, pair.bf1,
           pair.bf2, post1, post2, Direction.FAVOURS_H1, Direction.FAVOURS_H0]
    return {"human": human, "header": header, "rows": [row],
            "json": _json_rows(header, [row])[0]}


_HANDLERS = {
    "bf": _cmd_bf,
    "flip": _cmd_flip,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "figure1": _cmd_figure1,
    "paradox": _cmd_paradox,
}


# --- output ---------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    """Write text to stdout, or to the file out (_OutputError if it fails)."""
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _suffixed(out: str, tag: str, ext: str) -> str:
    """out with its extension, if it has one, replaced by _tag + ext:
    fig.csv and fig both give fig_panel_a.csv."""
    head, name = os.path.split(os.path.normpath(out))
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return os.path.join(head, f"{stem}_{tag}{ext}")


def _emit(run: RunConfig, payload: dict) -> None:
    fmt = run.output_format
    if fmt is None:
        print(payload["human"])
        return
    if fmt == "json":
        import json

        _write(json.dumps(payload["json"], indent=2), run.output_path)
        return
    if fmt == "csv":
        if "multi" in payload:
            if run.output_path is None:
                blocks = [_csv(h, rows) for _, h, rows in payload["multi"]]
                _write("\n".join(blocks), None)
            else:
                for tag, h, rows in payload["multi"]:
                    _write(_csv(h, rows), _suffixed(run.output_path, tag, ".csv"))
            return
        _write(_csv(payload["header"], payload["rows"]), run.output_path)
        return
    if fmt == "svg":
        if "svg_multi" in payload:
            # --out is guaranteed by validation
            for tag, render in payload["svg_multi"]:
                _write(render(), _suffixed(run.output_path, tag, ".svg"))
            return
        _write(payload["svg"](), run.output_path)
        return
    raise AssertionError(f"unhandled format {fmt!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _validate(parser, args)
    try:
        _emit(run, _HANDLERS[run.command](run))
    except BayesFlipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
