"""Command-line interface.

Subcommands: bf, flip, sweep, table1, figure1, paradox.  Human-readable
text by default; --format csv|json|svg switches to machine output
carrying full float precision.  Either goes to stdout, or to --out when
given.  Exit codes: 0 success, 1 computation/domain error, an output
file that cannot be written or a closed stdout, 2 usage error.

Each subcommand is declared once, in ``build_parser``, with its handler
(``args.run``), its JSON shape (``args.one_object``) and its own parser
(``args.parser``, which reports its usage errors).  A handler
returns human text, ``Table`` records and SVG renderers; ``_emit``
renders only the format asked for; calls of ``main`` in one process
share one parser.  Every invocation is a fresh process, so ``cauchy``,
``flip``, ``report``, ``svg`` and the CSV/JSON writers are imported in the
handlers and renderers that use them, and the package modules are called
as module attributes (which a tracer patching module namespaces still
sees): a command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from ._record import record
from .bayes_factor import Direction, NormalPrior, TestSetup, bf01, posterior_prob_h0
from .errors import BayesFlipError

_MAX_POINTS = 10_000  # rows are held in memory: figure1 JSON peaks at 63 MB RSS here
_MAX_PRECISION = 1074  # every double ends within 1074 decimal places (2^-1074 does)

_DIRECTION_TEXT = {
    Direction.FAVOURS_H1: "favours H1",
    Direction.NEUTRAL: "neutral",
    Direction.FAVOURS_H0: "favours H0",
}


Table = record(
    "Table", "name header rows",
    """One dataset of machine output: its name (the JSON key and file
    suffix when a command writes several), column names, and rows of
    cells (see ``_writers``).  Report records are rows as they are.""")

def _scale_text(x: float, d: int) -> str:
    """A prior scale at d decimals, widened below 1 to max(1, d) significant
    digits where d decimals show fewer, so no nonzero scale prints as 0."""
    e = max(1, d) - 1 - math.floor(math.log10(x)) if 0.0 < x < 1.0 else d
    return f"{x:.{max(d, e)}f}"


def _shown(x: float, d: int, ok, fmt=_scale_text) -> str:
    """fmt(x, e) at the least e >= d whose printed number ok takes, or repr(x)."""
    return next((t for e in range(d, d + 18) if ok(float(t := fmt(x, e)))), repr(x))


def _sided(x: float, d: int, *marks: float) -> str:
    """x at d decimals, widened until it prints on x's side of each mark:
    a Bayes factor never prints across 1 or as 0, a posterior across 1/2."""
    return _shown(x, d, lambda v: all((v > m) - (v < m) == (x > m) - (x < m) for m in marks),
                  "{:.{}f}".format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, and callers must not modify it."""
    import re

    # a fixed help width: the default asks the terminal, importing shutil
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="bayesflip",
        description="Bayes factors for the normal point null, prior-scale "
                    "flip points, and evidence-reversal demonstrations.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse takes a token for a negative number, not a flag, only as -5
    # or -.5; this takes every float form, -1e-05 and -inf too
    negative_number = re.compile(r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)

    def add_parser(name, run, help, one_object=False):
        p = sub.add_parser(name, help=help, formatter_class=formatter)
        p.set_defaults(run=run, one_object=one_object, parser=p)
        p._negative_number_matcher = negative_number
        return p

    def common(p, formats=("csv", "json"), precision=True):
        p.add_argument("--format", choices=formats, default=None,
                       help="machine output format (default: human-readable text)")
        p.add_argument("--out", default=None, help="write the output to this path")
        if precision:
            p.add_argument("--precision", type=int, default=4,
                           help="decimal places for human-readable output (default 4)")

    p = add_parser("bf", _cmd_bf, "Bayes factor for one prior scale", one_object=True)
    p.add_argument("--z", type=float, required=True, help="z-statistic")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--prior", choices=("normal", "cauchy"), default="normal")
    p.add_argument("--scale", type=float, required=True,
                   help="prior scale (tau for normal, r for cauchy)")
    common(p)

    p = add_parser("flip", _cmd_flip, "flip point k* and critical prior scale")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="sample size for tau* = sqrt(k*/n) (optional)")
    p.add_argument("--method", choices=("bracketed", "lambert_w", "both"), default="both")
    common(p)

    p = add_parser("sweep", _cmd_sweep, "Bayes factor over a grid of prior scales")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prior", choices=("normal", "cauchy"), default="normal")
    p.add_argument("--scale-min", type=float, required=True)
    p.add_argument("--scale-max", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    common(p, formats=("csv", "json", "svg"))

    p = add_parser("table1", _cmd_table1, "flip points for the reference z grid")
    common(p, precision=False)  # always printed at published precision

    p = add_parser("figure1", _cmd_figure1, "datasets behind the two reversal panels")
    p.add_argument("--points-a", type=int, default=200, help="grid points per panel-A curve")
    p.add_argument("--points-b", type=int, default=120, help="grid points for panel B")
    common(p, formats=("csv", "json", "svg"))

    p = add_parser("paradox", _cmd_paradox, "construct a reversal pair for the data",
                   one_object=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spread", type=float, default=0.5,
                   help="multiplicative offset of the pair from tau*, in (0, 1)")
    common(p)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """Flag-level validation; anything wrong here is a usage error (exit 2),
    reported with the subcommand's usage line, as argparse's own are."""
    params = vars(args)
    parser = args.parser
    if "precision" in params and args.precision < 0:
        parser.error("--precision must be nonnegative")
    if params.get("precision", 0) > _MAX_PRECISION:
        parser.error(f"--precision must be <= {_MAX_PRECISION}, got {args.precision}")
    for key in ("z", "scale", "scale_min", "scale_max"):
        if key in params and not math.isfinite(params[key]):
            parser.error(f"--{key.replace('_', '-')} must be finite, got {params[key]}")
    if "n" in params and params["n"] is not None and params["n"] < 1:
        parser.error("--n must be >= 1")
    if "scale" in params and not params["scale"] > 0.0:
        parser.error("--scale must be > 0")
    if "spread" in params and not 0.0 < params["spread"] < 1.0:
        parser.error("--spread must lie in (0, 1)")
    for key in ("points", "points_a", "points_b"):
        if params.get(key, 0) > _MAX_POINTS:
            parser.error(f"--{key.replace('_', '-')} must be <= {_MAX_POINTS}, got {params[key]}")
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


# --- command handlers -----------------------------------------------------

def _cmd_bf(args: argparse.Namespace) -> tuple:
    setup = TestSetup(n=args.n, z=args.z)
    if args.prior == "normal":
        prior = NormalPrior(args.scale)
        res = bf01(setup, prior)
        k = prior.k(setup)
    else:
        from . import cauchy

        res = cauchy.bf01_cauchy(setup, cauchy.CauchyPrior(args.scale))
        k = None
    post = res.posterior_h0()
    d = args.precision
    # each number prints on the side of 1, 0 or 1/2 that the direction names;
    # a neutral one prints at d decimals
    live = res.direction is not Direction.NEUTRAL

    def sided(x, *marks):
        return _sided(x, d, *marks) if live else f"{x:.{d}f}"
    human = "\n".join([
        f"z            {args.z:.{d}f}",
        f"n            {args.n}",
        f"prior        {args.prior}",
        f"scale        {_scale_text(args.scale, d)}",
        f"k            {'-' if k is None else _scale_text(k, d)}",
        f"bf01         {sided(res.bf01, 0.0, 1.0)}",
        f"log_bf01     {sided(res.log_bf01, 0.0)}",
        f"direction    {_DIRECTION_TEXT[res.direction]}",
        f"p_h0         {sided(post, 0.0, 0.5, 1.0)}   (posterior of H0 at pi0 = 1/2)",
    ])
    header = ("z", "n", "prior", "scale", "k", "bf01", "log_bf01",
              "direction", "posterior_prob_h0")
    row = (args.z, args.n, args.prior, args.scale, k,
           res.bf01, res.log_bf01, res.direction, post)
    return human, [Table("bf", header, [row])], []


def _cmd_flip(args: argparse.Namespace) -> tuple:
    from . import flip

    methods = (list(flip.FlipMethod) if args.method == "both"
               else [flip.FlipMethod(args.method)])
    results = [flip.flip_point(args.z, m) for m in methods]
    n = args.n
    taus = [None if n is None else flip.tau_star(r.k_star, n) for r in results]
    header = ("z", "method", "k_star", "residual", "tau_star")
    rows = [(r.z, r.method.value, r.k_star, r.residual, ts) for r, ts in zip(results, taus)]
    d = args.precision
    lines = [f"z            {args.z:.{d}f}"]
    for r, ts in zip(results, taus):
        tau_text = "" if ts is None else f"   tau*(n={n}) = {_scale_text(ts, d)}"
        lines.append(f"k* ({r.method.value:9s}) = {r.k_star:.{d}f}   "
                     f"residual = {r.residual:.2e}{tau_text}")
    if len(results) == 2:
        rel = abs(results[0].k_star - results[1].k_star) / results[0].k_star
        lines.append(f"method agreement: {rel:.2e} relative")
    return "\n".join(lines), [Table("flip", header, rows)], []


def _cmd_sweep(args: argparse.Namespace) -> tuple:
    from . import report

    setup = TestSetup(n=args.n, z=args.z)
    scales = report.scale_grid(args.scale_min, args.scale_max, args.points, args.spacing)
    rows = report.sweep_rows(setup, args.prior, scales)
    if args.prior == "normal":
        flip_row = report.sweep_flip_row(setup)
        if flip_row is not None:
            rows = rows + [flip_row]
    d = args.precision
    lines = [f"{'kind':8s} {'scale':>12s} {'bf01':>12s} direction"]
    lines.extend(
        f"{r.kind:8s} {_scale_text(r.scale, d):>12s} {r.bf01:12.{d}f} {_DIRECTION_TEXT[r.direction]}"
        for r in rows
    )

    def _svg() -> str:
        from . import svg

        points = [r for r in rows if r.kind == report.ROW_POINT]
        markers = [svg.Marker(r.scale, r.bf01, label=f"scale*={r.scale:.3g}")
                   for r in rows if r.kind == report.ROW_FLIP]
        return svg.line_chart(
            [svg.Series(f"z={args.z:g}", tuple(r.scale for r in points),
                        tuple(r.bf01 for r in points))],
            markers,
            title=f"BF01 vs prior scale ({args.prior}, z={args.z:g}, n={args.n})",
            x_label="prior scale", log_x=(args.spacing == "log"),
        )

    return "\n".join(lines), [Table("sweep", report.SweepRow._fields, rows)], [_svg]


def _cmd_table1(args: argparse.Namespace) -> tuple:
    from . import report

    rows = report.table_rows()
    # published-style rendering: z and z^2 and k* and tau* to 2 decimals, p to 3
    lines = [f"{'z':>5s} {'z^2':>6s} {'p':>6s} {'k*':>9s} {'tau*(50)':>9s} {'tau*(100)':>10s}"]
    lines.extend(
        f"{r.z:5.2f} {r.z_squared:6.2f} {r.p_value:6.3f} {r.k_star:9.2f} "
        f"{r.tau_star_n50:9.2f} {r.tau_star_n100:10.2f}"
        for r in rows
    )
    return "\n".join(lines), [Table("table1", report.TableOneRow._fields, rows)], []


def _cmd_figure1(args: argparse.Namespace) -> tuple:
    from . import report

    panel_a = report.figure_panel_a(args.points_a)
    panel_b = report.figure_panel_b(args.points_b)
    d = args.precision
    setup_b = f"z={report.FIGURE_B_SETUP.z:g}, n={report.FIGURE_B_SETUP.n}"
    human = "\n".join([
        f"panel a: {len(panel_a)} rows (BF01 vs k, z in "
        f"{', '.join(f'{z:g}' for z in report.TABLE_Z_VALUES)}; kind=flip rows mark k*)",
        f"panel b: {len(panel_b)} rows (BF01 vs tau, {setup_b}; markers at tau="
        f"{', '.join(f'{t:g}' for t in report.FIGURE_B_MARKER_TAUS)})",
        "use --format csv|json (and --out) for the data",
        "flip points: " + ", ".join(
            f"z={r.z:g}: k*={r.x:.{d}f}" for r in panel_a if r.kind == report.ROW_FLIP),
    ])

    def _svg_a() -> str:
        from . import svg

        series = []
        for z in report.TABLE_Z_VALUES:
            pts = [r for r in panel_a if r.kind == report.ROW_POINT and r.z == z]
            series.append(svg.Series(f"z={z:g}", tuple(r.x for r in pts),
                                     tuple(r.bf01 for r in pts)))
        markers = [svg.Marker(r.x, r.bf01) for r in panel_a if r.kind == report.ROW_FLIP]
        return svg.line_chart(series, markers, title="BF01 vs k = n tau^2",
                              x_label="k", log_x=True, log_y=True)

    def _svg_b() -> str:
        from . import svg

        pts = [r for r in panel_b if r.kind == report.ROW_POINT]
        markers = [svg.Marker(r.x, r.bf01, label=f"tau={r.x:.3g}")
                   for r in panel_b if r.kind == report.ROW_MARKER]
        flips = [r for r in panel_b if r.kind == report.ROW_FLIP]
        return svg.line_chart(
            [svg.Series(setup_b, tuple(r.x for r in pts), tuple(r.bf01 for r in pts))],
            markers, title=f"BF01 vs tau ({setup_b})", x_label="tau",
            ref_x=flips[0].x if flips else None,
        )

    tables = [Table("panel_a", report.FigureRow._fields, panel_a),
              Table("panel_b", report.FigureRow._fields, panel_b)]
    return human, tables, [_svg_a, _svg_b]


def _cmd_paradox(args: argparse.Namespace) -> tuple:
    from . import flip

    setup = TestSetup(n=args.n, z=args.z)
    k_star = flip.flip_point(setup.z).k_star
    pair = flip.reversal_pair(setup, args.spread)
    post1 = posterior_prob_h0(pair.bf1)
    post2 = posterior_prob_h0(pair.bf2)
    d = args.precision
    # the text shows what it claims: bf at each printed tau as labelled,
    # tau1 < tau* < tau2, and each BF01 and posterior on its label's side
    tau1 = _shown(pair.tau1, d,
                  lambda t: bf01(setup, NormalPrior(t)).direction is Direction.FAVOURS_H1)
    tau2 = _shown(pair.tau2, d,
                  lambda t: bf01(setup, NormalPrior(t)).direction is Direction.FAVOURS_H0)
    tau_star = _shown(pair.tau_star, d, lambda t: float(tau1) < t < float(tau2))
    lines = [
        f"z = {setup.z:.{d}f}, n = {setup.n}",
        f"flip point k* = {k_star:.{d}f}; critical prior sd tau* = {tau_star}",
        f"analyst 1: tau = {tau1}  ->  BF01 = {_sided(pair.bf1, d, 0.0, 1.0)}  "
        f"(favours H1), P(H0 | data) = {_sided(post1, d, 0.0, 0.5, 1.0)}",
        f"analyst 2: tau = {tau2}  ->  BF01 = {_sided(pair.bf2, d, 0.0, 1.0)}  "
        f"(favours H0), P(H0 | data) = {_sided(post2, d, 0.0, 0.5, 1.0)}",
        "same data, same hypotheses: the direction of evidence is set by "
        "the prior scale alone.",
    ]
    if pair.tau1 != pair.tau_star * (1.0 - args.spread):  # reversal_pair's second candidate
        lines.append(f"note: --spread {args.spread:g} gives no reversal outside the "
                     "neutral band; shown instead are the scale of the Bayes-factor "
                     "minimum (k = z^2 - 1) and its mirror about tau*")
    header = ("z", "n", "k_star", "tau_star", "tau1", "tau2", "bf1", "bf2",
              "posterior_h0_tau1", "posterior_h0_tau2", "direction1", "direction2")
    row = (setup.z, setup.n, k_star, pair.tau_star, pair.tau1, pair.tau2, pair.bf1, pair.bf2,
           post1, post2, Direction.FAVOURS_H1, Direction.FAVOURS_H0)
    return "\n".join(lines), [Table("paradox", header, [row])], []


# --- output ---------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    """Write text to stdout, or to the file out (BayesFlipError if it fails).

    A stdout with a binary buffer gets the encoded bytes in a loop until
    all are taken: the text layer over an unbuffered stdout (python -u)
    drops what a short write left, so a reader that has gone would go
    unnoticed.  A text-only stdout (io.StringIO) is written as text."""
    if out is None:
        if not text.endswith("\n"):
            text += "\n"
        stdout = sys.stdout
        buffer = getattr(stdout, "buffer", None)
        if buffer is None:
            stdout.write(text)
            return
        stdout.flush()  # text written before goes first
        data = memoryview(text.encode(stdout.encoding, stdout.errors))
        while data:
            data = data[buffer.write(data):]
        return
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as exc:
        raise BayesFlipError(f"cannot write {out}: {exc.strerror or exc}") from None


def _suffixed(out: str, tag: str, ext: str) -> str:
    """out with its extension, if it has one, replaced by _tag + ext:
    fig.csv and fig both give fig_panel_a.csv."""
    head, name = os.path.split(os.path.normpath(out))
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return os.path.join(head, f"{stem}_{tag}{ext}")


def _emit(args: argparse.Namespace, human: str, tables: list[Table], svgs: list) -> None:
    """Render args.format only: human text, one JSON document, or one CSV
    or SVG document per table (svgs holds one renderer per table)."""
    fmt, out = args.format, args.out
    if fmt is None:
        _write(human + "\n", out)
        return
    if fmt == "json":
        from ._writers import json_text

        _write(json_text(tables, args.one_object), out)
        return
    if fmt == "csv":
        from ._writers import csv_text

        docs = [csv_text(t) for t in tables]
    else:
        docs = [render() for render in svgs]
    if out is None or len(docs) == 1:  # several SVGs need --out, by validation
        _write("\n".join(docs), out)
    else:
        for t, doc in zip(tables, docs):
            _write(doc, _suffixed(out, t.name, "." + fmt))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _validate(args)
    try:
        _emit(args, *args.run(args))
        sys.stdout.flush()
    except BayesFlipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone (`| head`): point stdout at devnull, so the
        # flush at exit cannot fail again (the SIGPIPE note in the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0
