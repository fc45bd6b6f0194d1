"""The three workloads: how each makes its inputs from the seed, what one
round runs, how its outputs are filed for checking, and (for cli_cold)
its per-command figures.

A round is a fixed list of phases, and a phase calls one program
function on a list of inputs.  Every round of a workload has the same
phases with the same number of calls, drawn afresh from
``Random(f"{workload}/{seed}/{round}")``; draws are stratified within a
round (one draw per equal slice of each range, slices paired at random)
so that rounds cost about the same whatever the seed.  The program sees
only the generated inputs.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import bayesflip
import bayesflip.cli
import bayesflip.report

# ``check`` (numpy, scipy, mpmath) is imported inside the ``record``
# methods, so that the set-up a run times loads only the program.


@dataclass
class Phase:
    name: str
    module: object          # the function is looked up here when the phase starts,
    func: str               # so wrappers installed by the tracer are honoured
    calls: list             # argument tuples
    meta: list = field(default_factory=list)  # per call: inputs the checker needs


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def strata(rng, k, lo, hi):
    """k uniform draws on [lo, hi], one in each of k equal slices, shuffled."""
    xs = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(xs)
    return xs


def log_strata(rng, k, lo, hi):
    return [math.exp(v) for v in strata(rng, k, math.log(lo), math.log(hi))]


def int_log_strata(rng, k, lo, hi):
    return [max(1, round(v)) for v in log_strata(rng, k, lo, hi)]


def nearest(x, grid):
    return min(grid, key=lambda g: abs(g - x))


def log_nearest(x, grid):
    return min(grid, key=lambda g: abs(math.log(g / x)))


# -- cli_cold -------------------------------------------------------------

class CliCold:
    """Fresh ``python -m bayesflip`` processes, one at a time."""

    name = "cli_cold"
    commands = ("bf", "bf_cauchy", "flip", "table1", "paradox", "sweep",
                "figure1_csv", "figure1_json", "figure1_svg")

    def __init__(self, root: Path, out: Path, env: dict):
        self.root, self.out, self.env = root, out, env
        self.output_bytes = 0

    def warm_up(self):
        pass  # nothing in-process; the set-up children already loaded the files

    def spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "bayesflip", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def make_round(self, seed, index):
        rng = rng_for(self.name, seed, index)

        def n():
            return max(1, round(math.exp(rng.uniform(math.log(10), math.log(1e4)))))

        def logu(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        fig = str(self.out / "fig")
        params = [
            dict(z=rng.uniform(0.5, 4.0), n=n(), prior="normal", scale=logu(0.05, 5.0)),
            dict(z=nearest(rng.uniform(0.5, 4.0), Z_REAL), n=log_nearest(n(), N_REAL),
                 prior="cauchy", scale=log_nearest(logu(0.1, 2.0), R_REAL)),
            dict(z=rng.uniform(1.2, 6.0), n=n()),
            {},
            dict(z=rng.uniform(1.5, 4.0), n=n(), spread=rng.uniform(0.1, 0.9)),
            dict(z=rng.uniform(1.2, 4.0), n=n(), scale_min=rng.uniform(0.02, 0.5),
                 scale_max=rng.uniform(1.0, 5.0), points=100),
            {}, {}, {},
        ]
        b, bc, f, _, pa, sw = params[:6]
        argvs = [
            ["bf", "--z", repr(b["z"]), "--n", str(b["n"]), "--prior", "normal",
             "--scale", repr(b["scale"]), "--format", "json"],
            ["bf", "--z", repr(bc["z"]), "--n", str(bc["n"]), "--prior", "cauchy",
             "--scale", repr(bc["scale"]), "--format", "json"],
            ["flip", "--z", repr(f["z"]), "--n", str(f["n"]), "--method", "both",
             "--format", "json"],
            ["table1", "--format", "csv"],
            ["paradox", "--z", repr(pa["z"]), "--n", str(pa["n"]), "--spread",
             repr(pa["spread"]), "--format", "json"],
            ["sweep", "--z", repr(sw["z"]), "--n", str(sw["n"]), "--prior", "normal",
             "--scale-min", repr(sw["scale_min"]), "--scale-max", repr(sw["scale_max"]),
             "--points", "100", "--format", "csv"],
            ["figure1", "--format", "csv", "--out", fig],
            ["figure1", "--format", "json", "--out", fig + ".json"],
            ["figure1", "--format", "svg", "--out", fig],
        ]
        return [Phase(cmd, self, "spawn", [(argv,)], [p])
                for cmd, argv, p in zip(self.commands, argvs, params)]

    def record(self, ck, phase: Phase, outputs):
        import check
        stdout, p = outputs[0], phase.meta[0]
        where = f"cli {phase.name}"
        files = {}
        if phase.name.startswith("figure1"):
            fmt = phase.name.split("_")[1]
            names = ["fig.json"] if fmt == "json" else [f"fig_panel_a.{fmt}", f"fig_panel_b.{fmt}"]
            files = {name: (self.out / name).read_text() for name in names}
        self.output_bytes += len(stdout.encode()) + sum(len(t.encode()) for t in files.values())
        if not ck.first_time(phase.name, p, stdout, files):
            return
        if phase.name in ("bf", "bf_cauchy"):
            check.cli_bf(ck, where, p, stdout)
        elif phase.name == "flip":
            check.cli_flip(ck, where, p, stdout)
        elif phase.name == "table1":
            check.cli_table1(ck, where, stdout)
        elif phase.name == "paradox":
            check.cli_paradox(ck, where, p, stdout)
        elif phase.name == "sweep":
            check.cli_sweep(ck, where, p, stdout)
        elif phase.name == "figure1_csv":
            check.figure1_csv(ck, where, files["fig_panel_a.csv"], files["fig_panel_b.csv"])
        elif phase.name == "figure1_json":
            check.figure1_json(ck, where, files["fig.json"])
        else:
            check.figure1_svg(ck, where, files["fig_panel_a.svg"], files["fig_panel_b.svg"])

    def layer_metrics(self, times):
        return {f"cli.{name}_ms": (median(times[name]) * 1e3, "ms")
                for name in ("bf", "bf_cauchy", "flip", "table1", "paradox", "sweep")} | {
            "cli.figure1_ms": (median(times["figure1_csv"] + times["figure1_json"]
                                      + times["figure1_svg"]) * 1e3, "ms")}


# -- cauchy -----------------------------------------------------------------

# Every Cauchy Bayes factor the benchmark asks for sits on one of these
# lattices, and each lattice point was checked against the oracle once.
# Continuous draws are not used: the program's adaptive Simpson now and
# then accepts a piece whose coarse and refined estimates agree by chance,
# leaving log BF01 off by up to ~1e-7 at isolated inputs (about one
# evaluation in 1e4; see the FOUND line in CHANGES.md), so a run with
# continuous draws would fail its check on some seeds and not others.
Z_REAL = tuple(i / 8 for i in range(33))                       # 0 .. 4
N_REAL = (10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000)
R_REAL = tuple(0.05 * 100 ** (i / 11) for i in range(12))      # 0.05 .. 5
N_CORNER = (1, 10, 100, 1000, 10000)
Z_TINY = tuple(4 + i / 4 for i in range(9))                    # 4 .. 6
GAMMA_TINY = tuple(10 ** (-6 + i / 2) for i in range(5))       # 1e-6 .. 1e-4
Z_HUGE = tuple(i / 4 for i in range(17))                       # 0 .. 4
GAMMA_HUGE = tuple(10 ** (4 + i / 2) for i in range(7))        # 1e4 .. 1e7
Z_SWEEP = (1.5, 2.0, 2.5, 3.0, 3.5)
SWEEP_LO, SWEEP_HI = (0.02, 0.05, 0.1, 0.2), (1.0, 2.0, 3.0)
Z_FLIP = tuple(1.5 + i / 16 for i in range(41))                # 1.5 .. 4
N_FLIP = tuple(round(10 ** (1 + j / 2)) for j in range(11))    # 10 .. 1e6


def sweep_scales(lo, hi, points):
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


class Cauchy:
    """In-process work on the Cauchy path: single Bayes factors (with a
    fixed share of corner points), 100-point sweeps and flip-scale solves."""

    name = "cauchy"
    BF_REALISTIC, BF_CORNERS, FLIPS, SWEEP_POINTS = 28, 4, 4, 100

    def __init__(self, root: Path, out: Path, env: dict):
        self.output_bytes = 0

    def _bf_inputs(self, rng):
        k = self.BF_REALISTIC
        pts = [(nearest(z, Z_REAL), log_nearest(n, N_REAL), log_nearest(r, R_REAL))
               for z, n, r in zip(strata(rng, k, 0.0, 4.0), log_strata(rng, k, 10, 1e5),
                                  log_strata(rng, k, 0.05, 5.0))]
        for _ in range(self.BF_CORNERS // 2):
            # large z with tiny sqrt(n)*r: the likelihood spike sits far out
            # in the prior's tail, the hardest case for the quadrature
            n = rng.choice(N_CORNER)
            pts.append((rng.choice(Z_TINY), n, rng.choice(GAMMA_TINY) / math.sqrt(n)))
            # huge sqrt(n)*r: the prior is flat over the likelihood
            n = rng.choice(N_CORNER)
            pts.append((rng.choice(Z_HUGE), n, rng.choice(GAMMA_HUGE) / math.sqrt(n)))
        return pts

    def make_round(self, seed, index):
        rng = rng_for(self.name, seed, index)
        b = bayesflip
        bf_pts = self._bf_inputs(rng)
        sz, sn = rng.choice(Z_SWEEP), rng.choice(N_CORNER)
        lo, hi = rng.choice(SWEEP_LO), rng.choice(SWEEP_HI)
        # z in [1.5, 4] and n in [10, 1e6]: r* lies inside the program's scan
        # window [1e-4, 1e3] for every draw (see the README's domain edges)
        flips = [(nearest(z, Z_FLIP), log_nearest(n, N_FLIP))
                 for z, n in zip(strata(rng, self.FLIPS, 1.5, 4.0),
                                 log_strata(rng, self.FLIPS, 10, 1e6))]
        return [
            Phase("bf", b.cauchy, "bf01_cauchy",
                  [(b.TestSetup(n, z), b.CauchyPrior(r)) for z, n, r in bf_pts], bf_pts),
            Phase("sweep", b.report, "sweep_rows",
                  [(b.TestSetup(sn, sz), "cauchy", sweep_scales(lo, hi, self.SWEEP_POINTS))],
                  [(sz, sn, lo, hi)]),
            Phase("flip", b.cauchy, "cauchy_flip_scale",
                  [(b.TestSetup(n, z),) for z, n in flips], flips),
        ]

    def warm_up(self):
        b = bayesflip
        b.cauchy.bf01_cauchy(b.TestSetup(50, 2.0), b.CauchyPrior(0.707))
        b.report.sweep_rows(b.TestSetup(50, 2.0), "cauchy", [0.5, 1.0])
        b.cauchy.cauchy_flip_scale(b.TestSetup(10**6, 1.6))

    def record(self, ck, phase, outputs):
        if phase.name == "bf":
            for (z, n, r), res in zip(phase.meta, outputs):
                ck.cauchy_bf(f"bf01_cauchy z={z!r} n={n} r={r!r}", z, n, r,
                             res.log_bf01, res.bf01, res.direction.value)
        elif phase.name == "sweep":
            (z, n, lo, hi), rows = phase.meta[0], outputs[0]
            where = f"sweep_rows z={z!r} n={n}"
            grid = sweep_scales(lo, hi, self.SWEEP_POINTS)
            ck.expect(where, len(rows) == self.SWEEP_POINTS, f"{len(rows)} rows")
            for row, s in zip(rows, grid):
                ck.expect(where, row.kind == "point" and row.k is None and row.scale == s,
                          f"row {row.kind!r} scale={row.scale!r} k={row.k!r}, expected scale {s!r}")
                ck.cauchy_bf(f"{where} r={s!r}", z, n, s, row.log_bf01, row.bf01,
                             row.direction.value)
        else:
            for (z, n), r in zip(phase.meta, outputs):
                ck.r_star(f"cauchy_flip_scale z={z!r} n={n}", z, n, r)

    def layer_metrics(self, times):
        return {}


# -- closed_form ------------------------------------------------------------

class ClosedForm:
    """In-process work on the normal path: closed-form Bayes factors, flip
    points by both routes, reversal pairs, and figure1 through the CLI."""

    name = "closed_form"
    # sized so that figure1 (three ~25 ms renders) is not most of a round:
    # bf, flip and the pairs take about 20, 20 and 8 ms of a ~120 ms round
    BF, FLIP_Z, PAIRS = 6144, 256, 128

    def __init__(self, root: Path, out: Path, env: dict):
        self.out = out
        self.output_bytes = 0

    def _figure_argvs(self):
        fig = str(self.out / "fig")
        return [["figure1", "--format", "csv", "--out", fig],
                ["figure1", "--format", "json", "--out", fig + ".json"],
                ["figure1", "--format", "svg", "--out", fig]]

    def make_round(self, seed, index):
        rng = rng_for(self.name, seed, index)
        b = bayesflip
        bf_pts = list(zip(strata(rng, self.BF, 0.0, 5.0), int_log_strata(rng, self.BF, 1, 1e6),
                          log_strata(rng, self.BF, 1e-3, 1e2)))
        # z in (1, 26]: one draw is in [1.0001, 1.001), where the program
        # always takes the bracketed route; the rest cover [1.001, 26]
        zs = [rng.uniform(1.0001, 1.001)] + strata(rng, self.FLIP_Z - 1, 1.001, 26.0)
        flip_calls = [(z, m) for z in zs for m in (b.FlipMethod.BRACKETED, b.FlipMethod.LAMBERT_W)]
        pz = strata(rng, self.PAIRS, 1.5, 4.0)
        pn = int_log_strata(rng, self.PAIRS, 1, 1e6)
        spreads = strata(rng, self.PAIRS, 0.05, 0.9)
        validate = []
        for z, n in zip(pz, pn):
            # a reversal pair by construction, without k*: BF01 is below 1 on
            # (0, k*) and z^2 - 1 < k* < e^{z^2} - 1
            k1 = (z * z - 1.0) * rng.uniform(0.1, 1.0)
            k2 = math.exp(z * z) * rng.uniform(1.0, 10.0)
            validate.append((b.TestSetup(n, z), math.sqrt(k1 / n), math.sqrt(k2 / n)))
        return [
            Phase("bf", b.bayes_factor, "bf01",
                  [(b.TestSetup(n, z), b.NormalPrior(t)) for z, n, t in bf_pts], bf_pts),
            Phase("flip", b.flip, "flip_point", flip_calls, flip_calls),
            Phase("reversal", b.flip, "reversal_pair",
                  [(b.TestSetup(n, z), sp) for z, n, sp in zip(pz, pn, spreads)], list(zip(pz, pn))),
            Phase("validate", b.flip, "validate_pair", validate, list(zip(pz, pn))),
            Phase("figure1", b.cli, "main", [(argv,) for argv in self._figure_argvs()],
                  ["csv", "json", "svg"]),
        ]

    def warm_up(self):
        b = bayesflip
        setup = b.TestSetup(50, 2.0)
        b.bf01(setup, b.NormalPrior(0.8))
        b.flip_point(2.0, b.FlipMethod.BRACKETED)
        b.flip_point(2.0, b.FlipMethod.LAMBERT_W)
        b.validate_pair(setup, b.reversal_pair(setup).tau1, 1.5)
        for argv in self._figure_argvs():
            b.cli.main(argv)

    def record(self, ck, phase, outputs):
        import check
        if phase.name == "bf":
            for (z, n, tau), res in zip(phase.meta, outputs):
                ck.normal_bf(f"bf01 z={z!r} n={n} tau={tau!r}", z, n * tau * tau,
                             res.log_bf01, res.bf01, res.direction.value)
        elif phase.name == "flip":
            for (z, method), res in zip(phase.meta, outputs):
                ck.k_star(f"flip_point z={z!r} {method.value}", z, res.k_star)
        elif phase.name in ("reversal", "validate"):
            for (z, n), pr in zip(phase.meta, outputs):
                where = f"{phase.name}_pair z={z!r} n={n}"
                ck.tau_star(where, z, n, pr.tau_star)
                ck.pair(where, z, n, pr.tau1, pr.tau2, pr.bf1, pr.bf2)
        else:
            for fmt, rc in zip(phase.meta, outputs):
                where = f"cli.main figure1 --format {fmt}"
                ck.expect(where, rc == 0, f"returned {rc}")
                names = ["fig.json"] if fmt == "json" else [f"fig_panel_a.{fmt}", f"fig_panel_b.{fmt}"]
                texts = [(self.out / name).read_text() for name in names]
                self.output_bytes += sum(len(t.encode()) for t in texts)
                if not ck.first_time(fmt, texts):
                    continue
                if fmt == "csv":
                    check.figure1_csv(ck, where, *texts)
                elif fmt == "json":
                    check.figure1_json(ck, where, *texts)
                else:
                    check.figure1_svg(ck, where, *texts)

    def layer_metrics(self, times):
        return {}


WORKLOADS = {w.name: w for w in (CliCold, Cauchy, ClosedForm)}
