"""Self-test of the checker: outputs perturbed on purpose must be rejected.

Each case takes a real program output, checks that the checker accepts
it as it is, then feeds it changed by a little more than the check's
tolerance and requires a rejection.  A checker that passes everything
would fail here.  Every benchmark run calls ``run_selftest``; on its own:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import bayesflip
import bayesflip.cli

import check

H1, H0 = check.H1, check.H0


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bayesflip.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"bayesflip {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def _verdict(feed) -> list[str]:
    ck = check.Checker()
    feed(ck)
    return ck.finish()


def _cases(tmp: Path):
    b = bayesflip
    setup = b.TestSetup(50, 2.0)

    nb = b.bf01(setup, b.NormalPrior(0.8))          # favours H1
    k = setup.n * 0.8 ** 2
    yield ("normal BF01 x (1 + 1e-6)",
           lambda ck, f=1.0: ck.normal_bf("n", 2.0, k, None, nb.bf01 * f, nb.direction.value),
           1.0 + 1e-6)
    yield ("normal direction label swapped",
           lambda ck, d=nb.direction.value: ck.normal_bf("n", 2.0, k, nb.log_bf01, nb.bf01, d), H0)

    cb = b.bf01_cauchy(setup, b.CauchyPrior(0.3))   # log BF01 ~ -0.2
    yield ("Cauchy BF01 x (1 + 1e-6)",
           lambda ck, f=1.0: ck.cauchy_bf("c", 2.0, 50, 0.3, cb.log_bf01, cb.bf01 * f,
                                          cb.direction.value), 1.0 + 1e-6)
    yield ("Cauchy direction label swapped",
           lambda ck, d=cb.direction.value: ck.cauchy_bf("c", 2.0, 50, 0.3, cb.log_bf01,
                                                         cb.bf01, d), H0)

    for z in (1.0005, 2.0, 26.0):
        for method in b.FlipMethod:
            ks = b.flip_point(z, method).k_star
            yield (f"k* x (1 + 1e-8) at z={z:g}, {method.value}",
                   lambda ck, f=1.0, z=z, ks=ks: ck.k_star("k", z, ks * f), 1.0 + 1e-8)

    rs = b.cauchy_flip_scale(b.TestSetup(10**6, 1.6))
    yield ("r* x (1 + 1e-4)",
           lambda ck, f=1.0: ck.r_star("r", 1.6, 10**6, rs * f), 1.0 + 1e-4)

    pair = b.reversal_pair(setup, 0.3)
    yield ("reversal pair with tau1 and tau2 swapped",
           lambda ck, swap=False: ck.pair("p", 2.0, 50, *((pair.tau2, pair.tau1, pair.bf2, pair.bf1)
                                                         if swap else
                                                         (pair.tau1, pair.tau2, pair.bf1, pair.bf2))),
           True)

    # the same perturbations on the CLI's machine output
    p = dict(z=2.0, n=50, prior="normal", scale=0.8)
    out = json.loads(_cli(["bf", "--z", "2.0", "--n", "50", "--scale", "0.8", "--format", "json"]))

    def bf_json(ck, f=1.0):
        check.cli_bf(ck, "cli bf", p, json.dumps(out | {"bf01": out["bf01"] * f}))
    yield ("bf --format json: bf01 x (1 + 1e-6)", bf_json, 1.0 + 1e-6)

    fp = dict(z=2.0, n=50)
    rows = json.loads(_cli(["flip", "--z", "2.0", "--n", "50", "--format", "json"]))

    def flip_json(ck, f=1.0):
        check.cli_flip(ck, "cli flip", fp, json.dumps(
            [r | {"k_star": r["k_star"] * f} for r in rows]))
    yield ("flip --format json: k* x (1 + 1e-8)", flip_json, 1.0 + 1e-8)

    sp = dict(z=2.0, n=50, scale_min=0.1, scale_max=3.0, points=20)
    text = _cli(["sweep", "--z", "2.0", "--n", "50", "--scale-min", "0.1", "--scale-max", "3.0",
                 "--points", "20", "--format", "csv"])

    def sweep_csv(ck, swap=False):
        rows = list(csv.reader(io.StringIO(text)))
        if swap:  # row 1 is tau = 0.1, BF01 < 1
            rows[1][5] = {H1: H0, H0: H1}[rows[1][5]]
        check.cli_sweep(ck, "cli sweep", sp, "\n".join(",".join(r) for r in rows) + "\n")
    yield ("sweep --format csv: direction label swapped", sweep_csv, True)

    fig = str(tmp / "selftest")
    _cli(["figure1", "--format", "csv", "--out", fig])
    a = (tmp / "selftest_panel_a.csv").read_text()
    fb = (tmp / "selftest_panel_b.csv").read_text()

    def figure_csv(ck, drop=False):
        lines = a.splitlines(keepends=True)
        check.figure1_csv(ck, "cli figure1", "".join(lines[:-2] + lines[-1:]) if drop else a, fb)
    yield ("figure1 --format csv: one panel-a row missing", figure_csv, True)


def run_selftest(tmp: Path) -> list[str]:
    """Every case the checker got wrong; empty when all were right."""
    wrong = []
    try:
        for name, feed, perturbation in _cases(tmp):
            accepted = _verdict(feed)
            if accepted:
                wrong.append(f"{name}: the unperturbed output was rejected: {accepted[0]}")
            if not _verdict(lambda ck: feed(ck, perturbation)):
                wrong.append(f"{name}: the perturbed output was accepted")
    except Exception as exc:  # the program failed on a self-test input
        wrong.append(f"self-test stopped: {type(exc).__name__}: {exc}")
    return wrong


if __name__ == "__main__":
    tmp = Path(__file__).resolve().parent.parent / ".perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    problems = run_selftest(tmp)
    for line in problems:
        print(line)
    print("checker self-test:", "FAILED" if problems else "every perturbed output was rejected")
    sys.exit(1 if problems else 0)
