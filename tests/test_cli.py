"""CLI golden tests: exit codes, machine-output round-trips, and the
figure/table datasets, exercised through ``python -m bayesflip``."""

import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bayesflip import cli
from bayesflip.bayes_factor import log_bf01

REPO = Path(__file__).resolve().parents[1]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "bayesflip", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=cli_env())


def run_in_process(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestExitCodes:
    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "bf" in cp.stdout and "paradox" in cp.stdout

    @pytest.mark.parametrize("command", ["bf", "flip", "sweep", "table1", "figure1", "paradox"])
    def test_subcommand_help(self, command, capsys):
        """argparse formats a subcommand's help only when asked for it."""
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bayesflip {command} ")

    def test_success_is_zero(self):
        cp = run_cli("bf", "--z", "2", "--n", "50", "--prior", "normal", "--scale", "0.8")
        assert cp.returncode == 0, cp.stderr

    def test_invalid_scale_is_usage_error(self):
        cp = run_cli("bf", "--z", "2", "--n", "50", "--prior", "normal", "--scale", "0")
        assert cp.returncode == 2

    def test_missing_flag_is_usage_error(self):
        cp = run_cli("bf", "--z", "2")
        assert cp.returncode == 2

    def test_bad_sweep_range_is_usage_error(self):
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--scale-min", "3",
                     "--scale-max", "1")
        assert cp.returncode == 2

    def test_no_flip_point_is_computation_error(self):
        cp = run_cli("paradox", "--z", "0.9", "--n", "50")
        assert cp.returncode == 1
        assert "error" in cp.stderr.lower()

    def test_flip_below_threshold_is_computation_error(self):
        cp = run_cli("flip", "--z", "1.0")
        assert cp.returncode == 1


class TestBfCommand:
    def test_human_output(self):
        cp = run_cli("bf", "--z", "2", "--n", "50", "--prior", "normal", "--scale", "0.8")
        assert cp.returncode == 0
        assert "0.8260" in cp.stdout
        assert "favours H1" in cp.stdout
        assert "p_h0" in cp.stdout

    def test_csv_roundtrip_full_precision(self):
        cp = run_cli("bf", "--z", "2", "--n", "50", "--prior", "normal",
                     "--scale", "0.8", "--format", "csv")
        assert cp.returncode == 0
        (row,) = parse_csv(cp.stdout)
        z, n, scale = float(row["z"]), int(row["n"]), float(row["scale"])
        recomputed = log_bf01(z, n * scale * scale)
        assert float(row["log_bf01"]) == pytest.approx(recomputed, rel=1e-15)
        assert float(row["bf01"]) == pytest.approx(math.exp(recomputed), rel=1e-15)
        assert row["direction"] == "favours_h1"

    def test_json_roundtrip(self):
        cp = run_cli("bf", "--z", "1.96", "--n", "5000", "--prior", "normal",
                     "--scale", "1.0", "--format", "json")
        assert cp.returncode == 0
        obj = json.loads(cp.stdout)
        assert set(obj) == {"z", "n", "prior", "scale", "k", "bf01", "log_bf01",
                            "direction", "posterior_prob_h0"}
        assert obj["bf01"] == pytest.approx(math.exp(log_bf01(1.96, 5000.0)), rel=1e-15)
        assert obj["direction"] == "favours_h0"

    def test_cauchy_prior_at_default_scale(self):
        cp = run_cli("bf", "--z", "2", "--n", "50", "--prior", "cauchy",
                     "--scale", "0.707", "--format", "json")
        assert cp.returncode == 0
        obj = json.loads(cp.stdout)
        assert obj["bf01"] == pytest.approx(1.00, abs=0.05)
        assert obj["k"] is None


class TestFlipCommand:
    def test_both_methods_reported_and_agree(self):
        cp = run_cli("flip", "--z", "2", "--n", "50", "--format", "json")
        assert cp.returncode == 0
        rows = json.loads(cp.stdout)
        assert [r["method"] for r in rows] == ["bracketed", "lambert_w"]
        for r in rows:
            assert r["k_star"] == pytest.approx(49.44, abs=0.01)
            assert r["tau_star"] == pytest.approx(0.99, abs=0.01)
        assert rows[0]["k_star"] == pytest.approx(rows[1]["k_star"], rel=1e-9)

    @pytest.mark.parametrize("z", ["1.005", "-1.0005"])
    def test_lambert_route_near_one_names_itself(self, z):
        cp = run_cli("flip", "--z", z, "--method", "lambert_w", "--format", "csv")
        assert cp.returncode == 0
        assert [r["method"] for r in parse_csv(cp.stdout)] == ["lambert_w"]


SWEEP = ("sweep", "--z", "2", "--n", "50")
# argv, and the message _validate gives for it
USAGE_ERRORS = [
    (("bf", "--z", "2", "--n", "50", "--scale", "1", "--precision", "-1"),
     "--precision must be nonnegative"),
    (("bf", "--z", "2", "--n", "50", "--scale", "1", "--precision", "99999999999"),
     "--precision must be <= 1074, got 99999999999"),
    (("bf", "--z", "2", "--n", "0", "--scale", "1"), "--n must be >= 1"),
    (("paradox", "--z", "2", "--n", "50", "--spread", "1"), "--spread must lie in (0, 1)"),
    ((*SWEEP, "--scale-min", "-1", "--scale-max", "1"), "prior scales must be positive"),
    ((*SWEEP, "--scale-min", "1", "--scale-max", "2", "--points", "1"),
     "--points must be >= 2"),
    ((*SWEEP, "--scale-min", "3", "--scale-max", "1"),
     "--scale-min must be below --scale-max"),
    (("figure1", "--points-a", "1"), "--points-a and --points-b must be >= 2"),
    (("figure1", "--format", "svg"), "figure1 --format svg needs --out (two documents)"),
    ((*SWEEP, "--scale-min", "1", "--scale-max", "2", "--points", "10001"),
     "--points must be <= 10000, got 10001"),
    (("figure1", "--points-a", "10001"), "--points-a must be <= 10000, got 10001"),
    (("figure1", "--points-b", "10000000"), "--points-b must be <= 10000, got 10000000"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[m for _, m in USAGE_ERRORS])
def test_usage_error_names_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n"), captured.err


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[m for _, m in USAGE_ERRORS])
def test_usage_error_shows_the_subcommand(argv, message, capsys):
    """_validate's errors carry the subcommand's usage and prog, as
    argparse's own errors for that subcommand do."""
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bayesflip {argv[0]} [-h]"), err
    assert err.endswith(f"\nbayesflip {argv[0]}: error: {message}\n"), err


def test_points_over_the_limit_build_no_row(monkeypatch, capsys):
    from bayesflip import report

    def build(*args):
        raise AssertionError("rows built for a usage error")

    monkeypatch.setattr(report, "scale_grid", build)
    monkeypatch.setattr(report, "sweep_rows", build)
    with pytest.raises(SystemExit) as exc:
        cli.main([*SWEEP, "--scale-min", "0.1", "--scale-max", "3", "--points", "10000000"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: --points must be <= 10000, got 10000000\n")


class TestNegativeNumbers:
    """A value in any float form after a flag is the flag's value: argparse
    alone takes only -5 and -.5 for numbers, and read -1e-05 as a flag."""

    BF = ["bf", "--n", "50", "--scale", "1", "--format", "json"]

    @pytest.mark.parametrize("z", ["-1e-05", "-2.90771851041427e-12", "-1E+2", "-3."])
    def test_exponent_form_z_is_a_value(self, z, capsys):
        assert cli.main([*self.BF, f"--z={z}"]) == 0
        joined = capsys.readouterr().out
        assert cli.main([*self.BF, "--z", z]) == 0
        assert capsys.readouterr().out == joined
        assert json.loads(joined)["z"] == float(z)

    # apart from USAGE_ERRORS, whose test ids are the messages
    @pytest.mark.parametrize("argv,message", [
        ((*SWEEP, "--scale-min", "-1e-05", "--scale-max", "1"), "prior scales must be positive"),
        (("bf", "--z", "-inf", "--n", "50", "--scale", "1"), "--z must be finite, got -inf"),
    ])
    def test_validation_sees_the_value(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


Z = st.floats(-40.0, 40.0)
N = st.integers(1, 10**9)
SCALE = st.floats(1e-9, 1e9)


@st.composite
def cli_runs(draw, z=Z, n=N, scale=SCALE):
    """argv of one bf, sweep, flip or paradox run, with z, n and the
    scales drawn from the given strategies."""
    z_flag = ["--z", repr(draw(z))]
    command = draw(st.sampled_from(["bf", "sweep", "flip", "paradox"]))
    if command == "bf":
        return ["bf", *z_flag, "--n", str(draw(n)), "--prior",
                draw(st.sampled_from(["normal", "cauchy"])), "--scale", repr(draw(scale))]
    if command == "sweep":
        lo, hi = sorted(draw(st.lists(scale, min_size=2, max_size=2, unique=True)))
        return ["sweep", *z_flag, "--n", str(draw(n)),
                "--prior", draw(st.sampled_from(["normal", "cauchy"])),
                "--spacing", draw(st.sampled_from(["linear", "log"])),
                "--scale-min", repr(lo), "--scale-max", repr(hi),
                "--points", str(draw(st.integers(2, 12)))]
    if command == "flip":
        n_flag = draw(st.none() | n)
        return ["flip", *z_flag, *([] if n_flag is None else ["--n", str(n_flag)]),
                "--method", draw(st.sampled_from(["bracketed", "lambert_w", "both"]))]
    spread = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return ["paradox", *z_flag, "--n", str(draw(n)), "--spread", repr(spread)]


def assert_strict_json_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--format", "json"])
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_runs())
@example(["bf", "--z", "-2.90771851041427e-12", "--n", "50", "--scale", "1"])
def test_every_run_is_strict_json_or_a_one_line_error(argv):
    """Within the flags' domain a run exits 0 with JSON free of NaN and
    Infinity, or exits 1 with an error line: never a usage error or a
    traceback."""
    assert_strict_json_or_one_error_line(argv)


@settings(max_examples=300, deadline=None)
@given(cli_runs(z=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(1, 10**18),
                scale=st.floats(0.0, sys.float_info.max, exclude_min=True)))
# 2xy overflowed in the Voigt kernel, and cos(inf) raised ValueError
@example(["bf", "--z", "1.3e308", "--n", "1", "--prior", "cauchy", "--scale", "1"])
# the last log point rounded past log(DBL_MAX), and exp overflowed
@example(["sweep", "--z", "2", "--n", "1", "--spacing", "log",
          "--scale-min", "2.898708081470005e-121", "--scale-max", "1.7976931348623157e308",
          "--points", "6"])
def test_every_finite_input_is_strict_json_or_a_one_line_error(argv):
    """The same over every finite z, every positive finite scale and n up
    to 10**18."""
    assert_strict_json_or_one_error_line(argv)


@settings(max_examples=200, deadline=None)
@given(argv=cli_runs(), precision=st.integers(0, 8))
@example(argv=["sweep", "--z", "2", "--n", "1000000000", "--scale-min", "1e-5",
               "--scale-max", "1e-3", "--points", "3"], precision=4)
@example(argv=["bf", "--z", "2", "--n", "50", "--scale", "0.3"], precision=0)
def test_human_output_prints_no_nonzero_scale_as_zero(argv, precision):
    """Every prior scale in human text, parsed, is positive: scales print
    with at least max(1, --precision) significant digits."""
    code, text = run_in_process(*argv, "--precision", str(precision))
    if code != 0:
        return
    if argv[0] == "sweep":
        scales = [line.split()[1] for line in text.splitlines()[1:]]
    else:
        scales = re.findall(r"(?:^scale +|tau\*?(?:\(n=\d+\))? = )(\S+)", text, re.MULTILINE)
    assert scales or argv[0] == "flip"
    assert all(float(s) > 0.0 for s in scales), text


@settings(max_examples=200, deadline=None)
@given(z=Z, n=N, prior=st.sampled_from(["normal", "cauchy"]), scale=SCALE,
       precision=st.integers(0, 8))
# k 0.0000, bf01 1.0000 and log_bf01 -0.0000 beside "favours H1"
@example(z=2.0, n=50, prior="normal", scale=1e-4, precision=4)
# p_h0 0.5000 beside "favours H1"
@example(z=2.0, n=50, prior="cauchy", scale=0.707, precision=4)
def test_bf_human_text_prints_no_number_across_its_label(z, n, prior, scale, precision):
    """Human bf text, parsed, against the same run's JSON: unless the
    direction is neutral, bf01, log_bf01 and p_h0 print on the side of 1,
    0 and 1/2 that it names, and at 0 (or p_h0 at 1) only where they are;
    k prints as 0 nowhere it is positive."""
    argv = ["bf", "--z", repr(z), "--n", str(n), "--prior", prior, "--scale", repr(scale)]
    code, text = run_in_process(*argv, "--precision", str(precision))
    if code != 0:
        return
    shown = {line.split()[0]: line.split()[1] for line in text.splitlines()}
    code, out = run_in_process(*argv, "--format", "json")
    exact = json.loads(out)
    assert code == 0 and shown["direction"] == exact["direction"].split("_")[0]
    if prior == "normal" and exact["k"] > 0.0:
        assert float(shown["k"]) > 0.0, text
    if exact["direction"] == "neutral":
        return
    for name, key, marks in (("bf01", "bf01", (0.0, 1.0)), ("log_bf01", "log_bf01", (0.0,)),
                             ("p_h0", "posterior_prob_h0", (0.0, 0.5, 1.0))):
        v, x = float(shown[name]), exact[key]
        assert all((v > m) - (v < m) == (x > m) - (x < m) for m in marks), (name, text)


class TestSweepCommand:
    def test_direction_changes_once_with_trailing_flip_row(self):
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--prior", "normal",
                     "--scale-min", "0.1", "--scale-max", "3", "--points", "100",
                     "--format", "csv")
        assert cp.returncode == 0
        rows = parse_csv(cp.stdout)
        assert len(rows) == 101
        assert rows[-1]["kind"] == "flip"
        assert float(rows[-1]["scale"]) == pytest.approx(0.99, abs=0.01)
        assert float(rows[-1]["k"]) == pytest.approx(49.44, abs=0.01)
        dirs = [r["direction"] for r in rows[:-1]]
        h1 = [i for i, d in enumerate(dirs) if d == "favours_h1"]
        h0 = [i for i, d in enumerate(dirs) if d == "favours_h0"]
        assert h1 and h0 and max(h1) < min(h0)

    def test_rows_roundtrip_to_library_values(self):
        cp = run_cli("sweep", "--z", "1.96", "--n", "5000", "--prior", "normal",
                     "--scale-min", "0.05", "--scale-max", "2", "--points", "10",
                     "--spacing", "log", "--format", "csv")
        rows = [r for r in parse_csv(cp.stdout) if r["kind"] == "point"]
        for r in rows:
            k = 5000.0 * float(r["scale"]) ** 2
            assert float(r["k"]) == pytest.approx(k, rel=1e-12)
            assert float(r["log_bf01"]) == pytest.approx(log_bf01(1.96, k), rel=1e-15)

    @pytest.mark.parametrize("z", ["30", "-30", "26.642"])
    def test_past_the_largest_finite_k_star(self, z):
        """k* overflows a float above |z| ~ 26.6417: the sweep keeps its
        point rows and has no flip row."""
        cp = run_cli("sweep", "--z", z, "--n", "50", "--scale-min", "0.1",
                     "--scale-max", "3", "--points", "50", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        rows = json.loads(cp.stdout, parse_constant=_reject_constant)
        assert [r["kind"] for r in rows] == ["point"] * 50
        assert all(r["direction"] == "favours_h1" for r in rows)

    def test_small_z_has_no_flip_row(self):
        cp = run_cli("sweep", "--z", "0.5", "--n", "50", "--scale-min", "0.1",
                     "--scale-max", "2", "--points", "10", "--format", "csv")
        rows = parse_csv(cp.stdout)
        assert all(r["kind"] == "point" for r in rows)
        assert all(r["direction"] in ("favours_h0", "neutral") for r in rows)

    def test_svg_output(self, tmp_path: Path):
        out = tmp_path / "sweep.svg"
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--scale-min", "0.1",
                     "--scale-max", "3", "--points", "20", "--format", "svg",
                     "--out", str(out))
        assert cp.returncode == 0
        ET.parse(out)
        assert "polyline" in out.read_text()

    @pytest.mark.parametrize("prior,z", [("normal", "0.5"), ("cauchy", "2")])
    def test_svg_over_a_one_ulp_scale_range(self, prior, z):
        """The x axis spans about one ulp, far below any tick step, and the
        chart still ends.  The memory cap and the timeout make a tick loop
        that never ends fail fast instead of hanging the suite."""
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        cmd = [sys.executable, "-m", "bayesflip", "sweep", "--z", z, "--n", "50",
               "--prior", prior, "--scale-min", "1", "--scale-max", "1.0000000000000002",
               "--points", "2", "--format", "svg"]
        cp = subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), timeout=30,
                            preexec_fn=cap_memory)
        assert cp.returncode == 0, cp.stderr
        texts = list(ET.fromstring(cp.stdout).iter("{http://www.w3.org/2000/svg}text"))
        # tick labels: x below the plot box, y right-aligned left of it
        for axis in ([t.text for t in texts if t.get("y") == "452"],
                     [t.text for t in texts if t.get("text-anchor") == "end"]):
            assert axis and len(axis) == len(set(axis)), axis

    @pytest.mark.parametrize("scale_min,scale_max,labels", [
        ("1000", "20000", ["5000", "1e+04", "1.5e+04", "2e+04"]),
        ("100500", "103000",
         ["1.005e+05", "1.01e+05", "1.015e+05", "1.02e+05", "1.025e+05", "1.03e+05"]),
        ("100", "1.79e308", ["0", "5e+307", "1e+308", "1.5e+308"]),
        ("1000", "1000.01",
         ["1000", "1000.002", "1000.004", "1000.006", "1000.008", "1000.01"]),
    ])
    def test_svg_tick_labels_carry_the_digits_of_their_step(self, scale_min, scale_max,
                                                             labels, capsys):
        """Labels used to have one digit in exponent form and six in :g
        form: 15000 read 2e+04 and 1000.002 read 1000, and the next tick
        that read the same was dropped as a repeat."""
        assert cli.main(["sweep", "--z", "5", "--n", "50", "--prior", "cauchy",
                         "--scale-min", scale_min, "--scale-max", scale_max,
                         "--points", "5", "--format", "svg"]) == 0
        texts = ET.fromstring(capsys.readouterr().out).iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts if t.get("y") == "452"] == labels

    def test_svg_up_to_the_largest_float(self):
        """The axis padding reaches past the largest float; it is clamped,
        so the ticks and pixels stay finite and the points stay apart."""
        cp = run_cli("sweep", "--z", "5", "--n", "50", "--prior", "cauchy",
                     "--scale-min", "0.1", "--scale-max", "1.79e308", "--points", "5",
                     "--format", "svg")
        assert cp.returncode == 0, cp.stderr
        line = ET.fromstring(cp.stdout).find("{http://www.w3.org/2000/svg}polyline")
        xs = [float(p.split(",")[0]) for p in line.get("points").split()]
        assert xs == sorted(set(xs)) and len(xs) == 5


class TestTableCommand:
    def test_cells_at_published_precision(self):
        cp = run_cli("table1", "--format", "csv")
        assert cp.returncode == 0
        rows = parse_csv(cp.stdout)
        got = {float(r["z"]): r for r in rows}
        expected = {
            1.50: (0.134, 5.82, 0.34, 0.24),
            1.96: (0.050, 41.58, 0.91, 0.64),
            2.00: (0.046, 49.44, 0.99, 0.70),
            2.50: (0.012, 510.72, 3.20, 2.26),
            3.00: (0.003, 8093.08, 12.72, 9.00),
        }
        assert set(got) == set(expected)
        for z, (p, ks, t50, t100) in expected.items():
            r = got[z]
            assert round(float(r["p_value"]), 3) == pytest.approx(p)
            assert round(float(r["k_star"]), 2) == pytest.approx(ks)
            assert round(float(r["tau_star_n50"]), 2) == pytest.approx(t50)
            assert round(float(r["tau_star_n100"]), 2) == pytest.approx(t100)

    def test_human_table_shape(self):
        cp = run_cli("table1")
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 6  # header + five rows
        assert "k*" in lines[0]


class TestFigureCommand:
    def test_csv_files_carry_caption_markers(self, tmp_path: Path):
        prefix = tmp_path / "fig"
        cp = run_cli("figure1", "--format", "csv", "--out", str(prefix))
        assert cp.returncode == 0
        a = parse_csv((tmp_path / "fig_panel_a.csv").read_text())
        b = parse_csv((tmp_path / "fig_panel_b.csv").read_text())
        flips = {float(r["z"]): float(r["x"]) for r in a if r["kind"] == "flip"}
        assert flips[1.96] == pytest.approx(41.58, abs=0.01)
        markers = {float(r["x"]): float(r["bf01"]) for r in b if r["kind"] == "marker"}
        assert markers[0.8] == pytest.approx(0.83, abs=0.01)
        assert markers[1.5] == pytest.approx(1.47, abs=0.01)
        flip_b = [r for r in b if r["kind"] == "flip"]
        assert float(flip_b[0]["x"]) == pytest.approx(0.99, abs=0.01)

    def test_json_to_stdout(self):
        cp = run_cli("figure1", "--points-a", "12", "--points-b", "12",
                     "--format", "json")
        obj = json.loads(cp.stdout)
        assert set(obj) == {"panel_a", "panel_b"}

    def test_svg_requires_out(self):
        cp = run_cli("figure1", "--format", "svg")
        assert cp.returncode == 2

    def test_svg_files(self, tmp_path: Path):
        prefix = tmp_path / "fig"
        cp = run_cli("figure1", "--points-a", "40", "--points-b", "40",
                     "--format", "svg", "--out", str(prefix))
        assert cp.returncode == 0
        for tag in ("panel_a", "panel_b"):
            ET.parse(tmp_path / f"fig_{tag}.svg")


class TestParadoxCommand:
    def test_narrative_for_reference_data(self):
        cp = run_cli("paradox", "--z", "2", "--n", "50")
        assert cp.returncode == 0
        assert "0.99" in cp.stdout
        assert "favours H1" in cp.stdout and "favours H0" in cp.stdout
        assert "note:" not in cp.stdout  # the requested spread gives the pair

    def test_tiny_spread_shows_the_minimum_pair(self):
        """1 - 1e-18 rounds to 1; the pair is the Bayes-factor minimum's
        scale sqrt(3 / 50) and its mirror about tau*, not two scales at tau*."""
        cp = run_cli("paradox", "--z", "2", "--n", "50", "--spread", "1e-18")
        assert cp.returncode == 0, cp.stderr
        assert "BF01 = 0.4463  (favours H1)" in cp.stdout
        assert "BF01 = 3.8745  (favours H0)" in cp.stdout
        assert ("note: --spread 1e-18 gives no reversal outside the neutral band; shown "
                "instead are the scale of the Bayes-factor minimum (k = z^2 - 1) and its "
                "mirror about tau*\n") in cp.stdout

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(1.0, 26.6, exclude_min=True), sign=st.sampled_from([1.0, -1.0]),
           n=st.integers(1, 10**9), spread=st.floats(1e-9, 1.0, exclude_max=True),
           precision=st.integers(0, 8))
    # one printed tau = 0.9943 and BF01 = 1.0000 for both analysts, with opposite labels
    @example(z=2.0, sign=1.0, n=50, spread=1e-6, precision=4)
    # both analysts printed at tau = 0.0007
    @example(z=2.0, sign=1.0, n=10**8, spread=0.01, precision=4)
    def test_printed_text_shows_what_it_claims(self, z, sign, n, spread, precision):
        """Human paradox text, parsed: printed tau1 < tau* < tau2, each
        printed BF01 on its label's side of 1 and each posterior on its
        side of 1/2, neither at 0 or 1, and bf at each printed tau gives
        the printed direction."""
        setup = ["--z", repr(sign * z), "--n", str(n)]
        code, text = run_in_process("paradox", *setup, "--spread", repr(spread),
                                    "--precision", str(precision))
        if code != 0:
            return
        tau_star = float(text.split("tau* = ")[1].split()[0])
        taus = []
        for analyst, label in ((1, "H1"), (2, "H0")):
            line = next(ln for ln in text.splitlines() if ln.startswith(f"analyst {analyst}:"))
            words = line.split()
            tau, bf, post = float(words[4]), float(words[8]), float(words[-1])
            assert f"(favours {label}), P(H0 | data) = {words[-1]}" in line
            assert 0.0 < bf < 1.0 if label == "H1" else bf > 1.0, line
            assert 0.0 < post < 0.5 if label == "H1" else 0.5 < post < 1.0, line
            code, out = run_in_process("bf", *setup, "--scale", words[4], "--format", "json")
            assert code == 0 and json.loads(out)["direction"] == f"favours_{label.lower()}", line
            taus.append(tau)
        assert 0.0 < taus[0] < tau_star < taus[1], text

    def test_json_fields(self):
        cp = run_cli("paradox", "--z", "1.96", "--n", "5000", "--format", "json")
        obj = json.loads(cp.stdout)
        assert obj["tau_star"] == pytest.approx(0.09, abs=0.005)
        assert obj["bf1"] < 1.0 < obj["bf2"]
        assert obj["posterior_h0_tau1"] < 0.5 < obj["posterior_h0_tau2"]


class TestDomainEdges:
    @pytest.mark.parametrize("prior", ["normal", "cauchy"])
    def test_bf_with_underflowing_bayes_factor(self, prior):
        cp = run_cli("bf", "--z", "40", "--n", "50", "--prior", prior, "--scale", "1",
                     "--format", "json")
        assert cp.returncode == 0, cp.stderr
        obj = json.loads(cp.stdout)
        assert math.isfinite(obj["log_bf01"]) and obj["log_bf01"] < -745
        assert obj["bf01"] == 0.0 and obj["posterior_prob_h0"] == 0.0
        assert obj["direction"] == "favours_h1"

    def test_bf_overflowing_bayes_factor_is_exit_one(self):
        # gamma = 1.7e308: log BF01 = 709.95, so BF01 is above the float range
        cp = run_cli("bf", "--z", "0", "--n", "1", "--prior", "cauchy", "--scale", "1.7e308")
        assert cp.returncode == 1
        lines = cp.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), cp.stderr
        assert "log BF01 = 709.95" in lines[0]

    @pytest.mark.parametrize("method", ["bracketed", "lambert_w", "both"])
    def test_flip_beyond_finite_k_star(self, method):
        cp = run_cli("flip", "--z", "30", "--method", method)
        assert cp.returncode == 1
        lines = cp.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), cp.stderr
        assert "z = 30.0" in lines[0]


class TestNonFiniteFlags:
    @pytest.mark.parametrize("args,flag", [
        (("sweep", "--z", "2", "--n", "50", "--scale-min", "0.1", "--scale-max", "inf"),
         "--scale-max"),
        (("sweep", "--z", "2", "--n", "50", "--scale-min", "nan", "--scale-max", "3"),
         "--scale-min"),
        (("bf", "--z", "2", "--n", "50", "--scale", "inf"), "--scale"),
        (("bf", "--z", "nan", "--n", "50", "--scale", "1"), "--z"),
        (("flip", "--z=-inf"), "--z"),
        (("paradox", "--z", "inf", "--n", "50"), "--z"),
        (("sweep", "--z", "nan", "--n", "50", "--scale-min", "0.1", "--scale-max", "3"),
         "--z"),
    ])
    def test_usage_error_names_the_flag(self, args, flag):
        cp = run_cli(*args)
        assert cp.returncode == 2, cp.stderr
        assert f"{flag} must be finite" in cp.stderr

    def test_overflowing_k_names_k(self):
        # a finite flag value whose n tau^2 overflows: a domain error, not NaN
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--scale-min", "0.1",
                     "--scale-max", "1e308")
        assert cp.returncode == 1
        lines = cp.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: k must be"), cp.stderr
        assert "nan" not in lines[0]


class TestUnwritableOutput:
    @pytest.mark.parametrize("args,out,target", [
        (("bf", "--z", "2", "--n", "50", "--scale", "1", "--format", "json"),
         "x.json", "x.json"),
        (("figure1", "--points-a", "8", "--points-b", "8", "--format", "csv"),
         "fig", "fig_panel_a.csv"),
        (("figure1", "--points-a", "8", "--points-b", "8", "--format", "svg"),
         "fig", "fig_panel_a.svg"),
        (("sweep", "--z", "2", "--n", "50", "--scale-min", "0.1", "--scale-max", "3",
          "--format", "svg"), "x.svg", "x.svg"),
    ])
    def test_missing_directory_is_exit_one_without_traceback(self, tmp_path, args, out,
                                                             target):
        missing = tmp_path / "missing"
        cp = run_cli(*args, "--out", str(missing / out))
        assert cp.returncode == 1
        lines = cp.stderr.strip().splitlines()
        assert len(lines) == 1, cp.stderr
        assert lines[0] == f"error: cannot write {missing / target}: No such file or directory"
        assert not missing.exists()

    def test_directory_as_out_path(self, tmp_path):
        cp = run_cli("table1", "--format", "csv", "--out", str(tmp_path))
        assert cp.returncode == 1
        assert cp.stderr.startswith(f"error: cannot write {tmp_path}: ")
        assert "Traceback" not in cp.stderr


class TestOutAndPrecisionFlags:
    BF = ("bf", "--z", "2", "--n", "50", "--scale", "1")

    def test_human_output_goes_to_out(self, tmp_path):
        """--out used to be ignored without --format: the text went to stdout."""
        out = tmp_path / "x.txt"
        cp = run_cli(*self.BF, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == ""
        assert out.read_text() == run_cli(*self.BF).stdout
        assert out.read_text().startswith("z            2.0000\n")

    def test_table1_has_no_precision_flag(self):
        """table1 prints at published precision; it used to accept and
        ignore --precision."""
        cp = run_cli("table1", "--precision", "9")
        assert cp.returncode == 2
        assert "unrecognized arguments: --precision 9" in cp.stderr


class TestClosedStdout:
    """A reader that stops reading (`| head`) ends the command with exit 1
    and nothing on stderr; it used to end in a BrokenPipeError traceback.
    The commands run with stdout buffered, as by default, and once
    unbuffered, where the text layer used to drop what a full pipe had
    not taken and exit 0."""

    @staticmethod
    def env() -> dict:
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        return env

    @pytest.mark.parametrize("args", [("table1",), ("figure1", "--format", "csv")])
    def test_pipe_closed_before_any_write(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            cp = subprocess.run([sys.executable, "-m", "bayesflip", *args], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=self.env(), timeout=60)
        finally:
            os.close(write_end)
        assert (cp.returncode, cp.stderr) == (1, "")

    @staticmethod
    def read_one_line_and_close(env: dict) -> tuple:
        # figure1's CSV (~90 kB) overfills the pipe, so the command is
        # still writing when the reader goes
        proc = subprocess.Popen([sys.executable, "-m", "bayesflip", "figure1", "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"panel,z,x,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err

    def test_reader_stops_after_one_line(self):
        assert self.read_one_line_and_close(self.env()) == (1, b"")

    def test_reader_stops_after_one_line_unbuffered(self):
        env = self.env()
        env["PYTHONUNBUFFERED"] = "1"
        assert self.read_one_line_and_close(env) == (1, b"")


class TestHugeScaleBounds:
    def test_cauchy_sweep_to_1e308(self):
        cp = run_cli("sweep", "--z", "2", "--n", "1", "--prior", "cauchy",
                     "--scale-min", "0.1", "--scale-max", "1e308", "--format", "csv")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        scales = [float(r["scale"]) for r in rows]
        assert len(rows) == 100 and scales[0] == 0.1 and scales[-1] == 1e308
        assert all(math.isfinite(s) for s in scales)
        assert all(math.isfinite(float(r["log_bf01"])) for r in rows)

    def test_cauchy_sweep_past_where_gamma_overflows(self):
        # sqrt(50) * r is not a float from r ~ 2.5e307; log BF01 is taken
        # in log gamma there, and it rises on across the overflow
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--prior", "cauchy",
                     "--scale-min", "0.1", "--scale-max", "1e308", "--format", "csv")
        assert (cp.returncode, cp.stderr) == (0, "")
        rows = parse_csv(cp.stdout)
        scales = [float(r["scale"]) for r in rows]
        log_bf = [float(r["log_bf01"]) for r in rows]
        assert len(rows) == 100 and scales[-1] == 1e308
        assert any(math.sqrt(50) * s == math.inf for s in scales)
        assert all(math.isfinite(v) for v in log_bf)
        assert all(b > a for a, b in zip(log_bf, log_bf[1:]))


class TestParserReuse:
    """main() parses every call with one parser, built once per process."""

    BF = ["bf", "--z", "2", "--n", "50", "--scale", "0.8", "--format", "json"]

    def test_two_calls_share_one_parser(self, capsys):
        from bayesflip import cli

        assert cli.build_parser() is cli.build_parser()
        before = cli.build_parser.cache_info()
        assert cli.main(self.BF) == 0
        assert cli.main(["table1"]) == 0
        after = cli.build_parser.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 2)

    def test_usage_error_between_good_calls_changes_nothing(self, capsys):
        from bayesflip.cli import main

        assert main(self.BF) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["bf", "--z", "2", "--n", "50", "--scale", "0"])
        assert exc.value.code == 2
        assert "--scale must be > 0" in capsys.readouterr().err
        # a good call that sets every optional flag differs, and leaves no trace
        assert main(["bf", "--z", "3", "--n", "9", "--prior", "cauchy", "--scale", "2",
                     "--format", "csv", "--precision", "7"]) == 0
        assert capsys.readouterr().out != first.out
        assert main(self.BF) == 0
        assert capsys.readouterr() == first
