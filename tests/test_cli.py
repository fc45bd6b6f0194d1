"""CLI golden tests: exit codes, machine-output round-trips, and the
figure/table datasets, exercised through ``python -m bayesflip``."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bayesflip.bayes_factor import log_bf01

REPO = Path(__file__).resolve().parents[1]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "bayesflip", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=cli_env())


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestExitCodes:
    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "bf" in cp.stdout and "paradox" in cp.stdout

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
    The commands run with stdout buffered, as by default: unbuffered, a
    write that a full pipe cuts short is dropped without an error."""

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

    def test_reader_stops_after_one_line(self):
        # figure1's CSV (~90 kB) overfills the pipe, so the command is
        # still writing when the reader goes
        proc = subprocess.Popen([sys.executable, "-m", "bayesflip", "figure1", "--format", "csv"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env())
        assert proc.stdout.readline().startswith(b"panel,z,x,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


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

    def test_cauchy_sweep_stops_where_gamma_overflows(self):
        # sqrt(50) * r is not a float from r ~ 2.5e307: a finite grid point
        # fails bf01_cauchy's own range check, not an inf grid point
        cp = run_cli("sweep", "--z", "2", "--n", "50", "--prior", "cauchy",
                     "--scale-min", "0.1", "--scale-max", "1e308")
        assert cp.returncode == 1
        lines = cp.stderr.strip().splitlines()
        assert len(lines) == 1, cp.stderr
        assert lines[0].startswith("error: sqrt(n) * r overflows a float (n = 50, r = ")
        assert "inf" not in lines[0]


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
