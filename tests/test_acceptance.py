"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured values once its assertions hold at the stated
tolerance.  Run with ``pytest -v tests/test_acceptance.py``."""

import json
import math
import time

import numpy as np
import pytest

from bayesflip import cli
from bayesflip.bayes_factor import (
    Direction,
    NormalPrior,
    TestSetup,
    bf01,
    dlogbf_dk,
    log_bf01,
    posterior_prob_h0,
)
from bayesflip.cauchy import CauchyPrior, bf01_cauchy, cauchy_flip_scale
from bayesflip.flip import FlipMethod, flip_point, phi, phi_inverse, tau_star

from _reference import quad_log_bf01

Z_GRID = (1.1, 1.5, 1.96, 2.0, 2.5, 3.0, 4.0, 5.0)


def _ok(num: int, label: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS  {detail}".rstrip())


def _parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_criterion_1_reference_table(tmp_path):
    """Five-row flip-point table at published precision, under a second."""
    out = tmp_path / "table.csv"
    t0 = time.perf_counter()
    rc = cli.main(["table1", "--format", "csv", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    rows = {float(r["z"]): r for r in _parse_csv(out.read_text())}
    expected = {
        1.50: (0.134, 5.82, 0.34, 0.24),
        1.96: (0.050, 41.58, 0.91, 0.64),
        2.00: (0.046, 49.44, 0.99, 0.70),
        2.50: (0.012, 510.72, 3.20, 2.26),
        3.00: (0.003, 8093.08, 12.72, 9.00),
    }
    assert set(rows) == set(expected)
    for z, (p, k_star, t50, t100) in expected.items():
        r = rows[z]
        assert float(r["p_value"]) == pytest.approx(p, abs=0.001)
        assert float(r["k_star"]) == pytest.approx(k_star, abs=0.01)
        assert float(r["tau_star_n50"]) == pytest.approx(t50, abs=0.01)
        assert float(r["tau_star_n100"]) == pytest.approx(t100, abs=0.01)
    assert elapsed < 1.0
    _ok(1, "reference table", f"5 rows, {elapsed * 1e3:.0f} ms")


def test_criterion_2_worked_example():
    """z=2, n=50: BF(0.8)=0.83, BF(1.5)=1.47, tau*=0.99, all +-0.01."""
    setup = TestSetup(n=50, z=2.0)
    b1 = bf01(setup, NormalPrior(0.8)).bf01
    b2 = bf01(setup, NormalPrior(1.5)).bf01
    ts = tau_star(flip_point(2.0).k_star, 50)
    assert b1 == pytest.approx(0.83, abs=0.01)
    assert b2 == pytest.approx(1.47, abs=0.01)
    assert ts == pytest.approx(0.99, abs=0.01)
    _ok(2, "worked example", f"BF={b1:.4f}/{b2:.4f}, tau*={ts:.4f}")


def test_criterion_3_large_sample_scenario():
    """z=1.96, n=5000: the four headline factors, the 33-fold swing, and
    the concentrated critical scale."""
    setup = TestSetup(n=5000, z=1.96)
    vals = {tau: bf01(setup, NormalPrior(tau)).bf01
            for tau in (0.707, 1.0, 2.0, 0.05)}
    assert vals[0.707] == pytest.approx(7.3, abs=0.1)
    assert vals[1.0] == pytest.approx(10.4, abs=0.1)
    assert vals[2.0] == pytest.approx(20.7, abs=0.2)
    assert vals[0.05] == pytest.approx(0.62, abs=0.01)
    swing = max(vals.values()) / min(vals.values())
    assert 32.0 <= swing <= 34.0
    ts = tau_star(flip_point(1.96).k_star, 5000)
    assert ts == pytest.approx(0.09, abs=0.005)
    _ok(3, "large-sample scenario", f"swing={swing:.2f}, tau*={ts:.4f}")


def test_criterion_4_cauchy_experiments():
    """Heavy-tailed prior: the three reference factors and the flip scale
    at the conventional default, within 5 seconds."""
    setup = TestSetup(n=50, z=2.0)
    t0 = time.perf_counter()
    b06 = bf01_cauchy(setup, CauchyPrior(0.6)).bf01
    b10 = bf01_cauchy(setup, CauchyPrior(1.0)).bf01
    bjzs = bf01_cauchy(setup, CauchyPrior(math.sqrt(2.0) / 2.0)).bf01
    r_star = cauchy_flip_scale(setup)
    elapsed = time.perf_counter() - t0
    assert b06 == pytest.approx(0.9, abs=0.05)
    assert b10 == pytest.approx(1.3, abs=0.05)
    assert bjzs == pytest.approx(1.00, abs=0.05)
    assert r_star == pytest.approx(0.707, abs=0.05)
    assert elapsed < 5.0
    _ok(4, "heavy-tailed prior",
        f"BF={b06:.3f}/{bjzs:.3f}/{b10:.3f}, r*={r_star:.4f}, {elapsed:.2f} s")


def test_criterion_5_oracle_equivalence():
    """Independent routes agree: bracketed vs Lambert-W flip points to
    1e-9 relative, each route really run, down to |z| = 1 + 1e-7, and
    scipy quadrature vs the closed form to 1e-8 relative on a 50-triple
    grid."""
    worst_flip = 0.0
    for z in (1.0000001, 1.0005, 1.001, 1.005, 1.0099, -1.005, *Z_GRID):
        bfp = flip_point(z, FlipMethod.BRACKETED)
        lfp = flip_point(z, FlipMethod.LAMBERT_W)
        assert (bfp.method, lfp.method) == (FlipMethod.BRACKETED, FlipMethod.LAMBERT_W)
        b, l = bfp.k_star, lfp.k_star
        rel = abs(b - l) / b
        worst_flip = max(worst_flip, rel)
        assert rel <= 1e-9
    rng = np.random.default_rng(3)
    worst_quad = 0.0
    for _ in range(50):
        z = float(rng.uniform(0.0, 4.0))
        n = int(rng.choice([10, 50, 5000]))
        tau = float(rng.uniform(0.05, 3.0))
        quad = math.exp(quad_log_bf01(z, n, "normal", tau))
        closed = math.exp(log_bf01(z, n * tau * tau))
        rel = abs(quad - closed) / closed
        worst_quad = max(worst_quad, rel)
        assert rel <= 1e-8
    _ok(5, "oracle equivalence",
        f"flip rel<={worst_flip:.2e}, quad rel<={worst_quad:.2e}")


def test_criterion_6_invariant_suite():
    """Structural invariants of the Bayes factor and the flip machinery,
    inside the 30-second budget."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # neutral boundary at zero prior precision
    for z in (-3.0, -1.0, 0.0, 0.7, 2.0, 6.0):
        assert log_bf01(z, 0.0) == 0.0

    # evidence depends on z only through z^2
    for _ in range(100):
        z = float(rng.uniform(0.0, 6.0))
        k = float(10.0 ** rng.uniform(-3.0, 4.0))
        assert log_bf01(z, k) == log_bf01(-z, k)

    # unimodal in k with the minimum at z^2 - 1
    for z in (1.5, 2.0, 3.0):
        kmin = z * z - 1.0
        down = np.linspace(kmin / 101.0, kmin, 100)
        vals = [log_bf01(z, float(k)) for k in down]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        up = np.exp(np.linspace(math.log(kmin * 1.0001), math.log(1e6), 100))
        vals = [log_bf01(z, float(k)) for k in up]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    # never favours H1 when |z| <= 1
    for z in (0.0, 0.5, 1.0):
        for k in np.exp(np.linspace(-8.0, 12.0, 50)):
            assert log_bf01(z, float(k)) >= -1e-12

    # sign pattern around the flip point
    for z in Z_GRID:
        k_star = flip_point(z).k_star
        assert log_bf01(z, 0.99 * k_star) < 0.0
        assert log_bf01(z, 1.01 * k_star) > 0.0

    # phi round-trip
    for y in np.linspace(1.01, 30.0, 30):
        assert phi(phi_inverse(float(y))) == pytest.approx(float(y), rel=1e-9)

    # analytic derivative vs central differences
    for _ in range(100):
        z = float(rng.uniform(-4.0, 4.0))
        k = float(10.0 ** rng.uniform(-3.0, 3.0))
        h = 1e-4 * (1.0 + k)
        fd = (log_bf01(z, k + h) - log_bf01(z, k - h)) / (2.0 * h)
        assert dlogbf_dk(z, k) == pytest.approx(fd, abs=1e-6)

    # posterior decision flips exactly at BF = 1
    for bf in (1e-8, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 4.0, 1e8):
        lhs = posterior_prob_h0(bf) - 0.5
        assert (lhs > 0) == (bf > 1.0) and (lhs < 0) == (bf < 1.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(6, "invariant suite", f"{elapsed:.2f} s")


def test_criterion_7_cli_golden(tmp_path, capsys):
    """Exit codes 0/1/2 per contract, machine output that round-trips to
    library values, and the figure datasets carrying the caption markers."""
    # exit code 0 on success
    assert cli.main(["bf", "--z", "2", "--n", "50", "--prior", "normal",
                     "--scale", "0.8"]) == 0
    # exit code 1 on computation errors
    assert cli.main(["paradox", "--z", "0.9", "--n", "50"]) == 1
    # exit code 2 on usage errors
    with pytest.raises(SystemExit) as exc:
        cli.main(["bf", "--z", "2", "--n", "50", "--scale", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["bf", "--z", "2"])
    assert exc.value.code == 2
    capsys.readouterr()

    # CSV round-trip at full precision
    assert cli.main(["bf", "--z", "2", "--n", "50", "--prior", "normal",
                     "--scale", "0.8", "--format", "csv"]) == 0
    (row,) = _parse_csv(capsys.readouterr().out)
    k = float(row["n"]) * float(row["scale"]) ** 2
    assert float(row["log_bf01"]) == pytest.approx(log_bf01(float(row["z"]), k), rel=1e-15)

    # JSON round-trip
    assert cli.main(["bf", "--z", "1.96", "--n", "5000", "--prior", "normal",
                     "--scale", "0.707", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bf01"] == pytest.approx(
        math.exp(log_bf01(1.96, 5000.0 * 0.707 ** 2)), rel=1e-15)

    # figure datasets contain the three caption markers
    prefix = tmp_path / "fig"
    assert cli.main(["figure1", "--format", "csv", "--out", str(prefix)]) == 0
    panel_b = _parse_csv((tmp_path / "fig_panel_b.csv").read_text())
    markers = {float(r["x"]): float(r["bf01"]) for r in panel_b if r["kind"] == "marker"}
    assert markers[0.8] == pytest.approx(0.83, abs=0.01)
    assert markers[1.5] == pytest.approx(1.47, abs=0.01)
    flips = [float(r["x"]) for r in panel_b if r["kind"] == "flip"]
    assert flips[0] == pytest.approx(0.99, abs=0.01)
    _ok(7, "cli golden", "exit codes 0/1/2, round-trips, caption markers")
