"""Byte-for-byte CLI output: the exit code and the sha256 of stdout, stderr
and every file written, for each subcommand in every format, against the
committed manifest ``cli_golden.json``.

Digests pin this platform's floating-point results to the last bit.  After
a change meant to alter output, regenerate the manifest with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the cases whose digests moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bayesflip.cli import main

MANIFEST = Path(__file__).with_name("cli_golden.json")

# "OUT" in an argv stands for a path in a fresh scratch directory
BF = ("bf", "--z", "2", "--n", "50")
SWEEP = ("sweep", "--z", "2", "--n", "50", "--scale-min", "0.1", "--scale-max", "3",
         "--points", "25")
SMALL_FIG = ("figure1", "--points-a", "16", "--points-b", "16")
CASES = {
    "bf-normal-human": [*BF, "--scale", "0.8"],
    "bf-normal-precision8": [*BF, "--scale", "0.8", "--precision", "8"],
    "bf-normal-csv": [*BF, "--scale", "0.8", "--format", "csv"],
    "bf-normal-json": [*BF, "--scale", "1.5", "--format", "json"],
    "bf-normal-json-out": [*BF, "--scale", "1.5", "--format", "json", "--out", "OUT.json"],
    "bf-cauchy-human": [*BF, "--prior", "cauchy", "--scale", "0.707"],
    "bf-cauchy-csv": [*BF, "--prior", "cauchy", "--scale", "0.707", "--format", "csv"],
    "bf-cauchy-json": ["bf", "--z", "3.1", "--n", "1000", "--prior", "cauchy",
                       "--scale", "0.05", "--format", "json"],
    "bf-normal-underflow-json": ["bf", "--z", "40", "--n", "50", "--scale", "1",
                                 "--format", "json"],
    "bf-cauchy-underflow-human": ["bf", "--z", "40", "--n", "50", "--prior", "cauchy",
                                  "--scale", "1"],
    "flip-both-human": ["flip", "--z", "2", "--n", "50"],
    "flip-both-json": ["flip", "--z", "2.5", "--format", "json"],
    "flip-bracketed-csv": ["flip", "--z", "3", "--n", "100", "--method", "bracketed",
                           "--format", "csv"],
    "flip-lambert-json": ["flip", "--z", "6", "--n", "7", "--method", "lambert_w",
                          "--format", "json"],
    "flip-near-one-human": ["flip", "--z", "1.005", "--n", "50"],
    "sweep-normal-human": [*SWEEP],
    "sweep-normal-csv": [*SWEEP, "--format", "csv"],
    "sweep-normal-log-json": [*SWEEP, "--spacing", "log", "--format", "json"],
    "sweep-small-z-csv": ["sweep", "--z", "0.5", "--n", "50", "--scale-min", "0.1",
                          "--scale-max", "2", "--points", "10", "--format", "csv"],
    "sweep-cauchy-log-csv": [*SWEEP, "--prior", "cauchy", "--spacing", "log",
                             "--format", "csv"],
    "sweep-normal-svg": [*SWEEP, "--format", "svg"],
    "sweep-normal-log-svg": [*SWEEP, "--spacing", "log", "--format", "svg"],
    "sweep-cauchy-svg-out": [*SWEEP, "--prior", "cauchy", "--format", "svg",
                             "--out", "OUT.svg"],
    "sweep-cauchy-json": [*SWEEP, "--prior", "cauchy", "--format", "json"],
    "table1-human": ["table1"],
    "table1-csv": ["table1", "--format", "csv"],
    "table1-json": ["table1", "--format", "json"],
    "table1-csv-out": ["table1", "--format", "csv", "--out", "OUT.csv"],
    "figure1-human": ["figure1"],
    "figure1-csv": [*SMALL_FIG, "--format", "csv"],
    "figure1-csv-default": ["figure1", "--format", "csv"],
    "figure1-json": [*SMALL_FIG, "--format", "json"],
    "figure1-csv-out": ["figure1", "--format", "csv", "--out", "OUT"],
    "figure1-json-out": ["figure1", "--format", "json", "--out", "OUT.json"],
    "figure1-svg-out": ["figure1", "--format", "svg", "--out", "OUT"],
    "figure1-small-svg-out": [*SMALL_FIG, "--format", "svg", "--out", "OUT.svg"],
    "paradox-human": ["paradox", "--z", "2", "--n", "50"],
    "paradox-precision2": ["paradox", "--z", "1.96", "--n", "5000", "--precision", "2"],
    "paradox-csv": ["paradox", "--z", "1.96", "--n", "5000", "--format", "csv"],
    "paradox-json": ["paradox", "--z", "3", "--n", "20", "--spread", "0.2",
                     "--format", "json"],
    "error-paradox-no-flip": ["paradox", "--z", "0.9", "--n", "50"],
    "error-flip-overflow": ["flip", "--z", "30"],
    "error-usage-scale": [*BF, "--scale", "0"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run one CLI invocation in-process; its exit code and digests."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = [a.replace("OUT", str(work / "out")) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        files = {p.name: _sha(p.read_bytes()) for p in sorted(work.iterdir())}
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def test_manifest_covers_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_manifest(name):
    assert run_case(CASES[name]) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    manifest = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} cases to {MANIFEST}", file=sys.stderr)
