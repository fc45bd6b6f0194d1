"""Byte-for-byte CLI output: the exit code and the sha256 of stdout, stderr
and every file written, for each subcommand in every format, against the
committed manifest ``cli_golden.json``.

Digests pin this platform's floating-point results to the last bit.  After
a change meant to alter output, regenerate the manifest with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the cases whose digests moved.  To see how they moved,

    PYTHONPATH=src python tests/test_cli_golden.py --against REV

runs every case on the git revision REV and on the working tree, each in
its own subprocess, and prints a verdict per case: identical, numbers only
(how many moved and the largest relative change), or text moved.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
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
    # k = 1e308, past DBL_MAX / 2, where 2 (1 + k) overflows
    "bf-normal-huge-k-json": ["bf", "--z", "1", "--n", "1", "--scale", "1e154",
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
    # human scales keep their digits: these printed one tau with two labels,
    # tau* with one significant digit, and a scale of 1e-5 as zero
    "paradox-tiny-spread-human": ["paradox", "--z", "2", "--n", "50", "--spread", "1e-6"],
    "flip-huge-n-human": ["flip", "--z", "2", "--n", "1000000000"],
    "sweep-small-scales-human": ["sweep", "--z", "2", "--n", "1000000000", "--scale-min",
                                 "1e-5", "--scale-max", "1e-3", "--points", "3"],
    "error-paradox-no-flip": ["paradox", "--z", "0.9", "--n", "50"],
    "error-flip-overflow": ["flip", "--z", "30"],
    "error-usage-scale": [*BF, "--scale", "0"],
    "error-usage-points": [*SWEEP, "--points", "10001"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture_case(argv: list[str]) -> dict:
    """Run one CLI invocation in-process; its exit code, stdout, stderr and
    the files it wrote, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = [a.replace("OUT", str(work / "out")) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        files = {p.name: p.read_bytes().decode() for p in sorted(work.iterdir())}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def run_case(argv: list[str]) -> dict:
    """Run one CLI invocation in-process; its exit code and digests."""
    c = capture_case(argv)
    return {"exit": c["exit"], "stdout": _sha(c["stdout"].encode()),
            "stderr": _sha(c["stderr"].encode()),
            "files": {name: _sha(text.encode()) for name, text in c["files"].items()}}


def test_manifest_covers_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_manifest(name):
    assert run_case(CASES[name]) == json.loads(MANIFEST.read_text())[name]


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _streams(c: dict) -> dict:
    return {"exit": str(c["exit"]), "stdout": c["stdout"], "stderr": c["stderr"],
            **{f"file {name}": text for name, text in c["files"].items()}}


def verdict(old: dict, new: dict) -> str:
    """How one case's output moved from ``old`` to ``new``: identical,
    numbers only, or text moved (naming the first line that did)."""
    if old == new:
        return "identical"
    a, b = _streams(old), _streams(new)
    if a.keys() != b.keys():
        return f"text moved: wrote {sorted(a)} -> {sorted(b)}"
    for name in a:
        lines = zip_longest(a[name].splitlines(), b[name].splitlines())
        for i, (x, y) in enumerate(lines, 1):
            if x is None or y is None or NUMBER.split(x) != NUMBER.split(y):
                return f"text moved: {name} line {i}: {x!r} -> {y!r}"
    moved = [(float(x), float(y)) for name in a
             for x, y in zip(NUMBER.findall(a[name]), NUMBER.findall(b[name])) if x != y]
    largest = max(abs(y - x) / abs(x) if x else math.inf for x, y in moved)
    return f"numbers only: {len(moved)} moved, largest relative change {largest:.3g}"


def capture_tree(src: Path) -> dict:
    """Every case's output with the package imported from ``src``, in a
    subprocess."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cp = subprocess.run([sys.executable, __file__, "--capture"], env=env, check=True,
                        capture_output=True, text=True)
    return json.loads(cp.stdout)


def diff_against(rev: str) -> None:
    """Print each case's verdict from revision ``rev`` to the working tree."""
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(repo), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        old = capture_tree(Path(tmp) / "src")
    new = capture_tree(repo / "src")
    verdicts = {name: verdict(old[name], new[name]) for name in sorted(CASES)}
    for name, v in verdicts.items():
        print(f"{name}: {v}")
    same = sum(v == "identical" for v in verdicts.values())
    print(f"{same} of {len(verdicts)} cases identical against {rev}")


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    json.dump({name: capture_case(argv) for name, argv in CASES.items()}, sys.stdout)
elif __name__ == "__main__" and sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
    diff_against(sys.argv[2])
elif __name__ == "__main__":
    manifest = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} cases to {MANIFEST}", file=sys.stderr)
