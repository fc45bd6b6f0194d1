"""The README's quick-start block runs, and the numbers in its comments
are what the code gives, so the docs cannot drift from the library."""

import re
from pathlib import Path

import pytest

from bayesflip.bayes_factor import two_sided_p

README = Path(__file__).resolve().parents[1] / "README.md"

# (statement in the block, expression for the number in its comment, that
# number as the comment prints it; "~" marks a rounded claim)
CLAIMS = [
    ("setup = TestSetup(n=50, z=2.0)", "two_sided_p(setup.z)", "0.046"),
    ("bf01(setup, NormalPrior(0.8)).bf01", "bf01(setup, NormalPrior(0.8)).bf01", "0.826"),
    ("bf01(setup, NormalPrior(1.5)).bf01", "bf01(setup, NormalPrior(1.5)).bf01", "1.467"),
    ("fp = flip_point(2.0)", "fp.k_star", "49.435"),
    ("tau_star(fp.k_star, 50)", "tau_star(fp.k_star, 50)", "0.994"),
    ("bf01_cauchy(setup, CauchyPrior(0.707)).bf01",
     "bf01_cauchy(setup, CauchyPrior(0.707)).bf01", "~1.00"),
]


def quick_start() -> str:
    text = README.read_text()
    match = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.DOTALL)
    assert match, "README has no quick-start python block"
    return match.group(1)


@pytest.fixture(scope="module")
def namespace() -> dict:
    ns: dict = {}
    exec(compile(quick_start(), "README quick start", "exec"), ns)
    return ns


def test_block_runs(namespace):
    # its validate_pair line raises unless (0.8, 1.5) is a reversal pair
    assert {"setup", "fp"} <= namespace.keys()


@pytest.mark.parametrize("statement,expression,printed", CLAIMS)
def test_comment_matches_value(namespace, statement, expression, printed):
    lines = [ln for ln in quick_start().splitlines() if ln.startswith(statement + " ")]
    assert len(lines) == 1, f"no line {statement!r} in the quick start"
    comment = lines[0].partition("#")[2]
    assert re.search(rf"(?<![\w.~]){re.escape(printed)}(?!\d)", comment), comment
    value = eval(expression, {**namespace, "two_sided_p": two_sided_p})
    digits = printed.lstrip("~")
    assert f"{value:.{len(digits.partition('.')[2])}f}" == digits
