"""Start-up stays lean: what each CLI command imports, checked by module
name in fresh processes rather than by timing, plus the SVG escape that
replaced ``xml.sax.saxutils``, and the test oracles' independence."""

import importlib
import inspect
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

from bayesflip import svg

REPO = Path(__file__).resolve().parents[1]

# modules a command that draws no chart and builds no report must not load:
# the standard-library chain behind xml.sax.saxutils, and the lazy modules
HEAVY = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket",
         "bayesflip.report", "bayesflip.svg")


def loaded_by(code: str, *flags: str) -> set[str]:
    """Modules that appear in sys.modules while ``code`` runs in a fresh
    interpreter started with ``flags``, after the interpreter's own
    start-up."""
    script = (  # no json here: which commands load it is under test
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print('\\n' + ' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                        env=env, check=True)
    return set(cp.stdout.splitlines()[-1].split())


def heavy_in(modules: set[str]) -> set[str]:
    return {m for m in modules for h in HEAVY if m == h or m.startswith(h + ".")}


def test_import_cli_loads_nothing_heavy():
    mods = loaded_by("import bayesflip.cli")
    assert "bayesflip.cli" in mods
    assert heavy_in(mods) == set()


def test_reference_oracles_load_no_bayesflip():
    """The oracles of ``tests/_reference.py`` share no code with the package."""
    mods = loaded_by(f"sys.path.insert(0, {str(REPO / 'tests')!r})\nimport _reference")
    assert "_reference" in mods
    assert {m for m in mods if m.partition(".")[0] == "bayesflip"} == set()


def package_modules() -> list[str]:
    """Every module of the package, the lazily imported ones included
    (``__main__`` would run the CLI)."""
    src = REPO / "src"
    names = []
    for path in sorted((src / "bayesflip").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if parts[-1] != "__main__":
            names.append(".".join(parts))
    return names


# the hand-written quadrature oracle, deleted for scipy's quad in the tests
QUADRATURE = ("PRIOR_NORMAL", "PRIOR_CAUCHY", "log_marginal_integrand", "_shifted_exp",
              "adaptive_simpson", "_simpson_split", "_spans", "integrate_log",
              "marginal_loglik", "MarginalIntegrand", "marginal_log_integral",
              "integrate_real_line", "bf01_normal_via_quadrature")


def test_no_module_ships_the_quadrature():
    for name in package_modules():
        module = importlib.import_module(name)
        assert [m for m in QUADRATURE if hasattr(module, m)] == [], name


def test_no_public_function_takes_cfg():
    takes_cfg = set()
    for name in package_modules():
        for attr, fn in vars(importlib.import_module(name)).items():
            if (not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == name
                    and "cfg" in inspect.signature(fn).parameters):
                takes_cfg.add(f"{name}.{attr}")
    assert takes_cfg == set()


def test_find_root_takes_the_bracket_and_one_tolerance():
    """perfbench/tracer.py wraps find_root as wrapper(f, *args, **kwargs)."""
    from bayesflip.numerics import find_root

    params = inspect.signature(find_root).parameters
    assert list(params) == ["f", "lo", "hi", "abs_tol"]
    assert params["abs_tol"].default == 1e-14


# pass-through records, knobs and helpers that nothing ran, and the x-form
# Lambert W0 that the log-space kernel replaced
REMOVED = ("RunConfig", "Bracket", "SolverConfig", "DEFAULT_CONFIG", "log_std_normal_pdf",
           "std_normal_pdf", "std_normal_cdf", "lambert_w0")


def test_removed_wrappers_stay_removed():
    for name in package_modules():  # the package itself included
        module = importlib.import_module(name)
        assert [r for r in REMOVED if hasattr(module, r)] == [], name


def test_lazy_exports_are_in_module_all():
    """The lazy export table of bayesflip/__init__ names only what each
    module declares public."""
    import bayesflip

    for module, names in bayesflip._EXPORTS.items():
        declared = importlib.import_module(f"bayesflip.{module}").__all__
        assert set(names) - set(declared) == set(), module


@pytest.mark.parametrize("argv", [
    ["flip", "--z", "2"],
    ["table1", "--format", "csv"],
    ["paradox", "--z", "2.5", "--n", "300"],
    ["figure1", "--format", "csv", "--out", "{out}"],
], ids=lambda argv: argv[0])
def test_normal_prior_commands_load_no_voigt_kernel(argv, tmp_path):
    """The Faddeeva kernel lives in bayesflip.cauchy with its one caller,
    so a command that builds no Cauchy Bayes factor never compiles it or
    builds its tables."""
    argv = [a.format(out=tmp_path / "fig") for a in argv]
    mods = loaded_by(f"from bayesflip.cli import main\nmain({argv!r})")
    assert "bayesflip.flip" in mods
    assert "bayesflip.cauchy" not in mods


def test_kernels_are_public_in_the_module_that_calls_them():
    """perfbench/tracer.py wraps the public functions a module defines, so
    each kernel is counted under its caller's layer."""
    from bayesflip import cauchy, flip

    for module, name in ((cauchy, "log_re_faddeeva"), (flip, "log_neg_w0")):
        assert getattr(module, name).__module__ == module.__name__
        assert name not in module.__all__


def test_runtime_is_stdlib_only():
    """A stray numpy, scipy or mpmath import under src/ shows up here."""
    modules = package_modules()
    assert {"bayesflip", "bayesflip.cli", "bayesflip.svg"} <= set(modules)
    tops = {m.partition(".")[0] for m in loaded_by(f"import {', '.join(modules)}")}
    assert tops - set(sys.stdlib_module_names) - {"bayesflip"} == set()


def test_bf_command_loads_nothing_heavy():
    mods = loaded_by('from bayesflip.cli import main\n'
                     'main(["bf", "--z", "2", "--n", "50", "--scale", "0.8", "--format", "json"])')
    assert heavy_in(mods) == set()


def test_table1_loads_report_but_not_svg():
    mods = loaded_by('from bayesflip.cli import main\nmain(["table1", "--format", "csv"])')
    assert heavy_in(mods) == {"bayesflip.report"}


def test_figure1_svg_loads_svg(tmp_path):
    out = str(tmp_path / "fig")
    mods = loaded_by('from bayesflip.cli import main\n'
                     'main(["figure1", "--points-a", "12", "--points-b", "12", '
                     f'"--format", "svg", "--out", {out!r}])')
    assert {"bayesflip.report", "bayesflip.svg"} <= mods
    assert not {"xml.sax", "urllib.request", "email"} & mods
    for tag in ("panel_a", "panel_b"):
        ET.parse(tmp_path / f"fig_{tag}.svg")


def test_only_json_output_loads_json(tmp_path):
    """Machine output is rendered only in the format asked for: the CSV
    writer and human text never import json."""
    def json_modules(*argv):
        mods = loaded_by(f"from bayesflip.cli import main\nmain({list(argv)!r})", "-S")
        return {m for m in mods if m.partition(".")[0] in ("json", "_json")}

    out = str(tmp_path / "fig")
    assert json_modules("table1", "--format", "csv") == set()
    assert json_modules("figure1", "--format", "csv", "--out", out) == set()
    assert json_modules("figure1") == set()
    assert "json" in json_modules("figure1", "--format", "json", "--out", out + ".json")


MARKUP = ("a & b", "x < y > z", "&amp; <tag/>", "R&D <b>", "plain")


def test_escape_matches_saxutils():
    for text in MARKUP:
        assert svg._escape(text) == escape(text)


def test_chart_with_markup_in_every_label():
    doc = svg.line_chart(
        [svg.Series(MARKUP[0], (1.0, 2.0, 3.0), (0.5, 1.0, 2.0)),
         svg.Series(MARKUP[1], (1.0, 2.0, 3.0), (1.5, 1.2, 0.9))],
        [svg.Marker(2.0, 1.0, label=MARKUP[2])],
        title=MARKUP[3], x_label="k < k*",
    )
    for text in (*MARKUP[:4], "k < k*"):
        assert ">" + escape(text) + "<" in doc
    texts = [t.text for t in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")]
    assert {*MARKUP[:4], "k < k*"} <= set(texts)


def bf_argv(prior: str) -> str:
    return ('from bayesflip.cli import main\n'
            f'main(["bf", "--z", "2", "--n", "50", "--prior", "{prior}", "--scale", "0.8"])')


def test_no_dataclasses_typing_or_pathlib_at_start_up():
    # -S: without site, which may load typing and pathlib itself
    every_module = f"import {', '.join(package_modules())}"
    for code in ("import bayesflip.cli", bf_argv("normal"), bf_argv("cauchy"), every_module):
        mods = loaded_by(code, "-S")
        assert not {"dataclasses", "inspect", "typing", "pathlib"} & mods, code


def test_cli_does_not_ask_the_terminal_its_width():
    """argparse imports shutil, and through it bz2, lzma and fnmatch,
    only to size help text to the terminal; every parser has a fixed
    width instead."""
    mods = loaded_by('from bayesflip.cli import main\n'
                     'main(["paradox", "--z", "2.5", "--n", "300"])', "-S")
    assert "argparse" in mods
    assert not {"shutil", "bz2", "lzma", "fnmatch"} & mods


def test_import_bayesflip_loads_no_submodule():
    mods = loaded_by("import bayesflip")
    assert {m for m in mods if m.startswith("bayesflip")} == {"bayesflip"}


def test_bf_normal_loads_only_closed_form_modules():
    mods = loaded_by(bf_argv("normal"))
    assert not {"bayesflip.flip", "bayesflip.numerics", "bayesflip.cauchy"} & mods
    assert "bayesflip.bayes_factor" in mods


def test_bf_cauchy_does_not_load_flip():
    """Nor the root solver, which only cauchy_flip_scale imports: a Cauchy
    Bayes factor loads the Voigt kernel and no more."""
    mods = loaded_by(bf_argv("cauchy"))
    assert "bayesflip.cauchy" in mods
    assert not {"bayesflip.numerics", "bayesflip.flip", "bayesflip.report",
                "bayesflip.svg"} & mods


def test_every_public_name_resolves():
    code = (
        "import bayesflip\n"
        "names = list(bayesflip.__all__)\n"
        "listed = set(dir(bayesflip))\n"
        "assert all(n in listed for n in names), set(names) - listed\n"
        "found = [getattr(bayesflip, n) for n in names]\n"
        "ns = {}\n"
        "exec('from bayesflip import *', ns)\n"
        "assert [ns[n] for n in names] == found\n"
        "assert bayesflip.cli.main and bayesflip.report.scale_grid and bayesflip.svg.line_chart\n"
    )
    mods = loaded_by(code)
    assert {"bayesflip.flip", "bayesflip.cauchy", "bayesflip.numerics"} <= mods


def test_unknown_name_is_attribute_error():
    import bayesflip

    with pytest.raises(AttributeError, match="no_such_name"):
        bayesflip.no_such_name
    assert not hasattr(bayesflip, "dataclass")
