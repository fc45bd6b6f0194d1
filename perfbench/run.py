"""Benchmark for bayesflip: one command, three workloads, every output
checked against independent oracles.

    python3 perfbench/run.py --workload {cli_cold,cauchy,closed_form} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/bayesflip`` next to this
directory); nothing needs building.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
of BENCHMARK.json (``setup_s``, ``round_ms``, ``call_p50_us``, the same
on every workload); with ``--trace 1`` they are its per-layer metrics.
A report of the run (rounds, per-phase times, environment, any
problems) goes to
``.perfbench/run-<workload>-s<seed>-t<trace>.json``, and a traced run
writes the spans of its first round to ``.perfbench/trace-*.json``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7    # set-up children per run; setup_s is their median
IMPORT_SAMPLES = 5   # children per import-time figure in a traced run
REFERENCE_SEED = 0   # the count pass always runs round 0 of this seed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def wall(cmd) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return dt, proc


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import the program, make round 0's inputs and warm up, then exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    return median(wall(cmd)[0] for _ in range(SETUP_SAMPLES))


def set_up_only(workload: str, seed: int) -> None:
    import workloads
    out = OUT / f"setup-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[workload](ROOT, out, child_env())
        w.make_round(seed, 0)
        w.warm_up()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def import_times() -> dict:
    """Start-up costs from fresh processes: bare interpreter, and the
    cumulative ``-X importtime`` figures of the package, the CLI and svg."""
    python = [wall([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_SAMPLES)]
    cumulative = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        _, proc = wall([sys.executable, "-X", "importtime", "-c",
                        "import bayesflip.cli, bayesflip.svg"])
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("bayesflip", "bayesflip.cli",
                                                         "bayesflip.svg"):
                cumulative[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {
        "import.python_ms": median(python) * 1e3,
        "import.bayesflip_ms": median(cumulative["bayesflip"]),
        "import.cli_ms": median(cumulative["bayesflip.cli"]),
        "import.svg_ms": median(cumulative["bayesflip.svg"]),
    }


class Runner:
    """Runs phases, times them, and files their outputs with the checker."""

    def __init__(self, workload, checker):
        self.w, self.ck = workload, checker
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_phase(self, phase):
        """Call the phase's function on each input; returns the wall time
        of every call and the outputs (an exception for a failed call)."""
        fn = getattr(phase.module, phase.func)
        clock = time.perf_counter
        outputs, call_times = [], array("d")
        for args in phase.calls:
            t0 = clock()
            try:
                outputs.append(fn(*args))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
            call_times.append(clock() - t0)
        return call_times, outputs

    def record(self, phase, outputs):
        self.attempted += len(outputs)
        ok = [(m, o) for m, o in zip(phase.meta, outputs) if not isinstance(o, Exception)]
        for m, o in zip(phase.meta, outputs):
            if isinstance(o, Exception):
                self.failed += 1
                self.errors.append(f"{phase.name} {m!r}: {type(o).__name__}: {o}")
        if ok:
            self.w.record(self.ck, replace(phase, meta=[m for m, _ in ok]), [o for _, o in ok])


def layer_metrics(tracer, counts, w, times, traced_times) -> dict:
    st, c = tracer.stats, counts

    def per_call(key, scale, attr="total_ns"):
        s = st.get(key)
        return getattr(s, attr) / s.calls / scale if s and s.calls else 0.0

    def calls(key, phase=None):
        groups = [c[phase]] if phase else c.values()
        return sum(g[key].calls for g in groups if key in g)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "kernels.marginal_loglik.calls": calls("kernels.marginal_loglik"),
        "kernels.marginal_loglik.us_per_call": per_call("kernels.marginal_loglik", 1e3),
        "kernels.integrand_evals_per_call": ratio(calls("kernels.log_marginal_integrand"),
                                                  calls("kernels.marginal_loglik")),
        "kernels.lambert_w0.calls": calls("kernels.lambert_w0"),
        "kernels.lambert_w0.us_per_call": per_call("kernels.lambert_w0", 1e3),
        "numerics.find_root.calls": calls("numerics.find_root"),
        "numerics.find_root.f_evals_per_call": ratio(
            sum(g["numerics.find_root"].inner for g in c.values() if "numerics.find_root" in g),
            calls("numerics.find_root")),
        "numerics.find_root.self_us": per_call("numerics.find_root", 1e3, "self_ns"),
        "numerics.marginal_log_integral.self_us": per_call("numerics.marginal_log_integral",
                                                           1e3, "self_ns"),
        "bayes_factor.bf01.us_per_call": per_call("bayes_factor.bf01", 1e3),
        "flip.flip_point.bracketed_us": per_call("flip.flip_point.bracketed", 1e3),
        "flip.flip_point.lambert_w_us": per_call("flip.flip_point.lambert_w", 1e3),
        "flip.reversal_pair.us": per_call("flip.reversal_pair", 1e3),
        "flip.validate_pair.us": per_call("flip.validate_pair", 1e3),
        "cauchy.bf01_cauchy.us_per_call": per_call("cauchy.bf01_cauchy", 1e3),
        "cauchy.flip_scale.ms_per_call": per_call("cauchy.cauchy_flip_scale", 1e6),
        "cauchy.flip_scale.marginal_calls_per_solve": ratio(
            calls("kernels.marginal_loglik", "flip"), calls("cauchy.cauchy_flip_scale", "flip")),
        "report.sweep_rows.self_ms": per_call("report.sweep_rows", 1e6, "self_ns"),
        "report.figure_panel_a.ms": per_call("report.figure_panel_a", 1e6),
        "report.figure_panel_b.ms": per_call("report.figure_panel_b", 1e6),
        "svg.line_chart.ms": per_call("svg.line_chart", 1e6),
        "svg.bytes": ratio(sum(g["svg.line_chart"].out_bytes for g in c.values()
                               if "svg.line_chart" in g), calls("svg.line_chart")),
        "cli.main.self_ms": per_call("cli.main", 1e6, "self_ns"),
        "cli.output_bytes": w.output_bytes,
        "trace.overhead_pct": 100.0 * (sum(map(sum, traced_times.values()))
                                       / sum(map(sum, times.values())) - 1.0),
    }
    m.update((k, v) for k, (v, _) in w.layer_metrics(times).items())
    m.update(import_times())
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_cold", "cauchy", "closed_form"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: do the set-up that setup_s times, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "bayesflip" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'bayesflip'}; run from the root of a "
              "bayesflip source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        set_up_only(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    import bayesflip
    import check
    import selftest
    import workloads
    from tracer import Tracer

    if not Path(bayesflip.__file__).resolve().is_relative_to(SRC):
        print(f"error: bayesflip was imported from {bayesflip.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = OUT / f"out-{tag}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](ROOT, out, child_env())
        w.warm_up()
        ck = check.Checker()
        runner = Runner(w, ck)
        tracer = Tracer("time") if args.trace else None
        times, traced_times = defaultdict(list), defaultdict(list)  # per phase and round
        round_times, call_times = [], array("d")  # plain rounds only

        # whole rounds until the time is up; a traced run repeats each round
        # with the wrappers installed, on the same inputs
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            phases = w.make_round(args.seed, rounds)
            # start every round from a collected heap, so that collections of
            # the harness's own garbage do not land in some rounds only
            gc.collect()
            for traced in ((False, True) if tracer else (False,)):
                if traced:
                    tracer.keep_spans = rounds == 0
                    tracer.install()
                try:
                    results = [(p, *runner.run_phase(p)) for p in phases]
                finally:
                    if traced:
                        tracer.uninstall()
                for p, calls, outputs in results:
                    (traced_times if traced else times)[p.name].append(sum(calls))
                    runner.record(p, outputs)
                if not traced:
                    round_times.append(sum(sum(calls) for _, calls, _ in results))
                    for _, calls, _ in results:
                        call_times.extend(calls)
            ck.finish()  # compare this round's records now rather than keep them
            rounds += 1
        w.output_bytes = 0

        counts = {}
        if tracer:
            # counts on a reference round that does not depend on --seed, so
            # they repeat exactly from run to run
            for p in w.make_round(REFERENCE_SEED, 0):
                with Tracer("count") as counter:
                    _, outputs = runner.run_phase(p)
                counts[p.name] = counter.stats
                runner.record(p, outputs)

        problems = ck.finish()
        wrong = selftest.run_selftest(out)
        problems += [f"checker self-test: {line}" for line in wrong]

        if tracer:
            values = layer_metrics(tracer, counts, w, times, traced_times)
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = {"setup_s": setup_s, "round_ms": median(round_times) * 1e3,
                      "call_p50_us": median(call_times) * 1e6}
            declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        if not tracer and set(declared) - set(values):
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(declared) - set(values))}")
        # every declared metric; a per-layer one is 0 where the workload does
        # not reach that layer
        metrics = {n: {"value": values.get(n, 0), "unit": declared[n]} for n in declared}

        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "attempted": runner.attempted,
            "failed": runner.failed, "checked": ck.checked, "problems": problems[:100],
            "errors": runner.errors[:100], "metrics": metrics,
            "round_times_s": round_times, "phase_times_s": times,
            "traced_phase_times_s": traced_times,
            "python": platform.python_version(), "kernel_backend": bayesflip.KERNEL_BACKEND,
            "machine": f"{platform.machine()} {platform.processor()} {os.cpu_count()} cpus",
        }
        OUT.mkdir(exist_ok=True)
        (OUT / f"run-{tag}.json").write_text(json.dumps(report, indent=1))
        if tracer:
            (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(
                [dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s))
                 for s in tracer.spans]))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for line in problems[:20] + runner.errors[:20]:
        print(line, file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, {runner.attempted} operations, "
          f"{runner.failed} failed, {ck.checked} values checked, {len(problems)} problems; "
          f"python {platform.python_version()}, kernels {bayesflip.KERNEL_BACKEND}")
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
