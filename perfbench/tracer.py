"""Per-layer tracing from outside the program.

The program has no spans of its own, so the benchmark puts them at the
layer boundaries: every public function of every ``bayesflip`` module is
replaced by a wrapper, under its name, in every module that holds it
(the defining module, the modules that imported it by name, and the
package namespace).  Calls made through any of those names then pass
through the wrapper; calls a module makes to its own private helpers do
not.

``Tracer(mode="time")`` records calls, total time and self time (total
minus the time of wrapped calls made inside) per function, and keeps the
spans of one chosen round.  ``Tracer(mode="count")`` only counts, and
also counts the integrand evaluations behind each quadrature and the
function evaluations behind each root solve.  ``install`` and
``uninstall`` swap the wrappers in and out, so one process can time
traced and untraced rounds alternately.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

# Functions evaluated once per quadrature node or grid sample: wrapping
# them for time would add more than it measures.  The count mode still
# counts them.
PER_SAMPLE = {
    "kernels.log_marginal_integrand",
    "kernels.adaptive_simpson",
    "bayes_factor.log_bf01",
    "numerics.std_normal_pdf",
    "numerics.log_std_normal_pdf",
    "numerics.std_normal_cdf",
}


def layer_of(module_name: str) -> str:
    """``bayesflip._kernels.pure`` -> ``kernels``, ``bayesflip.flip`` -> ``flip``."""
    tail = module_name.split(".")[-1]
    return "kernels" if module_name.startswith("bayesflip._kernels") else tail


def _method_suffix(args, kwargs):
    """flip_point is timed per route: key suffix from its method argument."""
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    return "bracketed" if method is None else method.value


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "inner", "out_bytes")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.inner = self.out_bytes = 0


class Tracer:
    def __init__(self, mode: str):
        assert mode in ("time", "count")
        self.mode = mode
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []   # (id, parent, name, start_ns, end_ns)
        self.keep_spans = False
        self._stack: list[list] = []   # [span id, child time ns]
        self._next_id = 0
        self._patches: list[tuple] = []  # (module, attribute, original)

    def stat(self, key: str) -> Stat:
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = Stat()
        return s

    # -- wrappers -------------------------------------------------------
    def _timed(self, key, fn):
        stack = self._stack
        split = key == "flip.flip_point"

        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                s = self.stat(f"{key}.{_method_suffix(args, kwargs)}" if split else key)
                s.calls += 1
                s.total_ns += dt
                s.self_ns += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if self.keep_spans:
                    self.spans.append((frame[0], stack[-1][0] if stack else None, key, t0, t1))

        return wrapper

    def _counted(self, key, fn):
        s = self.stat(key)
        if key == "numerics.find_root":
            def wrapper(f, *args, **kwargs):
                s.calls += 1

                def counted_f(x):
                    s.inner += 1
                    return f(x)

                return fn(counted_f, *args, **kwargs)
        elif key == "svg.line_chart":
            def wrapper(*args, **kwargs):
                s.calls += 1
                out = fn(*args, **kwargs)
                s.out_bytes += len(out.encode())
                return out
        else:
            def wrapper(*args, **kwargs):
                s.calls += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bayesflip" or name.startswith("bayesflip."))]
        wrappers = {}
        for m in modules:
            for name, fn in vars(m).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != m.__name__):
                    continue
                key = f"{layer_of(m.__name__)}.{name}"
                if self.mode == "time":
                    if key in PER_SAMPLE:
                        continue
                    wrappers[id(fn)] = (fn, self._timed(key, fn))
                else:
                    wrappers[id(fn)] = (fn, self._counted(key, fn))
        for m in modules:
            for name, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((m, name, value))
                    setattr(m, name, hit[1])

    def uninstall(self):
        for m, name, original in reversed(self._patches):
            setattr(m, name, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
