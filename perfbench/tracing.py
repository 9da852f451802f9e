"""Span tracing of quadflow from outside the package.

The tracer replaces public functions at the attribute where their caller
looks them up (``quadflow.flow.assemble`` is what ``integrate``'s right-hand
side calls, ``quadflow.cli.load_config`` is what ``run_config_file`` calls)
with a wrapper that records a span: name, start, end, parent span and run
id.  Spans stay in memory until the traced run ends.  A layer's self time is
the duration of its spans minus the part covered by their child spans, so
the self times of all layers add up to the root (``cli.main``) time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

__all__ = ["SITES", "EXPECTED", "Tracer", "layer_of"]

# (owner, attribute, span name).  The owner is a module or a class; the span
# name is "<layer>.<function>" with the layer named after the module that
# defines the function.
SITES = (
    ("quadflow.cli", "main", "cli.main"),
    ("quadflow.cli", "run_config_file", "cli.run_config_file"),
    ("quadflow.cli", "load_config", "config.load_config"),
    ("quadflow.schedule:CoefficientSchedule", "coefficients",
     "schedule.coefficients"),
    ("quadflow.flow", "assemble", "reduction.assemble"),
    ("quadflow.cli", "assemble", "reduction.assemble"),
    ("quadflow.cli", "reference_odes", "reduction.reference_odes"),
    ("quadflow.cli", "adjoint_matrix", "adjoint.adjoint_matrix"),
    ("quadflow.cli", "adjoint_closed_form", "adjoint.adjoint_closed_form"),
    ("quadflow.rk", "solve", "rk.solve"),
    ("quadflow.rk:DenseSolution", "__call__", "rk.dense"),
    ("quadflow.flow", "integrate", "flow.integrate"),
    ("quadflow.flow", "write_alphas_csv", "flow.write_alphas_csv"),
    ("quadflow.observables", "heisenberg_map", "observables.heisenberg_map"),
    ("quadflow.observables", "write_heisenberg_json",
     "observables.write_heisenberg_json"),
    ("quadflow.propagator", "green", "propagator.green"),
    ("quadflow.propagator", "write_green_csv", "propagator.write_green_csv"),
    ("quadflow.oracles", "fundamental_matrix", "oracles.fundamental_matrix"),
)

_RUN_SITES = {
    "quadflow.cli:main", "quadflow.cli:run_config_file",
    "quadflow.cli:load_config", "quadflow.schedule:CoefficientSchedule:coefficients",
    "quadflow.flow:assemble", "quadflow.rk:solve",
    "quadflow.rk:DenseSolution:__call__", "quadflow.flow:integrate",
    "quadflow.flow:write_alphas_csv", "quadflow.observables:heisenberg_map",
    "quadflow.observables:write_heisenberg_json", "quadflow.propagator:green",
    "quadflow.propagator:write_green_csv",
}

# Call sites each workload must reach; a site with zero calls fails the
# traced run instead of reporting a silent zero.
EXPECTED = {
    "landau_grid": _RUN_SITES,
    "driven_breakdown": _RUN_SITES,
    "verify_landau": {
        "quadflow.cli:main", "quadflow.cli:assemble",
        "quadflow.cli:reference_odes", "quadflow.cli:adjoint_matrix",
        "quadflow.cli:adjoint_closed_form",
        "quadflow.schedule:CoefficientSchedule:coefficients",
        "quadflow.flow:assemble", "quadflow.rk:solve",
        "quadflow.rk:DenseSolution:__call__", "quadflow.flow:integrate",
        "quadflow.observables:heisenberg_map",
        "quadflow.oracles:fundamental_matrix",
    },
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``spans`` holds one ``[name, parent, start, end, run_id]`` list per call;
    ``parent`` is the index of the enclosing span or -1.  ``site_calls``
    counts calls per call site.  ``counters`` holds per-run counts: calls
    that ended in an exception (``<name>.raised``), and ``rk.n_rhs`` and
    ``rk.steps_accepted`` taken from each FlowResult.
    """

    def __init__(self):
        self.spans: list = []
        self.site_calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name in SITES:
            target = _resolve(owner)
            original = getattr(target, attr)
            site = f"{owner}:{attr}"
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, name, site))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        return False

    def new_run(self) -> None:
        self.run_id += 1

    def _wrap(self, fn, name, site):
        spans, stack = self.spans, self._stack
        site_calls, tracer = self.site_calls, self
        on_flow = name == "flow.integrate"
        raised_key = f"{name}.raised"

        def traced(*args, **kwargs):
            site_calls[site] += 1
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, tracer.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = perf_counter()
                stack.pop()
                tracer.counters[tracer.run_id][raised_key] += 1
                raise
            span[3] = perf_counter()
            stack.pop()
            if on_flow:
                counts = tracer.counters[tracer.run_id]
                counts["rk.n_rhs"] += result.n_rhs
                counts["rk.steps_accepted"] += len(result.dense.segments)
            return result

        traced.__wrapped__ = fn
        return traced

    def missing_sites(self, workload: str) -> list:
        """Expected call sites of ``workload`` that were never called."""
        return sorted(s for s in EXPECTED[workload] if not self.site_calls[s])

    def per_run(self) -> dict:
        """Per run id: self time per layer, and calls, inclusive and self
        time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        runs: dict = {}
        for i, (name, parent, start, end, run) in enumerate(self.spans):
            r = runs.setdefault(run, {"layer_self": defaultdict(float),
                                      "calls": defaultdict(int),
                                      "incl": defaultdict(float),
                                      "self": defaultdict(float),
                                      "wall": 0.0})
            dur = end - start
            own = dur - child[i]
            r["layer_self"][layer_of(name)] += own
            r["calls"][name] += 1
            r["self"][name] += own
            r["incl"][name] += dur
            if parent < 0:
                r["wall"] += dur
        return runs

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start,end\n")
            for i, (name, parent, start, end, run) in enumerate(self.spans):
                fh.write(f"{run},{i},{parent},{name},{start!r},{end!r}\n")

