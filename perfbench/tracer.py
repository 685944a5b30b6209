"""Per-layer tracing for the benchmark's traced run.

Module-level functions are wrapped under the names by which other modules
(and the benchmark, through the `adelic` package) call them: the wrapper
replaces the imported binding in every other module's namespace and
leaves the defining module's own binding alone, so calls inside a module
are not split. Methods are wrapped on their class, so every call to them
is a span. Each span records its count and its self time: its duration
minus the spans nested inside it.

A few functions also get a count-only wrapper in their own module, to
count calls that never cross a module boundary (is_prime from inside
primepow, radius-law builds inside sample_path, node solves inside the
Duhamel solver).

The untraced run never imports this module.
"""
from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("primepow", "adele", "radial", "heatkernel", "markov", "cauchy")

SPANS = {
    "primepow": ("next_pp", "prev_pp", "phi", "log_phi", "pp_range",
                 "bracket_log", "prime_power_pairs", "iter_int_prime_powers",
                 "is_prime"),
    "adele": ("sample_uniform", "add", "norm", "ball_exponents",
              "RandomTail.component"),
    "radial": ("RadialStep.ft", "RadialStep.apply_multiplier",
               "RadialStep.inner_product", "RadialStep.sphere_values",
               "ft_ball_eval"),
    "heatkernel": ("z_finite", "ln_z_finite", "sphere_masses",
                   "normalization", "ball_mass", "tail_mass_bound"),
    "markov": ("radius_distribution", "RadiusDistribution.sample",
               "sample_path", "transition_prob_ball"),
    "cauchy": ("solve_homogeneous", "solve_nonhomogeneous", "apply_operator",
               "EvaluableRadial.value_with_bound"),
}

# (module, function): calls made from inside the defining module
INTERNAL_COUNTS = (
    ("primepow", "is_prime"),
    ("markov", "radius_distribution"),
    ("cauchy", "solve_homogeneous"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m in LAYERS for f in SPANS[m])


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.internal = {f"{m}.{f}": 0 for m, f in INTERNAL_COUNTS}
        self.enabled = True
        self._nested: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, fn, name):
        calls, self_ns, nested = self.calls, self.self_ns, self._nested
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            nested.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                inner = nested.pop()
                calls[name] += 1
                self_ns[name] += took - inner
                if nested:
                    nested[-1] += took

        return span

    def _counter(self, fn, name):
        internal = self.internal

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                internal[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every listed function of the imported `adelic` package."""
        package = importlib.import_module("adelic")
        modules = {m: importlib.import_module(f"adelic.{m}")
                   for m in LAYERS + ("cli", "checks", "util")}
        namespaces = [package] + list(modules.values())
        for layer in LAYERS:
            home = modules[layer]
            for fname in SPANS[layer]:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, meth, self._span(getattr(cls, meth), name))
                    continue
                orig = getattr(home, fname)
                wrapped = self._span(orig, name)
                for ns in namespaces:
                    if ns is home:
                        continue
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._replace(ns, attr, wrapped)
        for layer, fname in INTERNAL_COUNTS:
            home = modules[layer]
            self._replace(home, fname,
                          self._counter(getattr(home, fname), f"{layer}.{fname}"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def all_calls(self, name: str) -> int:
        """Span calls plus calls counted inside the defining module."""
        return self.calls[name] + self.internal.get(name, 0)
