"""Per-layer spans around the public functions of the avgpower modules.

The tracer wraps each target function from outside, in every avgpower module
namespace that binds it (the defining module, the package, and every module
that imported it by name), so calls between modules pass through a span no
matter which binding the caller used. Nothing under ``src/`` is edited; the
original bindings are restored when the ``with`` block ends.

Each span records its duration; a layer's self time is its duration minus the
time covered by its direct child spans. Counts are taken at the same
boundaries, and per binding, so calls made from one module can be counted
apart (``clopper_pearson.tail_evals``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "avgpower"

# (module, function) pairs wrapped as spans. ``DecisionMatrix.inclusion_matrix``
# is a method and is wrapped on the class.
SPANS = (
    ("distributions", "binom_log_pmf_support"),
    ("distributions", "beta_log_pdf"),
    ("distributions", "beta_binom_log_pmf_support"),
    ("distributions", "binom_pmf"),
    ("decisions", "build_decision_matrix"),
    ("decisions", "confidence_region"),
    ("decisions", "decision_matrix_to_csv"),
    ("decisions", "rows_summary_csv"),
    ("power", "avg_power_csv"),
    ("power", "mixed_power_csv"),
    ("power", "power_curves_csv"),
    ("power", "average_power_report"),
    ("clopper_pearson", "clopper_pearson"),
    ("clopper_pearson", "compare_lengths"),
    ("clopper_pearson", "comparison_csv"),
    ("monte_carlo", "mc_sample_params"),
    ("monte_carlo", "mc_sample_data"),
    ("monte_carlo", "pool_samples"),
    ("monte_carlo", "mc_build_decision_row"),
    ("monte_carlo", "agreement_with_matrix"),
    ("monte_carlo", "agreement_csv"),
    ("cli", "main"),
)
# Functions that are only counted. They open no span, so their time stays in
# the self time of the layer that called them: a row build is part of
# build_decision_matrix, a tail sum part of clopper_pearson, a curve part of
# avg_power_csv.
COUNTS = (
    ("decisions", "build_decision_row"),
    ("distributions", "binom_pmf_support"),
    ("power", "power_curve"),
)
METHOD_TARGETS = (("decisions", "DecisionMatrix", "inclusion_matrix"),)


class Tracer:
    """Span clock and counters for one traced stretch of calls.

    Use as a context manager around the calls to trace. ``calls`` and
    ``self_s`` are keyed by ``"<module>.<function>"``; ``binding_calls`` by
    ``(binding module, "<module>.<function>")``; ``draws`` and
    ``distinct_outcomes`` are read off the Monte Carlo stage results.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.binding_calls: Counter = Counter()
        self.draws = 0
        self.distinct_outcomes = 0
        self._stack: list = []
        self._restore: list = []

    def _module(self, name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def _observe(self, key: str, result) -> None:
        if key == "monte_carlo.mc_sample_data":
            self.draws += sum(len(row) for row in result.draws)
        elif key == "monte_carlo.pool_samples":
            self.distinct_outcomes += len(result.outcomes)

    def _count(self, fn, key: str, binding: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[key] += 1
            self.binding_calls[(binding, key)] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, key: str, binding: str):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.self_s[key] += duration - children[0]
                self.calls[key] += 1
                self.binding_calls[(binding, key)] += 1
            self._observe(key, result)
            return result

        return span

    def __enter__(self) -> "Tracer":
        namespaces = [sys.modules[PACKAGE]] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith(PACKAGE + ".")
        ]
        targets = [(t, self._span) for t in SPANS] + [(t, self._count) for t in COUNTS]
        for (module_name, func_name), wrap in targets:
            original = getattr(self._module(module_name), func_name)
            key = f"{module_name}.{func_name}"
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        binding = ns.__name__.rpartition(".")[2]
                        self._restore.append((ns, attr, value))
                        setattr(ns, attr, wrap(original, key, binding))
        for module_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(self._module(module_name), cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._span(original, f"{module_name}.{method}", module_name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
