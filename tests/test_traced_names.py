"""Every function the per-layer benchmark tracer wraps still exists in avgpower.

The tracer (perfbench/layertrace.py) looks its targets up by name, and reads
the ``draws`` and ``outcomes`` attributes off two Monte Carlo stage results,
so a renamed or deleted function or attribute would only surface when the
benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _layertrace()


@pytest.mark.parametrize("module_name, func_name", [*layertrace.SPANS, *layertrace.COUNTS])
def test_traced_function_resolves(module_name, func_name):
    module = importlib.import_module(f"{layertrace.PACKAGE}.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


@pytest.mark.parametrize("module_name, cls_name, method", layertrace.METHOD_TARGETS)
def test_traced_method_resolves(module_name, cls_name, method):
    cls = getattr(importlib.import_module(f"{layertrace.PACKAGE}.{module_name}"), cls_name)
    assert callable(vars(cls).get(method)), f"{module_name}.{cls_name}.{method}"


def test_observed_stage_attributes_exist():
    mc = importlib.import_module(f"{layertrace.PACKAGE}.monte_carlo")
    dist = importlib.import_module(f"{layertrace.PACKAGE}.distributions")
    plugin = mc.make_binomial_plugin(dist.BinomialModel(20), dist.BetaPrior(0.5, 0.5))
    config = mc.McConfig(seed=1, n_params=2, n_data_per_param=3, level=0.05)
    with layertrace.Tracer() as tracer:
        params = mc.mc_sample_params(plugin, config)
        data = mc.mc_sample_data(plugin, params, config)
        pooled = mc.pool_samples(plugin, params, data)
    assert hasattr(data, "draws") and hasattr(pooled, "outcomes")
    assert tracer.draws == 6
    assert tracer.distinct_outcomes == len(pooled.outcomes)
