"""The benchmark's tracer wraps library names by module and attribute; a
refactor that drops one of them must fail here rather than in a traced
benchmark run.  ``bench/tracing.py`` is loaded by path, as the benchmark
loads ``tests/_reference.py``."""

import importlib
import importlib.util
import inspect
import os

import pytest

from rtgle import estimate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_tier1_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("module,attr", [site[:2] for site in TRACING.SITES],
                         ids=lambda v: v)
def test_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_objectives_resolve():
    for method in TRACING.METHODS:
        assert callable(estimate._OBJECTIVES[estimate.EstimationMethod(method)])


def test_fit_takes_data_method_config_first():
    # the tracer reads fit's first three arguments by position
    assert list(inspect.signature(estimate.fit).parameters)[:3] \
        == ["data", "method", "config"]


def test_gof_report_has_four_positional_parameters():
    # the tracer reads gof_report's fifth positional argument, or its
    # keyword mode, as a bootstrap mode
    from rtgle import gof
    params = inspect.signature(gof.gof_report).parameters.values()
    assert [p.kind for p in params].count(
        inspect.Parameter.POSITIONAL_OR_KEYWORD) == 4
    assert "mode" not in [p.name for p in params]
