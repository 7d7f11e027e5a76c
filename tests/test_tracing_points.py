"""The benchmark's traced runs wrap package names looked up at call time
(``bench/tracing.py``); each of those names must still exist, and a fit must
still call the fit-layer ones through those names."""

import importlib.util
from pathlib import Path

import pytest

from rulemix import CompositionParams, DiscoveryParams, TrainingConfig, fit

from conftest import abs_dataset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.PATCH_POINTS
        if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_installs_and_restores(tracing):
    before = [vars(owner)[attr] for owner, attr, _ in tracing.PATCH_POINTS]
    with tracing.Tracer().installed():
        pass
    assert [vars(owner)[attr] for owner, attr, _ in tracing.PATCH_POINTS] == before


def test_small_fit_enters_every_fit_layer_span(tracing):
    # A refactor that stops calling a patched name through its module global
    # would silently read 0 on that layer's metrics.
    config = TrainingConfig(
        n_phases=2,
        discovery=DiscoveryParams(rules_per_phase=2, lambda_=4, max_iter=20),
        composition=CompositionParams(population_size=8, generations_per_phase=3),
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        fit(abs_dataset(n=200), config)
    fit_spans = {
        name
        for _, _, name in tracing.PATCH_POINTS
        if name.split(".")[0] in ("training", "discovery", "composition", "model")
    } - {"training.Model.predict"}
    assert sorted(name for name in fit_spans if tracer.calls[name] == 0) == []
