"""The benchmark's traced runs wrap package names looked up at call time
(``bench/tracing.py``); each of those names must still exist."""

import importlib.util
from pathlib import Path

import pytest

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
