"""Per-layer spans and call counts, recorded from outside the package.

Each patch point is a name that a layer's caller looks up at call time (a
module global or a class attribute). While a :class:`Tracer` is installed,
that name is replaced by a wrapper that counts the call and adds its
``perf_counter`` duration to the layer's total. Wrappers only read their
arguments; they never draw from an rng, so a traced fit must save the same
model bytes as an untraced one, which the harness checks.

Spans are inclusive: ``discovery.discover_rule`` contains the
``discovery.fit_rule`` calls it makes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

from rulemix import composition, discovery, model, training
from rulemix.io import dataio, modelfile

# ``rulemix.io`` re-exports the function ``cli`` under the submodule's name.
cli = importlib.import_module("rulemix.io.cli")

# (owner, attribute, span name). The same span may sit behind several names
# when a module imported the function into its own namespace.
PATCH_POINTS = (
    (training, "discover_rules", "training.discover_rules"),
    (training, "compose", "training.compose"),
    (training, "solution_residuals", "training.solution_residuals"),
    (training.Model, "predict", "training.Model.predict"),
    (discovery, "discover_rule", "discovery.discover_rule"),
    (discovery, "fit_rule", "discovery.fit_rule"),
    (discovery, "rule_fitness", "discovery.rule_fitness"),
    (discovery, "select_seed_example", "discovery.select_seed_example"),
    (composition, "evaluate_candidate", "composition.evaluate_candidate"),
    (composition, "tournament_select", "composition.tournament_select"),
    (composition, "crossover_npoint", "composition.crossover_npoint"),
    (composition, "mutate_bits", "composition.mutate_bits"),
    (model.RulePredictionTable, "build", "model.RulePredictionTable.build"),
    (dataio, "load_csv_with_names", "io.dataio.load_csv_with_names"),
    (cli, "load_feature_matrix", "io.dataio.load_feature_matrix"),
    (modelfile, "load_model", "io.modelfile.load_model"),
    (cli, "load_model", "io.modelfile.load_model"),
    (modelfile, "save_model", "io.modelfile.save_model"),
)

# Spans that make up an in-process CLI predict. The caller books the rest of
# its wall time, argument parsing and writing the output CSV, as
# ``io.cli.write``.
CLI_CHILD_SPANS = ("io.modelfile.load_model", "io.dataio.load_feature_matrix", "training.Model.predict")


class Tracer:
    """Accumulates seconds and call counts per span while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # (compose call index, genome length, genome bits) of every evaluated genome.
        self.genomes: set[tuple[int, int, bytes]] = set()
        self.recording = True

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if name == "composition.evaluate_candidate":
                genome = np.asarray(args[0], dtype=bool)
                self.genomes.add((self.calls["training.compose"], genome.shape[0], genome.tobytes()))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start

        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Swap every patch point for its wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in PATCH_POINTS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; a span that was
        never entered reads as 0."""
        s, calls = self.seconds, self.calls
        out: dict[str, tuple[float, str]] = {}
        for name in (
            "training.discover_rules",
            "training.compose",
            "training.solution_residuals",
            "training.Model.predict",
            "discovery.fit_rule",
            "discovery.rule_fitness",
            "discovery.select_seed_example",
            "composition.evaluate_candidate",
            "composition.tournament_select",
            "composition.crossover_npoint",
            "composition.mutate_bits",
            "model.RulePredictionTable.build",
            "io.dataio.load_csv_with_names",
            "io.dataio.load_feature_matrix",
            "io.modelfile.load_model",
            "io.modelfile.save_model",
        ):
            out[f"{name}.s"] = (s[name], "s")
        for name in (
            "discovery.fit_rule",
            "discovery.rule_fitness",
            "discovery.discover_rule",
            "discovery.select_seed_example",
            "composition.evaluate_candidate",
            "model.RulePredictionTable.build",
        ):
            out[f"{name}.calls"] = (calls[name], "count")
        for name in ("discovery.fit_rule", "composition.evaluate_candidate"):
            per_call = s[name] / calls[name] * 1e6 if calls[name] else 0.0
            out[f"{name}.us_per_call"] = (per_call, "us")
        evaluations = calls["composition.evaluate_candidate"]
        out["composition.evaluate_candidate.unique_frac"] = (
            len(self.genomes) / evaluations if evaluations else 0.0,
            "ratio",
        )
        out["discovery.reseeds"] = (
            calls["discovery.select_seed_example"] - calls["discovery.discover_rule"],
            "count",
        )
        out["io.cli.write_s"] = (s["io.cli.write"], "s")
        return out
