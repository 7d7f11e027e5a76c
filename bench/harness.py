"""Workloads, correctness checks and metric reporting of the rulemix
benchmark. ``run.py`` is the entry point; ``README.md`` says why each
workload exists and which per-layer metric should move which end-to-end
metric.

Every workload trains on a fixed training set with a fixed rng seed and
scores the model on a fixed held-out set, so the fit does the same work and
``test_mse`` reads the same in every run; ``--seed`` draws the rows that are
predicted, written to CSV, ingested and served. The ES stopping point depends
chaotically on the training data: across training sets the fit time of one
workload varies by more than any bound the benchmark could hold.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from rulemix import CompositionParams, Dataset, DiscoveryParams, TrainingConfig, training
from rulemix.io import cli, dataio, modelfile

from tracing import CLI_CHILD_SPANS, Tracer

TRAIN_SEED = 0
TEST_ROWS = 20_000
NOISE_SD = 0.05
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    fits_in_loop: bool  # False: the model is fitted in set-up and only served
    n_train: int
    n_eval: int  # held-out rows of a fit workload, served rows of serve-csv
    d: int
    config: TrainingConfig
    mse_ceiling: float
    short_reps: int  # predict, save and load runs per short block; a pass has two


COMPOSE_CONFIG = TrainingConfig(
    n_phases=8,
    discovery=DiscoveryParams(rules_per_phase=8, lambda_=8),
    composition=CompositionParams(population_size=64, generations_per_phase=64),
)

WORKLOADS = {
    "fit-discovery": Workload(True, 10_000, 20_000, 6, TrainingConfig(n_phases=4), 0.04, 1),
    "fit-compose": Workload(True, 2_000, 20_000, 2, COMPOSE_CONFIG, 0.008, 1),
    "serve-csv": Workload(False, 500, 100_000, 6, TrainingConfig(), 0.04, 5),
}

# Same shapes of work at sizes that run in seconds, for the self-test.
SMOKE_WORKLOADS = {
    "fit-discovery": Workload(True, 300, 500, 6, TrainingConfig(n_phases=2), 0.2, 1),
    "fit-compose": Workload(
        True,
        200,
        500,
        2,
        TrainingConfig(
            n_phases=2,
            discovery=DiscoveryParams(rules_per_phase=8, lambda_=8),
            composition=CompositionParams(population_size=16, generations_per_phase=4),
        ),
        0.2,
        1,
    ),
    "serve-csv": Workload(False, 200, 2_000, 6, TrainingConfig(n_phases=2), 0.2, 5),
}


def make_rows(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """X ~ U[-1, 1]^d, y = |x0| + 1.5 |x1| + N(0, 0.05^2)."""
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = np.abs(X[:, 0]) + 1.5 * np.abs(X[:, 1]) + rng.normal(0.0, NOISE_SD, n)
    return X, y


def fresh(path: Path) -> str:
    """Remove ``path`` so that the next write creates a new file.

    Rewriting an existing file makes ext4 (``auto_da_alloc``) start
    writeback when the file is closed, which would add device latency to
    the timed step; a user writes a model or a prediction file once.
    """
    path.unlink(missing_ok=True)
    return str(path)


def csv_lines(matrix: np.ndarray) -> list[str]:
    # repr is the shortest exact decimal form, so ingest must give back the
    # generated values bit for bit.
    return [",".join(map(repr, row)) for row in matrix.tolist()]


def write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    with open(fresh(path), "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("\n".join(lines) + "\n")


def read_predictions(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "prediction":
        return np.empty(0)
    return np.array([float(line) for line in lines[1:]])


class Checks:
    """Counts checked operations; a failed check is reported and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class State:
    """Everything set-up leaves for the timed steps."""

    work: Path
    train: Dataset
    X_test: np.ndarray  # fixed held-out rows behind test_mse
    y_test: np.ndarray
    X_eval: np.ndarray  # seed-drawn rows the serving steps predict
    ingest_csv: Path  # labeled CSV the ingest step reads
    ingest_rows: tuple[np.ndarray, np.ndarray]  # what that CSV must parse back to
    features_csv: Path  # features-only CSV the CLI predicts
    model: Optional[training.Model] = None
    fit_seconds: float = 0.0


def set_up(spec: Workload, seed: int, work: Path) -> State:
    X, y = make_rows(np.random.default_rng(TRAIN_SEED), spec.n_train, spec.d)
    X_test, y_test = make_rows(np.random.default_rng([TRAIN_SEED, 2]), TEST_ROWS, spec.d)
    X_eval, y_eval = make_rows(np.random.default_rng([seed, 1]), spec.n_eval, spec.d)
    names = [f"x{j}" for j in range(spec.d)]
    state = State(
        work=work,
        train=Dataset(X, y),
        X_test=X_test,
        y_test=y_test,
        X_eval=X_eval,
        ingest_csv=work / "labeled.csv",
        ingest_rows=(X, y) if spec.fits_in_loop else (X_eval, y_eval),
        features_csv=work / "features.csv",
    )
    eval_lines = csv_lines(X_eval)
    write_csv(state.features_csv, names, eval_lines)
    labeled_X, labeled_y = state.ingest_rows
    labeled_lines = eval_lines if labeled_X is X_eval else csv_lines(labeled_X)
    write_csv(
        state.ingest_csv,
        names + ["y"],
        [f"{line},{value!r}" for line, value in zip(labeled_lines, labeled_y.tolist())],
    )
    if not spec.fits_in_loop:
        start = time.perf_counter()
        state.model = training.fit(state.train, spec.config)
        state.fit_seconds = time.perf_counter() - start
    return state


def model_bytes(model: training.Model, path: Path) -> bytes:
    modelfile.save_model(model, fresh(path))
    return path.read_bytes()


class Runner:
    """Runs the timed steps of one workload and records their durations."""

    def __init__(self, spec: Workload, checks: Checks, tracer: Optional[Tracer] = None):
        self.spec = spec
        self.checks = checks
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.expected: Optional[np.ndarray] = None
        self.first_model_bytes: Optional[bytes] = None

    def _timed(self, key: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.times[key].append(time.perf_counter() - start)
        return result

    def _unrecorded(self, fn, *args):
        """Run a check's own call into the package outside every span."""
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            return fn(*args)

    def check_model_bytes(self, model: training.Model, work: Path) -> None:
        data = self._unrecorded(model_bytes, model, work / "fit.json")
        if self.first_model_bytes is None:
            self.first_model_bytes = data
        else:
            self.checks.check(data == self.first_model_bytes, "a same-seed fit saves the same model bytes")

    def round(self, state: State, until: float) -> training.Model:
        """One fit (fit workloads), then serving passes while the next one
        should end by the ``perf_counter`` time ``until``; at least one pass."""
        if self.spec.fits_in_loop:
            model = self._timed("fit", training.fit, state.train, self.spec.config)
        else:
            model = state.model
            self.times["fit"].append(state.fit_seconds)
        self.check_model_bytes(model, state.work)
        longest = 0.0
        while True:
            began = time.perf_counter()
            self.serve(state, model)
            longest = max(longest, time.perf_counter() - began)
            if time.perf_counter() + longest > until:
                return model

    def serve(self, state: State, model: training.Model) -> None:
        """One pass over the serving steps, each checked. The short steps
        run before each of the two long ones, so their samples spread over
        the run as evenly as those of the long steps."""
        self.short_steps(state, model)
        self.cli_predict(state)
        self.short_steps(state, model)
        self.ingest(state)

    def short_steps(self, state: State, model: training.Model) -> None:
        checks = self.checks
        for _ in range(self.spec.short_reps):
            predictions = self._timed("predict", model.predict, state.X_eval)
            if self.expected is None:
                self.expected = predictions
            checks.check(np.array_equal(predictions, self.expected), "predict is deterministic")

        path = state.work / "model.json"
        for _ in range(self.spec.short_reps):
            self._timed("save", modelfile.save_model, model, fresh(path))
            loaded = self._timed("load", modelfile.load_model, str(path))
        checks.check(
            np.array_equal(self._unrecorded(loaded.predict, state.X_eval), self.expected),
            "predictions after save/load equal the in-memory predictions bitwise",
        )

    def cli_predict(self, state: State) -> None:
        """In-process ``rulemix predict`` of the model the last short block saved."""
        path = state.work / "model.json"
        out = state.work / "predictions.csv"
        argv = ["predict", "--model", str(path), "--data", str(state.features_csv), "--out", fresh(out)]
        before = dict(self.tracer.seconds) if self.tracer else {}
        with contextlib.redirect_stdout(io.StringIO()):
            status = self._timed("cli", cli, argv)
        if self.tracer:
            inner = sum(self.tracer.seconds[k] - before.get(k, 0.0) for k in CLI_CHILD_SPANS)
            self.tracer.seconds["io.cli.write"] += self.times["cli"][-1] - inner
        self.checks.check(
            status == 0 and np.array_equal(read_predictions(out), self.expected),
            "the CLI prediction CSV parses back to the in-memory predictions",
        )

    def ingest(self, state: State) -> None:
        expected_X, expected_y = state.ingest_rows
        dataset, _, _ = self._timed("ingest", dataio.load_csv_with_names, str(state.ingest_csv), "y")
        self.checks.check(
            np.array_equal(dataset.features, expected_X) and np.array_equal(dataset.targets, expected_y),
            "the ingested matrix equals the generated rows",
        )


def ref_kernel_seconds(reps: int = 5) -> float:
    """Median time of a fixed kernel that does not use rulemix: a control
    for how fast the host is running right now.

    Contention slows interpreted code more than BLAS, so the kernel has
    both: matrix products and ``tanh``, a box mask and a sort, and a JSON
    round trip of 24,000 floats.
    """
    rng = np.random.default_rng(20220203)
    a = rng.standard_normal((256, 256)) / 16.0
    x = rng.uniform(-1.0, 1.0, size=(100_000, 6))
    payload = x[:4_000].tolist()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        b = a
        for _ in range(24):
            b = np.tanh(b @ a)
        inside = np.all((x > -0.5) & (x < 0.5), axis=1)
        np.sort(x[inside], axis=0)
        json.loads(json.dumps(payload))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_info() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
    }


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"n": len(values), "median": statistics.median(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "max": max(values),
        "mean": statistics.fmean(values),
    }


def run_untraced(spec: Workload, seed: int, seconds: float, work: Path, checks: Checks):
    """``ROUNDS`` rounds of set-up, fit and serving passes; round ``i`` serves
    until ``(i + 1) / ROUNDS`` of ``seconds`` has passed.

    The host's speed changes over tens of seconds, so every round sets up
    afresh and serves for a while: samples of every step spread over the
    whole run.
    """
    runner = Runner(spec, checks)
    setup_times, ref_times = [], []
    start = time.perf_counter()
    for i in range(ROUNDS):
        gc.collect()
        ref_times.append(ref_kernel_seconds())
        set_up_began = time.perf_counter()
        state = set_up(spec, seed, work)
        setup_times.append(time.perf_counter() - set_up_began)
        model = runner.round(state, start + seconds * (i + 1) / ROUNDS)

    test_mse = float(np.mean((model.predict(state.X_test) - state.y_test) ** 2))
    checks.check(test_mse < spec.mse_ceiling, f"test_mse {test_mse} under the ceiling {spec.mse_ceiling}")
    # Contention from other tenants comes in stretches that often outlast a
    # step. The mean of samples spread through the run moves in proportion to
    # the share of the run spent in such stretches, where the median and the
    # minimum jump between the fast and the slow level; so timed steps report
    # their mean. The detail line keeps every step's median and quartiles.
    mean = {key: statistics.fmean(values) for key, values in runner.times.items()}
    metrics = {
        "fit_s": (mean["fit"], "s"),
        "test_mse": (test_mse, "mse"),
        "complexity": (model.best.cached_complexity, "rules"),
        "pool_size": (len(model.pool), "rules"),
        "predict_rows_per_s": (spec.n_eval / mean["predict"], "1/s"),
        "ingest_rows_per_s": (len(state.ingest_rows[1]) / mean["ingest"], "1/s"),
        "cli_predict_s": (mean["cli"], "s"),
        "model_save_ms": (mean["save"] * 1e3, "ms"),
        "model_load_ms": (mean["load"] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - checks.failed / checks.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    detail = {key: summary(values) for key, values in runner.times.items()}
    detail["setup"] = summary(setup_times)
    return metrics, detail, statistics.median(ref_times)


def run_traced(spec: Workload, seed: int, work: Path, checks: Checks):
    """One untraced and one traced round, each with one serving pass;
    per-layer metrics come from the traced one."""
    state = set_up(spec, seed, work)
    ref_s = ref_kernel_seconds()

    def one_round(tracer: Optional[Tracer]) -> tuple[float, bytes]:
        runner = Runner(spec, checks, tracer)
        runner.round(state, until=0.0)
        # A fit workload compares fit time; serve-csv has no timed fit.
        if spec.fits_in_loop:
            seconds = runner.times["fit"][0]
        else:
            seconds = sum(sum(v) for key, v in runner.times.items() if key != "fit")
        return seconds, (work / "model.json").read_bytes()

    plain_s, plain_bytes = one_round(None)
    tracer = Tracer()
    with tracer.installed():
        traced_s, traced_bytes = one_round(tracer)
    checks.check(traced_bytes == plain_bytes, "the traced run saves the same model bytes as the untraced run")

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["host.ref_kernel_s"] = (ref_s, "s")
    return metrics, {"untraced_s": plain_s, "traced_s": traced_s}, ref_s


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[workload]
    work = Path(__file__).resolve().parent.parent / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = Checks()
    try:
        if trace:
            metrics, detail, ref_s = run_traced(spec, seed, work, checks)
        else:
            metrics, detail, ref_s = run_untraced(spec, seed, seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    info = {"workload": workload, "seed": seed, "host": host_info(), "host.ref_kernel_s": ref_s, "samples": detail}
    print(json.dumps(info))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
