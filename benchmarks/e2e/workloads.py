"""The four end-to-end RITA workloads.

Every workload takes the seed of its inputs and a measuring budget in
seconds, builds the program through its public API, measures it, checks
its outputs, and returns an :class:`Outcome`.  The seed picks only the
generated inputs (series, labels, cloze masks, shuffles, arrival times);
the model weights and K-means streams are fixed by ``MODEL_SEED`` as part
of the workload's definition, so runs on different seeds differ by their
data and not by the network they exercise.

A traced run (``tracer`` given) runs the same workload and alternates
traced and untraced blocks (epochs, rounds or request batches): the
traced blocks give the per-layer table, and the throughput ratio between
the two kinds of block gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import statistics
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import repro
from repro.data.masking import Scaler, apply_timestamp_mask
from repro.data.synthetic import ECG_CLASSES, HAR_PROFILES, generate_ecg, generate_eeg, generate_har
from repro.serve import InferenceEngine, MicroBatcher, ModelArtifact, Router, WorkerPool

from tracing import Tracer, router_targets

#: Seed of the model weights and K-means generators (part of the workload).
MODEL_SEED = 20240
#: Scratch space for artifacts and traces; inside the checkout, never committed.
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Upper bound on the relative L2 error of group attention against exact
#: attention with the same weights.  A broken grouping, group softmax or
#: padding mask pushes the error to O(1); healthy runs stay far below.
APPROX_TOLERANCE = 0.25
#: Serving gate: a load generator whose p99 lateness exceeds one mean
#: inter-arrival gap at 50 req/s did not hold its schedule.  Latency counts
#: from the scheduled send time either way; on a contended host p99
#: lateness reached 6.6 ms, so a tighter gate fails runs the host slowed.
LATE_P99_LIMIT_MS = 20.0
#: Group-attention geometry shared by every workload (RITA, scaled).
MODEL_GEOMETRY = {"dim": 32, "n_heads": 2, "n_layers": 2, "attention": "group", "dropout": 0.0}
#: Serving grouping policy: reuse a cached partition for up to 8 calls.
SERVE_RECLUSTER_EVERY = 8
#: Routed serving: worker processes, and the deadline of every request.
SERVE_WORKERS = 2
SERVE_DEADLINE_S = 10.0
#: The load generator sweeps its outstanding futures at least this often.
POLL_S = 0.001
LEARNING_RATE = 1e-3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]  #: end-to-end metrics (untraced meaning)
    layers: dict[str, float] = field(default_factory=dict)  #: per-layer (traced runs)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    op_ends: list[float] = field(default_factory=list)  #: op boundaries for the trace file

    def check(self, name: str, ok: bool, info: str) -> None:
        self.checks.append((name, bool(ok), info))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def timed_setup(build, repeats: int, close=None):
    """Build ``repeats`` times; return the last build and the median seconds.

    Set-up is timed several times because a single build is short and
    noisy; earlier builds are closed before the next one starts.
    """
    seconds = []
    built = None
    for _ in range(repeats):
        if built is not None and close is not None:
            close(built)
        started = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - started)
    return built, statistics.median(seconds)


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 error ``|approx - exact| / |exact|`` in float64."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.shape != exact.shape:
        raise ValueError(f"cannot compare outputs of shape {approx.shape} and {exact.shape}")
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def exact_twin(artifact: ModelArtifact) -> ModelArtifact:
    """The same weights with exact (vanilla) attention."""
    config = dataclasses.replace(artifact.config, attention="vanilla")
    return dataclasses.replace(artifact, config=config)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus the largest reaped child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def op_seconds(started: float, ends: list[float]) -> list[float]:
    """Per-op durations from the block start and each op's end time."""
    return list(np.diff([started, *ends]))


def recluster_rate(model) -> float:
    # The counters may move to a telemetry module; a missing one reads 0.
    layers = model.group_attention_layers()
    steps = sum(getattr(layer, "grouping_steps_total", 0) for layer in layers)
    reclusters = sum(getattr(layer, "reclusters_total", 0) for layer in layers)
    return reclusters / steps if steps else 0.0


def traced_block(tracer: Tracer | None, index: int):
    """Odd blocks of a traced run are traced; everything else runs bare."""
    if tracer is not None and index % 2 == 1:
        return tracer.active()
    return contextlib.nullcontext()


def layer_table(tracer: Tracer, ops: int, model, traced_rate: float, bare_rate: float,
                approx: float) -> dict:
    """Per-layer metrics common to every workload."""
    shares = tracer.shares()
    table = {f"{name}.share": value for name, value in shares.items()}
    table["other.share"] = 1.0 - sum(shares.values())
    table["kernels.calls_per_op"] = tracer.count("kernels.") / max(ops, 1)
    table["cluster.kmeans.calls_per_op"] = tracer.count("cluster.kmeans") / max(ops, 1)
    table["cluster.recluster_rate"] = recluster_rate(model)
    table["scheduler.mean_groups_end"] = model.mean_groups()
    table["attention.group.approx_rel_err"] = approx
    table["trace.overhead"] = 1.0 - traced_rate / bare_rate if bare_rate > 0 else 0.0
    return table


def check_approx(outcome: Outcome, approx: float) -> None:
    outcome.check("approx_within_tolerance", approx < APPROX_TOLERANCE,
                  f"group vs exact attention rel. error {approx:.4g} < {APPROX_TOLERANCE}")


def check_outputs(outcome: Outcome, outputs, n_classes: int) -> int:
    """Count outputs that are missing, mis-shaped or non-finite."""
    bad = sum(
        1 for out in outputs
        if out is None or np.shape(out) != (n_classes,) or not np.isfinite(out).all()
    )
    outcome.check("outputs_finite", bad == 0,
                  f"{bad} of {len(outputs)} outputs missing, mis-shaped or non-finite")
    return bad


def model_config(channels: int, max_len: int, n_groups: int, n_classes: int | None):
    return repro.RitaConfig(
        input_channels=channels, max_len=max_len, n_groups=n_groups,
        n_classes=n_classes, **MODEL_GEOMETRY,
    )


def save_artifact(config, directory: str) -> Path:
    """Freeze a ``MODEL_SEED`` model to disk; serving set-up loads it back."""
    model = repro.RitaModel(config, rng=np.random.default_rng(MODEL_SEED))
    return ModelArtifact.from_model(model).save(Path(directory) / "model.rita")


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSpec:
    task: str  #: "imputation" (EEG) or "classification" (WISDM-like HAR)
    length: int
    channels: int
    batch_size: int
    n_groups: int
    steps_per_epoch: int
    #: Epochs always run, whatever the budget; their losses and the
    #: approximation error after them depend on the seed alone.
    loss_epochs: int
    heldout: int
    setup_repeats: int = 3
    warmup_steps: int = 3


class StepClock(repro.AdaptiveScheduler):
    """The paper's adaptive scheduler, also timestamping each optimizer step.

    The trainer steps the scheduler once per batch, right after the
    optimizer, so consecutive marks bound one full training step.
    """

    def __init__(self, layers, config=None) -> None:
        super().__init__(layers, config)
        self.marks: list[float] = []

    def step(self) -> None:
        super().step()
        self.marks.append(time.perf_counter())


def make_train_data(spec: TrainSpec, seed: int) -> dict:
    """Seeded inputs: training set, held-out set, and the held-out cloze mask."""
    rng = np.random.default_rng(seed)
    total = spec.batch_size * spec.steps_per_epoch + spec.heldout
    if spec.task == "imputation":
        x = generate_eeg(total, spec.length, n_channels=spec.channels, rng=rng).x
        y = None
    else:
        generated = generate_har("wisdm", total, spec.length, rng=rng)
        x, y = generated.x, generated.y
    x = x.astype(np.float32)
    split = total - spec.heldout
    return {"x": x[:split], "y": None if y is None else y[:split],
            "heldout": x[split:], "mask_rng": np.random.default_rng([seed, 1])}


def run_train(spec: TrainSpec, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    repro.seed_all(seed)
    data = make_train_data(spec, seed)
    arrays = {"x": data["x"]} if data["y"] is None else {"x": data["x"], "y": data["y"]}
    train_set = repro.ArrayDataset(**arrays)
    warmup_set = train_set.take(spec.batch_size * spec.warmup_steps)
    n_classes = None if data["y"] is None else HAR_PROFILES["wisdm"].n_classes
    config = model_config(spec.channels, spec.length, spec.n_groups, n_classes)
    scaler = Scaler.fit(data["x"]) if spec.task == "imputation" else None

    def build():
        model = repro.RitaModel(config, rng=np.random.default_rng(MODEL_SEED))
        if scaler is not None:
            task = repro.ImputationTask(scaler, mask_rate=0.2, rng=np.random.default_rng([seed, 2]))
        else:
            task = repro.ClassificationTask()
        clock = StepClock.for_model(model, repro.AdaptiveSchedulerConfig(epsilon=2.0))
        optimizer = repro.AdamW(model.parameters(), lr=LEARNING_RATE)
        trainer = repro.Trainer(model, task, optimizer, adaptive_scheduler=clock)
        trainer.fit(warmup_set, epochs=1, batch_size=spec.batch_size, shuffle=False)
        return trainer

    trainer, setup_s = timed_setup(build, spec.setup_repeats)
    clock = trainer.adaptive_scheduler
    outcome = Outcome(metrics={"setup_s": setup_s})
    steps: list[float] = []
    epoch_rates: list[float] = []  # series/s of each epoch
    by_kind = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [steps, seconds]
    losses: list[float] = []
    while len(losses) < spec.loss_epochs or sum(steps) < seconds or (tracer and len(losses) < 2):
        clock.marks.clear()
        with traced_block(tracer, len(losses)) as traced:
            started = time.perf_counter()
            try:
                history = trainer.fit(train_set, epochs=1, batch_size=spec.batch_size,
                                      rng=np.random.default_rng([seed, 3, len(losses)]))
            except repro.ReproError as exc:  # DivergenceError: a non-finite step loss
                outcome.check("step_losses_finite", False, f"epoch {len(losses) + 1}: {exc}")
                outcome.failed += 1
                return outcome
        durations = op_seconds(started, clock.marks)
        steps += durations
        epoch_rates.append(spec.batch_size * len(durations) / sum(durations))
        outcome.op_ends += clock.marks
        by_kind[traced is not None][0] += len(durations)
        by_kind[traced is not None][1] += sum(durations)
        losses.append(history.final.train_loss)
        if len(losses) == spec.loss_epochs:
            # Read here, not at the end: peak memory grows as the scheduler
            # shrinks N, and how far N gets depends on how many epochs the
            # budget allows, not on the seed and the program alone.
            rss = peak_rss_mb()
            approx = train_approx_err(trainer.model, data, scaler)

    outcome.attempted = len(steps)
    outcome.metrics.update({
        "series_per_s": statistics.median(epoch_rates),
        "latency_p50_ms": 1e3 * statistics.median(steps),
        "peak_rss_mb": rss,
    })
    outcome.detail = {
        "train_loss_per_epoch": losses,
        "loss_epochs": spec.loss_epochs,
        "steps": len(steps),
        "step_p90_ms": 1e3 * float(np.percentile(steps, 90)),
        "mean_groups_end": trainer.model.mean_groups(),
        "approx_rel_err": approx,
    }
    outcome.check("step_losses_finite", all(np.isfinite(losses)), "every epoch's mean loss is finite")
    first, last = losses[0], losses[spec.loss_epochs - 1]
    outcome.check("loss_decreases", last < first,
                  f"epoch {spec.loss_epochs} loss {last:.6g} < epoch 1 loss {first:.6g}")
    check_approx(outcome, approx)
    if tracer is not None:
        rates = {kind: (spec.batch_size * n / s if s else 0.0) for kind, (n, s) in by_kind.items()}
        outcome.layers = layer_table(tracer, by_kind[True][0], trainer.model,
                                     rates[True], rates[False], approx)
    return outcome


def train_approx_err(model, data: dict, scaler: Scaler | None) -> float:
    """Group attention vs exact attention on held-out series, outside timing.

    Both twins are rebuilt from the live weights (the live model's
    K-means state is left untouched); the group twin takes each layer's
    current ``N`` from the adaptive scheduler.
    """
    artifact = ModelArtifact.from_model(model)
    group = artifact.build_model(rng=np.random.default_rng(MODEL_SEED))
    for twin, live in zip(group.group_attention_layers(), model.group_attention_layers()):
        twin.n_groups = live.n_groups
    exact = exact_twin(artifact).build_model()
    series = data["heldout"]
    if scaler is not None:
        series, _ = apply_timestamp_mask(scaler.transform(series), 0.2, rng=data["mask_rng"])
        series = series.astype(np.float32)
        endpoint = "reconstruct"
    else:
        endpoint = "classify"
    approx = InferenceEngine(group, max_batch_size=1).endpoint(endpoint)(series)
    reference = InferenceEngine(exact, max_batch_size=1).endpoint(endpoint)(series)
    return rel_err(approx, reference)


# ----------------------------------------------------------------------
# Offline scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InferSpec:
    n_series: int
    min_length: int
    max_length: int
    channels: int
    batch_size: int
    n_groups: int
    check_series: int
    setup_repeats: int = 3


def make_ragged_ecg(spec: InferSpec, seed: int) -> list[np.ndarray]:
    """ECG-like series with stratified ragged lengths in [min, max].

    One length per equal-width stratum (jittered, then shuffled) keeps the
    total work of a round nearly independent of the seed while no two
    series share a length.
    """
    rng = np.random.default_rng(seed)
    x = generate_ecg(spec.n_series, spec.max_length, n_channels=spec.channels, rng=rng).x
    width = (spec.max_length - spec.min_length) / spec.n_series
    lengths = spec.min_length + ((np.arange(spec.n_series) + rng.random(spec.n_series)) * width)
    rng.shuffle(lengths)
    return [x[i, : int(length)].astype(np.float32) for i, length in enumerate(lengths)]


def run_infer(spec: InferSpec, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    repro.seed_all(seed)
    series = make_ragged_ecg(spec, seed)
    n_classes = len(ECG_CLASSES)
    config = model_config(spec.channels, spec.max_length, spec.n_groups, n_classes)
    warmup = [s[: spec.min_length // 4] for s in series[:2]]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        path = save_artifact(config, scratch)

        def build():
            engine = InferenceEngine(ModelArtifact.load(path), recluster_every=SERVE_RECLUSTER_EVERY)
            MicroBatcher(engine.classify, max_batch_size=spec.batch_size).map(warmup)
            return engine

        engine, setup_s = timed_setup(build, spec.setup_repeats)

    batch_ends: list[float] = []

    def endpoint(x, mask=None):
        out = engine.classify(x, mask=mask)
        batch_ends.append(time.perf_counter())
        return out

    batcher = MicroBatcher(endpoint, max_batch_size=spec.batch_size)
    outcome = Outcome(metrics={"setup_s": setup_s})
    batches: list[float] = []
    round_rates: list[float] = []  # series/s of each round
    by_kind = {True: [0, 0, 0.0], False: [0, 0, 0.0]}  # traced? -> [batches, series, seconds]
    outputs: list[np.ndarray] = []
    while not round_rates or sum(batches) < seconds or (tracer and len(round_rates) < 2):
        batch_ends.clear()
        with traced_block(tracer, len(round_rates)) as traced:
            started = time.perf_counter()
            outputs += batcher.map(series)
        durations = op_seconds(started, batch_ends)
        batches += durations
        round_rates.append(len(series) / sum(durations))
        outcome.op_ends += batch_ends
        kind = by_kind[traced is not None]
        kind[0] += len(durations)
        kind[1] += len(series)
        kind[2] += sum(durations)
    outcome.attempted = len(outputs)
    outcome.failed = check_outputs(outcome, outputs, n_classes)
    rss = peak_rss_mb()

    # The first round's outputs: their K-means draws do not depend on the budget.
    exact = InferenceEngine(exact_twin(ModelArtifact.from_model(engine.model)), max_batch_size=1)
    approx = rel_err(np.stack(outputs[: spec.check_series]),
                     exact.classify(series[: spec.check_series]))
    check_approx(outcome, approx)
    outcome.metrics.update({
        "series_per_s": statistics.median(round_rates),
        "latency_p50_ms": 1e3 * statistics.median(batches),
        "peak_rss_mb": rss,
    })
    outcome.detail = {"rounds": len(round_rates), "batches": len(batches),
                      "batch_p90_ms": 1e3 * float(np.percentile(batches, 90)),
                      "approx_rel_err": approx}
    if tracer is not None:
        rates = {kind: (n / s if s else 0.0) for kind, (_, n, s) in by_kind.items()}
        outcome.layers = layer_table(tracer, by_kind[True][0], engine.model,
                                     rates[True], rates[False], approx)
        requests = getattr(batcher, "requests_total", 0)
        padded = getattr(batcher, "padded_rows_total", 0)
        outcome.layers["serve.batcher.padded_row_share"] = padded / requests if requests else 0.0
    return outcome


# ----------------------------------------------------------------------
# Routed serving
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    length: int
    n_distinct: int  #: distinct device windows, cycled by the load generator
    rate: float  #: open-loop Poisson arrival rate (req/s)
    concurrency: int  #: closed-loop requests in flight (capacity phase)
    capacity_share: float  #: share of the budget spent on the capacity phase
    check_requests: int
    #: Fail the run when the generator ran late (off for the tiny smoke
    #: geometry, which runs on whatever machine runs the test suite).
    gate_lateness: bool = True
    single_client_requests: int = 100  #: routed one-at-a-time requests (traced run)
    replay_block: int = 25  #: requests per traced/untraced block of the replay
    n_groups: int = 64
    setup_repeats: int = 3


def make_fleet(spec: ServeSpec, seed: int) -> list[np.ndarray]:
    """A "similar fleet": one device's window plus small per-request noise."""
    rng = np.random.default_rng(seed)
    base = generate_har("hhar", 1, spec.length, rng=rng).x[0]
    noise = 0.02 * base.std()
    return [(base + noise * rng.standard_normal(base.shape)).astype(np.float32)
            for _ in range(spec.n_distinct)]


class LoadGenerator:
    """One client thread: submits requests and sweeps futures for completion.

    Latency runs from each request's *due* time (its scheduled send time
    in the open loop, its submit time in the closed loop) to the sweep
    that finds it done; sweeps run at least every ``POLL_S``, so a stall
    is charged to every request it delays.
    """

    def __init__(self, router: Router, requests: list[np.ndarray], spec: ServeSpec) -> None:
        self.router = router
        self.requests = requests
        self.spec = spec
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.outputs: dict[int, np.ndarray | None] = {}  #: by request index
        self.attempted = 0
        self.failed = 0

    def _submit(self, index: int, due: float, outstanding: dict) -> None:
        self.attempted += 1
        try:
            outstanding[index] = (
                self.router.submit("classify", self.requests[index % len(self.requests)],
                                   deadline_s=SERVE_DEADLINE_S),
                due,
            )
        except repro.ReproError:  # shed at admission
            self.failed += 1
            self.outputs[index] = None

    def _sweep(self, outstanding: dict, now: float) -> None:
        for index in [index for index, (future, _) in outstanding.items() if future.done()]:
            future, due = outstanding.pop(index)
            try:
                # One (L, m) series is served as a batch of one: keep its row.
                self.outputs[index] = future.result()[0]
            except repro.ReproError:
                self.failed += 1
                self.outputs[index] = None
            self.latencies.append(now - due)

    def open_loop(self, schedule: np.ndarray) -> None:
        """Send request ``i`` at ``schedule[i]`` whatever the server does."""
        outstanding: dict = {}
        index = 0
        while index < len(schedule) or outstanding:
            now = time.perf_counter()
            self._sweep(outstanding, now)
            if index < len(schedule) and now >= schedule[index]:
                self.lateness.append(now - schedule[index])
                self._submit(index, schedule[index], outstanding)
                index += 1
                continue
            wait = schedule[index] - now if index < len(schedule) else POLL_S
            time.sleep(min(POLL_S, max(wait, 0.0)))

    def closed_loop(self, concurrency: int, count: int | None = None,
                    duration: float | None = None) -> float:
        """Keep ``concurrency`` requests in flight; returns the elapsed seconds."""
        outstanding: dict = {}
        started = time.perf_counter()
        sent = 0
        while True:
            now = time.perf_counter()
            self._sweep(outstanding, now)
            more = (count is None or sent < count) and (duration is None or now - started < duration)
            if not more and not outstanding:
                return now - started
            while more and len(outstanding) < concurrency:
                self._submit(sent, time.perf_counter(), outstanding)
                sent += 1
                more = count is None or sent < count
            time.sleep(POLL_S)


def start_router(spec: ServeSpec, config, requests: list[np.ndarray]) -> tuple[Router, float]:
    """Timed set-up: load the artifact, start the pool, wait for ready, warm up."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        path = save_artifact(config, scratch)

        def build() -> Router:
            pool = WorkerPool(ModelArtifact.load(path), n_workers=SERVE_WORKERS,
                              engine_kwargs={"recluster_every": SERVE_RECLUSTER_EVERY})
            router = Router(pool)
            give_up = time.monotonic() + 60.0
            while pool.ready_count() < SERVE_WORKERS and time.monotonic() < give_up:
                time.sleep(0.005)
            router.map("classify", requests[: 2 * SERVE_WORKERS], deadline_s=SERVE_DEADLINE_S)
            return router

        return timed_setup(build, spec.setup_repeats, stop_router)


def stop_router(router: Router) -> None:
    router.close()
    router.pool.close()  # joins every worker process


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's helper process, started with the pool.

    Left alone it outlives the run by a moment; multiprocessing offers no
    public call to stop it, hence the private one, used only if present.
    """
    # Collecting the pools' queues sends each queue's feeder thread its
    # sentinel; a feeder still holds a semaphore until it has exited.
    gc.collect()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=5.0)
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def count_dispatches(pool: WorkerPool, counts: Counter) -> None:
    """Count dispatches per worker, calling through the (maybe traced) class method."""

    def dispatch(worker_id, *args, **kwargs):
        counts[worker_id] += 1
        return type(pool).dispatch(pool, worker_id, *args, **kwargs)

    pool.dispatch = dispatch


def run_serve(spec: ServeSpec, seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    repro.seed_all(seed)
    requests = make_fleet(spec, seed)
    profile = HAR_PROFILES["hhar"]
    config = model_config(profile.n_channels, spec.length, spec.n_groups, profile.n_classes)
    router, setup_s = start_router(spec, config, requests)
    artifact = router.pool.artifact
    outcome = Outcome(metrics={"setup_s": setup_s})
    phases: list[LoadGenerator] = []
    dispatches: Counter = Counter()
    router_tracer = None if tracer is None else Tracer(router_targets())
    try:
        if tracer is None:
            capacity = LoadGenerator(router, requests, spec)
            elapsed = capacity.closed_loop(spec.concurrency, duration=spec.capacity_share * seconds)
            outcome.metrics["series_per_s"] = len(capacity.latencies) / elapsed
            phases.append(capacity)
            open_seconds = (1.0 - spec.capacity_share) * seconds
        else:
            count_dispatches(router.pool, dispatches)
            open_seconds = 0.4 * seconds
        arrivals = LoadGenerator(router, requests, spec)
        phases.append(arrivals)
        n_open = max(int(spec.rate * open_seconds), 1)
        gaps = np.random.default_rng([seed, 4]).exponential(1.0 / spec.rate, n_open)
        with router_tracer.active() if router_tracer else contextlib.nullcontext():
            arrivals.open_loop(time.perf_counter() + 0.01 + np.cumsum(gaps))
        if tracer is not None:
            single = LoadGenerator(router, requests, spec)
            single.closed_loop(1, count=spec.single_client_requests)
            phases.append(single)
    finally:
        stop_router(router)
        stop_resource_tracker()
    rss = peak_rss_mb(children=True)

    outcome.attempted = sum(phase.attempted for phase in phases)
    outcome.failed = sum(phase.failed for phase in phases)
    check_outputs(outcome, [out for phase in phases for out in phase.outputs.values()],
                  profile.n_classes)
    outcome.check("no_failed_requests", outcome.failed == 0,
                  f"{outcome.failed} of {outcome.attempted} requests failed or were shed")
    late_p99_ms = 1e3 * float(np.percentile(arrivals.lateness, 99))
    if spec.gate_lateness and tracer is None:
        outcome.check("generator_on_time", late_p99_ms < LATE_P99_LIMIT_MS,
                      f"load generator p99 lateness {late_p99_ms:.2f} ms < {LATE_P99_LIMIT_MS} ms")

    checked = [i for i in sorted(arrivals.outputs)[: spec.check_requests]
               if arrivals.outputs[i] is not None]
    exact = InferenceEngine(exact_twin(artifact), max_batch_size=8)
    reference = exact.classify(np.stack([requests[i % len(requests)] for i in checked]))
    approx = rel_err(np.stack([arrivals.outputs[i] for i in checked]), reference)
    check_approx(outcome, approx)
    outcome.metrics.update({
        "latency_p50_ms": 1e3 * statistics.median(arrivals.latencies),
        "peak_rss_mb": rss,
    })
    outcome.detail = {
        "open_loop_requests": len(arrivals.latencies),
        "open_loop_rate": spec.rate,
        "latency_p90_ms": 1e3 * float(np.percentile(arrivals.latencies, 90)),
        "latency_p99_ms": 1e3 * float(np.percentile(arrivals.latencies, 99)),
        "late_p99_ms": late_p99_ms,
        "approx_rel_err": approx,
    }
    if tracer is not None:
        outcome.layers = serve_layers(spec, tracer, artifact, requests, seconds, outcome, approx)
        submits = router_tracer.durations("serve.router.submit")
        sends = router_tracer.durations("serve.router.dispatch")
        stats = router.stats
        outcome.layers.update({
            "serve.router.submit_us_p50": 1e6 * statistics.median(submits) if submits else 0.0,
            "serve.router.dispatch_us_p50": 1e6 * statistics.median(sends) if sends else 0.0,
            "serve.router.overhead_ms_p50": 1e3 * (statistics.median(single.latencies)
                                                   - outcome.detail["in_process_p50_s"]),
            "serve.router.dispatch_share_max": max(dispatches.values()) / sum(dispatches.values()),
            "serve.router.retries": getattr(stats, "retries_total", 0),
            "serve.router.shed": getattr(stats, "shed_total", 0),
            "loadgen.late_p99_ms": late_p99_ms,
        })
    return outcome


def serve_layers(spec: ServeSpec, tracer: Tracer, artifact: ModelArtifact,
                 requests: list[np.ndarray], seconds: float, outcome: Outcome,
                 approx: float) -> dict:
    """Replay the request stream through one in-process engine.

    Worker processes cannot be traced from outside, so the engine layers
    of the routed path are measured on an engine built with the workers'
    own arguments, serving the same stream one request at a time.
    """
    engine = InferenceEngine(artifact, recluster_every=SERVE_RECLUSTER_EVERY)
    engine.classify(requests[0])
    by_kind = {True: [0, 0.0], False: [0, 0.0]}  # traced? -> [requests, seconds]
    bare: list[float] = []
    index = block = 0
    started = time.perf_counter()
    while block < 2 or time.perf_counter() - started < 0.4 * seconds:
        with traced_block(tracer, block) as traced:
            for _ in range(spec.replay_block):
                begun = time.perf_counter()
                engine.classify(requests[index % len(requests)])
                ended = time.perf_counter()
                outcome.op_ends.append(ended)
                by_kind[traced is not None][0] += 1
                by_kind[traced is not None][1] += ended - begun
                if traced is None:
                    bare.append(ended - begun)
                index += 1
        block += 1
    outcome.detail["in_process_p50_s"] = statistics.median(bare)
    rates = {kind: (n / s if s else 0.0) for kind, (n, s) in by_kind.items()}
    return layer_table(tracer, by_kind[True][0], engine.model, rates[True], rates[False], approx)


#: name -> (runner, measured geometry, smoke geometry).  Every workload uses
#: RITA's scaled geometry (dim 32, 2 heads, 2 layers, group attention).
WORKLOADS = {
    "train_long": (
        run_train,
        TrainSpec(task="imputation", length=2000, channels=21, batch_size=8, n_groups=64,
                  steps_per_epoch=8, loss_epochs=2, heldout=4),
        TrainSpec(task="imputation", length=256, channels=21, batch_size=4, n_groups=16,
                  steps_per_epoch=2, loss_epochs=2, heldout=2, setup_repeats=1, warmup_steps=1),
    ),
    "train_short": (
        run_train,
        TrainSpec(task="classification", length=200, channels=3, batch_size=32, n_groups=16,
                  steps_per_epoch=8, loss_epochs=4, heldout=64),
        TrainSpec(task="classification", length=64, channels=3, batch_size=8, n_groups=8,
                  steps_per_epoch=2, loss_epochs=2, heldout=8, setup_repeats=1, warmup_steps=1),
    ),
    "infer_offline": (
        run_infer,
        InferSpec(n_series=128, min_length=1000, max_length=2000, channels=12, batch_size=32,
                  n_groups=64, check_series=16, setup_repeats=15),
        InferSpec(n_series=8, min_length=128, max_length=256, channels=12, batch_size=4,
                  n_groups=16, check_series=4, setup_repeats=1),
    ),
    "serve_open": (
        run_serve,
        ServeSpec(length=512, n_distinct=256, rate=50.0, concurrency=4, capacity_share=0.3,
                  check_requests=200),
        ServeSpec(length=128, n_distinct=16, rate=50.0, concurrency=4, capacity_share=0.3,
                  check_requests=20, gate_lateness=False, single_client_requests=10,
                  replay_block=5, setup_repeats=1),
    ),
}
