"""Training harness with the measurement points of the paper's evaluation.

The paper reports, per method and dataset:

* **training time per epoch** — forward + backward + grouping cost
  (Sec. 6.1 "Methodology");
* **grouping overhead** — K-means time inside group attention, measured
  separately so Table 4 / Fig. 4 can attribute costs;
* **inference time** — full-validation-set forward passes (Tables 6-7);
* **OOM failures** — via the simulated GPU when an ``accounting_length``
  is configured (Table 2 / Fig. 4 "N/A" entries).

The trainer also hosts the two adaptive components of Sec. 5: after every
optimizer step it advances the :class:`AdaptiveScheduler`, and between
epochs it asks the :class:`BatchSizePredictor` for a new batch size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import DataLoader
from repro.data.dataset import ArrayDataset
from repro.errors import ConfigError, DivergenceError
from repro.optim.optimizer import Optimizer
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.scheduler.batchsize import BatchSizePredictor
from repro.simgpu.memory import current_device

__all__ = ["EpochStats", "History", "Trainer", "evaluate_task"]


@dataclass
class EpochStats:
    """Measurements for one training epoch."""

    epoch: int
    train_loss: float
    seconds: float
    grouping_seconds: float
    batch_size: int
    mean_groups: float
    val_metrics: dict[str, float] = field(default_factory=dict)
    #: K-means runs across all group-attention layers this epoch; with an
    #: amortized recluster cadence this is below ``batches * layers``.
    reclusters: int = 0


@dataclass
class History:
    """Sequence of epoch statistics with the paper's summary views."""

    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def final(self) -> EpochStats:
        if not self.epochs:
            raise ConfigError("history is empty")
        return self.epochs[-1]

    def avg_epoch_seconds(self) -> float:
        """Average training time per epoch — the paper's efficiency metric."""
        if not self.epochs:
            return 0.0
        return float(np.mean([e.seconds for e in self.epochs]))

    def total_grouping_seconds(self) -> float:
        return float(sum(e.grouping_seconds for e in self.epochs))

    def best(self, metric: str, mode: str = "max") -> float:
        values = [e.val_metrics[metric] for e in self.epochs if metric in e.val_metrics]
        if not values:
            raise ConfigError(f"metric {metric!r} never recorded")
        return max(values) if mode == "max" else min(values)


def _grouping_totals(model) -> tuple[float, int]:
    """Cumulative ``(grouping_seconds, reclusters)`` across grouping layers.

    Layers keep monotone counters, so the trainer charges per-epoch
    *deltas* — a layer that skips grouping on some step (or doesn't run at
    all) contributes nothing, instead of re-counting its stale
    ``last_stats`` every batch as the old per-step re-summation did.
    """
    seconds = 0.0
    reclusters = 0
    for layer in getattr(model, "group_attention_layers", lambda: [])():
        seconds += layer.grouping_seconds_total
        reclusters += layer.reclusters_total
    return seconds, reclusters


def evaluate_task(
    model, task, dataset: ArrayDataset, batch_size: int = 64, collate_fn=None
) -> dict[str, float]:
    """Run ``task.evaluate`` over a dataset and summarize (eval mode).

    Runs under ``no_grad`` so evaluation takes the inference fast path —
    no autograd graph, no backward caches — regardless of whether the
    task's ``evaluate`` disables gradients itself.  Pass
    ``collate_fn=repro.data.pad_collate`` for ragged datasets.
    """
    was_training = model.training
    model.eval()
    totals: dict[str, float] = {}
    loader = DataLoader(dataset, batch_size=batch_size, collate_fn=collate_fn)
    with no_grad():
        for batch in loader:
            for key, value in task.evaluate(model, batch).items():
                totals[key] = totals.get(key, 0.0) + value
    if was_training:
        model.train()
    return task.summarize(totals)


class Trainer:
    """Epoch loop with timing, adaptive N, dynamic batch size, and OOM checks.

    Parameters
    ----------
    model, task, optimizer:
        The model under training, a task object (see ``repro.tasks``), and
        an optimizer over ``model.parameters()``.
    adaptive_scheduler:
        Optional :class:`AdaptiveScheduler`; stepped after every batch.
    batch_predictor:
        Optional fitted :class:`BatchSizePredictor`; consulted between
        epochs to grow the batch as ``N`` shrinks.
    accounting_length:
        Paper-scale series length used for simulated-GPU memory accounting
        (e.g. 10,000 for MGH) while computation runs on scaled data.  When
        ``None``, the actual batch length is used.
    max_batch_size:
        Cap for predictor-driven batch growth.
    clip_norm:
        Optional global gradient-norm clip.
    """

    def __init__(
        self,
        model,
        task,
        optimizer: Optimizer,
        adaptive_scheduler: AdaptiveScheduler | None = None,
        batch_predictor: BatchSizePredictor | None = None,
        accounting_length: int | None = None,
        max_batch_size: int = 256,
        clip_norm: float | None = None,
    ) -> None:
        self.model = model
        self.task = task
        self.optimizer = optimizer
        self.adaptive_scheduler = adaptive_scheduler
        self.batch_predictor = batch_predictor
        self.accounting_length = accounting_length
        self.max_batch_size = int(max_batch_size)
        self.clip_norm = clip_norm

    def _check_memory(self, batch_size: int, length: int) -> None:
        device = current_device()
        if device is None:
            return
        accounted = self.accounting_length or length
        requested = self.model.estimate_step_bytes(batch_size, accounted)
        device.check(requested, note=f"{self.model.config.attention} attention, L={accounted}")

    def train_epoch(self, loader: DataLoader) -> tuple[float, float, float, int]:
        """One epoch; returns ``(mean_loss, seconds, grouping_seconds, reclusters)``."""
        self.model.train()
        total_loss = 0.0
        n_batches = 0
        seconds_before, reclusters_before = _grouping_totals(self.model)
        started = time.perf_counter()
        for batch in loader:
            self._check_memory(len(batch["x"]), batch["x"].shape[1])
            self.optimizer.zero_grad()
            loss = self.task.loss(self.model, batch)
            loss.backward()
            if self.clip_norm is not None:
                Optimizer.clip_grad_norm(self.optimizer.parameters, self.clip_norm)
            self.optimizer.step()
            if self.adaptive_scheduler is not None:
                self.adaptive_scheduler.step()
            batch_loss = float(loss.data)
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"training diverged: batch loss is {batch_loss} at epoch batch "
                    f"{n_batches} — a NaN/inf loss poisons every later update; "
                    f"roll back to the last checkpoint (lower the learning rate "
                    f"or clip gradients if it recurs)"
                )
            total_loss += batch_loss
            n_batches += 1
        seconds = time.perf_counter() - started
        seconds_after, reclusters_after = _grouping_totals(self.model)
        return (
            total_loss / max(n_batches, 1),
            seconds,
            seconds_after - seconds_before,
            reclusters_after - reclusters_before,
        )

    def fit(
        self,
        train_dataset: ArrayDataset,
        epochs: int,
        batch_size: int = 32,
        val_dataset: ArrayDataset | None = None,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
        verbose: bool = False,
        early_stopping=None,
        collate_fn=None,
        bucket_by_length: bool = False,
    ) -> History:
        """Train for up to ``epochs`` epochs, recording the paper's measurements.

        ``early_stopping``: optional :class:`~repro.train.EarlyStopping`;
        consulted after every validation pass (requires ``val_dataset``).

        ``collate_fn`` / ``bucket_by_length`` configure the internal
        loader for ragged datasets — pass
        :func:`repro.data.pad_collate` with a
        :class:`~repro.data.RaggedDataset` to train on variable-length
        series with length-bucketed batches.
        """
        loader = DataLoader(
            train_dataset, batch_size=batch_size, shuffle=shuffle, rng=rng,
            collate_fn=collate_fn, bucket_by_length=bucket_by_length,
        )
        history = History()
        for epoch in range(1, epochs + 1):
            mean_loss, seconds, grouping, reclusters = self.train_epoch(loader)
            stats = EpochStats(
                epoch=epoch,
                train_loss=mean_loss,
                seconds=seconds,
                grouping_seconds=grouping,
                batch_size=loader.batch_size,
                mean_groups=self.model.mean_groups(),
                reclusters=reclusters,
            )
            if val_dataset is not None:
                stats.val_metrics = evaluate_task(
                    self.model, self.task, val_dataset, collate_fn=collate_fn
                )
            history.append(stats)
            if verbose:
                print(
                    f"epoch {epoch:3d} loss={mean_loss:.4f} "
                    f"time={seconds:.2f}s groups={stats.mean_groups:.1f} "
                    f"val={stats.val_metrics}"
                )
            if early_stopping is not None and val_dataset is not None:
                value = stats.val_metrics.get(early_stopping.metric)
                if value is not None and early_stopping.update(value, self.model):
                    break
            self._maybe_grow_batch(loader, train_dataset)
        return history

    def _maybe_grow_batch(self, loader: DataLoader, dataset: ArrayDataset) -> None:
        """Ask the batch predictor for a new batch size as ``N`` shrinks."""
        if self.batch_predictor is None:
            return
        mean_groups = self.model.mean_groups()
        if mean_groups <= 0:
            return
        length = self.accounting_length or dataset[0]["x"].shape[0]
        predicted = self.batch_predictor.predict(length, mean_groups)
        new_size = int(np.clip(predicted, 1, min(self.max_batch_size, len(dataset))))
        if new_size > loader.batch_size:
            loader.set_batch_size(new_size)

    def measure_inference(self, dataset: ArrayDataset, batch_size: int = 64) -> float:
        """Wall-clock seconds for one full forward pass over ``dataset``."""
        was_training = self.model.training
        self.model.eval()
        loader = DataLoader(dataset, batch_size=batch_size)
        started = time.perf_counter()
        with no_grad():
            for batch in loader:
                if self.model.classifier is not None and "y" in batch:
                    self.model.classify(Tensor(batch["x"]))
                else:
                    self.model.reconstruct(Tensor(batch["x"]))
        elapsed = time.perf_counter() - started
        if was_training:
            self.model.train()
        return elapsed
