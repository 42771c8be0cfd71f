"""Self-healing training: run the Trainer under a supervising parent.

Hours-long pretraining (the paper's Table 3/5 workloads) dies for dull
reasons — OOM kills, preemption, a wedged data loader, a NaN loss — and
an unsupervised run turns any of them into lost wall-clock and a
hand-run resume.  This module closes the loop: training executes in a
**subprocess** that checkpoints durably every epoch
(:class:`~repro.train.checkpoint.CheckpointManager`: atomic +
digest-stamped + ``.bak``-rotated + pruned) and sends heartbeats
(:func:`repro.supervision.heartbeat`, 20 per ``heartbeat_timeout``); the
parent :class:`Supervisor` watches for

* **crashes** — the child exits (SIGKILL, OOM, unhandled exception, a
  :class:`~repro.faultfs.SimulatedCrash` mid-save);
* **hangs** — no heartbeat within ``heartbeat_timeout``; the child is
  killed;
* **divergence** — the trainer's NaN/inf guard raises
  :class:`~repro.errors.DivergenceError`; the poisoned epoch is never
  checkpointed;

and recovers by respawning the child with capped exponential backoff
(:func:`repro.supervision.backoff`).
Each incarnation rolls back to the **newest checkpoint that passes
verification** (corrupt files are skipped, ``.bak`` rotations consulted)
and replays from there.  Because the training recipe is deterministic
(explicit seeds, unshuffled loader, full optimizer/scheduler state in
the checkpoint — the PR 3 bitwise-resume guarantee), the recovered run's
final weights are **bitwise-identical** to an uninterrupted run's, which
is exactly what ``tests/train/test_supervisor.py`` asserts under a
crash matrix.

Recovery is bounded: past ``max_restarts`` the supervisor raises
:class:`~repro.errors.SupervisorError` (or
:class:`~repro.errors.DivergenceError` when the run diverges
deterministically) — it never loops forever and never returns a
partially trained model as finished.  The supervisor itself is also
crash-safe: all progress lives in the checkpoint directory, so rerunning
a killed supervisor resumes instead of restarting.

The child rebuilds its whole world from a picklable ``factory`` (a
module-level callable), so ``spawn`` and ``fork`` start methods behave
identically; the parent's kernel dtype policy is captured and re-applied
in the child so both start methods produce the same bits.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pathlib
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ConfigError, DivergenceError, SupervisorError
from repro.faultfs import FaultSchedule, fault_scope
from repro.supervision import backoff, heartbeat
from repro.train.checkpoint import CheckpointManager

__all__ = ["Supervisor", "SupervisedRun", "TrainingRecipe", "TrainPlan"]


@dataclass
class TrainingRecipe:
    """Everything one training incarnation needs, built fresh per process.

    Returned by the supervisor's ``factory``.  The factory must be
    deterministic — same arguments, same initial weights and data — or
    rollback-and-replay cannot reproduce the uninterrupted trajectory.
    ``scheduler`` is optional; when present it is stepped once per epoch
    and its state rides the checkpoint.
    """

    model: Any
    task: Any
    optimizer: Any
    dataset: Any
    scheduler: Any = None
    batch_size: int = 32


@dataclass(frozen=True)
class TrainPlan:
    """A picklable fault plan for supervisor tests — production runs use none.

    All keys are **generation** numbers (0 = first child, +1 per
    respawn), mirroring :class:`~repro.serve.chaos.ChaosSchedule`'s
    incarnation keying: a respawned child starts clean unless the plan
    says otherwise, which is what lets kill schedules test recovery
    instead of flapping forever.

    Parameters
    ----------
    kill_after_epoch:
        ``{generation: (epoch, phase)}`` — that incarnation SIGKILLs
        itself after training epoch ``epoch`` (0-based), either
        ``"before_save"`` (the epoch's checkpoint is lost; recovery
        replays it) or ``"after_save"`` (checkpoint durable; recovery
        resumes past it).
    hang_after_epoch:
        ``{generation: epoch}`` — that incarnation stops heartbeating
        and wedges after the epoch's save; the parent must detect the
        silence and kill it.
    diverge_at_epoch:
        ``{generation: epoch}`` — that incarnation raises
        :class:`~repro.errors.DivergenceError` for epoch ``epoch``
        *instead of* training it (the real guard lives in
        ``Trainer.train_epoch``; this injects the same signal
        deterministically).
    fault_schedules:
        ``{generation: FaultSchedule}`` — filesystem faults installed
        for that incarnation's whole lifetime via
        :func:`repro.faultfs.fault_scope`; a torn write or
        crash-at-rename during a checkpoint save kills the child
        mid-save, which is the crash the atomic-write protocol exists
        to survive.
    """

    kill_after_epoch: Mapping[int, tuple[int, str]] = field(default_factory=dict)
    hang_after_epoch: Mapping[int, int] = field(default_factory=dict)
    diverge_at_epoch: Mapping[int, int] = field(default_factory=dict)
    fault_schedules: Mapping[int, FaultSchedule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for generation, planned in self.kill_after_epoch.items():
            epoch, phase = planned
            if phase not in ("before_save", "after_save"):
                raise ConfigError(
                    f"kill_after_epoch[{generation}] phase must be 'before_save' "
                    f"or 'after_save', got {phase!r}"
                )
            if epoch < 0:
                raise ConfigError(f"kill_after_epoch[{generation}] epoch must be >= 0")


@dataclass
class SupervisedRun:
    """Outcome of a completed supervised run."""

    #: Path of the final epoch's verified checkpoint.
    final_checkpoint: pathlib.Path | None
    #: Total epochs trained (across all incarnations, counted once).
    epochs: int
    #: Child incarnations that failed and were replaced.
    restarts: int
    #: One record per failure: ``{"generation", "reason", "detail"}``.
    events: list[dict] = field(default_factory=list)
    #: Mean loss of the final epoch, as reported by the child.
    final_loss: float | None = None


@dataclass(frozen=True)
class _Spec:
    """Everything the child needs, shipped picklable across the spawn."""

    factory: Callable[[], TrainingRecipe]
    epochs: int
    checkpoint_dir: str
    prefix: str
    keep_last: int
    heartbeat_timeout: float
    dtype_name: str
    plan: TrainPlan


def _child_main(conn, spec: _Spec, generation: int) -> None:
    """Child-process entry point: restore, train, checkpoint, heartbeat."""
    import repro.kernels

    repro.kernels.set_default_dtype(np.dtype(spec.dtype_name))

    send_lock = threading.Lock()

    def _send(message: dict) -> None:
        with send_lock:
            conn.send(message)

    def beat() -> None:
        _send({"type": "hb"})

    try:
        with heartbeat(spec.heartbeat_timeout, beat, "supervisor-heartbeat") as stop_heartbeat:
            schedule = spec.plan.fault_schedules.get(generation)
            if schedule is not None:
                with fault_scope(schedule):
                    _train_incarnation(_send, stop_heartbeat, spec, generation)
            else:
                _train_incarnation(_send, stop_heartbeat, spec, generation)
    except DivergenceError as exc:
        _send({"type": "diverged", "detail": str(exc)})
    finally:
        conn.close()


def _train_incarnation(send, stop_heartbeat, spec: _Spec, generation: int) -> None:
    """One incarnation's training loop: resume → epochs → done message."""
    from repro.data.dataloader import DataLoader
    from repro.train.trainer import Trainer

    recipe = spec.factory()
    if not isinstance(recipe, TrainingRecipe):
        raise ConfigError(
            f"supervisor factory must return a TrainingRecipe, "
            f"got {type(recipe).__name__}"
        )
    manager = CheckpointManager(
        spec.checkpoint_dir, prefix=spec.prefix, keep_last=spec.keep_last
    )
    metadata = manager.load_latest(
        recipe.model,
        optimizer=recipe.optimizer,
        scheduler=recipe.scheduler,
    )
    epochs_done = int(metadata.get("epochs_done", 0)) if metadata else 0
    send({"type": "resumed", "generation": generation, "epochs_done": epochs_done})

    trainer = Trainer(recipe.model, recipe.task, recipe.optimizer)
    final_loss: float | None = None
    for epoch in range(epochs_done, spec.epochs):
        if spec.plan.diverge_at_epoch.get(generation) == epoch:
            raise DivergenceError(
                f"injected divergence at epoch {epoch} (generation {generation})"
            )
        loader = DataLoader(recipe.dataset, batch_size=recipe.batch_size, shuffle=False)
        mean_loss, *_ = trainer.train_epoch(loader)
        if recipe.scheduler is not None:
            recipe.scheduler.step()
        final_loss = float(mean_loss)

        kill = spec.plan.kill_after_epoch.get(generation)
        if kill is not None and kill[0] == epoch and kill[1] == "before_save":
            os.kill(os.getpid(), signal.SIGKILL)
        manager.save(
            recipe.model,
            step=epoch + 1,
            metadata={"epochs_done": epoch + 1, "loss": final_loss},
            optimizer=recipe.optimizer,
            scheduler=recipe.scheduler,
        )
        if kill is not None and kill[0] == epoch and kill[1] == "after_save":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.plan.hang_after_epoch.get(generation) == epoch:
            stop_heartbeat.set()  # go silent; the parent must notice
            time.sleep(3600.0)
        send({"type": "epoch", "epoch": epoch + 1, "loss": final_loss})
    final = manager.latest_verified() if spec.epochs > 0 else None
    send(
        {
            "type": "done",
            "epochs": spec.epochs,
            "final": None if final is None else str(final),
            "loss": final_loss,
        }
    )


class Supervisor:
    """Run a deterministic training recipe to completion, surviving failures.

    Parameters
    ----------
    factory:
        Module-level callable returning a :class:`TrainingRecipe`; called
        with no arguments once per child incarnation.  Must be picklable
        (``spawn``-safe) and deterministic.
    epochs:
        Total epochs to train.  Progress is tracked in checkpoint
        metadata, so incarnations (and supervisor reruns) resume rather
        than restart.
    checkpoint_dir:
        Directory for the :class:`CheckpointManager` series.
    keep_last:
        Checkpoints retained after pruning (each with a ``.bak``).
    heartbeat_timeout:
        Seconds of child silence before it is declared hung and killed.
        The child beats 20 times per timeout
        (:data:`repro.supervision.BEATS_PER_TIMEOUT`).
    max_restarts:
        Failed incarnations tolerated before giving up with
        :class:`~repro.errors.SupervisorError` /
        :class:`~repro.errors.DivergenceError`.
    backoff_base, backoff_cap:
        Capped exponential delay between respawns:
        ``min(backoff_base * 2**(restarts-1), backoff_cap)``.
    plan:
        Optional :class:`TrainPlan` fault injection (tests only).
    """

    def __init__(
        self,
        factory: Callable[[], TrainingRecipe],
        *,
        epochs: int,
        checkpoint_dir,
        prefix: str = "ckpt",
        keep_last: int = 3,
        heartbeat_timeout: float = 30.0,
        max_restarts: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        plan: TrainPlan | None = None,
    ) -> None:
        if epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {epochs}")
        if heartbeat_timeout <= 0:
            raise ConfigError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_restarts < 0:
            raise ConfigError(f"max_restarts must be >= 0, got {max_restarts}")
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ConfigError(
                f"need 0 <= backoff_base <= backoff_cap, "
                f"got {backoff_base} / {backoff_cap}"
            )
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        import repro.kernels

        self._spec = _Spec(
            factory=factory,
            epochs=int(epochs),
            checkpoint_dir=str(checkpoint_dir),
            prefix=prefix,
            keep_last=int(keep_last),
            heartbeat_timeout=self.heartbeat_timeout,
            dtype_name=np.dtype(repro.kernels.get_default_dtype()).name,
            plan=plan if plan is not None else TrainPlan(),
        )

    # ------------------------------------------------------------------
    def run(self) -> SupervisedRun:
        """Train to completion; raises only after the retry budget is spent."""
        restarts = 0
        generation = 0
        events: list[dict] = []
        while True:
            outcome, detail, payload = self._run_generation(generation)
            if outcome == "done":
                final = payload.get("final")
                return SupervisedRun(
                    final_checkpoint=None if final is None else pathlib.Path(final),
                    epochs=int(payload.get("epochs", 0)),
                    restarts=restarts,
                    events=events,
                    final_loss=payload.get("loss"),
                )
            events.append({"generation": generation, "reason": outcome, "detail": detail})
            restarts += 1
            if restarts > self.max_restarts:
                summary = "; ".join(
                    f"gen {event['generation']}: {event['reason']} ({event['detail']})"
                    for event in events
                )
                if outcome == "diverged":
                    raise DivergenceError(
                        f"training diverged on every retry "
                        f"({restarts} failures > max_restarts={self.max_restarts}): "
                        f"{summary}"
                    )
                raise SupervisorError(
                    f"supervised training failed {restarts} times "
                    f"(max_restarts={self.max_restarts}): {summary}"
                )
            time.sleep(backoff(restarts, self.backoff_base, self.backoff_cap))
            generation += 1

    # ------------------------------------------------------------------
    def _run_generation(self, generation: int) -> tuple[str, str, dict]:
        """Spawn one child and watch it to completion or failure.

        Returns ``(outcome, detail, payload)`` with outcome one of
        ``"done"`` / ``"crashed"`` / ``"hung"`` / ``"diverged"``.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_main,
            args=(child_conn, self._spec, generation),
            name=f"train-supervisor-gen{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            while True:
                if not parent_conn.poll(self.heartbeat_timeout):
                    self._kill(process)
                    return (
                        "hung",
                        f"no heartbeat within {self.heartbeat_timeout}s",
                        {},
                    )
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    process.join()
                    return (
                        "crashed",
                        f"child exited with code {process.exitcode}",
                        {},
                    )
                kind = message.get("type")
                if kind == "done":
                    process.join(timeout=self.heartbeat_timeout)
                    if process.is_alive():  # pragma: no cover - defensive
                        self._kill(process)
                    return ("done", "", message)
                if kind == "diverged":
                    process.join(timeout=self.heartbeat_timeout)
                    if process.is_alive():  # pragma: no cover - defensive
                        self._kill(process)
                    return ("diverged", message.get("detail", ""), {})
                # "hb" / "resumed" / "epoch" messages are liveness.
        finally:
            parent_conn.close()

    @staticmethod
    def _kill(process) -> None:
        process.kill()
        process.join()
