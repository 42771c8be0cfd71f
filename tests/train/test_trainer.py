"""Trainer: epoch loop, history, timing, OOM checks, dynamic batch size."""

import numpy as np
import pytest

import repro
from repro.data import ArrayDataset
from repro.errors import ConfigError, SimulatedOOMError
from repro.model import RitaConfig, RitaModel
from repro.scheduler import AdaptiveScheduler, BatchSizePredictor
from repro.simgpu import SimulatedGPU
from repro.tasks import ClassificationTask
from repro.train import History, Trainer, evaluate_task
from repro.train.trainer import EpochStats
from tolerances import assert_parity


@pytest.fixture
def setup(rng):
    x = rng.random((24, 16, 2))
    y = rng.integers(0, 2, 24)
    train = ArrayDataset(x=x[:16], y=y[:16])
    val = ArrayDataset(x=x[16:], y=y[16:])
    config = RitaConfig(
        input_channels=2, max_len=16, dim=16, n_layers=1, n_heads=2,
        attention="group", n_groups=4, dropout=0.0, n_classes=2,
    )
    model = RitaModel(config, rng=rng)
    return model, train, val


class TestHistory:
    def test_summaries(self):
        history = History()
        for i, sec in enumerate([1.0, 3.0]):
            history.append(EpochStats(
                epoch=i, train_loss=1.0, seconds=sec, grouping_seconds=0.1,
                batch_size=8, mean_groups=4.0, val_metrics={"accuracy": 0.5 + i * 0.2},
            ))
        assert history.avg_epoch_seconds() == pytest.approx(2.0)
        assert history.total_grouping_seconds() == pytest.approx(0.2)
        assert history.best("accuracy") == pytest.approx(0.7)
        assert history.final.epoch == 1

    def test_empty_history_errors(self):
        history = History()
        with pytest.raises(ConfigError):
            _ = history.final
        with pytest.raises(ConfigError):
            history.best("accuracy")
        assert history.avg_epoch_seconds() == 0.0


class TestTrainerFit:
    def test_records_epochs_and_metrics(self, setup, rng):
        model, train, val = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(train, epochs=2, batch_size=8, val_dataset=val, rng=rng)
        assert len(history.epochs) == 2
        assert "accuracy" in history.final.val_metrics
        assert history.final.seconds > 0
        assert history.final.mean_groups == pytest.approx(4.0)

    @pytest.mark.parametrize("backend", ["fused", "reference"])
    def test_batches_do_not_depend_on_kernel_backend(self, setup, rng, backend):
        """33 rows at batch_size=32 train as [32, 1] on every backend: the
        backend changes how kernels run, never how batches are carved."""
        import repro.kernels as K

        model, _, _ = setup
        sizes: list[int] = []

        class RecordingTask(ClassificationTask):
            def loss(self, model, batch):
                sizes.append(len(batch["x"]))
                return super().loss(model, batch)

        train = ArrayDataset(x=rng.random((33, 16, 2)), y=rng.integers(0, 2, 33))
        trainer = Trainer(model, RecordingTask(), repro.AdamW(model.parameters(), lr=1e-3))
        with K.use_backend(backend):
            trainer.fit(train, epochs=1, batch_size=32, rng=rng)
        assert sizes == [32, 1]

    def test_epoch_loss_does_not_depend_on_kernel_backend(self, rng):
        """Same data, same seed: fused and the reference oracle train the
        same epochs to within rounding."""
        import repro.kernels as K

        x, y = rng.random((33, 16, 2)), rng.integers(0, 2, 33)
        losses = {}
        for backend in ("fused", "reference"):
            config = RitaConfig(
                input_channels=2, max_len=16, dim=16, n_layers=1, n_heads=2,
                attention="vanilla", dropout=0.0, n_classes=2,
            )
            model = RitaModel(config, rng=np.random.default_rng(3))
            trainer = Trainer(
                model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3)
            )
            with K.use_backend(backend):
                history = trainer.fit(
                    ArrayDataset(x=x, y=y), epochs=2, batch_size=32,
                    rng=np.random.default_rng(9),
                )
            losses[backend] = [epoch.train_loss for epoch in history.epochs]
        assert_parity(losses["reference"], losses["fused"], "training", np.float64)

    def test_training_reduces_loss(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=3e-3))
        history = trainer.fit(train, epochs=6, batch_size=8, rng=rng)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_adaptive_scheduler_integration(self, setup, rng):
        model, train, _ = setup
        scheduler = AdaptiveScheduler.for_model(model)
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            adaptive_scheduler=scheduler,
        )
        trainer.fit(train, epochs=1, batch_size=8, rng=rng)
        assert len(scheduler.history[0]) > 1  # stepped once per batch

    def test_grouping_seconds_tracked(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(train, epochs=1, batch_size=8, rng=rng)
        assert history.final.grouping_seconds > 0

    def test_grouping_accounting_charges_deltas_not_stale_stats(self, setup, rng):
        """Per-epoch grouping time equals the layers' cumulative deltas.

        The old accounting re-summed every layer's ``last_stats`` each
        batch, so a layer that skipped grouping re-counted its previous
        value; the delta form makes the epoch totals sum exactly to the
        cumulative counters on the layers.
        """
        model, train, _ = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(train, epochs=3, batch_size=8, rng=rng)
        layer_total = sum(
            layer.grouping_seconds_total for layer in model.group_attention_layers()
        )
        assert history.total_grouping_seconds() == pytest.approx(layer_total, rel=1e-9)

    def test_reclusters_per_epoch_recorded(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(train, epochs=2, batch_size=8, rng=rng)
        # Default cadence reclusters on every step of every grouping layer.
        batches_per_epoch = 2  # 16 samples / batch 8
        layers = len(model.group_attention_layers())
        assert history.final.reclusters == batches_per_epoch * layers

    def test_amortized_cadence_reclusters_less(self, setup, rng):
        model, train, _ = setup
        for layer in model.group_attention_layers():
            layer.recluster_every = 100
            layer.drift_tolerance = 1e9
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(train, epochs=2, batch_size=16, rng=rng, shuffle=False)
        # Full-batch training with a generous drift guard: only the first
        # step of each layer reclusters; later epochs serve the cache.
        assert history.epochs[0].reclusters == len(model.group_attention_layers())
        assert history.epochs[1].reclusters == 0

    def test_clip_norm_applied(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            clip_norm=1e-9,  # absurdly small: updates should be ~frozen
        )
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        trainer.fit(train, epochs=1, batch_size=8, rng=rng)
        drift = max(
            float(np.abs(p.data - before[n]).max()) for n, p in model.named_parameters()
        )
        assert drift < 1e-3


class TestMemoryChecks:
    def test_oom_raised_under_tiny_device(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        with SimulatedGPU(capacity=10):
            with pytest.raises(SimulatedOOMError):
                trainer.fit(train, epochs=1, batch_size=8, rng=rng)

    def test_accounting_length_overrides(self, setup, rng):
        model, train, _ = setup
        # Account at paper length 10,000 even though data is length 16.
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            accounting_length=10_000,
        )
        small_capacity = model.estimate_step_bytes(8, 16) * 10
        with SimulatedGPU(capacity=small_capacity):
            with pytest.raises(SimulatedOOMError):
                trainer.fit(train, epochs=1, batch_size=8, rng=rng)

    def test_no_device_no_check(self, setup, rng):
        model, train, _ = setup
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            accounting_length=10_000_000,
        )
        trainer.fit(train, epochs=1, batch_size=8, rng=rng)  # must not raise


class TestDynamicBatch:
    def test_batch_grows_when_predictor_allows(self, setup, rng):
        model, train, _ = setup
        mm = model.memory_model()
        predictor = BatchSizePredictor(
            lambda b, l, n: mm.step_bytes("group", b, l, n_groups=int(n)),
            capacity=1 << 30,
        )
        predictor.fit(l_max=64, n_points=40, rng=rng)
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            batch_predictor=predictor, max_batch_size=16,
        )
        loader_history = trainer.fit(train, epochs=2, batch_size=2, rng=rng)
        assert loader_history.epochs[-1].batch_size >= 2

    def test_batch_capped_by_dataset_and_max(self, setup, rng):
        model, train, _ = setup
        class HugePredictor:
            def predict(self, length, groups):
                return 10_000
        trainer = Trainer(
            model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3),
            batch_predictor=HugePredictor(), max_batch_size=12,
        )
        history = trainer.fit(train, epochs=2, batch_size=2, rng=rng)
        assert history.epochs[-1].batch_size <= 12


class TestEvaluationHelpers:
    def test_evaluate_task_summary(self, setup):
        model, train, val = setup
        metrics = evaluate_task(model, ClassificationTask(), val)
        assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("batch_size", [1, 3, 5])
    def test_evaluate_task_does_not_depend_on_batch_size(self, rng, batch_size):
        """Per-batch sums re-accumulate to the one-batch answer."""
        config = RitaConfig(
            input_channels=2, max_len=16, dim=16, n_layers=1, n_heads=2,
            attention="vanilla", dropout=0.0, n_classes=3,
        )
        model = RitaModel(config, rng=np.random.default_rng(5))
        val = ArrayDataset(x=rng.standard_normal((11, 12, 2)), y=rng.integers(0, 3, 11))
        whole = evaluate_task(model, ClassificationTask(), val, batch_size=len(val))
        batched = evaluate_task(model, ClassificationTask(), val, batch_size=batch_size)
        assert batched["accuracy"] == whole["accuracy"]
        assert_parity(batched["loss"], whole["loss"], "evaluation batch size", np.float64)

    def test_evaluate_task_reproducible_for_group_models(self, rng):
        """Group attention draws K-means RNG per forward; identically seeded
        models evaluate to identical metrics."""
        val = ArrayDataset(x=rng.standard_normal((8, 12, 2)), y=rng.integers(0, 3, 8))
        results = []
        for _ in range(2):
            config = RitaConfig(
                input_channels=2, max_len=16, dim=8, n_layers=1, n_heads=2,
                attention="group", n_groups=3, dropout=0.0, n_classes=3,
            )
            model = RitaModel(config, rng=np.random.default_rng(5))
            for layer in model.group_attention_layers():
                layer.warm_start = False
            results.append(evaluate_task(model, ClassificationTask(), val, batch_size=2))
        assert results[0] == results[1]

    def test_evaluate_restores_training_mode(self, setup):
        model, _, val = setup
        model.train()
        evaluate_task(model, ClassificationTask(), val)
        assert model.training
        model.eval()
        evaluate_task(model, ClassificationTask(), val)
        assert not model.training

    def test_measure_inference_positive(self, setup):
        model, _, val = setup
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        assert trainer.measure_inference(val) > 0

    def test_measure_inference_reconstruction_model(self, rng):
        config = RitaConfig(
            input_channels=2, max_len=16, dim=16, n_layers=1, attention="group",
            n_groups=4, dropout=0.0,
        )
        model = RitaModel(config, rng=rng)
        val = ArrayDataset(x=rng.random((6, 16, 2)))
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        assert trainer.measure_inference(val) > 0


class TestMetricsModule:
    def test_accuracy(self):
        from repro.train import accuracy
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_mse_mae(self):
        from repro.train import mae, mse
        assert mse(np.array([1.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)
        assert mae(np.array([1.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_macro_f1_perfect(self):
        from repro.train import macro_f1
        y = np.array([0, 0, 1, 1, 2])
        assert macro_f1(y, y) == pytest.approx(1.0)

    def test_macro_f1_worst(self):
        from repro.train import macro_f1
        assert macro_f1(np.array([1, 1]), np.array([0, 0])) == 0.0
