"""Variable-length series through the full model: parity, pooling, chunking.

Vanilla and group attention's padded-vs-solo parity: ``tests/test_parity_matrix.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.autograd.tensor import Tensor
from repro.data import DataLoader, RaggedDataset, pad_collate, pad_ragged
from repro.errors import ConfigError, ShapeError
from repro.model import RitaConfig, RitaModel
from repro.serve import InferenceEngine
from repro.tasks import ClassificationTask
from repro.train import Trainer
from tolerances import assert_parity

LENGTHS = [20, 14, 9]


def make_model(attention="vanilla", rng=None, **overrides):
    config = RitaConfig(
        input_channels=2, max_len=24, dim=16, n_layers=2, n_heads=2,
        attention=attention, n_groups=32, dropout=0.0, n_classes=3,
        **overrides,
    )
    return RitaModel(config, rng=rng or np.random.default_rng(11))


def ragged_batch(rng, lengths=LENGTHS, channels=2):
    series = [rng.standard_normal((length, channels)) for length in lengths]
    padded, mask = pad_ragged(series)
    return series, padded, mask


class TestEncodeParity:
    @pytest.mark.parametrize("attention", ["local", "performer", "linformer"])
    def test_padded_encode_matches_unpadded(self, rng, attention):
        """Acceptance: full RitaModel.encode parity on a ragged batch."""
        model = make_model(attention).eval()
        series, padded, mask = ragged_batch(rng)
        cls_padded, windows_padded = model.encode(padded, mask=mask)
        wmask = model.window_mask(mask)
        for b, single in enumerate(series):
            cls_solo, windows_solo = model.encode(single[None])
            assert_parity(
                cls_padded.data[b], cls_solo.data[0], "padded vs solo", np.float64,
                f"{attention}: CLS parity broken for sequence {b}",
            )
            n_valid = int(wmask[b].sum())
            assert n_valid == windows_solo.shape[1]
            assert_parity(
                windows_padded.data[b, :n_valid], windows_solo.data[0], "padded vs solo",
                np.float64, f"{attention}: window parity broken for sequence {b}",
            )

    def test_padding_content_cannot_leak(self, rng):
        model = make_model("vanilla").eval()
        _, padded, mask = ragged_batch(rng)
        garbage = padded.copy()
        garbage[~mask] = 777.0
        cls_a, _ = model.encode(padded, mask=mask)
        cls_b, _ = model.encode(garbage, mask=mask)
        np.testing.assert_array_equal(cls_a.data, cls_b.data)

    def test_classify_and_reconstruct_accept_mask(self, rng):
        model = make_model("group").eval()
        _, padded, mask = ragged_batch(rng)
        logits = model.classify(padded, mask=mask)
        assert logits.shape == (3, 3)
        recon = model.reconstruct(padded, mask=mask)
        assert recon.shape == padded.shape


class TestReconstructParity:
    @pytest.mark.parametrize("attention", ["local", "performer", "linformer"])
    def test_padded_reconstruct_matches_unpadded(self, rng, attention):
        """Regression: the decoder's receptive field at the last
        ``conv_padding`` valid timesteps straddles windows past the valid
        range; their (unspecified) embeddings used to contaminate the
        reconstruction of the valid tail."""
        model = make_model(attention).eval()
        series, padded, mask = ragged_batch(rng)
        recon = model.reconstruct(padded, mask=mask)
        for b, single in enumerate(series):
            solo = model.reconstruct(single[None])
            assert_parity(
                recon.data[b, : len(single)], solo.data[0], "padded vs solo", np.float64,
                f"{attention}: reconstruct parity broken for sequence {b}",
            )

    def test_reconstruct_valid_region_independent_of_pad_content(self, rng):
        model = make_model("vanilla").eval()
        _, padded, mask = ragged_batch(rng)
        garbage = padded.copy()
        garbage[~mask] = 777.0
        recon_a = model.reconstruct(padded, mask=mask)
        recon_b = model.reconstruct(garbage, mask=mask)
        np.testing.assert_array_equal(recon_a.data[mask], recon_b.data[mask])


class TestWindowMask:
    def test_rejects_non_left_aligned(self, rng):
        model = make_model()
        mask = np.ones((2, 10), dtype=bool)
        mask[0, 3] = False  # hole in the middle
        with pytest.raises(ShapeError):
            model.window_mask(mask)

    def test_rejects_empty_sequence(self):
        model = make_model()
        mask = np.zeros((1, 10), dtype=bool)
        with pytest.raises(ShapeError):
            model.window_mask(mask)

    def test_window_counts_match_config(self):
        model = make_model()
        mask = np.arange(12) < np.array([12, 7])[:, None]
        wmask = model.window_mask(mask)
        expected = [model.config.n_windows(12), model.config.n_windows(7)]
        np.testing.assert_array_equal(wmask.sum(axis=1), expected)


class TestMaskedMeanPooling:
    def test_pool_windows_excludes_padded(self, rng):
        windows = Tensor(rng.standard_normal((2, 6, 4)))
        wmask = np.arange(6) < np.array([6, 3])[:, None]
        pooled = RitaModel.pool_windows(windows, wmask)
        np.testing.assert_allclose(pooled.data[1], windows.data[1, :3].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(pooled.data[0], windows.data[0].mean(axis=0), atol=1e-12)

    def test_unknown_pooling_raises(self, rng):
        engine = InferenceEngine(make_model())
        _, padded, mask = ragged_batch(rng)
        with pytest.raises(ConfigError, match="pooling"):
            engine.embed(padded, mask=mask, pooling="max")
        assert engine.stats.requests_total == 0  # rejected before any forward


class TestChunkedInference:
    def test_chunked_predict_is_classify_argmax(self, rng):
        model = make_model("vanilla")
        x = rng.standard_normal((7, 16, 2))
        np.testing.assert_array_equal(
            InferenceEngine(model, max_batch_size=2).predict(x),
            InferenceEngine(model).classify(x).argmax(axis=-1),
        )

    def test_invalid_batch_size_raises(self):
        for max_batch_size in (0, -2):
            with pytest.raises(ConfigError, match="max_batch_size"):
                InferenceEngine(make_model(), max_batch_size=max_batch_size)

    def test_restores_training_mode(self, rng):
        model = make_model().train()
        InferenceEngine(model, max_batch_size=2).classify(rng.standard_normal((4, 16, 2)))
        assert model.training


class TestRaggedTraining:
    def test_classification_trains_on_ragged_batches(self, rng):
        """End-to-end: ragged dataset -> bucketed loader -> trainer epoch."""
        lengths = rng.integers(8, 24, size=12).tolist()
        series = [rng.standard_normal((length, 2)) for length in lengths]
        labels = rng.integers(0, 3, size=12)
        dataset = RaggedDataset(series, y=labels)
        loader = DataLoader(
            dataset, batch_size=4, shuffle=True, rng=rng,
            collate_fn=pad_collate, bucket_by_length=True,
        )
        model = make_model("group")
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        mean_loss, seconds, grouping, reclusters = trainer.train_epoch(loader)
        assert np.isfinite(mean_loss)
        assert reclusters > 0

    def test_fit_with_ragged_validation(self, rng):
        from repro.train import evaluate_task

        lengths = rng.integers(8, 24, size=10).tolist()
        dataset = RaggedDataset(
            [rng.standard_normal((length, 2)) for length in lengths],
            y=rng.integers(0, 3, size=10),
        )
        model = make_model("vanilla")
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-3))
        history = trainer.fit(
            dataset, epochs=2, batch_size=4, val_dataset=dataset, rng=rng,
            collate_fn=pad_collate, bucket_by_length=True,
        )
        assert len(history.epochs) == 2
        assert all(np.isfinite(e.train_loss) for e in history.epochs)
        assert "accuracy" in history.final.val_metrics
        summary = evaluate_task(model, ClassificationTask(), dataset, collate_fn=pad_collate)
        assert 0.0 <= summary["accuracy"] <= 1.0

    def test_evaluate_task_on_ragged_loader(self, rng):
        lengths = rng.integers(8, 24, size=8).tolist()
        dataset = RaggedDataset(
            [rng.standard_normal((length, 2)) for length in lengths],
            y=rng.integers(0, 3, size=8),
        )
        model = make_model("vanilla")
        task = ClassificationTask()
        loader = DataLoader(dataset, batch_size=4, collate_fn=pad_collate)
        totals: dict[str, float] = {}
        for batch in loader:
            for key, value in task.evaluate(model, batch).items():
                totals[key] = totals.get(key, 0.0) + value
        summary = task.summarize(totals)
        assert 0.0 <= summary["accuracy"] <= 1.0


class TestRaggedReconstructionTasks:
    def _ragged_batch(self, rng):
        from repro.data.masking import Scaler

        _, padded, mask = ragged_batch(rng, lengths=[20, 14, 9])
        padded = np.abs(padded)  # scaler-friendly non-negative series
        scaler = Scaler.fit(padded)
        return scaler, {"x": padded, "mask": mask}

    def test_imputation_masks_only_valid_timesteps(self, rng):
        from repro.tasks import ImputationTask

        scaler, batch = self._ragged_batch(rng)
        task = ImputationTask(scaler, mask_rate=0.3, rng=rng)
        scaled, masked, mask = task._prepare(batch)
        assert not mask[~batch["mask"]].any()           # never in the padding
        assert mask.any(axis=(1, 2)).all()              # >= 1 target per sample
        model = make_model("vanilla")
        loss = task.loss(model, batch)
        assert np.isfinite(float(loss.data))

    def test_forecasting_masks_valid_tail(self, rng):
        from repro.tasks import ForecastingTask

        scaler, batch = self._ragged_batch(rng)
        task = ForecastingTask(scaler, horizon=3)
        _, _, mask = task._prepare(batch)
        lengths = batch["mask"].sum(axis=1)
        for b, length in enumerate(lengths):
            expected = np.zeros(batch["x"].shape[1], dtype=bool)
            expected[length - 3 : length] = True
            np.testing.assert_array_equal(mask[b, :, 0], expected)
        model = make_model("vanilla")
        assert np.isfinite(float(task.loss(model, batch).data))

    def test_forecasting_horizon_too_long_raises(self, rng):
        from repro.tasks import ForecastingTask

        scaler, batch = self._ragged_batch(rng)
        task = ForecastingTask(scaler, horizon=9)  # shortest sequence is 9
        with pytest.raises(ShapeError):
            task._prepare(batch)


class TestMaskUnawareBaselines:
    def test_ragged_batch_raises_clear_error(self, rng):
        """Mask-unaware models must get a ConfigError on ragged batches,
        not a confusing TypeError from an unexpected keyword."""
        from repro.baselines import TSTConfig, TSTModel
        from repro.tasks import ImputationTask
        from repro.data.masking import Scaler

        _, padded, mask = ragged_batch(rng)
        batch = {"x": padded, "mask": mask, "y": np.zeros(3, dtype=int)}
        tst = TSTModel(TSTConfig(input_channels=2, max_len=24, n_classes=3),
                       rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            ClassificationTask().loss(tst, batch)
        scaler = Scaler.fit(np.abs(padded))
        with pytest.raises(ConfigError):
            ImputationTask(scaler, rng=rng).loss(tst, {"x": np.abs(padded), "mask": mask})

    def test_dense_batches_still_serve_baselines(self, rng):
        from repro.baselines import TSTConfig, TSTModel

        tst = TSTModel(TSTConfig(input_channels=2, max_len=24, n_classes=3),
                       rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 24, 2))
        batch = repro.pad_collate({"x": x, "y": np.zeros(4, dtype=int)})
        loss = ClassificationTask().loss(tst, batch)
        assert np.isfinite(float(loss.data))
