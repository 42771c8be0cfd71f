"""Checkpointing and early stopping."""

import numpy as np
import pytest

import repro
from repro.data import ArrayDataset
from repro.errors import ConfigError
from repro.model import RitaConfig, RitaModel
from repro.tasks import ClassificationTask
from repro.train import EarlyStopping, Trainer, load_checkpoint, save_checkpoint
from tolerances import assert_parity


@pytest.fixture
def model(rng):
    config = RitaConfig(
        input_channels=2, max_len=16, dim=16, n_layers=1, n_heads=2,
        attention="group", n_groups=4, dropout=0.0, n_classes=2,
    )
    return RitaModel(config, rng=rng)


class TestCheckpoint:
    def test_roundtrip_restores_weights(self, model, rng, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"epoch": 7, "note": "unit"})
        # Perturb every parameter, then load back.
        for p in model.parameters():
            p.data += 1.0
        metadata = load_checkpoint(model, path)
        assert metadata == {"epoch": 7, "note": "unit"}
        fresh = RitaModel(model.config, rng=np.random.default_rng(123))
        # Loading into a different instance of the same architecture works too.
        load_checkpoint(fresh, path)
        for (_, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_outputs_identical_after_reload(self, rng, tmp_path):
        # Vanilla attention is deterministic given weights; group attention
        # reclusters with its own RNG, so exact equality is tested here
        # with the deterministic mechanism.
        config = RitaConfig(
            input_channels=2, max_len=16, dim=16, n_layers=1, n_heads=2,
            attention="vanilla", dropout=0.0, n_classes=2,
        )
        model = RitaModel(config, rng=rng).eval()
        x = rng.random((3, 16, 2))
        before = model.classify(x).data
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        clone = RitaModel(config, rng=np.random.default_rng(9)).eval()
        load_checkpoint(clone, path)
        assert_parity(clone.classify(x).data, before, "checkpoint", np.float64)

    def test_missing_suffix_resolved(self, model, tmp_path):
        path = tmp_path / "weights"
        save_checkpoint(model, path)  # numpy appends .npz
        load_checkpoint(model, path)

    def test_architecture_mismatch_raises(self, model, rng, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other_config = RitaConfig(
            input_channels=2, max_len=16, dim=32, n_layers=1, n_heads=2,
            attention="group", n_groups=4, n_classes=2,
        )
        other = RitaModel(other_config, rng=rng)
        with pytest.raises(ConfigError):
            load_checkpoint(other, path)

    def test_empty_metadata_default(self, model, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        assert load_checkpoint(model, path) == {}


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping("accuracy", mode="max", patience=2, restore_best=False)
        values = [0.5, 0.6, 0.55, 0.58]  # two non-improving epochs after 0.6
        stops = [stopper.update(v) for v in values]
        assert stops == [False, False, False, True]
        assert stopper.best_value == pytest.approx(0.6)

    def test_min_mode(self):
        stopper = EarlyStopping("mse", mode="min", patience=1, restore_best=False)
        assert not stopper.update(1.0)
        assert not stopper.update(0.5)
        assert stopper.update(0.6)

    def test_min_delta(self):
        stopper = EarlyStopping("accuracy", patience=1, min_delta=0.05, restore_best=False)
        stopper.update(0.5)
        # +0.01 improvement below min_delta counts as stale.
        assert stopper.update(0.51)

    def test_restore_best_weights(self, model, rng):
        stopper = EarlyStopping("accuracy", patience=1, restore_best=True)
        stopper.update(0.9, model)
        best = {n: p.data.copy() for n, p in model.named_parameters()}
        for p in model.parameters():
            p.data += 1.0
        stopped = stopper.update(0.1, model)
        assert stopped
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, best[name])

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            EarlyStopping("accuracy", mode="median")
        with pytest.raises(ConfigError):
            EarlyStopping("accuracy", patience=0)

    def test_trainer_integration_stops_early(self, model, rng):
        x = rng.random((16, 16, 2))
        y = rng.integers(0, 2, 16)
        train = ArrayDataset(x=x[:12], y=y[:12])
        val = ArrayDataset(x=x[12:], y=y[12:])
        trainer = Trainer(model, ClassificationTask(), repro.AdamW(model.parameters(), lr=1e-4))
        stopper = EarlyStopping("accuracy", patience=1, min_delta=1.0, restore_best=False)
        history = trainer.fit(
            train, epochs=10, batch_size=8, val_dataset=val, rng=rng,
            early_stopping=stopper,
        )
        # min_delta=1.0 means nothing ever "improves" past epoch 1 -> stop at 2.
        assert len(history.epochs) == 2


class TestNaiveForecasters:
    def test_persistence(self, rng):
        from repro.baselines import PersistenceForecaster
        history = rng.random((2, 10, 3))
        out = PersistenceForecaster().predict(history, horizon=4)
        assert out.shape == (2, 4, 3)
        np.testing.assert_array_equal(out[:, 0], history[:, -1])
        np.testing.assert_array_equal(out[:, 3], history[:, -1])

    def test_seasonal_naive_exact_on_periodic(self):
        from repro.baselines import SeasonalNaiveForecaster
        t = np.arange(64)
        wave = np.sin(2 * np.pi * t / 16)[None, :, None]
        out = SeasonalNaiveForecaster(period=16).predict(wave, horizon=16)
        np.testing.assert_allclose(out[0, :, 0], wave[0, :16, 0], atol=1e-12)

    def test_seasonal_estimates_period(self):
        from repro.baselines import SeasonalNaiveForecaster, estimate_period
        t = np.arange(128)
        wave = np.sin(2 * np.pi * t / 8)
        assert estimate_period(wave) == 8
        out = SeasonalNaiveForecaster().predict(wave[None, :, None], horizon=8)
        np.testing.assert_allclose(out[0, :, 0], wave[:8], atol=1e-9)

    def test_seasonal_beats_persistence_on_periodic(self, rng):
        from repro.baselines import PersistenceForecaster, SeasonalNaiveForecaster
        t = np.arange(96)
        wave = np.sin(2 * np.pi * t / 12)[None, :, None]
        history, future = wave[:, :84], wave[:, 84:]
        seasonal = SeasonalNaiveForecaster(period=12).predict(history, 12)
        persistence = PersistenceForecaster().predict(history, 12)
        seasonal_mse = float(((seasonal - future) ** 2).mean())
        persistence_mse = float(((persistence - future) ** 2).mean())
        assert seasonal_mse < persistence_mse

    def test_mean_forecaster(self, rng):
        from repro.baselines import MeanForecaster
        history = rng.random((2, 20, 2))
        out = MeanForecaster().predict(history, horizon=3)
        np.testing.assert_allclose(out[:, 0], history.mean(axis=1))

    def test_invalid_inputs(self, rng):
        from repro.baselines import PersistenceForecaster, SeasonalNaiveForecaster
        from repro.errors import ConfigError, ShapeError
        with pytest.raises(ShapeError):
            PersistenceForecaster().predict(rng.random((5, 4)), 2)
        with pytest.raises(ConfigError):
            PersistenceForecaster().predict(rng.random((1, 5, 1)), 0)
        with pytest.raises(ConfigError):
            SeasonalNaiveForecaster(period=0)
