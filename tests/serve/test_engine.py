"""InferenceEngine: chunking, counters, endpoints and option checks.

Endpoint values against the direct model, on both backends, are
checked by ``tests/test_parity_matrix.py``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro
from repro.data import pad_ragged
from repro.errors import ConfigError, ShapeError
from repro.serve import InferenceEngine, ModelArtifact, WorkerPool
from repro.serve.engine import check_engine_options
from tolerances import assert_parity

LENGTHS = [20, 14, 9]


def make_model(attention="vanilla", rng_seed=11, **overrides):
    params = dict(
        input_channels=2, max_len=28, dim=16, n_layers=2, n_heads=2,
        attention=attention, n_groups=64, dropout=0.0, n_classes=3,
    )
    params.update(overrides)
    model = repro.RitaModel(repro.RitaConfig(**params), rng=np.random.default_rng(rng_seed))
    for layer in model.group_attention_layers():
        layer.warm_start = False
    return model


def ragged_batch(rng, lengths=LENGTHS, channels=2):
    series = [rng.standard_normal((length, channels)) for length in lengths]
    padded, mask = pad_ragged(series)
    return series, padded, mask


class TestChunkLoop:
    """The serial chunk loop: bounded forwards and exact counters."""

    @staticmethod
    def spy_forward_rows(model, monkeypatch) -> list[int]:
        """Record the row count of every encoder forward the model runs."""
        rows: list[int] = []
        encode = model._encode

        def spy(series, mask=None):
            rows.append(len(np.asarray(getattr(series, "data", series))))
            return encode(series, mask)

        monkeypatch.setattr(model, "_encode", spy)
        return rows

    @pytest.mark.parametrize("limit", [1, 3, 6])
    @pytest.mark.parametrize("endpoint", ["classify", "predict", "embed", "reconstruct"])
    def test_chunk_forwards_and_counters(self, rng, monkeypatch, endpoint, limit):
        model = make_model().eval()
        x = rng.standard_normal((7, 20, 2))
        rows = self.spy_forward_rows(model, monkeypatch)
        engine = InferenceEngine(model, max_batch_size=limit)
        getattr(engine, endpoint)(x)
        expected_rows = [limit] * (7 // limit) + ([7 % limit] if 7 % limit else [])
        assert rows == expected_rows
        assert engine.stats.batches_total == len(expected_rows)
        assert engine.stats.requests_total == 7
        recorded = "classify" if endpoint == "predict" else endpoint
        assert engine.stats.by_endpoint == {recorded: 7}

    def test_ragged_request_chunks_like_a_dense_one(self, rng):
        _, padded, mask = ragged_batch(rng, lengths=[20, 14, 9, 17, 6])
        chunked = InferenceEngine(make_model().eval(), max_batch_size=2)
        chunked.classify(padded, mask=mask)
        assert chunked.stats.batches_total == 3
        assert chunked.stats.requests_total == 5

    def test_single_series_is_batch_of_one(self, rng):
        engine = InferenceEngine(make_model().eval())
        x = rng.standard_normal((4, 20, 2))
        np.testing.assert_array_equal(engine.classify(x[0]), engine.classify(x[:1]))

    def test_request_at_the_limit_is_one_forward(self, rng, monkeypatch):
        model = make_model().eval()
        rows = self.spy_forward_rows(model, monkeypatch)
        engine = InferenceEngine(model, max_batch_size=4)
        engine.classify(rng.standard_normal((4, 20, 2)))
        engine.classify(rng.standard_normal((5, 20, 2)))
        assert rows == [4, 4, 1]
        assert engine.stats.batches_total == 3
        assert engine.stats.requests_total == 9

    def test_group_model_chunks_are_reproducible(self, rng):
        # Group attention draws K-means RNG per forward, so each engine
        # gets its own identically-seeded model.
        x = rng.standard_normal((6, 24, 2))
        first, second = (
            InferenceEngine(make_model("group", n_groups=4).eval(), max_batch_size=2)
            for _ in range(2)
        )
        np.testing.assert_array_equal(first.classify(x), second.classify(x))
        assert first.stats.batches_total == second.stats.batches_total == 3


class TestForecast:
    def test_dense_forecast_matches_manual_extension(self, rng):
        model = make_model().eval()
        engine = InferenceEngine(model)
        x = rng.standard_normal((2, 16, 2))
        horizon = 4
        out = engine.forecast(x, horizon=horizon)
        assert out.shape == (2, horizon, 2)
        extended = np.concatenate(
            [x, np.full((2, horizon, 2), model.config.mask_value)], axis=1
        )
        assert_parity(out, engine.reconstruct(extended)[:, 16:, :], "forecast", np.float64)

    def test_ragged_forecast_matches_solo(self, rng):
        model = make_model().eval()
        engine = InferenceEngine(model)
        series = [rng.standard_normal((length, 2)) for length in (18, 12)]
        out = engine.forecast(series, horizon=3)
        for row, single in enumerate(series):
            assert_parity(
                out[row], engine.forecast(single, horizon=3)[0], "padded vs solo", np.float64
            )

    def test_forecast_counted_under_its_own_endpoint(self, rng):
        engine = InferenceEngine(make_model().eval())
        engine.forecast(rng.standard_normal((2, 16, 2)), horizon=4)
        assert engine.stats.by_endpoint == {"forecast": 2}

    def test_forecast_guards(self, rng):
        engine = InferenceEngine(make_model().eval())
        x = rng.standard_normal((1, 27, 2))
        with pytest.raises(ConfigError, match="max_len"):
            engine.forecast(x, horizon=10)
        with pytest.raises(ConfigError, match="horizon"):
            engine.forecast(x, horizon=0)


class TestSearch:
    def test_self_match_and_exhaustive_probe(self, rng):
        model = make_model().eval()
        engine = InferenceEngine(model)
        corpus = rng.standard_normal((12, 20, 2))
        index = engine.build_index(
            corpus, n_lists=4, n_probe=4, rng=np.random.default_rng(0)
        )
        assert len(index) == 12
        results = engine.search(corpus[:3], k=1)
        assert [ids[0] for ids, _ in results] == [0, 1, 2]

    def test_search_before_index_raises(self, rng):
        engine = InferenceEngine(make_model().eval())
        with pytest.raises(ConfigError, match="build_index"):
            engine.search(rng.standard_normal((1, 20, 2)))


class TestServingHygiene:
    def test_training_mode_restored(self, rng):
        model = make_model().train()
        engine = InferenceEngine(model)
        engine.classify(rng.standard_normal((2, 20, 2)))
        assert model.training

    def test_serving_grouping_policy_applied_and_restored(self, rng):
        model = make_model("group", n_groups=8, recluster_every=1).eval()
        engine = InferenceEngine(model, recluster_every=6, drift_tolerance=2.0)
        x = rng.standard_normal((2, 20, 2))
        engine.classify(x)
        engine.classify(x)  # identical request: zero drift, cache reuse
        layers = model.group_attention_layers()
        assert all(layer.recluster_every == 1 for layer in layers)
        assert all(layer.drift_tolerance == 0.5 for layer in layers)
        assert all(layer.reclusters_total == 1 for layer in layers)
        assert all(layer.grouping_steps_total == 2 for layer in layers)

    def test_invalid_inputs(self, rng):
        engine = InferenceEngine(make_model().eval())
        with pytest.raises(ConfigError, match="max_batch_size"):
            InferenceEngine(make_model(), max_batch_size=0)
        with pytest.raises(ConfigError, match="RitaModel or ModelArtifact"):
            InferenceEngine(np.zeros(3))
        with pytest.raises(ShapeError):
            engine.classify(rng.standard_normal((2, 3, 4, 5)))
        with pytest.raises(ConfigError, match="not both"):
            engine.classify(
                [rng.standard_normal((5, 2))], mask=np.ones((1, 5), dtype=bool)
            )
        with pytest.raises(ConfigError, match="pooling"):
            engine.embed(rng.standard_normal((1, 8, 2)), pooling="max")
        with pytest.raises(ShapeError, match="no series"):
            engine.classify([])


#: Engine options that are out of range, or unknown: each would crash a
#: spawned worker's engine build, respawn after respawn.
BAD_ENGINE_OPTIONS = [
    pytest.param({"max_batch_size": 0}, id="max_batch_size-0"),
    pytest.param({"recluster_every": 0}, id="recluster_every-0"),
    pytest.param({"drift_tolerance": -1.0}, id="drift_tolerance-negative"),
    pytest.param({"dtype": "int32"}, id="dtype-not-floating"),
    pytest.param({"recluster": 8}, id="unknown-name"),
]


class TestOptionChecks:
    @pytest.mark.parametrize("options", BAD_ENGINE_OPTIONS)
    def test_worker_pool_rejects_in_the_parent(self, options):
        artifact = ModelArtifact.from_model(make_model())
        with pytest.raises(ConfigError):
            WorkerPool(artifact, engine_kwargs=options)

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0])
    def test_worker_pool_rejects_a_non_positive_heartbeat_timeout(self, timeout_s):
        artifact = ModelArtifact.from_model(make_model())
        with pytest.raises(ConfigError, match="heartbeat_timeout_s must be > 0"):
            WorkerPool(artifact, heartbeat_timeout_s=timeout_s)

    @pytest.mark.parametrize("options", BAD_ENGINE_OPTIONS)
    def test_engine_rejects_before_building_the_model(self, options, monkeypatch):
        def build_model(self, rng=None):
            raise AssertionError("build_model ran before the option check")

        monkeypatch.setattr(ModelArtifact, "build_model", build_model)
        artifact = ModelArtifact.from_model(make_model())
        # An unknown keyword never reaches the check: Python rejects it.
        with pytest.raises(TypeError if "recluster" in options else ConfigError):
            InferenceEngine(artifact, **options)

    def test_check_takes_the_engine_options(self):
        engine = inspect.signature(InferenceEngine).parameters
        check = inspect.signature(check_engine_options).parameters
        assert list(engine)[1:] == [name for name in check if name != "unknown"]
