"""StreamingSession: only new windows encode; drains, caching and guards."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.data import sliding_windows
from repro.errors import ConfigError, ShapeError
from repro.serve import InferenceEngine, StreamingSession
from tolerances import assert_parity


def make_engine(attention="vanilla", **overrides):
    params = dict(
        input_channels=2, max_len=20, dim=16, n_layers=2, n_heads=2,
        attention=attention, n_groups=64, dropout=0.0, n_classes=3,
    )
    params.update(overrides)
    model = repro.RitaModel(repro.RitaConfig(**params), rng=np.random.default_rng(31)).eval()
    for layer in model.group_attention_layers():
        layer.warm_start = False
    return InferenceEngine(model)


class TestStreamedParity:
    """Only new windows encode; streamed values are checked by the parity matrix."""

    def test_every_window_encoded_exactly_once(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=16, step=4)
        stream = rng.standard_normal((56, 2))
        for start in range(0, len(stream), 7):  # ragged appends
            session.append(stream[start : start + 7])
        assert len(session.outputs()) == len(sliding_windows(stream, 16, 4))
        # The recompute counter is the contract: every window encoded
        # exactly once, no matter how the appends were sliced.
        assert session.windows_encoded_total == len(sliding_windows(stream, 16, 4))

    def test_only_new_windows_encoded_per_append(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=8, step=4)
        session.append(rng.standard_normal((8, 2)))
        assert session.windows_encoded_total == 1
        out = session.append(rng.standard_normal((3, 2)))  # mid-window
        assert len(out) == 0 and session.windows_encoded_total == 1
        out = session.append(rng.standard_normal((1, 2)))  # completes window 2
        assert len(out) == 1 and session.windows_encoded_total == 2
        out = session.append(rng.standard_normal((8, 2)))  # two more windows
        assert len(out) == 2 and session.windows_encoded_total == 4

    def test_empty_append_matches_output_row_shape(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=8, step=4)
        stream = rng.standard_normal((14, 2))
        # (5,) lands mid-window *before any window exists*, (3,) completes
        # window 0, (3,) mid-window, (1,) completes window 1, (2,)
        # mid-window: concatenating every append's result must work.
        bounds = ((0, 5), (5, 8), (8, 11), (11, 12), (12, 14))
        pieces = [session.append(stream[a:b]) for a, b in bounds]
        assert [p.shape for p in pieces] == [(0, 16), (1, 16), (0, 16), (1, 16), (0, 16)]
        combined = np.concatenate(pieces)
        assert_parity(combined, session.outputs(), "streaming", np.float64)

    def test_drain_releases_outputs_and_keeps_geometry(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=8, step=4)
        stream = rng.standard_normal((24, 2))
        session.append(stream[:12])          # windows 0, 1
        first = session.drain()
        assert first.shape[0] == 2 and session.n_windows == 2
        assert session.drain().shape == (0, 16)  # nothing new: empty, right shape
        session.append(stream[12:24])        # windows 2, 3, 4
        second = session.drain()
        assert second.shape[0] == 3 and session.n_windows == 5
        # Drained pieces together == the full-batch recompute.
        full = engine.embed(sliding_windows(stream, 8, 4))
        assert_parity(np.concatenate([first, second]), full, "streaming", np.float64)
        with pytest.raises(ConfigError, match="no undrained"):
            session.outputs()

    def test_outputs_are_cache_hits(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=8, step=4)
        session.append(rng.standard_normal((16, 2)))
        encoded = session.windows_encoded_total
        first = session.outputs()
        second = session.outputs()
        np.testing.assert_array_equal(first, second)
        assert session.windows_encoded_total == encoded
        assert session.windows_reused_total == 2 * len(first)

    def test_step_larger_than_window(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=4, step=6)
        stream = rng.standard_normal((20, 2))
        for start in range(0, 20, 5):
            session.append(stream[start : start + 5])
        full = getattr(engine, "embed")(sliding_windows(stream, 4, 6))
        assert_parity(session.outputs(), full, "streaming", np.float64)

    def test_buffer_stays_bounded(self, rng):
        engine = make_engine()
        session = StreamingSession(engine, window=8, step=4)
        for _ in range(30):
            session.append(rng.standard_normal((4, 2)))
        assert session._buffer.shape[0] <= 8 + 4
        assert session.samples_seen == 120


class TestSessionHygiene:
    def test_recluster_cadence_override_and_restore(self, rng):
        engine = make_engine("group", n_groups=4, recluster_every=1)
        layers = engine.model.group_attention_layers()
        with StreamingSession(engine, window=8, step=4, recluster_every=5) as session:
            assert all(layer.recluster_every == 5 for layer in layers)
            session.append(rng.standard_normal((16, 2)))
        assert all(layer.recluster_every == 1 for layer in layers)

    def test_guards(self, rng):
        engine = make_engine()
        with pytest.raises(ConfigError, match="endpoint"):
            StreamingSession(engine, window=8, endpoint="forecast")
        with pytest.raises(ConfigError, match="window"):
            StreamingSession(engine, window=0)
        session = StreamingSession(engine, window=8)
        with pytest.raises(ConfigError, match="append more samples"):
            session.outputs()
        with pytest.raises(ShapeError, match=r"\(t, m\)"):
            session.append(rng.standard_normal(5))
        session.append(rng.standard_normal((4, 2)))
        with pytest.raises(ShapeError, match="channels"):
            session.append(rng.standard_normal((4, 3)))
