"""RITA model: config validation, shapes, heads, overfitting sanity."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigError, ShapeError
from repro.model import RitaConfig, RitaModel, TimeAwareConvolution, build_attention
from repro.attention import (
    GroupAttention,
    LinformerAttention,
    LocalAttention,
    PerformerAttention,
    VanillaAttention,
)
from repro.serve import InferenceEngine


class TestConfig:
    def test_defaults_match_paper(self):
        config = RitaConfig(input_channels=3, max_len=100)
        assert config.dim == 64
        assert config.n_heads == 2
        assert config.n_layers == 8
        assert config.window_size == 5
        assert config.ffn_dim == 256

    def test_unknown_attention_raises(self):
        with pytest.raises(ConfigError):
            RitaConfig(input_channels=3, max_len=100, attention="flash")

    def test_dim_head_divisibility(self):
        with pytest.raises(ConfigError):
            RitaConfig(input_channels=3, max_len=100, dim=10, n_heads=3)

    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            RitaConfig(input_channels=3, max_len=100, dropout=1.0)

    def test_n_windows_stride_one(self):
        config = RitaConfig(input_channels=3, max_len=100, window_size=5, conv_stride=1)
        assert config.n_windows(100) == 100  # one window per timestamp (Sec. 3)

    def test_n_windows_stride_two(self):
        config = RitaConfig(input_channels=3, max_len=100, window_size=5, conv_stride=2)
        assert config.n_windows(100) == 50


class TestBuildAttention:
    @pytest.mark.parametrize("kind,expected", [
        ("vanilla", VanillaAttention),
        ("group", GroupAttention),
        ("performer", PerformerAttention),
        ("linformer", LinformerAttention),
        ("local", LocalAttention),
    ])
    def test_kinds(self, kind, expected, rng):
        config = RitaConfig(input_channels=3, max_len=50, attention=kind, dim=16)
        assert isinstance(build_attention(config, rng), expected)

    def test_linformer_sized_for_cls(self, rng):
        config = RitaConfig(input_channels=3, max_len=50, attention="linformer", dim=16)
        att = build_attention(config, rng)
        assert att.max_len == 51  # +1 for the [CLS] token


class TestTimeAwareConvolution:
    def test_one_window_per_timestamp(self, rng):
        config = RitaConfig(input_channels=3, max_len=64, dim=16)
        frontend = TimeAwareConvolution(config, rng)
        out = frontend(Tensor(rng.standard_normal((2, 64, 3))))
        assert out.shape == (2, 64, 16)

    def test_rejects_2d_input(self, rng):
        config = RitaConfig(input_channels=3, max_len=64, dim=16)
        frontend = TimeAwareConvolution(config, rng)
        with pytest.raises(ShapeError):
            frontend(Tensor(rng.standard_normal((64, 3))))

    def test_stride_downsamples(self, rng):
        config = RitaConfig(input_channels=3, max_len=64, dim=16, conv_stride=4)
        frontend = TimeAwareConvolution(config, rng)
        out = frontend(Tensor(rng.standard_normal((2, 64, 3))))
        assert out.shape[1] == config.n_windows(64)


class TestRitaModel:
    @pytest.fixture
    def model(self, rng):
        config = RitaConfig(
            input_channels=3, max_len=32, dim=16, n_layers=2, n_heads=2,
            attention="group", n_groups=4, dropout=0.0, n_classes=5,
        )
        return RitaModel(config, rng=rng)

    def test_encode_shapes(self, model, rng):
        cls, windows = model.encode(rng.standard_normal((2, 32, 3)))
        assert cls.shape == (2, 16)
        assert windows.shape == (2, 32, 16)

    def test_classify_shape(self, model, rng):
        logits = model.classify(rng.standard_normal((3, 32, 3)))
        assert logits.shape == (3, 5)

    def test_classify_without_head_raises(self, rng):
        config = RitaConfig(input_channels=3, max_len=32, dim=16, n_layers=1)
        model = RitaModel(config, rng=rng)
        with pytest.raises(ConfigError):
            model.classify(rng.standard_normal((1, 32, 3)))

    def test_reconstruct_shape(self, model, rng):
        out = model.reconstruct(rng.standard_normal((2, 32, 3)))
        assert out.shape == (2, 32, 3)

    def test_reconstruct_shorter_series(self, model, rng):
        out = model.reconstruct(rng.standard_normal((2, 20, 3)))
        assert out.shape == (2, 20, 3)

    def test_embed_no_grad(self, model, rng):
        embedding = InferenceEngine(model).embed(rng.standard_normal((4, 32, 3)))
        assert embedding.shape == (4, 16)
        assert isinstance(embedding, np.ndarray)

    def test_group_layers_found(self, model):
        assert len(model.group_attention_layers()) == 2
        assert model.mean_groups() == pytest.approx(4.0)

    def test_vanilla_model_has_no_group_layers(self, rng):
        config = RitaConfig(input_channels=3, max_len=32, dim=16, n_layers=2, attention="vanilla")
        model = RitaModel(config, rng=rng)
        assert model.group_attention_layers() == []
        assert model.mean_groups() == 0.0

    def test_gradients_reach_every_parameter(self, model, rng):
        from repro.nn import CrossEntropyLoss
        logits = model.classify(rng.standard_normal((4, 32, 3)))
        loss = CrossEntropyLoss()(logits, np.array([0, 1, 2, 3]))
        loss.backward()
        missing = [n for n, p in model.named_parameters()
                   if p.grad is None and "decoder" not in n]
        assert missing == []

    def test_estimate_step_bytes_positive_and_monotone(self, model):
        small = model.estimate_step_bytes(1, 32)
        large = model.estimate_step_bytes(4, 32)
        assert 0 < small < large

    def test_memory_model_matches_config(self, model):
        mm = model.memory_model()
        assert mm.dim == 16 and mm.n_layers == 2

    def test_overfits_tiny_classification(self, rng):
        """Sanity: the full pipeline can drive training loss to ~0."""
        from repro.nn import CrossEntropyLoss
        from repro.optim import AdamW

        config = RitaConfig(
            input_channels=1, max_len=16, dim=16, n_layers=1, n_heads=2,
            attention="group", n_groups=4, dropout=0.0, n_classes=2,
        )
        model = RitaModel(config, rng=np.random.default_rng(0))
        x = np.zeros((8, 16, 1))
        x[:4, :, 0] = np.sin(np.linspace(0, 6, 16))
        x[4:, :, 0] = np.sign(np.sin(np.linspace(0, 6, 16)))
        y = np.array([0] * 4 + [1] * 4)
        optimizer = AdamW(model.parameters(), lr=5e-3, weight_decay=0.0)
        loss_fn = CrossEntropyLoss()
        final = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = loss_fn(model.classify(x), y)
            loss.backward()
            optimizer.step()
            final = loss.item()
        assert final < 0.1
        predictions = model.classify(x).data.argmax(axis=1)
        assert (predictions == y).all()
