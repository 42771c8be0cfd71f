"""The RITA model (paper Fig. 1).

Pipeline: raw timeseries ``(B, L, m)`` -> time-aware convolution ->
window embeddings ``(B, n, d)`` -> [CLS] token prepended -> learned
position embeddings -> RITA encoder -> contextual embeddings.

Heads (paper Sec. A.7):
* classification — linear softmax over the [CLS] representation;
* imputation / forecasting — transpose convolution decoding every
  window representation back to timeseries values;
* embedding extraction — the [CLS] representation itself, for similarity
  search and clustering.
"""

from __future__ import annotations

import numpy as np

from repro.attention.group import GroupAttention
from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ConfigError, ShapeError
from repro.kernels.policy import get_default_dtype
from repro.model.config import RitaConfig
from repro.model.encoder import RitaEncoder
from repro.nn import Conv1d, ConvTranspose1d, LearnedPositionalEmbedding, Linear, Module, Parameter, init
from repro.rng import get_rng
from repro.simgpu.memory import MemoryModel

__all__ = ["TimeAwareConvolution", "RitaModel"]


class TimeAwareConvolution(Module):
    """Front end bridging timeseries and "semantic units" (paper Sec. 3).

    ``d`` convolution kernels of width ``w`` slide over the ``(L, m)``
    input; each output position is one *window embedding*, capturing local
    structure across all channels simultaneously (the multi-channel gap
    between NLP and timeseries).
    """

    def __init__(self, config: RitaConfig, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.config = config
        self.conv = Conv1d(
            config.input_channels,
            config.dim,
            kernel_size=config.window_size,
            stride=config.conv_stride,
            padding=config.conv_padding,
            rng=rng,
        )

    def forward(self, series: Tensor) -> Tensor:
        """``(B, L, m)`` -> ``(B, n, d)`` window embeddings."""
        if series.ndim != 3:
            raise ShapeError(f"expected (B, L, m) series, got {series.shape}")
        channels_first = series.transpose((0, 2, 1))
        features = self.conv(channels_first)
        return features.transpose((0, 2, 1))


class RitaModel(Module):
    """RITA: time-aware convolution + Transformer encoder + task heads."""

    #: Tasks check this before forwarding a padded batch's validity mask;
    #: mask-unaware baselines (e.g. TST) leave it false and get a clear
    #: error instead of a confusing TypeError on ragged data.
    supports_padding_mask = True

    def __init__(self, config: RitaConfig, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = get_rng(rng)
        self.config = config
        self.frontend = TimeAwareConvolution(config, rng)
        self.cls_token = Parameter(init.normal((1, 1, config.dim), std=0.02, rng=rng))
        self.positions = LearnedPositionalEmbedding(config.max_len + 1, config.dim, rng=rng)
        self.encoder = RitaEncoder(config, rng)
        if config.n_classes is not None:
            self.classifier = Linear(config.dim, config.n_classes, rng=rng)
        else:
            self.classifier = None
        self.decoder = ConvTranspose1d(
            config.dim,
            config.input_channels,
            kernel_size=config.window_size,
            stride=config.conv_stride,
            padding=config.conv_padding,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Padding-mask plumbing (variable-length batches)
    # ------------------------------------------------------------------
    def window_mask(self, mask: np.ndarray) -> np.ndarray:
        """Window-level validity mask from a series-level one.

        ``mask`` is the boolean ``(B, L)`` validity mask of a left-aligned
        padded batch (true = real timestep; padding must be a contiguous
        tail, which is what :func:`repro.data.pad_ragged` produces).
        Window ``j`` of sequence ``i`` is valid iff the unpadded sequence
        would have produced it — i.e. ``j < n_windows(length_i)`` — so a
        padded forward emits exactly the windows the unpadded forward
        would (zero padding matches the convolution's own zero padding).
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ShapeError(f"expected (B, L) series mask, got {mask.shape}")
        lengths = mask.sum(axis=1)
        if (lengths == 0).any():
            raise ShapeError("every series in a padded batch needs >= 1 valid timestep")
        prefix = np.arange(mask.shape[1]) < lengths[:, None]
        if not np.array_equal(mask, prefix):
            raise ShapeError(
                "padding mask must be left-aligned (valid prefix, padded tail); "
                "re-pad with repro.data.pad_ragged"
            )
        config = self.config
        n_valid = (
            lengths + 2 * config.conv_padding - config.window_size
        ) // config.conv_stride + 1
        total = config.n_windows(mask.shape[1])
        return np.arange(total) < np.maximum(n_valid, 0)[:, None]

    @staticmethod
    def pool_windows(windows: Tensor, window_mask: np.ndarray | None = None) -> Tensor:
        """Mean-pool ``(B, n, d)`` window embeddings into ``(B, d)``.

        With a window-level validity mask, padded windows are excluded
        from both the sum and the divisor (masked mean pooling), so the
        pooled embedding of a padded series equals its unpadded one.
        """
        if window_mask is None:
            return windows.mean(axis=1)
        window_mask = np.asarray(window_mask, dtype=bool)
        weights = window_mask.astype(windows.dtype)[..., None]
        totals = (windows * weights).sum(axis=1)
        counts = np.maximum(window_mask.sum(axis=1, keepdims=True), 1).astype(windows.dtype)
        return totals / counts

    # ------------------------------------------------------------------
    # Core encoding
    # ------------------------------------------------------------------
    def encode(self, series, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Encode raw series; returns ``(cls_embedding, window_embeddings)``.

        ``cls_embedding``: ``(B, d)`` — the series-level representation.
        ``window_embeddings``: ``(B, n, d)`` — per-window representations.

        Incoming series are cast to the policy compute dtype (float32 by
        default) so the whole forward pass runs in one dtype; float64
        datasets do not silently promote a float32 model.

        ``mask`` is an optional boolean ``(B, L)`` validity mask for
        ragged batches padded to a common length (see
        :func:`repro.data.pad_ragged`).  The derived window mask — with
        the always-valid [CLS] slot prepended — flows through every
        encoder layer, so embeddings at valid positions match running
        each sequence unpadded; window embeddings at padded positions are
        unspecified.
        """
        cls_embedding, windows, _ = self._encode(series, mask)
        return cls_embedding, windows

    def _encode(
        self, series, mask: np.ndarray | None
    ) -> tuple[Tensor, Tensor, np.ndarray | None]:
        """:meth:`encode` plus the derived window mask (``None`` unmasked).

        Internal so masked consumers (``reconstruct``, ``embed``) reuse the
        window mask instead of re-deriving and re-validating it.
        """
        series = ops.astype(as_tensor(series), get_default_dtype())
        if mask is not None:
            # Zero the padded tail so boundary windows (receptive fields
            # straddling the valid end) see exactly the zeros the unpadded
            # forward's convolution padding would supply — valid outputs
            # become independent of whatever the caller padded with.
            series = series * np.asarray(mask, dtype=bool)[:, :, None].astype(series.dtype)
        windows = self.frontend(series)  # (B, n, d)
        batch = windows.shape[0]
        wmask = None
        full_mask = None
        if mask is not None:
            wmask = self.window_mask(mask)
            if wmask.shape[1] != windows.shape[1]:
                raise ShapeError(
                    f"mask length {np.asarray(mask).shape[1]} inconsistent with "
                    f"series length {series.shape[1]}"
                )
            cls_valid = np.ones((batch, 1), dtype=bool)
            full_mask = np.concatenate([cls_valid, wmask], axis=1)
        cls = ops.broadcast_to(self.cls_token, (batch, 1, self.config.dim))
        stacked = ops.concat([cls, windows], axis=1)
        positioned = self.positions(stacked)
        hidden = self.encoder(positioned, mask=full_mask)
        return hidden[:, 0, :], hidden[:, 1:, :], wmask

    # ------------------------------------------------------------------
    # Heads (paper A.7)
    # ------------------------------------------------------------------
    def classify(self, series, mask: np.ndarray | None = None) -> Tensor:
        """Class logits from the [CLS] representation (A.7.1)."""
        if self.classifier is None:
            raise ConfigError("model was built without n_classes; no classifier head")
        cls_embedding, _ = self.encode(series, mask=mask)
        return self.classifier(cls_embedding)

    def reconstruct(self, series, mask: np.ndarray | None = None) -> Tensor:
        """Decode window embeddings back to a ``(B, L, m)`` series (A.7.2).

        Used for imputation (masked positions) and forecasting (masked
        tail).  The transpose convolution mirrors the front end geometry.
        On ragged batches, reconstructed values beyond each sequence's
        valid length are unspecified — losses and metrics must restrict
        themselves to ``mask`` (see ``MaskedMSELoss``).
        """
        series = as_tensor(series)
        length = series.shape[1]
        _, windows, wmask = self._encode(series, mask)
        if wmask is not None:
            # The decoder's receptive field at the last ``conv_padding``
            # valid timesteps straddles windows past the valid range, whose
            # embeddings are unspecified.  Zero them so those timesteps see
            # exactly the absent-window zeros of the unpadded forward —
            # valid reconstructions stay equal to running the sequence
            # unpadded and independent of batchmates' lengths.
            windows = windows * wmask[:, :, None].astype(windows.dtype)
        channels_first = windows.transpose((0, 2, 1))
        decoded = self.decoder(channels_first).transpose((0, 2, 1))
        if decoded.shape[1] < length:
            raise ShapeError(
                f"decoder produced length {decoded.shape[1]} < input {length}; "
                "check window_size/stride geometry"
            )
        return decoded[:, :length, :]

    # ------------------------------------------------------------------
    # Introspection used by scheduler / memory accounting
    # ------------------------------------------------------------------
    def group_attention_layers(self) -> list[GroupAttention]:
        """All group-attention mechanisms (empty for baseline models)."""
        return [m for m in self.modules() if isinstance(m, GroupAttention)]

    def mean_groups(self) -> float:
        """Average current ``N`` across group-attention layers."""
        layers = self.group_attention_layers()
        if not layers:
            return 0.0
        return float(np.mean([layer.n_groups for layer in layers]))

    def memory_model(self) -> MemoryModel:
        """Analytic memory model matching this architecture."""
        return MemoryModel(
            dim=self.config.dim,
            n_heads=self.config.n_heads,
            n_layers=self.config.n_layers,
            ffn_dim=self.config.ffn_dim,
        )

    def estimate_step_bytes(self, batch_size: int, length: int) -> int:
        """Estimated simulated-GPU bytes for a training step."""
        kind = self.config.attention
        kwargs: dict = {}
        if kind == "group":
            kwargs["n_groups"] = int(round(self.mean_groups())) or self.config.n_groups
        elif kind == "performer":
            kwargs["feature_dim"] = self.config.performer_features
        elif kind == "linformer":
            kwargs["proj_dim"] = self.config.linformer_proj_dim
        elif kind == "local":
            kwargs["window"] = self.config.local_window
        n = self.config.n_windows(length) + 1  # +1 for [CLS]
        return self.memory_model().step_bytes(kind, batch_size, n, **kwargs)
