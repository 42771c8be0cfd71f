"""``InferenceEngine`` — the task-typed serving surface.

One object wraps a model (live :class:`~repro.model.rita.RitaModel` or
frozen :class:`~repro.serve.artifact.ModelArtifact`) and exposes every
inference task as a typed endpoint:

=============  ======================================================
``classify``   class logits ``(B, n_classes)`` from the [CLS] head
``embed``      series embeddings ``(B, d)`` ([CLS] or masked mean)
``reconstruct``  decoded series ``(B, L, m)`` (imputation decoding)
``forecast``   the next ``horizon`` timesteps ``(B, horizon, m)``
``search``     nearest-neighbour ids over an indexed corpus
=============  ======================================================

Every endpoint runs in eval mode under ``no_grad`` with the engine's
**pinned dtype** (the artifact's export dtype, or the policy dtype at
construction), accepts dense ``(B, L, m)`` arrays, single ``(L, m)``
series, or ragged lists of ``(L_i, m)`` series (padded internally with
the validity-mask machinery from :mod:`repro.data.collate`), and serves
arbitrarily large requests in bounded chunks (``max_batch_size``).
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.collate import pad_ragged
from repro.errors import ConfigError, RequestError, ShapeError
from repro.kernels.policy import dtype_scope, get_default_dtype, resolve_dtype
from repro.model.rita import RitaModel
from repro.serve.artifact import ModelArtifact
from repro.serve.deadlines import check_deadline
from repro.tasks.vector_index import IVFFlatIndex

__all__ = ["InferenceEngine", "EngineStats", "check_engine_options"]


def check_engine_options(
    max_batch_size: int | None = None,
    dtype=None,
    recluster_every: int | None = None,
    drift_tolerance: float | None = None,
    **unknown: object,
) -> None:
    """Raise :class:`ConfigError` for an unknown or out-of-range engine option.

    Runs before any model is built: :class:`InferenceEngine` calls it
    first, and :class:`~repro.serve.cluster.WorkerPool` calls it in the
    parent process, so bad ``engine_kwargs`` fail the pool's constructor
    instead of crashing every worker it spawns.
    """
    if unknown:
        raise ConfigError(f"unknown InferenceEngine option(s): {sorted(unknown)}")
    if max_batch_size is not None and max_batch_size < 1:
        raise ConfigError("max_batch_size must be >= 1 or None")
    if recluster_every is not None and recluster_every < 1:
        raise ConfigError("recluster_every must be >= 1 or None")
    if drift_tolerance is not None and drift_tolerance < 0:
        raise ConfigError("drift_tolerance must be >= 0 or None")
    if dtype is not None:
        resolve_dtype(dtype)


@dataclass
class EngineStats:
    """Serving counters (cumulative; the benchmark reads deltas).

    ``record`` is thread-safe: endpoints may be called from several
    threads — the micro-batcher flushes from caller threads — and the
    counters are read-modify-write, so unguarded ``+=`` would silently
    drop updates.
    """

    requests_total: int = 0      #: series served across all endpoints
    batches_total: int = 0       #: model forward batches executed
    by_endpoint: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, endpoint: str, n_requests: int, n_batches: int) -> None:
        with self._lock:
            self.requests_total += n_requests
            self.batches_total += n_batches
            self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + n_requests


class InferenceEngine:
    """Task-typed inference over a frozen artifact or a live model.

    Parameters
    ----------
    model:
        A :class:`RitaModel` (served in place; training mode is restored
        after every call) or a :class:`ModelArtifact` (materialized once,
        in eval mode, with the artifact's pinned dtype).
    max_batch_size:
        Upper bound on rows per model forward; larger requests are served
        in chunks so peak activation memory stays bounded.  ``None``
        serves each request in one pass.
    dtype:
        Override the pinned compute dtype.  Defaults to the artifact's
        export dtype, or the process policy dtype for live models.
    recluster_every, drift_tolerance:
        Serving-time grouping policy for group-attention layers, applied
        for the duration of each endpoint call (the training values are
        restored afterwards, so a live model keeps its training cadence).
        The serving regime — many requests over similar data — is where
        PR 2's amortized recluster cache pays off: with a cadence > 1 the
        cached partition is reused across consecutive requests whenever
        the Lemma-1 drift guard holds, skipping K-means entirely.
        ``None`` keeps the model's configured values.
    """

    def __init__(
        self,
        model: RitaModel | ModelArtifact,
        max_batch_size: int | None = None,
        dtype=None,
        recluster_every: int | None = None,
        drift_tolerance: float | None = None,
    ) -> None:
        check_engine_options(max_batch_size, dtype, recluster_every, drift_tolerance)
        if isinstance(model, ModelArtifact):
            self.model = model.build_model()
            pinned = model.dtype
        elif isinstance(model, RitaModel):
            self.model = model
            pinned = get_default_dtype()
        else:
            raise ConfigError(
                f"InferenceEngine serves a RitaModel or ModelArtifact, "
                f"got {type(model).__name__}"
            )
        self.max_batch_size = None if max_batch_size is None else int(max_batch_size)
        self.dtype = resolve_dtype(dtype) if dtype is not None else np.dtype(pinned)
        self.recluster_every = None if recluster_every is None else int(recluster_every)
        self.drift_tolerance = None if drift_tolerance is None else float(drift_tolerance)
        self.stats = EngineStats()
        self._index: IVFFlatIndex | None = None
        self._index_pooling: str = "cls"

    @property
    def config(self):
        return self.model.config

    # ------------------------------------------------------------------
    # Request normalization + chunked execution
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_request(series, mask) -> tuple[np.ndarray, np.ndarray | None]:
        """Normalize any accepted input form to ``(B, L, m)`` + mask.

        Ragged lists (or object arrays) are padded here; equal-length
        lists collapse to a dense batch with *no* mask, keeping them on
        the unmasked hot path.  A single ``(L, m)`` array becomes a batch
        of one.
        """
        if isinstance(series, (list, tuple)) or (
            isinstance(series, np.ndarray) and series.dtype == object
        ):
            if mask is not None:
                raise ConfigError(
                    "pass either a ragged list (mask derived internally) or a "
                    "padded dense batch with its mask, not both"
                )
            items = [np.asarray(s) for s in series]
            if not items:
                raise ShapeError("request contains no series")
            if any(item.ndim != 2 for item in items):
                raise ShapeError("ragged requests must be a sequence of (L_i, m) series")
            if len({item.shape[0] for item in items}) == 1:
                return np.stack(items), None  # equal lengths: dense hot path
            return pad_ragged(items)
        arr = np.asarray(series.data if isinstance(series, Tensor) else series)
        if arr.ndim == 2:
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.ndim == 1:
                    mask = mask[None]
            return arr[None], mask
        if arr.ndim != 3:
            raise ShapeError(
                f"expected (B, L, m) batch, (L, m) series, or ragged list; got {arr.shape}"
            )
        return arr, None if mask is None else np.asarray(mask, dtype=bool)

    def _validate_request(self, x: np.ndarray, mask: np.ndarray | None) -> None:
        """Admission-time payload validation: typed errors, never garbage.

        Channel mismatches fail here with a serving-level message instead
        of surfacing from three layers down in the convolution, and
        non-finite values are rejected outright — anywhere in the batch,
        masked positions included.  Masking multiplies padded positions
        by zero, and ``0 * nan`` is ``nan``: a NaN in the padded tail
        poisons that row's *valid* outputs, so finite padding is part of
        the request contract (the engine's own ragged-list padding is
        zero-filled and always satisfies it).
        """
        del mask  # validated identically with or without one
        expected = self.config.input_channels
        if x.shape[-1] != expected:
            raise ShapeError(
                f"this engine serves {expected}-channel series, "
                f"got {x.shape[-1]} channels"
            )
        finite = np.isfinite(x)
        if not finite.all():
            bad = int(finite.size - np.count_nonzero(finite))
            raise RequestError(
                f"request contains {bad} non-finite value(s); "
                "NaN/inf series cannot be served"
            )

    # Name->method wiring only; the bound endpoints it returns each
    # route through _run themselves.
    # repro: allow[grad-discipline]
    def endpoint(self, name: str):
        """The bound endpoint callable for ``name``.

        The router dispatches requests by endpoint name across worker
        processes; resolving through this method gives unknown task names
        a typed :class:`~repro.errors.ConfigError` instead of an
        ``AttributeError``.
        """
        endpoints = {
            "classify": self.classify,
            "predict": self.predict,
            "embed": self.embed,
            "reconstruct": self.reconstruct,
            "forecast": self.forecast,
            "search": self.search,
        }
        try:
            return endpoints[name]
        except KeyError:
            raise ConfigError(
                f"unknown endpoint {name!r}; expected one of {sorted(endpoints)}"
            ) from None

    @contextlib.contextmanager
    def _serving(self):
        """Eval mode + no-grad + pinned dtype + serving grouping policy.

        Everything is restored afterwards — training mode and the
        training-time recluster cadence — so serving through a live model
        never perturbs its training configuration.  The recluster *cache*
        itself is left in place between calls: that persistence is what
        lets consecutive similar requests skip K-means.
        """
        model = self.model
        was_training = model.training
        if was_training:
            model.eval()
        restore: list[tuple] = []
        if self.recluster_every is not None or self.drift_tolerance is not None:
            for layer in model.group_attention_layers():
                restore.append((layer, layer.recluster_every, layer.drift_tolerance))
                if self.recluster_every is not None:
                    layer.recluster_every = self.recluster_every
                if self.drift_tolerance is not None:
                    layer.drift_tolerance = self.drift_tolerance
        try:
            with no_grad(), dtype_scope(self.dtype):
                yield
        finally:
            for layer, cadence, tolerance in restore:
                layer.recluster_every = cadence
                layer.drift_tolerance = tolerance
            if was_training:
                model.train()

    def _run(self, endpoint: str, fn, series, mask) -> np.ndarray:
        """Chunked eval-mode execution of ``fn(series, mask) -> ndarray``.

        Runs under the calling thread's deadline
        (:mod:`repro.serve.deadlines`): an expired deadline fails fast
        before the first forward, and multi-chunk requests re-check
        between chunks so an expired request stops mid-flight instead of
        finishing work nobody will read.
        """
        x, m = self._coerce_request(series, mask)
        self._validate_request(x, m)
        check_deadline(f"{endpoint} request")
        limit = self.max_batch_size
        with self._serving():
            if limit is None or len(x) <= limit:
                out = fn(x, m)
                self.stats.record(endpoint, len(x), 1)
                return out
            pieces = []
            for start in range(0, len(x), limit):
                check_deadline(f"{endpoint} request (chunk at row {start})")
                chunk_mask = None if m is None else m[start : start + limit]
                pieces.append(fn(x[start : start + limit], chunk_mask))
            self.stats.record(endpoint, len(x), len(pieces))
            return np.concatenate(pieces, axis=0)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def classify(self, series, mask: np.ndarray | None = None) -> np.ndarray:
        """Class logits ``(B, n_classes)`` (A.7.1)."""
        return self._run(
            "classify", lambda x, m: self.model.classify(x, mask=m).data, series, mask
        )

    def predict(self, series, mask: np.ndarray | None = None) -> np.ndarray:
        """Predicted class ids ``(B,)`` — ``classify(...).argmax``."""
        return self.classify(series, mask=mask).argmax(axis=-1)

    def embed(
        self, series, mask: np.ndarray | None = None, pooling: str = "cls"
    ) -> np.ndarray:
        """Series embeddings ``(B, d)`` (A.7.4).

        ``pooling="cls"`` returns the [CLS] representation (the paper's
        choice); ``"mean"`` masked-mean-pools the window embeddings.
        """
        if pooling not in {"cls", "mean"}:
            raise ConfigError(f"unknown pooling {pooling!r}; expected 'cls' or 'mean'")

        def one_batch(x, m):
            cls_embedding, windows, wmask = self.model._encode(x, m)
            if pooling == "cls":
                return cls_embedding.data
            return self.model.pool_windows(windows, wmask).data

        return self._run("embed", one_batch, series, mask)

    def reconstruct(self, series, mask: np.ndarray | None = None) -> np.ndarray:
        """Decoded series ``(B, L, m)`` (imputation decoding, A.7.2).

        Masked positions must carry the model's ``mask_value`` sentinel,
        exactly as :class:`~repro.tasks.ImputationTask` prepares batches.
        """
        return self._run(
            "reconstruct", lambda x, m: self.model.reconstruct(x, mask=m).data, series, mask
        )

    def forecast(
        self, series, horizon: int, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """The next ``horizon`` timesteps ``(B, horizon, m)`` (A.7.3).

        Serving mirrors how :class:`~repro.tasks.ForecastingTask` trains:
        the context is extended by ``horizon`` steps of the config's
        ``mask_value`` sentinel and the decoder's reconstruction of that
        masked tail is the forecast.  Series must be in the model's
        training scale (apply the task's ``Scaler`` first).
        """
        if horizon < 1:
            raise ConfigError("forecast horizon must be >= 1")
        x, m = self._coerce_request(series, mask)
        batch, length, channels = x.shape
        mask_value = self.config.mask_value
        if m is None:
            lengths = np.full(batch, length, dtype=np.int64)
        else:
            lengths = np.asarray(m, dtype=bool).sum(axis=1).astype(np.int64)
        target = int(lengths.max()) + horizon
        if self.config.n_windows(target) > self.config.max_len:
            raise ConfigError(
                f"forecast target length {target} exceeds the model's max_len "
                f"{self.config.max_len}; shorten the context or the horizon"
            )
        extended = np.zeros((batch, target, channels), dtype=x.dtype)
        for row, (source, valid) in enumerate(zip(x, lengths)):
            extended[row, :valid] = source[:valid]
            extended[row, valid : valid + horizon] = mask_value
        new_lengths = lengths + horizon
        if (new_lengths == target).all():
            new_mask = None
        else:
            new_mask = np.arange(target) < new_lengths[:, None]
        decoded = self._run(
            "forecast",
            lambda a, m_: self.model.reconstruct(a, mask=m_).data,
            extended,
            new_mask,
        )
        out = np.empty((batch, horizon, channels), dtype=decoded.dtype)
        for row, valid in enumerate(lengths):
            out[row] = decoded[row, valid : valid + horizon]
        return out

    # ------------------------------------------------------------------
    # Similarity search (A.7.4) over an embedded corpus
    # ------------------------------------------------------------------
    def build_index(
        self,
        corpus,
        mask: np.ndarray | None = None,
        pooling: str = "cls",
        n_lists: int = 16,
        n_probe: int = 4,
        metric: str = "l2",
        kmeans_iters: int = 20,
        rng: np.random.Generator | None = None,
    ) -> IVFFlatIndex:
        """Embed ``corpus`` and train an :class:`IVFFlatIndex` over it.

        The index is retained on the engine; :meth:`search` queries it.
        Returned so callers can inspect ``list_sizes()`` / recall.
        """
        embeddings = self.embed(corpus, mask=mask, pooling=pooling)
        index = IVFFlatIndex(n_lists=n_lists, n_probe=n_probe, metric=metric, rng=rng)
        index.train(embeddings, kmeans_iters=kmeans_iters)
        self._index = index
        self._index_pooling = pooling
        return index

    def search(
        self, series, k: int = 5, mask: np.ndarray | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Nearest corpus ids for each query series.

        Returns one ``(ids, scores)`` pair per query (scores follow the
        index metric: squared L2 ascending, or inner product descending).
        """
        if self._index is None:
            raise ConfigError("no index on this engine; call build_index(corpus) first")
        queries = self.embed(series, mask=mask, pooling=self._index_pooling)
        return [self._index.search(query, k=k) for query in queries]
