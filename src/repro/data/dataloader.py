"""Minibatch iteration."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.rng import get_rng

__all__ = ["DataLoader"]


class DataLoader:
    """Iterates a dataset in (optionally shuffled) batches.

    Works with any dataset exposing ``__len__`` and array-index
    ``__getitem__`` (:class:`~repro.data.dataset.ArrayDataset`,
    :class:`~repro.data.collate.RaggedDataset`).

    ``batch_size`` is mutable between epochs — the trainer raises it when
    the batch-size predictor says a larger batch now fits (paper Sec. 5.2).

    Parameters
    ----------
    collate_fn:
        Optional function applied to every raw batch dict before it is
        yielded.  Pair :func:`~repro.data.collate.pad_collate` with a
        ragged dataset to emit ``(windows, mask)`` batches.
    bucket_by_length:
        Group similar-length series into the same batch (the paper's
        batching-by-length trick): sequences are ordered by length —
        random tie-breaks under ``shuffle`` — batches are carved from
        that order, and the *batch order* is shuffled.  Padding waste per
        batch stays near zero while epoch composition still varies.
        Requires a dataset with a ``lengths`` attribute.
    """

    def __init__(
        self,
        dataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        rng: np.random.Generator | None = None,
        collate_fn: Callable[[dict], dict] | None = None,
        bucket_by_length: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if bucket_by_length and getattr(dataset, "lengths", None) is None:
            raise ConfigError(
                "bucket_by_length requires a dataset with a 'lengths' attribute "
                "(e.g. RaggedDataset)"
            )
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.collate_fn = collate_fn
        self.bucket_by_length = bool(bucket_by_length)
        self._rng = get_rng(rng)
        self._order: np.ndarray | None = None  # cached identity order

    def set_batch_size(self, batch_size: int) -> None:
        """Adjust the batch size for subsequent epochs.

        Takes effect at the *next* ``__iter__``: an epoch already in flight
        keeps the batch size it started with, so a mid-epoch change never
        skips or repeats samples.
        """
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self.batch_size = int(batch_size)

    def __len__(self) -> int:
        n_batches, remainder = divmod(len(self.dataset), self.batch_size)
        if remainder and not self.drop_last:
            n_batches += 1
        return n_batches

    def _epoch_order(self) -> np.ndarray:
        n = len(self.dataset)
        if self.shuffle:
            order = np.arange(n)
            self._rng.shuffle(order)
            return order
        # Unshuffled epochs all share one preallocated identity order.
        if self._order is None or len(self._order) != n:
            self._order = np.arange(n)
        return self._order

    def _epoch_batches(self, batch_size: int) -> list[np.ndarray]:
        """Index chunks for one epoch (one entry per yielded batch)."""
        if not self.bucket_by_length:
            order = self._epoch_order()
        else:
            lengths = np.asarray(self.dataset.lengths)
            if self.shuffle:
                # Random tie-breaks within equal lengths, so bucket
                # membership varies between epochs.
                order = np.lexsort((self._rng.random(len(lengths)), lengths))
            else:
                order = np.argsort(lengths, kind="stable")
        chunks = [
            order[start : start + batch_size]
            for start in range(0, len(order), batch_size)
        ]
        if self.drop_last:
            chunks = [c for c in chunks if len(c) == batch_size]
        if self.bucket_by_length and self.shuffle:
            self._rng.shuffle(chunks)
        return chunks

    def __iter__(self) -> Iterator[dict[str, np.ndarray]]:
        batch_size = self.batch_size  # snapshot; see set_batch_size
        for chunk in self._epoch_batches(batch_size):
            batch = self.dataset[chunk]
            if self.collate_fn is not None:
                batch = self.collate_fn(batch)
            yield batch
