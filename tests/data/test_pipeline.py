"""Dataset containers, loaders, masking, scaling, windows, registry."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    DATASETS,
    Scaler,
    apply_timestamp_mask,
    load_dataset,
    mask_tail,
    sliding_windows,
    table1_rows,
    train_val_split,
)
from repro.errors import ConfigError, ShapeError


class TestArrayDataset:
    def test_indexing(self, rng):
        ds = ArrayDataset(x=rng.standard_normal((10, 4)), y=np.arange(10))
        row = ds[3]
        assert row["y"] == 3
        batch = ds[np.array([1, 2])]
        assert batch["x"].shape == (2, 4)

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ArrayDataset(x=np.zeros((5, 2)), y=np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            ArrayDataset()

    def test_subset_and_take(self, rng):
        ds = ArrayDataset(x=np.arange(10)[:, None], y=np.arange(10))
        sub = ds.subset(np.array([7, 2]))
        np.testing.assert_array_equal(sub.arrays["y"], [7, 2])
        assert len(ds.take(3)) == 3

    def test_per_class_subset(self, rng):
        y = np.repeat(np.arange(4), 25)
        ds = ArrayDataset(x=np.zeros((100, 2)), y=y)
        few = ds.per_class_subset(5, rng=rng)
        assert len(few) == 20
        values, counts = np.unique(few.arrays["y"], return_counts=True)
        assert (counts == 5).all()

    def test_per_class_subset_small_class(self, rng):
        y = np.array([0, 0, 0, 1])
        ds = ArrayDataset(x=np.zeros((4, 1)), y=y)
        few = ds.per_class_subset(3, rng=rng)
        assert (few.arrays["y"] == 1).sum() == 1

    def test_train_val_split_disjoint(self, rng):
        ds = ArrayDataset(x=np.arange(50)[:, None])
        train, val = train_val_split(ds, val_fraction=0.2, rng=rng)
        assert len(train) == 40 and len(val) == 10
        overlap = set(train.arrays["x"][:, 0]) & set(val.arrays["x"][:, 0])
        assert not overlap


class TestDataLoader:
    def test_batches_cover_everything(self, rng):
        ds = ArrayDataset(x=np.arange(23)[:, None])
        loader = DataLoader(ds, batch_size=5)
        seen = np.concatenate([b["x"][:, 0] for b in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(23))
        assert len(loader) == 5

    def test_drop_last(self):
        ds = ArrayDataset(x=np.arange(23)[:, None])
        loader = DataLoader(ds, batch_size=5, drop_last=True)
        batches = list(loader)
        assert len(batches) == 4
        assert all(len(b["x"]) == 5 for b in batches)

    def test_shuffle_changes_order_but_not_content(self, rng):
        ds = ArrayDataset(x=np.arange(40)[:, None])
        loader = DataLoader(ds, batch_size=40, shuffle=True, rng=rng)
        batch = next(iter(loader))["x"][:, 0]
        assert not np.array_equal(batch, np.arange(40))
        np.testing.assert_array_equal(np.sort(batch), np.arange(40))

    def test_set_batch_size(self):
        ds = ArrayDataset(x=np.arange(10)[:, None])
        loader = DataLoader(ds, batch_size=2)
        loader.set_batch_size(5)
        assert len(loader) == 2

    def test_invalid_batch_size(self):
        ds = ArrayDataset(x=np.arange(10)[:, None])
        with pytest.raises(ConfigError):
            DataLoader(ds, batch_size=0)
        loader = DataLoader(ds, batch_size=2)
        with pytest.raises(ConfigError):
            loader.set_batch_size(-1)

    @pytest.mark.parametrize(
        "n, batch_size, drop_last, sizes",
        [
            (22, 5, False, [5, 5, 5, 5, 2]),
            (14, 5, False, [5, 5, 4]),
            (3, 5, False, [3]),
            (33, 32, False, [32, 1]),
            (22, 5, True, [5, 5, 5, 5]),
        ],
    )
    def test_tail_batch_is_never_folded(self, rng, n, batch_size, drop_last, sizes):
        """Batches are carved in order and a short tail stays its own batch,
        shuffled or not."""
        ds = ArrayDataset(x=np.arange(n)[:, None])
        for shuffle in (False, True):
            loader = DataLoader(
                ds, batch_size=batch_size, shuffle=shuffle, drop_last=drop_last, rng=rng
            )
            batches = [b["x"][:, 0] for b in loader]
            assert [len(b) for b in batches] == sizes
            assert len(loader) == len(sizes)
            seen = np.concatenate(batches)
            assert len(np.unique(seen)) == len(seen) == sum(sizes)

    def test_grow_batch_mid_epoch_does_not_corrupt_epochs(self):
        """A mid-epoch batch-size change takes effect next epoch only.

        The batch predictor mutates ``batch_size`` while training; the
        in-flight epoch must keep its snapshot so no sample is skipped or
        repeated, and the next epoch must use the new size.
        """
        ds = ArrayDataset(x=np.arange(10)[:, None])
        loader = DataLoader(ds, batch_size=2, drop_last=True)
        first_epoch = []
        for i, batch in enumerate(loader):
            first_epoch.append(batch["x"][:, 0])
            if i == 0:
                loader.set_batch_size(3)  # what the trainer does mid-fit
        assert all(len(chunk) == 2 for chunk in first_epoch)
        np.testing.assert_array_equal(np.concatenate(first_epoch), np.arange(10))

        second_epoch = [b["x"][:, 0] for b in loader]
        # New size applies cleanly: 3+3+3, tail of 1 dropped — the first
        # nine samples all appear exactly once (nothing skipped).
        assert [len(c) for c in second_epoch] == [3, 3, 3]
        np.testing.assert_array_equal(np.concatenate(second_epoch), np.arange(9))

    def test_unshuffled_epoch_order_is_cached(self):
        ds = ArrayDataset(x=np.arange(12)[:, None])
        loader = DataLoader(ds, batch_size=4)
        first = [b["x"][:, 0] for b in loader]
        assert loader._order is not None
        cached = loader._order
        second = [b["x"][:, 0] for b in loader]
        assert loader._order is cached  # no np.arange re-run per epoch
        np.testing.assert_array_equal(np.concatenate(first), np.concatenate(second))

    def test_shuffle_does_not_reuse_identity_cache(self, rng):
        ds = ArrayDataset(x=np.arange(30)[:, None])
        loader = DataLoader(ds, batch_size=30, shuffle=True, rng=rng)
        seen_a = next(iter(loader))["x"][:, 0]
        seen_b = next(iter(loader))["x"][:, 0]
        assert not np.array_equal(seen_a, seen_b)
        np.testing.assert_array_equal(np.sort(seen_b), np.arange(30))


class TestScaler:
    def test_transform_to_unit_interval(self, rng):
        x = rng.standard_normal((20, 30, 3)) * 5 + 2
        scaler = Scaler.fit(x)
        scaled = scaler.transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_inverse_roundtrip(self, rng):
        x = rng.standard_normal((5, 10, 2))
        scaler = Scaler.fit(x)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(x)), x, atol=1e-12)

    def test_constant_channel_safe(self):
        x = np.ones((3, 4, 1))
        scaler = Scaler.fit(x)
        assert np.isfinite(scaler.transform(x)).all()

    def test_wrong_ndim_raises(self, rng):
        with pytest.raises(ShapeError):
            Scaler.fit(rng.standard_normal((5, 10)))


class TestMasking:
    def test_mask_rate_concentrates(self, rng):
        x = rng.random((50, 200, 3))
        masked, mask = apply_timestamp_mask(x, 0.2, rng=rng)
        rate = mask[:, :, 0].mean()
        assert 0.15 < rate < 0.25

    def test_masked_positions_sentinel(self, rng):
        x = rng.random((5, 30, 2))
        masked, mask = apply_timestamp_mask(x, 0.3, rng=rng)
        assert (masked[mask] == -1.0).all()
        np.testing.assert_array_equal(masked[~mask], x[~mask])

    def test_whole_timestamps_masked(self, rng):
        """Masks cover all channels of a timestamp (paper Sec. 3)."""
        x = rng.random((10, 50, 4))
        _, mask = apply_timestamp_mask(x, 0.2, rng=rng)
        per_timestamp = mask.sum(axis=2)
        assert set(np.unique(per_timestamp)) <= {0, 4}

    def test_at_least_one_mask_per_sample(self, rng):
        x = rng.random((200, 5, 1))
        _, mask = apply_timestamp_mask(x, 0.01, rng=rng)
        assert mask.any(axis=(1, 2)).all()

    def test_mask_tail(self, rng):
        x = rng.random((3, 20, 2))
        masked, mask = mask_tail(x, horizon=5)
        assert mask[:, -5:, :].all()
        assert not mask[:, :-5, :].any()
        assert (masked[:, -5:, :] == -1.0).all()

    def test_mask_tail_bad_horizon(self, rng):
        with pytest.raises(ShapeError):
            mask_tail(rng.random((2, 10, 1)), horizon=10)


class TestWindows:
    def test_non_overlapping(self, rng):
        rec = rng.standard_normal((100, 3))
        wins = sliding_windows(rec, window=25)
        assert wins.shape == (4, 25, 3)
        np.testing.assert_array_equal(wins[1], rec[25:50])

    def test_overlapping_step(self, rng):
        rec = rng.standard_normal((100, 2))
        wins = sliding_windows(rec, window=50, step=25)
        assert wins.shape == (3, 50, 2)

    def test_short_recording_empty(self, rng):
        wins = sliding_windows(rng.standard_normal((10, 2)), window=20)
        assert wins.shape == (0, 20, 2)

    def test_invalid_args(self, rng):
        with pytest.raises(ShapeError):
            sliding_windows(rng.standard_normal(10), window=5)
        with pytest.raises(ShapeError):
            sliding_windows(rng.standard_normal((10, 1)), window=0)


class TestRegistry:
    def test_table1_matches_paper(self):
        rows = table1_rows()
        by_name = {r["dataset"]: r for r in rows}
        assert by_name["WISDM"]["train_size"] == 28280
        assert by_name["ECG"]["length"] == 2000
        assert by_name["MGH"]["channels"] == 21
        assert by_name["MGH"]["classes"] == "N/A"
        assert by_name["HHAR"]["classes"] == 5

    def test_load_scaled_dataset(self, rng):
        bundle = load_dataset("rwhar", size_scale=0.002, length_scale=0.25, rng=rng)
        assert bundle.length == 50
        assert bundle.channels == 3
        assert bundle.n_classes == 8
        assert len(bundle.train) >= 32
        assert "y" in bundle.train.keys

    def test_load_unlabeled_mgh(self, rng):
        bundle = load_dataset("mgh", size_scale=0.005, length_scale=0.01, rng=rng)
        assert "y" not in bundle.train.keys
        assert bundle.n_classes is None

    def test_pretrain_pool(self, rng):
        bundle = load_dataset(
            "hhar", size_scale=0.002, length_scale=0.2, rng=rng,
            with_pretrain=True, pretrain_scale=0.001,
        )
        assert bundle.pretrain is not None
        assert len(bundle.pretrain) >= 32

    def test_unknown_dataset_raises(self, rng):
        with pytest.raises(ConfigError):
            load_dataset("ucr", rng=rng)

    def test_univariate_variants_registered(self):
        for name in ["wisdm_uni", "hhar_uni", "rwhar_uni"]:
            assert DATASETS[name].channels == 1
