"""Masked kernel nodes: masked_softmax, masked group softmax, masked losses.

Each test runs on both backends (fused meets reference in the parity
matrix's ``masked softmax`` row); gradients must match finite differences; masked positions must be exact zeros (not tiny values), so
products against padded operands contribute nothing downstream.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.autograd import gradcheck
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from tolerances import assert_parity


def random_mask(rng, shape, ensure_valid_rows=True):
    mask = rng.random(shape) < 0.6
    if ensure_valid_rows:
        mask[..., 0] = True
    return mask


@pytest.mark.parametrize("backend", ["fused", "reference"])
class TestMaskedSoftmax:
    def test_full_mask_matches_softmax(self, rng, backend):
        x = rng.standard_normal((2, 3, 8))
        with K.use_backend(backend):
            out = K.masked_softmax(Tensor(x), np.ones((2, 3, 8), dtype=bool)).data
            plain = K.softmax(Tensor(x)).data
        assert_parity(out, plain, "masked vs unmasked", np.float64)

    def test_masked_positions_exactly_zero_and_rows_normalized(self, rng, backend):
        x = rng.standard_normal((4, 10))
        mask = random_mask(rng, (4, 10))
        with K.use_backend(backend):
            out = K.masked_softmax(Tensor(x), mask).data
        np.testing.assert_array_equal(out[~mask], 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_fully_masked_row_returns_zeros(self, rng, backend):
        x = rng.standard_normal((2, 6))
        mask = np.zeros((2, 6), dtype=bool)
        mask[0] = True
        with K.use_backend(backend):
            out = K.masked_softmax(Tensor(x), mask).data
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[1], 0.0)
        np.testing.assert_allclose(out[0].sum(), 1.0, atol=1e-12)

    def test_matches_unmasked_on_valid_slice(self, rng, backend):
        """Key-mask semantics: rows over a valid prefix == softmax of the slice."""
        x = rng.standard_normal((3, 5, 9))
        mask = np.zeros((3, 1, 9), dtype=bool)
        mask[:, :, :6] = True
        with K.use_backend(backend):
            out = K.masked_softmax(Tensor(x), mask).data
            sliced = K.softmax(Tensor(x[..., :6])).data
        assert_parity(out[..., :6], sliced, "masked vs unmasked", np.float64)

    def test_gradcheck(self, rng, backend):
        x = Tensor(rng.standard_normal((3, 7)), requires_grad=True)
        mask = random_mask(rng, (3, 7))
        with K.use_backend(backend):
            assert gradcheck(lambda a: K.masked_softmax(a, mask), [x])

    def test_f32_parity_with_f64(self, rng, backend):
        x = rng.standard_normal((2, 4, 12))
        mask = random_mask(rng, (2, 1, 12))
        with K.use_backend(backend):
            ref = K.masked_softmax(Tensor(x), mask).data
            with K.dtype_scope(np.float32):
                out32 = K.masked_softmax(Tensor(x.astype(np.float32)), mask).data
        assert_parity(out32, ref, "float32 vs float64", np.float32)

    def test_shape_mismatch_raises(self, rng, backend):
        with K.use_backend(backend), pytest.raises(ShapeError):
            K.masked_softmax(Tensor(rng.standard_normal((2, 5))), np.ones((3, 4), bool))


@pytest.mark.parametrize("backend", ["fused", "reference"])
class TestMaskedGroupSoftmax:
    def test_query_mask_zeroes_rows(self, rng, backend):
        scores = rng.standard_normal((2, 3, 6, 4))
        counts = rng.integers(1, 4, size=(2, 3, 4)).astype(np.float64)
        qmask = random_mask(rng, (2, 3, 6))
        with K.use_backend(backend):
            out = K.fused_group_softmax(Tensor(scores), counts, qmask).data
            dense = K.fused_group_softmax(Tensor(scores), counts).data
        np.testing.assert_array_equal(out[~qmask], 0.0)
        assert_parity(out[qmask], dense[qmask], "masked vs unmasked", np.float64)

    def test_all_empty_groups_give_zeros_not_nan(self, rng, backend):
        scores = rng.standard_normal((1, 1, 3, 2))
        counts = np.zeros((1, 1, 2))
        qmask = np.ones((1, 1, 3), dtype=bool)
        with K.use_backend(backend):
            out = K.fused_group_softmax(Tensor(scores), counts, qmask).data
        assert np.isfinite(out).all()

    def test_gradcheck_with_query_mask(self, rng, backend):
        scores = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        counts = rng.integers(1, 3, size=(2, 3)).astype(np.float64)
        qmask = random_mask(rng, (2, 4))
        with K.use_backend(backend):
            assert gradcheck(lambda s: K.fused_group_softmax(s, counts, qmask), [scores])


class TestMaskedLosses:
    def test_masked_l1_value(self, rng):
        pred = rng.standard_normal((3, 5))
        target = rng.standard_normal((3, 5))
        mask = random_mask(rng, (3, 5))
        out = K.masked_l1(Tensor(pred), target, mask)
        expected = np.abs((pred - target)[mask]).mean()
        np.testing.assert_allclose(float(out.data), expected, atol=1e-12)

    def test_masked_l1_gradcheck(self, rng):
        pred = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        target = rng.standard_normal((4, 6))
        mask = random_mask(rng, (4, 6))
        assert gradcheck(lambda p: K.masked_l1(p, target, mask), [pred])

    def test_masked_mse_gradcheck(self, rng):
        pred = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        target = rng.standard_normal((4, 6))
        mask = random_mask(rng, (4, 6))
        assert gradcheck(lambda p: K.masked_mse(p, target, mask), [pred])

    def test_masked_losses_ignore_padded_garbage(self, rng):
        pred = rng.standard_normal((2, 8))
        target = rng.standard_normal((2, 8))
        mask = np.arange(8) < np.array([8, 5])[:, None]
        pred_garbage = pred.copy()
        pred_garbage[~mask] = 1e30
        for loss in (K.masked_mse, K.masked_l1):
            clean = float(loss(Tensor(pred), target, mask).data)
            dirty = float(loss(Tensor(pred_garbage), target, mask).data)
            assert clean == dirty

    def test_empty_mask_raises(self, rng):
        pred = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ShapeError):
            K.masked_l1(pred, np.zeros((2, 3)), np.zeros((2, 3), bool))

    def test_masked_softmax_zero_rows_get_zero_grads(self, rng):
        """Padded query rows must not leak gradient into the scores."""
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        mask = np.zeros((3, 6), dtype=bool)
        mask[:2] = True
        out = K.masked_softmax(x, mask)
        out.backward(np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad[2], 0.0)


class TestPerformerPhiMasked:
    def test_no_overflow_when_padded_logits_dominate(self, rng):
        """Padded rows whose raw logits sit far above the valid max must
        not overflow to inf (inf * 0 = NaN would poison the KV sums)."""
        n, d, m = 6, 4, 8
        omega = rng.standard_normal((m, d))
        x = rng.standard_normal((1, n, d)) * 40.0  # valid logits ~ -|x|^2/2 << 0
        x[0, 4:] = 0.0                             # padded rows: logits ~ 0 >> valid max
        mask = (np.arange(n) < 4)[None, :]
        out = K.performer_phi(Tensor(x), omega, mask=mask).data
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[0, 4:], 0.0)

    def test_masked_rows_exactly_zero_and_valid_match_slice_shape(self, rng):
        omega = rng.standard_normal((8, 4))
        x = rng.standard_normal((2, 5, 4))
        mask = np.arange(5) < np.array([5, 3])[:, None]
        out = K.performer_phi(Tensor(x), omega, mask=mask).data
        np.testing.assert_array_equal(out[1, 3:], 0.0)
        assert (out[mask] > 0).all()
