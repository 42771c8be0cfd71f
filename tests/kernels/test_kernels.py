"""Kernel-layer correctness: gradchecks and cross-backend parity.

The fused backend must match the NumPy reference backend (the semantics
oracle) in both forward values and gradients, for every kernel the compute
stack routes through.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.autograd import gradcheck
from repro.autograd.tensor import Tensor, no_grad
from repro.errors import ShapeError

BACKENDS = ["reference", "fused"]


def _tensor(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestFusedGroupSoftmax:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gradcheck(self, rng, backend):
        scores = _tensor(rng, 2, 3, 5, 4)
        counts = rng.integers(1, 6, size=(2, 3, 4)).astype(np.float64)
        with K.use_backend(backend):
            assert gradcheck(lambda s: K.fused_group_softmax(s, counts), [scores])

    def test_forward_parity_and_rows_normalize(self, rng):
        scores = rng.standard_normal((2, 2, 6, 5))
        counts = rng.integers(1, 4, size=(2, 2, 5)).astype(np.float64)
        with K.use_backend("reference"):
            ref = K.fused_group_softmax(Tensor(scores), counts).data
        with K.use_backend("fused"):
            fused = K.fused_group_softmax(Tensor(scores), counts).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)
        # Count-weighted rows sum to one (Eq. 3 normalization).
        np.testing.assert_allclose(
            (fused * counts[..., None, :]).sum(axis=-1), 1.0, atol=1e-12
        )

    def test_backward_parity(self, rng):
        scores = rng.standard_normal((2, 2, 6, 5))
        counts = rng.integers(1, 4, size=(2, 2, 5)).astype(np.float64)
        weight = rng.standard_normal(scores.shape)
        grads = {}
        for backend in BACKENDS:
            t = Tensor(scores.copy(), requires_grad=True)
            with K.use_backend(backend):
                (K.fused_group_softmax(t, counts) * weight).sum().backward()
            grads[backend] = t.grad
        np.testing.assert_allclose(grads["fused"], grads["reference"], atol=1e-12)

    def test_shape_validation(self, rng):
        scores = Tensor(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ShapeError):
            K.fused_group_softmax(scores, np.ones((2, 5)))


class TestSegmentOps:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segment_sum_gradcheck(self, rng, backend):
        values = _tensor(rng, 2, 2, 7, 3)
        ids = rng.integers(0, 4, size=(2, 2, 7))
        with K.use_backend(backend):
            assert gradcheck(lambda v: K.segment_sum(v, ids, 4), [values])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segment_gather_gradcheck(self, rng, backend):
        values = _tensor(rng, 2, 2, 4, 3)
        ids = rng.integers(0, 4, size=(2, 2, 7))
        with K.use_backend(backend):
            assert gradcheck(lambda v: K.segment_gather(v, ids), [values])

    def test_segment_sum_parity_with_empty_segments(self, rng):
        values = rng.standard_normal((3, 9, 4))
        # Segment 2 is empty everywhere; fused path must still zero it.
        ids = rng.choice([0, 1, 3, 4], size=(3, 9))
        with K.use_backend("reference"):
            ref = K.segment_sum(Tensor(values), ids, 5).data
        with K.use_backend("fused"):
            fused = K.segment_sum(Tensor(values), ids, 5).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)
        assert np.all(fused[:, 2, :] == 0.0)

    def test_segment_sum_matches_dense_onehot(self, rng):
        values = rng.standard_normal((2, 6, 3))
        ids = rng.integers(0, 4, size=(2, 6))
        onehot = np.eye(4)[ids]  # (2, 6, 4)
        dense = np.swapaxes(onehot, -1, -2) @ values
        out = K.segment_sum(Tensor(values), ids, 4).data
        np.testing.assert_allclose(out, dense, atol=1e-12)

    def test_2d_unbatched_inputs(self, rng):
        values = rng.standard_normal((7, 3))
        ids = rng.integers(0, 3, size=7)
        with K.use_backend("reference"):
            ref = K.segment_sum(Tensor(values), ids, 3).data
        with K.use_backend("fused"):
            fused = K.segment_sum(Tensor(values), ids, 3).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            K.segment_sum(Tensor(rng.standard_normal((2, 5, 3))), np.zeros((2, 4), dtype=int), 3)


class TestAffineAndNorm:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_linear_gradcheck(self, rng, backend):
        x = _tensor(rng, 2, 4, 5)
        w = _tensor(rng, 3, 5)
        b = _tensor(rng, 3)
        with K.use_backend(backend):
            assert gradcheck(lambda x, w, b: K.linear(x, w, b), [x, w, b])
            assert gradcheck(lambda x, w: K.linear(x, w), [x, w])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_layer_norm_gradcheck(self, rng, backend):
        x = _tensor(rng, 3, 6)
        w = Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
        b = _tensor(rng, 6)
        with K.use_backend(backend):
            assert gradcheck(
                lambda x, w, b: K.layer_norm(x, w, b), [x, w, b], atol=1e-4
            )

    def test_linear_parity(self, rng):
        x = rng.standard_normal((2, 4, 5))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        with K.use_backend("reference"):
            ref = K.linear(Tensor(x), Tensor(w), Tensor(b)).data
        with K.use_backend("fused"):
            fused = K.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)

    def test_layer_norm_parity(self, rng):
        x = rng.standard_normal((2, 4, 6))
        w = rng.standard_normal(6)
        b = rng.standard_normal(6)
        with K.use_backend("reference"):
            ref = K.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        with K.use_backend("fused"):
            fused = K.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(fused, ref, atol=1e-12)


class TestSoftmaxAndLosses:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_softmax_gradchecks(self, rng, backend):
        a = _tensor(rng, 3, 6)
        with K.use_backend(backend):
            assert gradcheck(lambda t: K.softmax(t, axis=-1), [a])
            assert gradcheck(lambda t: K.log_softmax(t, axis=-1), [a])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cross_entropy_gradcheck(self, rng, backend):
        logits = _tensor(rng, 6, 4)
        targets = rng.integers(0, 4, size=6)
        with K.use_backend(backend):
            assert gradcheck(lambda l: K.cross_entropy(l, targets), [logits])


class TestNoGradFastPath:
    def test_kernels_skip_graph_under_no_grad(self, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        w = Tensor(np.ones(5), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        with no_grad():
            out = K.layer_norm(x, w, b)
            assert out._backward is None and not out.requires_grad
            out = K.linear(x, Tensor(rng.standard_normal((3, 5)), requires_grad=True))
            assert out._backward is None and not out.requires_grad
            out = K.softmax(x)
            assert out._backward is None and not out.requires_grad

    def test_constant_inputs_skip_graph(self, rng):
        # Even in grad mode, constants produce no closure.
        out = K.softmax(Tensor(rng.standard_normal((2, 5))))
        assert out._backward is None and not out.requires_grad


class TestRegistry:
    def test_available_and_switching(self):
        assert set(K.available_backends()) >= {"reference", "fused"}
        active = K.get_backend().name
        with K.use_backend("reference"):
            assert K.get_backend().name == "reference"
        assert K.get_backend().name == active

    def test_unknown_backend_raises(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            K.get_backend("no-such-backend")

    def test_fused_and_its_oracle_are_the_only_backends(self):
        from repro.errors import ConfigError

        assert K.available_backends() == ["fused", "reference"]
        assert K.get_backend().name == "fused"
        with pytest.raises(ConfigError), K.use_backend("parallel"):
            pass
