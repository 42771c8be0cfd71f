"""The ``parallel`` backend: registration, parity with fused, dispatch policy.

Determinism contract (see ``repro/kernels/parallel.py``): sharding splits
the *batch* dimension and never a reduction row, so every kernel except
the GEMM-backed ``linear`` must match the fused backend **bitwise**.
``linear`` shards rows of one matmul operand — BLAS may block the smaller
per-shard GEMMs differently, so those comparisons use a 1e-12 tolerance
(empirically bitwise here, but not guaranteed across BLAS builds).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as K
from repro.attention import (
    GroupAttention,
    LinformerAttention,
    LocalAttention,
    PerformerAttention,
    VanillaAttention,
)
from repro.autograd import gradcheck
from repro.autograd.tensor import Tensor
from repro.errors import ConfigError
from repro.kernels.parallel import ParallelNumpyBackend, in_worker, run_jobs


def _backends():
    return K.get_backend("fused"), K.get_backend("parallel")


def force_parallel(threads=4):
    """Shard everything: n-thread pool, size threshold of one element."""
    return K.threads_scope(threads, min_elements=1)


MECHANISMS = {
    "vanilla": lambda: VanillaAttention(),
    "local": lambda: LocalAttention(window=4),
    "performer": lambda: PerformerAttention(n_features=16, rng=np.random.default_rng(3)),
    "linformer": lambda: LinformerAttention(max_len=16, proj_dim=4, rng=np.random.default_rng(5)),
    "group": lambda: GroupAttention(n_groups=4, rng=np.random.default_rng(7)),
}


class TestRegistration:
    def test_parallel_is_a_registered_backend(self):
        assert "parallel" in K.available_backends()
        assert isinstance(K.get_backend("parallel"), ParallelNumpyBackend)

    def test_use_backend_round_trip(self):
        before = K.get_backend().name
        with K.use_backend("parallel"):
            assert K.get_backend().name == "parallel"
        assert K.get_backend().name == before


class TestKernelParity:
    """Direct backend-method parity, everything forced through the pool."""

    def test_softmax_family_bitwise(self, rng):
        fused, par = _backends()
        x = rng.standard_normal((5, 3, 8, 16))
        mask = rng.random((5, 1, 1, 16)) > 0.4
        mask[..., 0] = True
        grad = rng.standard_normal(x.shape)
        with force_parallel():
            assert np.array_equal(par.softmax(x, -1), fused.softmax(x, -1))
            assert np.array_equal(par.log_softmax(x, -1), fused.log_softmax(x, -1))
            out = fused.softmax(x, -1)
            assert np.array_equal(
                par.softmax_backward(grad, out, -1),
                fused.softmax_backward(grad, out, -1),
            )
            log_out = fused.log_softmax(x, -1)
            assert np.array_equal(
                par.log_softmax_backward(grad, log_out, -1),
                fused.log_softmax_backward(grad, log_out, -1),
            )
            assert np.array_equal(
                par.masked_softmax(x, mask, -1), fused.masked_softmax(x, mask, -1)
            )

    def test_non_last_axis_softmax_falls_back_and_matches(self, rng):
        fused, par = _backends()
        x = rng.standard_normal((4, 8, 6))
        with force_parallel():
            assert np.array_equal(par.softmax(x, 1), fused.softmax(x, 1))

    def test_group_softmax_bitwise(self, rng):
        fused, par = _backends()
        scores = rng.standard_normal((3, 2, 12, 5))
        counts = rng.integers(1, 4, size=(3, 2, 5)).astype(np.float64)
        grad = rng.standard_normal(scores.shape)
        mask = rng.random((3, 1, 12)) > 0.2
        mask[:, :, 0] = True
        with force_parallel():
            assert np.array_equal(
                par.group_softmax(scores, counts, None),
                fused.group_softmax(scores, counts, None),
            )
            assert np.array_equal(
                par.group_softmax(scores, counts, mask),
                fused.group_softmax(scores, counts, mask),
            )
            out = fused.group_softmax(scores, counts, None)
            assert np.array_equal(
                par.group_softmax_backward(grad, out, counts),
                fused.group_softmax_backward(grad, out, counts),
            )

    def test_segment_ops_bitwise(self, rng):
        fused, par = _backends()
        values = rng.standard_normal((4, 2, 9, 3))
        ids = rng.integers(0, 5, size=(4, 2, 9))
        gathered = rng.standard_normal((4, 2, 5, 3))
        scalar_values = rng.standard_normal((4, 2, 9))
        with force_parallel():
            assert np.array_equal(
                par.segment_sum(values, ids, 5), fused.segment_sum(values, ids, 5)
            )
            assert np.array_equal(
                par.segment_gather(gathered, ids), fused.segment_gather(gathered, ids)
            )
            assert np.array_equal(
                par.segment_count(ids, 5), fused.segment_count(ids, 5)
            )
            par_mean, par_counts = par.segment_mean(values, ids, 5)
            fused_mean, fused_counts = fused.segment_mean(values, ids, 5)
            assert np.array_equal(par_mean, fused_mean)
            assert np.array_equal(par_counts, fused_counts)
            assert np.array_equal(
                par.segment_max(scalar_values, ids, 5, initial=-1.0),
                fused.segment_max(scalar_values, ids, 5, initial=-1.0),
            )

    def test_kmeans_assign_bitwise(self, rng):
        fused, par = _backends()
        points = rng.standard_normal((6, 20, 4))
        centroids = rng.standard_normal((6, 3, 4))
        with force_parallel():
            assert np.array_equal(
                par.kmeans_assign(points, centroids),
                fused.kmeans_assign(points, centroids),
            )

    def test_linear_within_1e12(self, rng):
        fused, par = _backends()
        x = rng.standard_normal((4, 8, 6))
        w = rng.standard_normal((5, 6))
        b = rng.standard_normal(5)
        grad = rng.standard_normal((4, 8, 5))
        with force_parallel():
            np.testing.assert_allclose(
                par.linear(x, w, b), fused.linear(x, w, b), atol=1e-12, rtol=0
            )
            par_grads = par.linear_backward(grad, x, w, True)
            fused_grads = fused.linear_backward(grad, x, w, True)
            for p, f in zip(par_grads, fused_grads):
                np.testing.assert_allclose(p, f, atol=1e-12, rtol=0)
            # Weight/bias grads reduce over the full batch; the parallel
            # backend keeps those reductions serial, so they are bitwise.
            assert np.array_equal(par_grads[1], fused_grads[1])
            assert np.array_equal(par_grads[2], fused_grads[2])

    def test_layer_norm_bitwise(self, rng):
        fused, par = _backends()
        x = rng.standard_normal((64, 16))
        w = rng.standard_normal(16)
        b = rng.standard_normal(16)
        grad = rng.standard_normal(x.shape)
        with force_parallel():
            par_out = par.layer_norm(x, w, b, 1e-5)
            fused_out = fused.layer_norm(x, w, b, 1e-5)
            for p, f in zip(par_out, fused_out):
                assert np.array_equal(p, f)
            assert np.array_equal(
                par.layer_norm_infer(x, w, b, 1e-5), fused.layer_norm_infer(x, w, b, 1e-5)
            )
            _, xhat, inv_std = fused_out
            par_grads = par.layer_norm_backward(grad, xhat, inv_std, w)
            fused_grads = fused.layer_norm_backward(grad, xhat, inv_std, w)
            assert np.array_equal(par_grads[0], fused_grads[0])
            # grad_w / grad_b reduce over rows — kept serial, bitwise.
            assert np.array_equal(par_grads[1], fused_grads[1])
            assert np.array_equal(par_grads[2], fused_grads[2])


def _mask(rng, shape):
    mask = rng.random(shape) > 0.3
    mask[..., 0] = True
    return mask


def _counts(rng, shape):
    return rng.integers(1, 4, size=shape).astype(np.float64)


def _ids(rng, shape, num_segments=4):
    return rng.integers(0, num_segments, size=shape)


def _kmeans_with_points_sq(rng):
    points = rng.standard_normal((5, 9, 3))
    return points, rng.standard_normal((5, 4, 3)), np.einsum("bnd,bnd->bn", points, points)


def _layer_norm_cache(rng, shape):
    x = rng.standard_normal(shape)
    _, xhat, inv_std = K.get_backend("fused").layer_norm(x, np.ones(shape[-1]), 0.0, 1e-5)
    return xhat, inv_std


#: (id, method, args from an rng, (kernel_calls, sharded_calls, shards)
#: under ``force_parallel(4)``).  Edge geometries the parity tests above
#: do not reach: fewer rows than threads, broadcast masks, optional
#: arguments left out, 3-D row-wise inputs, and the calls that must stay
#: on the serial path.
SHARD_CASES = [
    ("softmax-3-rows", "softmax", lambda r: (r.standard_normal((3, 7)), -1), (1, 1, 3)),
    ("log_softmax-3-rows-f32", "log_softmax",
     lambda r: (r.standard_normal((3, 7)).astype(np.float32), -1), (1, 1, 3)),
    ("softmax_backward-3d", "softmax_backward",
     lambda r: (r.standard_normal((2, 3, 5)), r.random((2, 3, 5)), -1), (1, 1, 4)),
    ("masked_softmax-(1,9)-mask", "masked_softmax",
     lambda r: (r.standard_normal((2, 5, 9)), _mask(r, (1, 9)), -1), (1, 1, 4)),
    ("group_softmax-(B,1,n)-query-mask", "group_softmax",
     lambda r: (r.standard_normal((2, 3, 7, 4)), _counts(r, (2, 3, 4)), _mask(r, (2, 1, 7))),
     (1, 1, 4)),
    ("group_softmax-3d-3-batches", "group_softmax",
     lambda r: (r.standard_normal((3, 7, 4)), _counts(r, (3, 4)), None), (1, 1, 3)),
    ("group_softmax_backward-4d", "group_softmax_backward",
     lambda r: (r.standard_normal((2, 3, 7, 4)), r.random((2, 3, 7, 4)), _counts(r, (2, 3, 4))),
     (1, 1, 4)),
    ("linear-bias-none", "linear",
     lambda r: (r.standard_normal((2, 5, 6)), r.standard_normal((4, 6)), None), (1, 1, 4)),
    ("linear_backward-need-bias-false", "linear_backward",
     lambda r: (r.standard_normal((2, 5, 4)), r.standard_normal((2, 5, 6)),
                r.standard_normal((4, 6)), False), (1, 1, 4)),
    ("layer_norm-3d", "layer_norm",
     lambda r: (r.standard_normal((2, 5, 8)), r.standard_normal(8), r.standard_normal(8), 1e-5),
     (1, 1, 4)),
    ("layer_norm_infer-3d", "layer_norm_infer",
     lambda r: (r.standard_normal((2, 5, 8)), r.standard_normal(8), r.standard_normal(8), 1e-5),
     (1, 1, 4)),
    ("layer_norm_backward-3d", "layer_norm_backward",
     lambda r: (r.standard_normal((2, 5, 8)), *_layer_norm_cache(r, (2, 5, 8)),
                r.standard_normal(8)), (1, 1, 4)),
    ("kmeans_assign-points-sq", "kmeans_assign", _kmeans_with_points_sq, (1, 1, 4)),
    ("segment_sum-4d", "segment_sum",
     lambda r: (r.standard_normal((2, 3, 9, 2)), _ids(r, (2, 3, 9)), 4), (1, 1, 4)),
    # Never sharded: no leading work axis, or nothing to split.
    ("softmax-1d", "softmax", lambda r: (r.standard_normal(7), -1), (0, 0, 0)),
    ("softmax-axis-0", "softmax", lambda r: (r.standard_normal((4, 6)), 0), (0, 0, 0)),
    ("log_softmax-middle-axis", "log_softmax",
     lambda r: (r.standard_normal((2, 4, 6)), 1), (0, 0, 0)),
    ("group_softmax-2d", "group_softmax",
     lambda r: (r.standard_normal((7, 4)), _counts(r, (4,)), None), (0, 0, 0)),
    ("layer_norm-1d", "layer_norm",
     lambda r: (r.standard_normal(8), r.standard_normal(8), r.standard_normal(8), 1e-5),
     (0, 0, 0)),
    ("softmax-empty-(0,5)", "softmax", lambda r: (np.empty((0, 5)), -1), (1, 0, 0)),
    ("linear-1d", "linear",
     lambda r: (r.standard_normal(6), r.standard_normal((4, 6)), r.standard_normal(4)),
     (1, 0, 0)),
    ("segment_sum-2d", "segment_sum",
     lambda r: (r.standard_normal((9, 3)), _ids(r, 9), 4), (1, 0, 0)),
    ("segment_gather-2d", "segment_gather",
     lambda r: (r.standard_normal((4, 3)), _ids(r, 9)), (1, 0, 0)),
    ("segment_count-1d", "segment_count", lambda r: (_ids(r, 9), 4), (1, 0, 0)),
    ("segment_mean-2d", "segment_mean",
     lambda r: (r.standard_normal((9, 3)), _ids(r, 9), 4), (1, 0, 0)),
    ("segment_max-1d", "segment_max",
     lambda r: (r.standard_normal(9), _ids(r, 9), 4, -1.0), (1, 0, 0)),
]


class TestShardTable:
    """Edge cases of the shard routine: parity with fused plus exact counters."""

    @pytest.mark.parametrize(
        "method, build, counters",
        [pytest.param(*case[1:], id=case[0]) for case in SHARD_CASES],
    )
    def test_matches_fused_with_exact_counters(self, rng, method, build, counters):
        fused, par = _backends()
        args = build(rng)
        expected = getattr(fused, method)(*args)
        par.reset_stats()
        with force_parallel(4):
            got = getattr(par, method)(*args)
        snap = par.snapshot()
        assert (snap["kernel_calls"], snap["sharded_calls"], snap["shards"]) == counters
        assert type(got) is type(expected)
        if not isinstance(expected, tuple):
            got, expected = (got,), (expected,)
        assert len(got) == len(expected)
        for index, (p, f) in enumerate(zip(got, expected)):
            if f is None:
                assert p is None
                continue
            assert (p.shape, p.dtype) == (f.shape, f.dtype)
            if method.startswith("linear") and index == 0:
                # Row-sharded GEMM: BLAS blocking may differ per shard.
                np.testing.assert_allclose(p, f, atol=1e-12, rtol=0)
            else:
                assert np.array_equal(p, f)


class TestMechanismParity:
    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_forward_matches_fused_within_1e12(self, rng, name, dtype, threads):
        q = rng.standard_normal((2, 2, 16, 8)).astype(dtype)
        k = rng.standard_normal((2, 2, 16, 8)).astype(dtype)
        v = rng.standard_normal((2, 2, 16, 8)).astype(dtype)
        with K.dtype_scope(dtype):
            with K.use_backend("fused"):
                ref = MECHANISMS[name]()(Tensor(q), Tensor(k), Tensor(v)).data
            with K.use_backend("parallel"), force_parallel(threads):
                out = MECHANISMS[name]()(Tensor(q), Tensor(k), Tensor(v)).data
        assert out.dtype == dtype
        tol = 1e-12 if dtype == np.float64 else 1e-6
        np.testing.assert_allclose(out, ref, atol=tol, rtol=0)

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_backward_matches_fused_within_1e12(self, rng, name):
        q = rng.standard_normal((2, 2, 16, 8))
        k = rng.standard_normal((2, 2, 16, 8))
        v = rng.standard_normal((2, 2, 16, 8))
        weight = rng.standard_normal((2, 2, 16, 8))
        grads = {}
        for backend in ("fused", "parallel"):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
            with K.use_backend(backend), force_parallel():
                (MECHANISMS[name]()(*tensors) * weight).sum().backward()
            grads[backend] = [t.grad for t in tensors]
        for p, f in zip(grads["parallel"], grads["fused"]):
            np.testing.assert_allclose(p, f, atol=1e-12, rtol=0)


class TestGradcheckUnderParallel:
    def test_kernel_gradchecks_with_sharding_active(self, rng):
        x = Tensor(rng.standard_normal((3, 6, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        values = Tensor(rng.standard_normal((2, 2, 7, 3)), requires_grad=True)
        ids = rng.integers(0, 4, size=(2, 2, 7))
        scores = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        counts = rng.integers(1, 6, size=(2, 3, 4)).astype(np.float64)
        gamma = Tensor(rng.standard_normal(5), requires_grad=True)
        beta = Tensor(rng.standard_normal(5), requires_grad=True)
        with K.use_backend("parallel"), force_parallel():
            assert gradcheck(lambda t: K.softmax(t), [x])
            assert gradcheck(lambda t, w, b: K.linear(t, w, b), [x, w, b])
            assert gradcheck(lambda t, g, b: K.layer_norm(t, g, b), [x, gamma, beta])
            assert gradcheck(lambda v: K.segment_sum(v, ids, 4), [values])
            assert gradcheck(lambda s: K.fused_group_softmax(s, counts), [scores])


class TestDispatchPolicy:
    def test_small_inputs_stay_serial(self, rng):
        backend = K.get_backend("parallel")
        backend.reset_stats()
        x = rng.standard_normal((4, 16))  # 64 elements << default threshold
        with K.threads_scope(4):
            backend.softmax(x, -1)
        stats = backend.snapshot()
        assert stats["kernel_calls"] == 1
        assert stats["sharded_calls"] == 0

    def test_large_inputs_shard(self, rng):
        backend = K.get_backend("parallel")
        backend.reset_stats()
        x = rng.standard_normal((8, 64))
        with force_parallel(4):
            out = backend.softmax(x, -1)
        stats = backend.snapshot()
        assert stats["sharded_calls"] == 1
        assert stats["shards"] == 4
        assert np.array_equal(out, K.get_backend("fused").softmax(x, -1))

    def test_single_thread_policy_never_shards(self, rng):
        backend = K.get_backend("parallel")
        backend.reset_stats()
        with K.threads_scope(1, min_elements=1):
            backend.softmax(rng.standard_normal((8, 64)), -1)
        assert backend.snapshot()["sharded_calls"] == 0

    def test_pool_workers_run_serial(self):
        """Nested dispatch from inside a pool worker must not deadlock on
        the pool it runs on — the worker flag forces the serial path."""
        with K.threads_scope(2):
            flags = run_jobs([lambda: in_worker(), lambda: in_worker()])
        assert flags == [True, True]
        assert not in_worker()

    def test_threads_scope_restores_policy(self):
        before_threads = K.get_num_threads()
        before_threshold = K.get_parallel_threshold()
        with K.threads_scope(3, min_elements=17):
            assert K.get_num_threads() == 3
            assert K.get_parallel_threshold() == 17
        assert K.get_num_threads() == before_threads
        assert K.get_parallel_threshold() == before_threshold

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            K.set_num_threads(0)
        with pytest.raises(ConfigError):
            K.set_num_threads("many")
        with pytest.raises(ConfigError):
            K.set_parallel_threshold(-1)
