"""The fused backend against the reference oracle at the edges.

The parity matrix checks each kernel on one shape of integer-valued
inputs.  Here the fused backend meets the oracle on random inputs where
its batch flattening and run tables could slip: fewer rows than a batch
axis suggests, broadcast masks, optional arguments left out, 1-D and
3-D inputs, empty inputs, a non-last axis — and then through every
attention mechanism, forward in both dtypes and backward.  Bars come
from ``tests/tolerances.py``.
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
from repro.autograd.tensor import Tensor
from tolerances import assert_parity


def _backends():
    return K.get_backend("fused"), K.get_backend("reference")


MECHANISMS = {
    "vanilla": lambda: VanillaAttention(),
    "local": lambda: LocalAttention(window=4),
    "performer": lambda: PerformerAttention(n_features=16, rng=np.random.default_rng(3)),
    "linformer": lambda: LinformerAttention(max_len=16, proj_dim=4, rng=np.random.default_rng(5)),
    "group": lambda: GroupAttention(n_groups=4, rng=np.random.default_rng(7)),
}


def _mask(rng, shape):
    mask = rng.random(shape) > 0.3
    mask[..., 0] = True
    return mask


def _counts(rng, shape):
    return rng.integers(1, 4, size=shape).astype(np.float64)


def _segments(rng, shape, num_segments=4):
    return K.Segments.from_ids(rng.integers(0, num_segments, size=shape), num_segments)


def _kmeans_with_points_sq(rng):
    points = rng.standard_normal((5, 9, 3))
    return points, rng.standard_normal((5, 4, 3)), np.einsum("bnd,bnd->bn", points, points)


def _layer_norm_cache(rng, shape):
    x = rng.standard_normal(shape)
    _, xhat, inv_std = K.get_backend("reference").layer_norm(x, np.ones(shape[-1]), 0.0, 1e-5)
    return xhat, inv_std


#: (id, method, args from an rng).  Edge geometries the per-kernel parity
#: tests do not reach: fewer rows than a batch of four, broadcast masks,
#: optional arguments left out, 3-D row-wise inputs, unbatched 1-D/2-D
#: inputs, empty inputs and a reduction along a non-last axis.
EDGE_CASES = [
    ("softmax-3-rows", "softmax", lambda r: (r.standard_normal((3, 7)), -1)),
    ("log_softmax-3-rows-f32", "log_softmax",
     lambda r: (r.standard_normal((3, 7)).astype(np.float32), -1)),
    ("softmax_backward-3d", "softmax_backward",
     lambda r: (r.standard_normal((2, 3, 5)), r.random((2, 3, 5)), -1)),
    ("masked_softmax-(1,9)-mask", "masked_softmax",
     lambda r: (r.standard_normal((2, 5, 9)), _mask(r, (1, 9)), -1)),
    ("group_softmax-(B,1,n)-query-mask", "group_softmax",
     lambda r: (r.standard_normal((2, 3, 7, 4)), _counts(r, (2, 3, 4)), _mask(r, (2, 1, 7)))),
    ("group_softmax-3d-3-batches", "group_softmax",
     lambda r: (r.standard_normal((3, 7, 4)), _counts(r, (3, 4)), None)),
    ("group_softmax_backward-4d", "group_softmax_backward",
     lambda r: (r.standard_normal((2, 3, 7, 4)), r.random((2, 3, 7, 4)), _counts(r, (2, 3, 4)))),
    ("linear-bias-none", "linear",
     lambda r: (r.standard_normal((2, 5, 6)), r.standard_normal((4, 6)), None)),
    ("linear_backward-need-bias-false", "linear_backward",
     lambda r: (r.standard_normal((2, 5, 4)), r.standard_normal((2, 5, 6)),
                r.standard_normal((4, 6)), False)),
    ("layer_norm-3d", "layer_norm",
     lambda r: (r.standard_normal((2, 5, 8)), r.standard_normal(8), r.standard_normal(8), 1e-5)),
    ("layer_norm_infer-3d", "layer_norm_infer",
     lambda r: (r.standard_normal((2, 5, 8)), r.standard_normal(8), r.standard_normal(8), 1e-5)),
    ("layer_norm_backward-3d", "layer_norm_backward",
     lambda r: (r.standard_normal((2, 5, 8)), *_layer_norm_cache(r, (2, 5, 8)),
                r.standard_normal(8))),
    ("kmeans_assign-points-sq", "kmeans_assign", _kmeans_with_points_sq),
    ("segment_sum-4d", "segment_sum",
     lambda r: (r.standard_normal((2, 3, 9, 2)), _segments(r, (2, 3, 9)))),
    ("softmax-1d", "softmax", lambda r: (r.standard_normal(7), -1)),
    ("softmax-axis-0", "softmax", lambda r: (r.standard_normal((4, 6)), 0)),
    ("log_softmax-middle-axis", "log_softmax",
     lambda r: (r.standard_normal((2, 4, 6)), 1)),
    ("group_softmax-2d", "group_softmax",
     lambda r: (r.standard_normal((7, 4)), _counts(r, (4,)), None)),
    ("layer_norm-1d", "layer_norm",
     lambda r: (r.standard_normal(8), r.standard_normal(8), r.standard_normal(8), 1e-5)),
    ("softmax-empty-(0,5)", "softmax", lambda r: (np.empty((0, 5)), -1)),
    ("segment_sum-empty-(2,0)", "segment_sum",
     lambda r: (np.empty((2, 0, 3)), _segments(r, (2, 0)))),
    ("linear-1d", "linear",
     lambda r: (r.standard_normal(6), r.standard_normal((4, 6)), r.standard_normal(4))),
    ("segment_sum-2d", "segment_sum",
     lambda r: (r.standard_normal((9, 3)), _segments(r, 9))),
    ("segment_gather-2d", "segment_gather",
     lambda r: (r.standard_normal((4, 3)), _segments(r, 9))),
    ("segment_count-1d", "segment_count", lambda r: (_segments(r, 9),)),
    ("segment_mean-2d", "segment_mean",
     lambda r: (r.standard_normal((9, 3)), _segments(r, 9))),
    ("segment_max-1d", "segment_max",
     lambda r: (r.uniform(-2.0, 0.0, 9), _segments(r, 9), -1.0)),
]


class TestEdgeGeometries:
    @pytest.mark.parametrize(
        "method, build",
        [pytest.param(*case[1:], id=case[0]) for case in EDGE_CASES],
    )
    def test_fused_matches_reference(self, rng, method, build):
        fused, reference = _backends()
        args = build(rng)
        expected = getattr(reference, method)(*args)
        got = getattr(fused, method)(*args)
        assert type(got) is type(expected)
        if not isinstance(expected, tuple):
            got, expected = (got,), (expected,)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if e is None:
                assert g is None
                continue
            dtype = e.dtype if e.dtype.kind == "f" else np.float64
            assert_parity(g, e, "kernel", dtype)


class TestMechanismParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_forward_matches_reference(self, rng, name, dtype):
        q, k, v = (rng.standard_normal((2, 2, 16, 8)).astype(dtype) for _ in range(3))
        outputs = {}
        with K.dtype_scope(dtype):
            for backend in ("reference", "fused"):
                with K.use_backend(backend):
                    mechanism = MECHANISMS[name]()
                    outputs[backend] = mechanism(Tensor(q), Tensor(k), Tensor(v)).data
        assert_parity(outputs["fused"], outputs["reference"], "mechanism", dtype)

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_backward_matches_reference(self, rng, name):
        q, k, v, weight = (rng.standard_normal((2, 2, 16, 8)) for _ in range(4))
        grads = {}
        for backend in ("reference", "fused"):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
            with K.use_backend(backend):
                (MECHANISMS[name]()(*tensors) * weight).sum().backward()
            grads[backend] = [t.grad for t in tensors]
        for f, r in zip(grads["fused"], grads["reference"]):
            assert_parity(f, r, "mechanism backward", np.float64)
