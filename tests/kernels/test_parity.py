"""float32 / float64 parity where the matrix's float32 rows do not reach.

The dtype policy halves memory traffic in float32.  The parity matrix
holds the float32 model to the float64 oracle with vanilla attention and
with singleton groups, where every group count is one.  Here the group
math runs on groups of several members, so the count-weighted softmax
and the segment sums do real work, and local, Performer and Linformer
attention meet their float64 selves.  Every bar is the ``float32 vs
float64`` row of ``tests/tolerances.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.kernels as K
from repro.autograd.tensor import Tensor
from repro.attention import (
    GroupAttention,
    LinformerAttention,
    LocalAttention,
    PerformerAttention,
)
from tolerances import assert_parity


def _group_attention_output(q, k, v, segments, counts):
    """The full group-attention math (Alg. 1) on explicit assignments."""
    key_sums = K.segment_sum(Tensor(k), segments)
    representatives = key_sums / np.maximum(counts, 1.0).astype(k.dtype)[..., None]
    scores = (Tensor(q) @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    attn = K.fused_group_softmax(scores, counts.astype(k.dtype))
    return (attn @ K.segment_sum(Tensor(v), segments)).data


class TestGroupAttentionDtypeParity:
    def test_float32_within_1e4_of_float64(self, rng):
        q, k, v = (rng.standard_normal((2, 2, 32, 8)) for _ in range(3))
        ids = rng.integers(0, 6, size=(2, 2, 32))
        counts = np.apply_along_axis(np.bincount, -1, ids, minlength=6).astype(np.float64)
        assert counts.min() > 1  # every group has several members
        segments = K.Segments.from_ids(ids, 6)
        ref64 = _group_attention_output(q, k, v, segments, counts)
        q32, k32, v32 = (a.astype(np.float32) for a in (q, k, v))
        out32 = _group_attention_output(q32, k32, v32, segments, counts)
        assert_parity(out32, ref64, "float32 vs float64", np.float32)

    def test_mechanism_forward_dtype_follows_inputs(self, rng):
        mech = GroupAttention(n_groups=4, rng=np.random.default_rng(0))
        q = Tensor(rng.standard_normal((1, 2, 16, 8)).astype(np.float32))
        out = mech(q, q, q)
        assert out.dtype == np.float32


class TestOtherMechanismsDtypeParity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LocalAttention(window=4),
            lambda: PerformerAttention(n_features=16, rng=np.random.default_rng(3)),
            lambda: LinformerAttention(max_len=16, proj_dim=4, rng=np.random.default_rng(5)),
        ],
        ids=["local", "performer", "linformer"],
    )
    def test_float32_close_to_float64(self, rng, make):
        q, k, v = (rng.standard_normal((1, 2, 16, 8)) for _ in range(3))
        out64 = make()(Tensor(q), Tensor(k), Tensor(v)).data
        with K.dtype_scope(np.float32):  # Linformer's projections follow the policy
            out32 = make()(*(Tensor(a.astype(np.float32)) for a in (q, k, v))).data
        assert_parity(out32, out64, "float32 vs float64", np.float32)
