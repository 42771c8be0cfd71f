"""Group attention: exactness (Lemma 3), error bound (Lemma 1), Alg. 1 semantics."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.attention import GroupAttention, VanillaAttention, group_attention_exact_output
from repro.attention import group as group_module
from repro.autograd import Tensor, gradcheck
from repro.cluster import batched_kmeans
from repro.errors import ConfigError


def run_group(q, k, v, n_groups, iters=10, seed=0):
    # k-means++ seeding guarantees the perfect grouping when keys are
    # exact duplicates, which Lemma 3's precondition requires.
    ga = GroupAttention(n_groups=n_groups, kmeans_iters=iters, rng=np.random.default_rng(seed))
    seeded = functools.partial(batched_kmeans, init="++")
    with mock.patch.object(group_module, "batched_kmeans", seeded):
        out = ga(Tensor(q[None, None]), Tensor(k[None, None]), Tensor(v[None, None]))
    return ga, out.data[0, 0]


class TestLemma3Exactness:
    """When every key equals its group representative, group attention ==
    canonical self-attention (paper Lemma 3 / Appendix A.4)."""

    @pytest.mark.parametrize("n_distinct,repeat", [(2, 5), (3, 4), (5, 3)])
    def test_duplicate_keys_give_exact_attention(self, rng, n_distinct, repeat):
        d_k = 4
        distinct = rng.standard_normal((n_distinct, d_k))
        k = np.tile(distinct, (repeat, 1))
        n = n_distinct * repeat
        q = rng.standard_normal((n, d_k))
        v = rng.standard_normal((n, d_k))
        _, group_out = run_group(q, k, v, n_groups=n_distinct)
        vanilla_out = VanillaAttention()(
            Tensor(q[None, None]), Tensor(k[None, None]), Tensor(v[None, None])
        ).data[0, 0]
        np.testing.assert_allclose(group_out, vanilla_out, atol=1e-10)

    def test_reference_implementation_matches_module(self, rng):
        d_k, n_distinct, repeat = 3, 3, 4
        distinct = rng.standard_normal((n_distinct, d_k))
        k = np.tile(distinct, (repeat, 1))
        q = rng.standard_normal((n_distinct * repeat, d_k))
        v = rng.standard_normal((n_distinct * repeat, d_k))
        assignments = np.tile(np.arange(n_distinct), repeat)
        ref = group_attention_exact_output(q, k, v, assignments)
        vanilla = VanillaAttention()(
            Tensor(q[None, None]), Tensor(k[None, None]), Tensor(v[None, None])
        ).data[0, 0]
        np.testing.assert_allclose(ref, vanilla, atol=1e-10)


class TestGroupSoftmaxSemantics:
    def test_group_softmax_restores_full_softmax(self, rng):
        """Eq. 3: group softmax on the compressed matrix equals softmax on
        the restored full matrix."""
        n, n_groups, d_k = 12, 3, 4
        q = rng.standard_normal((n, d_k))
        reps = rng.standard_normal((n_groups, d_k))
        assignments = rng.integers(0, n_groups, n)
        counts = np.bincount(assignments, minlength=n_groups).astype(float)
        assume_all = counts.min() > 0

        compressed = q @ reps.T  # P~ (n, N)
        weights = np.exp(compressed) * counts[None, :]
        group_attn = np.exp(compressed) / weights.sum(axis=1, keepdims=True)

        restored_scores = compressed[:, assignments]  # P (n, n)
        full = np.exp(restored_scores)
        full /= full.sum(axis=1, keepdims=True)

        # Restored attention from the group matrix must equal the full one.
        np.testing.assert_allclose(group_attn[:, assignments], full, atol=1e-12)

    def test_restored_rows_sum_to_one(self, rng):
        """sum_j count_j * A~_ij == 1 for every row i."""
        n, d_k = 16, 4
        q = rng.standard_normal((n, d_k))
        k = rng.standard_normal((n, d_k))
        v = rng.standard_normal((n, d_k))
        ga = GroupAttention(n_groups=4, kmeans_iters=5, rng=np.random.default_rng(0))
        qt, kt, vt = (Tensor(a[None, None]) for a in (q, k, v))
        # Recompute the attention matrix the same way the module does.
        out = ga(qt, kt, vt)
        stats = ga.last_stats
        counts = stats.counts[0].astype(float)
        reps = stats.centers[0]
        scores = q @ reps.T / math.sqrt(d_k)
        exp_scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = exp_scores / (exp_scores * counts[None, :]).sum(axis=1, keepdims=True)
        np.testing.assert_allclose((attn * counts[None, :]).sum(axis=1), 1.0, atol=1e-9)

    def test_output_shape_multihead_batch(self, rng):
        ga = GroupAttention(n_groups=4, rng=rng)
        q = Tensor(rng.standard_normal((3, 2, 10, 5)))
        out = ga(q, Tensor(rng.standard_normal((3, 2, 10, 5))), Tensor(rng.standard_normal((3, 2, 10, 5))))
        assert out.shape == (3, 2, 10, 5)

    def test_n_groups_clipped_to_sequence_length(self, rng):
        ga = GroupAttention(n_groups=100, rng=rng)
        q = Tensor(rng.standard_normal((1, 1, 6, 3)))
        ga(q, q, q)
        assert ga.last_stats.n_groups == 6

    def test_invalid_n_groups_raises(self):
        with pytest.raises(ConfigError):
            GroupAttention(n_groups=0)

    def test_stats_recorded(self, rng):
        ga = GroupAttention(n_groups=4, rng=rng)
        q = Tensor(rng.standard_normal((2, 2, 8, 3)))
        ga(q, q, q)
        stats = ga.last_stats
        assert stats.centers.shape == (4, 4, 3)
        assert stats.counts.shape == (4, 4)
        assert stats.key_radius > 0
        assert stats.grouping_seconds >= 0

    def test_gradients_flow_to_all_inputs(self, rng):
        q = Tensor(rng.standard_normal((1, 1, 8, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((1, 1, 8, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((1, 1, 8, 3)), requires_grad=True)

        def f(q, k, v):
            ga = GroupAttention(n_groups=3, kmeans_iters=4, rng=np.random.default_rng(1))
            return ga(q, k, v)

        assert gradcheck(f, [q, k, v], atol=1e-4, rtol=1e-3)

    def test_extreme_scores_numerically_stable(self, rng):
        ga = GroupAttention(n_groups=2, rng=rng)
        q = Tensor(rng.standard_normal((1, 1, 6, 3)) * 100)
        k = Tensor(rng.standard_normal((1, 1, 6, 3)) * 100)
        v = Tensor(rng.standard_normal((1, 1, 6, 3)))
        out = ga(q, k, v)
        assert np.isfinite(out.data).all()


class TestLemma1ErrorBound:
    """If every key is within d = ln(eps)/(2R) of its representative, every
    restored attention weight is within [1/eps, eps] of the true one."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        epsilon=st.floats(1.2, 3.0),
        n_groups=st.integers(2, 5),
    )
    def test_ratio_bounded(self, seed, epsilon, n_groups):
        rng = np.random.default_rng(seed)
        n, d_k = 24, 4
        # Keys on a ball of radius R: group centers plus perturbations
        # smaller than d = ln(eps) / (2R).
        assignments = rng.integers(0, n_groups, n)
        reps = rng.standard_normal((n_groups, d_k))
        reps /= np.linalg.norm(reps, axis=1, keepdims=True)  # |rep| = 1
        radius_budget = 2.0  # R upper bound we will enforce below
        d = math.log(epsilon) / (2.0 * radius_budget)
        noise = rng.standard_normal((n, d_k))
        noise *= (d * 0.99) / np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
        k = reps[assignments] + noise
        radius = np.linalg.norm(k, axis=1).max()
        assume(radius <= radius_budget)
        q = rng.standard_normal((n, d_k))
        q /= np.linalg.norm(q, axis=1, keepdims=True)  # |q| <= 1 <= R

        # True attention (note: Lemma 1 is stated for unscaled dot products).
        scores = q @ k.T
        true_attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        true_attn /= true_attn.sum(axis=1, keepdims=True)

        # Group attention restored to full size, with the *given* reps.
        counts = np.bincount(assignments, minlength=n_groups).astype(float)
        compressed = q @ reps.T
        exp_compressed = np.exp(compressed - compressed.max(axis=1, keepdims=True))
        group_attn = exp_compressed / (exp_compressed * counts[None, :]).sum(
            axis=1, keepdims=True
        )
        restored = group_attn[:, assignments]

        ratio = restored / true_attn
        # The bound of Lemma 1 uses |q| <= R as well; with |q| <= 1 and the
        # key ball radius <= R the multiplicative band holds.
        assert ratio.max() <= epsilon + 1e-6
        assert ratio.min() >= 1.0 / epsilon - 1e-6
