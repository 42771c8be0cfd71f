"""Algebraic property tests on the autograd engine (hypothesis).

These verify mathematical identities end-to-end through forward *and*
backward passes — the class of bug unit shape-checks cannot catch.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, conv1d
from repro.autograd import ops


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestLinearityOfGradients:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(-3, 3))
    def test_gradient_scales_linearly(self, seed, alpha):
        """d(alpha * f)/dx == alpha * df/dx for scalar alpha."""
        rng = np.random.default_rng(seed)
        x1 = leaf(rng, 4, 3)
        (ops.tanh(x1).sum()).backward()
        base = x1.grad.copy()

        x2 = Tensor(x1.data, requires_grad=True)
        (ops.tanh(x2).sum() * alpha).backward()
        np.testing.assert_allclose(x2.grad, alpha * base, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sum_rule(self, seed):
        """d(f + g)/dx == df/dx + dg/dx."""
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 3))

        def grad_of(fn):
            x = Tensor(data, requires_grad=True)
            fn(x).sum().backward()
            return x.grad

        combined = grad_of(lambda x: ops.exp(x) + ops.sigmoid(x))
        separate = grad_of(ops.exp) + grad_of(ops.sigmoid)
        np.testing.assert_allclose(combined, separate, atol=1e-10)


class TestConvolutionAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conv_linear_in_input(self, seed):
        """conv(a x1 + b x2, w) == a conv(x1, w) + b conv(x2, w)."""
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((1, 2, 10))
        x2 = rng.standard_normal((1, 2, 10))
        w = Tensor(rng.standard_normal((3, 2, 3)))
        a, b = 1.7, -0.4
        lhs = conv1d(Tensor(a * x1 + b * x2), w, padding=1).data
        rhs = (
            a * conv1d(Tensor(x1), w, padding=1).data
            + b * conv1d(Tensor(x2), w, padding=1).data
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conv_with_delta_kernel_is_identity(self, seed):
        """A centred delta kernel reproduces the input channel."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, 12))
        w = np.zeros((1, 1, 3))
        w[0, 0, 1] = 1.0  # delta at the centre
        out = conv1d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestMatmulAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_associativity_forward_and_backward(self, seed):
        """(AB)C == A(BC) in values and in dL/dA."""
        rng = np.random.default_rng(seed)
        a_data = rng.standard_normal((3, 4))
        b = Tensor(rng.standard_normal((4, 5)))
        c = Tensor(rng.standard_normal((5, 2)))

        a1 = Tensor(a_data, requires_grad=True)
        ((a1 @ b) @ c).sum().backward()
        a2 = Tensor(a_data, requires_grad=True)
        (a2 @ (b @ c)).sum().backward()
        np.testing.assert_allclose(((a1 @ b) @ c).data, (a2 @ (b @ c)).data, atol=1e-10)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_transpose_identity(self, seed):
        """(A B)^T == B^T A^T."""
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((3, 4)))
        b = Tensor(rng.standard_normal((4, 5)))
        np.testing.assert_allclose((a @ b).T.data, (b.T @ a.T).data, atol=1e-12)


class TestSegmentSumAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
    def test_total_mass_preserved(self, seed, n):
        """Segment sums conserve the total sum regardless of grouping."""
        from repro.kernels import Segments, segment_sum

        rng = np.random.default_rng(seed)
        v = rng.standard_normal((1, n, 3))
        ids = rng.integers(0, 4, (1, n))
        grouped = segment_sum(Tensor(v), Segments.from_ids(ids, 4)).data
        np.testing.assert_allclose(grouped.sum(axis=1), v.sum(axis=1), atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_refining_groups_then_summing_is_identity(self, seed):
        """Summing a finer grouping into a coarser one equals grouping
        coarsely in one step."""
        from repro.kernels import Segments, segment_sum

        rng = np.random.default_rng(seed)
        n = 12
        v = rng.standard_normal((1, n, 2))
        fine = rng.integers(0, 6, (1, n))
        coarse_of_fine = rng.integers(0, 3, 6)  # map each fine group to coarse
        coarse = coarse_of_fine[fine]

        direct = segment_sum(Tensor(v), Segments.from_ids(coarse, 3)).data
        fine_sums = segment_sum(Tensor(v), Segments.from_ids(fine, 6)).data
        two_step = segment_sum(
            Tensor(fine_sums), Segments.from_ids(coarse_of_fine[None, :], 3)
        ).data
        np.testing.assert_allclose(direct, two_step, atol=1e-10)


class TestSoftmaxTemperature:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_zero_temperature_limit_is_argmax(self, seed):
        """softmax(x / T) -> one-hot argmax as T -> 0."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6))
        # Break potential ties.
        x += np.arange(6)[None, :] * 1e-6
        # A fixed temperature fails for draws whose top-2 gap happens to be
        # tiny (e.g. seed 104's gap of 1.9e-3); scale T to the smallest
        # per-row gap so exp((gap/T)) always dominates.
        sorted_rows = np.sort(x, axis=-1)
        min_gap = float(np.diff(sorted_rows, axis=-1).min())
        temperature = min(1e-3, min_gap / 20.0)
        sharp = ops.softmax(Tensor(x / temperature), axis=-1).data
        winners = sharp.argmax(axis=-1)
        np.testing.assert_array_equal(winners, x.argmax(axis=-1))
        assert sharp.max(axis=-1).min() > 0.99

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_infinite_temperature_limit_is_uniform(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6))
        flat = ops.softmax(Tensor(x * 1e-9), axis=-1).data
        np.testing.assert_allclose(flat, 1.0 / 6, atol=1e-6)
