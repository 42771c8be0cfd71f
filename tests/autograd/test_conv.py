"""Convolution primitives vs brute force, plus geometry and gradients."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.autograd.conv as conv_module
from repro.autograd import Tensor, gradcheck
from repro.autograd.conv import _col2im, conv1d, conv1d_output_length, conv_transpose1d
from repro.errors import ShapeError


def brute_force_conv1d(x, w, b, stride, padding):
    """Direct-loop reference implementation."""
    batch, c_in, length = x.shape
    c_out, _, k = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out_length = (x.shape[2] - k) // stride + 1
    out = np.zeros((batch, c_out, out_length))
    for bi in range(batch):
        for co in range(c_out):
            for pos in range(out_length):
                window = x[bi, :, pos * stride : pos * stride + k]
                out[bi, co, pos] = (window * w[co]).sum()
            if b is not None:
                out[bi, co] += b[co]
    return out


class TestConv1dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 0), (2, 1), (3, 2)])
    def test_matches_brute_force(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 11))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)
        expected = brute_force_conv1d(x, w, b, stride, padding)
        actual = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(actual.data, expected, atol=1e-12)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 8))
        w = rng.standard_normal((3, 2, 3))
        expected = brute_force_conv1d(x, w, None, 1, 0)
        actual = conv1d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(actual.data, expected, atol=1e-12)

    def test_output_length_formula(self):
        assert conv1d_output_length(10, 3, 1, 1) == 10
        assert conv1d_output_length(10, 5, 2, 2) == 5
        assert conv1d_output_length(7, 7, 1, 0) == 1

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv1d(Tensor(rng.standard_normal((1, 3, 8))), Tensor(rng.standard_normal((2, 4, 3))))

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ShapeError):
            conv1d(Tensor(rng.standard_normal((1, 1, 2))), Tensor(rng.standard_normal((1, 1, 5))))


class TestConv1dGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    def test_gradcheck_all_inputs(self, rng, stride, padding):
        x = Tensor(rng.standard_normal((2, 2, 9)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: conv1d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    def test_constant_input_gets_no_gradient_and_no_fold(self, rng, monkeypatch, stride, padding):
        x = rng.standard_normal((2, 2, 9))
        w = rng.standard_normal((3, 2, 3)) * 0.5
        b = rng.standard_normal(3)
        upstream = rng.standard_normal((2, 3, conv1d_output_length(9, 3, stride, padding)))

        def run(x_requires_grad):
            xt = Tensor(x, requires_grad=x_requires_grad)
            wt = Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True)
            conv1d(xt, wt, bt, stride=stride, padding=padding).backward(upstream)
            return xt, wt, bt

        # A data input (requires_grad=False) skips the input gradient and
        # its fold; the weight and bias gradients stay bitwise the same.
        _, w_ref, b_ref = run(True)

        def no_fold(*args, **kwargs):
            raise AssertionError("_col2im ran for a constant input")

        monkeypatch.setattr(conv_module, "_col2im", no_fold)
        x_const, w_const, b_const = run(False)
        assert x_const.grad is None
        assert np.array_equal(w_const.grad, w_ref.grad)
        assert np.array_equal(b_const.grad, b_ref.grad)


def add_at_col2im(cols, stride, length, padding):
    """The scatter-add fold ``_col2im`` replaced, kept as its oracle."""
    batch, channels, kernel_size, out_length = cols.shape
    padded = np.zeros((batch, channels, length + 2 * padding), dtype=cols.dtype)
    index = stride * np.arange(out_length)[None, :] + np.arange(kernel_size)[:, None]
    np.add.at(padded, (slice(None), slice(None), index), cols)
    return padded[:, :, padding : padded.shape[-1] - padding]


class TestCol2im:
    """The strided-add fold equals the ``np.add.at`` scatter bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 4),
        kernel_size=st.integers(1, 7),
        out_length=st.integers(1, 40),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        caller=st.sampled_from(["conv1d_backward", "conv_transpose1d_forward"]),
        remainder=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_add_at_bitwise(
        self, batch, channels, kernel_size, out_length, stride, padding, dtype, caller,
        remainder, seed,
    ):
        if caller == "conv1d_backward":
            # The conv input length whose output has ``out_length`` columns;
            # the floor convention leaves up to stride-1 padded positions
            # past the last tap.
            length = stride * (out_length - 1) + kernel_size - 2 * padding + remainder % stride
            assume(length >= 1)
            assert conv1d_output_length(length, kernel_size, stride, padding) == out_length
        else:
            length = (out_length - 1) * stride - 2 * padding + kernel_size
            assume(length >= 1)
        gen = np.random.default_rng(seed)
        shape = (batch, channels, kernel_size, out_length)
        # Mixed magnitudes make the summation order visible in the low
        # bits; signed zeros check the sign of zero.
        cols = gen.standard_normal(shape) * 10.0 ** gen.integers(-4, 5, shape)
        zeros = gen.random(shape) < 0.15
        cols[zeros] = np.where(gen.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        cols = cols.astype(dtype)

        actual = _col2im(cols, stride, length, padding)
        expected = add_at_col2im(cols, stride, length, padding)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert np.array_equal(actual, expected)
        assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestConvTranspose1d:
    def test_geometry_inverts_conv(self, rng):
        # conv with (stride, padding) then conv_transpose restores length.
        for stride, padding, length in [(1, 2, 12), (2, 1, 11), (2, 2, 16)]:
            k = 5
            x = Tensor(rng.standard_normal((1, 2, length)))
            w = Tensor(rng.standard_normal((3, 2, k)))
            down = conv1d(x, w, stride=stride, padding=padding)
            wt = Tensor(rng.standard_normal((3, 2, k)))
            up = conv_transpose1d(down, wt, stride=stride, padding=padding)
            expected = (down.shape[2] - 1) * stride - 2 * padding + k
            assert up.shape[2] == expected
            assert up.shape[2] >= length - stride + 1

    @pytest.mark.parametrize("stride,padding,length", [(1, 0, 8), (1, 1, 9), (2, 1, 9)])
    def test_is_adjoint_of_conv(self, rng, stride, padding, length):
        """<conv(x), y> == <x, conv_transpose(y)> when geometry round-trips.

        The identity requires ``(L + 2p - k) % stride == 0`` so the
        transpose output length equals the conv input length (no
        output-padding ambiguity).  The conv_transpose weight layout
        ``(C_in, C_out, K)`` lines up with the conv weight ``(C_out, C_in,
        K)`` read as "y channels in, x channels out", so the same array is
        passed to both.
        """
        k = 3
        assert (length + 2 * padding - k) % stride == 0
        x = rng.standard_normal((1, 2, length))
        w = rng.standard_normal((4, 2, k))
        y_len = conv1d_output_length(length, k, stride, padding)
        y = rng.standard_normal((1, 4, y_len))
        fwd = conv1d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        adj = conv_transpose1d(Tensor(y), Tensor(w), stride=stride, padding=padding).data
        lhs = float((fwd * y).sum())
        rhs = float((x * adj).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 2)])
    def test_gradcheck_all_inputs(self, rng, stride, padding):
        x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: conv_transpose1d(x, w, b, stride=stride, padding=padding),
            [x, w, b],
        )

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv_transpose1d(
                Tensor(rng.standard_normal((1, 3, 8))), Tensor(rng.standard_normal((2, 4, 3)))
            )
