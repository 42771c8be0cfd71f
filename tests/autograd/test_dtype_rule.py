"""One dtype rule for ``repro.autograd``, swept under both policies.

Output rule: an op returns the dtype NumPy gives for the same expression
on the underlying data.  Python scalars are weak; NumPy scalars and
arrays, 0-d ones included, are strong (NEP 50).  The policy dtype only
decides what a bare Python value becomes when it is made a tensor on
its own, never the dtype of an expression.

Gradient rule: on a graph whose operands share one dtype, every
gradient has that dtype.  A mixed graph promotes instead: a float64
upstream gradient reaching a float32 node stays float64 (see
``test_ops.py::test_gelu_backward_bitwise_matches_unfused_expression``).
"""

from __future__ import annotations

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

import repro.kernels as K
from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.kernels import functional as F

FLOATS = [np.float32, np.float64]
POLICIES = pytest.mark.parametrize("policy", FLOATS, ids=["f32-policy", "f64-policy"])
COND = np.array([[True, False, True], [False, True, False]])
ROWS = np.array([[0, 1, 1], [1, 0, 0]])
#: Hypothesis draws only the values: every op, policy, operand kind and
#: dtype runs on every run.
SWEEP = settings(max_examples=3, deadline=None)
seeds = st.integers(0, 2**16)


def _raw(value):
    return value.data if isinstance(value, Tensor) else value


def tensors(rng) -> list[Tensor]:
    """A graph operand of each dtype, 2-d and 0-d."""
    return [
        Tensor(rng.uniform(0.5, 2.0, shape).astype(dtype), requires_grad=True)
        for dtype in FLOATS
        for shape in [(2, 3), ()]
    ]


def operands(rng) -> list:
    """Every other operand kind NumPy takes, next to a Tensor."""
    python = [1.5, 2, 0.0]  # weak; 0 takes div's zero path
    numpy = [dtype(rng.uniform(0.5, 2.0)) for dtype in FLOATS]
    arrays = [
        rng.uniform(0.5, 2.0, shape).astype(dtype) for dtype in FLOATS for shape in [(2, 3), ()]
    ]
    return python + numpy + arrays + tensors(rng)


def _check(out, args, expected):
    """The output rule, then the gradient rule on a one-dtype graph."""
    assert isinstance(out, Tensor), type(out)
    assert out.dtype == np.asarray(expected).dtype, (out.dtype, np.asarray(expected).dtype)
    python = (int, float)  # np.float64 subclasses float, but NumPy scalars are strong
    strong = {
        np.asarray(_raw(a)).dtype
        for a in args
        if not isinstance(a, python) or isinstance(a, np.generic)
    }
    graph = [a for a in args if isinstance(a, Tensor)]
    for tensor in graph:
        tensor.zero_grad()
    out.backward(np.ones(out.shape, out.dtype))
    if len(strong) == 1:
        (dtype,) = strong
        for tensor in graph:
            assert tensor.grad.dtype == dtype, (tensor.grad.dtype, dtype)


BINARY = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.divide),
    "add": (ops.add, np.add),
    "sub": (ops.sub, np.subtract),
    "mul": (ops.mul, np.multiply),
    "div": (ops.div, np.divide),
    "maximum": (ops.maximum, np.maximum),
    "where": (lambda a, b: ops.where(COND, a, b), lambda a, b: np.where(COND, a, b)),
}


@POLICIES
@pytest.mark.parametrize("name", sorted(BINARY))
@SWEEP
@given(seed=seeds)
def test_binary_ops_follow_numpy(name, policy, seed):
    rng = np.random.default_rng(seed)
    op, reference = BINARY[name]
    for tensor, other in itertools.product(tensors(rng), operands(rng)):
        for args in [(tensor, other), (other, tensor)]:
            with K.dtype_scope(policy), np.errstate(divide="ignore", invalid="ignore"):
                _check(op(*args), args, reference(*(_raw(a) for a in args)))


def _reduce(name, axis, keepdims):
    return (
        lambda x: getattr(ops, name)(x, axis=axis, keepdims=keepdims),
        lambda x: getattr(np, name.rstrip("_"))(x, axis=axis, keepdims=keepdims),
    )


#: op name -> (repro op on a tensor, NumPy expression on its data).
UNARY = {
    "neg": (ops.neg, np.negative),
    "exp": (ops.exp, np.exp),
    "log": (ops.log, np.log),
    "sqrt": (ops.sqrt, np.sqrt),
    "tanh": (ops.tanh, np.tanh),
    "sigmoid": (ops.sigmoid, special.expit),
    "abs": (ops.abs_, np.abs),
    "pow": (lambda x: ops.pow_(x, 3), lambda x: x**3.0),
    "clip": (lambda x: ops.clip(x, 0.75, 1.5), lambda x: np.clip(x, 0.75, 1.5)),
    "relu": (F.relu, lambda x: np.maximum(x, 0.0)),
    "gelu": (F.gelu, lambda x: x * special.ndtr(x)),
    "softmax": (F.softmax, lambda x: np.exp(x) / np.exp(x).sum(-1, keepdims=True)),
    "log_softmax": (F.log_softmax, lambda x: x - np.log(np.exp(x).sum(-1, keepdims=True))),
    # Full sum/mean/max/min: test_reductions.py::test_full_reduction_keeps_operand_dtype.
    "sum-axis": _reduce("sum_", 1, True),
    "mean-axis": _reduce("mean", 1, False),
    "var": _reduce("var", None, False),
    "var-axis": _reduce("var", 0, False),
    "max-axis": _reduce("max_", 1, False),
    "min-axis": _reduce("min_", 0, True),
    "reshape": (lambda x: ops.reshape(x, 3, 2), lambda x: x.reshape(3, 2)),
    "swapaxes": (lambda x: ops.swapaxes(x, 0, 1), lambda x: x.swapaxes(0, 1)),
    "transpose": (lambda x: ops.transpose(x, (1, 0)), lambda x: x.transpose(1, 0)),
    "broadcast_to": (
        lambda x: ops.broadcast_to(x, (4, 2, 3)),
        lambda x: np.broadcast_to(x, (4, 2, 3)),
    ),
    "getitem": (lambda x: ops.getitem(x, (slice(None), 1)), lambda x: x[:, 1]),
    "getitem-array": (lambda x: ops.getitem(x, ROWS[0]), lambda x: x[ROWS[0]]),
    "masked_fill": (lambda x: ops.masked_fill(x, COND, 0.0), lambda x: np.where(COND, 0.0, x)),
    "dropout": (
        lambda x: ops.dropout(x, 0.5, np.random.default_rng(0)),
        lambda x: x * (np.random.default_rng(0).random(x.shape) >= 0.5) * 2.0,
    ),
    "embedding": (lambda x: ops.embedding(x, ROWS), lambda x: x[ROWS]),
    "segment_sum": (
        lambda x: F.segment_sum(x[None], K.Segments.from_ids(ROWS[:1, :2], 2)),
        lambda x: x[None],
    ),
    "segment_gather": (
        lambda x: F.segment_gather(x[None], K.Segments.from_ids(ROWS[:1], 2)),
        lambda x: x[ROWS[:1]],
    ),
}


@POLICIES
@pytest.mark.parametrize("name", sorted(UNARY))
@SWEEP
@given(seed=seeds)
def test_unary_ops_follow_numpy(name, policy, seed):
    rng = np.random.default_rng(seed)
    op, reference = UNARY[name]
    for dtype in FLOATS:
        x = Tensor(rng.uniform(0.5, 2.0, (2, 3)).astype(dtype), requires_grad=True)
        with K.dtype_scope(policy):
            _check(op(x), (x,), reference(x.data))


@POLICIES
@SWEEP
@given(seed=seeds)
def test_multi_operand_ops_follow_numpy(policy, seed):
    rng = np.random.default_rng(seed)
    for left, right in itertools.product(FLOATS, FLOATS):
        a = Tensor(rng.uniform(0.5, 2.0, (2, 3)).astype(left), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, (3, 2)).astype(right), requires_grad=True)
        with K.dtype_scope(policy):
            _check(a @ b, (a, b), a.data @ b.data)
            _check(ops.matmul(a, b), (a, b), a.data @ b.data)
            _check(ops.concat([a, b.T], axis=0), (a, b), np.concatenate([a.data, b.data.T]))
            _check(ops.stack([a, b.T]), (a, b), np.stack([a.data, b.data.T]))
            cast = np.float64 if left == np.float32 else np.float32
            _check(ops.astype(a, cast), (a,), a.data.astype(cast))


@pytest.mark.parametrize("scalar_dtype", FLOATS, ids=["f32", "f64"])
@pytest.mark.parametrize(
    "form",
    [
        lambda s, x: s * x,
        lambda s, x: s + x,
        lambda s, x: s - x,
        lambda s, x: s / x,
        lambda s, x: np.ones(3, s.dtype) * x,
        lambda s, x: np.asarray(s) - x,
    ],
    ids=["scalar*x", "scalar+x", "scalar-x", "scalar/x", "array*x", "0d-array-x"],
)
def test_left_hand_numpy_operand_stays_on_the_graph(form, scalar_dtype):
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    out = form(scalar_dtype(2.0), x)
    assert isinstance(out, Tensor) and out.requires_grad
    assert out.dtype == np.result_type(scalar_dtype, np.float32)
    out.sum().backward()
    assert x.grad.shape == (3,)


@pytest.mark.parametrize(
    "form",
    [
        lambda x: ops.maximum(x, 1.5),
        lambda x: ops.maximum(0, x),
        lambda x: ops.where(COND, x, 1.5),
        lambda x: ops.where(COND, 0.0, x),
        lambda x: x / 0,
    ],
    ids=["maximum(x, 1.5)", "maximum(0, x)", "where(c, x, 1.5)", "where(c, 0.0, x)", "x / 0"],
)
def test_python_number_stays_weak_under_a_wider_policy(form):
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    with K.dtype_scope(np.float64), np.errstate(divide="ignore"):
        out = form(x)
        out.sum().backward()
    assert out.dtype == x.grad.dtype == np.float32
