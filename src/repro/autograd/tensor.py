"""A reverse-mode automatic-differentiation tensor on top of NumPy.

This module is the computational substrate for the whole reproduction: the
paper's artifact runs on PyTorch, which is unavailable here, so we provide a
compatible-in-spirit engine.  A :class:`Tensor` wraps an ``np.ndarray``,
records the operations that produced it, and :meth:`Tensor.backward` walks
the recorded graph in reverse topological order accumulating gradients.

Design notes
------------
* Gradients are plain ``np.ndarray`` objects stored on leaf (and, when
  requested, intermediate) tensors.
* Broadcasting follows NumPy semantics; gradient reduction over broadcast
  dimensions is handled by :func:`unbroadcast`.
* A process-global *grad mode* mirrors ``torch.no_grad``: inside
  :func:`no_grad`, no graph is recorded.
* The compute dtype follows the process-global policy in
  :mod:`repro.kernels.policy` (``float32`` by default, ``float64`` inside
  gradient checks): Python scalars, lists and integer arrays adopt the
  policy dtype, while explicitly-typed floating NumPy arrays keep theirs.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import GradError, ShapeError
from repro.kernels.policy import get_default_dtype, resolve_dtype

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "as_tensor",
    "zeros",
    "ones",
    "full",
    "randn",
    "rand",
    "arange",
]

_GRAD_ENABLED = True
_NO_GRAD_DEPTH = 0
_GRAD_MODE_LOCK = threading.Lock()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Inside the block every produced tensor has ``requires_grad=False`` and
    no backward closures are created, which saves time and memory during
    evaluation, clustering, and data preparation.

    Grad mode is process-global (concurrent serving threads deliberately
    inherit it — see ``InferenceEngine``), so the blocks are counted
    rather than saved/restored: grad stays disabled while *any* thread is
    inside one, and re-enables only when the last block exits.  A
    save/restore pair racing another thread's could restore the stale
    ``False`` and leave grad disabled forever.
    """
    global _GRAD_ENABLED, _NO_GRAD_DEPTH
    with _GRAD_MODE_LOCK:
        _NO_GRAD_DEPTH += 1
        _GRAD_ENABLED = False
    try:
        yield
    finally:
        with _GRAD_MODE_LOCK:
            _NO_GRAD_DEPTH -= 1
            if _NO_GRAD_DEPTH == 0:
                _GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should record the autograd graph."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast dimension.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible by ``np.asarray``.  Explicitly-typed floating
        NumPy arrays and scalars keep their dtype; Python scalars, lists
        and integer arrays adopt the policy compute dtype (see
        :mod:`repro.kernels.policy`).
    requires_grad:
        When true, :meth:`backward` accumulates a gradient into
        :attr:`grad` for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    # NumPy defers to the reflected operators, so ``np.float32(2) * x``
    # and ``array * x`` stay on the graph instead of becoming an object
    # array of per-element tensors.
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        was_numpy = isinstance(data, (np.ndarray, np.generic))
        array = np.asarray(data)
        if array.dtype.kind in "iub":
            array = array.astype(get_default_dtype())
        elif array.dtype.kind == "f" and not was_numpy and array.dtype != get_default_dtype():
            # Python floats / lists adopt the policy dtype; NumPy arrays and
            # scalars keep theirs (gradcheck relies on float64 staying
            # float64, and a full reduction returns a NumPy scalar).
            array = array.astype(get_default_dtype())
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._parents: tuple[Tensor, ...] = _parents
        self._backward: Callable[[np.ndarray], None] | None = _backward

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of the last two dimensions (matrix transpose)."""
        return self.swapaxes(-1, -2)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})\n{self.data!r}"

    def numpy(self) -> np.ndarray:
        """Return the underlying ``np.ndarray`` (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self) -> float:
        raise ShapeError(f"item() requires a one-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op output, recording the graph only in grad mode."""
        needs = is_grad_enabled() and any(p.requires_grad for p in parents)
        if needs:
            out = Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
        else:
            out = Tensor(data, requires_grad=False)
        return out

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1.0`` which is only valid for scalar outputs.
        """
        if not self.requires_grad:
            raise GradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is not None:
                node._accumulate_into_parents(node_grad, grads)
            elif node.requires_grad:
                # Leaf tensor: accumulate like torch does.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad

    def _accumulate_into_parents(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the op backward, routing parent gradients via ``grads``."""
        # The backward closure writes into a scratch list aligned to parents.
        contributions = self._backward(grad)  # type: ignore[misc]
        if contributions is None:
            return
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            contribution = np.asarray(contribution)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Operator overloads (implemented in repro.autograd.ops; bound late)
    # ------------------------------------------------------------------
    # The arithmetic dunder methods are attached by repro.autograd.ops at
    # import time to avoid a circular definition.  See ops._install().


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False, dtype=None) -> Tensor:
    """Tensor of zeros with the given shape (policy dtype by default)."""
    return Tensor(np.zeros(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False, dtype=None) -> Tensor:
    """Tensor of ones with the given shape (policy dtype by default)."""
    return Tensor(np.ones(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad)


def full(shape: Iterable[int], fill_value: float, requires_grad: bool = False, dtype=None) -> Tensor:
    """Tensor filled with ``fill_value`` (policy dtype by default)."""
    return Tensor(
        np.full(tuple(shape), float(fill_value), dtype=resolve_dtype(dtype)),
        requires_grad=requires_grad,
    )


def randn(*shape: int, rng: np.random.Generator | None = None, requires_grad: bool = False, dtype=None) -> Tensor:
    """Standard-normal tensor; pass ``rng`` for reproducibility."""
    generator = rng if rng is not None else np.random.default_rng()
    return Tensor(
        generator.standard_normal(shape, dtype=resolve_dtype(dtype)),
        requires_grad=requires_grad,
    )


def rand(*shape: int, rng: np.random.Generator | None = None, requires_grad: bool = False, dtype=None) -> Tensor:
    """Uniform[0,1) tensor; pass ``rng`` for reproducibility."""
    generator = rng if rng is not None else np.random.default_rng()
    return Tensor(
        generator.random(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad
    )


def arange(*args, requires_grad: bool = False, dtype=None) -> Tensor:
    """``np.arange`` wrapped in a tensor (policy float dtype by default)."""
    return Tensor(np.arange(*args, dtype=resolve_dtype(dtype)), requires_grad=requires_grad)
