"""Process-global dtype policy for the compute stack.

The paper's efficiency claims (Sec. 6.1) are about wall-clock speed, and on
a NumPy substrate roughly half of that is dtype: ``float32`` halves memory
traffic and doubles SIMD width over ``float64``.  The policy here decides
the *default compute dtype* used by

* :class:`repro.autograd.Tensor` when coercing Python scalars, lists and
  integer arrays;
* the tensor constructors (``zeros``/``ones``/``randn``/``arange``/...);
* weight initialization in :mod:`repro.nn.init`;
* :meth:`repro.model.rita.RitaModel.encode`, which casts incoming series
  to the policy dtype so the whole forward pass runs in one dtype.

Explicitly-typed NumPy arrays are never silently recast — passing a
``float64`` array into :class:`~repro.autograd.Tensor` keeps ``float64``.
That property is what lets numerical gradient checking run sharply in
``float64`` (see :func:`repro.autograd.gradcheck.gradcheck`, which enters
``dtype_scope(np.float64)``) while production inference runs in
``float32``.

The initial policy is ``float32``; override with the environment variable
``RITA_COMPUTE_DTYPE`` (``float32``/``float64``) or at runtime with
:func:`set_default_dtype` / :func:`dtype_scope`.
"""

from __future__ import annotations

import contextlib
import os
import types
from typing import Any, Iterator

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError

__all__ = [
    "get_default_dtype",
    "set_default_dtype",
    "dtype_scope",
    "resolve_dtype",
    "asarray",
    "ACCUM_DTYPE",
    "DTYPE_ENV_VAR",
]

#: Environment variable consulted once at import for the initial policy.
DTYPE_ENV_VAR = "RITA_COMPUTE_DTYPE"

#: Accumulation dtype for loss/metric reductions.  Summing millions of
#: float32 terms loses ~3 digits to cancellation, so reductions
#: accumulate in float64 regardless of the compute dtype and cast back
#: on the way out.  This is the one float64 the policy exports — kernel
#: code references this constant instead of naming the dtype.
ACCUM_DTYPE: np.dtype[Any] = np.dtype("float64")

_ALIASES = types.MappingProxyType(
    {
        "f32": "float32",
        "single": "float32",
        "f64": "float64",
        "double": "float64",
    }
)


def _coerce(dtype: npt.DTypeLike) -> np.dtype[Any]:
    if isinstance(dtype, str):
        dtype = _ALIASES.get(dtype.lower(), dtype)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ConfigError(
            f"invalid compute dtype {dtype!r} (use float32/float64; "
            f"also settable via ${DTYPE_ENV_VAR})"
        ) from None
    if resolved.kind != "f":
        raise ConfigError(f"compute dtype must be floating, got {resolved}")
    return resolved


# repro: allow[env-knob] - the one policy a process fixes before its first tensor
_DEFAULT_DTYPE: np.dtype[Any] = _coerce(os.environ.get(DTYPE_ENV_VAR, "float32"))


def get_default_dtype() -> np.dtype[Any]:
    """The current default compute dtype."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype: npt.DTypeLike) -> np.dtype[Any]:
    """Set the default compute dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _coerce(dtype)
    return previous


@contextlib.contextmanager
def dtype_scope(dtype: npt.DTypeLike) -> Iterator[np.dtype[Any]]:
    """Temporarily switch the default compute dtype.

    >>> with dtype_scope(np.float64):
    ...     weights = repro.nn.init.normal((4, 4))   # float64
    """
    previous = set_default_dtype(dtype)
    try:
        yield get_default_dtype()
    finally:
        set_default_dtype(previous)


def resolve_dtype(dtype: npt.DTypeLike | None = None) -> np.dtype[Any]:
    """``dtype`` itself when given, else the policy default."""
    if dtype is None:
        return _DEFAULT_DTYPE
    return _coerce(dtype)


def asarray(values: npt.ArrayLike, dtype: npt.DTypeLike | None = None) -> npt.NDArray[Any]:
    """``np.asarray`` pinned to the policy (or an explicit) dtype."""
    return np.asarray(values, dtype=resolve_dtype(dtype))
