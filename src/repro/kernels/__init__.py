"""Pluggable kernel layer: dtype policy, backend registry, fused ops.

This package is the seam between the model stack and its execution
strategy.  Four pieces:

* :mod:`repro.kernels.policy` — the process-global compute dtype
  (``float32`` by default, ``float64`` for gradient checking);
* :mod:`repro.kernels.backend` — the backend registry, the NumPy
  *reference* backend (semantics oracle) and :class:`Segments`, the
  sorted partition every segment kernel takes;
* :mod:`repro.kernels.fused` — the optimized *fused* backend, the one
  the stack executes on: in-place softmax/layer-norm, single-GEMM
  affine, ``reduceat`` segment reductions over the partition's sort;
* :mod:`repro.kernels.functional` — autograd nodes over the active
  backend with hand-written backwards and no-grad fast paths.

Typical knobs::

    import repro.kernels as K

    K.set_default_dtype("float64")      # gradcheck-sharp numerics
    with K.use_backend("reference"):    # run on the oracle kernels
        ...

The functional ops are re-exported lazily (PEP 562): they depend on
:mod:`repro.autograd.tensor`, which itself imports the dtype policy from
this package, so eager imports here would form a cycle.
"""

from repro.kernels.policy import (
    DTYPE_ENV_VAR,
    asarray,
    dtype_scope,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.kernels.backend import (
    KernelBackend,
    NumpyReferenceBackend,
    Segments,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.kernels.fused import FusedNumpyBackend

_FUNCTIONAL_EXPORTS = (
    "cross_entropy",
    "fused_group_softmax",
    "gelu",
    "l1",
    "layer_norm",
    "linear",
    "log_softmax",
    "masked_l1",
    "masked_mse",
    "masked_softmax",
    "mse",
    "performer_phi",
    "relu",
    "segment_gather",
    "segment_sum",
    "softmax",
)

__all__ = [
    "DTYPE_ENV_VAR",
    "asarray",
    "dtype_scope",
    "get_default_dtype",
    "resolve_dtype",
    "set_default_dtype",
    "KernelBackend",
    "NumpyReferenceBackend",
    "FusedNumpyBackend",
    "Segments",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
    "functional",
    *_FUNCTIONAL_EXPORTS,
]


def __getattr__(name: str):
    if name == "functional" or name in _FUNCTIONAL_EXPORTS:
        import importlib

        functional = importlib.import_module("repro.kernels.functional")
        return functional if name == "functional" else getattr(functional, name)
    raise AttributeError(f"module 'repro.kernels' has no attribute {name!r}")
