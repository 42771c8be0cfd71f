"""Built-in rules.  Importing this package registers every rule."""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imports register the rules)
    conformance,
    dtype_literals,
    durable_io,
    grad_discipline,
    layering,
    mutable_state,
    scatter_at,
    typed_errors,
)

__all__ = [
    "conformance",
    "dtype_literals",
    "durable_io",
    "grad_discipline",
    "layering",
    "mutable_state",
    "scatter_at",
    "typed_errors",
]
