"""``mutable-state`` — thread-safety of shared module/class state.

The kernel layer, the serving tier, and autograd all execute on many
threads at once (MicroBatcher flushes from caller threads, concurrent
engine endpoints).  A module-level or class-level **mutable container**
is shared by every one of those threads; the fused scratch-buffer pool
and the ``EngineStats`` counters were both silent races before the
pattern was named.

This rule flags every module-level and class-body assignment of a
mutable container (`[]`, ``{}``, ``set()``, ``dict()``, comprehensions,
``collections`` factories) in ``repro.kernels``, ``repro.serve`` and
``repro.autograd``.  Compliant alternatives it recognizes:

* ``threading.local()`` — per-thread state (the scratch-pool fix);
* ``threading.Lock()`` / ``RLock()`` / ``Condition()`` / ... — the
  guards themselves;
* immutable values — tuples, ``frozenset(...)``,
  ``types.MappingProxyType({...})``;
* a ``# repro: allow[mutable-state]`` comment naming the lock that
  guards the container (for state that is genuinely shared and
  genuinely locked — the rule cannot prove lock discipline, so the
  comment makes the claim reviewable).

Per-instance containers created in ``__init__`` (or any method) are out
of scope: they are only shared if the instance is, which is the owning
class's documented contract.  Dunder metadata (``__all__`` and friends)
is also exempt — written once at import time by convention, read-only
afterwards.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceModule, register_rule

__all__ = ["MutableStateRule", "CHECKED_PREFIXES"]

CHECKED_PREFIXES = ("repro.kernels", "repro.serve", "repro.autograd")

_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "bytearray",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "ChainMap",
}

_SAFE_FACTORIES = {
    "tuple",
    "frozenset",
    "MappingProxyType",
    "local",          # threading.local
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "ContextVar",
}


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _classify(value: ast.expr) -> str | None:
    """A human-readable description when ``value`` is a mutable container."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = _callee_name(value)
        if name in _SAFE_FACTORIES:
            return None
        if name in _MUTABLE_FACTORIES:
            return name
    return None


class MutableStateRule(Rule):
    rule_id = "mutable-state"
    description = (
        "module/class-level mutable containers in kernels/, serve/ and autograd/ "
        "must be threading.local, immutable, or explicitly allowed with the "
        "guarding lock named"
    )

    def check_module(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        if not module.name.startswith(CHECKED_PREFIXES):
            return
        yield from self._scan_body(module.tree.body, scope="module")
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._scan_body(node.body, scope=f"class {node.name}")

    def _scan_body(
        self, body: list[ast.stmt], scope: str
    ) -> Iterator[tuple[ast.AST, str]]:
        for stmt in body:
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            else:
                continue
            kind = _classify(value)
            if kind is None:
                continue
            plain = [t.id for t in targets if isinstance(t, ast.Name)]
            if plain and all(
                name.startswith("__") and name.endswith("__") for name in plain
            ):
                continue  # __all__ etc.: import-time metadata by convention
            names = ", ".join(plain) or "<target>"
            yield (
                stmt,
                f"{scope}-level mutable {kind} {names!r} is shared across "
                f"threads; use threading.local(), an immutable value "
                f"(tuple/frozenset/MappingProxyType), or add "
                f"'# repro: allow[mutable-state]' naming the guarding lock",
            )


register_rule(MutableStateRule())
