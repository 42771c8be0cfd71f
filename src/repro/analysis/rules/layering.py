"""``layering`` — the declared import-layer DAG.

The package is layered: low layers (kernel backends, autograd) know
nothing about high layers (model, training, serving), and the two top
applications are deliberately split — **the serving tier must never
import training code** (``repro.train`` / ``repro.optim``), which is
what lets a worker process materialize a frozen artifact without pulling
optimizers and the trainer into every replica (PR 4's "zero training
imports" contract).

Each module prefix below is assigned a rank; a *module-level* import may
only target prefixes of the same or lower rank.  Imports inside a
function body are **deferred** — executed per call, not at import time —
and are the sanctioned escape hatch for intentional inversions
(``tasks.similarity.extract_embeddings`` importing the serve engine), so
they are exempt from the rank check.  Edges listed in
:data:`FORBIDDEN_EDGES` are architectural, not just ordering, and are
rejected even when deferred.

The assigned ranks (lower = more fundamental):

====  ==============================================================
rank  module prefixes
====  ==============================================================
0     ``errors``, ``rng``, ``serialize``, ``simgpu``, ``analysis``,
      ``supervision``
1     ``kernels.policy|threads|backend|fused|parallel`` (backends),
      ``faultfs`` (the adversarial IOProvider over ``serialize``)
2     ``autograd.tensor`` (imports only the dtype policy)
3     ``kernels`` (functional wrappers), ``autograd`` (ops, conv, ...)
4     ``cluster``, ``data``, ``nn``
5     ``attention``
6     ``model``, ``scheduler``
7     ``baselines``, ``tasks``
8     ``serve``
9     ``optim``
10    ``train``
11    ``experiments``
12    ``experiments.grid`` (the harness drives every runner below it)
====  ==============================================================

``repro`` itself (the package root) is the public facade re-exporting
every layer and is exempt.  Any other ``repro.*`` module without a rank
is itself a finding: its imports could not be checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceModule, register_rule

__all__ = ["LayeringRule", "LAYER_RANKS", "FORBIDDEN_EDGES"]

#: Longest-dotted-prefix match decides a module's rank.
LAYER_RANKS = {
    "repro.errors": 0,
    "repro.rng": 0,
    "repro.serialize": 0,
    "repro.simgpu": 0,
    "repro.analysis": 0,
    "repro.supervision": 0,
    "repro.faultfs": 1,
    "repro.kernels.policy": 1,
    "repro.kernels.threads": 1,
    "repro.kernels.backend": 1,
    "repro.kernels.fused": 1,
    "repro.kernels.parallel": 1,
    "repro.autograd.tensor": 2,
    "repro.kernels": 3,
    "repro.autograd": 3,
    "repro.cluster": 4,
    "repro.data": 4,
    "repro.nn": 4,
    "repro.attention": 5,
    "repro.model": 6,
    "repro.scheduler": 6,
    "repro.baselines": 7,
    "repro.tasks": 7,
    "repro.serve": 8,
    "repro.optim": 9,
    "repro.train": 10,
    "repro.experiments": 11,
    "repro.experiments.grid": 12,
}

#: (importer prefix, imported prefix) pairs forbidden even when the
#: import is deferred into a function body.  These are the invariants
#: with a paid-for history: a serve worker importing training code
#: breaks artifact isolation, and a kernel backend importing upward
#: would recreate the import cycle the backend/functional split exists
#: to prevent.
FORBIDDEN_EDGES: tuple[tuple[str, str], ...] = (
    ("repro.serve", "repro.train"),
    ("repro.serve", "repro.optim"),
    ("repro.kernels.policy", "repro.autograd"),
    ("repro.kernels.threads", "repro.autograd"),
    ("repro.kernels.backend", "repro.autograd"),
    ("repro.kernels.fused", "repro.autograd"),
    ("repro.kernels.parallel", "repro.autograd"),
)

#: The facade: re-exports everything by design.
EXEMPT_MODULES = {"repro"}


def rank_of(module: str) -> int | None:
    """Rank by longest dotted-prefix match; None for non-layered modules."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        prefix = ".".join(parts[:length])
        if prefix in LAYER_RANKS:
            return LAYER_RANKS[prefix]
    return None


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class _ImportCollector(ast.NodeVisitor):
    """Collects (node, target, deferred) import edges of one module."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.depth = 0  # function nesting depth; 0 = import time
        self.edges: list[tuple[ast.AST, str, bool]] = []

    # Class bodies execute at import time, so only *function* bodies
    # defer execution.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.edges.append((node, alias.name, self.depth > 0))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Resolve ``from .sibling import x`` against this module's
            # package (the package of a module is its name minus the
            # final component; each extra dot climbs one level).
            parts = self.module.name.split(".")
            anchor = parts[: len(parts) - node.level]
            base = ".".join(anchor + ([node.module] if node.module else []))
        for alias in node.names:
            # ``from pkg import sub`` may target the submodule pkg.sub;
            # record the most specific name and let the rule trim it
            # back to a known prefix.
            target = f"{base}.{alias.name}" if base else alias.name
            self.edges.append((node, target, self.depth > 0))


class LayeringRule(Rule):
    rule_id = "layering"
    description = (
        "imports must respect the layer DAG (kernels -> autograd -> nn/attention "
        "-> model/tasks -> serve; train|optim above serve); serve never imports "
        "training code, even deferred"
    )

    def check_module(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        if module.name in EXEMPT_MODULES:
            return
        own_rank = rank_of(module.name)
        if own_rank is None and _matches(module.name, "repro"):
            yield (
                module.tree,
                f"unranked module: {module.name} matches no prefix in "
                f"LAYER_RANKS; give it a rank so its imports are checked",
            )
        collector = _ImportCollector(module)
        collector.visit(module.tree)
        for node, target, deferred in collector.edges:
            if not _matches(target, "repro"):
                continue
            for importer_prefix, imported_prefix in FORBIDDEN_EDGES:
                if _matches(module.name, importer_prefix) and _matches(
                    target, imported_prefix
                ):
                    yield (
                        node,
                        f"forbidden import: {module.name} must never import "
                        f"{imported_prefix} ({'deferred ' if deferred else ''}"
                        f"import of {target!r})",
                    )
                    break
            else:
                if deferred or own_rank is None:
                    continue
                target_rank = rank_of(target)
                if target_rank is None:
                    # ``from repro.kernels import fused`` resolves the
                    # alias to repro.kernels.fused; an unknown leaf such
                    # as ``from repro.errors import ConfigError`` falls
                    # back to its parent module's rank.
                    target_rank = rank_of(target.rsplit(".", 1)[0])
                if target_rank is not None and target_rank > own_rank:
                    yield (
                        node,
                        f"layer violation: {module.name} (rank {own_rank}) "
                        f"imports {target!r} (rank {target_rank}); move the "
                        f"import below this layer or defer it into the "
                        f"function that needs it",
                    )


register_rule(LayeringRule())
