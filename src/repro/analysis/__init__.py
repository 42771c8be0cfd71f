"""AST-based invariant checkers for the repro codebase.

Seven PRs of history taught this repository a set of production
invariants the hard way: the serving tier must never import training
code, module state shared across threads must be ``threading.local`` or
lock-guarded, library code raises typed :class:`~repro.errors.ReproError`
subclasses instead of bare builtins, dtype literals live only in the
dtype policy, inference endpoints route through the engine's serving
scope, and every kernel backend implements the full primitive set.

Each invariant is encoded here as a *rule* — a small AST checker with a
stable id — so CI enforces mechanically what used to live in memory and
hand-written regression tests:

==========================  ===========================================
``layering``                the declared import-layer DAG
``mutable-state``           thread-safe module/class state
``typed-errors``            ReproError discipline + no swallowing
``dtype-literal``           dtype literals only in ``kernels/policy.py``
``grad-discipline``         endpoints route through the serving scope
``backend-conformance``     kernel backends implement the interface
``scatter-at``              no ``np.<ufunc>.at`` on the compute path
==========================  ===========================================

Run the whole suite with ``python -m repro.analysis src`` (exits
nonzero on findings).  Suppress a single deliberate finding with a
``# repro: allow[rule-id]`` comment on the offending statement (or the
line directly above it) — every suppression is a visible, reviewable
decision at the code site.

The framework itself depends only on the standard library and
:mod:`repro.errors`, so the CI job stays fast and the checkers can
never be broken by the code they check.
"""

from __future__ import annotations

from repro.analysis.core import (
    Analyzer,
    Finding,
    Project,
    Rule,
    SourceModule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.reporters import render_json, render_text

# Importing the rules package registers every built-in rule.
from repro.analysis import rules as _rules  # noqa: F401  (import for side effect)

__all__ = [
    "Analyzer",
    "Finding",
    "Project",
    "Rule",
    "SourceModule",
    "all_rules",
    "get_rule",
    "register_rule",
    "render_json",
    "render_text",
]
