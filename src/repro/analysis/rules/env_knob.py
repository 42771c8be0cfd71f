"""``env-knob`` — no environment variable reads inside the library.

An environment variable is a process-wide option that no signature
shows: it forks behaviour by what the caller's shell happened to export,
and a benchmark that forgets to clear it measures a different program.
The library keeps two on purpose, each with its reason at the read: the
compute dtype (``RITA_COMPUTE_DTYPE``, the one policy a whole process
must agree on before the first tensor exists) and the benchmark scripts'
directory for the experiment grid (a path, not a behaviour).

This rule flags every ``os.environ`` / ``os.getenv`` reference and
every ``from os import environ|getenv`` in ``repro``.  A read that is
really needed carries ``# repro: allow[env-knob] - <reason>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceModule, register_rule

__all__ = ["EnvKnobRule"]

#: ``os`` attributes that read (or expose) the process environment.
ENV_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def _in_scope(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class EnvKnobRule(Rule):
    rule_id = "env-knob"
    description = (
        "no os.environ/os.getenv in repro: pass an argument or use an existing "
        "policy; a needed read is allowed with its reason"
    )

    def check_module(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        if not _in_scope(module.name):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield node, self._message(f"os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names if alias.name in ENV_NAMES]
                if names:
                    yield node, self._message(f"from os import {', '.join(names)}")

    @staticmethod
    def _message(what: str) -> str:
        return (
            f"{what} makes an environment variable a hidden option; take an "
            f"argument instead, or allow it with the reason"
        )


register_rule(EnvKnobRule())
