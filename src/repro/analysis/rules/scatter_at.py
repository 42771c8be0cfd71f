"""``scatter-at`` — no unbuffered ``<ufunc>.at`` scatter on the compute path.

``np.add.at`` (and every ``ufunc.at``) handles repeated indices by
visiting one element at a time.  Folding the imputation decoder's
columns, ``(8, 21, 5, 2000)`` float32, through it took ~19 ms on a
2-vCPU x86-64 host; five strided slice-adds give bitwise the same result
in ~1.4 ms.  Where no index can repeat (a basic slice, one tap of a
fold) a slice-add is exact and an order of magnitude faster, and the
fused kernel backend already segment-sums without a scatter.

This rule flags every ``np.<ufunc>.at(...)`` / ``numpy.<ufunc>.at(...)``
call in the compute layers — ``repro.autograd``, ``repro.kernels``,
``repro.nn``, ``repro.model`` and ``repro.attention``.  A scatter that
is really needed (indices that can repeat, a reference oracle) carries
``# repro: allow[scatter-at] - <reason>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceModule, register_rule

__all__ = ["ScatterAtRule"]

#: Packages whose code runs in training and inference steps.
SCOPED_PACKAGES = (
    "repro.autograd",
    "repro.kernels",
    "repro.nn",
    "repro.model",
    "repro.attention",
)


def _in_scope(name: str) -> bool:
    return any(name == pkg or name.startswith(pkg + ".") for pkg in SCOPED_PACKAGES)


def _ufunc_at(call: ast.Call) -> str | None:
    """``"add"`` for ``np.add.at(...)``; ``None`` for any other call."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "at"
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in {"np", "numpy"}
    ):
        return func.value.attr
    return None


class ScatterAtRule(Rule):
    rule_id = "scatter-at"
    description = (
        "no np.<ufunc>.at scatter in autograd/kernels/nn/model/attention unless "
        "indices can repeat; use a slice-add or gather"
    )

    def check_module(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        if not _in_scope(module.name):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                ufunc = _ufunc_at(node)
                if ufunc is not None:
                    yield (
                        node,
                        f"np.{ufunc}.at scatters one element at a time; where no "
                        f"index repeats use a slice-add (buffer[index] += values) "
                        f"or strided adds, else allow it with the reason",
                    )


register_rule(ScatterAtRule())
