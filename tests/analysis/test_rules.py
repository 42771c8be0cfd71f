"""Fixture-driven rule tests: known-bad trees fire, known-good stay silent.

Every fixture tree under ``tests/analysis/fixtures/<case>/bad/`` marks its
seeded violations with an ``# EXPECT[rule-id]`` comment on the offending
line; the test runs the FULL rule set over the tree and requires the
findings to match the markers exactly — missing findings and
cross-contamination from other rules both fail.  ``good/`` trees must be
completely clean under all rules.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.analysis import Analyzer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CASES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())

_EXPECT_RE = re.compile(r"#\s*EXPECT\[([a-z\-]+)\]")


def expected_markers(tree: pathlib.Path) -> set[tuple[str, int, str]]:
    """(path, line, rule-id) triples from # EXPECT[...] comments."""
    markers = set()
    for path in sorted(tree.rglob("*.py")):
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            for match in _EXPECT_RE.finditer(text):
                markers.add((str(path), lineno, match.group(1)))
    return markers


def run_tree(tree: pathlib.Path) -> set[tuple[str, int, str]]:
    findings = Analyzer().run([tree])
    return {(f.path, f.line, f.rule_id) for f in findings}


@pytest.mark.parametrize("case", CASES)
def test_bad_tree_fires_exactly_the_seeded_violations(case):
    tree = FIXTURES / case / "bad"
    expected = expected_markers(tree)
    assert expected, f"fixture {case}/bad has no EXPECT markers"
    actual = run_tree(tree)
    missing = expected - actual
    extra = actual - expected
    assert not missing, f"seeded violations did not fire: {sorted(missing)}"
    assert not extra, f"unexpected findings (cross-contamination): {sorted(extra)}"


@pytest.mark.parametrize("case", CASES)
def test_good_tree_is_clean(case):
    tree = FIXTURES / case / "good"
    findings = Analyzer().run([tree])
    assert not findings, "\n".join(f.format() for f in findings)


def test_every_rule_has_a_firing_and_a_silent_fixture():
    """The eight invariants each have both fixture directions on disk."""
    rules_with_bad = set()
    for case in CASES:
        for _, _, rule_id in expected_markers(FIXTURES / case / "bad"):
            rules_with_bad.add(rule_id)
    assert rules_with_bad >= {
        "layering",
        "mutable-state",
        "typed-errors",
        "dtype-literal",
        "grad-discipline",
        "backend-conformance",
        "durable-io",
        "scatter-at",
    }
    for case in CASES:
        assert (FIXTURES / case / "good").is_dir(), f"{case} has no good tree"
