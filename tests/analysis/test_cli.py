"""CLI contract: exit codes, formats, rule listing."""

from __future__ import annotations

import json

import pytest

from repro.analysis.__main__ import main


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "repro" / "data"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('def f():\n    raise ValueError("x")\n')
    return tmp_path


@pytest.fixture
def clean_tree(tmp_path):
    pkg = tmp_path / "repro" / "data"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("X = 1\n")
    return tmp_path


def test_clean_tree_exits_zero(clean_tree, capsys):
    assert main([str(clean_tree)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_findings_exit_one_with_rule_id_and_location(bad_tree, capsys):
    assert main([str(bad_tree)]) == 1
    out = capsys.readouterr().out
    assert "typed-errors" in out
    assert "a.py:2:" in out


def test_json_format(bad_tree, capsys):
    assert main(["--format", "json", str(bad_tree)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1
    assert doc["findings"][0]["rule"] == "typed-errors"


def test_select_filters_rules(bad_tree):
    assert main(["--select", "dtype-literal", str(bad_tree)]) == 0


def test_bad_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "missing")]) == 2
    assert "missing" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "layering",
        "mutable-state",
        "typed-errors",
        "dtype-literal",
        "grad-discipline",
        "backend-conformance",
        "env-knob",
    ):
        assert rule_id in out
