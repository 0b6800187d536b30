"""The verdict table: README's copy, its readers, and the identity gate."""

import ast
import math
from pathlib import Path

import pytest

from fbmlab import verdicts
from fbmlab.verify import IdentityReport

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbmlab"


def _readme_rows() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Verdicts\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_lists_every_row_of_the_table():
    expected = [[f"`{row.name}`", row.statistic, f"{row.gate:g}", row.covers]
                for row in verdicts.TABLE]
    assert _readme_rows() == expected


def test_every_row_is_in_the_table_once_with_a_gate_and_what_it_covers():
    rows = [v for v in vars(verdicts).values() if isinstance(v, verdicts.Verdict)]
    assert sorted(rows) == sorted(verdicts.TABLE)
    assert len({row.name for row in rows}) == len(rows)
    for row in rows:
        assert math.isfinite(row.gate) and row.gate > 0
        assert row.statistic and row.covers


def _reads(tree: ast.Module) -> set[str]:
    """Names of verdicts rows a module reads, through `from .verdicts
    import X` or `verdicts.X`."""
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "verdicts"
                for alias in node.names}
    names = {imported[node.id] for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in imported}
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "verdicts"}
    return names | attrs


def test_some_other_module_reads_every_row():
    """No orphan row: deleting the last reader of a rule deletes its row."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "verdicts.py":
            read |= _reads(ast.parse(path.read_text()))
    rows = {name for name, v in vars(verdicts).items()
            if isinstance(v, verdicts.Verdict)}
    assert rows - read == set()


def test_verdicts_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "verdicts.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("fbmlab")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fbmlab") for a in node.names)


@pytest.mark.parametrize("left, right, stderr, margin, usage", [
    (1.5, 1.0, 0.125, 0.0, 1.0),
    (1.0, 2.0, 0.125, 0.25, 4.0 / 3.0),
    (2.0, 2.0, 0.0, 0.0, 0.0),
    (2.0, 1.0, 0.0, 0.0, math.inf),
])
def test_identity_usage_is_the_gap_over_its_gate(left, right, stderr, margin, usage):
    report = IdentityReport("t", "l", left, right, stderr, margin)
    gate = verdicts.IDENTITY_STDERRS.gate * stderr + margin
    assert report.usage == usage
    assert report.passed == (abs(left - right) <= gate)
    assert report.passed == (report.usage <= 1.0)
