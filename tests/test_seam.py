"""The correction engine and the command line read a branch field through
its public methods only: `BranchField.branch()` and the Jet views, never a
private name of the field's state.  The check parses the sources, so a
private read on a path no test runs is caught too."""

import ast
from pathlib import Path

import pytest

import phaseintegral

_SRC = Path(phaseintegral.__file__).resolve().parent
_FIELDS = ("fld", "branch", "field")     # names that hold a BranchField


def _is_field(node) -> bool:
    """fld, branch, field, self.field or engine.field."""
    if isinstance(node, ast.Name):
        return node.id in _FIELDS
    return (isinstance(node, ast.Attribute) and node.attr == "field"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "engine"))


def private_field_reads(source: str) -> list:
    """(line, text) of every `_`-prefixed attribute of a field."""
    return sorted((node.lineno, ast.unparse(node))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_") and _is_field(node.value))


@pytest.mark.parametrize("module", ["vector.py", "cli.py"])
def test_no_private_field_reads(module):
    assert private_field_reads((_SRC / module).read_text()) == []


def test_each_field_spelling_is_caught():
    source = "\n".join(["a = fld._oblique", "b = branch._projector(x)",
                        "c = field._scalar_matrix", "d = self.field._d",
                        "e = engine.field._eigen_jets(x, 2)",
                        "f = pt.branch.Qsq", "g = engine._point(x, 0)"])
    assert [line for line, _ in private_field_reads(source)] == [
        1, 2, 3, 4, 5]
