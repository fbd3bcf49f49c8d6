"""Every size limit is a constant in qdiv.errors, checked by check_budget.

The rule is read off the package source with ast, so a module that raises
BudgetExceeded by hand, or a budget constant that nothing checks, fails here
before any input reaches it.
"""

import ast
from pathlib import Path

import qdiv
import qdiv.errors

SOURCES = sorted(Path(qdiv.__file__).parent.glob("*.py"))


def _name(node):
    """The name a node spells: f for f and for module.f, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _nodes(path, kind):
    return [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, kind)]


def test_only_check_budget_raises_budget_exceeded():
    assert any(path.name == "errors.py" for path in SOURCES)
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        made = [
            node.lineno
            for node in _nodes(path, (ast.Call, ast.Raise))
            # BudgetExceeded(...), or a bare raise BudgetExceeded
            if _name(node.func if isinstance(node, ast.Call) else node.exc) == "BudgetExceeded"
        ]
        assert made == [], f"{path.name} builds BudgetExceeded itself"


def test_every_budget_is_checked():
    budgets = {name for name in vars(qdiv.errors) if name.endswith("_BUDGET")}
    assert budgets
    checked = set()
    for path in SOURCES:
        for call in _nodes(path, ast.Call):
            if _name(call.func) == "check_budget":
                checked.update(map(_name, call.args + [k.value for k in call.keywords]))
    assert sorted(budgets - checked) == []
