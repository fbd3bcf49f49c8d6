"""Every private module-level name and every import in the package is read in it.

The rule is read off the package source with ast: a name is read where it
is loaded (a bare name or an attribute). A module-level private name may be
read in any module; an import must be read in the module that imports it,
but for __init__, whose imports are the package's exports.
"""

import ast
from pathlib import Path

import qdiv

SOURCES = sorted(Path(qdiv.__file__).parent.glob("*.py"))


def _reads(tree):
    """The names a module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def _defined(tree):
    """The private names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _imported(tree):
    """The names a module's imports bind, but from __future__."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def unread(sources):
    """(module, name) of each private name read in no module and import unread in its own."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    everywhere = set().union(*reads.values())
    dead = [(name, n) for name, tree in trees.items() for n in _defined(tree) - everywhere]
    dead += [
        (name, n)
        for name, tree in trees.items() if name != "__init__"
        for n in _imported(tree) - reads[name]
    ]
    return sorted(dead)


def test_package_has_no_unread_name():
    assert unread({path.stem: path.read_text() for path in SOURCES}) == []


def test_unread_names_are_found():
    sources = {
        "a": "import math\nimport numpy as np\n_USED = 1\n_LEFT = 2\nX = np.pi\n",
        "b": "from .a import _USED\n\ndef f():\n    return _USED\n\ndef _g():\n    pass\n",
        "__init__": "from .b import f\n",
    }
    assert unread(sources) == [("a", "_LEFT"), ("a", "math"), ("b", "_g")]
