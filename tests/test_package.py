"""Static checks over the package sources, built on the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smallcox"
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _attributes_read(tree):
    """(module, attribute) for every ``module.attribute`` expression."""
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    # a name counts as used when its module reads it, or when another
    # module reads it through this one as ``<module>.<name>``
    tree = MODULES[module]
    read = _read_names(tree)
    reexported = set().union(*(
        {attr for owner, attr in _attributes_read(other) if owner == module}
        for name, other in MODULES.items() if name != module))
    unused = [(name, line) for name, line in _imported_names(tree)
              if name not in read and name not in reexported]
    assert not unused, f"{module}.py imports names it never uses: {unused}"
