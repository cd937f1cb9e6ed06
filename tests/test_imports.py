"""Static hygiene of the package sources, checked with the standard library."""

import ast
from pathlib import Path

import blowlab

SRC = Path(blowlab.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
