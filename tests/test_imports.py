"""Static hygiene of the package sources, checked with the standard library."""

import ast
from pathlib import Path

import blowlab

SRC = Path(blowlab.__file__).resolve().parent
# every place a definition in the package may be read from
READERS = (SRC, Path(__file__).resolve().parent, SRC.parent.parent / "perfbench")


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


def _references(node: ast.AST) -> set:
    """Names a node reads: identifiers, attributes, imported names and the
    dotted parts of string constants (patch targets such as "Class.method")."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def test_no_unread_definitions():
    # each top-level function or class of the package is read somewhere
    # other than in its own definition
    parts = []  # (path, top-level statement, the names it reads)
    for root in READERS:
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            parts += [(path, node, _references(node)) for node in tree.body]
    unread = []
    for path, node, _ in parts:
        if path.parent != SRC or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(node.name in refs for _, other, refs in parts if other is not node):
            unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unread, "defined but never read:\n" + "\n".join(unread)
