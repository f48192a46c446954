"""Static checks on the package source that need no installed linter."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "parax"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a dotted use such as ``np.zeros`` reaches the import through its Name
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert not found, f"unused imports: {found}"


ROOT = SRC.parents[1]


def _uses(tree: ast.AST) -> Counter:
    """Identifiers read in a subtree: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_dead_definitions():
    # every module-level def/class of the package is used somewhere in src/,
    # tests/ or scripts/ outside its own body; matching is by name, so a
    # use of a same-named object elsewhere also counts
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    dead = [f"{path.name}:{node.name}"
            for path in sorted(SRC.glob("*.py"))
            for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and used[node.name] == _uses(node)[node.name]]
    assert not dead, f"definitions used nowhere: {dead}"
