"""Static checks on the package, test and script sources that need no
installed linter."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "parax"
ROOT = SRC.parents[1]


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
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "scripts").rglob("*.py")]
    for path in sorted(paths):
        if path == SRC / "__init__.py":  # re-exports the public names
            continue
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert not found, f"unused imports: {found}"


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


def _module_assignments(tree: ast.Module):
    """(name, line) for each module-level name bound by assignment."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    yield n.id, node.lineno


def _imported_from(tree: ast.AST) -> set[tuple[str, str]]:
    """(module stem, name) for each ``from module import name`` and each
    ``module.name`` attribute read in a file."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            stem = node.module.split(".")[-1]
            found.update((stem, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            stem = (owner.id if isinstance(owner, ast.Name)
                    else owner.attr if isinstance(owner, ast.Attribute) else None)
            if stem is not None:
                found.add((stem, node.attr))
    return found


def test_no_dead_module_names():
    # every module-level name of the package bound by assignment is read in
    # its own module or imported from it by another file; unlike the check
    # above, a read of a same-named variable in another module does not count
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for folder in ("src", "tests", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    imports = {path: _imported_from(tree) for path, tree in trees.items()}
    dead = []
    for path in sorted(SRC.glob("*.py")):
        tree = trees[path]
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        imported = set().union(*(found for p, found in imports.items() if p != path))
        dead += [f"{path.name}:{name} (line {line})"
                 for name, line in _module_assignments(tree)
                 if not name.startswith("__") and name not in read
                 and (path.stem, name) not in imported]
    assert not dead, f"module-level names nothing reads: {dead}"
