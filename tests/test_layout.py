"""Source layout rules that no single module can check for itself."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "scripts", "bench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> set:
    """Every name the node mentions: bare names, attribute names and
    imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _defines(tree) -> set:
    """Top-level names a module binds other than by importing them."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            out.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            out |= set().union(*map(_names, stmt.targets))
        elif isinstance(stmt, ast.AnnAssign):
            out |= _names(stmt.target)
    return out


def test_every_src_name_has_a_program_caller():
    # a top-level def or class in src/ that only the tests name belongs in
    # the tests; one that nothing names is dead
    defined = []  # (file, statement index, name)
    mentions = []  # (file, statement index, names)
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            for i, stmt in enumerate(ast.parse(path.read_text()).body):
                mentions.append((rel, i, _names(stmt)))
                if top == "src" and isinstance(stmt, DEFS):
                    defined.append((rel, i, stmt.name))
    assert defined
    uncalled = [f"{rel}: {name}" for rel, i, name in defined
                if not any(name in names for r, j, names in mentions
                           if (r, j) != (rel, i))]
    assert not uncalled, uncalled


def test_package_inits_hold_only_a_docstring():
    inits = sorted((ROOT / "src").rglob("__init__.py"))
    assert inits
    for path in inits:
        body = ast.parse(path.read_text()).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr), path


def test_each_name_is_imported_from_its_defining_module():
    modules = {}
    for path in (ROOT / "src").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        name = ".".join(p for p in parts if p != "__init__")
        modules[name] = _defines(ast.parse(path.read_text()))
    wrong = []
    for top in PROGRAM_DIRS + ("tests",):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in modules:
                    wrong += [f"{path.relative_to(ROOT)}: {node.module}.{a.name}"
                              for a in node.names
                              if a.name not in modules[node.module]
                              and f"{node.module}.{a.name}" not in modules]
    assert not wrong, wrong
