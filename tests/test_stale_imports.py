"""No module imports a name it never uses.

A change that deletes code tends to leave behind the imports that only
that code read.  Each module under src/tcsurf and tests is parsed with
ast, and a name that an import binds counts as used when some name node
of the same module reads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Imports kept for what they export, not for their own module's use.
# zcl re-exports the mod-ideal builder: bench/trace_job.py wraps
# zcl.mod_ideal_quotient, and test_zcl_reexports_the_mod_ideal_builder
# pins it.
REEXPORTS = {("src/tcsurf/zcl.py", "mod_ideal_quotient")}


def unused_imports(path):
    """(line, name) for each name an import in path binds and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def stale_imports():
    paths = sorted((ROOT / "src" / "tcsurf").rglob("*.py"))
    paths += sorted((ROOT / "tests").rglob("*.py"))
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        for line, name in unused_imports(path):
            yield rel, line, name


def test_no_module_imports_a_name_it_never_uses():
    stale = [f"{rel}:{line}: {name}" for rel, line, name in stale_imports()
             if (rel, name) not in REEXPORTS]
    assert not stale


def test_every_kept_reexport_is_still_imported():
    assert {(rel, name) for rel, _, name in stale_imports()} >= REEXPORTS
