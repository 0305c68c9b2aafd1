"""Every exception class in errors.py is raised somewhere in the package.

A change that deletes a code path tends to leave behind the error type
only that path raised.  Each module under src/tcsurf is parsed with ast;
an exception class counts as raised when a raise statement names it
(raise X or raise X(...)) or when it is the error= argument of a
_require_int call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tcsurf"


def error_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names(tree):
    """The names a raise statement or a _require_int error= argument gives."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_require_int"):
            for kw in node.keywords:
                if kw.arg == "error" and isinstance(kw.value, ast.Name):
                    yield kw.value.id
            if len(node.args) > 3 and isinstance(node.args[3], ast.Name):
                yield node.args[3].id


def raised_anywhere():
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        names.update(raised_names(ast.parse(path.read_text(), str(path))))
    return names


def test_every_error_class_is_raised_somewhere():
    assert sorted(error_classes() - raised_anywhere()) == []


def test_the_scan_sees_both_ways_of_raising():
    tree = ast.parse("raise A\nraise B('x')\n_require_int(n, 1, 'm', C)\n"
                     "_require_int(n, 1, 'm', error=D)\nraise\n")
    assert sorted(raised_names(tree)) == ["A", "B", "C", "D"]
