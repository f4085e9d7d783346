"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

import leavitt

PACKAGE = pathlib.Path(leavitt.__file__).parent


def imported_modules(tree):
    """(top-level module name or None for a relative import, line) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield top, node.lineno


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top, line in imported_modules(tree):
            if top is not None and top != "leavitt" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{line}: {top}")
    assert outside == []
