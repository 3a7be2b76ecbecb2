"""Every name a library module imports is used in that module."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "skewpbw")
MODULES = sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
