"""No test module defines a top-level `@given` test.

hypothesis's pytest plugin writes a patch for a failing `@given` test that
pytest collects. Where libcst is installed, that import warns, and
`pyproject.toml` turns the `DeprecationWarning` into an error inside the
plugin: the run ends in an INTERNALERROR (exit 3), which `tests/mutants.py`
reads as no verdict. A `given` function run inside a plain test fails as a
plain assertion instead, as in `tests/test_metamorphic.py`.
"""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_given(decorator) -> bool:
    """Whether a decorator is `given(...)` or `<module>.given(...)`."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "given"


def collected_given(source: str) -> list:
    """The functions of a module, or methods of its classes, that carry
    `given` themselves, so that pytest collects them as they are."""
    tree = ast.parse(source)
    nodes = tree.body + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    return [
        n.name for n in nodes
        if isinstance(n, _FUNCTIONS) and any(map(_is_given, n.decorator_list))
    ]


def test_checker_flags_a_collected_given():
    source = (
        "import hypothesis\n"
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_a(x):\n    pass\n"
        "class TestB:\n"
        "    @hypothesis.given(st.integers())\n"
        "    def test_b(self, x):\n        pass\n"
        "def test_c():\n"
        "    @given(st.integers())\n"
        "    def check(x):\n        pass\n"
        "    check()\n"
    )
    assert collected_given(source) == ["test_a", "test_b"]


def test_no_test_module_defines_a_collected_given():
    found = {}
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                found[name] = collected_given(fh.read())
    assert {name: tests for name, tests in found.items() if tests} == {}
