"""Every top-level function or class of the library, and every method of
its classes, has a caller.

A definition counts as used when its name is read, imported or named in a
string (perfbench wraps functions by name) anywhere in `src/skewpbw` or
`perfbench/` outside the definition itself, or in the README's Python API
example. Exporting a name from `skewpbw/__init__.py` does not use it. A
method counts by its name alone, whatever object it is read from; dunder
methods are exempt, since the language calls them. Helpers only tests
call belong in `tests/oracles.py`.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "skewpbw")
PERFBENCH = os.path.join(ROOT, "perfbench")
README = os.path.join(ROOT, "README.md")


def _references(tree) -> Counter:
    """Names read, attribute names, imported names and identifier strings."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value] += 1
    return out


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dead_definitions(modules: dict, others: dict) -> list:
    """`module: name` for each top-level def or class, and `module:
    Class.name` for each non-dunder method of a top-level class, of the
    sources in `modules` that no source in `modules` or `others`
    references outside its own body. Both map a label to source text."""
    trees = {label: ast.parse(text) for label, text in {**others, **modules}.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_references(tree))

    def unused(node) -> bool:
        return total[node.name] == _references(node)[node.name]

    dead = []
    for label in modules:
        for node in trees[label].body:
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)) and unused(node):
                dead.append(f"{label}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, _FUNCTIONS):
                        continue
                    dunder = item.name.startswith("__") and item.name.endswith("__")
                    if not dunder and unused(item):
                        dead.append(f"{label}: {node.name}.{item.name}")
    return sorted(dead)


def _sources(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def test_checker_flags_an_uncalled_definition():
    modules = {
        "a.py": "def used():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def by_name():\n    pass\n\n"
        "class Unused:\n    pass\n\n"
        "def _private():\n    pass\n\nused()\n_private()\n",
    }
    others = {"b.py": "import a\nwrap(a, 'by_name')\n"}
    assert dead_definitions(modules, others) == ["a.py: Unused", "a.py: recursive"]


def test_checker_flags_an_uncalled_method():
    modules = {
        "a.py": "class K:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def uncalled(self):\n        pass\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    @property\n    def by_attribute(self):\n        return 1\n\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "K().by_attribute\n",
    }
    assert dead_definitions(modules, {}) == ["a.py: K.recursive", "a.py: K.uncalled"]


def _readme_api() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S).group(1)


def _unused(library: dict) -> list:
    """Dead definitions of the library's sources; the exports of its
    `__init__.py` count for nothing."""
    library = {k: v for k, v in library.items() if k != "__init__.py"}
    others = {f"perfbench/{k}": v for k, v in _sources(PERFBENCH).items()}
    others["README.md"] = _readme_api()
    return dead_definitions(library, others)


def test_no_dead_definitions():
    assert _unused(_sources(SRC)) == []


def test_an_export_alone_is_no_use():
    library = _sources(SRC)
    library["__init__.py"] += "from skewpbw.groebner import exported_only\n"
    library["groebner.py"] += "\n\ndef exported_only():\n    pass\n"
    assert _unused(library) == ["groebner.py: exported_only"]


def _is_exception_class(node) -> bool:
    names = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in node.bases]
    return any(n.endswith(("Error", "Exception", "Warning")) for n in names)


def test_one_input_error_class():
    """The CLI reports InputError (and OSError) as the user's fault and
    everything else as an engine fault, so every refusal of input raises
    InputError: it is the one exception class the library defines, and no
    input error is raised as a bare ValueError."""
    classes, bare = [], []
    for label, text in _sources(SRC).items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and _is_exception_class(node):
                classes.append(f"{label}: {node.name}({ast.unparse(node.bases[0])})")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{label}:{node.lineno}")
    assert classes == ["scalars.py: InputError(ValueError)"]
    assert bare == []
    import skewpbw
    from skewpbw.scalars import InputError

    assert skewpbw.InputError is InputError
