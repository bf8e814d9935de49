"""Every function and class in the package is reached from the package.

Code that only tests or the benchmark call belongs beside them, not in
src/. The check is by name: a definition counts as used when its name is
read, looked up as an attribute or imported in some module of the package.
`__init__.py` only re-exports, so it is not scanned.
"""

import ast
from pathlib import Path

import varfrac

# bench/spans.py wraps these by name (owner.__dict__[name]) to time them, so
# they stay although no module of the package calls them.
_PINNED_BY_BENCH = {"sample_hitting", "subordinator_density"}


def _package_trees():
    src = Path(varfrac.__file__).parent
    return [ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]


def test_every_defined_name_is_referenced_in_the_package():
    defined, used = set(), set()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used - _PINNED_BY_BENCH) == []
    assert _PINNED_BY_BENCH <= defined
