"""Every top-level function, class and constant of the package has a reader
outside the tests: a name that only tests read is code kept for them alone.

A reader is a loaded name, an attribute access or a string constant equal to
the name (the benchmark's tracer names the functions it wraps by string)
anywhere in src/ or perfbench/, outside the name's own definition, or the
command-line entry point of pyproject.toml.
"""

import ast
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "protofield"


def definitions(tree):
    """(name, defining statement) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def reads(node):
    """How often each name is read under node."""
    words = Counter()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            words[leaf.id] += 1
        elif isinstance(leaf, ast.Attribute):
            words[leaf.attr] += 1
        elif isinstance(leaf, ast.Constant) and isinstance(leaf.value, str) \
                and leaf.value.isidentifier():
            words[leaf.value] += 1
    return words


def unread_names():
    total, defined = Counter(), []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        total.update(reads(tree))
        if path.parent == PACKAGE:
            for name, node in definitions(tree):
                # a definition's reads of its own name (recursion, a class's
                # own methods) are not readers of it
                total.subtract({name: reads(node)[name]})
                defined.append((path.stem, name))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    total.update(target.split(":")[1] for target in scripts.values())
    return [f"{module}.{name}" for module, name in defined
            if total[name] <= 0 and not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_name_has_a_reader_outside_tests():
    assert unread_names() == []


def test_a_name_read_only_in_its_own_definition_is_unread():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nLIMIT = 3\n")
    names = dict(definitions(tree))
    assert set(names) == {"f", "LIMIT"}
    assert reads(names["f"])["f"] == reads(tree)["f"] == 1
    assert reads(tree)["LIMIT"] == 0
