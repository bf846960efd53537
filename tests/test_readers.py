"""Every top-level function, class and constant of the package, and every
method, property and field of its classes, has a reader outside the tests:
a name that only tests read is code kept for them alone.  Likewise every
parameter with a default of a module-level function or method is passed by
some call outside the tests: a parameter that only tests set is an option
kept for them alone.

A reader of a top-level name is a loaded name, an attribute access or a
string constant equal to the name (the benchmark's tracer names the
functions it wraps by string) anywhere in src/ or perfbench/, outside the
name's own definition, or the command-line entry point of pyproject.toml.
A reader of a class member is an attribute access or a string constant
equal to its name, outside the member's own definition; passing a field
by keyword to the constructor does not read it.  Dunder names are exempt.

A call passes a parameter by keyword, by position (after self or cls for a
method, a class's own call reaching __init__) or through a * or ** argument,
which passes every parameter; a recursive call counts, as it is no test's.
A function that is also used as a value (a registry's builder, a
check in a list) may be called by any caller, and is exempt, as are closures.

One name has a single reader by design: the rank tolerance DEFAULT_RANK_TOL
is read by linops alone, whose rank_cut makes every rank and definiteness
decision of the package.
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


def members(cls):
    """(name, defining statement) of each method, property and annotated field of a class."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def reads(node, names=True):
    """How often each word is read under node as an attribute or a string
    constant and, when names is true, as a loaded name."""
    words = Counter()
    for leaf in ast.walk(node):
        if names and isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
            words[leaf.id] += 1
        elif isinstance(leaf, ast.Attribute):
            words[leaf.attr] += 1
        elif isinstance(leaf, ast.Constant) and isinstance(leaf.value, str) \
                and leaf.value.isidentifier():
            words[leaf.value] += 1
    return words


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unread():
    """(unread top-level names, unread class members), each as dotted paths."""
    names, attrs = Counter(), Counter()
    defined, owned = [], []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(reads(tree))
        attrs.update(reads(tree, names=False))
        if path.parent != PACKAGE:
            continue
        for name, node in definitions(tree):
            # a definition's reads of its own name (recursion, a class's
            # own methods) are not readers of it
            names.subtract({name: reads(node)[name]})
            defined.append((f"{path.stem}.{name}", name))
            if isinstance(node, ast.ClassDef):
                for member, member_node in members(node):
                    attrs.subtract({member: reads(member_node, names=False)[member]})
                    owned.append((f"{path.stem}.{name}.{member}", member))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    names.update(target.split(":")[1] for target in scripts.values())
    return ([dotted for dotted, name in defined if names[name] <= 0 and not is_dunder(name)],
            [dotted for dotted, name in owned if attrs[name] <= 0 and not is_dunder(name)])


def functions(tree):
    """(name called, defining statement, whether it is a method) of each
    module-level function and method of a module-level class; __init__ is
    called by its class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (node.name if member.name == "__init__" else member.name), member, True


def defaulted(fn, method):
    """(name, position) of each parameter of fn with a default: position is
    its index among a call's positional arguments, None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first - skip):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls_and_values(tree):
    """The calls under tree as (name called, positional count, keywords,
    passes everything), and the names used there other than as a callee."""
    calls, callees = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callees.add(id(node.func))
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.append((name, len(node.args), {k.arg for k in node.keywords}, star))
    values = {leaf.id if isinstance(leaf, ast.Name) else leaf.attr
              for leaf in ast.walk(tree)
              if id(leaf) not in callees and (isinstance(leaf, ast.Attribute) or (
                  isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)))}
    return calls, values


def unpassed(trees):
    """name(parameter) of each defaulted parameter of the package's functions
    (trees: {path: module}) that no call passes."""
    calls, values, defined = [], set(), []
    for path, tree in trees.items():
        found, used = calls_and_values(tree)
        calls += found
        values |= used
        if path.parent == PACKAGE:
            defined += [(f"{path.stem}.{fn.name}", name, fn, method)
                        for name, fn, method in functions(tree)]
    out = []
    for dotted, name, fn, method in defined:
        if name in values:
            continue
        mine = [c for c in calls if c[0] == name]
        out += [f"{dotted}({param})" for param, pos in defaulted(fn, method)
                if not any(star or param in keywords or (pos is not None and pos < count)
                           for _, count, keywords, star in mine)]
    return out


def package_trees():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")])
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_defaulted_parameter_is_passed_outside_tests():
    assert unpassed(package_trees()) == []


def test_a_parameter_is_passed_by_keyword_position_or_star():
    source = ("def f(a, b=1, c=2, *, d=3):\n    return f(a, c=b)\n\n"
              "class K:\n    def __init__(self, n=0):\n        self.n = n\n"
              "    def m(self, x=1, y=2):\n        return x + y\n\n"
              "f(0, 5)\nK().m(1)\n")
    trees = {PACKAGE / "toy.py": ast.parse(source)}
    # the recursive call passes c, f(0, 5) passes b by position
    assert unpassed(trees) == ["toy.f(d)", "toy.__init__(n)", "toy.m(y)"]
    trees[ROOT / "perfbench" / "use.py"] = ast.parse("K(n=2).m(*args)\nf(**opts)\n")
    assert unpassed(trees) == []
    trees[ROOT / "perfbench" / "use.py"] = ast.parse("run(f)\n")  # f used as a value
    assert unpassed(trees) == ["toy.__init__(n)", "toy.m(y)"]


def test_every_top_level_name_has_a_reader_outside_tests():
    assert unread()[0] == []


def test_every_class_member_has_a_reader_outside_tests():
    assert unread()[1] == []


def test_a_name_read_only_in_its_own_definition_is_unread():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nLIMIT = 3\n")
    names = dict(definitions(tree))
    assert set(names) == {"f", "LIMIT"}
    assert reads(names["f"])["f"] == reads(tree)["f"] == 1
    assert reads(tree)["LIMIT"] == 0


def test_a_member_is_read_only_as_an_attribute():
    tree = ast.parse("class C:\n"
                     "    size: int\n"
                     "    def grow(self, n):\n"
                     "        return self.grow(n - 1)\n"
                     "    @property\n"
                     "    def half(self):\n"
                     "        return self.size / 2\n\n"
                     "c = C(size=3)\n"
                     "half = 1\n")
    cls = dict(definitions(tree))["C"]
    fields = dict(members(cls))
    assert set(fields) == {"size", "grow", "half"}
    words = reads(tree, names=False)
    # the keyword size=3 and the module-level name half are not attribute reads
    assert words["size"] == 1 and words["half"] == 0
    assert reads(fields["grow"], names=False)["grow"] == words["grow"] == 1


def rank_tolerance_readers(trees):
    """The modules of the package (trees: {path: module}) other than linops
    that import or read DEFAULT_RANK_TOL."""
    name = "DEFAULT_RANK_TOL"
    return [path.stem for path, tree in trees.items()
            if path.parent == PACKAGE and path.stem != "linops"
            and (reads(tree)[name] or any(alias.name == name for node in ast.walk(tree)
                                          if isinstance(node, ast.ImportFrom)
                                          for alias in node.names))]


def test_the_rank_tolerance_is_read_in_linops_alone():
    assert rank_tolerance_readers(package_trees()) == []


def test_a_rank_tolerance_import_or_read_is_found():
    trees = {PACKAGE / "linops.py": ast.parse("DEFAULT_RANK_TOL = 1e-10\ncut = DEFAULT_RANK_TOL\n"),
             PACKAGE / "gate.py": ast.parse("from .linops import DEFAULT_RANK_TOL\n"),
             PACKAGE / "split.py": ast.parse("from . import linops\ncut = linops.DEFAULT_RANK_TOL\n"),
             ROOT / "perfbench" / "use.py": ast.parse("from protofield.linops import DEFAULT_RANK_TOL\n")}
    assert rank_tolerance_readers(trees) == ["gate", "split"]
