"""No environment knobs in the package: no module of src/protofield reads the
process environment (os.environ, os.getenv, or either imported from os).

What a run computes is stated by its arguments and its scenario file alone,
so `protofield verify` runs at the sizes it states and a scenario's output
does not depend on the shell it was started from.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protofield"

READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """(line, code) of each read of the process environment through os, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {alias.name}") for alias in node.names
                      if alias.name in READERS]
    return sorted(found)


def test_the_guard_sees_a_read_and_passes_other_os_calls():
    source = ('v = os.environ.get("X")\nw = os.getenv("Y")\nfrom os import environ\n'
              'n = os.sysconf("SC_PAGE_SIZE")\nenv = dict(environ=1)')
    assert environment_reads(source) == [
        (1, "os.environ"), (2, "os.getenv"), (3, "from os import environ")]


def test_no_environment_read_in_the_package():
    found = {path.name: environment_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}
