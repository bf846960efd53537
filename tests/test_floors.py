"""No unit floors in the package: no builtin max or min call in src/protofield
takes a nonzero float constant, such as max(scale, 1.0) or min(c, 1e-300).

Such a floor judges a residual, a tolerance or a margin in the units in which
the data happen to be written: below the floor nothing can fail, above it
nothing changes.  Every scale comes from the data being judged instead.
Integer constants (index clamps such as max(i - 1, 0)) stay legal.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "protofield"


def _float_constant(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0


def floors(source):
    """(line, call) of each builtin max/min call with a nonzero float constant argument."""
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min") and any(map(_float_constant, node.args))]


def test_the_guard_sees_a_floor_and_passes_a_clamp():
    assert floors("max(x, 1.0)\nmin(y, -1e-300)\nmax(i - 1, 0)\nmax(x, 0.0)\nnp.max(x, 1.0)") == [
        (1, "max(x, 1.0)"), (2, "min(y, -1e-300)")]


def test_no_unit_floor_in_the_package():
    found = {path.name: floors(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: sites for name, sites in found.items() if sites} == {}
