"""Print the size of the homoglab package: its line count and its settable
values, by one rule on any tree.

Settable values are counted from the AST of ``src/homoglab/*.py``:

- the parameters of every ``def`` (nested ones included) other than
  ``self`` and ``cls``; ``*args`` and ``**kwargs`` count one each, and
  lambdas are not counted;
- the init fields of ``@dataclass`` classes, leaving out ``ClassVar``
  annotations and ``field(init=False)``.

Usage: ``python3 tools/size.py [ROOT]`` (ROOT defaults to the checkout
that holds this script).
"""

import ast
import sys
from pathlib import Path


def _name(node) -> str:
    """The last dotted name of a decorator, annotation or call target."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _def_params(node) -> int:
    a = node.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return (sum(n not in ("self", "cls") for n in names)
            + (a.vararg is not None) + (a.kwarg is not None))


def _init_fields(node) -> int:
    if not any(_name(d) == "dataclass" for d in node.decorator_list):
        return 0
    count = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if _name(stmt.annotation) == "ClassVar":
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value) == "field" and any(
                kw.arg == "init" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False for kw in value.keywords):
            continue
        count += 1
    return count


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += _def_params(node)
        elif isinstance(node, ast.ClassDef):
            count += _init_fields(node)
    return count


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "homoglab").glob("*.py"))
    if not files:
        print(f"no src/homoglab/*.py under {root}", file=sys.stderr)
        return 1
    sources = [f.read_text() for f in files]
    lines = sum(len(s.splitlines()) for s in sources)
    values = sum(map(settable_values, sources))
    print(f"src/homoglab: {lines} lines, {values} settable values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
