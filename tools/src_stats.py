"""Print the size of the package: lines and defaulted parameters per module.

Each line is ``<lines>  <public defaults>  <private defaults>  <module>``,
and a last line gives the totals.  A defaulted parameter is one with a
default value, positional or keyword-only.  A function is public when it is
a module-level function or a method of a module-level class (nested classes
included) and no name on that path starts with a single underscore; nested
functions and everything else count as private.  Only the standard library
is used, so the script runs on any checkout:

    python tools/src_stats.py              # the package under src/torusdyn
    python tools/src_stats.py path/to/pkg  # any other directory
"""
from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "torusdyn")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defaulted_parameters(tree: ast.AST) -> tuple[int, int]:
    """(public, private) counts of defaulted parameters in a module."""
    counts = [0, 0]

    def visit(node: ast.AST, public: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, public and not _private(child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                n = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                counts[0 if public and not _private(child.name) else 1] += n
                visit(child, False)
            else:
                visit(child, public)

    visit(tree, True)
    return counts[0], counts[1]


def main(argv: list[str]) -> int:
    root = os.path.normpath(argv[0] if argv else PACKAGE)
    totals = [0, 0, 0]
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            row = (len(source.splitlines()), *defaulted_parameters(ast.parse(source, path)))
            totals = [a + b for a, b in zip(totals, row)]
            print(f"{row[0]:6d}  {row[1]:4d}  {row[2]:4d}  {os.path.relpath(path, root)}")
    print(f"{totals[0]:6d}  {totals[1]:4d}  {totals[2]:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
