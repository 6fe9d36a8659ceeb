"""Print the size of the package: lines and defaulted parameters per module,
then the public functions that nothing in the package calls.

Each line is ``<lines>  <public defaults>  <private defaults>  <module>``,
and a total line follows.  A defaulted parameter is one with a default
value, positional or keyword-only.  A function is public when it is a
module-level function or a method of a module-level class (nested classes
included) and no name on that path starts with a single underscore; nested
functions and everything else count as private.

After the totals come the public functions and methods, dunder methods
aside, whose name no module of the package refers to outside their own
body, one a line as ``uncalled  <module>.<qualified name>  <users>``, with
``-`` for no users.  Re-exports in ``__init__.py`` do not count as uses,
and tests are not read.  The users are the files of ``bench/`` and
``tools/`` beside the package's ``src/`` that name the function, in code
or in a dotted string such as ``"PerturbedMap.diff_apply"``.  Only the
standard library is used, so the script runs on any checkout:

    python tools/src_stats.py              # the package under src/torusdyn
    python tools/src_stats.py path/to/pkg  # any other directory
"""
from __future__ import annotations

import ast
import os
import re
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


def public_functions(tree: ast.AST) -> list[str]:
    """Qualified names of a module's public functions and methods, dunder
    methods aside."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not _private(child.name):
                    visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    out.append(prefix + child.name)
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names a module refers to as a name or an attribute, outside the
    body of a function of that name, and with `strings` the parts of its
    dotted string constants."""
    names = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name) and child.id not in inside:
                names.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in inside:
                names.add(child.attr)
            elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str) \
                    and DOTTED.fullmatch(child.value):
                names.update(child.value.split("."))
            visit(child, inside)

    visit(tree, frozenset())
    return names


def _sources(root: str):
    """(path, source, parsed module) of each .py file under root, in
    sorted order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                yield path, source, ast.parse(source, path)


def uncalled(root: str) -> list[tuple[str, list[str]]]:
    """(module.qualified name, users in bench/ and tools/) of each public
    function of the package at root that none of its modules refers to."""
    defined, used = [], set()
    for path, _, tree in _sources(root):
        module = os.path.relpath(path, root)[:-3].replace(os.sep, ".")
        defined += [(module, qual) for qual in public_functions(tree)]
        if os.path.basename(path) != "__init__.py":
            used |= referenced_names(tree)
    checkout = os.path.join(root, "..", "..")
    mentions = [(os.path.relpath(path, checkout), referenced_names(tree, strings=True))
                for folder in ("bench", "tools")
                for path, _, tree in _sources(os.path.join(checkout, folder))]
    return [(f"{module}.{qual}", [path for path, names in mentions if qual.split(".")[-1] in names])
            for module, qual in defined if qual.split(".")[-1] not in used]


def main(argv: list[str]) -> int:
    root = os.path.normpath(argv[0] if argv else PACKAGE)
    totals = [0, 0, 0]
    for path, source, tree in _sources(root):
        row = (len(source.splitlines()), *defaulted_parameters(tree))
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{row[0]:6d}  {row[1]:4d}  {row[2]:4d}  {os.path.relpath(path, root)}")
    print(f"{totals[0]:6d}  {totals[1]:4d}  {totals[2]:4d}  total")
    for name, users in uncalled(root):
        print(f"uncalled  {name}  {' '.join(users) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
