#!/usr/bin/env python
"""Unused-import check that needs no third-party linter.

Reads every ``*.py`` file under the given directories (default
``src``) with :mod:`ast` and reports each imported name the module
never reads.  A name counts as read when it appears as an identifier
anywhere in the module (string annotations included) or is listed in
the module's ``__all__``.  Exempt are ``from __future__`` imports,
module-level imports in an ``__init__.py`` (a package's re-exports)
and any import on a line carrying ``# noqa`` (bare, or with F401
among its codes).

Run as ``python tools/check_imports.py [DIR …]``; exit 0 clean, 1 when
an unused import is found.  ``make lint`` runs it whether or not ruff
is installed, and ``tests/test_lint.py`` wraps it in tier-1.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _noqa(line: str) -> bool:
    match = NOQA_RE.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def _annotation_names(node: ast.AST) -> set[str]:
    """Identifiers inside the string constants of an annotation."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if ann is not None:
                used |= _annotation_names(ann)
    return used


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list/tuple."""
    names: set[str] = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names |= {e.value for e in node.value.elts
                          if isinstance(e, ast.Constant)}
    return names


def unused_imports(source: str, is_init: bool = False) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``source`` binds and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _used_names(tree) | _exported(tree)
    top_level = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
        elif not isinstance(node, ast.Import):
            continue
        if is_init and id(node) in top_level:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = alias.lineno
            if bound in read or _noqa(lines[line - 1]) or _noqa(lines[node.lineno - 1]):
                continue
            found.append((line, bound))
    return sorted(found)


def check(dirs: list[Path]) -> list[str]:
    problems = []
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            for line, name in unused_imports(path.read_text(),
                                             path.name == "__init__.py"):
                rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
                problems.append(f"{rel}:{line}: `{name}` imported but unused")
    return problems


def main(argv: list[str]) -> int:
    dirs = [Path(a).resolve() for a in argv] or [REPO / "src"]
    problems = check(dirs)
    for line in problems:
        print(f"check-imports: {line}")
    if problems:
        print(f"check-imports: {len(problems)} unused import(s)")
        return 1
    print(f"check-imports: ok ({', '.join(str(d) for d in argv) or 'src'})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
