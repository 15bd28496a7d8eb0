"""Tier-1 enforcement of the unused-import check (tools/check_imports.py),
which ``make lint`` runs with or without ruff installed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_imports  # noqa: E402


def test_src_has_no_unused_imports():
    problems = check_imports.check([check_imports.REPO / "src"])
    assert problems == [], "\n".join(problems)


def test_tests_tools_and_examples_have_no_unused_imports():
    problems = check_imports.check([
        check_imports.REPO / d for d in ("tests", "tools", "examples")
    ])
    assert problems == [], "\n".join(problems)


def test_unused_imports_are_found_and_exemptions_honoured():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "import re  # noqa: E402\n"
        "from typing import Dict, List, Optional\n"
        "from a.b import Exported, Hidden\n"
        "import pkg.sub\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    import sys\n"
        "    return pkg.sub.g(x)\n"
    )
    assert check_imports.unused_imports(source) == [
        (2, "os"), (4, "re"), (5, "List"), (6, "Hidden"), (10, "sys")]
    # An __init__.py's module-level imports are its re-exports; an
    # import inside one of its functions is still checked.
    assert check_imports.unused_imports(source, is_init=True) == [(10, "sys")]


def test_lint_reports_an_unused_import_in_src(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from pkg.mod import used\n")
    (pkg / "mod.py").write_text("import os\n\ndef used():\n    return 1\n")
    assert check_imports.main([str(tmp_path / "src")]) == 1
    (pkg / "mod.py").write_text("def used():\n    return 1\n")
    assert check_imports.main([str(tmp_path / "src")]) == 0
