#!/usr/bin/env python
"""Docs-staleness check: documented CLI flags vs live ``--help``.

Documentation rots in two directions: a doc keeps describing a flag
that was renamed or removed, or a new flag ships without the
operator's manual learning about it.  This checker catches both by
comparing the ``--long-flag`` tokens found in the prose against the
flags argparse actually advertises:

1. **No phantom flags** — a ``--flag`` quoted in code context (an
   inline code span or a fenced-block line) after a named subcommand
   (``repro CMD …`` or ``python -m repro CMD …``) must exist in that
   subcommand's live ``--help``.  Every other ``--flag`` token in a
   checked doc must exist in the live ``--help`` of at least one of
   the subcommands the doc is mapped to.  Either may instead be on the
   small external allowlist (e.g. pip flags quoted in install notes).

2. **No undocumented operator flags** — every flag of ``sweep`` and
   ``fuzz`` must be mentioned in ``docs/sweep-service.md``, and every
   flag of ``analyze`` in ``docs/analyze.md`` (the verifier's
   manual).  Each manual owns its commands' full flag sets.

The same two directions are enforced for ``REPRO_*`` environment
flags (the execution-mode escape hatches and sweep timing knobs):

3. **No phantom env flags** — every ``REPRO_*`` token in a checked
   doc must be read somewhere in ``src/``: appear there as a whole
   string literal (a mention in a comment or docstring does not keep
   a removed flag alive).

4. **No undocumented env flags** — every ``REPRO_*`` flag the code
   reads must be described in README.md or EXPERIMENTS.md.

And for ``make`` targets quoted in the docs:

5. **No phantom make targets** — every ``make <target>`` a checked
   doc quotes (inline code or shell block) must be a real target in
   the Makefile.

6. **No undocumented gate targets** — the targets on the small
   required list (the CI perf gates, e.g. ``smoke``/``smtp16-smoke``)
   must exist in the Makefile *and* be described in README.md or
   EXPERIMENTS.md.

And for the coherence invariants:

7. **Invariant codes both ways** — the ``## Invariants`` list in
   ``docs/analyze.md`` names exactly the codes in
   ``repro.protocol.invariants.CODES``: no code missing from the list,
   no listed code the module no longer has.

And for the named sweep grids:

8. **No phantom grids** — every ``--grid NAME`` a checked doc quotes
   must be listed by the live ``repro sweep --list-grids``.

And for module paths:

9. **No dead module paths** — every dotted ``repro.…`` path in
   README.md, DESIGN.md, EXPERIMENTS.md or ``docs/*.md``, and every
   ``repro.…`` target of a Sphinx role (``:mod:``, ``:class:``,
   ``:func:``, ``:meth:``, …) in ``src/repro``, must import as a
   module or resolve by attribute from the longest prefix that does.

Run as ``make docs-check`` or ``python tools/check_docs.py``; exit 0
clean, 1 stale.  ``tests/test_docs.py`` wraps it so staleness also
fails tier-1.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Doc file -> repro subcommands whose flags it may legitimately cite.
DOC_COMMANDS = {
    "docs/sweep-service.md": ("sweep", "fuzz"),
    "docs/analyze.md": ("analyze", "fuzz", "sweep"),
    "docs/protocols.md": ("analyze", "fuzz", "sweep", "handlers"),
    "docs/architecture.md": ("run", "sweep", "fuzz", "analyze"),
    "EXPERIMENTS.md": ("run", "sweep", "fuzz", "analyze"),
    "README.md": ("run", "sweep", "fuzz", "analyze"),
}

# Flags that MUST be live on specific commands: protects the
# protocol-registry seam (docs/protocols.md is written against these)
# from a silent CLI regression even if every doc mention were also
# removed.
REQUIRED_FLAGS = {
    "--protocol": ("analyze", "fuzz", "sweep", "handlers"),
}

# Manual completeness: each manual must mention the full flag set of
# the commands it owns.
MANUALS = {
    "docs/sweep-service.md": ("sweep", "fuzz"),
    "docs/analyze.md": ("analyze",),
}

# Flags of *other* tools that docs may quote in examples.
ALLOWED_EXTERNAL = {
    "--help",
    "--no-build-isolation",  # pip, quoted in the README install notes
    "--version",
}

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")

# Code context: the lines of a fenced block (``\`` continuations
# joined) and the inline code spans outside one.  In code, a flag after
# a named subcommand (`repro CMD`, `python -m repro CMD`) belongs to
# it, up to the next shell separator.
FENCE_RE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
SPAN_RE = re.compile(r"`([^`]+)`")
COMMAND_RE = re.compile(r"(?<![\w/.-])repro\s+([a-z][a-z-]*)")
SEPARATOR_RE = re.compile(r"\|\|?|&&|;")

# REPRO_* environment flags: which docs must (between them) describe
# every implemented flag, and where implementations may live.
ENV_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
ENV_DOCS = ("README.md", "EXPERIMENTS.md")
ENV_SOURCE_DIRS = ("src",)

# `make <target>` mentions are only trusted in code context (inline
# backticks or a shell-block line), so prose like "make sure" never
# reads as a target reference.
MAKE_RE = re.compile(
    r"(?:`|^\s*(?:\$\s*)?)(?:REPRO_\w+=\S+\s+)*make\s+([a-z][a-z0-9-]*)",
    re.MULTILINE,
)

# Targets that must stay live in the Makefile AND be described in one
# of ENV_DOCS: the CI perf gates operators are expected to run.
REQUIRED_TARGETS = ("smoke", "smtp16-smoke")

# `--grid NAME` quoted in a doc; NAME must be a live named grid.
GRID_RE = re.compile(r"--grid[ =]([a-z][a-z0-9_-]*)")

# Dotted `repro.…` paths: anywhere in a path doc, and as the target of
# a Sphinx role (optionally `~`-shortened) in the package sources.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
ROLE_RE = re.compile(
    r":(?:mod|class|func|meth|attr|data|exc):`~?(repro(?:\.[A-Za-z_]\w*)+)`"
)
PATH_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

# Where the invariant codes are declared and where they are listed.
INVARIANTS_SOURCE = "src/repro/protocol/invariants.py"
INVARIANTS_DOC = "docs/analyze.md"
# A list item opening with a backquoted code, inside the section.
INVARIANT_ITEM_RE = re.compile(r"^[-*]\s+`([a-z][a-z-]*)`", re.MULTILINE)


def makefile_targets() -> set[str]:
    """Every rule name defined in the top-level Makefile."""
    targets: set[str] = set()
    for line in (REPO / "Makefile").read_text().splitlines():
        match = re.match(r"^([A-Za-z0-9][A-Za-z0-9_. -]*):(?!=)", line)
        if match:
            targets |= set(match.group(1).split())
    return targets - {".PHONY"}


def env_flags_read(source: str) -> set[str]:
    """The ``REPRO_*`` names ``source`` holds as whole string literals
    — the keys code hands to ``os.environ``/``os.getenv``, directly or
    through a named constant.  Comments are not in the AST and a
    docstring is never just a flag name, so neither counts."""
    return {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ENV_RE.fullmatch(node.value)
    }


def implemented_env_flags() -> set[str]:
    """Every ``REPRO_*`` flag the code actually reads."""
    flags: set[str] = set()
    for top in ENV_SOURCE_DIRS:
        for path in (REPO / top).rglob("*.py"):
            flags |= env_flags_read(path.read_text())
    return flags


def invariant_codes(source: str) -> set[str]:
    """The codes in the module-level ``CODES`` tuple of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CODES" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def documented_invariant_codes(doc: str) -> set[str]:
    """The codes opening the list items of ``doc``'s ``## Invariants``
    section (up to the next ``## `` heading)."""
    match = re.search(r"^## Invariants\n(.*?)(?=^## |\Z)", doc,
                      re.MULTILINE | re.DOTALL)
    return set(INVARIANT_ITEM_RE.findall(match.group(1))) if match else set()


def resolves(dotted: str) -> bool:
    """True when ``dotted`` imports as a module, or its longest
    importable prefix reaches the rest by ``getattr``."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for attr in parts[i:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def dead_module_paths(root: Path = REPO) -> list[str]:
    """One line per checked ``repro.…`` path under ``root`` that no
    longer resolves in the importable ``repro`` package."""
    found: list[tuple[str, str]] = []
    for pattern in PATH_DOCS:
        for path in sorted(root.glob(pattern)):
            for dotted in sorted(set(DOTTED_RE.findall(path.read_text()))):
                found.append((str(path.relative_to(root)), dotted))
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for dotted in sorted(set(ROLE_RE.findall(path.read_text()))):
            found.append((str(path.relative_to(root)), dotted))
    return [f"{rel}: names {dotted}, which no longer resolves"
            for rel, dotted in found if not resolves(dotted)]


def repro_stdout(*args: str) -> str:
    """What ``python -m repro ARGS`` prints, run against ``src/``."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO, check=True,
    ).stdout


@functools.cache
def live_flags(command: str) -> frozenset[str]:
    """The ``--long`` options argparse advertises for a subcommand."""
    return frozenset(FLAG_RE.findall(repro_stdout(command, "--help")))


def flags_for(commands) -> set[str]:
    """The union of the live flags of ``commands``."""
    return set().union(*(live_flags(cmd) for cmd in commands))


def live_grids() -> set[str]:
    """The grid names ``repro sweep --list-grids`` prints, one
    ``NAME: N cells`` line each."""
    return set(re.findall(r"^(\S+): \d+ cells$",
                          repro_stdout("sweep", "--list-grids"),
                          re.MULTILINE))


def live_commands() -> set[str]:
    """The subcommand names ``repro --help`` lists as ``{a,b,…}``."""
    match = re.search(r"\{([a-z,-]+)\}", repro_stdout("--help"))
    return set(match.group(1).split(",")) if match else set()


def doc_flags(path: Path) -> set[str]:
    return set(FLAG_RE.findall(path.read_text()))


def code_flags(code: str, commands: set[str]) -> set[tuple[str, str | None]]:
    """``(flag, subcommand)`` for each flag of a piece of code: the
    subcommand named before it in the same shell command, or ``None``."""
    pairs: set[tuple[str, str | None]] = set()
    for part in SEPARATOR_RE.split(code):
        cmd = None
        pos = 0
        for match in COMMAND_RE.finditer(part):
            pairs |= {(f, cmd) for f in FLAG_RE.findall(part, pos, match.start())}
            cmd = match.group(1) if match.group(1) in commands else None
            pos = match.end()
        pairs |= {(f, cmd) for f in FLAG_RE.findall(part, pos)}
    return pairs


def flag_contexts(text: str, commands: set[str]) -> set[tuple[str, str | None]]:
    """``(flag, subcommand)`` for every flag a doc quotes; the
    subcommand is ``None`` in prose and in code that names none."""
    pairs: set[tuple[str, str | None]] = set()
    for block in FENCE_RE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            pairs |= code_flags(line, commands)
    prose = FENCE_RE.sub("", text)
    for span in SPAN_RE.findall(prose):
        pairs |= code_flags(span, commands)
    pairs |= {(f, None) for f in FLAG_RE.findall(SPAN_RE.sub("", prose))}
    return pairs


def phantom_flags(rel: str, text: str, commands, subcommands: set[str]
                  ) -> list[str]:
    """Direction 1 for one doc: a flag quoted after a named subcommand
    must be live on it; any other flag on one of ``commands``."""
    problems = []
    contexts = flag_contexts(text, subcommands)
    for flag, cmd in sorted(contexts, key=lambda p: (p[0], p[1] or "")):
        if flag in ALLOWED_EXTERNAL:
            continue
        if cmd is not None and flag not in live_flags(cmd):
            problems.append(
                f"{rel}: quotes `repro {cmd} {flag}`, which "
                f"`repro {cmd} --help` does not advertise"
            )
        elif cmd is None and flag not in flags_for(commands):
            problems.append(
                f"{rel}: documents {flag}, which no mapped command "
                f"({', '.join(commands)}) advertises in --help"
            )
    return problems


def main() -> int:
    problems: list[str] = []
    # Direction 1: no phantom flags in the docs.
    subcommands = live_commands()
    for rel, commands in DOC_COMMANDS.items():
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: checked doc is missing")
            continue
        problems.extend(phantom_flags(rel, path.read_text(), commands,
                                      subcommands))

    # Direction 2: each manual covers its commands' full flag sets.
    for manual_rel, manual_commands in MANUALS.items():
        manual = REPO / manual_rel
        if not manual.exists():
            continue  # direction 1 already reported the missing doc
        documented = doc_flags(manual)
        for cmd in manual_commands:
            for flag in sorted(flags_for((cmd,)) - documented):
                if flag in ALLOWED_EXTERNAL:
                    continue
                problems.append(
                    f"{manual_rel}: `{cmd}` flag {flag} is live in "
                    f"--help but undocumented"
                )

    # Required flags: certain flags must stay live on their commands.
    for flag, commands in REQUIRED_FLAGS.items():
        for cmd in commands:
            if flag not in flags_for((cmd,)):
                problems.append(
                    f"required flag {flag} is missing from "
                    f"`repro {cmd} --help`"
                )

    # Directions 3 and 4: REPRO_* env flags, both ways.
    implemented = implemented_env_flags()
    documented_env: set[str] = set()
    for rel in DOC_COMMANDS:
        path = REPO / rel
        if not path.exists():
            continue
        found = set(ENV_RE.findall(path.read_text()))
        if rel in ENV_DOCS:
            documented_env |= found
        for flag in sorted(found - implemented):
            problems.append(
                f"{rel}: documents {flag}, which nothing under "
                f"{'/'.join(ENV_SOURCE_DIRS)} reads"
            )
    for flag in sorted(implemented - documented_env):
        problems.append(
            f"env flag {flag} is read by the code but described in "
            f"neither of {', '.join(ENV_DOCS)}"
        )

    # Directions 5 and 6: make targets, both ways.
    targets = makefile_targets()
    documented_targets: set[str] = set()
    for rel in DOC_COMMANDS:
        path = REPO / rel
        if not path.exists():
            continue
        found = set(MAKE_RE.findall(path.read_text()))
        if rel in ENV_DOCS:
            documented_targets |= found
        for target in sorted(found - targets):
            problems.append(
                f"{rel}: quotes `make {target}`, which the Makefile "
                f"does not define"
            )
    for target in REQUIRED_TARGETS:
        if target not in targets:
            problems.append(
                f"required make target `{target}` is missing from the "
                f"Makefile"
            )
        elif target not in documented_targets:
            problems.append(
                f"make target `{target}` is live but described in "
                f"neither of {', '.join(ENV_DOCS)}"
            )

    # Direction 7: invariant codes, both ways.
    codes = invariant_codes((REPO / INVARIANTS_SOURCE).read_text())
    listed = documented_invariant_codes((REPO / INVARIANTS_DOC).read_text())
    if not codes:
        problems.append(f"{INVARIANTS_SOURCE}: no CODES tuple found")
    for code in sorted(codes - listed):
        problems.append(
            f"{INVARIANTS_DOC}: invariant code `{code}` is missing from "
            f"the ## Invariants list"
        )
    for code in sorted(listed - codes):
        problems.append(
            f"{INVARIANTS_DOC}: lists invariant code `{code}`, which "
            f"{INVARIANTS_SOURCE} does not declare"
        )

    # Direction 8: quoted grid names are live grids.
    grids = live_grids()
    for rel in DOC_COMMANDS:
        path = REPO / rel
        if not path.exists():
            continue
        for grid in sorted(set(GRID_RE.findall(path.read_text())) - grids):
            problems.append(
                f"{rel}: quotes `--grid {grid}`, which `repro sweep "
                f"--list-grids` does not list"
            )

    # Direction 9: named module paths still resolve.
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    problems.extend(dead_module_paths())

    for line in problems:
        print(f"docs-check: {line}")
    if problems:
        print(f"docs-check: {len(problems)} stale reference(s)")
        return 1
    checked = ", ".join(sorted(DOC_COMMANDS))
    print(f"docs-check: ok ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
