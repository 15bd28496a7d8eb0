"""Tier-1 enforcement of docs staleness (see tools/check_docs.py).

A renamed/removed CLI flag that the docs still describe — or a new
sweep/fuzz flag the operator's manual never learned about — fails the
suite, not just ``make docs-check``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402


def test_docs_match_live_cli_help(capsys):
    rc = check_docs.main()
    out = capsys.readouterr().out
    assert rc == 0, f"stale documentation:\n{out}"


def test_env_flag_inventory_is_checked_both_ways():
    """The checker sees the live REPRO_* flag set (so a new escape
    hatch shipping undocumented, or a doc describing a removed one,
    fails tier-1) and the app-compiler hatch is in it."""
    implemented = check_docs.implemented_env_flags()
    assert "REPRO_APP_INTERP" in implemented
    assert "REPRO_INTERP" in implemented
    assert "REPRO_DENSE_STEP" in implemented
    documented = set()
    for rel in check_docs.ENV_DOCS:
        documented |= set(
            check_docs.ENV_RE.findall((check_docs.REPO / rel).read_text()))
    assert implemented <= documented, (
        f"undocumented env flags: {sorted(implemented - documented)}")


def test_env_flags_count_only_string_literals_the_code_reads():
    """A flag named only in a comment or docstring is not implemented
    (so a doc still describing it fails the check); one read through
    ``os.environ.get`` or a named constant is."""
    source = (
        '"""Module doc: REPRO_IN_DOCSTRING=1 would do something."""\n'
        "import os\n"
        "# REPRO_IN_COMMENT=1 used to select the old path.\n"
        'ON = os.environ.get("REPRO_READ_DIRECTLY", "") == "1"\n'
        'ENV = "REPRO_READ_VIA_CONSTANT"\n'
        "VIA = os.environ.get(ENV)\n"
        'MSG = f"set REPRO_IN_FSTRING=1 to {ENV}"\n'
    )
    assert check_docs.env_flags_read(source) == {
        "REPRO_READ_DIRECTLY", "REPRO_READ_VIA_CONSTANT"}


def test_invariant_codes_are_listed_both_ways():
    """docs/analyze.md's ## Invariants list names exactly the codes
    repro.protocol.invariants declares; the parsers see a dropped or a
    phantom code."""
    from repro.protocol import invariants

    source = (check_docs.REPO / check_docs.INVARIANTS_SOURCE).read_text()
    doc = (check_docs.REPO / check_docs.INVARIANTS_DOC).read_text()
    assert check_docs.invariant_codes(source) == set(invariants.CODES)
    assert check_docs.documented_invariant_codes(doc) == set(invariants.CODES)

    fake_source = 'X = 1\nCODES = ("swmr", "data-value")\n'
    assert check_docs.invariant_codes(fake_source) == {"swmr", "data-value"}
    fake_doc = (
        "# Manual\n\n- `not-a-code` — outside the section.\n\n"
        "## Invariants\n\nProse naming `stuck` is not an item.\n\n"
        "- `swmr` — two writers.\n- `phantom` — gone.\n\n"
        "## Next\n\n- `trap` — another section.\n"
    )
    assert check_docs.documented_invariant_codes(fake_doc) == {
        "swmr", "phantom"}


def test_quoted_grid_names_are_checked_against_the_live_list():
    """Every `--grid NAME` a checked doc quotes must be a grid `repro
    sweep --list-grids` prints; the parser sees real names (either
    spelling) and skips uppercase placeholders."""
    grids = check_docs.live_grids()
    assert {"smoke", "smtp16", "fig2", "fig8", "table8", "ablations"} <= grids
    doc = ("Run `sweep --grid fig2`, or --grid=smtp16. `--grid NAME` is "
           "a placeholder; `--grid fig12` is stale.")
    quoted = set(check_docs.GRID_RE.findall(doc))
    assert quoted == {"fig2", "smtp16", "fig12"}
    assert quoted - grids == {"fig12"}


def test_dead_module_paths_are_flagged(tmp_path):
    """A `repro.…` path in a path doc, or in a Sphinx role in the
    package sources, fails the check once it stops resolving; live
    modules, classes and methods pass, and prose outside a role in a
    source file is not read."""
    assert check_docs.resolves("repro.sim.sweep")
    assert check_docs.resolves("repro.sim.sweep.ResultLedger.put")
    assert not check_docs.resolves("repro.sim.no_such_module")
    assert not check_docs.resolves("repro.sim.sweep.NoSuchClass")
    assert not check_docs.resolves("repro.core.machine.Machine.no_such_method")

    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Use `repro.sim.sweep.ResultCache`, not repro.sim.no_such_module.\n")
    (tmp_path / "docs" / "guide.md").write_text(
        "See repro.core.machine.Machine.no_such_method.\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        '"""Built on :mod:`repro.sim.no_such_module` and\n'
        ':class:`~repro.sim.sweep.ResultLedger`; plain repro.sim.gone\n'
        'prose is not a role."""\n')
    assert check_docs.dead_module_paths(tmp_path) == [
        "README.md: names repro.sim.no_such_module, which no longer resolves",
        "docs/guide.md: names repro.core.machine.Machine.no_such_method, "
        "which no longer resolves",
        "src/repro/mod.py: names repro.sim.no_such_module, which no longer "
        "resolves",
    ]


def test_flag_after_a_named_subcommand_is_checked_against_it_alone():
    """In code, `repro CMD --flag` must be live on CMD itself: the doc's
    union of mapped commands no longer covers it.  A flag with no named
    subcommand is still checked against that union."""
    subcommands = check_docs.live_commands()
    mapped = ("sweep", "fuzz")

    def problems(text):
        return check_docs.phantom_flags("doc.md", text, mapped, subcommands)

    assert problems("Resume with `repro sweep --ledger DIR`.") == [
        "doc.md: quotes `repro sweep --ledger`, which "
        "`repro sweep --help` does not advertise"]
    assert problems("Resume with `repro fuzz --ledger DIR`.") == []
    assert problems("```sh\npython -m repro fuzz --seeds 4 \\\n"
                    "    --ledger DIR\n```\n") == []
    assert problems("The --ledger flag, or `--ledger DIR`.") == []
    assert problems("`repro fuzz --seeds 2 && repro sweep --ledger x`") != []
