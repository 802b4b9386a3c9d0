"""Guard: only the mapping table flips a cache entry's ``dirty`` flag.

``MappingTable.dirty_bytes`` is a running counter kept by ``insert``,
``remove`` and ``mark_clean``.  A module that assigned ``entry.dirty``
directly would leave that counter stale (the auditor would catch it,
but only in audited runs), so every dirty-to-clean transition must go
through ``MappingTable.mark_clean``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
OWNER = SRC / "core" / "mapping.py"


def _dirty_assignments(tree):
    """Line numbers of ``<expr>.dirty = ...`` (and augmented) targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr == "dirty":
                    yield sub.lineno


def test_only_the_mapping_table_assigns_dirty():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{path.relative_to(SRC)}:{line}"
                      for line in _dirty_assignments(tree)]
    assert offenders == [], (
        "assign CacheEntry.dirty only via MappingTable.mark_clean: "
        + ", ".join(offenders))


def test_the_guard_sees_an_assignment():
    tree = ast.parse("entry.dirty = False\na.b.dirty, c = True, 1\n")
    assert list(_dirty_assignments(tree)) == [1, 2]
