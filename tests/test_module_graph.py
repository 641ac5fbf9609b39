"""Every ``repro.*`` module is reached by the system, not only by its tests.

A static scan, nothing is imported.  A module is *reached* when its
dotted path, or one of the names in its ``__all__``, appears in a
``.py`` file under ``src/``, ``benchmarks/`` or ``examples/`` other
than the module's own file and its own package's ``__init__.py``.  A
module that only its own test file reads is scaffolding: delete it
with its test rather than carry it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

ALLOWED = {
    # A reference implementation: the exact Viterbi oracle of
    # tests/test_viterbi_unit.py.
    "repro.decoder.viterbi",
}


def _exported_names(path: Path) -> list[str]:
    names: list[str] = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def unreached_modules(root: Path, allowed=frozenset(ALLOWED)) -> list[str]:
    """The ``repro.*`` modules under ``root/src``, outside ``allowed``,
    that nothing reaches."""
    package_root = root / "src"
    sources = {
        path: path.read_text()
        for tree in SCANNED
        for path in sorted((root / tree).rglob("*.py"))
    }
    unreached = []
    for path in sorted((package_root / "repro").rglob("*.py")):
        parts = path.relative_to(package_root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        if name == "repro" or name in allowed:
            continue
        own_init = path.parent / "__init__.py"
        patterns = [re.escape(name)] + [
            re.escape(export) for export in _exported_names(path)
        ]
        pattern = re.compile(r"\b(?:" + "|".join(patterns) + r")\b")
        if not any(
            pattern.search(text)
            for other, text in sources.items()
            if other not in (path, own_init)
        ):
            unreached.append(name)
    return unreached


def test_every_module_is_reached():
    unreached = unreached_modules(ROOT)
    assert not unreached, (
        "reached by nothing in src/, benchmarks/ or examples/ but their own "
        "package (delete them with their tests): " + ", ".join(unreached)
    )


def test_allow_list_is_not_stale():
    """Each allowed module exists and is still unreached: one that
    something now reaches, or that is gone, leaves the list."""
    assert unreached_modules(ROOT, allowed=frozenset()) == sorted(ALLOWED)


def _write(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


@pytest.fixture
def tree(tmp_path):
    """A package whose ``orphan`` module only its own ``__init__`` and a
    test file read, beside a ``used`` module a benchmark imports."""
    return _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.orphan import Thing\n"
                "from repro.pkg.used import helper\n"
                '__all__ = ["Thing", "helper"]\n'
            ),
            "src/repro/pkg/orphan.py": '__all__ = ["Thing"]\n\nclass Thing: ...\n',
            "src/repro/pkg/used.py": '__all__ = ["helper"]\n\ndef helper(): ...\n',
            "benchmarks/run.py": "from repro.pkg import helper\n",
            "tests/test_orphan.py": "from repro.pkg.orphan import Thing\n",
        },
    )


def test_own_package_and_tests_do_not_reach(tree):
    assert unreached_modules(tree, allowed=frozenset()) == ["repro.pkg.orphan"]


def test_an_exported_name_reaches(tree):
    _write(tree, {"examples/demo.py": "print(Thing)\n"})
    assert unreached_modules(tree, allowed=frozenset()) == []


def test_match_is_word_bounded(tree):
    _write(tree, {"examples/demo.py": "ThingHolder = repro.pkg.orphan_extra\n"})
    assert unreached_modules(tree, allowed=frozenset()) == ["repro.pkg.orphan"]


def test_allowed_module_is_skipped(tree):
    assert unreached_modules(tree, allowed=frozenset({"repro.pkg.orphan"})) == []
