"""Every ``repro.*`` module, and every public name in one, is reached by
the system, not only by its tests.

A static scan, nothing is imported.  A module is *reached* when its
dotted path, or one of the names in its ``__all__``, appears in a
``.py`` file under ``src/``, ``benchmarks/`` or ``examples/`` other
than the module's own file and its own package's ``__init__.py``.  A
public top-level function or class is reached when code refers to it
(a ``Name``, an ``Attribute`` or an import alias; a docstring or an
``__all__`` entry is a string, not a reference) in such a file, or in
its own module outside its own definition.  A module or name that only
its own tests read is scaffolding: delete it with its tests rather
than carry it.  A module only ``benchmarks/`` reaches is experiment
machinery: it is listed in ``BENCH_ONLY`` with a reason, or it moves
beside its bench.
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

#: Public names nothing in the system reads, kept on purpose.
ALLOWED_NAMES = {
    "repro.core.logadd.logadd_exact": "the double-precision oracle of the logadd SRAM tests",
    "repro.decoder.beam.apply_beam": "the one-row oracle the batched beam tests compare with",
    "repro.decoder.viterbi.viterbi_score": "the exact best-path score the property tests read",
    "repro.runtime.scoring.BatchScoringBackend": "a Protocol: scorers satisfy it, none names it",
}

#: Public names only tests read, staged for deletion with their tests.
STAGED_NAMES: dict[str, str] = {}

#: Modules only ``benchmarks/`` reaches: experiment machinery the
#: system does not run, kept in ``src/`` with a reason.  A new one is
#: refused, so the next experiment lives beside its bench.
BENCH_ONLY = {
    "repro.quant.fixed_point": "the fixed-point datapath bench_fixed_point.py "
    "measures; no mode of the engine runs it",
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


def unreached_modules(
    root: Path, allowed=frozenset(ALLOWED), scanned=SCANNED
) -> list[str]:
    """The ``repro.*`` modules under ``root/src``, outside ``allowed``,
    that nothing under the ``scanned`` trees reaches."""
    package_root = root / "src"
    sources = {
        path: path.read_text()
        for tree in scanned
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


def bench_only_modules(root: Path) -> list[str]:
    """The ``repro.*`` modules ``benchmarks/`` reaches and neither
    ``src/`` nor ``examples/`` does."""
    outside = unreached_modules(root, frozenset(), scanned=("src", "examples"))
    return sorted(set(outside) - set(unreached_modules(root, frozenset())))


def _references(nodes) -> set[str]:
    """The names code in ``nodes`` refers to: ``Name`` ids,
    ``Attribute`` attributes and import aliases (their last dotted
    part).  Strings are not references."""
    found: set[str] = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def unreached_names(
    root: Path, allowed=frozenset(ALLOWED_NAMES) | set(STAGED_NAMES)
) -> list[str]:
    """The public top-level functions and classes of the ``repro.*``
    modules under ``root/src``, as ``module.name``, outside ``allowed``,
    that nothing reaches."""
    package_root = root / "src"
    trees = {
        path: ast.parse(path.read_text())
        for tree in SCANNED
        for path in sorted((root / tree).rglob("*.py"))
    }
    readers: dict[str, set[Path]] = {}  # name -> the files referring to it
    for path, tree in trees.items():
        for name in _references([tree]):
            readers.setdefault(name, set()).add(path)
    unreached = []
    for path in sorted((package_root / "repro").rglob("*.py")):
        parts = path.relative_to(package_root).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        own_files = {path, path.parent / "__init__.py"}
        body = trees[path].body
        own = [_references([top]) for top in body]
        for i, node in enumerate(body):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            name = f"{module}.{node.name}"
            if name in allowed or readers.get(node.name, own_files) - own_files:
                continue
            # Its own module's code reaches it, but not its own definition.
            if not any(node.name in found for j, found in enumerate(own) if j != i):
                unreached.append(name)
    return sorted(unreached)


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


def test_every_bench_only_module_is_listed():
    unlisted = set(bench_only_modules(ROOT)) - set(BENCH_ONLY)
    assert not unlisted, (
        "reached from benchmarks/ alone (keep an experiment's machinery "
        "beside its bench, or list it in BENCH_ONLY with a reason): "
        + ", ".join(sorted(unlisted))
    )


def test_bench_only_list_is_not_stale():
    """Each listed module exists and is still reached from benchmarks/
    alone: one the system now runs, or that is gone, leaves the list."""
    assert bench_only_modules(ROOT) == sorted(BENCH_ONLY)


def test_every_public_name_is_reached():
    unreached = unreached_names(ROOT)
    assert not unreached, (
        "public names only tests read (delete them with their tests, or "
        "allow one with a reason): " + ", ".join(unreached)
    )


def test_name_allow_lists_are_not_stale():
    """Each allowed or staged name exists and is still unreached."""
    assert not set(ALLOWED_NAMES) & set(STAGED_NAMES)
    assert unreached_names(ROOT, allowed=frozenset()) == sorted(
        set(ALLOWED_NAMES) | set(STAGED_NAMES)
    )


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


def test_a_module_only_a_benchmark_reaches_is_bench_only(tree):
    assert bench_only_modules(tree) == ["repro.pkg.used"]


@pytest.mark.parametrize("reader", ["src/repro/app.py", "examples/demo.py"])
def test_a_reach_from_src_or_examples_is_not_bench_only(tree, reader):
    _write(tree, {reader: "from repro.pkg.used import helper\n"})
    assert bench_only_modules(tree) == []


@pytest.fixture
def names(tmp_path):
    """A module whose ``helper`` a benchmark calls and whose ``Thing``
    and ``spare`` only its own package's ``__init__``, its ``__all__``
    and a test name."""
    return _write(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.mod import Thing, helper, spare\n"
            ),
            "src/repro/pkg/mod.py": (
                '__all__ = ["Thing", "helper", "spare"]\n\n'
                "class Thing: ...\n\n"
                "def helper(): ...\n\n"
                "def spare():\n    return spare\n\n"
                "def _private(): ...\n"
            ),
            "benchmarks/run.py": "from repro.pkg import mod\nmod.helper()\n",
            "tests/test_mod.py": "from repro.pkg.mod import Thing, spare\n",
        },
    )


def test_own_init_all_tests_and_self_reference_do_not_reach(names):
    assert unreached_names(names, allowed=frozenset()) == [
        "repro.pkg.mod.Thing",
        "repro.pkg.mod.spare",
    ]


def test_a_docstring_mention_does_not_reach(names):
    _write(names, {"examples/demo.py": '"""Uses Thing and spare."""\n'})
    assert unreached_names(names, allowed=frozenset()) == [
        "repro.pkg.mod.Thing",
        "repro.pkg.mod.spare",
    ]


def test_own_module_code_reaches(names):
    path = names / "src/repro/pkg/mod.py"
    path.write_text(path.read_text() + "\nDEFAULT = Thing()\n")
    assert unreached_names(names, allowed=frozenset()) == ["repro.pkg.mod.spare"]


@pytest.mark.parametrize(
    "code",
    ["from repro.pkg.mod import spare as s\n", "import repro\nrepro.pkg.mod.spare\n"],
    ids=["import-alias", "attribute"],
)
def test_an_import_alias_or_attribute_reaches(names, code):
    _write(names, {"examples/demo.py": code})
    assert unreached_names(names, allowed=frozenset()) == ["repro.pkg.mod.Thing"]


def test_allowed_name_is_skipped(names):
    allowed = frozenset({"repro.pkg.mod.Thing", "repro.pkg.mod.spare"})
    assert unreached_names(names, allowed=allowed) == []
