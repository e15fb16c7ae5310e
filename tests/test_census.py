"""Reference census: everything ``src/`` defines or stores is read outside ``tests/``.

Every ``def`` and ``class`` under ``src/repro/`` (methods and nested
functions included, dunders excluded) must be referenced by name from
the code that runs: a ``src/`` module, or any file under
``benchmarks/`` or ``examples/``.  A reference is a ``Name``, an
attribute load, an import alias or an identifier-shaped string constant
equal to the definition's name.  A package ``__init__``'s imports,
``__all__`` entries and lazy-name maps only re-export a name, so they do
not count, and nothing under ``tests/`` counts.

Every attribute a ``src/repro/`` class assigns on ``self`` (plain,
augmented or annotated assignment) must be read the same way: a store,
augmented ones included, is not a read, so a counter that is only ever
incremented is flagged.  A read by ``attrgetter``, ``getattr`` or
``__slots__`` is an identifier string, which counts.

A definition or attribute that only tests reach is either deleted or
listed in ``ALLOWLIST`` with the reason it stays.

The check is name-based and stdlib ``ast`` only, so it under-reports: a
method or attribute that shares its name with a referenced one escapes
it (the old ``DimmStatusRegister.poll`` and ``EngineProfiler.record``
hid behind other ``poll`` and ``record`` calls, ``Engine.pending`` behind
``CampaignStore.pending`` and ``DramCache.write_backs`` behind the tier's
``write_backs``, and were found by reading the code).
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "benchmarks", ROOT / "examples")

#: Definitions and attributes no run, benchmark or example reads, kept
#: on purpose.  Keyed ``module:qualname`` (``module:Class.attr`` for an
#: attribute); the value is the one-line reason.
ALLOWLIST: Dict[str, str] = {
    "repro.cache.cacheline:CacheLine.touch":
        "mutator of the reference cache (tests/cache/reference.py) that "
        "the array cache is checked against",
    "repro.cache.cacheline:CacheLine.write_word":
        "mutator of the reference cache (tests/cache/reference.py) that "
        "the array cache is checked against",
    "repro.cache.set_assoc:ArraySetCache.line_state":
        "snapshot hook: tests compare resident lines with the reference cache",
    "repro.cache.set_assoc:ArraySetCache.resident_lines":
        "inspection hook the reference-equivalence tests compare",
    "repro.cache.set_assoc:ArraySetCache.invalidate":
        "operation the reference-equivalence streams drive through the "
        "slab compaction",
    "repro.faults.storage:FaultInjectingStorage.corrupt_codeword":
        "injects ledger-tracked codeword flips so tests drive the real "
        "SECDED scrub and oracle",
    "repro.trace.trace_io:iter_trace":
        "reader of the file format `repro gen-trace` writes; the round-trip "
        "tests hold the format to it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def definitions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, str]]:
    """Yield ``(name, qualname)`` for every non-dunder definition."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}{child.name}"
            if not _is_dunder(child.name):
                yield child.name, qualname
            yield from definitions(child, f"{qualname}.")
        else:
            yield from definitions(child, prefix)


def _self_stores(node: ast.AST) -> Iterator[str]:
    """Names of the ``self.name`` targets one statement assigns."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    for target in targets:
        for part in ast.walk(target):  # tuple unpacking included
            if (
                isinstance(part, ast.Attribute)
                and isinstance(part.value, ast.Name)
                and part.value.id == "self"
            ):
                yield part.attr


def attributes(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, str]]:
    """Yield ``(name, Class.name)`` for every attribute a class's own
    methods assign on ``self`` (a nested class reports its own)."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.ClassDef):
            qualname = f"{prefix}{child.name}"
            pending: List[ast.AST] = list(child.body)
            while pending:
                node = pending.pop()
                if isinstance(node, ast.ClassDef):
                    continue
                for name in _self_stores(node):
                    yield name, f"{qualname}.{name}"
                pending.extend(ast.iter_child_nodes(node))
            yield from attributes(child, f"{qualname}.")
        else:
            yield from attributes(child, prefix)


def references(tree: ast.Module, is_package_init: bool) -> Set[str]:
    """Every name the module refers to, under the rule in the docstring.

    A package ``__init__`` keeps the names it only re-exports in its
    imports, ``__all__`` and lazy-name maps, so there neither imports nor
    string constants count.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        elif is_package_init:
            continue
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
    return names


@lru_cache(maxsize=None)
def census() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``module:qualname`` of every definition, and ``module:Class.attr``
    of every ``self`` attribute, that nothing outside tests reads."""
    defined: List[Tuple[str, str]] = []
    stored: Dict[str, str] = {}
    referenced: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module_name(path)
        defined += [
            (name, f"{module}:{qualname}") for name, qualname in definitions(tree)
        ]
        for name, qualname in attributes(tree):
            stored[f"{module}:{qualname}"] = name
        referenced |= references(tree, path.name == "__init__.py")
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            referenced |= references(ast.parse(path.read_text()), False)
    return (
        tuple(key for name, key in defined if name not in referenced),
        tuple(key for key, name in stored.items() if name not in referenced),
    )


def _missing(unread: Tuple[str, ...]) -> str:
    return ", ".join(key for key in unread if key not in ALLOWLIST)


def test_every_src_definition_has_a_caller_outside_tests():
    missing = _missing(census()[0])
    assert not missing, (
        "referenced only from tests (delete, or allowlist with a reason): "
        + missing
    )


def test_every_src_self_attribute_is_read_outside_tests():
    missing = _missing(census()[1])
    assert not missing, (
        "stored but read only from tests, or never (delete, or allowlist "
        "with a reason): " + missing
    )


def test_allowlist_is_not_stale():
    definitions_, attributes_ = census()
    stale = sorted(set(ALLOWLIST) - set(definitions_) - set(attributes_))
    assert not stale, (
        "allowlisted but gone or referenced now (drop the entry): "
        + ", ".join(stale)
    )


def test_allowlist_entries_give_a_reason():
    for key, reason in ALLOWLIST.items():
        assert reason.strip() and "\n" not in reason, key
