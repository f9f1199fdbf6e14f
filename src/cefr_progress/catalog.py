"""Proficiency levels and the construct-kind catalog.

The six CEFR bands (A1 easiest .. C2 hardest) are fixed; which Python
construct lands in which band is data: a table from kind to level.  The
default table below is also the analyzer's kind list (`KINDS` is its
kinds, sorted), which `level_counter` folds into six level counts, A1
first; a catalog file may override any of the table's levels.

Catalog file grammar (line oriented, UTF-8, a leading BOM allowed, see docs/catalog-format.md):

    # comment lines and blank lines are ignored
    !version my-rules-3
    if_statement A1 branching on a condition
    list_comprehension B2

One entry per line: the construct kind token, the level label, then
optional free text, which is ignored.  File entries override default
entries with the same kind token.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple


class Level(enum.IntEnum):
    """The six proficiency bands, ordered easiest to hardest."""

    A1 = 0
    A2 = 1
    B1 = 2
    B2 = 3
    C1 = 4
    C2 = 5


LEVEL_LABELS = tuple(level.name for level in Level)


class CatalogError(Exception):
    """Raised for unusable catalog files.

    `kind` is one of "parse", "duplicate", "io".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class Catalog(NamedTuple):
    """A construct kind -> level table, named by its version.

    `levels` is a plain dict, so that the catalog pickles for worker
    processes; treat it as read-only, and the catalog is safe to share.
    """

    version: str
    levels: dict[str, Level]


# Default construct -> level table.  The A1/A2/B1/B2/C1/C2 anchors for
# if statements, nested lists, break, list comprehensions, generator
# functions and metaclasses are fixed; everything else fills the bands by
# conceptual difficulty and can be overridden from a catalog file.
DEFAULT_CATALOG_VERSION = "default-1"

_DEFAULT_LEVELS: dict[str, Level] = {
    # A1: first-week constructs
    "simple_assignment": Level.A1,  # binding a name with = (plain or annotated)
    "if_statement": Level.A1,
    "for_statement": Level.A1,
    "while_statement": Level.A1,
    "function_definition": Level.A1,  # def statement, async and generator defs included
    "function_call": Level.A1,
    "import_statement": Level.A1,  # import or from-import
    "return_statement": Level.A1,
    "arithmetic_expression": Level.A1,  # binary + - * / // % ** @
    "comparison_expression": Level.A1,  # comparison chain (== < in is ...)
    "list_literal": Level.A1,  # list display in load context
    # A2: everyday data plumbing
    "nested_list": Level.A2,  # list literal directly containing another list literal
    "dict_literal": Level.A2,
    "set_literal": Level.A2,
    "tuple_literal": Level.A2,  # tuple display in load context
    "elif_clause": Level.A2,
    "else_clause": Level.A2,  # else arm of an if/for/while/try statement
    "string_formatting": Level.A2,  # f-string or .format() call
    "default_parameter": Level.A2,
    "tuple_unpacking": Level.A2,  # tuple/list target in assignment, loop or comprehension
    "slice_expression": Level.A2,
    "augmented_assignment": Level.A2,  # compound assignment such as +=
    # B1: control-flow and structuring tools
    "break_statement": Level.B1,
    "continue_statement": Level.B1,
    "try_except": Level.B1,
    "with_statement": Level.B1,
    "lambda_expression": Level.B1,
    "class_definition": Level.B1,
    "star_args_parameter": Level.B1,  # *args
    "kw_args_parameter": Level.B1,  # **kwargs
    "raise_statement": Level.B1,
    "global_declaration": Level.B1,
    "nonlocal_declaration": Level.B1,
    # B2: expression-level abstraction
    "list_comprehension": Level.B2,
    "dict_comprehension": Level.B2,
    "set_comprehension": Level.B2,
    "generator_expression": Level.B2,
    "decorator_application": Level.B2,  # @decorator applied to a def or class
    "class_inheritance": Level.B2,  # class with at least one base
    "conditional_expression": Level.B2,  # x if cond else y
    "assert_statement": Level.B2,
    # C1: protocol-aware constructs
    "generator_function": Level.C1,  # def whose own body yields
    "yield_from": Level.C1,
    "closure": Level.C1,  # inner function capturing an enclosing function's name
    "property_definition": Level.C1,  # @property (or .setter/.getter/.deleter) method
    "context_manager_definition": Level.C1,  # class defining __enter__/__exit__ (or the async pair)
    "multiple_inheritance": Level.C1,  # class with two or more bases
    # C2: metaprogramming and async machinery
    "metaclass": Level.C2,  # metaclass= keyword or class deriving from type
    "descriptor_definition": Level.C2,  # class defining __get__/__set__/__delete__
    "async_function": Level.C2,
    "await_expression": Level.C2,
    "dynamic_attribute": Level.C2,  # getattr()/setattr() call form
    "dunder_new_override": Level.C2,  # class overriding __new__
}


#: Every kind the analyzer's walk emits, in a fixed order: the kinds of the
#: default table, sorted.  A kind the walk emits must have a row there.
KINDS = tuple(sorted(_DEFAULT_LEVELS))


def default_catalog() -> Catalog:
    """The built-in catalog; classifies every analyzer-emitted kind."""
    return Catalog(DEFAULT_CATALOG_VERSION, dict(_DEFAULT_LEVELS))


def parse_catalog_text(text: str, *, version: str = "custom") -> Catalog:
    """Parse catalog file text into a Catalog, without merging defaults.

    Raises CatalogError("parse") for malformed lines and
    CatalogError("duplicate") when a kind token appears more than once.
    """
    levels: dict[str, Level] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):  # only a newline ends a line
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            directive = line.split(None, 1)  # split as an entry is
            if directive[0] != "!version" or len(directive) < 2:
                raise CatalogError("parse", f"line {lineno}: unknown directive {line!r}")
            version = directive[1]
            continue
        parts = line.split(None, 2)  # the kind, the level and free text, which is ignored
        if len(parts) < 2:
            raise CatalogError("parse", f"line {lineno}: expected 'kind LEVEL [description]', got {raw!r}")
        kind, label = parts[0], parts[1]
        if label not in LEVEL_LABELS:
            raise CatalogError("parse", f"line {lineno}: unknown level label: {label!r}")
        if kind in levels:
            raise CatalogError("duplicate", f"line {lineno}: kind appears twice: {kind!r}")
        levels[kind] = Level[label]
    return Catalog(version, levels)


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load the default catalog, optionally overlaid with entries from a file:
    a kind in the file replaces the default, and a new kind is added."""
    base = default_catalog()
    if path is None:
        return base
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is no part of the first line
    except OSError as exc:
        raise CatalogError("io", f"cannot read catalog file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError("parse", f"catalog file {path} is not UTF-8: {exc}") from exc
    override = parse_catalog_text(text, version=f"{base.version}+custom")
    return Catalog(override.version, {**base.levels, **override.levels})


def level_counter(catalog: Catalog) -> Callable[[Iterable[int]], list[int]]:
    """The function that sums per-kind counts, given in KINDS order, into
    seven: one per level, A1 first, then one for the kinds `catalog` lacks,
    which are tallied apart rather than put at some level."""
    slots = [len(Level) if (level := catalog.levels.get(kind)) is None else level for kind in KINDS]

    def count(counts: Iterable[int]) -> list[int]:
        totals = [0] * (len(Level) + 1)
        for slot, n in zip(slots, counts):
            totals[slot] += n
        return totals

    return count
