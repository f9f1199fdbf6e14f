"""Proficiency levels and the construct-kind catalog.

The six CEFR bands (A1 easiest .. C2 hardest) are fixed; which Python
construct lands in which band is data.  The default catalog below covers
every construct kind the analyzer can emit and may be partially or fully
overridden from a catalog file.

Catalog file grammar (line oriented, UTF-8, see docs/catalog-format.md):

    # comment lines and blank lines are ignored
    !version my-rules-3
    if_statement A1 branching on a condition
    list_comprehension B2

One rule per line: the construct kind token, the level label, then an
optional free-text description.  File entries override default entries
with the same kind token.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path


class Level(enum.IntEnum):
    """The six proficiency bands, ordered easiest to hardest."""

    A1 = 0
    A2 = 1
    B1 = 2
    B2 = 3
    C1 = 4
    C2 = 5

    @classmethod
    def from_label(cls, label: str) -> "Level":
        try:
            return cls[label]
        except KeyError:
            raise ValueError(f"unknown level label: {label!r}") from None


LEVEL_LABELS = tuple(level.name for level in Level)


class CatalogError(Exception):
    """Raised for unusable catalog files.

    `kind` is one of "parse", "duplicate", "io".
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class ConstructRule:
    """Maps one construct kind token to a level."""

    kind: str
    level: Level
    description: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("construct kind must be non-empty")


@dataclass(frozen=True)
class Catalog:
    """An immutable set of classification rules; safe to share across threads."""

    version: str
    rules: tuple[ConstructRule, ...] = field(default=())

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rule in self.rules:
            if rule.kind in seen:
                raise CatalogError("duplicate", f"kind appears twice: {rule.kind!r}")
            seen.add(rule.kind)

    @cached_property
    def _by_kind(self) -> dict[str, ConstructRule]:
        return {rule.kind: rule for rule in self.rules}

    def classify(self, kind: str) -> Level | None:
        """Level for a construct kind, or None when the kind is not cataloged."""
        rule = self._by_kind.get(kind)
        return rule.level if rule is not None else None


# Default construct -> level table.  The A1/A2/B1/B2/C1/C2 anchors for
# if statements, nested lists, break, list comprehensions, generator
# functions and metaclasses are fixed; everything else fills the bands by
# conceptual difficulty and can be overridden from a catalog file.
DEFAULT_CATALOG_VERSION = "default-1"

_DEFAULT_RULES: tuple[tuple[str, Level, str], ...] = (
    # A1: first-week constructs
    ("simple_assignment", Level.A1, "binding a name with = (plain or annotated)"),
    ("if_statement", Level.A1, "branching on a condition"),
    ("for_statement", Level.A1, "iteration over a sequence"),
    ("while_statement", Level.A1, "condition-controlled loop"),
    ("function_definition", Level.A1, "def statement (includes async and generator defs)"),
    ("function_call", Level.A1, "any call expression"),
    ("import_statement", Level.A1, "import or from-import statement"),
    ("return_statement", Level.A1, "returning from a function"),
    ("arithmetic_expression", Level.A1, "binary arithmetic operator (+ - * / // % ** @)"),
    ("comparison_expression", Level.A1, "comparison chain (== < in is ...)"),
    ("list_literal", Level.A1, "list display in load context"),
    # A2: everyday data plumbing
    ("nested_list", Level.A2, "list literal directly containing another list literal"),
    ("dict_literal", Level.A2, "dict display"),
    ("set_literal", Level.A2, "set display"),
    ("tuple_literal", Level.A2, "tuple display in load context"),
    ("elif_clause", Level.A2, "elif arm of an if statement"),
    ("else_clause", Level.A2, "else arm of an if/for/while/try statement"),
    ("string_formatting", Level.A2, "f-string or .format() call"),
    ("default_parameter", Level.A2, "parameter with a default value"),
    ("tuple_unpacking", Level.A2, "tuple/list target in assignment, loop or comprehension"),
    ("slice_expression", Level.A2, "subscript using slice notation"),
    ("augmented_assignment", Level.A2, "compound assignment such as +="),
    # B1: control-flow and structuring tools
    ("break_statement", Level.B1, "break out of a loop"),
    ("continue_statement", Level.B1, "skip to next loop iteration"),
    ("try_except", Level.B1, "try statement"),
    ("with_statement", Level.B1, "context-managed block"),
    ("lambda_expression", Level.B1, "anonymous function"),
    ("class_definition", Level.B1, "class statement"),
    ("star_args_parameter", Level.B1, "*args parameter"),
    ("kw_args_parameter", Level.B1, "**kwargs parameter"),
    ("raise_statement", Level.B1, "raising an exception"),
    ("global_declaration", Level.B1, "global statement"),
    ("nonlocal_declaration", Level.B1, "nonlocal statement"),
    # B2: expression-level abstraction
    ("list_comprehension", Level.B2, "list comprehension"),
    ("dict_comprehension", Level.B2, "dict comprehension"),
    ("set_comprehension", Level.B2, "set comprehension"),
    ("generator_expression", Level.B2, "generator expression"),
    ("decorator_application", Level.B2, "@decorator applied to a def or class"),
    ("class_inheritance", Level.B2, "class with at least one base"),
    ("conditional_expression", Level.B2, "x if cond else y"),
    ("assert_statement", Level.B2, "assert statement"),
    # C1: protocol-aware constructs
    ("generator_function", Level.C1, "def whose own body yields"),
    ("yield_from", Level.C1, "yield from delegation"),
    ("closure", Level.C1, "inner function capturing an enclosing function's name"),
    ("property_definition", Level.C1, "@property (or .setter/.getter/.deleter) method"),
    ("context_manager_definition", Level.C1, "class defining __enter__/__exit__ (or async pair)"),
    ("multiple_inheritance", Level.C1, "class with two or more bases"),
    # C2: metaprogramming and async machinery
    ("metaclass", Level.C2, "metaclass= keyword or class deriving from type"),
    ("descriptor_definition", Level.C2, "class defining __get__/__set__/__delete__"),
    ("async_function", Level.C2, "async def"),
    ("await_expression", Level.C2, "await expression"),
    ("dynamic_attribute", Level.C2, "getattr()/setattr() call form"),
    ("dunder_new_override", Level.C2, "class overriding __new__"),
)


def default_catalog() -> Catalog:
    """The built-in catalog; classifies every analyzer-emitted kind."""
    rules = tuple(ConstructRule(kind, level, desc) for kind, level, desc in _DEFAULT_RULES)
    return Catalog(version=DEFAULT_CATALOG_VERSION, rules=rules)


def parse_catalog_text(text: str, *, version: str = "custom") -> Catalog:
    """Parse catalog file text into a Catalog, without merging defaults.

    Raises CatalogError("parse") for malformed lines and
    CatalogError("duplicate") when a kind token appears more than once.
    """
    rules: list[ConstructRule] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            directive, _, value = line[1:].partition(" ")
            if directive != "version" or not value.strip():
                raise CatalogError("parse", f"line {lineno}: unknown directive {line!r}")
            version = value.strip()
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise CatalogError("parse", f"line {lineno}: expected 'kind LEVEL [description]', got {raw!r}")
        kind, label = parts[0], parts[1]
        description = parts[2] if len(parts) == 3 else ""
        try:
            level = Level.from_label(label)
        except ValueError as exc:
            raise CatalogError("parse", f"line {lineno}: {exc}") from None
        if kind in seen:
            raise CatalogError("duplicate", f"line {lineno}: kind appears twice: {kind!r}")
        seen.add(kind)
        rules.append(ConstructRule(kind, level, description))
    return Catalog(version=version, rules=tuple(rules))


def merge_catalogs(base: Catalog, override: Catalog) -> Catalog:
    """Overlay `override` onto `base`: same-kind rules replaced in place, new kinds appended."""
    overridden = {rule.kind: rule for rule in override.rules}
    merged = [overridden.pop(rule.kind, rule) for rule in base.rules]
    merged.extend(rule for rule in override.rules if rule.kind in overridden)
    return Catalog(version=override.version, rules=tuple(merged))


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load the default catalog, optionally overlaid with rules from a file."""
    base = default_catalog()
    if path is None:
        return base
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError("io", f"cannot read catalog file {path}: {exc}") from exc
    override = parse_catalog_text(text, version=f"{base.version}+custom")
    return merge_catalogs(base, override)
