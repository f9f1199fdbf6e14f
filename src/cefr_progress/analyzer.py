"""Syntactic construct counting for Python source text.

Walks the parse tree of one source file once, with an explicit stack, and
emits a (kind, line) occurrence for every construct in the analyzer
vocabulary, then folds the cataloged occurrences into a six-level count
vector.  Classification is purely syntactic: no imports are resolved and no
types are inferred.  Kinds that one node type always emits come from a
type -> kind table; the conditional kinds are branches on the node type.

Counting rules worth knowing (each occurrence is one syntax-tree match):

* Nested constructs all count: an ``if`` inside a ``for`` emits both.
* One node can match several kinds: ``async def`` emits both
  ``function_definition`` and ``async_function``; a ``getattr(...)`` call
  emits both ``function_call`` and ``dynamic_attribute``.
* ``elif`` arms emit ``elif_clause`` instead of ``if_statement``; an
  ``else:`` block that merely contains an ``if`` still counts as
  ``else_clause`` plus ``if_statement``.
* List/tuple displays count only in load context; store-context targets
  count as ``tuple_unpacking`` instead.
* ``generator_function`` follows the compiler: a def is a generator when a
  ``yield`` runs in its frame.  A yield in a nested def's decorator,
  default or annotation runs in the enclosing def, so it marks that one.
* ``closure`` uses the compiler's own scoping rules (symtable): an inner
  def/lambda counts when it has at least one free variable.  The symbol
  table is built only when the walk found a def or lambda.
* Class-protocol kinds (``context_manager_definition``,
  ``descriptor_definition``, ``dunder_new_override``, ``metaclass``)
  anchor at the class statement's line.

Source that does not compile under the running Python 3 grammar yields
``parse_ok=False`` and an all-zero vector; the pipeline never aborts on it.
Nesting too deep for the parser or the symbol table (RecursionError,
MemoryError) is treated the same way.
"""

from __future__ import annotations

import ast
import logging
import symtable
from dataclasses import dataclass

from .catalog import Catalog, Level

log = logging.getLogger(__name__)

Occurrence = tuple[str, int]

#: Every construct kind count_constructs can emit.
KIND_VOCABULARY = frozenset({
    "simple_assignment", "if_statement", "for_statement", "while_statement",
    "function_definition", "function_call", "import_statement", "return_statement",
    "arithmetic_expression", "comparison_expression", "list_literal",
    "nested_list", "dict_literal", "set_literal", "tuple_literal",
    "elif_clause", "else_clause", "string_formatting", "default_parameter",
    "tuple_unpacking", "slice_expression", "augmented_assignment",
    "break_statement", "continue_statement", "try_except", "with_statement",
    "lambda_expression", "class_definition", "star_args_parameter",
    "kw_args_parameter", "raise_statement", "global_declaration", "nonlocal_declaration",
    "list_comprehension", "dict_comprehension", "set_comprehension",
    "generator_expression", "decorator_application", "class_inheritance",
    "conditional_expression", "assert_statement",
    "generator_function", "yield_from", "closure", "property_definition",
    "context_manager_definition", "multiple_inheritance",
    "metaclass", "descriptor_definition", "async_function", "await_expression",
    "dynamic_attribute", "dunder_new_override",
})


class ParseError(Exception):
    """Source text does not compile under the running Python grammar."""


@dataclass(frozen=True)
class LevelVector:
    """Six non-negative construct counts indexed by Level (A1..C2)."""

    counts: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.counts) != 6:
            raise ValueError("LevelVector needs exactly six counts")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")

    @classmethod
    def zero(cls) -> "LevelVector":
        return cls()

    def __add__(self, other: "LevelVector") -> "LevelVector":
        a, b = self.counts, other.counts
        return LevelVector(tuple(a[i] + b[i] for i in range(6)))

    def __getitem__(self, level: Level) -> int:
        return self.counts[level]

    def total(self) -> int:
        return sum(self.counts)

    def c1_plus_c2(self) -> int:
        return self.counts[Level.C1] + self.counts[Level.C2]

    def as_list(self) -> list[int]:
        return list(self.counts)


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of analyzing one source text against a catalog."""

    vector: LevelVector
    occurrences: tuple[Occurrence, ...]
    unclassified_count: int
    parse_ok: bool


_ARITHMETIC_OPS = frozenset({
    ast.Add, ast.Sub, ast.Mult, ast.MatMult, ast.Div, ast.Mod, ast.Pow, ast.FloorDiv,
})
_CM_PAIRS = (("__enter__", "__exit__"), ("__aenter__", "__aexit__"))
_DESCRIPTOR_DUNDERS = {"__get__", "__set__", "__delete__"}
_PROPERTY_ATTRS = {"setter", "getter", "deleter"}
_UNPACKING_TARGETS = (ast.Tuple, ast.List)
_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_CALLABLES = frozenset({ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda})
_TRY_STAR = getattr(ast, "TryStar", ast.Try)  # except* groups, when the grammar has them
_ELSE_BLOCKS = frozenset({ast.For, ast.AsyncFor, ast.While, ast.Try, _TRY_STAR})

#: Kinds that every node of one type emits, anchored at that node's line.
_NODE_KINDS: dict[type, str] = {
    ast.Assign: "simple_assignment",
    ast.AugAssign: "augmented_assignment",
    ast.For: "for_statement",
    ast.AsyncFor: "for_statement",
    ast.While: "while_statement",
    ast.FunctionDef: "function_definition",
    ast.AsyncFunctionDef: "function_definition",
    ast.Lambda: "lambda_expression",
    ast.ClassDef: "class_definition",
    ast.Import: "import_statement",
    ast.ImportFrom: "import_statement",
    ast.Return: "return_statement",
    ast.Break: "break_statement",
    ast.Continue: "continue_statement",
    ast.Try: "try_except",
    _TRY_STAR: "try_except",
    ast.With: "with_statement",
    ast.AsyncWith: "with_statement",
    ast.Raise: "raise_statement",
    ast.Global: "global_declaration",
    ast.Nonlocal: "nonlocal_declaration",
    ast.Assert: "assert_statement",
    ast.Call: "function_call",
    ast.JoinedStr: "string_formatting",
    ast.Compare: "comparison_expression",
    ast.Dict: "dict_literal",
    ast.Set: "set_literal",
    ast.ListComp: "list_comprehension",
    ast.DictComp: "dict_comprehension",
    ast.SetComp: "set_comprehension",
    ast.GeneratorExp: "generator_expression",
    ast.IfExp: "conditional_expression",
    ast.YieldFrom: "yield_from",
    ast.Await: "await_expression",
}


def _walk(tree: ast.Module) -> tuple[list[Occurrence], set[tuple[str, int]]]:
    """Every occurrence but ``closure``, plus the (name, line) of each def and lambda.

    One pass with an explicit stack.  Each entry carries the innermost def
    or lambda whose body holds the node, so a yield marks that def as a
    generator without walking its body again.
    """
    found: list[Occurrence] = []
    defs: set[tuple[str, int]] = set()
    generators: set[ast.AST] = set()
    elifs: set[ast.AST] = set()
    stack: list[tuple[ast.AST, ast.AST | None]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        t = type(node)
        kind = _NODE_KINDS.get(t)
        if kind is not None:
            found.append((kind, node.lineno))
        targets = ()
        if t is ast.If:
            found.append(("elif_clause" if node in elifs else "if_statement", node.lineno))
            if node.orelse:
                first = node.orelse[0]
                # an elif is the sole If in orelse sharing the parent's column
                if (len(node.orelse) == 1 and type(first) is ast.If
                        and first.col_offset == node.col_offset):
                    elifs.add(first)
                else:
                    found.append(("else_clause", first.lineno))
        elif t in _ELSE_BLOCKS:
            if node.orelse:
                found.append(("else_clause", node.orelse[0].lineno))
            if t is ast.For or t is ast.AsyncFor:
                targets = (node.target,)
        elif t is ast.Assign:
            targets = node.targets
        elif t is ast.With or t is ast.AsyncWith:
            targets = [item.optional_vars for item in node.items]
        elif t is ast.comprehension:
            targets = (node.target,)
        elif t is ast.AnnAssign:
            # bare annotations (x: int) declare without assigning
            if node.value is not None:
                found.append(("simple_assignment", node.lineno))
        elif t in _CALLABLES:
            args = node.args
            for default in args.defaults + args.kw_defaults:
                if default is not None:
                    found.append(("default_parameter", default.lineno))
            if args.vararg is not None:
                found.append(("star_args_parameter", node.lineno))
            if args.kwarg is not None:
                found.append(("kw_args_parameter", node.lineno))
            if t is ast.Lambda:
                defs.add(("lambda", node.lineno))
            else:
                defs.add((node.name, node.lineno))
                if t is ast.AsyncFunctionDef:
                    found.append(("async_function", node.lineno))
                for dec in node.decorator_list:
                    found.append(("decorator_application", dec.lineno))
                    if ((type(dec) is ast.Name and dec.id == "property")
                            or (type(dec) is ast.Attribute and dec.attr in _PROPERTY_ATTRS)):
                        found.append(("property_definition", node.lineno))
        elif t is ast.ClassDef:
            line = node.lineno
            for dec in node.decorator_list:
                found.append(("decorator_application", dec.lineno))
            if node.bases:
                found.append(("class_inheritance", line))
            if len(node.bases) >= 2:
                found.append(("multiple_inheritance", line))
            if (any(kw.arg == "metaclass" for kw in node.keywords)
                    or any(type(b) is ast.Name and b.id == "type" for b in node.bases)):
                found.append(("metaclass", line))
            methods = {stmt.name for stmt in node.body if type(stmt) in _FUNCTION_DEFS}
            if any(enter in methods and exit_ in methods for enter, exit_ in _CM_PAIRS):
                found.append(("context_manager_definition", line))
            if methods & _DESCRIPTOR_DUNDERS:
                found.append(("descriptor_definition", line))
            if "__new__" in methods:
                found.append(("dunder_new_override", line))
        elif t is ast.Call:
            func = node.func
            if type(func) is ast.Name and func.id in ("getattr", "setattr"):
                found.append(("dynamic_attribute", node.lineno))
            elif type(func) is ast.Attribute and func.attr == "format":
                found.append(("string_formatting", node.lineno))
        elif t is ast.BinOp:
            if type(node.op) in _ARITHMETIC_OPS:
                found.append(("arithmetic_expression", node.lineno))
        elif t is ast.List:
            if type(node.ctx) is ast.Load:
                found.append(("list_literal", node.lineno))
                if any(type(e) is ast.List for e in node.elts):
                    found.append(("nested_list", node.lineno))
        elif t is ast.Tuple:
            if type(node.ctx) is ast.Load:
                found.append(("tuple_literal", node.lineno))
        elif t is ast.Subscript:
            sl = node.slice
            if type(sl) is ast.Slice or (
                    type(sl) is ast.Tuple and any(type(e) is ast.Slice for e in sl.elts)):
                found.append(("slice_expression", node.lineno))
        elif t is ast.Yield or t is ast.YieldFrom:
            if owner is not None:
                generators.add(owner)
        for target in targets:
            if type(target) in _UNPACKING_TARGETS:
                found.append(("tuple_unpacking", target.lineno))

        # decorators, defaults and annotations run in the enclosing scope;
        # only the body belongs to the def or lambda itself
        body_owner = node if t in _CALLABLES else owner
        for field in node._fields:
            child = getattr(node, field, None)
            child_owner = body_owner if field == "body" else owner
            if type(child) is list:
                for item in child:
                    if isinstance(item, ast.AST):
                        stack.append((item, child_owner))
            elif isinstance(child, ast.AST):
                stack.append((child, child_owner))

    found.extend(("generator_function", d.lineno) for d in generators if type(d) is not ast.Lambda)
    return found, defs


def _closure_occurrences(table: symtable.SymbolTable, defs: set[tuple[str, int]]) -> list[Occurrence]:
    """Defs/lambdas with free variables, located via the compiler's symbol tables.

    Matching symtable blocks back to def/lambda nodes by (name, line) keeps
    comprehension scopes (which also appear as function blocks) out of the
    count.
    """
    found: list[Occurrence] = []
    stack = [table]
    while stack:
        block = stack.pop()
        stack.extend(block.get_children())
        if (isinstance(block, symtable.Function)
                and (block.get_name(), block.get_lineno()) in defs):
            # __class__ is the implicit cell behind zero-argument super(),
            # not a user capture
            frees = set(block.get_frees()) - {"__class__"}
            if frees:
                found.append(("closure", block.get_lineno()))
    return found


def count_constructs(source: str) -> list[Occurrence]:
    """All vocabulary construct occurrences in the source, sorted by (line, kind).

    Raises ParseError when the text does not compile.
    """
    try:
        tree = ast.parse(source)
        found, defs = _walk(tree)
        if defs:
            found += _closure_occurrences(symtable.symtable(source, "<analysis>", "exec"), defs)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # symtable rejects a little more than ast.parse (e.g. unbound
        # nonlocal), and deep nesting exhausts the parser's stack or memory;
        # either way the compiler refuses this source
        raise ParseError(f"{type(exc).__name__}: {exc}") from exc
    return sorted(found, key=lambda occ: (occ[1], occ[0]))


def analyze_source(source: str, catalog: Catalog) -> AnalysisResult:
    """Classify one source text; parse failures yield a zero result, never an error."""
    try:
        occurrences = count_constructs(source)
    except ParseError as exc:
        log.debug("parse failure: %s", exc)
        return AnalysisResult(LevelVector.zero(), (), 0, parse_ok=False)

    counts = [0] * 6
    unclassified = 0
    for kind, _line in occurrences:
        level = catalog.classify(kind)
        if level is None:
            unclassified += 1
        else:
            counts[level] += 1
    return AnalysisResult(LevelVector(tuple(counts)), tuple(occurrences), unclassified, parse_ok=True)
