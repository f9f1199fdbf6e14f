"""Syntactic construct counting for Python source text.

Walks the parse tree of one source file once, with an explicit stack, and
emits a (kind, line) occurrence for every construct in the analyzer
vocabulary, then folds the cataloged occurrences into six level counts, a
plain tuple with A1 first; the kind list and the fold live in `catalog`,
and the package imports this module only where a blob is to be analyzed.
`blob_analysis` makes a blob's stored form, which the analysis store keeps,
so this file's source alone names the store file (`store.CODE`).
Classification is purely syntactic: no imports are resolved and no types
are inferred.  Kinds that one node type always emits come from a type ->
kind table; the conditional kinds are branches on the node type.  The same
walk records, per scope, the names the code binds, reads and declares,
which is all ``generator_function`` and ``closure`` need.

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
* ``closure`` follows the scopes of the Language Reference, the same on
  every interpreter: a def or lambda inside a def, lambda or comprehension
  counts when it has a free variable, a name it reads or declares
  ``nonlocal`` that an enclosing def, lambda or comprehension binds.  A def
  in none of them never counts.
  - Every comprehension is a scope of its own ("Displays for lists, sets
    and dictionaries"); Python 3.12's inlining of list, set and dict
    comprehensions (PEP 709) is an optimisation, which this rule ignores.
  - Decorators, defaults, class bases and a comprehension's first iterable
    run in the enclosing scope; under ``from __future__ import annotations``
    (read from the file's leading block, as the compiler does) annotations
    run nowhere, so their names capture nothing.
  - A generic def's, class's or ``type`` alias's type parameters (PEP 695)
    bind in a scope of their own around it, where the def's annotations,
    the class's bases and the alias's value run, and where the names of a
    class body that holds it are globals.  A generic class's name mangles its
    type parameters in its statement, and no other name there.
  - Class bodies are invisible to the other scopes nested in them, and
    private names are mangled by the innermost class.
  - A free name passes through every def between its use and its binding,
    and each of them counts.
  - The implicit ``__class__`` cell behind zero-argument ``super()`` is no
    capture.
* Class-protocol kinds (``context_manager_definition``,
  ``descriptor_definition``, ``dunder_new_override``, ``metaclass``)
  anchor at the class statement's line.

``parse_ok`` holds when ``compile()`` accepts the source.  The walk counts
on the tree ``ast.parse`` returns, and only compiles that tree (never the
text again) when the file holds a construct the compiler can reject after
the parser accepted it: ``global``, ``nonlocal``, a walrus, a ``from
__future__`` import, a star import outside module scope, a repeated
parameter or keyword name, ``return``, ``yield`` or ``await`` in the module
or a class body or a comprehension, ``await``, ``async for`` or ``async
with`` outside an async def, an asynchronous comprehension, an async
generator, a starred assignment target, ``match``, ``except*``, a bare
``except:`` before another handler, PEP 695 type parameters or a ``type``
alias, the name ``__debug__`` anywhere in the text, or a ``break`` or
``continue`` outside a loop, or blocks that may nest more than 20 deep in
one module or def body (``_MAX_BLOCKS`` says how deep each block counts).
In a loop means in the body of a ``for``, ``async for`` or ``while``, or in
a block of an ``if``, ``with``, ``try`` (``finally`` included) or ``match``
statement there, with no def or class between, and not in the loop's
``else`` block.  ``compile()`` accepts any other source the parser does.
On Python 3.12, whose compiler crashes (SIGSEGV) on some deep nests, a
tree whose blocks and comprehensions may nest past 20 is compiled first in
a child interpreter, and refused if a signal kills it.  A refused source
yields ``parse_ok=False`` and an all-zero vector; the pipeline never aborts
on it.  Nesting too deep for the parser or the compiler, or a child that
cannot run, is a parse failure too (RecursionError, MemoryError).  Warnings
play no part: neither the parser's nor the compiler's reach the caller.
"""

from __future__ import annotations

import ast
import importlib.util
import logging
import signal
import subprocess
import sys
import warnings
from array import array
from collections import Counter
from operator import itemgetter
from typing import NamedTuple

from .catalog import KINDS, Catalog, level_counter
from .scoring import NO_TEXT, Stored

log = logging.getLogger(__name__)

Occurrence = tuple[str, int]


def blob_text(data: bytes | None) -> str | None:
    """The source text of a file's raw bytes, or None when they hold none: no
    bytes, or binary ones (with a NUL byte).

    Text is decoded the way Python decodes source: UTF-8 by default,
    honouring a PEP 263 encoding cookie and a UTF-8 BOM, with universal
    newlines.  Bytes that Python cannot decode fall back to UTF-8 with
    replacement characters, so a stray byte in a comment or string does not
    make the file unparseable.
    """
    if data is None or b"\0" in data:
        return None
    try:
        return importlib.util.decode_source(data)
    except (SyntaxError, LookupError, UnicodeDecodeError):
        return data.decode("utf-8", errors="replace")


class ParseError(Exception):
    """Source text does not compile under the running Python grammar."""


class AnalysisResult(NamedTuple):
    """Outcome of analyzing one source text against a catalog."""

    vector: tuple[int, ...]  # six level counts, A1 first
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
_COMPREHENSIONS = frozenset({ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp})
_TRY_STAR = getattr(ast, "TryStar", ast.Try)  # except* groups, when the grammar has them
_ELSE_BLOCKS = frozenset({ast.For, ast.AsyncFor, ast.While, ast.Try, _TRY_STAR})
#: PEP 695 nodes (Python 3.12+): a ``type`` alias and the type parameters
_TYPE_ALIAS = getattr(ast, "TypeAlias", None)
_TYPE_PARAMS = frozenset(
    getattr(ast, name) for name in ("TypeAlias", "TypeVar", "ParamSpec", "TypeVarTuple") if hasattr(ast, name))

#: The most statically nested blocks the compiler takes in one module or def
#: body on Python 3.10-3.12 (3.13 takes one more).  A loop body is one block
#: deep, each ``with`` item one, a ``try`` body one, an except handler two, and
#: a ``finally`` adds one to every other part of its ``try``.
_MAX_BLOCKS = 20
#: Where a statement stands when no block holds it: no block deep, in no loop.
_OUTSIDE = (0, False)

#: Python 3.12's compiler crashes on some deep nests, so a child compiles each
#: source it may crash on: the text this process decoded, sent as UTF-8.
_CRASHING_COMPILER = sys.version_info[:2] == (3, 12)
_CHILD_COMPILE = [sys.executable, "-I", "-c", "import sys; compile(sys.stdin.buffer.read().decode(), "
                  f"'<analysis>', 'exec', dont_inherit=True, optimize={sys.flags.optimize})"]

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

#: Nodes that bind the name they carry: an except clause's name, a capture
#: pattern, and a mapping pattern's ``**rest``.
_CAPTURES = frozenset({ast.ExceptHandler, ast.MatchAs, ast.MatchStar, ast.MatchMapping})

#: Node types with a branch in _walk; every other type only looks up _NODE_KINDS.
_CONDITIONAL = frozenset({
    ast.If, ast.Assign, ast.AnnAssign, ast.With, ast.AsyncWith, ast.comprehension,
    ast.ClassDef, ast.Call, ast.BinOp, ast.List, ast.Tuple, ast.Subscript,
    ast.Return, ast.Yield, ast.YieldFrom, ast.Await, ast.Import, ast.ImportFrom,
    ast.NamedExpr, ast.Global, ast.Nonlocal, ast.Break, ast.Continue, ast.Match, ast.Starred,
}) | _ELSE_BLOCKS | _CALLABLES | _COMPREHENSIONS | _CAPTURES | _TYPE_PARAMS

#: Fields that hold no node the walk needs: identifiers, numbers, strings and
#: the expression-context and operator singletons.
_LEAF_FIELDS = frozenset({
    "ctx", "op", "ops", "id", "attr", "arg", "asname", "module", "level", "simple",
    "is_async", "conversion", "kind", "type_comment", "tag", "rest", "kwd_attrs",
})

#: The fields the walk descends into, per node type it pushes.  Name and
#: Constant are absent: they emit no kind and hold no node, so they are never
#: pushed; a name goes to the list of its scope.  The branches for defs,
#: lambdas, classes, comprehensions, walrus targets and annotated assignments
#: push their nodes' children themselves.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f for f in cls._fields if f not in _LEAF_FIELDS)
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.AST) and cls not in (ast.Name, ast.Constant)
}

#: Scope kinds.  A class scope's names are hidden from the scopes nested in
#: it, and so are the module's; a comprehension's walrus targets bind outside it.
_FUNCTION, _COMPREHENSION, _CLASS = range(3)

_NO_NAMES: frozenset[str] = frozenset()


class _Scope:
    """One scope: the names it binds, reads and declares, and what the code that
    runs in it needs to know of the scopes around it."""

    __slots__ = ("parent", "kind", "node", "frame", "inside", "private", "mangled",
                 "names", "binds", "uses", "globals", "nonlocals", "local", "visible", "free")

    def __init__(self, parent: "_Scope | None", kind: int, node: ast.AST | None = None):
        # `node` is the def or lambda whose own scope this is; the module, a
        # class, a comprehension and a type-parameter scope have none
        self.parent, self.kind, self.node = parent, kind, node
        # the names read, stored or deleted here, sorted into `uses` and
        # `binds` only if names are resolved
        self.names: list[ast.Name] = []
        self.binds: set[str] = set()
        self.uses: set[str] = set()
        self.globals = self.nonlocals = _NO_NAMES
        if parent is None:
            self.frame = self.private = self.mangled = None
            self.inside = False
        else:
            # the def or lambda whose frame runs the code here
            self.frame = node if node is not None else parent.frame
            # whether a def, lambda or comprehension holds the code here
            self.inside = node is not None or kind is _COMPREHENSION or parent.inside
            # the class name that mangles private names here, leading underscores stripped
            self.private = parent.private
            # in a generic class's statement, the only private names: its type parameters
            self.mangled = None if kind is _CLASS else parent.mangled

    def mangle(self, name: str) -> str:
        """`name` as the compiler records it here: ``__x`` in class ``C`` is ``_C__x``."""
        if (self.private is None or name[:2] != "__" or name[-2:] == "__"
                or (self.mangled is not None and name not in self.mangled)):
            return name
        return f"_{self.private}{name}"


def _future_annotations(tree: ast.Module) -> bool:
    """Whether the leading block of ``__future__`` imports, after the docstring
    if any, imports ``annotations``: the compiler honours no other."""
    start = 1 if ast.get_docstring(tree, clean=False) is not None else 0
    for stmt in tree.body[start:]:
        if type(stmt) is not ast.ImportFrom or stmt.module != "__future__":
            return False
        if any(alias.name == "annotations" for alias in stmt.names):
            return True
    return False


def _repeats(keywords: list[ast.keyword]) -> bool:
    """Whether a keyword name repeats in a call or a class statement."""
    names = [kw.arg for kw in keywords if kw.arg is not None]
    return len(set(names)) < len(names)


def _walk(tree: ast.Module, source: str) -> tuple[list[Occurrence], bool]:
    """Every occurrence in the tree of `source`, and whether it needs ``compile()``.

    One pass with an explicit stack.  Each entry carries the scope its node
    runs in.  Every scope records the names it binds, reads and declares as
    the walk counts, and tells a yield which def it makes a generator.  Names
    are resolved once, after the walk, and only when some def or lambda lies
    in a def, lambda or comprehension, the only place a closure can occur.
    Until then a plain name is only appended to its scope's list.
    """
    found: list[Occurrence] = []
    generators: set[ast.AST] = set()
    elifs: set[ast.AST] = set()
    # each statement inside compiler blocks: how many blocks deep it stands in
    # its module or def body, and whether it is in a loop, where a break or
    # continue may stand.  A def or class body starts again at _OUTSIDE.
    placed: dict[ast.AST, tuple[int, bool]] = {}
    module = _Scope(None, _CLASS)
    scopes = [module]  # every scope, each after the one around it
    # under `from __future__ import annotations` no annotation is evaluated:
    # they run in a scope of their own, whose names resolve to nothing
    detached = None
    if _future_annotations(tree):
        detached = _Scope(None, _CLASS)
        scopes.append(detached)
    unsure = False  # the parser's verdict may not be compile()'s
    nested: set[ast.AST] = set()  # each def and lambda inside a def, lambda or comprehension
    stack: list[tuple[ast.AST, _Scope]] = [(tree, module)]
    push = stack.append
    child_fields = _CHILD_FIELDS
    Name = ast.Name

    def visit(nodes, scope: _Scope) -> None:
        for item in nodes:
            if type(item) in child_fields:
                push((item, scope))
            elif type(item) is Name:
                scope.names.append(item)

    def blocks(depth: int, loop: bool, *bodies: list[ast.stmt]) -> None:
        if depth:  # a loop's statements stand at least one block deep
            for body in bodies:
                for stmt in body:
                    placed[stmt] = depth, loop

    def enter(parent: _Scope, kind: int, node: ast.AST | None = None) -> _Scope:
        scope = _Scope(parent, kind, node)
        scopes.append(scope)
        return scope

    def type_params(scope: _Scope, node: ast.AST) -> _Scope:
        # PEP 695 (Python 3.12+): a generic def's, class's or alias's type
        # parameters bind in a scope of their own around it, where their bounds run
        scope = enter(scope, _FUNCTION)
        if type(node) is ast.ClassDef:  # a generic class's name mangles its type parameters
            scope.private = node.name.lstrip("_") or None
            scope.mangled = {param.name for param in node.type_params}
        scope.binds.update(scope.mangle(param.name) for param in node.type_params)
        visit(node.type_params, scope)
        return scope

    while stack:
        node, scope = stack.pop()
        t = type(node)
        kind = _NODE_KINDS.get(t)
        if kind is not None:
            found.append((kind, node.lineno))
        if t in _CONDITIONAL:
            targets = ()
            if t is ast.Call:
                if len(node.keywords) > 1 and _repeats(node.keywords):
                    unsure = True
                func = node.func
                if type(func) is ast.Name and func.id in ("getattr", "setattr"):
                    found.append(("dynamic_attribute", node.lineno))
                elif type(func) is ast.Attribute and func.attr == "format":
                    found.append(("string_formatting", node.lineno))
            elif t is ast.Assign:
                targets = node.targets
            elif t is ast.BinOp:
                if type(node.op) in _ARITHMETIC_OPS:
                    found.append(("arithmetic_expression", node.lineno))
            elif t is ast.Tuple:
                if type(node.ctx) is ast.Load:
                    found.append(("tuple_literal", node.lineno))
            elif t is ast.Subscript:
                sl = node.slice
                if type(sl) is ast.Slice or (
                        type(sl) is ast.Tuple and any(type(e) is ast.Slice for e in sl.elts)):
                    found.append(("slice_expression", node.lineno))
            elif t is ast.List:
                if type(node.ctx) is ast.Load:
                    found.append(("list_literal", node.lineno))
                    if any(type(e) is ast.List for e in node.elts):
                        found.append(("nested_list", node.lineno))
            elif t is ast.If:
                found.append(("elif_clause" if node in elifs else "if_statement", node.lineno))
                blocks(*placed.get(node, _OUTSIDE), node.body, node.orelse)
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
                depth, loop = placed.get(node, _OUTSIDE)
                if t is ast.Try or t is _TRY_STAR:
                    # t is ast.Try on Python 3.10, which has no except*
                    if t is not ast.Try or any(handler.type is None for handler in node.handlers[:-1]):
                        unsure = True
                    if node.finalbody:
                        depth += 1
                    blocks(depth, loop, node.orelse, node.finalbody)
                    blocks(depth + 1 if node.handlers else depth, loop, node.body)
                    blocks(depth + 2, loop, *(handler.body for handler in node.handlers))
                else:  # a loop, whose else block is in a loop only if the loop is
                    blocks(depth + 1, True, node.body)
                    blocks(depth, loop, node.orelse)
                if t is ast.For or t is ast.AsyncFor:
                    targets = (node.target,)
                    if t is ast.AsyncFor and type(scope.node) is not ast.AsyncFunctionDef:
                        unsure = True
            elif t in _CALLABLES:
                args = node.args
                defaults = args.defaults + args.kw_defaults
                for default in defaults:
                    if default is not None:
                        found.append(("default_parameter", default.lineno))
                if args.vararg is not None:
                    found.append(("star_args_parameter", node.lineno))
                if args.kwarg is not None:
                    found.append(("kw_args_parameter", node.lineno))
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if scope.inside:
                    nested.add(node)
                # defaults and decorators run in the enclosing scope, annotations
                # in the type-parameter scope around the def, the body in its own
                visit(defaults, scope)
                outside = type_params(scope, node) if getattr(node, "type_params", None) else scope
                inner = enter(outside, _FUNCTION, node)
                inner.binds.update(inner.mangle(a.arg) for a in params)
                if len(inner.binds) < len(params):  # a parameter name repeats
                    unsure = True
                if t is ast.Lambda:
                    visit((node.body,), inner)
                    continue
                scope.binds.add(scope.mangle(node.name))
                if t is ast.AsyncFunctionDef:
                    found.append(("async_function", node.lineno))
                for dec in node.decorator_list:
                    found.append(("decorator_application", dec.lineno))
                    if ((type(dec) is ast.Name and dec.id == "property")
                            or (type(dec) is ast.Attribute and dec.attr in _PROPERTY_ATTRS)):
                        found.append(("property_definition", node.lineno))
                visit(node.decorator_list, scope)
                visit([a.annotation for a in params] + [node.returns],
                      outside if detached is None else detached)
                visit(node.body, inner)
                continue
            elif t in _COMPREHENSIONS:
                # the first iterable runs in the enclosing scope; the first
                # generator is not pushed, so its target is counted here
                first, *rest = node.generators
                visit((first.iter,), scope)
                if type(first.target) in _UNPACKING_TARGETS:
                    found.append(("tuple_unpacking", first.target.lineno))
                elements = (node.key, node.value) if t is ast.DictComp else (node.elt,)
                if any(generator.is_async for generator in node.generators):
                    unsure = True
                inner = enter(scope, _COMPREHENSION)
                visit((first.target, *first.ifs, *rest, *elements), inner)
                continue
            elif t is ast.comprehension:
                targets = (node.target,)
            elif t is ast.With or t is ast.AsyncWith:
                targets = [item.optional_vars for item in node.items]
                depth, loop = placed.get(node, _OUTSIDE)
                blocks(depth + len(node.items), loop, node.body)
                if t is ast.AsyncWith and type(scope.node) is not ast.AsyncFunctionDef:
                    unsure = True
            elif t is ast.AnnAssign:
                target = node.target
                if type(target) is not Name:
                    visit((target,), scope)
                elif node.simple or node.value is not None:  # "(x): int" alone binds nothing
                    scope.binds.add(scope.mangle(target.id))
                # bare annotations (x: int) declare without assigning
                if node.value is not None:
                    found.append(("simple_assignment", node.lineno))
                    visit((node.value,), scope)
                visit((node.annotation,), scope if detached is None else detached)
                continue
            elif t is ast.ClassDef:
                line = node.lineno
                for dec in node.decorator_list:
                    found.append(("decorator_application", dec.lineno))
                if node.bases:
                    found.append(("class_inheritance", line))
                if len(node.bases) >= 2:
                    found.append(("multiple_inheritance", line))
                if len(node.keywords) > 1 and _repeats(node.keywords):
                    unsure = True
                if (any(kw.arg == "metaclass" for kw in node.keywords)
                        or any(type(b) is ast.Name and b.id == "type" for b in node.bases)):
                    found.append(("metaclass", line))
                methods = {stmt.name for stmt in node.body if type(stmt) in _FUNCTION_DEFS}
                if any(opener in methods and closer in methods for opener, closer in _CM_PAIRS):
                    found.append(("context_manager_definition", line))
                if methods & _DESCRIPTOR_DUNDERS:
                    found.append(("descriptor_definition", line))
                if "__new__" in methods:
                    found.append(("dunder_new_override", line))
                # decorators run in the enclosing scope, bases and keywords in
                # the type-parameter scope around the class, the body in its own
                scope.binds.add(scope.mangle(node.name))
                visit(node.decorator_list, scope)
                outside = type_params(scope, node) if getattr(node, "type_params", None) else scope
                visit(node.bases + node.keywords, outside)
                inner = enter(outside, _CLASS)
                inner.private = node.name.lstrip("_") or None
                visit(node.body, inner)
                continue
            elif t is ast.Yield or t is ast.YieldFrom or t is ast.Await or t is ast.Return:
                # compile() rejects each of these in the module or a class body,
                # some in a comprehension, and an await outside an async def
                if scope.kind is not _FUNCTION or (
                        t is ast.Await and type(scope.node) is not ast.AsyncFunctionDef):
                    unsure = True
                if (t is ast.Yield or t is ast.YieldFrom) and scope.frame is not None:
                    generators.add(scope.frame)
            elif t is ast.NamedExpr:
                unsure = True
                name = scope.mangle(node.target.id)
                if scope.kind is _COMPREHENSION:
                    # the target binds in the function the comprehensions run in
                    # (at module level it is a global); in each one it is free
                    scope.uses.add(name)
                    outer = scope.parent
                    while outer.kind is _COMPREHENSION:
                        outer = outer.parent
                    if outer.kind is _FUNCTION:
                        outer.binds.add(name)
                else:
                    scope.binds.add(name)
                visit((node.value,), scope)
                continue
            elif t is ast.Import or t is ast.ImportFrom:
                # compile() checks where a __future__ import stands and what it
                # names; a star import is legal at module level only
                if t is ast.ImportFrom and (node.module == "__future__" or (
                        node.names[0].name == "*" and scope.parent is not None)):
                    unsure = True
                for alias in node.names:
                    if alias.name != "*":
                        scope.binds.add(scope.mangle(alias.asname or alias.name.partition(".")[0]))
                continue
            elif t is ast.Global:
                unsure = True
                scope.globals |= set(map(scope.mangle, node.names))
            elif t is ast.Nonlocal:
                unsure = True
                scope.nonlocals |= set(map(scope.mangle, node.names))
            elif t is ast.Break or t is ast.Continue:
                # compile() rejects these outside a loop
                if not placed.get(node, _OUTSIDE)[1]:
                    unsure = True
            elif t is ast.Match:
                unsure = True
                blocks(*placed.get(node, _OUTSIDE), *(case.body for case in node.cases))
            elif t is ast.Starred:
                if type(node.ctx) is ast.Store:
                    unsure = True
            elif t in _TYPE_PARAMS:
                unsure = True
                if t is _TYPE_ALIAS:  # its name binds here, its value runs in its type-parameter scope
                    visit((node.name,), scope)
                    visit((node.value,), type_params(scope, node))
                    continue
            else:  # _CAPTURES
                name = node.rest if t is ast.MatchMapping else node.name
                if name is not None:
                    scope.binds.add(scope.mangle(name))
            for target in targets:
                if type(target) in _UNPACKING_TARGETS:
                    found.append(("tuple_unpacking", target.lineno))

        for field in child_fields[t]:
            child = getattr(node, field)
            if type(child) is list:
                for item in child:
                    if type(item) in child_fields:
                        push((item, scope))
                    elif type(item) is Name:
                        scope.names.append(item)
            elif type(child) in child_fields:
                push((child, scope))
            elif type(child) is Name:
                scope.names.append(child)

    if any(type(d) is ast.AsyncFunctionDef for d in generators):
        unsure = True  # an async generator may not return a value or yield from
    deepest = max((depth for depth, _ in placed.values()), default=0)
    if deepest > _MAX_BLOCKS:
        unsure = True
    if _CRASHING_COMPILER:
        # statements open no more handlers than blocks, expressions at most one
        # per comprehension around them and three more
        nesting = {None: 0}
        for each in scopes:
            nesting[each] = nesting[each.parent] + 1 if each.kind is _COMPREHENSION else 0
        if deepest + max(nesting.values()) + 3 > 20:
            _compile_in_child(source)
            unsure = True
    found.extend(("generator_function", d.lineno) for d in generators if type(d) is not ast.Lambda)
    if nested:
        found += _resolve(scopes, nested)
    return found, unsure


def _compile_in_child(source: str) -> None:
    """Compile `source` in a child interpreter.  Raises SyntaxError when a
    signal kills it, but MemoryError, a verdict of the run, when it cannot
    start or is killed by SIGKILL, the kernel's out-of-memory killer."""
    try:
        code = subprocess.run(_CHILD_COMPILE, input=source.encode(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
    except OSError as exc:
        raise MemoryError(f"cannot start a child compiler: {exc}") from exc
    if code < 0:
        raise MemoryError("the child compiler was killed") if code == -signal.SIGKILL else SyntaxError(
            f"Python 3.12's compiler crashes on this source (signal {-code})")


def _resolve(scopes: list[_Scope], nested: set[ast.AST]) -> list[Occurrence]:
    """A ``closure`` occurrence for each def or lambda of `nested` with a free
    variable other than the implicit ``__class__`` cell.

    Resolves the names the walk recorded as the compiler's scope pass does:
    from the outside in, which names of the enclosing functions each scope
    sees; from the inside out, the free names, which pass up through every
    scope that does not bind them.  A class body hides its own names from
    the scopes nested in it, but not from a type-parameter scope it holds.
    """
    for scope in scopes:  # enclosing scopes first
        for name in scope.names:
            (scope.uses if type(name.ctx) is ast.Load else scope.binds).add(scope.mangle(name.id))
        parent = scope.parent
        bound = _NO_NAMES if parent is None else parent.visible
        scope.local = local = scope.binds - scope.globals - scope.nonlocals
        scope.free = ((scope.uses | scope.nonlocals) - local - scope.globals) & bound
        if scope.node is None and scope.kind is _FUNCTION and parent.kind is _CLASS:
            scope.free -= parent.local | parent.globals  # the class's names are globals there
        scope.visible = bound if scope.kind is _CLASS else local | (bound - scope.globals)
    found: list[Occurrence] = []
    for scope in reversed(scopes):  # nested scopes first
        free = scope.free
        parent = scope.parent
        if parent is not None:
            parent.free |= free if parent.kind is _CLASS else free - parent.local
        if scope.node in nested and free - {"__class__"}:
            found.append(("closure", scope.node.lineno))
    return found


def find_constructs(source: str) -> list[Occurrence]:
    """All vocabulary construct occurrences in the source, in the walk's order.

    Raises ParseError, caused by the parser's or the compiler's exception,
    when the text does not compile.
    """
    try:
        with warnings.catch_warnings():
            # a warning is no verdict, whatever filter the caller runs under
            warnings.simplefilter("ignore")
            tree = ast.parse(source)
            found, unsure = _walk(tree, source)
            if unsure or "__debug__" in source:
                # this module's own __future__ imports must not leak into the verdict
                compile(tree, "<analysis>", "exec", dont_inherit=True)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        # compile() rejects a little more than ast.parse (e.g. unbound
        # nonlocal), and deep nesting exhausts the parser's or the
        # compiler's stack or memory; either way this source does not compile
        raise ParseError(f"{type(exc).__name__}: {exc}") from exc
    return found


def count_constructs(source: str) -> list[Occurrence]:
    """All vocabulary construct occurrences in the source, sorted by (line, kind).

    Raises ParseError when the text does not compile.
    """
    return sorted(find_constructs(source), key=lambda occ: (occ[1], occ[0]))


def analyze_source(source: str, catalog: Catalog) -> AnalysisResult:
    """Classify one source text; parse failures yield a zero result, never an error."""
    try:
        occurrences = count_constructs(source)
    except ParseError as exc:
        log.debug("parse failure: %s", exc)
        return AnalysisResult((0,) * 6, (), 0, parse_ok=False)

    tally = Counter(kind for kind, _line in occurrences)
    *counts, unclassified = level_counter(catalog)(tally[kind] for kind in KINDS)
    return AnalysisResult(tuple(counts), tuple(occurrences), unclassified, parse_ok=True)


def source_analysis(source: str) -> Stored:
    """The stored form of one source text's analysis.

    Raises RuntimeError when the walk emits a kind that KINDS lacks, which
    the stored form could not hold.
    """
    try:
        found = find_constructs(source)
    except ParseError as exc:
        return type(exc.__cause__).__name__
    tally = Counter(map(itemgetter(0), found))
    counts = array("I", [tally.pop(kind, 0) for kind in KINDS])
    if tally:
        raise RuntimeError(f"kinds missing from catalog.KINDS: {sorted(tally)}")
    return counts.tobytes()


def blob_analysis(data: bytes | None) -> Stored:
    """The stored form of one blob's analysis from its raw bytes (None for no blob)."""
    text = blob_text(data)
    return NO_TEXT if text is None else source_analysis(text)
