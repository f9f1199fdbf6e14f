"""Syntactic construct counting for Python source text.

Walks the parse tree of one source file once, with an explicit stack, and
emits a (kind, line) occurrence for every construct in the analyzer
vocabulary, then folds the cataloged occurrences into a six-level count
vector.  Classification is purely syntactic: no imports are resolved and no
types are inferred.  Kinds that one node type always emits come from a
type -> kind table; the conditional kinds are branches on the node type.
The same walk records, per scope, the names the code binds, reads and
declares, which is all ``generator_function`` and ``closure`` need.

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
* ``closure`` follows the compiler's scoping rules: a def or lambda counts
  when it has a free variable, a name it reads or declares ``nonlocal``
  that an enclosing def, lambda or comprehension binds.
  - Decorators, defaults, class bases and a comprehension's first iterable
    run in the enclosing scope; under ``from __future__ import annotations``
    (read from the file's leading block, as the compiler does) annotations
    run nowhere, so their names capture nothing.
  - Class bodies are invisible to the scopes nested in them, and private
    names are mangled by the innermost class.
  - A free name passes through every def between its use and its binding,
    and each of them counts.
  - The implicit ``__class__`` cell behind zero-argument ``super()`` is no
    capture.
  Only a def or lambda inside a def, lambda or comprehension can have a free
  variable, so names are resolved only in files that have one.
* Class-protocol kinds (``context_manager_definition``,
  ``descriptor_definition``, ``dunder_new_override``, ``metaclass``)
  anchor at the class statement's line.

``parse_ok`` holds when ``ast.parse`` and the compiler's scope pass (its
symbol table) both accept the source, and every ``from __future__`` import
is a statement of the file's leading block of them (after the docstring, if
any), as ``compile()`` requires.  The block ends at its first other
statement, even one on the same line: in ``from __future__ import a; import
b; from __future__ import c`` the last import is late.  The walk also
refuses what ``compile()`` refuses in code generation: ``return``, ``yield``
and ``await`` in the module or a class body; ``await``, ``async for``,
``async with`` and asynchronous comprehensions outside an async def (a
generator expression may await anywhere); ``yield from`` in an async def;
``return`` with a value in an async generator; and ``break`` or
``continue`` outside a loop.  Either must stand in the body of a ``for``,
``async for`` or ``while``, or in a block of an ``if``, ``with``, ``try``
(``finally`` included) or ``match`` statement there, with no def or class
between.  A loop's ``else`` block is outside the loop, and neither may jump
out of an ``except*`` block.  Other source yields ``parse_ok=False`` and an
all-zero vector; the pipeline never aborts on it.
Nesting too deep for the parser or the symbol table (RecursionError,
MemoryError) is a parse failure too.

The symbol table is built only for that verdict, never to count.  It
parses the source a second time, so it is built only when the walk finds a
construct the compiler's scope pass can reject after the parser accepted
it: ``global``, ``nonlocal``, a walrus, ``from __future__ import``, a star
import outside module scope, a repeated parameter name (after mangling), or
a ``yield``/``await`` inside a comprehension.  The scope pass accepts any
other source, so skipping the table there leaves ``parse_ok`` unchanged.
"""

from __future__ import annotations

import ast
import importlib.util
import logging
import symtable
import sys
from dataclasses import dataclass

from .catalog import Catalog, Level

log = logging.getLogger(__name__)

Occurrence = tuple[str, int]

def source_text(data: bytes) -> str:
    """Decode source bytes the way Python does: UTF-8 by default, honouring a
    PEP 263 encoding cookie and a UTF-8 BOM, with universal newlines.

    Bytes that Python cannot decode fall back to UTF-8 with replacement
    characters, so a stray byte in a comment or string does not make the
    file unparseable.
    """
    try:
        return importlib.util.decode_source(data)
    except (SyntaxError, LookupError, UnicodeDecodeError):
        return data.decode("utf-8", errors="replace")


class ParseError(Exception):
    """Source text does not compile under the running Python grammar."""


@dataclass(frozen=True)
class LevelVector:
    """Six non-negative construct counts indexed by Level (A1..C2)."""

    counts: tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.counts) != 6:
            raise ValueError("LevelVector needs exactly six counts")
        if min(self.counts) < 0:
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
_COMPREHENSIONS = frozenset({ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp})
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

#: Nodes that bind the name they carry: an except clause's name, a capture
#: pattern, and a mapping pattern's ``**rest``.
_CAPTURES = frozenset({ast.ExceptHandler, ast.MatchAs, ast.MatchStar, ast.MatchMapping})

#: Node types with a branch in _walk; every other type only looks up _NODE_KINDS.
_CONDITIONAL = frozenset({
    ast.If, ast.Assign, ast.AnnAssign, ast.With, ast.AsyncWith, ast.comprehension,
    ast.ClassDef, ast.Call, ast.BinOp, ast.List, ast.Tuple, ast.Subscript,
    ast.Return, ast.Yield, ast.YieldFrom, ast.Await, ast.Import, ast.ImportFrom,
    ast.NamedExpr, ast.Global, ast.Nonlocal, ast.Break, ast.Continue, ast.Match,
}) | _ELSE_BLOCKS | _CALLABLES | _COMPREHENSIONS | _CAPTURES

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

#: Whether a comprehension may hold an asynchronous one, which makes it asynchronous too.
_NESTED_ASYNC = sys.version_info >= (3, 11)

#: Scope kinds.  A class scope's names are hidden from the scopes nested in
#: it, and so are the module's; a comprehension's walrus targets bind outside it.
_FUNCTION, _COMPREHENSION, _CLASS = range(3)

_NO_NAMES: frozenset[str] = frozenset()


class _Scope:
    """One scope: the names it binds, reads and declares, and what the code that
    runs in it needs to know of the scopes around it."""

    __slots__ = ("parent", "kind", "node", "frame", "inside", "private", "genexp",
                 "names", "binds", "uses", "globals", "nonlocals", "local", "visible", "free")

    def __init__(self, parent: "_Scope | None", kind: int, node: ast.AST | None = None):
        # `node` is the def or lambda whose own scope this is; the module, a
        # class, a comprehension and a type-parameter scope have none
        self.parent, self.kind, self.node = parent, kind, node
        self.genexp = False  # whether this is a generator expression's scope
        # the names read, stored or deleted here, sorted into `uses` and
        # `binds` only if names are resolved
        self.names: list[ast.Name] = []
        self.binds: set[str] = set()
        self.uses: set[str] = set()
        self.globals = self.nonlocals = _NO_NAMES
        if parent is None:
            self.frame = self.private = None
            self.inside = False
        else:
            # the def or lambda whose frame runs the code here
            self.frame = node if node is not None else parent.frame
            # whether a def, lambda or comprehension holds the code here
            self.inside = node is not None or kind is _COMPREHENSION or parent.inside
            # the class name that mangles private names here, leading underscores stripped
            self.private = parent.private

    def mangle(self, name: str) -> str:
        """`name` as the compiler records it here: ``__x`` in class ``C`` is ``_C__x``."""
        if self.private is None or name[:2] != "__" or name[-2:] == "__":
            return name
        return f"_{self.private}{name}"


def _future_block(tree: ast.Module) -> tuple[list[ast.stmt], bool]:
    """The leading block of ``__future__`` imports, after the docstring if any,
    the only place the compiler honours them: its import statements, and
    whether they import ``annotations``."""
    start = 1 if ast.get_docstring(tree, clean=False) is not None else 0
    block: list[ast.stmt] = []
    for stmt in tree.body[start:]:
        if type(stmt) is not ast.ImportFrom or stmt.module != "__future__":
            break
        block.append(stmt)
    return block, any(alias.name == "annotations" for stmt in block for alias in stmt.names)


def _async_comprehension(scope: _Scope) -> None:
    """Raise SyntaxError where compile() refuses the comprehension whose scope
    is `scope` when it awaits or has an ``async for``.

    A generator expression may await anywhere.  Any other comprehension makes
    the scope around it asynchronous too, and only an async def may hold it,
    or from Python 3.11 on, a comprehension.
    """
    while not scope.genexp:
        scope = scope.parent
        if scope.kind is not _COMPREHENSION or not _NESTED_ASYNC:
            if type(scope.node) is not ast.AsyncFunctionDef:
                raise SyntaxError("asynchronous comprehension outside of an asynchronous function")
            return


def _walk(tree: ast.Module) -> tuple[list[Occurrence], bool]:
    """Every occurrence, and whether the verdict needs the compiler's symbol table.

    One pass with an explicit stack.  Each entry carries the scope its node
    runs in.  Every scope records the names it binds, reads and declares as
    the walk counts, and tells a yield which def it makes a generator.  Names
    are resolved once, after the walk, and only when some def or lambda lies
    in a def, lambda or comprehension, the only place a closure can occur.
    Until then a plain name is only appended to its scope's list.
    """
    found: list[Occurrence] = []
    generators: set[ast.AST] = set()
    returns: set[ast.AST] = set()  # the async defs that return a value
    elifs: set[ast.AST] = set()
    # the statements a break or continue may stand in: a loop's body, and the
    # blocks of an if, with, try or match among them, but no def or class body
    looped: set[ast.AST] = set()
    module = _Scope(None, _CLASS)
    scopes = [module]  # every scope, each after the one around it
    future_block, future_annotations = _future_block(tree)
    # under `from __future__ import annotations` no annotation is evaluated:
    # they run in a scope of their own, whose names resolve to nothing
    detached = None
    if future_annotations:
        detached = _Scope(None, _CLASS)
        scopes.append(detached)
    nested = scope_checked = False
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

    def enter(parent: _Scope, kind: int, node: ast.AST | None = None) -> _Scope:
        scope = _Scope(parent, kind, node)
        scopes.append(scope)
        return scope

    def type_params(scope: _Scope, node: ast.AST) -> _Scope:
        # PEP 695 (Python 3.12+): a generic def's or class's type parameters
        # bind in a scope of their own around it
        params = getattr(node, "type_params", None)
        if not params:
            return scope
        scope = enter(scope, _FUNCTION)
        scope.binds.update(scope.mangle(param.name) for param in params)
        visit(params, scope)
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
                if node in looped:
                    looped.update(node.body, node.orelse)
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
                if t is ast.Try or t is _TRY_STAR:
                    if node in looped:
                        looped.update(node.body, node.orelse, node.finalbody)
                        if t is ast.Try:  # compile() refuses a jump out of an except* block
                            looped.update(*(handler.body for handler in node.handlers))
                else:  # a loop, whose else block is in a loop only if the loop is
                    if node in looped:
                        looped.update(node.orelse)
                    looped.update(node.body)
                if t is ast.For or t is ast.AsyncFor:
                    targets = (node.target,)
                    if t is ast.AsyncFor and type(scope.node) is not ast.AsyncFunctionDef:
                        raise SyntaxError("'async for' outside async function")
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
                nested = nested or scope.inside
                # defaults and decorators run in the enclosing scope, annotations
                # in the type-parameter scope around the def, the body in its own
                visit(defaults, scope)
                outside = type_params(scope, node)
                inner = enter(outside, _FUNCTION, node)
                inner.binds.update(inner.mangle(a.arg) for a in params)
                if len(inner.binds) < len(params):  # a parameter name repeats
                    scope_checked = True
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
                inner = enter(scope, _COMPREHENSION)
                inner.genexp = t is ast.GeneratorExp
                if first.is_async:
                    _async_comprehension(inner)
                visit((first.target, *first.ifs, *rest, *elements), inner)
                continue
            elif t is ast.comprehension:
                targets = (node.target,)
                if node.is_async:
                    _async_comprehension(scope)
            elif t is ast.With or t is ast.AsyncWith:
                targets = [item.optional_vars for item in node.items]
                if node in looped:
                    looped.update(node.body)
                if t is ast.AsyncWith and type(scope.node) is not ast.AsyncFunctionDef:
                    raise SyntaxError("'async with' outside async function")
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
                outside = type_params(scope, node)
                visit(node.bases + node.keywords, outside)
                inner = enter(outside, _CLASS)
                inner.private = node.name.lstrip("_") or None
                visit(node.body, inner)
                continue
            elif t is ast.Yield or t is ast.YieldFrom or t is ast.Await or t is ast.Return:
                # compile() rejects these at module and class level, in code generation
                if scope.kind is _CLASS:
                    raise SyntaxError(f"{t.__name__} outside function")
                if scope.kind is _COMPREHENSION:  # left to the compiler's scope pass
                    scope_checked = True
                if t is ast.Await:
                    if scope.kind is _COMPREHENSION:
                        _async_comprehension(scope)
                    elif type(scope.node) is not ast.AsyncFunctionDef:
                        raise SyntaxError("'await' outside async function")
                elif t is ast.Return:
                    if node.value is not None and type(scope.node) is ast.AsyncFunctionDef:
                        returns.add(scope.node)
                elif scope.frame is not None:
                    if t is ast.YieldFrom and type(scope.frame) is ast.AsyncFunctionDef:
                        raise SyntaxError("'yield from' inside async function")
                    generators.add(scope.frame)
            elif t is ast.NamedExpr:
                scope_checked = True
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
                if t is ast.ImportFrom and node.module == "__future__":
                    # compile() rejects one outside the leading block, even on
                    # the block's last line, in code generation or in its
                    # scope pass, depending on the version
                    if node not in future_block:
                        raise SyntaxError("from __future__ imports must occur at the beginning of the file")
                    scope_checked = True
                # a star import is legal at module level only
                elif t is ast.ImportFrom and node.names[0].name == "*" and scope.parent is not None:
                    scope_checked = True
                for alias in node.names:
                    if alias.name != "*":
                        scope.binds.add(scope.mangle(alias.asname or alias.name.partition(".")[0]))
                continue
            elif t is ast.Global:
                scope_checked = True
                scope.globals |= set(map(scope.mangle, node.names))
            elif t is ast.Nonlocal:
                scope_checked = True
                scope.nonlocals |= set(map(scope.mangle, node.names))
            elif t is ast.Break or t is ast.Continue:
                # compile() rejects these outside a loop in code generation
                if node not in looped:
                    raise SyntaxError(f"'{t.__name__.lower()}' outside loop")
            elif t is ast.Match:
                if node in looped:
                    looped.update(*(case.body for case in node.cases))
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

    if not returns.isdisjoint(generators):
        raise SyntaxError("'return' with value in async generator")
    found.extend(("generator_function", d.lineno) for d in generators if type(d) is not ast.Lambda)
    if nested:
        found += _resolve(scopes)
    return found, scope_checked


def _resolve(scopes: list[_Scope]) -> list[Occurrence]:
    """A ``closure`` occurrence for each def or lambda with a free variable other
    than the implicit ``__class__`` cell.

    Resolves the names the walk recorded as the compiler's scope pass does:
    from the outside in, which names of the enclosing functions each scope
    sees; from the inside out, the free names, which pass up through every
    scope that does not bind them.  A class body hides its own names from
    the scopes nested in it.
    """
    for scope in scopes:  # enclosing scopes first
        for name in scope.names:
            (scope.uses if type(name.ctx) is ast.Load else scope.binds).add(scope.mangle(name.id))
        bound = _NO_NAMES if scope.parent is None else scope.parent.visible
        scope.local = local = scope.binds - scope.globals - scope.nonlocals
        scope.free = ((scope.uses | scope.nonlocals) - local - scope.globals) & bound
        scope.visible = bound if scope.kind is _CLASS else local | (bound - scope.globals)
    found: list[Occurrence] = []
    for scope in reversed(scopes):  # nested scopes first
        free = scope.free
        parent = scope.parent
        if parent is not None:
            parent.free |= free if parent.kind is _CLASS else free - parent.local
        if scope.node is not None and free - {"__class__"}:
            found.append(("closure", scope.node.lineno))
    return found


def count_constructs(source: str) -> list[Occurrence]:
    """All vocabulary construct occurrences in the source, sorted by (line, kind).

    Raises ParseError when the text does not compile.
    """
    try:
        found, needs_table = _walk(ast.parse(source))
        if needs_table:
            symtable.symtable(source, "<analysis>", "exec")
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
