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
* ``closure`` follows the compiler's scoping rules: a def or lambda counts
  when it has a free variable, a name it reads or declares ``nonlocal``
  that an enclosing def, lambda or comprehension binds.  Class bodies are
  invisible to the scopes nested in them, a free name passes through every
  def between its use and its binding (each of them counts), and the
  implicit ``__class__`` cell behind zero-argument ``super()`` is no
  capture.  Only a def or lambda inside a def, lambda or comprehension can
  have a free variable (a lambda in a module-level comprehension included),
  so the analyzer's own scope pass resolves names only inside the
  outermost def, lambda or comprehension that holds one.
* Class-protocol kinds (``context_manager_definition``,
  ``descriptor_definition``, ``dunder_new_override``, ``metaclass``)
  anchor at the class statement's line.

Source that does not compile under the running Python 3 grammar yields
``parse_ok=False`` and an all-zero vector; the pipeline never aborts on it.
``parse_ok`` holds when ``ast.parse`` accepts the source and, if the source
has any def or lambda, so does ``symtable``.  Nesting too deep for the
parser or the symbol table (RecursionError, MemoryError) is a parse failure
too.

The symbol table is built only for that verdict, never to count.  It
parses the source a second time, so it is built only when the file has a
def or lambda and a construct the compiler's scope pass can reject after
the parser accepted it: ``global``, ``nonlocal``, a walrus,
``from __future__ import``, a star import, a repeated parameter name, or a
``yield``/``await`` inside a comprehension.  Any other source with a def or
lambda is accepted by the compiler's scope pass, so skipping the table
there leaves ``parse_ok`` unchanged.
"""

from __future__ import annotations

import ast
import importlib.util
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
#: Nodes the compiler's scope pass can reject after the parser accepted them.
_SCOPE_CHECKED = frozenset({ast.Global, ast.Nonlocal, ast.NamedExpr})

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

#: Node types with a branch in _walk; every other type only looks up _NODE_KINDS.
_CONDITIONAL = frozenset({
    ast.If, ast.Assign, ast.AnnAssign, ast.With, ast.AsyncWith, ast.comprehension,
    ast.ClassDef, ast.Call, ast.BinOp, ast.List, ast.Tuple, ast.Subscript,
    ast.Yield, ast.YieldFrom, ast.Await, ast.ImportFrom,
}) | _ELSE_BLOCKS | _CALLABLES | _COMPREHENSIONS | _SCOPE_CHECKED

#: Fields that hold no node the walk needs: identifiers, numbers, strings and
#: the expression-context and operator singletons.
_LEAF_FIELDS = frozenset({
    "ctx", "op", "ops", "id", "attr", "arg", "asname", "module", "level", "simple",
    "is_async", "conversion", "kind", "type_comment", "tag", "rest", "kwd_attrs",
})

#: The fields the walk descends into, per node type it pushes.  Name and
#: Constant are absent: they emit no kind and hold no node, so they are never
#: pushed.  A def's or lambda's body is pushed by its branch, with the def as
#: its owner.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(
        f for f in cls._fields
        if f not in _LEAF_FIELDS and not (cls in _CALLABLES and f == "body")
    )
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.AST) and cls not in (ast.Name, ast.Constant)
}


def _walk(tree: ast.Module) -> tuple[list[Occurrence], list[ast.AST], bool, bool]:
    """Every occurrence but ``closure``; the outermost defs, lambdas and
    comprehensions that hold a nested def or lambda; whether the verdict
    needs the compiler's symbol table; and whether the source imports
    ``annotations`` from ``__future__``.

    One pass with an explicit stack.  Each entry carries its owner: the
    innermost def or lambda whose body holds the node, or the innermost
    comprehension around it (its first iterable included).  A yield marks
    the def that runs it as a generator without walking the def's body
    again.  A def or lambda with an owner is nested, the only place a
    closure can occur.
    """
    found: list[Occurrence] = []
    generators: set[ast.AST] = set()
    elifs: set[ast.AST] = set()
    # comprehension -> the def or lambda (or None) whose frame evaluates it
    frames: dict[ast.AST, ast.AST | None] = {}
    # def, lambda or comprehension -> the outermost one around it (itself at the top)
    roots: dict[ast.AST, ast.AST] = {}
    holders: dict[ast.AST, None] = {}  # the roots that hold a nested def or lambda
    has_defs = scope_checked = future_annotations = False
    stack: list[tuple[ast.AST, ast.AST | None]] = [(tree, None)]
    push = stack.append
    child_fields = _CHILD_FIELDS
    while stack:
        node, owner = stack.pop()
        t = type(node)
        kind = _NODE_KINDS.get(t)
        if kind is not None:
            found.append((kind, node.lineno))
        scope = owner
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
            elif t in _CALLABLES:
                args = node.args
                for default in args.defaults + args.kw_defaults:
                    if default is not None:
                        found.append(("default_parameter", default.lineno))
                if args.vararg is not None:
                    found.append(("star_args_parameter", node.lineno))
                if args.kwarg is not None:
                    found.append(("kw_args_parameter", node.lineno))
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                if len(set(params)) < len(params):
                    scope_checked = True
                has_defs = True
                root = roots[node] = node if owner is None else roots[owner]
                if owner is not None:
                    holders[root] = None
                # decorators, defaults and annotations run in the enclosing
                # scope; only the body belongs to the def or lambda itself
                body = node.body
                if t is ast.Lambda:
                    if type(body) in child_fields:
                        push((body, node))
                else:
                    for stmt in body:
                        push((stmt, node))
                    if t is ast.AsyncFunctionDef:
                        found.append(("async_function", node.lineno))
                    for dec in node.decorator_list:
                        found.append(("decorator_application", dec.lineno))
                        if ((type(dec) is ast.Name and dec.id == "property")
                                or (type(dec) is ast.Attribute and dec.attr in _PROPERTY_ATTRS)):
                            found.append(("property_definition", node.lineno))
            elif t in _COMPREHENSIONS:
                frames[node] = frames.get(owner, owner)
                roots[node] = node if owner is None else roots[owner]
                scope = node
            elif t is ast.comprehension:
                targets = (node.target,)
            elif t is ast.With or t is ast.AsyncWith:
                targets = [item.optional_vars for item in node.items]
            elif t is ast.AnnAssign:
                # bare annotations (x: int) declare without assigning
                if node.value is not None:
                    found.append(("simple_assignment", node.lineno))
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
            elif t is ast.Yield or t is ast.YieldFrom or t is ast.Await:
                frame = owner
                if owner in frames:
                    # a yield or await inside a comprehension is left to the scope
                    # pass; the first iterable runs in the enclosing frame, so a
                    # yield there makes that frame a generator
                    scope_checked = True
                    frame = frames[owner]
                if frame is not None and t is not ast.Await:
                    generators.add(frame)
            elif t is ast.ImportFrom:
                if node.module == "__future__":
                    scope_checked = True
                    future_annotations |= any(alias.name == "annotations" for alias in node.names)
                elif node.names[0].name == "*":
                    scope_checked = True
            else:  # _SCOPE_CHECKED
                scope_checked = True
            for target in targets:
                if type(target) in _UNPACKING_TARGETS:
                    found.append(("tuple_unpacking", target.lineno))

        for field in child_fields[t]:
            child = getattr(node, field)
            if type(child) is list:
                for item in child:
                    if type(item) in child_fields:
                        push((item, scope))
            elif type(child) in child_fields:
                push((child, scope))

    found.extend(("generator_function", d.lineno) for d in generators if type(d) is not ast.Lambda)
    return found, list(holders), has_defs and scope_checked, future_annotations


#: Scope kinds of the closure pass.  A class scope's names are hidden from
#: the scopes nested in it; a comprehension's walrus targets bind outside it.
_FUNCTION, _COMPREHENSION, _CLASS = range(3)

#: Node types with a branch in the closure pass; every other type only descends.
_SCOPE_NODES = frozenset({
    ast.ClassDef, ast.NamedExpr, ast.Global, ast.Nonlocal, ast.Import, ast.ImportFrom,
    ast.ExceptHandler, ast.AnnAssign, ast.MatchAs, ast.MatchStar, ast.MatchMapping,
}) | _CALLABLES | _COMPREHENSIONS

#: The node types the closure pass pushes: those the walk pushes, and names.
_SCOPE_PUSHED = frozenset(_CHILD_FIELDS) | {ast.Name}


class _Scope:
    """One scope of the closure pass: the names it binds, reads and declares."""

    __slots__ = ("parent", "kind", "node", "private", "binds", "uses", "globals", "nonlocals",
                 "local", "visible", "free")

    def __init__(self, parent: "_Scope | None", kind: int, node: ast.AST | None = None):
        self.parent, self.kind, self.node = parent, kind, node
        # the class name that mangles private names here, leading underscores stripped
        self.private = parent.private if parent is not None else None
        self.binds: set[str] = set()
        self.uses: set[str] = set()
        self.globals: set[str] = set()
        self.nonlocals: set[str] = set()
        self.free: set[str] = set()

    def mangle(self, name: str) -> str:
        """`name` as the compiler records it here: ``__x`` in class ``C`` is ``_C__x``."""
        if self.private is None or name[:2] != "__" or name[-2:] == "__":
            return name
        return f"_{self.private}{name}"


def _closures(root: ast.AST, future_annotations: bool) -> list[Occurrence]:
    """A ``closure`` occurrence for each def or lambda nested in `root` that has
    a free variable other than the implicit ``__class__`` cell.

    `root` is an outermost def, lambda or comprehension, so the scope around
    it is a module or a class, and no name bound there is free inside.  The
    pass collects what each scope binds, reads and declares, then resolves
    the names as the compiler's scope pass does: from the outside in, which
    names of the enclosing functions each scope sees; from the inside out,
    the free names, which pass up through every scope that does not bind
    them.  A class body hides its own names from the scopes nested in it.
    Under ``from __future__ import annotations`` the compiler leaves
    annotations out of its scope pass, and so does this one.  Private names
    are mangled by the classes inside `root` only: the class around it is
    not known here.
    """
    outer = _Scope(None, _CLASS)
    scopes = [outer]
    stack: list[tuple[ast.AST, _Scope]] = [(root, outer)]
    push = stack.append
    child_fields = _CHILD_FIELDS
    pushed = _SCOPE_PUSHED
    Name, Load = ast.Name, ast.Load

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
        for param in params:
            scope.binds.add(scope.mangle(param.name))
            push((param, scope))
        return scope

    while stack:
        node, scope = stack.pop()
        t = type(node)
        fields = child_fields.get(t)
        if fields is None:  # a Name, or a Constant pushed by a branch below
            if t is Name:
                name = node.id if scope.private is None else scope.mangle(node.id)
                (scope.uses if type(node.ctx) is Load else scope.binds).add(name)
            continue
        if t in _SCOPE_NODES:
            if t is ast.ClassDef:
                scope.binds.add(scope.mangle(node.name))
                for dec in node.decorator_list:
                    push((dec, scope))
                scope = type_params(scope, node)
                for base in node.bases + node.keywords:
                    push((base, scope))
                inner = enter(scope, _CLASS)
                inner.private = node.name.lstrip("_") or None
                for stmt in node.body:
                    push((stmt, inner))
                continue
            if t in _CALLABLES:
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                outside = type_params(scope, node)
                if node is not root:  # the root's own signature runs outside it
                    for default in args.defaults + args.kw_defaults:
                        if default is not None:
                            push((default, scope))
                    if t is not ast.Lambda:
                        scope.binds.add(scope.mangle(node.name))
                        for dec in node.decorator_list:
                            push((dec, scope))
                        if not future_annotations:
                            for annotation in [a.annotation for a in params] + [node.returns]:
                                if annotation is not None:
                                    push((annotation, outside))
                inner = enter(outside, _FUNCTION, node)
                inner.binds.update(inner.mangle(a.arg) for a in params)
                for stmt in node.body if t is not ast.Lambda else (node.body,):
                    push((stmt, inner))
                continue
            if t in _COMPREHENSIONS:
                # the first iterable runs in the enclosing scope
                first, *rest = node.generators
                push((first.iter, scope))
                inner = enter(scope, _COMPREHENSION)
                push((first.target, inner))
                for item in first.ifs + rest:
                    push((item, inner))
                for item in (node.key, node.value) if t is ast.DictComp else (node.elt,):
                    push((item, inner))
                continue
            if t is ast.NamedExpr:
                name = scope.mangle(node.target.id)
                if scope.kind is _COMPREHENSION:
                    # the target binds in the function the comprehensions run in
                    # (at module level it is a global); in each one it is free
                    scope.uses.add(name)
                    frame = scope.parent
                    while frame.kind is _COMPREHENSION:
                        frame = frame.parent
                    if frame.kind is _FUNCTION:
                        frame.binds.add(name)
                else:
                    scope.binds.add(name)
                push((node.value, scope))
                continue
            if t is ast.Global or t is ast.Nonlocal:
                declared = scope.globals if t is ast.Global else scope.nonlocals
                declared.update(scope.mangle(name) for name in node.names)
                continue
            if t is ast.Import or t is ast.ImportFrom:
                for alias in node.names:
                    if alias.name != "*":
                        scope.binds.add(scope.mangle(alias.asname or alias.name.partition(".")[0]))
                continue
            if t is ast.AnnAssign:
                target = node.target
                if type(target) is not Name:
                    push((target, scope))
                elif node.simple or node.value is not None:  # "(x): int" alone binds nothing
                    scope.binds.add(scope.mangle(target.id))
                if not future_annotations:
                    push((node.annotation, scope))
                if node.value is not None:
                    push((node.value, scope))
                continue
            # an except clause's name, a capture pattern or a mapping pattern's **rest
            name = node.rest if t is ast.MatchMapping else node.name
            if name is not None:
                scope.binds.add(scope.mangle(name))

        for field in fields:
            child = getattr(node, field)
            if type(child) is list:
                for item in child:
                    if type(item) in pushed:
                        push((item, scope))
            elif type(child) in pushed:
                push((child, scope))

    outer.visible = set()
    for scope in scopes[1:]:  # enclosing scopes first
        bound = scope.parent.visible  # the enclosing functions' names this scope can see
        scope.local = local = scope.binds - scope.globals - scope.nonlocals
        scope.free = ((scope.uses | scope.nonlocals) - local - scope.globals) & bound
        scope.visible = bound if scope.kind is _CLASS else local | (bound - scope.globals)
    found: list[Occurrence] = []
    for scope in reversed(scopes[1:]):  # nested scopes first
        free = scope.free
        parent = scope.parent
        parent.free |= free if parent.kind is _CLASS else free - parent.local
        if scope.node is not None and scope.node is not root and free - {"__class__"}:
            found.append(("closure", scope.node.lineno))
    return found


def count_constructs(source: str) -> list[Occurrence]:
    """All vocabulary construct occurrences in the source, sorted by (line, kind).

    Raises ParseError when the text does not compile.
    """
    try:
        tree = ast.parse(source)
        found, roots, needs_table, future_annotations = _walk(tree)
        if needs_table:
            symtable.symtable(source, "<analysis>", "exec")
        for root in roots:
            found += _closures(root, future_annotations)
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
