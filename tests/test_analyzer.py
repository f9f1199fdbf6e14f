import ast
import builtins
import inspect
import random
import subprocess
import symtable
import sys
import sysconfig
import types
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cefr_progress
from cefr_progress import analyzer, scoring
from cefr_progress.analyzer import (
    _CHILD_FIELDS,
    ParseError,
    analyze_source,
    blob_text,
    count_constructs,
)
from cefr_progress.catalog import Catalog, Level, default_catalog

import verdict_differential
from verdict_differential import HANDLERS_3_12, nested
from conftest import _SNIPPET_POOL, _file_body, child_env
from corpus import SNIPPETS
from oracle import vector_sum

CATALOG = default_catalog()


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[s.name for s in SNIPPETS])
def test_corpus_occurrences_match_hand_labels(snippet):
    got = count_constructs(snippet.source)
    assert Counter(got) == Counter(snippet.expected)


def _generator_def_lines(source):
    """First lines of the defs whose code objects the compiler flags as generators."""
    flags = inspect.CO_GENERATOR | inspect.CO_ASYNC_GENERATOR
    lines = []
    stack = [compile(source, "<snippet>", "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        # <genexpr> and friends are generators too, but no def
        if code.co_flags & flags and not code.co_name.startswith("<"):
            lines.append(code.co_firstlineno)
    return sorted(lines)


@pytest.mark.parametrize("snippet", SNIPPETS, ids=[s.name for s in SNIPPETS])
def test_generator_labels_match_the_compiler(snippet):
    labeled = sorted(line for kind, line in snippet.expected if kind == "generator_function")
    assert labeled == _generator_def_lines(snippet.source)


def test_corpus_covers_whole_vocabulary():
    labeled = {kind for snippet in SNIPPETS for kind, _ in snippet.expected}
    assert labeled == set(CATALOG.levels)
    assert len(SNIPPETS) >= 20


def test_empty_source_is_zero_and_ok():
    result = analyze_source("", CATALOG)
    assert result.parse_ok
    assert result.vector == (0,) * 6
    assert result.occurrences == ()


def test_loop_branch_break_vector():
    result = analyze_source("for i in x:\n    if i:\n        break\n", CATALOG)
    assert result.vector == (2, 0, 1, 0, 0, 0)


def test_generator_def_lands_in_c1():
    result = analyze_source("def g():\n    yield 1\n", CATALOG)
    assert result.vector[Level.C1] >= 1


def test_list_comprehension_occurrence():
    assert count_constructs("[i for i in y]\n") == [("list_comprehension", 1)]


def test_simple_assignment_occurrence():
    assert count_constructs("x = 1") == [("simple_assignment", 1)]


def test_unparseable_source_yields_zero_result():
    result = analyze_source("def broken(:\n", CATALOG)
    assert not result.parse_ok
    assert result.vector == (0,) * 6
    assert result.occurrences == ()
    assert result.unclassified_count == 0


def test_python2_print_statement_is_a_parse_failure():
    result = analyze_source('print "hello"\n', CATALOG)
    assert not result.parse_ok


def test_count_constructs_raises_on_bad_source():
    with pytest.raises(ParseError):
        count_constructs("def broken(:\n")


@pytest.mark.parametrize("source, parse_ok, counts", [
    # one assignment and 999 additions, nested 999 deep on the left
    ("x = " + " + ".join(["1"] * 1000), True, [1000, 0, 0, 0, 0, 0]),
    # RecursionError during ast construction
    (" + ".join(["1"] * 100_000), False, [0] * 6),
    # MemoryError from the parser
    ("-" * 100_000 + "1", False, [0] * 6),
], ids=["sum_1000", "sum_100000", "minus_100000"])
def test_deep_input_counts_or_skips(source, parse_ok, counts):
    result = analyze_source(source, CATALOG)
    assert result.parse_ok is parse_ok
    assert list(result.vector) == counts


def test_unbound_nonlocal_is_a_parse_failure():
    # ast.parse alone accepts this; the compiler's scope pass rejects it
    result = analyze_source("def f():\n    nonlocal q\n", CATALOG)
    assert not result.parse_ok


@pytest.mark.parametrize(
    "source, rejected",
    [case[1:] for case in verdict_differential.CASES],
    ids=[case[0] for case in verdict_differential.CASES],
)
def test_parse_ok_matches_the_compiler_verdict(source, rejected):
    expected = verdict_differential.compiles(source)
    assert expected is not rejected
    assert analyze_source(source, CATALOG).parse_ok is expected


@pytest.mark.parametrize("source", [
    'x = "\\d"\n',  # an invalid escape, which the parser warns about
    "def f():\n    global g\n    assert (g, 1)\n",  # compiled: an assertion that is always true
    "def f():\n    global g\n    return g is 1\n",  # compiled: "is" with a literal
], ids=["invalid_escape", "tuple_assertion", "is_literal"])
def test_verdict_ignores_the_warnings_filter(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analyze_source(source, CATALOG).parse_ok


def test_parse_ok_matches_compile_on_a_stdlib_sample():
    # every 20th file; `python tests/verdict_differential.py` checks them all
    assert verdict_differential.differences(verdict_differential.stdlib_files()[::20]) == []


@pytest.mark.parametrize("source, calls, closures", [
    (
        "def f(x):\n"
        "    return [x for _ in range(3)]\n"
        "class C:\n"
        "    def m(self):\n"
        "        return super().m()\n"
        "    g = lambda self: 1\n",
        0, 0,
    ),
    (
        "def outer(x):\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner\n",
        0, 1,
    ),
    (
        "def outer(x):\n"
        "    global y\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner\n",
        1, 1,
    ),
    (
        "from os import *\n"
        "def outer(x):\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner\n",
        0, 1,
    ),
], ids=["module_and_class_level_defs", "closure", "closure_with_global", "closure_with_module_star_import"])
def test_symbol_table_is_built_only_for_nested_defs(monkeypatch, source, calls, closures):
    # closures come from the analyzer's own scope pass; the tree is compiled
    # (which builds its symbol table) only for the verdict on a construct
    # the compiler can reject
    compiled = _count_compiled_trees(monkeypatch)
    kinds = [kind for kind, _line in count_constructs(source)]
    assert len(compiled) == calls
    assert kinds.count("closure") == closures


def _count_compiled_trees(monkeypatch):
    """The list that each compile() call on a syntax tree appends to; ast.parse
    calls compile() on text, which it leaves out."""
    compiled = []
    real = builtins.compile

    def counting(source, *args, **kwargs):
        if isinstance(source, ast.AST):
            compiled.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return compiled


def test_churn_files_are_never_compiled(monkeypatch):
    # the benchmark's churn histories and the big_repo fixture build every
    # file from this pool; not one of them should pay for compile()
    compiled = _count_compiled_trees(monkeypatch)
    sources = [template.format(n=7) for template in _SNIPPET_POOL]
    sources += [_file_body(random.Random(seed), 12) for seed in range(20)]
    for source in sources:
        assert analyze_source(source, CATALOG).parse_ok
    assert compiled == []


def test_only_blocks_that_may_nest_too_deep_are_compiled(monkeypatch):
    # the walk flags a file whose blocks may nest past the compiler's limit,
    # and leaves the verdict to compile(); one a block short is not compiled
    compiled = _count_compiled_trees(monkeypatch)
    within = ["twenty_nested_blocks", "ten_nested_handlers", "twenty_nested_blocks_in_a_def_in_nineteen",
              "nested_loop_else_blocks"]
    for name in within:
        assert analyze_source(verdict_differential.ACCEPTED[name], CATALOG).parse_ok
    # Python 3.12's compiler may crash on all but the last, so there a child
    # compiles each of those first and, as it ends normally, compile() here
    assert len(compiled) == 3 * (sys.version_info[:2] == (3, 12))
    compiled.clear()
    past = [*verdict_differential.UP_TO_3_12.values(), verdict_differential.REJECTED["eleven_nested_handlers"]]
    for source in past:
        analyze_source(source, CATALOG)
    assert len(compiled) == len(past)


@pytest.mark.parametrize("source, count", [
    pytest.param(source, count, id=name) for name, (source, count) in HANDLERS_3_12.items()])
def test_open_handlers_count_as_the_3_12_compiler_keeps_them(source, count, monkeypatch):
    # on Python 3.12 the walk sends each source that crashed 3.12.1's
    # compiler (21 handlers open at once) to a child compiler first
    sent = []
    monkeypatch.setattr(analyzer, "_CRASHING_COMPILER", True)
    monkeypatch.setattr(analyzer, "_compile_in_child", sent.append)
    analyzer._walk(ast.parse(source), source)
    assert sent == [source] or count <= 20


def _crashing_compiler(monkeypatch, child: list[str] | None = None) -> None:
    """Take Python 3.12's path on any interpreter, with `child` as the child
    compiler's command when given."""
    monkeypatch.setattr(analyzer, "_CRASHING_COMPILER", True)
    if child is not None:
        monkeypatch.setattr(analyzer, "_CHILD_COMPILE", child)


#: A source that only the 3.12 bound flags, and that 3.12's compiler takes.
FLAGGED = HANDLERS_3_12["twenty_withs_in_a_def"][0]


@pytest.mark.parametrize("source, status", [
    (FLAGGED, 0),
    # compile() takes the text as decoded here: its cookie decodes nothing again
    ("# coding: nonsense\nx = 1\n", 0),
    (verdict_differential.REJECTED["eleven_nested_handlers"], 1),
], ids=["flagged", "cookie", "rejected"])
def test_the_child_compiler_compiles_the_decoded_text(source, status):
    assert subprocess.run(analyzer._CHILD_COMPILE, input=source.encode(), capture_output=True).returncode == status


@pytest.mark.parametrize("signal_name, stored", [("SIGSEGV", "SyntaxError"), ("SIGKILL", "MemoryError")])
def test_a_child_compiler_killed_by_a_signal_refuses_the_source(monkeypatch, signal_name, stored):
    suicide = f"import os, signal; os.kill(os.getpid(), signal.{signal_name})"
    _crashing_compiler(monkeypatch, [sys.executable, "-c", suicide])
    compiled = _count_compiled_trees(monkeypatch)
    assert not analyze_source(FLAGGED, CATALOG).parse_ok
    assert analyzer.source_analysis(FLAGGED) == stored
    assert compiled == []  # a crash is never compiled in this process
    # a crash holds for the source; the out-of-memory killer only for the run
    assert (stored in scoring.PASSING) is (signal_name == "SIGKILL")
    assert analyze_source("x = 1\n", CATALOG).parse_ok  # not flagged: no child runs


@pytest.mark.parametrize("child", [None, [sys.executable, "-c", "pass"]], ids=["real_child", "child_exits_0"])
def test_a_child_compiler_that_ends_normally_leaves_the_verdict_to_compile(monkeypatch, child):
    _crashing_compiler(monkeypatch, child)
    compiled = _count_compiled_trees(monkeypatch)
    assert analyze_source(FLAGGED, CATALOG).parse_ok
    assert not analyze_source(verdict_differential.REJECTED["eleven_nested_handlers"], CATALOG).parse_ok
    assert len(compiled) == 2


def test_a_child_compiler_that_cannot_start_is_a_verdict_of_the_run(monkeypatch, tmp_path):
    _crashing_compiler(monkeypatch, [str(tmp_path / "no-such-python")])
    assert not analyze_source(FLAGGED, CATALOG).parse_ok
    stored = analyzer.source_analysis(FLAGGED)
    assert stored == "MemoryError"
    assert stored in scoring.PASSING


@pytest.mark.parametrize("data, line", [
    (b"\xef\xbb\xbfx = 1\n", 1),
    (b"# -*- coding: latin-1 -*-\nna\xefve = 1\n", 2),
    # undecodable as UTF-8, but only inside a comment
    (b"x = 1\n# caf\xe9\n", 1),
], ids=["utf8_bom", "latin1_cookie", "stray_byte_in_comment"])
def test_source_bytes_decode_like_the_compiler(data, line):
    compile(data, "<bytes>", "exec")  # the compiler accepts each of these
    result = analyze_source(blob_text(data), CATALOG)
    assert result.parse_ok
    assert result.occurrences == (("simple_assignment", line),)


def test_vector_counts_only_cataloged_kinds():
    small = Catalog("only-if", {"if_statement": Level.A1})
    result = analyze_source("if a:\n    x = 1\n", small)
    assert result.vector == (1, 0, 0, 0, 0, 0)
    assert result.unclassified_count == 1  # the assignment
    assert sum(result.vector) + result.unclassified_count == len(result.occurrences)


def test_determinism():
    source = SNIPPETS[4].source
    first = analyze_source(source, CATALOG)
    for _ in range(5):
        again = analyze_source(source, CATALOG)
        assert again == first


def test_vector_depends_only_on_occurrence_multiset():
    result = analyze_source(SNIPPETS[6].source, CATALOG)
    recount = [0] * 6
    for kind, _line in sorted(result.occurrences, reverse=True):
        recount[CATALOG.levels.get(kind)] += 1
    assert recount == list(result.vector)


@settings(max_examples=60, deadline=None)
@given(
    a=st.sampled_from(SNIPPETS),
    b=st.sampled_from(SNIPPETS),
)
def test_additivity_over_concatenation(a, b):
    combined = analyze_source(a.source + b.source, CATALOG)
    va = analyze_source(a.source, CATALOG).vector
    vb = analyze_source(b.source, CATALOG).vector
    assert combined.vector == vector_sum(va, vb)


def test_closure_requires_a_capture():
    plain_nested = (
        "def outer():\n"
        "    def inner():\n"
        "        return 42\n"
        "    return inner\n"
    )
    kinds = [k for k, _ in count_constructs(plain_nested)]
    assert "closure" not in kinds

    capturing = (
        "def outer():\n"
        "    bound = 1\n"
        "    def inner():\n"
        "        return bound\n"
        "    return inner\n"
    )
    kinds = [k for k, _ in count_constructs(capturing)]
    assert kinds.count("closure") == 1


def test_super_call_does_not_make_a_closure():
    source = (
        "class Base:\n"
        "    def ping(self):\n"
        "        return super().ping()\n"
    )
    kinds = [k for k, _ in count_constructs(source)]
    assert "closure" not in kinds


def test_lambda_capture_is_a_closure():
    source = "def outer(x):\n    return lambda: x\n"
    kinds = [k for k, _ in count_constructs(source)]
    assert kinds.count("closure") == 1


def test_comprehension_scope_is_not_a_closure():
    source = "def outer(x):\n    return [x for _ in range(3)]\n"
    kinds = [k for k, _ in count_constructs(source)]
    assert "closure" not in kinds


def test_tuple_of_slices_counts_once():
    # one slice_expression for the subscript, plus the load-context index tuple
    assert count_constructs("m[1:2, 3]\n") == [("slice_expression", 1), ("tuple_literal", 1)]


def _root_imports(source: str) -> set[str]:
    """The names that the ``from cefr_progress import ...`` statements of `source` import."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "cefr_progress" and not node.level
            for alias in node.names}


def test_every_name_the_package_exports_resolves():
    # in a child process, which has imported nothing of the package before
    script = "import cefr_progress\nfor name in cefr_progress.__all__:\n    getattr(cefr_progress, name)\n"
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    # the root exports what its callers import from it (README's library
    # snippet and the benchmark) and the version, and nothing else
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = _root_imports(snippet) | _root_imports((root / "perfbench" / "run.py").read_text(encoding="utf-8"))
    assert imported and sorted(cefr_progress.__all__) == sorted(imported | {"__version__"})
    assert not hasattr(cefr_progress, "__getattr__")
    # one version: pyproject.toml's
    project = (root / "pyproject.toml").read_text(encoding="utf-8").split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert f'\nversion = "{cefr_progress.__version__}"\n' in f"\n{project}\n"


def _chains(node: ast.AST) -> set[tuple[str, ...]]:
    """Each dotted name read under `node`, as (name, attribute, ...), and its prefixes."""
    chains = set()
    for attribute in ast.walk(node):
        chain = []
        while isinstance(attribute, ast.Attribute):
            chain.append(attribute.attr)
            attribute = attribute.value
        if chain and isinstance(attribute, ast.Name):
            chains.add((attribute.id, *reversed(chain)))
    return chains


def _repo_handles(function: ast.AST) -> set[str]:
    """The names that `function` binds to what a call of ``prepare_repo`` returns."""
    def calls_prepare_repo(value) -> bool:
        return isinstance(value, ast.Call) and "prepare_repo" in (getattr(value.func, "id", None),
                                                                  getattr(value.func, "attr", None))
    bound = [(node.optional_vars, node.context_expr) for node in ast.walk(function) if isinstance(node, ast.withitem)]
    bound += [(target, node.value) for node in ast.walk(function) if isinstance(node, ast.Assign)
              for target in node.targets]
    return {target.id for target, value in bound if isinstance(target, ast.Name) and calls_prepare_repo(value)}


def test_every_name_the_benchmark_reads_of_the_package_resolves():
    # the traced benchmark calls names that `analyze` does not call: each
    # attribute it reads of the package's modules and of a repository handle
    # must resolve, so that a name does not go before the benchmark's own run sees it
    from cefr_progress import catalog, history, report

    owners = {"catalog": catalog, "history": history, "scoring": scoring, "report": report}
    root = Path(__file__).resolve().parent.parent
    read = set()
    for name in ("tracing.py", "run.py"):
        tree = ast.parse((root / "perfbench" / name).read_text(encoding="utf-8"))
        read |= {chain for chain in _chains(tree) if chain[0] in owners}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                handles = _repo_handles(function)
                read |= {("history", "Repo", *chain[1:]) for chain in _chains(function) if chain[0] in handles}
    assert {("history", "extract_commits"), ("scoring", "build_report"), ("history", "Repo", "read_blob"),
            ("history", "Repo", "close")} <= read
    unresolved = []
    for chain in sorted(read):
        owner = owners[chain[0]]
        for attribute in chain[1:]:
            if not hasattr(owner, attribute):
                unresolved.append(".".join(chain))
                break
            owner = getattr(owner, attribute)
    assert unresolved == []


#: kinds that one node type always emits, and those node types
_ONE_NODE_KINDS = {
    "import_statement": (ast.Import, ast.ImportFrom),
    "function_call": (ast.Call,),
    "lambda_expression": (ast.Lambda,),
    "for_statement": (ast.For, ast.AsyncFor),
    "while_statement": (ast.While,),
    "function_definition": (ast.FunctionDef, ast.AsyncFunctionDef),
    "async_function": (ast.AsyncFunctionDef,),
    "class_definition": (ast.ClassDef,),
    "return_statement": (ast.Return,),
    "break_statement": (ast.Break,),
    "continue_statement": (ast.Continue,),
    "try_except": (ast.Try, getattr(ast, "TryStar", ast.Try)),
    "with_statement": (ast.With, ast.AsyncWith),
    "raise_statement": (ast.Raise,),
    "global_declaration": (ast.Global,),
    "nonlocal_declaration": (ast.Nonlocal,),
    "assert_statement": (ast.Assert,),
    "augmented_assignment": (ast.AugAssign,),
    "comparison_expression": (ast.Compare,),
    "dict_literal": (ast.Dict,),
    "set_literal": (ast.Set,),
    "list_comprehension": (ast.ListComp,),
    "dict_comprehension": (ast.DictComp,),
    "set_comprehension": (ast.SetComp,),
    "generator_expression": (ast.GeneratorExp,),
    "conditional_expression": (ast.IfExp,),
    "yield_from": (ast.YieldFrom,),
    "await_expression": (ast.Await,),
}


@pytest.fixture(scope="module")
def stdlib_sample():
    """(path, source) of every 35th stdlib module: a fixed selection of real code."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    modules = sorted(
        path for path in stdlib.rglob("*.py") if "site-packages" not in path.relative_to(stdlib).parts
    )
    return [(path, path.read_text(encoding="utf-8", errors="replace")) for path in modules[::35]]


def test_one_node_kinds_match_ast_walk_on_stdlib(stdlib_sample):
    compared = 0
    for path, source in stdlib_sample:
        try:
            kinds = Counter(kind for kind, _line in count_constructs(source))
        except ParseError:
            continue
        nodes = Counter(type(node) for node in ast.walk(ast.parse(source)))
        for kind, node_types in _ONE_NODE_KINDS.items():
            assert kinds[kind] == sum(nodes[t] for t in set(node_types)), (path, kind)
        compared += 1
    assert compared >= 40


#: Node types a skipped field may hold: singletons that can emit no kind.
_SINGLETONS = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop)


def test_skipped_fields_hold_no_nodes_on_stdlib(stdlib_sample):
    checked = 0
    for path, source in stdlib_sample:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            descended = set(_CHILD_FIELDS.get(type(node), ()))
            for field in set(node._fields) - descended:
                value = getattr(node, field, None)
                for item in value if isinstance(value, list) else [value]:
                    assert not isinstance(item, ast.AST) or isinstance(item, _SINGLETONS), (
                        path, type(node).__name__, field, type(item).__name__)
        checked += 1
    assert checked >= 40


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _nested_defs(tree):
    """(name, line) of each def and lambda in a def's or lambda's body or anywhere
    in a comprehension: the only ones that can have a free variable."""
    nested = set()
    stack = [(tree, False)]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, _DEFS):
            if inside:
                nested.add((getattr(node, "name", "lambda"), node.lineno))
            body = node.body if isinstance(node.body, list) else [node.body]
            stack.extend((child, True) for child in body)
            # decorators, defaults and annotations belong to the enclosing scope
            stack.extend(
                (child, inside) for child in ast.iter_child_nodes(node)
                if not any(child is stmt for stmt in body)
            )
        else:
            inside = inside or isinstance(node, _COMPREHENSION_NODES)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return nested


def symtable_closures(source):
    """The closure reference: the nested defs and lambdas whose symbol-table
    block has a free variable, sorted ``closure`` occurrences.

    Blocks are matched back to the defs by (name, line).  A comprehension's
    block has the implicit parameter ``.0``, which no def can declare, so it
    is never matched, even beside a def named ``listcomp``.  ``__class__``,
    the cell behind zero-argument ``super()``, is no capture.
    """
    nested = _nested_defs(ast.parse(source))
    found = []
    stack = [symtable.symtable(source, "<reference>", "exec")]
    while stack:
        block = stack.pop()
        stack.extend(block.get_children())
        if (isinstance(block, symtable.Function)
                and (block.get_name(), block.get_lineno()) in nested
                and ".0" not in block.get_parameters()
                and set(block.get_frees()) - {"__class__"}):
            found.append(("closure", block.get_lineno()))
    return sorted(found)


def _closures_of(source):
    return sorted(occ for occ in count_constructs(source) if occ[0] == "closure")


def test_closures_match_symtable_on_stdlib(stdlib_sample):
    compared = closures = 0
    for path, source in stdlib_sample:
        try:
            found = _closures_of(source)
        except ParseError:
            continue
        assert found == symtable_closures(source), path
        compared += 1
        closures += len(found)
    assert compared >= 40 and closures >= 50


#: One case per scope rule, each holding at least one def or lambda that the
#: rule makes a closure or keeps from being one.
_SCOPE_RULES = {
    "class_global_still_sees_function": (
        "def f():\n    x = 1\n    class C:\n        global x\n        def m(self):\n            return x\n"),
    "function_global_hides_binding": (
        "def f():\n    x = 1\n    def g():\n        global x\n        def h():\n            return x\n"),
    "nonlocal_alone_captures": "def f():\n    x = 1\n    def g():\n        nonlocal x\n",
    "nonlocal_in_class_body": (
        "def f():\n    x = 1\n    class C:\n        nonlocal x\n        def m(self):\n            return x\n"),
    "walrus_at_module_level_is_global": "fs = [lambda: last for x in xs if (last := x)]\n",
    "walrus_target_declared_global": (
        "def f(xs):\n    global last\n    return [lambda: last for x in xs if (last := x)]\n"),
    "walrus_in_nested_comprehension": "def f(xs):\n    return [[lambda: y for a in b if (y := a)] for c in xs]\n",
    "comprehension_variable_captured": "def f(x):\n    return [lambda: x for x in range(3)]\n",
    "first_iterable_runs_outside": "[x for x in (lambda a: lambda: a)(1)]\n",
    "first_iterable_cannot_see_comprehension": "def f():\n    return [y for y in (lambda: y)()]\n",
    "class_comprehension_sees_function": (
        "def f():\n    y = 1\n    class C:\n        z = [lambda: y for _ in range(2)]\n"),
    "defaults_run_outside": "def f(a):\n    def g(b=lambda: a):\n        return b\n    return g\n",
    "decorators_run_outside": "def f(a):\n    @(lambda fn: a)\n    def g(): pass\n",
    "annotations_run_outside": "def f(t):\n    def g():\n        def h(x: t) -> t: pass\n",
    "future_annotations_are_not_evaluated": (
        "from __future__ import annotations\n"
        "def f(t):\n    def g():\n        def h(x: t) -> t: pass\n        y: (lambda: t) = 1\n"),
    "future_import_after_docstring_is_a_future_statement": (
        '"""doc"""\nfrom __future__ import annotations\n'
        "def f(t):\n    def g():\n        def h(x: (lambda: t)): pass\n"),
    "parameter_shadows": "def f(x):\n    def g(x):\n        return x\n",
    "import_alias_binds": (
        "def f():\n    import os.path\n    import sys as system\n    from a import b as c\n"
        "    return lambda: (os, system, c)\n"),
    "except_name_binds": "def f():\n    try: pass\n    except E as err:\n        return lambda: err\n",
    "match_captures_bind": (
        "def f(v):\n    match v:\n        case [a, *rest]: return lambda: rest\n"
        "        case {'k': b, **others}: return lambda: others\n"
        "        case C(q) as whole: return lambda: whole\n"),
    "del_binds": "def f():\n    del x\n    return lambda: x\n",
    "bare_annotation_binds": "def f():\n    x: int\n    return lambda: x\n",
    "parenthesized_bare_annotation_does_not_bind": "def f():\n    (x): int\n    return lambda: x\n",
    "class_and_def_names_bind": (
        "def f():\n    class K: pass\n    def g(): pass\n    return lambda: (K, g)\n"),
    "super_is_no_capture": "class C:\n    def m(self):\n        return lambda: super().m()\n",
    "bound_class_cell_is_no_capture": "def f():\n    __class__ = 1\n    def g():\n        return __class__\n",
    "private_name_mangled_in_class": (
        "def f():\n    __x = 1\n    class C:\n        def m(self):\n            return __x\n"),
    "private_name_within_method": "class C:\n    def m(self):\n        __x = 1\n        return lambda: __x\n",
    "private_name_spelled_mangled": "class C:\n    def m(self):\n        _C__x = 1\n        return lambda: __x\n",
    "underscore_class_does_not_mangle": (
        "def f():\n    __x = 1\n    class _:\n        def m(self):\n            return __x\n"),
}


@pytest.mark.parametrize("source", _SCOPE_RULES.values(), ids=_SCOPE_RULES)
def test_closures_follow_the_scope_rules(source):
    assert _closures_of(source) == symtable_closures(source)


_NAMES = ("a", "b", "c")


@st.composite
def _expressions(draw, depth):
    """An expression over _NAMES, with lambdas, comprehensions and walrus targets."""
    kind = draw(st.sampled_from(("name", "lambda", "comprehension", "walrus", "pair") if depth else ("name",)))
    name = draw(st.sampled_from(_NAMES))
    if kind == "name":
        return name
    if kind == "lambda":
        params = draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True))
        return f"(lambda {', '.join(params)}: {draw(_expressions(depth - 1))})"
    if kind == "comprehension":
        element, iterable, condition = (draw(_expressions(depth - 1)) for _ in range(3))
        return f"[{element} for {name} in {iterable} if {condition}]"
    if kind == "walrus":
        return f"({name} := {draw(_expressions(depth - 1))})"
    return f"({draw(_expressions(depth - 1))}, {draw(_expressions(depth - 1))})"


@st.composite
def _block(draw, depth, indent="", in_def=False, first="def"):
    """Statements binding and reading _NAMES: nested defs (with defaults and
    decorators) and class bodies, global/nonlocal declarations, walrus targets."""
    lines = []
    keyword = draw(st.sampled_from((None, None, "global", "nonlocal"))) if indent else None
    if keyword:
        lines.append(f"{indent}{keyword} {draw(st.sampled_from(_NAMES))}")
    kinds = ("assign", "expression") + (("return",) if in_def else ()) + (("def", "class") if depth else ())
    for kind in [first] + draw(st.lists(st.sampled_from(kinds), max_size=2)):
        name = draw(st.sampled_from(_NAMES))
        value = draw(_expressions(max(depth, 1)))
        if kind == "assign":
            lines.append(f"{indent}{name} = {value}")
        elif kind == "expression":
            lines.append(f"{indent}{value}")
        elif kind == "return":
            lines.append(f"{indent}return {value}")
        elif kind == "class":
            lines.append(f"{indent}class {name}:")
            lines += draw(_block(depth - 1, indent + "    ", first="assign"))
        else:
            params = draw(st.lists(st.sampled_from(_NAMES), max_size=2, unique=True))
            if params and draw(st.booleans()):
                params[-1] += f"={value}"
            if draw(st.booleans()):
                lines.append(f"{indent}@{draw(_expressions(1))}")
            lines.append(f"{indent}def {name}({', '.join(params)}):")
            lines += draw(_block(max(depth - 1, 0), indent + "    ", in_def=True, first="return"))
    return lines


@settings(max_examples=200, deadline=None)
@given(_block(depth=3).map(lambda lines: "\n".join(lines) + "\n"))
def test_closures_match_symtable_on_generated_scopes(source):
    # every generated module opens with a def, so symtable alone decides the verdict
    try:
        expected = symtable_closures(source)
    except SyntaxError:
        with pytest.raises(ParseError):
            count_constructs(source)
        return
    assert _closures_of(source) == expected
