import ast
import inspect
import sysconfig
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cefr_progress.analyzer import (
    KIND_VOCABULARY,
    LevelVector,
    ParseError,
    analyze_source,
    count_constructs,
)
from cefr_progress.catalog import Catalog, ConstructRule, Level, default_catalog

from corpus import SNIPPETS

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
    assert labeled == KIND_VOCABULARY
    assert len(SNIPPETS) >= 20


def test_empty_source_is_zero_and_ok():
    result = analyze_source("", CATALOG)
    assert result.parse_ok
    assert result.vector == LevelVector.zero()
    assert result.occurrences == ()


def test_loop_branch_break_vector():
    result = analyze_source("for i in x:\n    if i:\n        break\n", CATALOG)
    assert result.vector.as_list() == [2, 0, 1, 0, 0, 0]


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
    assert result.vector == LevelVector.zero()
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
    assert result.vector.as_list() == counts


def test_unbound_nonlocal_is_a_parse_failure():
    # ast.parse alone accepts this; the compiler's scope pass rejects it
    result = analyze_source("def f():\n    nonlocal q\n", CATALOG)
    assert not result.parse_ok


def test_vector_counts_only_cataloged_kinds():
    small = Catalog("only-if", (ConstructRule("if_statement", Level.A1),))
    result = analyze_source("if a:\n    x = 1\n", small)
    assert result.vector.as_list() == [1, 0, 0, 0, 0, 0]
    assert result.unclassified_count == 1  # the assignment
    assert result.vector.total() + result.unclassified_count == len(result.occurrences)


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
        recount[CATALOG.classify(kind)] += 1
    assert recount == result.vector.as_list()


@settings(max_examples=60, deadline=None)
@given(
    a=st.sampled_from(SNIPPETS),
    b=st.sampled_from(SNIPPETS),
)
def test_additivity_over_concatenation(a, b):
    combined = analyze_source(a.source + b.source, CATALOG)
    va = analyze_source(a.source, CATALOG).vector
    vb = analyze_source(b.source, CATALOG).vector
    assert combined.vector == va + vb


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


def test_level_vector_validation():
    with pytest.raises(ValueError):
        LevelVector((1, 2, 3))
    with pytest.raises(ValueError):
        LevelVector((0, 0, -1, 0, 0, 0))


def test_level_vector_addition_and_total():
    a = LevelVector((1, 0, 2, 0, 0, 1))
    b = LevelVector((0, 3, 1, 0, 0, 0))
    assert (a + b).as_list() == [1, 3, 3, 0, 0, 1]
    assert (a + b).total() == 8
    assert a.c1_plus_c2() == 1


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


def test_one_node_kinds_match_ast_walk_on_stdlib():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    modules = sorted(
        path for path in stdlib.rglob("*.py") if "site-packages" not in path.relative_to(stdlib).parts
    )
    compared = 0
    # every 35th module: a fixed selection of real code
    for path in modules[::35]:
        source = path.read_text(encoding="utf-8", errors="replace")
        try:
            kinds = Counter(kind for kind, _line in count_constructs(source))
        except ParseError:
            continue
        nodes = Counter(type(node) for node in ast.walk(ast.parse(source)))
        for kind, node_types in _ONE_NODE_KINDS.items():
            assert kinds[kind] == sum(nodes[t] for t in set(node_types)), (path, kind)
        compared += 1
    assert compared >= 40
