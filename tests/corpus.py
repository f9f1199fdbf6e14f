"""Hand-labeled snippet corpus for the analyzer.

Every snippet's expected occurrence list was worked out by hand from the
documented counting rules (one occurrence per matching syntax-tree node,
nested and overlapping matches all count).  The labels are the oracle:
the analyzer must reproduce them exactly, as (kind, line) multisets.
"""

from __future__ import annotations

from typing import NamedTuple


class Snippet(NamedTuple):
    name: str
    source: str
    expected: list[tuple[str, int]]


def _src(*lines: str) -> str:
    return "\n".join(lines) + "\n"


SNIPPETS: list[Snippet] = [
    Snippet(
        "assign",
        _src("x = 1"),
        [("simple_assignment", 1)],
    ),
    Snippet(
        "loop_branch_break",
        _src(
            "for i in xs:",
            "    if i:",
            "        break",
        ),
        [("for_statement", 1), ("if_statement", 2), ("break_statement", 3)],
    ),
    Snippet(
        "plain_generator",
        _src(
            "def g():",
            "    yield 1",
        ),
        [("function_definition", 1), ("generator_function", 1)],
    ),
    Snippet(
        "listcomp",
        _src("[i for i in ys]"),
        [("list_comprehension", 1)],
    ),
    Snippet(
        "if_elif_else",
        _src(
            "if a:",
            "    x = 1",
            "elif b:",
            "    x = 2",
            "else:",
            "    x = 3",
        ),
        [
            ("if_statement", 1),
            ("simple_assignment", 2),
            ("elif_clause", 3),
            ("simple_assignment", 4),
            ("else_clause", 6),
            ("simple_assignment", 6),
        ],
    ),
    Snippet(
        "while_else_continue",
        _src(
            "while n:",
            "    n -= 1",
            "    continue",
            "else:",
            "    done = True",
        ),
        [
            ("while_statement", 1),
            ("augmented_assignment", 2),
            ("continue_statement", 3),
            ("else_clause", 5),
            ("simple_assignment", 5),
        ],
    ),
    Snippet(
        "nested_list_grid",
        _src("grid = [[1, 2], [3, 4]]"),
        [
            ("simple_assignment", 1),
            ("list_literal", 1),
            ("list_literal", 1),
            ("list_literal", 1),
            ("nested_list", 1),
        ],
    ),
    Snippet(
        "container_literals",
        _src(
            'd = {"a": 1}',
            "s = {1, 2}",
            "t = (1, 2)",
        ),
        [
            ("simple_assignment", 1),
            ("dict_literal", 1),
            ("simple_assignment", 2),
            ("set_literal", 2),
            ("simple_assignment", 3),
            ("tuple_literal", 3),
        ],
    ),
    Snippet(
        "formatting",
        _src(
            'msg = f"{x}!"',
            'out = "{}".format(x)',
        ),
        [
            ("simple_assignment", 1),
            ("string_formatting", 1),
            ("simple_assignment", 2),
            ("function_call", 2),
            ("string_formatting", 2),
        ],
    ),
    Snippet(
        "param_forms",
        _src(
            "def f(a, b=1, *args, **kwargs):",
            "    return a",
        ),
        [
            ("function_definition", 1),
            ("default_parameter", 1),
            ("star_args_parameter", 1),
            ("kw_args_parameter", 1),
            ("return_statement", 2),
        ],
    ),
    Snippet(
        "swap_slice_aug",
        _src(
            "a, b = b, a",
            "xs[1:3] = ys[::2]",
            "n += 1",
        ),
        [
            ("simple_assignment", 1),
            ("tuple_unpacking", 1),
            ("tuple_literal", 1),
            ("simple_assignment", 2),
            ("slice_expression", 2),
            ("slice_expression", 2),
            ("augmented_assignment", 3),
        ],
    ),
    Snippet(
        "try_raise",
        _src(
            "try:",
            "    risky()",
            "except ValueError as e:",
            '    raise RuntimeError("bad") from e',
        ),
        [
            ("try_except", 1),
            ("function_call", 2),
            ("raise_statement", 4),
            ("function_call", 4),
        ],
    ),
    Snippet(
        "with_lambda",
        _src(
            "with open(p) as fh:",
            "    data = fh.read()",
            "key = lambda s: s.lower()",
        ),
        [
            ("with_statement", 1),
            ("function_call", 1),
            ("simple_assignment", 2),
            ("function_call", 2),
            ("simple_assignment", 3),
            ("lambda_expression", 3),
            ("function_call", 3),
        ],
    ),
    Snippet(
        "single_inheritance",
        _src(
            "class Dog(Animal):",
            "    def speak(self):",
            '        return "woof"',
        ),
        [
            ("class_definition", 1),
            ("class_inheritance", 1),
            ("function_definition", 2),
            ("return_statement", 3),
        ],
    ),
    Snippet(
        "comprehension_forms",
        _src(
            "pairs = {k: v for k, v in items}",
            "evens = {n for n in ns}",
            "gen = (c for c in cs)",
        ),
        [
            ("simple_assignment", 1),
            ("dict_comprehension", 1),
            ("tuple_unpacking", 1),
            ("simple_assignment", 2),
            ("set_comprehension", 2),
            ("simple_assignment", 3),
            ("generator_expression", 3),
        ],
    ),
    Snippet(
        "property_method",
        _src(
            "class Temp:",
            "    @property",
            "    def celsius(self):",
            "        return self._c",
        ),
        [
            ("class_definition", 1),
            ("decorator_application", 2),
            ("property_definition", 3),
            ("function_definition", 3),
            ("return_statement", 4),
        ],
    ),
    Snippet(
        "ternary_assert",
        _src(
            'status = "ok" if ready else "wait"',
            "assert x > 0",
        ),
        [
            ("simple_assignment", 1),
            ("conditional_expression", 1),
            ("assert_statement", 2),
            ("comparison_expression", 2),
        ],
    ),
    Snippet(
        "delegating_generator",
        _src(
            "def chain2(a, b):",
            "    yield from a",
            "    yield from b",
        ),
        [
            ("function_definition", 1),
            ("generator_function", 1),
            ("yield_from", 2),
            ("yield_from", 3),
        ],
    ),
    Snippet(
        "closure_counter",
        _src(
            "def counter():",
            "    total = 0",
            "    def bump():",
            "        nonlocal total",
            "        total += 1",
            "        return total",
            "    return bump",
        ),
        [
            ("function_definition", 1),
            ("simple_assignment", 2),
            ("function_definition", 3),
            ("closure", 3),
            ("nonlocal_declaration", 4),
            ("augmented_assignment", 5),
            ("return_statement", 6),
            ("return_statement", 7),
        ],
    ),
    Snippet(
        "context_manager_class",
        _src(
            "class Guard:",
            "    def __enter__(self):",
            "        return self",
            "    def __exit__(self, *exc):",
            "        return False",
        ),
        [
            ("class_definition", 1),
            ("context_manager_definition", 1),
            ("function_definition", 2),
            ("return_statement", 3),
            ("function_definition", 4),
            ("star_args_parameter", 4),
            ("return_statement", 5),
        ],
    ),
    Snippet(
        "multiple_inheritance_class",
        _src(
            "class Both(A, B):",
            "    pass",
        ),
        [
            ("class_definition", 1),
            ("class_inheritance", 1),
            ("multiple_inheritance", 1),
        ],
    ),
    Snippet(
        "metaclass_class",
        _src(
            "class Special(Base, metaclass=Meta):",
            "    pass",
        ),
        [
            ("class_definition", 1),
            ("class_inheritance", 1),
            ("metaclass", 1),
        ],
    ),
    Snippet(
        "descriptor_class",
        _src(
            "class Field:",
            "    def __get__(self, obj, owner):",
            "        return obj._v",
            "    def __set__(self, obj, value):",
            "        obj._v = value",
        ),
        [
            ("class_definition", 1),
            ("descriptor_definition", 1),
            ("function_definition", 2),
            ("return_statement", 3),
            ("function_definition", 4),
            ("simple_assignment", 5),
        ],
    ),
    Snippet(
        "async_fetch",
        _src(
            "async def fetch(url):",
            "    async with session.get(url) as r:",
            "        return await r.json()",
        ),
        [
            ("function_definition", 1),
            ("async_function", 1),
            ("with_statement", 2),
            ("function_call", 2),
            ("return_statement", 3),
            ("await_expression", 3),
            ("function_call", 3),
        ],
    ),
    Snippet(
        "dynamic_attrs",
        _src(
            "value = getattr(obj, name, None)",
            "setattr(obj, name, value)",
        ),
        [
            ("simple_assignment", 1),
            ("function_call", 1),
            ("dynamic_attribute", 1),
            ("function_call", 2),
            ("dynamic_attribute", 2),
        ],
    ),
    Snippet(
        "dunder_new",
        _src(
            "class Single:",
            "    def __new__(cls):",
            "        return super().__new__(cls)",
        ),
        [
            ("class_definition", 1),
            ("dunder_new_override", 1),
            ("function_definition", 2),
            ("return_statement", 3),
            ("function_call", 3),
            ("function_call", 3),
        ],
    ),
    Snippet(
        "imports_arithmetic",
        _src(
            "import os",
            "from math import sqrt",
            "total = price * qty + tax",
            "ok = total <= limit",
        ),
        [
            ("import_statement", 1),
            ("import_statement", 2),
            ("simple_assignment", 3),
            ("arithmetic_expression", 3),
            ("arithmetic_expression", 3),
            ("simple_assignment", 4),
            ("comparison_expression", 4),
        ],
    ),
    Snippet(
        "global_bump",
        _src(
            "counter = 0",
            "def bump_global():",
            "    global counter",
            "    counter = counter + 1",
        ),
        [
            ("simple_assignment", 1),
            ("function_definition", 2),
            ("global_declaration", 3),
            ("simple_assignment", 4),
            ("arithmetic_expression", 4),
        ],
    ),
    Snippet(
        "for_else_unpack",
        _src(
            "for k, v in pairs:",
            "    print(k)",
            "else:",
            "    print(v)",
        ),
        [
            ("for_statement", 1),
            ("tuple_unpacking", 1),
            ("function_call", 2),
            ("else_clause", 4),
            ("function_call", 4),
        ],
    ),
    Snippet(
        "async_ticker",
        _src(
            "async def ticker(n):",
            "    for i in range(n):",
            "        yield i",
        ),
        [
            ("function_definition", 1),
            ("async_function", 1),
            ("generator_function", 1),
            ("for_statement", 2),
            ("function_call", 2),
        ],
    ),
    Snippet(
        # the decorator runs in outer's frame, so the compiler makes outer
        # the generator, not inner
        "yield_in_decorator",
        _src(
            "def outer():",
            "    @(yield)",
            "    def inner(): pass",
        ),
        [
            ("function_definition", 1),
            ("generator_function", 1),
            ("decorator_application", 2),
            ("function_definition", 3),
        ],
    ),
    Snippet(
        "uncounted_statement",
        _src("pass"),
        [],
    ),
]
