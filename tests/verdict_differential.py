"""Compare the analyzer's parse verdict with the compiler's.

Both checks hold ``analyze_source(text).parse_ok`` against whether
``compile(text, path, "exec", dont_inherit=True)`` accepts the text, with
warnings ignored:

* the case tables below, sources the parser accepts and the compiler may
  not: compile() must also give each the verdict its table states;
* every ``.py`` file of the running interpreter's standard library, with
  site-packages left out.  A file that ``blob_text`` finds no source text
  in is a difference too, so the count of files checked cannot shrink
  unseen.

Each difference is printed, and the exit status is 1 when there is one.  It
needs no pytest, so every installed interpreter can check its own grammar:

    python tests/verdict_differential.py
"""

from __future__ import annotations

import platform
import sys
import sysconfig
import textwrap
import warnings
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cefr_progress.analyzer import analyze_source, blob_text  # noqa: E402
from cefr_progress.catalog import default_catalog  # noqa: E402

def nested(*blocks: str, body: str = "pass") -> str:
    """`body` in `blocks`, the first outermost.  A block is a compound
    statement with "{}" on a line of its own where the next block goes."""
    text = body
    for block in reversed(blocks):
        text = block.replace("{}", textwrap.indent(text, "    "))
    return text + "\n"


def comprehensions(count: int, target: str = "x") -> str:
    """`count` nested list comprehensions, each binding `target` and its depth."""
    text = "a"
    for i in range(count):
        text = f"[{text} for {target}{i} in y]"
    return text


FOR = "for x in y:\n{}"
WHILE = "while x:\n{}"
HANDLER = "try:\n    pass\nexcept E:\n{}"
TRY_EXCEPT_FINALLY = "try:\n{}\nexcept E:\n    pass\nfinally:\n    pass"
LOOP_ELSE = "for x in y:\n    pass\nelse:\n{}"


#: Sources the parser accepts (on some grammar at least) and compile()
#: rejects, in its scope pass or in code generation.
REJECTED = {
    "global_after_assign": "def f():\n    x = 1\n    global x\n",
    "global_param": "def f(a):\n    global a\n",
    "nonlocal_unbound": "def f():\n    nonlocal q\n",
    "nonlocal_at_module_level": "def f(): pass\nnonlocal q\n",
    "walrus_rebinds_comprehension_var": "def f(): pass\n[i := 0 for i in range(3)]\n",
    "walrus_in_comprehension_iterable": "def f(): pass\n[x for x in (y := [1])]\n",
    "walrus_in_class_comprehension": "def f(): pass\nclass C:\n    [(y := 1) for x in range(3)]\n",
    "future_unknown_feature": "from __future__ import braces\ndef f(): pass\n",
    "future_annotation_yield": "from __future__ import annotations\ndef f(x: (yield)): pass\n",
    "star_import_in_def": "def f():\n    from os import *\n",
    "star_import_in_class": "def f(): pass\nclass C:\n    from os import *\n",
    "repeated_parameter": "def f(a, a): pass\n",
    "repeated_keyword_only": "def f(*, a, a): pass\n",
    "repeated_star_parameter": "def f(a, *a): pass\n",
    "repeated_lambda_parameter": "f = lambda a, a: 0\n",
    "yield_in_comprehension": "def f():\n    return [(yield) for x in y]\n",
    "yield_in_generator_expression": "def f():\n    return list((yield) for x in y)\n",
    "yield_from_in_comprehension": "def f():\n    return [(yield from x) for x in y]\n",
    "repeated_mangled_parameter": "class C:\n    def m(self, __x, _C__x): pass\n",
    "nonlocal_without_def": "nonlocal q\n",
    "walrus_rebind_without_def": "[i := 0 for i in range(3)]\n",
    "yield_in_comprehension_without_def": "[(yield) for x in y]\n",
    "late_future_import": "import os\nfrom __future__ import annotations\n",
    "future_import_in_def": "def f():\n    from __future__ import annotations\n",
    "future_import_after_leading_block": (
        "from __future__ import annotations\nx = 1\nfrom __future__ import division\n"),
    "future_import_after_statement_on_its_line": (
        "from __future__ import nested_scopes; import string; from __future__ import nested_scopes\n"),
    "break_at_module_level": "break\n",
    "break_in_if_outside_loop": "if x:\n    break\n",
    "continue_in_def": "def f():\n    continue\n",
    "break_in_loop_else": "for x in y:\n    pass\nelse:\n    break\n",
    "continue_in_while_else": "while x:\n    pass\nelse:\n    continue\n",
    "continue_in_def_in_loop": "for x in y:\n    def f():\n        continue\n",
    "break_in_class_in_loop": "while x:\n    class C:\n        break\n",
    "continue_in_except_star_in_loop": (
        "for x in y:\n    try:\n        pass\n    except* E:\n        continue\n"),
    "return_at_module_level": "return 1\n",
    "return_in_class_body": "class C:\n    return 1\n",
    "yield_at_module_level": "x = yield 1\n",
    "yield_in_class_body_in_def": "def f():\n    class C:\n        x = yield 1\n",
    "await_at_module_level": "await x\n",
    "yield_in_module_level_default": "def f(x=(yield 1)): pass\n",
    "await_in_def": "def f():\n    await x\n",
    "await_in_lambda": "f = lambda: await x\n",
    "await_in_lambda_in_async_def": "async def f():\n    return lambda: await x\n",
    "await_in_default_in_def": "def g():\n    async def f(a=await x): pass\n",
    "await_in_first_iterable_in_def": "def f():\n    return (x for x in await y)\n",
    "async_for_in_def": "def f():\n    async for x in y: pass\n",
    "async_with_in_def": "def f():\n    async with x: pass\n",
    "async_for_in_class_in_async_def": "async def f():\n    class C:\n        async for x in y: pass\n",
    "await_in_list_comprehension_in_def": "def f():\n    return [await x for y in z]\n",
    "await_in_set_comprehension_at_module_level": "s = {await x for y in z}\n",
    "async_comprehension_in_def": "def f():\n    return {x: 1 async for x in y}\n",
    "async_second_generator_in_def": "def f():\n    return [x for y in z async for x in y]\n",
    "nested_async_comprehension_in_def": "def f():\n    return [[x async for x in y] for y in z]\n",
    "async_comprehension_in_class_in_async_def": (
        "async def f():\n    class C:\n        s = [await x for x in y]\n"),
    "return_value_in_async_generator": "async def f():\n    yield 1\n    return 2\n",
    "return_none_before_yield_in_async_generator": (
        "async def f():\n    if x:\n        return None\n    yield 1\n"),
    "yield_from_in_async_def": "async def f():\n    yield from x\n",
    "two_starred_targets": "a, *b, *c = x\n",
    "lone_starred_target": "*a = b\n",
    "starred_target_after_300_targets": ", ".join(f"a{i}" for i in range(300)) + ", *b = c\n",
    "bare_except_before_another_handler": "try:\n    pass\nexcept:\n    pass\nexcept E:\n    pass\n",
    "debug_assigned": "__debug__ = 1\n",
    "debug_parameter": "def f(__debug__): pass\n",
    "debug_attribute_assigned": "x.__debug__ = 1\n",
    "debug_keyword": "f(__debug__=1)\n",
    "debug_import_alias": "import os as __debug__\n",
    "match_capture_before_another_case": "match x:\n    case y:\n        pass\n    case 1:\n        pass\n",
    "match_wildcard_before_another_case": "match x:\n    case _:\n        pass\n    case 1:\n        pass\n",
    "match_repeated_capture": "match x:\n    case [a, a]:\n        pass\n",
    "match_alternatives_bind_different_names": "match x:\n    case [a] | [b]:\n        pass\n",
    "match_duplicate_mapping_key": "match x:\n    case {\"k\": a, \"k\": b}:\n        pass\n",
    "return_in_except_star": "def f():\n    try:\n        pass\n    except* E:\n        return\n",
    "repeated_call_keyword": "f(a=1, a=2)\n",
    "repeated_class_keyword": "class C(metaclass=a, metaclass=b): pass\n",
    "twenty_two_nested_loops": nested(*[FOR] * 22),
    "eleven_nested_handlers": nested(*[HANDLER] * 11),
}

#: The same constructs where compile() accepts them.
ACCEPTED = {
    "global_declared_first": "def f():\n    global g\n    g = 1\n",
    "walrus_in_condition": "def f(): pass\nif (n := 1): pass\n",
    "future_annotations": "from __future__ import annotations\ndef f(x: int): pass\n",
    "star_import_at_module_level": "from os import *\ndef f(): pass\n",
    "yield_in_first_iterable": "def f():\n    return [x for x in (yield)]\n",
    "await_in_async_comprehension": "async def f(y):\n    return [await x for x in y]\n",
    "future_import_after_docstring": '"""doc"""\nfrom __future__ import annotations\n',
    "two_leading_future_imports": "from __future__ import annotations\nfrom __future__ import division\n",
    "yield_in_class_level_lambda": "class C:\n    f = lambda: (yield)\n",
    "yield_in_class_bases_in_def": "def f():\n    class C((yield)): pass\n",
    "await_in_generator_expression_in_def": "def f():\n    return (await x for y in z)\n",
    "await_in_generator_expression_at_module_level": "g = (await x for y in z)\n",
    "async_generator_expression_in_lambda": "f = lambda: (x async for x in y)\n",
    "async_for_and_with_in_async_def": "async def f():\n    async with a:\n        async for x in y: pass\n",
    "await_in_default_in_async_def": "async def g():\n    def f(a=await x): pass\n",
    "bare_return_in_async_generator": "async def f():\n    yield 1\n    return\n",
    "return_value_in_def_in_async_generator": "async def f():\n    yield 1\n    def g():\n        return 2\n",
    "return_value_in_async_def": "async def f():\n    return 2\n",
    "future_imports_sharing_a_line": "from __future__ import annotations; from __future__ import division\n",
    "break_in_if_in_loop": "for x in y:\n    if x:\n        break\n    elif y:\n        continue\n    else:\n        break\n",
    "break_in_with_in_loop": "while x:\n    with a:\n        break\n",
    "break_in_try_in_loop": (
        "for x in y:\n    try:\n        break\n    except E:\n        continue\n    else:\n        break\n"),
    "continue_in_finally_in_loop": "for x in y:\n    try:\n        pass\n    finally:\n        continue\n",
    "break_in_match_in_loop": "for x in y:\n    match x:\n        case 1:\n            break\n",
    "break_in_async_for": "async def f():\n    async for x in y:\n        break\n",
    "break_in_inner_loop_else": "for a in b:\n    for x in y:\n        pass\n    else:\n        break\n",
    "starred_list_target": "[*a] = b\n",
    "starred_target_after_one": "a, *b = c\n",
    "two_double_starred_arguments": "f(**a, **b)\n",
    "bare_except_last": "try:\n    pass\nexcept E:\n    pass\nexcept:\n    pass\n",
    "twenty_nested_blocks": nested(*[FOR] * 10, *[WHILE] * 5, "with a, b:\n{}", *["with a:\n{}"] * 3),
    "ten_nested_handlers": nested(*[HANDLER] * 10),
    "twenty_nested_blocks_in_a_def_in_nineteen": nested(*[FOR] * 19, "def f():\n{}", *[WHILE] * 20),
    "nested_loop_else_blocks": nested(*[LOOP_ELSE] * 25),
    "deep_annotation_under_future_annotations": (
        f"from __future__ import annotations\nx: {comprehensions(21)}\n"),
    "deep_local_annotation_under_future_annotations": (
        f"from __future__ import annotations\ndef f():\n    x: {comprehensions(21)}\n"),
}

#: Statically nested blocks past the compiler's limit on Python 3.10-3.12,
#: which 3.13 takes: 21 blocks in one module or def body.  A
#: try-except-finally's body is two blocks deep.
UP_TO_3_12 = {
    "twenty_one_nested_loops": nested(*[FOR] * 21),
    "twenty_one_with_items": "with " + ", ".join(f"a{i}" for i in range(21)) + ":\n    pass\n",
    "twenty_one_nested_loops_in_a_def": nested("def f():\n{}", *[WHILE] * 21),
    "ten_try_except_finally_bodies": nested(*[TRY_EXCEPT_FINALLY] * 10),
}

#: Comprehensions holding an asynchronous one, and except* blocks (a loop
#: inside one, a break in a try*'s else), which the compiler accepts from
#: Python 3.11 on.
FROM_3_11 = {
    "async_comprehension_in_generator_expression_in_def": (
        "def f():\n    return ([x async for x in y] for y in z)\n"),
    "nested_async_comprehension_in_async_def": "async def f():\n    return [[x async for x in y] for y in z]\n",
    "loop_in_except_star": (
        "for x in y:\n    try:\n        pass\n    except* E:\n        for z in w:\n            break\n"),
    "break_in_try_star_else_in_loop": (
        "for x in y:\n    try:\n        pass\n    except* E:\n        pass\n    else:\n        break\n"),
}

#: PEP 695 sources, which parse from Python 3.12 on and which compile() rejects.
FROM_3_12 = {
    "yield_in_type_alias": "type A = (yield)\n",
    "await_in_type_alias": "type A = await x\n",
    "yield_in_type_var_bound": "def f[T: (yield)](): pass\n",
}

ASYNC_DEF, GENERATOR, WITH = "async def f():\n{}", "def f():\n    yield\n{}", "with c:\n{}"

#: name -> (source, the most exception handlers Python 3.12.1's compiler
#: keeps open at once in it), as probed.  That compiler crashes the
#: interpreter at 21, so `main` compiles none of these.
HANDLERS_3_12 = {
    "twenty_withs_in_an_async_def": (nested(ASYNC_DEF, *[WITH] * 20), 21),
    "nineteen_async_withs_in_an_async_def": (nested(ASYNC_DEF, *["async with c:\n{}"] * 19), 21),
    "eighteen_async_withs_in_an_async_def": (nested(ASYNC_DEF, *["async with c:\n{}"] * 18), 20),
    "twenty_with_items_in_an_async_def": (
        nested(ASYNC_DEF, "with " + ", ".join(f"c{i}" for i in range(20)) + ":\n{}"), 21),
    "twenty_withs_in_a_generator": (nested(GENERATOR, *[WITH] * 20), 21),
    "twenty_withs_in_a_def": (nested("def f():\n{}", *[WITH] * 20), 20),
    "twenty_one_comprehensions": (f"x = {comprehensions(21)}\n", 21),
    "comprehensions_that_bind_no_name": (f"x = {comprehensions(21, 'q.x')}\n", 0),
    "comprehensions_in_a_generator_expression": (f"x = ({comprehensions(20)} for q in y)\n", 21),
    "comprehensions_in_a_lambda": (f"x = lambda: {comprehensions(20)}\n", 20),
    "named_handler_in_an_async_def": (nested(ASYNC_DEF, "try:\n    pass\nexcept E as e:\n{}"), 3),
    "handler_in_a_try_finally": ("try:\n    pass\nexcept E:\n    pass\nfinally:\n    pass\n", 2),
    "await_in_an_async_def": ("async def f():\n    await x\n", 2),
    "async_for_in_an_async_def": ("async def f():\n    async for x in y:\n        pass\n", 3),
}
if sys.version_info >= (3, 11):
    HANDLERS_3_12["except_star_handler"] = ("try:\n    pass\nexcept* E:\n    pass\n", 2)

#: (name, source, whether compile() rejects it) for each case the running grammar can parse.
CASES = (
    [(name, source, True) for name, source in REJECTED.items()]
    + [(name, source, False) for name, source in ACCEPTED.items()]
    + [(name, source, sys.version_info < (3, 11)) for name, source in FROM_3_11.items()]
    + [(name, source, True) for name, source in FROM_3_12.items() if sys.version_info >= (3, 12)]
    + [(name, source, sys.version_info < (3, 13)) for name, source in UP_TO_3_12.items()]
)


def stdlib_files() -> list[Path]:
    """The running interpreter's standard library ``.py`` files, sorted, without site-packages."""
    root = Path(sysconfig.get_paths()["stdlib"])
    return sorted(path for path in root.rglob("*.py") if "site-packages" not in path.relative_to(root).parts)


def compiles(text: str, path: str = "<case>") -> bool:
    """Whether ``compile()`` accepts the text, whatever the warnings filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            compile(text, path, "exec", dont_inherit=True)
        except (SyntaxError, ValueError, RecursionError, MemoryError):
            return False
    return True


def differences(paths: list[Path]) -> list[tuple[Path, bool | None]]:
    """(path, parse_ok) for each file whose parse_ok differs from compile()'s
    verdict, and (path, None) for each file with no source text."""
    catalog = default_catalog()
    found = []
    for path in paths:
        text = blob_text(path.read_bytes())
        if text is None:
            found.append((path, None))
        elif (parse_ok := analyze_source(text, catalog).parse_ok) is not compiles(text, str(path)):
            found.append((path, parse_ok))
    return found


def main() -> int:
    catalog = default_catalog()
    wrong = 0
    for name, source, rejected in CASES:
        compiled = compiles(source)
        parse_ok = analyze_source(source, catalog).parse_ok
        if compiled is rejected or parse_ok is not compiled:
            wrong += 1
            verdict = "accepts" if compiled else "rejects"
            print(f"case {name}: parse_ok={parse_ok}, compile() {verdict} it, its table says it "
                  f"{'rejects' if rejected else 'accepts'} it")
    files = stdlib_files()
    found = differences(files)
    for path, parse_ok in found:
        if parse_ok is None:
            print(f"{path}: no source text (it has a NUL byte), so no verdict to compare")
            continue
        verdict = "rejects" if parse_ok else "accepts"
        print(f"{path}: parse_ok={parse_ok}, but compile() {verdict} it")
    print(f"Python {platform.python_version()}: {wrong} wrong of {len(CASES)} cases, "
          f"{len(found)} difference(s) in {len(files)} files")
    return 1 if wrong or found else 0


if __name__ == "__main__":
    sys.exit(main())
