import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cefr_progress.analyzer import count_constructs
from cefr_progress.catalog import (
    LEVEL_LABELS,
    CatalogError,
    Level,
    default_catalog,
    load_catalog,
    parse_catalog_text,
)
from cefr_progress.cli import main

from conftest import child_env
from corpus import SNIPPETS

DOCS = Path(__file__).resolve().parent.parent / "docs"


def kinds(catalog):
    return set(catalog.levels)


def catalog_file_text(catalog):
    """`catalog` in the catalog file format of docs/catalog-format.md."""
    lines = [f"!version {catalog.version}"]
    lines += [f"{kind} {level.name}" for kind, level in catalog.levels.items()]
    return "\n".join(lines) + "\n"


def test_level_order_and_labels():
    assert list(Level) == [Level.A1, Level.A2, Level.B1, Level.B2, Level.C1, Level.C2]
    assert Level.A1 < Level.A2 < Level.B1 < Level.B2 < Level.C1 < Level.C2
    # label <-> ordinal is bijective
    assert {lvl.name for lvl in Level} == {"A1", "A2", "B1", "B2", "C1", "C2"}
    assert {lvl.value for lvl in Level} == set(range(6))
    assert LEVEL_LABELS == ("A1", "A2", "B1", "B2", "C1", "C2")


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("if_statement", Level.A1),
        ("nested_list", Level.A2),
        ("break_statement", Level.B1),
        ("list_comprehension", Level.B2),
        ("generator_function", Level.C1),
        ("metaclass", Level.C2),
    ],
)
def test_default_catalog_seed_entries(kind, expected):
    assert default_catalog().levels.get(kind) is expected


def test_classify_unknown_kind_returns_none():
    assert default_catalog().levels.get("nonexistent_kind_xyz") is None


def test_classify_is_deterministic():
    cat = default_catalog()
    assert all(cat.levels.get("if_statement") is Level.A1 for _ in range(10))


def test_default_catalog_covers_analyzer_vocabulary():
    # the hand-labelled corpus makes the analyzer emit every kind it has
    emitted = {kind for snippet in SNIPPETS for kind, _line in count_constructs(snippet.source)}
    cat = default_catalog()
    missing = emitted - kinds(cat)
    assert not missing, f"analyzer kinds without default rules: {sorted(missing)}"
    unused = kinds(cat) - emitted
    assert not unused, f"default rules the analyzer never emits: {sorted(unused)}"


def test_load_catalog_without_path_is_default():
    assert load_catalog(None) == default_catalog()
    assert load_catalog() == default_catalog()


def test_file_overrides_default_level(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("# push branching up one band\nif_statement A2\n")
    cat = load_catalog(rules)
    assert cat.levels.get("if_statement") is Level.A2
    # untouched entries keep their defaults
    assert cat.levels.get("break_statement") is Level.B1
    assert kinds(cat) == kinds(default_catalog())


def test_file_can_add_new_kinds(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("walrus_operator B2 assignment expression\n")
    cat = load_catalog(rules)
    assert cat.levels.get("walrus_operator") is Level.B2
    assert kinds(cat) == kinds(default_catalog()) | {"walrus_operator"}


def test_malformed_file_raises_parse_error(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(rules)
    assert err.value.kind == "parse"


def test_unknown_level_raises_parse_error(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement Z9\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(rules)
    assert err.value.kind == "parse"


def test_duplicate_kind_in_file_raises(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement A1\nif_statement A2\n")
    with pytest.raises(CatalogError) as err:
        load_catalog(rules)
    assert err.value.kind == "duplicate"


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(CatalogError) as err:
        load_catalog(tmp_path / "nope.cat")
    assert err.value.kind == "io"


def test_comments_blank_lines_and_version_directive():
    text = "# a comment\n\n!version custom-7\nif_statement B1 because reasons\n"
    cat = parse_catalog_text(text)
    assert cat.version == "custom-7"
    assert cat.levels == {"if_statement": Level.B1}  # the free text is ignored


def test_dump_parse_round_trip_default():
    cat = default_catalog()
    assert parse_catalog_text(catalog_file_text(cat)) == cat


def test_dump_load_round_trip_through_file(tmp_path):
    cat = default_catalog()
    path = tmp_path / "dumped.cat"
    path.write_text(catalog_file_text(cat), encoding="utf-8")
    assert load_catalog(path) == cat


def test_merge_preserves_base_order_and_appends_new(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("!version v2\nwalrus_operator A2\nbreak_statement C2\n")
    merged = load_catalog(rules)
    default = default_catalog().levels
    assert list(merged.levels) == [*default, "walrus_operator"]
    assert merged.levels == {**default, "break_statement": Level.C2, "walrus_operator": Level.A2}
    assert merged.version == "v2"


def test_a_loaded_catalog_survives_pickling(tmp_path):
    # a catalog goes to worker processes by pickle
    rules = tmp_path / "rules.cat"
    rules.write_text("if_statement C2\nwalrus_operator B2\n")
    cat = load_catalog(rules)
    assert pickle.loads(pickle.dumps(cat)) == cat
    assert pickle.loads(pickle.dumps(cat)).levels.get("walrus_operator") is Level.B2


def test_the_documented_default_vocabulary_is_the_default_catalog():
    section = (DOCS / "catalog-format.md").read_text(encoding="utf-8").split("\n## Default vocabulary\n", 1)[1]
    documented = {}
    for row in section.splitlines():  # | A1 | `simple_assignment` `if_statement` ... |
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip() in LEVEL_LABELS:
            documented.update((name.strip("`"), Level[cells[1].strip()]) for name in cells[2].split())
    assert documented == default_catalog().levels


@pytest.mark.parametrize("text", ["if_statement C2\n", "# my rules\nif_statement C2\n"])
def test_a_catalog_file_may_start_with_a_bom(text, tmp_path, capsys):
    # the BOM is no part of the first line, neither of a kind nor of a comment
    rules = tmp_path / "rules.cat"
    rules.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
    cat = load_catalog(rules)
    assert cat.levels.get("if_statement") is Level.C2
    assert kinds(cat) == kinds(default_catalog())
    target = tmp_path / "a.py"
    target.write_text("if x:\n    pass\n")
    assert main(["classify", str(target), "--catalog", str(rules)]) == 0
    assert json.loads(capsys.readouterr().out)["levels"]["C2"] == 1


def classify_levels(rules, tmp_path, capsys):
    """`classify --catalog rules` on a file with one `if`: its exit code and its level counts."""
    target = tmp_path / "a.py"
    target.write_text("if x:\n    pass\n")
    code = main(["classify", str(target), "--catalog", str(rules)])
    out = capsys.readouterr().out
    return code, json.loads(out)["levels"] if code == 0 else None


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"])
def test_only_a_newline_ends_a_catalog_line(separator, tmp_path, capsys):
    # str.splitlines also breaks at these, which would cut the free text into a line of its own
    text = f"if_statement C2 branching{separator} more text\n"
    rules = tmp_path / "rules.cat"
    rules.write_text("# my rules\n" + text, encoding="utf-8")
    assert load_catalog(rules).levels.get("if_statement") is Level.C2
    assert classify_levels(rules, tmp_path, capsys) == (0, dict.fromkeys(LEVEL_LABELS[:5], 0) | {"C2": 1})
    with pytest.raises(CatalogError, match="^line 2: "):  # the line numbers count newlines only
        parse_catalog_text(text + "if_statement\n")


@pytest.mark.parametrize("directive", ["!version\tteam-1", "!version\t team-1"])
def test_the_version_directive_is_split_as_an_entry_is(directive, tmp_path, capsys):
    assert parse_catalog_text(directive + "\n").version == "team-1"
    rules = tmp_path / "rules.cat"
    rules.write_text(directive + "\nif_statement\tC2\n", encoding="utf-8")
    assert load_catalog(rules).version == "team-1"
    assert classify_levels(rules, tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("directive", ["!", "!version", "! version team-1", "!versions team-1", "!name team-1"])
def test_an_unknown_or_empty_directive_raises_parse_error(directive):
    with pytest.raises(CatalogError, match="unknown directive") as err:
        parse_catalog_text(directive + "\n")
    assert err.value.kind == "parse"


NOT_UTF8 = b"if_statement A2 caf\xe9\n"


def test_a_catalog_file_that_is_not_utf8_raises_parse_error(tmp_path):
    rules = tmp_path / "bad.cat"
    rules.write_bytes(NOT_UTF8)
    with pytest.raises(CatalogError) as err:
        load_catalog(rules)
    assert err.value.kind == "parse"


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_a_catalog_file_that_is_not_utf8_exits_3(command, linear_repo, tmp_path):
    rules = tmp_path / "bad.cat"
    rules.write_bytes(NOT_UTF8)
    target = tmp_path / "a.py"
    target.write_text("x = 1\n")
    plain = tmp_path / "plain"
    plain.mkdir()
    # a subject that can be read, then one that cannot: the catalog is loaded
    # first, so neither exit 4 (no file) nor exit 2 (no repository) comes first
    if command == "analyze":
        subjects = [[str(path), "--out", str(tmp_path / "o")] for path in (linear_repo, plain)]
    else:
        subjects = [[str(path)] for path in (target, tmp_path / "missing.py")]
    for subject in subjects:
        proc = subprocess.run([sys.executable, "-m", "cefr_progress", command, *subject, "--catalog", str(rules)],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 3
        assert proc.stderr.startswith("ERROR catalog error: ") and proc.stderr.count("\n") == 1, proc.stderr
