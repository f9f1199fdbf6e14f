import pytest

from cefr_progress.analyzer import count_constructs
from cefr_progress.catalog import (
    Catalog,
    CatalogError,
    ConstructRule,
    Level,
    default_catalog,
    load_catalog,
    merge_catalogs,
    parse_catalog_text,
)

from corpus import SNIPPETS


def kinds(catalog):
    return {rule.kind for rule in catalog.rules}


def catalog_file_text(catalog):
    """`catalog` in the catalog file format of docs/catalog-format.md."""
    lines = [f"!version {catalog.version}"]
    lines += [f"{rule.kind} {rule.level.name} {rule.description}".rstrip() for rule in catalog.rules]
    return "\n".join(lines) + "\n"


def test_level_order_and_labels():
    assert list(Level) == [Level.A1, Level.A2, Level.B1, Level.B2, Level.C1, Level.C2]
    assert Level.A1 < Level.A2 < Level.B1 < Level.B2 < Level.C1 < Level.C2
    # label <-> ordinal is bijective
    assert {lvl.name for lvl in Level} == {"A1", "A2", "B1", "B2", "C1", "C2"}
    assert {lvl.value for lvl in Level} == set(range(6))
    for lvl in Level:
        assert Level.from_label(lvl.name) is lvl
    with pytest.raises(ValueError):
        Level.from_label("D1")


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
    assert default_catalog().classify(kind) is expected


def test_classify_unknown_kind_returns_none():
    assert default_catalog().classify("nonexistent_kind_xyz") is None


def test_classify_is_deterministic():
    cat = default_catalog()
    assert all(cat.classify("if_statement") is Level.A1 for _ in range(10))


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
    assert cat.classify("if_statement") is Level.A2
    # untouched entries keep their defaults
    assert cat.classify("break_statement") is Level.B1
    assert kinds(cat) == kinds(default_catalog())


def test_file_can_add_new_kinds(tmp_path):
    rules = tmp_path / "rules.cat"
    rules.write_text("walrus_operator B2 assignment expression\n")
    cat = load_catalog(rules)
    assert cat.classify("walrus_operator") is Level.B2
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
    assert cat.rules == (ConstructRule("if_statement", Level.B1, "because reasons"),)


def test_dump_parse_round_trip_default():
    cat = default_catalog()
    assert parse_catalog_text(catalog_file_text(cat)) == cat


def test_dump_load_round_trip_through_file(tmp_path):
    cat = default_catalog()
    path = tmp_path / "dumped.cat"
    path.write_text(catalog_file_text(cat), encoding="utf-8")
    assert load_catalog(path) == cat


def test_merge_preserves_base_order_and_appends_new():
    base = Catalog("base", (ConstructRule("a", Level.A1), ConstructRule("b", Level.B1)))
    override = Catalog("v2", (ConstructRule("b", Level.C2), ConstructRule("c", Level.A2)))
    merged = merge_catalogs(base, override)
    assert [r.kind for r in merged.rules] == ["a", "b", "c"]
    assert merged.classify("b") is Level.C2
    assert merged.version == "v2"


def test_duplicate_kinds_rejected_at_construction():
    with pytest.raises(CatalogError):
        Catalog("x", (ConstructRule("a", Level.A1), ConstructRule("a", Level.A2)))
