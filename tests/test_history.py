import subprocess

import pytest

from cefr_progress.history import (
    CommitRecord,
    ContributorId,
    Repo,
    RepoError,
    RepoSpec,
    extract_commits,
    prepare_repo,
)

from conftest import ALICE, BOB, QUOTED_PATHS, GitFixture, KEEP_V1, KEEP_V2, UTIL_V1, UTIL_V2


def get_version(repo: Repo, path: str, sha: str) -> str | None:
    """Text of `path` at commit `sha`; None when absent there or binary."""
    try:
        repo.git("rev-parse", "--verify", "--quiet", f"{sha}^{{commit}}")
    except RepoError:
        raise RepoError("bad_sha", f"no such commit: {sha}") from None
    try:
        oid = repo.git("rev-parse", "--verify", "--quiet", f"{sha}:{path}").strip()
    except RepoError:
        return None
    data = repo.read_blob(oid)
    if data is None or b"\x00" in data:
        return None
    return data.decode("utf-8", errors="replace")


def group_by_contributor(commits: list[CommitRecord]) -> dict[ContributorId, list[CommitRecord]]:
    """Partition commits by anon_id, preserving commit order within each group."""
    groups: dict[str, list[CommitRecord]] = {}
    representatives: dict[str, ContributorId] = {}
    for record in commits:
        key = record.contributor.anon_id
        groups.setdefault(key, []).append(record)
        representatives.setdefault(key, record.contributor)
    return {representatives[key]: records for key, records in groups.items()}


@pytest.fixture(scope="module")
def linear_records(linear_repo):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        return extract_commits(repo)


def test_linear_history_commit_count_and_order(linear_records):
    assert len(linear_records) == 7
    timestamps = [r.timestamp for r in linear_records]
    assert timestamps == sorted(timestamps)
    assert all(len(r.sha) == 40 for r in linear_records)


def test_root_commit_has_no_parent_and_added_file(linear_records):
    root = linear_records[0]
    assert root.parent_sha is None
    assert [c.change_type for c in root.changes] == ["added"]
    change = root.changes[0]
    assert change.path == "util.py"
    assert change.before_text is None
    assert change.after_text == UTIL_V1


def test_non_python_commit_has_empty_changes(linear_records):
    notes = linear_records[3]
    assert notes.changes == ()


def test_modified_change_carries_both_texts(linear_records):
    second = linear_records[1]
    (change,) = second.changes
    assert change.change_type == "modified"
    assert change.before_text == UTIL_V1
    assert change.after_text == UTIL_V2


def test_modified_texts_match_get_version(linear_repo, linear_records):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        for record in linear_records:
            for change in record.changes:
                if change.change_type == "modified":
                    assert change.before_text == get_version(repo, change.path, record.parent_sha)
                    assert change.after_text == get_version(repo, change.path, record.sha)


def test_get_version_absent_before_creation(linear_repo, linear_records):
    gen_commit = linear_records[2]
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        assert get_version(repo, "gen.py", gen_commit.sha) is not None
        assert get_version(repo, "gen.py", gen_commit.parent_sha) is None


def test_get_version_bad_sha(linear_repo):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        with pytest.raises(RepoError) as err:
            get_version(repo, "util.py", "0" * 40)
        assert err.value.kind == "bad_sha"


def test_binary_blob_reads_as_absent(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    binary_adds = [c for r in records for c in r.changes if c.path == "img.py"]
    assert binary_adds and binary_adds[0].after_text is None


def test_extract_commits_deterministic(linear_repo, linear_records):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        assert extract_commits(repo) == linear_records


def test_anon_ids_are_stable_hex_and_injective(linear_records):
    ids = {r.contributor.anon_id for r in linear_records}
    emails = {r.contributor.raw_email.strip().lower() for r in linear_records}
    assert len(ids) == len(emails) == 4
    for anon in ids:
        assert len(anon) == 8
        assert all(ch in "0123456789abcdef" for ch in anon)
    assert ContributorId.from_identity(*ALICE).anon_id == ContributorId.from_identity(*ALICE).anon_id


def test_email_case_variants_share_an_identity():
    upper = ContributorId.from_identity("Carla", "CARLA@Example.COM")
    lower = ContributorId.from_identity("Carla", "carla@example.com")
    assert upper.anon_id == lower.anon_id


def test_group_by_contributor_is_a_partition(linear_records):
    groups = group_by_contributor(linear_records)
    assert sum(len(g) for g in groups.values()) == len(linear_records)
    assert len(groups) == 4
    flattened = [r.sha for grp in groups.values() for r in grp]
    assert sorted(flattened) == sorted(r.sha for r in linear_records)
    for grp in groups.values():
        stamps = [r.timestamp for r in grp]
        assert stamps == sorted(stamps)


def test_group_by_contributor_merges_email_case(linear_records):
    groups = group_by_contributor(linear_records)
    carla_groups = [g for ident, g in groups.items() if "carla" in ident.raw_email.lower()]
    assert len(carla_groups) == 1
    assert len(carla_groups[0]) == 2


def test_group_by_contributor_empty_input():
    assert group_by_contributor([]) == {}


def test_merge_commits_are_skipped(merge_repo):
    with prepare_repo(RepoSpec(str(merge_repo))) as repo:
        records = extract_commits(repo)
        parents = {
            r.sha: repo.git("rev-list", "--parents", "-n", "1", r.sha).split()[1:]
            for r in records
        }
    assert len(records) == 3
    assert all(len(p) <= 1 for p in parents.values())


def test_commit_after_merge_diffs_against_merge_parent(merge_repo):
    with prepare_repo(RepoSpec(str(merge_repo))) as repo:
        records = extract_commits(repo)
    last = records[-1]
    (change,) = last.changes
    assert change.path == "b.py"
    assert change.change_type == "modified"
    assert change.before_text == "def helper():\n    return [v for v in data]\n"


def test_clean_rename_is_a_modification_with_old_text(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[1].changes
    assert change.change_type == "renamed"
    assert change.path == "core.py"
    assert change.old_path == "tool.py"
    assert change.before_text == change.after_text == "tools = {'a': 1}\n"


def test_edited_rename_keeps_before_from_old_path(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[2].changes
    assert change.change_type == "renamed"
    assert (change.path, change.old_path) == ("kept.py", "keep.py")
    assert change.before_text == KEEP_V1
    assert change.after_text == KEEP_V2


def test_deletion_has_no_after_text(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[3].changes
    assert change.change_type == "deleted"
    assert change.path == "junk.py"
    assert change.after_text is None
    assert change.before_text == "junk = [1, 2]\n"


def test_rename_out_of_python_counts_as_deletion(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[6].changes
    assert change.change_type == "deleted"
    assert change.path == "extra.py"
    assert change.before_text == "flag = True\n"


def test_unicode_and_spaced_paths(tmp_path):
    fx = GitFixture(tmp_path / "repo")
    fx.write("weird name äöü.py", "x = 1\n")
    fx.commit(ALICE, "2022-01-01T00:00:00Z", "unicode path")
    fx.move("weird name äöü.py", "renamed ß.py")
    fx.commit(ALICE, "2022-02-01T00:00:00Z", "rename it")
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        records = extract_commits(repo)
    (added,) = records[0].changes
    assert added.path == "weird name äöü.py"
    assert added.after_text == "x = 1\n"
    (renamed,) = records[1].changes
    assert renamed.change_type == "renamed"
    assert (renamed.path, renamed.old_path) == ("renamed ß.py", "weird name äöü.py")


def test_quoted_paths_come_back_verbatim(quoted_repo):
    weird, tab, newline, accent, renamed_tab, renamed_newline = QUOTED_PATHS
    with prepare_repo(RepoSpec(str(quoted_repo))) as repo:
        records = extract_commits(repo)
        seen = []
        for record in records:
            for change in record.changes:
                seen.append((change.change_type, change.old_path, change.path))
                if change.change_type != "added":
                    before_path = change.old_path or change.path
                    assert change.before_text == get_version(repo, before_path, record.parent_sha)
                    assert change.before_text
                if change.change_type != "deleted":
                    assert change.after_text == get_version(repo, change.path, record.sha)
                    assert change.after_text
    assert seen == [
        ("added", None, weird),
        ("added", None, tab),
        ("added", None, newline),
        ("added", None, accent),
        ("modified", None, weird),
        ("modified", None, accent),
        ("renamed", tab, renamed_tab),
        ("renamed", newline, renamed_newline),
        ("deleted", None, weird),
        ("deleted", None, accent),  # renamed out of .py
    ]


def test_committer_identity_mode(tmp_path):
    fx = GitFixture(tmp_path / "repo")
    fx.write("a.py", "a = 1\n")
    fx.run(
        "add", "-A",
    )
    fx.run(
        "commit", "-q", "-m", "authored by alice, committed by bob",
        env_extra={
            "GIT_AUTHOR_NAME": ALICE[0],
            "GIT_AUTHOR_EMAIL": ALICE[1],
            "GIT_AUTHOR_DATE": "2021-01-01T00:00:00Z",
            "GIT_COMMITTER_NAME": BOB[0],
            "GIT_COMMITTER_EMAIL": BOB[1],
            "GIT_COMMITTER_DATE": "2021-06-01T00:00:00Z",
        },
    )
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        by_author = extract_commits(repo, identity="author")
        by_committer = extract_commits(repo, identity="committer")
    assert by_author[0].contributor.raw_email == ALICE[1]
    assert by_committer[0].contributor.raw_email == BOB[1]
    # period bucketing uses the author timestamp in either mode
    assert by_author[0].timestamp == by_committer[0].timestamp


def test_prepare_repo_local_passthrough(linear_repo):
    repo = prepare_repo(RepoSpec(str(linear_repo)))
    assert repo.path == linear_repo


def test_prepare_repo_nonexistent_path(tmp_path):
    with pytest.raises(RepoError) as err:
        prepare_repo(RepoSpec(str(tmp_path / "missing")))
    assert err.value.kind == "clone_failed"


def test_prepare_repo_non_repo_directory(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepoError) as err:
        prepare_repo(RepoSpec(str(plain)))
    assert err.value.kind == "clone_failed"


def test_prepare_repo_clones_urls_and_reuses_cache(linear_repo, tmp_path):
    url = f"file://{linear_repo}"
    spec = RepoSpec(url, workdir=tmp_path / "cache")
    first = prepare_repo(spec)
    assert first.path.is_relative_to(tmp_path / "cache")
    with first:
        assert len(extract_commits(first)) == 7
    marker = first.path / "marker.txt"
    marker.write_text("cached\n")
    second = prepare_repo(spec)
    assert second.path == first.path
    assert marker.exists()


def test_prepare_repo_cache_env_var(linear_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(tmp_path / "envcache"))
    repo = prepare_repo(RepoSpec(f"file://{linear_repo}"))
    assert repo.path.is_relative_to(tmp_path / "envcache")


def test_prepare_repo_unreachable_url(tmp_path):
    spec = RepoSpec("file:///definitely/not/there.git", workdir=tmp_path)
    with pytest.raises(RepoError) as err:
        prepare_repo(spec)
    assert err.value.kind == "clone_failed"


def test_prepare_repo_rejects_shallow_clone(linear_repo, tmp_path):
    shallow = tmp_path / "shallow"
    subprocess.run(
        ["git", "clone", "-q", "--depth", "1", f"file://{linear_repo}", str(shallow)],
        check=True,
        capture_output=True,
    )
    with pytest.raises(RepoError) as err:
        prepare_repo(RepoSpec(str(shallow)))
    assert err.value.kind == "shallow"


def test_missing_git_binary_is_a_repo_error(linear_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RepoError) as err:
        prepare_repo(RepoSpec(str(linear_repo)))
    assert err.value.kind == "git_missing"
    with pytest.raises(RepoError) as err:
        Repo(linear_repo).read_blob("0" * 40)
    assert err.value.kind == "git_missing"


def test_empty_repository_raises(tmp_path):
    GitFixture(tmp_path / "empty")
    with pytest.raises(RepoError) as err:
        with prepare_repo(RepoSpec(str(tmp_path / "empty"))) as repo:
            extract_commits(repo)
    assert err.value.kind == "empty"


def test_records_only_contain_python_changes(linear_records, merge_repo, rename_repo):
    for repo_path in (merge_repo, rename_repo):
        with prepare_repo(RepoSpec(str(repo_path))) as repo:
            records = extract_commits(repo)
        for record in records:
            for change in record.changes:
                assert change.path.endswith(".py")
    for record in linear_records:
        for change in record.changes:
            assert change.path.endswith(".py")
