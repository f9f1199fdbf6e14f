import calendar
import concurrent.futures
import io
import multiprocessing
import re
import subprocess
import threading

import pytest

from cefr_progress import history, walk
from cefr_progress.cli import main
from cefr_progress.history import (
    CommitRecord,
    ContributorId,
    Repo,
    RepoError,
    RepoSpec,
    extract_commits,
    prepare_repo,
)
from cefr_progress.walk import walk_history

from conftest import ALICE, BOB, QUOTED_PATHS, GitFixture, KEEP_V1, KEEP_V2, UTIL_V1, UTIL_V2


def get_version(repo: Repo, path: str, sha: str) -> str | None:
    """Text of `path` at commit `sha`; None when absent there or binary."""
    try:
        repo.git("rev-parse", "--verify", "--quiet", f"{sha}^{{commit}}")
    except RepoError:
        raise RepoError(f"no such commit: {sha}") from None
    try:
        oid = repo.git("rev-parse", "--verify", "--quiet", f"{sha}:{path}").strip()
    except RepoError:
        return None
    data = repo.read_blob(oid)
    if data is None or b"\x00" in data:
        return None
    return data.decode("utf-8", errors="replace")


def parent_of(repo: Repo, sha: str) -> str | None:
    """The first parent of commit `sha`; None for a root commit."""
    try:
        return repo.git("rev-parse", "--verify", "--quiet", f"{sha}^").strip()
    except RepoError:
        return None


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
    assert timestamps == sorted(timestamps, reverse=True)  # newest first, as the walk goes
    assert all(len(r.sha) == 40 for r in linear_records)


def test_root_commit_has_no_parent_and_added_file(linear_repo, linear_records):
    root = linear_records[-1]
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        assert parent_of(repo, root.sha) is None
    (change,) = root.changes
    assert change.path == "util.py"
    assert change.before_text is None
    assert change.after_text == UTIL_V1


def test_non_python_commit_has_empty_changes(linear_records):
    notes = linear_records[-4]
    assert notes.changes == ()


def test_modified_change_carries_both_texts(linear_records):
    second = linear_records[-2]
    (change,) = second.changes
    assert change.path == "util.py"
    assert change.before_text == UTIL_V1
    assert change.after_text == UTIL_V2


def test_modified_texts_match_get_version(linear_repo, linear_records):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        modified = 0
        for record in linear_records:
            parent = parent_of(repo, record.sha)
            for change in record.changes:
                before = get_version(repo, change.path, parent) if parent else None
                assert change.before_text == before
                assert change.after_text == get_version(repo, change.path, record.sha)
                modified += before is not None
    assert modified == 2


def test_get_version_absent_before_creation(linear_repo, linear_records):
    gen_commit = linear_records[-3]
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        assert get_version(repo, "gen.py", gen_commit.sha) is not None
        assert get_version(repo, "gen.py", parent_of(repo, gen_commit.sha)) is None


def test_get_version_bad_sha(linear_repo):
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        with pytest.raises(RepoError, match=f"^no such commit: {'0' * 40}$"):
            get_version(repo, "util.py", "0" * 40)


def test_binary_blob_reads_as_absent(rename_repo):
    # img.py is added as a binary blob: with no text on either side, the
    # change is left out, while its commit is still recorded
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    added_at = calendar.timegm((2019, 5, 5, 10, 0, 0))
    assert [r.changes for r in records if r.timestamp == added_at] == [()]


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
        assert stamps == sorted(stamps, reverse=True)


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
    last = records[0]  # the newest
    (change,) = last.changes
    assert change.path == "b.py"
    assert change.before_text == "def helper():\n    return [v for v in data]\n"
    assert change.after_text == "def helper():\n    return [v for v in data]\n\nextra = True\n"


def test_records_follow_the_first_parent_chain_whatever_the_dates(tmp_path):
    # the dates run backwards along the chain, and the merge is dated last
    fx = GitFixture(tmp_path / "repo")
    fx.write("a.py", "a = 1\n")
    fx.commit(ALICE, "2020-05-01T00:00:00Z", "one")
    fx.write("a.py", "a = 2\n")
    fx.commit(ALICE, "2020-04-01T00:00:00Z", "two")
    fx.run("branch", "side")
    fx.write("a.py", "a = 3\n")
    fx.commit(BOB, "2020-03-01T00:00:00Z", "three")
    fx.checkout("side")
    fx.write("s.py", "s = 1\n")
    side = fx.commit(BOB, "2020-03-15T00:00:00Z", "side")
    fx.checkout("main")
    merge = fx.merge("side", ALICE, "2030-01-01T00:00:00Z")
    fx.write("a.py", "a = 4\n")
    fx.commit(ALICE, "2020-02-01T00:00:00Z", "four")
    chain = fx.run("rev-list", "--first-parent", "HEAD").split()
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        records = extract_commits(repo)
    shas = [r.sha for r in records]
    assert shas == [sha for sha in chain if sha != merge]
    assert len(shas) == 4 and merge not in shas and side not in shas
    assert [change.after_text for r in records for change in r.changes] == [f"a = {i}\n" for i in range(4, 0, -1)]


def test_empty_author_name_keeps_the_fields_after_it(tmp_path):
    # git logs the nameless author as an empty field
    fx = GitFixture(tmp_path / "repo")
    commits = [("author <a@x> 1577836800 +0000", "x = 0\n"), ("author Bob <b@x> 1577923200 +0000", "x = 1\n")]
    stream = "".join(
        f"commit refs/heads/main\n{author}\ncommitter c <c@x> 1577836800 +0000\ndata 1\n.\n"
        f"M 100644 inline a.py\ndata {len(text)}\n{text}\n"
        for author, text in commits
    )
    subprocess.run(
        ["git", "-C", str(fx.path), "fast-import", "--quiet"], input=stream.encode(), check=True, capture_output=True,
    )
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        records = extract_commits(repo)
    assert [(r.contributor.raw_name, r.contributor.raw_email, r.timestamp) for r in records] == [
        ("Bob", "b@x", 1577923200), ("", "a@x", 1577836800),
    ]
    assert [change.after_text for r in records for change in r.changes] == ["x = 1\n", "x = 0\n"]


def test_clean_rename_is_a_modification_with_old_text(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
        parent = parent_of(repo, records[-2].sha)
        # the before text is the old path's: the new one does not exist yet
        assert get_version(repo, "tool.py", parent) == "tools = {'a': 1}\n"
        assert get_version(repo, "core.py", parent) is None
    (change,) = records[-2].changes
    assert change.path == "core.py"
    assert change.before_text == change.after_text == "tools = {'a': 1}\n"


def test_edited_rename_keeps_before_from_old_path(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
        parent = parent_of(repo, records[-3].sha)
        assert get_version(repo, "keep.py", parent) == KEEP_V1
        assert get_version(repo, "kept.py", parent) is None
    (change,) = records[-3].changes
    assert change.path == "kept.py"
    assert change.before_text == KEEP_V1
    assert change.after_text == KEEP_V2


def test_deletion_has_no_after_text(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[-4].changes
    assert change.path == "junk.py"
    assert change.after_text is None
    assert change.before_text == "junk = [1, 2]\n"


def test_rename_out_of_python_counts_as_deletion(rename_repo):
    with prepare_repo(RepoSpec(str(rename_repo))) as repo:
        records = extract_commits(repo)
    (change,) = records[-7].changes
    assert change.path == "extra.py"
    assert change.before_text == "flag = True\n"
    assert change.after_text is None


def test_unicode_and_spaced_paths(tmp_path):
    fx = GitFixture(tmp_path / "repo")
    fx.write("weird name äöü.py", "x = 1\n")
    fx.commit(ALICE, "2022-01-01T00:00:00Z", "unicode path")
    fx.move("weird name äöü.py", "renamed ß.py")
    fx.commit(ALICE, "2022-02-01T00:00:00Z", "rename it")
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        records = extract_commits(repo)
    (added,) = records[-1].changes
    assert added.path == "weird name äöü.py"
    assert added.after_text == "x = 1\n"
    # one change at the new path, its before text read from the old one
    (renamed,) = records[-2].changes
    assert renamed.path == "renamed ß.py"
    assert renamed.before_text == renamed.after_text == "x = 1\n"


def test_quoted_paths_come_back_verbatim(quoted_repo):
    weird, tab, newline, accent, renamed_tab, renamed_newline = QUOTED_PATHS
    # (path of the before text, path of the after text) of each change, newest first
    sides = [
        (accent, None),  # renamed out of .py
        (weird, None),
        (newline, renamed_newline),
        (tab, renamed_tab),
        (accent, accent),
        (weird, weird),
        (None, accent),
        (None, newline),
        (None, tab),
        (None, weird),
    ]
    with prepare_repo(RepoSpec(str(quoted_repo))) as repo:
        records = extract_commits(repo)
        changes = [(record, change) for record in records for change in record.changes]
        assert [change.path for _, change in changes] == [after or before for before, after in sides]
        for (record, change), (before_path, after_path) in zip(changes, sides):
            parent = parent_of(repo, record.sha)
            before = get_version(repo, before_path, parent) if before_path else None
            after = get_version(repo, after_path, record.sha) if after_path else None
            assert (before is None, after is None) == (before_path is None, after_path is None)
            assert (change.before_text, change.after_text) == (before, after)


def test_encoded_blobs_decode_like_the_compiler(tmp_path):
    fx = GitFixture(tmp_path / "encoded")
    fx.write("bom.py", b"\xef\xbb\xbfx = 1\n")
    fx.write("latin.py", b"# -*- coding: latin-1 -*-\nna\xefve = 1\n")
    fx.commit(ALICE, "2024-01-01T12:00:00+00:00", "encoded files")
    with prepare_repo(RepoSpec(str(fx.path))) as repo:
        (record,) = extract_commits(repo)
    texts = {change.path: change.after_text for change in record.changes}
    assert texts == {"bom.py": "x = 1\n", "latin.py": "# -*- coding: latin-1 -*-\nna\u00efve = 1\n"}


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
    by_author, by_committer = (
        [commit for _, walked in walk_history(Repo(fx.path), identity=identity) for commit in walked]
        for identity in ("author", "committer")
    )
    assert by_author[0].contributor.raw_email == ALICE[1]
    assert by_committer[0].contributor.raw_email == BOB[1]
    # period bucketing uses the author timestamp in either mode
    assert by_author[0].timestamp == by_committer[0].timestamp


def test_prepare_repo_local_passthrough(linear_repo):
    repo = prepare_repo(RepoSpec(str(linear_repo)))
    assert repo.path == linear_repo


def test_prepare_repo_nonexistent_path(tmp_path):
    with pytest.raises(RepoError, match=f"^clone of {re.escape(str(tmp_path / 'missing'))} failed: "):
        prepare_repo(RepoSpec(str(tmp_path / "missing")))


def test_prepare_repo_non_repo_directory(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepoError, match=f"^{re.escape(str(plain))} exists but is not a git repository$"):
        prepare_repo(RepoSpec(str(plain)))


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


def test_prepare_repo_fetches_cached_clone_on_reuse(linear_repo, tmp_path):
    source = tmp_path / "source"
    subprocess.run(["git", "clone", "-q", str(linear_repo), str(source)], check=True, capture_output=True)
    spec = RepoSpec(source.as_uri(), workdir=tmp_path / "cache")
    with prepare_repo(spec) as first:
        assert len(extract_commits(first)) == 7
    upstream = GitFixture(source)
    upstream.write("later.py", "y = 2\n")
    upstream.commit(ALICE, "2024-06-01T12:00:00+00:00", "later")
    with prepare_repo(spec) as second:
        assert second.path == first.path
        assert len(extract_commits(second)) == 8
    # the clone was staged beside its final place and renamed; nothing is left over
    assert [p.name for p in second.path.parent.iterdir()] == [second.path.name]


@pytest.mark.parametrize("change", [
    lambda upstream: upstream.run("branch", "-m", "main", "trunk"),  # the default branch is renamed
    lambda upstream: upstream.checkout("next"),  # another existing branch becomes the default
], ids=["renamed", "switched"])
def test_a_cached_clone_follows_its_remotes_default_branch(change, tmp_path, monkeypatch):
    upstream = GitFixture(tmp_path / "source")
    upstream.write("a.py", "x = 1\n")
    upstream.commit(ALICE, "2024-01-01T12:00:00+00:00", "one")
    upstream.run("branch", "next")
    upstream.checkout("next")
    upstream.write("b.py", "y = [2]\n")
    upstream.commit(BOB, "2024-02-01T12:00:00+00:00", "two, on next")
    upstream.checkout("main")

    def analyze(cache: str, out: str) -> list[bytes]:
        monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(tmp_path / cache))
        assert main(["analyze", upstream.path.as_uri(), "--out", str(tmp_path / out)]) == 0
        return [(tmp_path / out / name).read_bytes() for name in ("report.json", "report.csv", "report.html")]

    analyze("cache", "cloned")
    change(upstream)
    fetched = analyze("cache", "fetched")  # into the clone the first run made
    assert fetched == analyze("fresh-cache", "fresh")


def test_prepare_repo_cache_env_var(linear_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("CEFR_PROGRESS_CACHE", str(tmp_path / "envcache"))
    repo = prepare_repo(RepoSpec(f"file://{linear_repo}"))
    assert repo.path.is_relative_to(tmp_path / "envcache")


def test_prepare_repo_unreachable_url(tmp_path):
    spec = RepoSpec("file:///definitely/not/there.git", workdir=tmp_path)
    with pytest.raises(RepoError, match="^clone of file:///definitely/not/there\\.git failed: "):
        prepare_repo(spec)


def test_prepare_repo_rejects_shallow_clone(linear_repo, tmp_path):
    shallow = tmp_path / "shallow"
    subprocess.run(
        ["git", "clone", "-q", "--depth", "1", f"file://{linear_repo}", str(shallow)],
        check=True,
        capture_output=True,
    )
    with pytest.raises(RepoError, match=f"^{re.escape(str(shallow))} is a shallow clone; full history is required$"):
        prepare_repo(RepoSpec(str(shallow)))


def test_missing_git_binary_is_a_repo_error(linear_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RepoError, match="^cannot run git: "):
        prepare_repo(RepoSpec(str(linear_repo)))
    with pytest.raises(RepoError, match="^cannot run git: "):
        Repo(linear_repo).read_blob("0" * 40)


def test_git_command_failure_is_git_failed(linear_repo):
    repo = Repo(linear_repo)
    with pytest.raises(RepoError, match="^git rev-parse failed: "):
        repo.git("rev-parse", "--verify", "no-such-ref")
    with pytest.raises(RepoError, match="^git log exited with status 128$"):
        list(repo.git_fields("log", "-z", "no-such-ref"))


def test_ask_answers_every_id_in_order(tmp_path):
    fixture = GitFixture(tmp_path / "blobs")
    big_text = b"y = 2\n" * 200_000  # 1.2 MB, far more than a pipe holds
    fixture.write("small.py", "x = 1\n")
    fixture.write("big.py", big_text)
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    small, big, tree = (
        fixture.run("rev-parse", name).strip() for name in ("HEAD:small.py", "HEAD:big.py", "HEAD^{tree}")
    )
    missing = "1" * 40
    # git blocks writing the big blob while about 120 kB of ids still wait to be
    # written, so reading the replies only after writing every id would deadlock
    oids = [big, missing, tree] + [small] * 3000 + [big]
    replies = []

    def read():
        with Repo(fixture.path).cat_file() as proc:
            replies.extend(walk.ask(proc, oids))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert [oid for oid, _ in replies] == oids
    assert replies[:4] == [(big, big_text), (missing, None), (tree, None), (small, b"x = 1\n")]
    assert replies[-1] == (big, big_text)


BLOB = b"x = 12345\n"


@pytest.mark.parametrize("reply", [
    BLOB[:5],  # ends mid-blob
    BLOB,  # the whole blob, without the newline after it
    BLOB + b"?",  # the whole blob, and a wrong byte after it
], ids=["short", "no_newline", "wrong_newline"])
def test_ask_refuses_a_reply_that_ends_inside_a_blob(reply):
    oid = "a" * 40
    header = f"{oid} blob {len(BLOB)}\n".encode("ascii")

    class Process:  # a cat-file that stops writing partway
        stdin = io.BytesIO()
        stdout = io.BytesIO(header + reply)

    with pytest.raises(RepoError, match=f"^git cat-file ended inside {oid}$"):
        list(walk.ask(Process, [oid]))
    Process.stdout = io.BytesIO(header + BLOB + b"\n")
    assert list(walk.ask(Process, [oid])) == [(oid, BLOB)]


def test_no_git_process_outlives_its_call(linear_repo, big_repo, tmp_path, monkeypatch):
    started = []
    start_git = history._start_git

    def recording_start_git(*args, **pipes):
        started.append(start_git(*args, **pipes))
        return started[-1]

    monkeypatch.setattr(history, "_start_git", recording_start_git)
    with prepare_repo(RepoSpec(str(linear_repo))) as repo:
        records = extract_commits(repo)
        with pytest.raises(RepoError):
            list(repo.git_fields("log", "-z", "no-such-ref"))
    assert records and len(started) == 3
    assert all(proc.returncode is not None for proc in started)

    # a walk stopped at its first batch of blob ids, while git log still has
    # more history to write than the pipe from it holds, ends git log, also
    # when a worker forked meanwhile holds that pipe open; the walk reads no
    # blob, so it starts no cat-file
    started.clear()
    blobs = walk_history(Repo(big_repo))
    next(blobs)
    pool = concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    try:
        pool.submit(int).result()  # forks the worker
        closer = threading.Thread(target=blobs.close, daemon=True)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()
    finally:
        pool.shutdown()
    assert [proc.args[3] for proc in started] == ["log"]
    assert all(proc.returncode is not None for proc in started)

    # git log fails in the middle of the walk, after the newest commit's blobs
    # were asked for: the tree of the oldest commit is missing, so git cannot
    # diff the second commit
    fixture = GitFixture(tmp_path / "broken")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    tree = fixture.run("rev-parse", "HEAD^{tree}").strip()
    fixture.write("a.py", "x = 2\n")
    fixture.commit(ALICE, "2020-01-02T00:00:00Z", "two")
    fixture.write("b.py", "y = 1\n")
    fixture.commit(ALICE, "2020-01-03T00:00:00Z", "three")
    for i in range(2 * walk._BATCH):
        fixture.write(f"pkg/m{i}.py", f"m = {i}\n")
    fixture.commit(ALICE, "2020-01-04T00:00:00Z", "four")
    (fixture.path / ".git" / "objects" / tree[:2] / tree[2:]).unlink()
    started.clear()
    asked = []
    ask = walk.ask
    monkeypatch.setattr(walk, "ask", lambda proc, oids: asked.extend(oids) or ask(proc, oids))
    with pytest.raises(RepoError, match="^git log exited with status 128$"):
        with prepare_repo(RepoSpec(str(fixture.path))) as repo:
            extract_commits(repo)
    assert len(asked) == 2 * walk._BATCH
    assert sorted(proc.args[3] for proc in started) == ["cat-file", "log"]
    assert all(proc.returncode is not None for proc in started)


def test_signature_checks_leave_the_walk_as_it_is(tmp_path, monkeypatch):
    # under log.showSignature git would check each signed commit with gpg and
    # write the outcome into its output before the commit's header; the
    # signature here is no valid one, so no key is needed
    fixture = GitFixture(tmp_path / "repo")
    fixture.write("a.py", "x = 1\n")
    fixture.commit(ALICE, "2020-01-01T00:00:00Z", "one")
    fixture.write("a.py", "x = 2\n")
    fixture.commit(BOB, "2020-01-02T00:00:00Z", "two")
    header, message = fixture.run("cat-file", "commit", "HEAD").split("\n\n", 1)
    signature = "gpgsig -----BEGIN PGP SIGNATURE-----\n \n iQEzBAABCAAdFiEE\n =abcd\n -----END PGP SIGNATURE-----"
    signed = subprocess.run(
        ["git", "-C", str(fixture.path), "hash-object", "-t", "commit", "-w", "--stdin"],
        input=f"{header}\n{signature}\n\n{message}", capture_output=True, text=True, check=True,
    ).stdout.strip()
    fixture.run("update-ref", "refs/heads/main", signed)
    monkeypatch.setenv("GNUPGHOME", str(tmp_path / "gnupg"))  # keeps a gpg that git starts off the user's keys
    monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
    monkeypatch.setenv("GIT_CONFIG_KEY_0", "log.showSignature")
    monkeypatch.setenv("GIT_CONFIG_VALUE_0", "true")
    batches = list(walk_history(Repo(fixture.path)))
    assert sum(len(oids) for oids, _ in batches) == 2
    commits = [commit for _, walked in batches for commit in walked]  # newest first
    expected = fixture.run("rev-list", "--first-parent", "--no-merges", "HEAD").split()
    assert [commit.sha for commit in commits] == expected
    assert commits[0].sha == signed


def test_empty_repository_raises(tmp_path):
    GitFixture(tmp_path / "empty")
    with pytest.raises(RepoError, match=f"^{re.escape(str(tmp_path / 'empty'))} has no non-merge commits on its default branch$"):
        with prepare_repo(RepoSpec(str(tmp_path / "empty"))) as repo:
            extract_commits(repo)


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
