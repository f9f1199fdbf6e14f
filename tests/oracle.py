"""Brute-force reference pipeline for fixture repositories.

Re-derives every per-commit delta the slow way: materialize the full tree
of each first-parent commit and its parent with ``git archive``, analyze
every .py file wholesale (not just the ones a diff lists), pair files by
path (plus git's rename pairs), and clamp/sum by hand with plain dicts.
Shares only the per-file analyzer with the production pipeline; extraction,
pairing, clamping and aggregation are all recomputed here.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from collections import defaultdict
from datetime import datetime, timezone

from cefr_progress.analyzer import analyze_source
from cefr_progress.catalog import Catalog


def _git(repo_path, *args: str, binary: bool = False):
    proc = subprocess.run(
        ["git", "-C", str(repo_path), "-c", "core.quotepath=off", *args],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout if binary else proc.stdout.decode()


def first_parent_shas(repo_path) -> list[str]:
    out = _git(repo_path, "rev-list", "--first-parent", "--topo-order", "--reverse", "HEAD")
    return out.split()


def commit_meta(repo_path, sha: str) -> dict:
    out = _git(repo_path, "show", "-s", "--format=%P\x1f%an\x1f%ae\x1f%at\x1f%cn\x1f%ce", sha)
    parents, a_name, a_email, a_time, c_name, c_email = out.strip("\n").split("\x1f")
    return {
        "parents": parents.split(),
        "author": (a_name, a_email),
        "committer": (c_name, c_email),
        "timestamp": int(a_time),
    }


def materialize_tree(repo_path, sha: str) -> dict[str, bytes]:
    """Every blob of the commit's tree, path -> raw bytes.

    Keeps non-.py files too: a rename's old side may live outside .py.
    """
    tar_bytes = _git(repo_path, "archive", "--format=tar", sha, binary=True)
    files: dict[str, bytes] = {}
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                files[member.name] = archive.extractfile(member).read()
    return files


def rename_pairs(repo_path, parent: str, sha: str) -> dict[str, str]:
    """new path -> old path for every rename git detects between the two commits."""
    fields = _git(repo_path, "diff", "--name-status", "-z", "-M", parent, sha).split("\0")
    pairs: dict[str, str] = {}
    i = 0
    while i < len(fields) - 1:  # -z: "status\0path\0", plus "new path\0" for R and C
        status = fields[i]
        if status.startswith("R"):
            pairs[fields[i + 2]] = fields[i + 1]
        i += 3 if status[:1] in ("R", "C") else 2
    return pairs


def _vector_of(blob: bytes | None, catalog: Catalog) -> tuple[int, ...] | None:
    """Six counts for one side; zeros when absent/binary; None on parse failure."""
    if blob is None or b"\x00" in blob:
        return (0,) * 6
    result = analyze_source(blob.decode("utf-8", errors="replace"), catalog)
    if not result.parse_ok:
        return None
    return result.vector


def oracle_commit_deltas(repo_path, catalog: Catalog, identity: str = "author") -> list[dict]:
    """One entry per scored commit: sha, identity, timestamp, clamped delta."""
    entries = []
    for sha in first_parent_shas(repo_path):
        meta = commit_meta(repo_path, sha)
        if len(meta["parents"]) >= 2:
            continue
        parent = meta["parents"][0] if meta["parents"] else None
        after_tree = materialize_tree(repo_path, sha)
        before_tree = materialize_tree(repo_path, parent) if parent else {}
        renames = rename_pairs(repo_path, parent, sha) if parent else {}

        delta = [0] * 6
        for path, after_blob in after_tree.items():
            if not path.endswith(".py"):
                continue
            before_path = renames.get(path, path)
            before_blob = before_tree.get(before_path)
            after_vec = _vector_of(after_blob, catalog)
            before_vec = _vector_of(before_blob, catalog) if before_blob is not None else (0,) * 6
            if after_vec is None or before_vec is None:
                continue  # parse-failed file contributes nothing
            for i in range(6):
                delta[i] += max(after_vec[i] - before_vec[i], 0)
        # files only present before (deletions) clamp to zero: nothing to add

        entries.append(
            {
                "sha": sha,
                "identity": meta[identity],
                "timestamp": meta["timestamp"],
                "delta": tuple(delta),
            }
        )
    return entries


def vector_sum(*vectors: tuple[int, ...]) -> tuple[int, ...]:
    """The component-wise sum of six-level count tuples: six zeros for none."""
    return tuple(map(sum, zip((0,) * 6, *vectors)))


def _period(ts: int, granularity: str) -> str:
    moment = datetime.fromtimestamp(ts, tz=timezone.utc)
    return moment.strftime("%Y" if granularity == "yearly" else "%Y-%m")


def oracle_rollups(entries: list[dict], granularity: str = "yearly") -> dict:
    """Independent aggregation: project totals plus per-contributor sums."""
    project_total = [0] * 6
    project_by_period: dict[str, list[int]] = defaultdict(lambda: [0] * 6)
    by_contributor: dict[str, list[int]] = defaultdict(lambda: [0] * 6)
    contributor_periods: dict[str, dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0] * 6)
    )
    commit_counts: dict[str, int] = defaultdict(int)

    for entry in entries:
        email_key = entry["identity"][1].strip().lower()
        pkey = _period(entry["timestamp"], granularity)
        commit_counts[email_key] += 1
        for i, value in enumerate(entry["delta"]):
            project_total[i] += value
            project_by_period[pkey][i] += value
            by_contributor[email_key][i] += value
            contributor_periods[email_key][pkey][i] += value

    return {
        "project_total": tuple(project_total),
        "project_by_period": {k: tuple(v) for k, v in project_by_period.items()},
        "by_contributor": {k: tuple(v) for k, v in by_contributor.items()},
        "contributor_periods": {
            k: {p: tuple(v) for p, v in periods.items()}
            for k, periods in contributor_periods.items()
        },
        "commit_counts": dict(commit_counts),
    }
