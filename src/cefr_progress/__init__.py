"""Track CEFR-style Python code proficiency progression across a git history."""

from .catalog import Catalog, CatalogError, Level, load_catalog
from .history import (
    CommitRecord,
    ContributorId,
    FileChange,
    Repo,
    RepoError,
    RepoSpec,
    extract_commits,
    prepare_repo,
)
from .report import emit_csv, emit_html, emit_json, write_report_bundle
from .scoring import (
    CommitScore,
    ContributorProfile,
    Granularity,
    ProjectReport,
    TopContributor,
    build_report,
    score_commit,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "analyze_source", "count_constructs",
    "Catalog", "CatalogError", "Level", "load_catalog",
    "CommitRecord", "ContributorId", "FileChange", "Repo", "RepoError", "RepoSpec",
    "extract_commits", "prepare_repo",
    "emit_csv", "emit_html", "emit_json", "write_report_bundle",
    "CommitScore", "ContributorProfile", "Granularity", "ProjectReport", "TopContributor",
    "build_report", "score_commit",
    "__version__",
]


def __getattr__(name: str):
    """The analyzer's names, imported at first use: importing the package loads no AST code."""
    if name not in ("AnalysisResult", "analyze_source", "count_constructs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analyzer
    return getattr(analyzer, name)
