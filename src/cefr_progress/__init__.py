"""Track CEFR-style Python code proficiency progression across a git history."""

from .analyzer import AnalysisResult, LevelVector, analyze_source, count_constructs
from .catalog import Catalog, CatalogError, ConstructRule, Level, load_catalog
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
    level_vector,
    score_commit,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "LevelVector", "analyze_source", "count_constructs",
    "Catalog", "CatalogError", "ConstructRule", "Level", "load_catalog",
    "CommitRecord", "ContributorId", "FileChange", "Repo", "RepoError", "RepoSpec",
    "extract_commits", "prepare_repo",
    "emit_csv", "emit_html", "emit_json", "write_report_bundle",
    "CommitScore", "ContributorProfile", "Granularity", "ProjectReport", "TopContributor",
    "build_report", "level_vector", "score_commit",
    "__version__",
]
