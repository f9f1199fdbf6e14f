"""Track CEFR-style Python code proficiency progression across a git history."""

from .analyzer import (
    KIND_VOCABULARY,
    AnalysisResult,
    LevelVector,
    analyze_source,
    count_constructs,
)
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
from .report import ReportBundle, emit_csv, emit_html, emit_json, write_report_bundle
from .scoring import (
    CommitScore,
    ContributorProfile,
    Granularity,
    ProjectReport,
    TopContributor,
    build_profiles,
    build_report,
    commit_delta,
    level_vector,
    most_proficient_contributor,
    project_rollup,
    score_commit,
)

__version__ = "0.1.0"

__all__ = [
    "KIND_VOCABULARY", "AnalysisResult", "LevelVector", "analyze_source", "count_constructs",
    "Catalog", "CatalogError", "ConstructRule", "Level", "load_catalog",
    "CommitRecord", "ContributorId", "FileChange", "Repo", "RepoError", "RepoSpec",
    "extract_commits", "prepare_repo",
    "ReportBundle", "emit_csv", "emit_html", "emit_json", "write_report_bundle",
    "CommitScore", "ContributorProfile", "Granularity", "ProjectReport", "TopContributor",
    "build_profiles", "build_report", "commit_delta", "level_vector", "most_proficient_contributor",
    "project_rollup", "score_commit",
    "__version__",
]
