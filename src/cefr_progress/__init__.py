"""Track CEFR-style Python code proficiency progression across a git history.

The root names what a caller needs to analyze a repository and write its
reports; every other name lives in the module that defines it.
"""

from .catalog import load_catalog
from .history import RepoSpec, prepare_repo
from .report import write_report_bundle

__version__ = "0.1.0"

__all__ = ["RepoSpec", "load_catalog", "prepare_repo", "write_report_bundle", "__version__"]
