"""Compare the analyzer's parse verdict with the compiler's over the standard library.

For each ``.py`` file of the running interpreter's standard library, with
site-packages left out, ``analyze_source(text).parse_ok`` must equal whether
``compile(text, path, "exec", dont_inherit=True)`` accepts the text.  Warnings
are ignored.  Each difference is printed, and the exit status is 1 when there
is one.  It needs no pytest, so every installed interpreter can check its own
grammar:

    python tests/verdict_differential.py
"""

from __future__ import annotations

import platform
import sys
import sysconfig
import warnings
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cefr_progress.analyzer import analyze_source, source_text  # noqa: E402
from cefr_progress.catalog import default_catalog  # noqa: E402


def stdlib_files() -> list[Path]:
    """The running interpreter's standard library ``.py`` files, sorted, without site-packages."""
    root = Path(sysconfig.get_paths()["stdlib"])
    return sorted(path for path in root.rglob("*.py") if "site-packages" not in path.relative_to(root).parts)


def _compiles(text: str, path: Path) -> bool:
    try:
        compile(text, str(path), "exec", dont_inherit=True)
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return False
    return True


def differences(paths: list[Path]) -> list[tuple[Path, bool]]:
    """(path, parse_ok) for each file whose parse_ok differs from compile()'s verdict."""
    catalog = default_catalog()
    found = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for path in paths:
            text = source_text(path.read_bytes())
            parse_ok = analyze_source(text, catalog).parse_ok
            if parse_ok is not _compiles(text, path):
                found.append((path, parse_ok))
    return found


def main() -> int:
    files = stdlib_files()
    found = differences(files)
    for path, parse_ok in found:
        verdict = "rejects" if parse_ok else "accepts"
        print(f"{path}: parse_ok={parse_ok}, but compile() {verdict} it")
    print(f"Python {platform.python_version()}: {len(found)} difference(s) in {len(files)} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
