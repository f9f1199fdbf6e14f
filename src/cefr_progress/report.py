"""Report emission: canonical JSON, CSV in the six-level table layout, and a
self-contained HTML document with inline SVG radar and timeline charts.

All three emitters are pure functions of (report, options): the same input
produces byte-identical files.  The HTML references no external resources;
every chart is generated here as vector markup.
"""

from __future__ import annotations

import html
import json
import math
from pathlib import Path

from .analyzer import LevelVector
from .catalog import LEVEL_LABELS
from .scoring import ContributorProfile, ProjectReport

SCHEMA_VERSION = "1"

_LEVEL_COLORS = ("#4e79a7", "#59a14f", "#edc948", "#f28e2b", "#e15759", "#b07aa1")


def _contributor_payload(profile: ContributorProfile, show_names: bool) -> dict:
    ident = profile.contributor
    return {
        "anon_id": ident.anon_id,
        "name": ident.raw_name if show_names else None,
        "email": ident.raw_email if show_names else None,
        "commit_count": profile.commit_count,
        "total": profile.total.as_list(),
        "by_period": {k: v.as_list() for k, v in profile.by_period.items()},
    }


def report_payload(report: ProjectReport, *, show_names: bool = False) -> dict:
    """The JSON document structure for a report."""
    top = None
    if report.top_contributor is not None:
        ident = report.top_contributor.contributor
        top = {
            "anon_id": ident.anon_id,
            "name": ident.raw_name if show_names else None,
            "periods": [
                {"period": pkey, "c1": c1, "c2": c2}
                for pkey, c1, c2 in report.top_contributor.periods
            ],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "repo": report.repo,
        "generated_at": report.generated_at,
        "period": report.period.value,
        "project_total": report.project_total.as_list(),
        "project_by_period": {k: v.as_list() for k, v in report.project_by_period.items()},
        "contributors": [_contributor_payload(p, show_names) for p in report.profiles],
        "excluded_total": report.excluded_total.as_list(),
        "top_contributor": top,
        "commit_count": report.commit_count,
        "files_analyzed": report.files_analyzed,
        "files_skipped": report.files_skipped,
    }


def emit_json(report: ProjectReport, path: str | Path, *, show_names: bool = False) -> Path:
    """Write the canonical JSON document: sorted keys, two-space indent, trailing newline."""
    payload = report_payload(report, show_names=show_names)
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    out = Path(path)
    out.write_text(text, encoding="utf-8")
    return out


def emit_csv(report: ProjectReport, path: str | Path) -> Path:
    """Write the per-period table: period,A1,A2,B1,B2,C1,C2 rows plus a total row."""
    lines = ["period," + ",".join(LEVEL_LABELS)]
    for pkey in sorted(report.project_by_period):
        counts = report.project_by_period[pkey].counts
        lines.append(pkey + "," + ",".join(str(c) for c in counts))
    lines.append("total," + ",".join(str(c) for c in report.project_total.counts))
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


# -- SVG builders ------------------------------------------------------


def _radar_points(vector: LevelVector, cx: float, cy: float, radius: float) -> list[tuple[float, float]]:
    peak = max(vector.counts)
    points = []
    for i, value in enumerate(vector.counts):
        theta = math.radians(-90 + 60 * i)
        r = radius * (value / peak) if peak else 0.0
        points.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return points


def _fmt_points(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def radar_svg(vector: LevelVector, title: str) -> str:
    """Six-axis radar polygon, scaled to the vector's own max component."""
    size, cx, cy, radius = 260, 130.0, 138.0, 92.0
    peak = max(vector.counts)
    parts = [
        f'<svg class="radar" width="{size}" height="{size}" viewBox="0 0 {size} {size}" role="img">',
        f"<title>{html.escape(title)}</title>",
    ]
    for fraction in (0.25, 0.5, 0.75, 1.0):
        ring = [
            (cx + radius * fraction * math.cos(math.radians(-90 + 60 * i)),
             cy + radius * fraction * math.sin(math.radians(-90 + 60 * i)))
            for i in range(6)
        ]
        parts.append(f'<polygon class="grid" points="{_fmt_points(ring)}" fill="none" stroke="#ccc"/>')
    for i, label in enumerate(LEVEL_LABELS):
        theta = math.radians(-90 + 60 * i)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" '
            f'x2="{cx + radius * math.cos(theta):.2f}" y2="{cy + radius * math.sin(theta):.2f}" stroke="#ccc"/>'
        )
        lx, ly = cx + radius * 1.16 * math.cos(theta), cy + radius * 1.14 * math.sin(theta)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" text-anchor="middle" dominant-baseline="middle" '
            f'font-size="11">{label}</text>'
        )
    data = _fmt_points(_radar_points(vector, cx, cy, radius))
    parts.append(
        f'<polygon class="data" points="{data}" fill="#4e79a7" fill-opacity="0.35" stroke="#4e79a7"/>'
    )
    parts.append(f'<text x="6" y="{size - 6}" font-size="10" fill="#666">axis max: {peak}</text>')
    parts.append("</svg>")
    return "".join(parts)


def timeline_svg(by_period: dict[str, LevelVector]) -> str:
    """Stacked bars per period, one colored segment per level, oldest first."""
    periods = sorted(by_period)
    bar_w, gap, chart_h, pad_left, pad_bottom, pad_top = 30, 12, 170, 34, 42, 8
    width = pad_left + max(1, len(periods)) * (bar_w + gap) + gap
    height = chart_h + pad_bottom + pad_top
    peak = max((by_period[p].total() for p in periods), default=0)
    parts = [
        f'<svg class="timeline" width="{width}" height="{height}" viewBox="0 0 {width} {height}" role="img">',
        "<title>added constructs per period</title>",
        f'<line x1="{pad_left}" y1="{pad_top + chart_h}" x2="{width - 4}" y2="{pad_top + chart_h}" stroke="#888"/>',
        f'<text x="2" y="{pad_top + 10}" font-size="10" fill="#666">max: {peak}</text>',
    ]
    for idx, pkey in enumerate(periods):
        x = pad_left + gap + idx * (bar_w + gap)
        y = float(pad_top + chart_h)
        for level in range(6):
            value = by_period[pkey].counts[level]
            if value == 0 or peak == 0:
                continue
            seg = chart_h * value / peak
            y -= seg
            parts.append(
                f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{seg:.2f}" '
                f'fill="{_LEVEL_COLORS[level]}"/>'
            )
        label_x, label_y = x + bar_w / 2, pad_top + chart_h + 12
        parts.append(
            f'<text x="{label_x:.2f}" y="{label_y}" font-size="9" text-anchor="end" '
            f'transform="rotate(-45 {label_x:.2f} {label_y})">{pkey}</text>'
        )
    for level, label in enumerate(LEVEL_LABELS):
        lx = pad_left + level * 44
        parts.append(f'<rect x="{lx}" y="{height - 12}" width="9" height="9" fill="{_LEVEL_COLORS[level]}"/>')
        parts.append(f'<text x="{lx + 12}" y="{height - 4}" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "".join(parts)


_PAGE_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; color: #222; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.2rem; margin-top: 2rem; }
p.meta { color: #555; }
table { border-collapse: collapse; } td, th { border: 1px solid #bbb; padding: 2px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
div.contributor-section { display: inline-block; vertical-align: top; margin: 0 1rem 1rem 0; padding: 0.4rem;
  border: 1px solid #ddd; border-radius: 6px; }
div.contributor-section h3 { font-size: 0.95rem; margin: 0.2rem 0; font-family: monospace; }
div.contributor-section p { font-size: 0.8rem; color: #555; margin: 0.2rem 0; }
"""


def _contributor_label(profile: ContributorProfile, show_names: bool) -> str:
    if show_names and profile.contributor.raw_name:
        return f"{profile.contributor.raw_name} ({profile.contributor.anon_id})"
    return profile.contributor.anon_id


def emit_html(
    report: ProjectReport,
    path: str | Path,
    *,
    top_n: int = 10,
    show_names: bool = False,
) -> Path:
    """Write the static report document.

    Shows the project radar, the per-period stacked timeline, the top
    contributor's C1/C2 table and one radar per contributor (the top
    `top_n` by total added constructs).
    """
    chunks = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Code proficiency report: {html.escape(report.repo)}</title>",
        f"<style>{_PAGE_CSS}</style></head><body>",
        "<h1>Code proficiency report</h1>",
        f'<p class="meta">repository: {html.escape(report.repo)} &middot; '
        f"bucket: {report.period.value} &middot; commits scored: {report.commit_count} &middot; "
        f"files analyzed: {report.files_analyzed} &middot; files skipped: {report.files_skipped}</p>",
        "<h2>Project-wide distribution</h2>",
        radar_svg(report.project_total, "all contributors"),
        "<h2>Added proficiency over time</h2>",
        timeline_svg(report.project_by_period),
    ]

    if report.top_contributor is not None:
        ident = report.top_contributor.contributor
        label = ident.raw_name if (show_names and ident.raw_name) else ident.anon_id
        chunks.append("<h2>Most proficient contributor</h2>")
        chunks.append(f'<p class="meta">{html.escape(label)} (by total C1+C2 added)</p>')
        rows = "".join(
            f"<tr><td>{html.escape(pkey)}</td><td>{c1}</td><td>{c2}</td></tr>"
            for pkey, c1, c2 in report.top_contributor.periods
        )
        chunks.append(
            f'<table id="top-contributor"><tr><th>period</th><th>C1</th><th>C2</th></tr>{rows}</table>'
        )

    ranked = sorted(
        report.profiles,
        key=lambda p: (-p.total.total(), -p.total.c1_plus_c2(), p.contributor.anon_id),
    )[:top_n]
    chunks.append(f"<h2>Contributors (top {len(ranked)} of {len(report.profiles)})</h2>")
    for profile in ranked:
        label = _contributor_label(profile, show_names)
        chunks.append('<div class="contributor-section">')
        chunks.append(f"<h3>{html.escape(label)}</h3>")
        chunks.append(radar_svg(profile.total, label))
        chunks.append(
            f"<p>{profile.commit_count} commits &middot; {profile.total.total()} constructs "
            f"&middot; C1+C2: {profile.total.c1_plus_c2()}</p>"
        )
        chunks.append("</div>")
    chunks.append("</body></html>")

    out = Path(path)
    out.write_text("\n".join(chunks) + "\n", encoding="utf-8")
    return out


def write_report_bundle(
    report: ProjectReport,
    outdir: str | Path,
    *,
    top_n: int = 10,
    show_names: bool = False,
) -> None:
    """Emit report.json, report.csv and report.html into `outdir` (created if needed)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    emit_json(report, out / "report.json", show_names=show_names)
    emit_csv(report, out / "report.csv")
    emit_html(report, out / "report.html", top_n=top_n, show_names=show_names)
