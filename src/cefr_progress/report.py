"""Report emission: canonical JSON, CSV in the six-level table layout, and a
self-contained HTML document with inline SVG radar and timeline charts.

All three emitters are pure functions of (report, options): the same input
produces byte-identical files.  The JSON is what `json.dumps` writes of
`report_payload`, with its keys sorted as strings; each distinct level
vector's text is made once, and a dict of period buckets is written in one
join.  The HTML references no external resources; every chart is generated
here as vector markup.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring
from pathlib import Path

from .catalog import LEVEL_LABELS, Level
from .scoring import ContributorProfile, ProjectReport

SCHEMA_VERSION = "1"

#: What `html.escape(text, quote=True)` replaces, as one table, without importing `html`
_HTML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#x27;"})

_LEVEL_COLORS = ("#4e79a7", "#59a14f", "#edc948", "#f28e2b", "#e15759", "#b07aa1")


def _contributor_payload(profile: ContributorProfile, show_names: bool) -> dict:
    ident = profile.contributor
    return {
        "anon_id": ident.anon_id,
        "name": ident.raw_name if show_names else None,
        "email": ident.raw_email if show_names else None,
        "commit_count": profile.commit_count,
        "total": profile.total,
        "by_period": profile.by_period,
    }


def report_payload(report: ProjectReport, *, show_names: bool = False) -> dict:
    """The JSON document structure for a report, which holds the report's
    level count tuples and period dicts themselves: `json` writes a tuple as
    an array."""
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
        "project_total": report.project_total,
        "project_by_period": report.project_by_period,
        "contributors": [_contributor_payload(p, show_names) for p in report.profiles],
        "excluded_total": report.excluded_total,
        "top_contributor": top,
        "commit_count": report.commit_count,
        "files_analyzed": report.files_analyzed,
        "files_skipped": report.files_skipped,
    }


def _texts(vectors, indent: str, memo: dict) -> dict:
    """The JSON text at `indent` of each distinct tuple of ints: `memo`'s
    dict of them for `indent`, with those of `vectors` it lacked added."""
    texts = memo.setdefault(indent, {})
    inner = indent + "  "
    for vector in set(vectors).difference(texts):
        items = f",\n{inner}".join(map(int.__repr__, vector))
        texts[vector] = f"[\n{inner}{items}\n{indent}]" if vector else "[]"
    return texts


def _json(value, indent: str, out: list[str], memo: dict) -> None:
    """Append to `out` the text ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives `value` at `indent`.

    `value` holds only what a report payload holds: dicts with str keys,
    lists, tuples of ints, str, int and None.  `json` indents a document
    only with its pure-Python encoder; this takes the C encoder's string
    escaping, and renders each distinct tuple, a level vector, once per
    indent into `memo`.  A dict of tuples, a report's period buckets, is
    rendered in one join over its sorted keys.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is tuple:
        out.append(_texts((value,), indent, memo)[value])
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        if set(map(type, value.values())) == {tuple}:
            texts = _texts(value.values(), inner, memo)
            pairs = [f"{encode_basestring(key)}: {texts[vector]}" for key, vector in sorted(value.items())]
            out.append("{\n" + inner + f",\n{inner}".join(pairs) + "\n" + indent + "}")
            return
        opening = "{\n" + inner
        for key in sorted(value):
            out.append(opening + encode_basestring(key) + ": ")
            _json(value[key], inner, out, memo)
            opening = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list:
        if not value:
            out.append("[]")
        else:
            inner = indent + "  "
            opening = "[\n" + inner
            for item in value:
                out.append(opening)
                _json(item, inner, out, memo)
                opening = ",\n" + inner
            out.append("\n" + indent + "]")
    else:
        raise TypeError(f"a report payload holds no {kind.__name__}")


def emit_json(report: ProjectReport, path: str | Path, *, show_names: bool = False) -> None:
    """Write the canonical JSON document: sorted keys, two-space indent, trailing newline."""
    parts: list[str] = []
    _json(report_payload(report, show_names=show_names), "", parts, {})
    Path(path).write_text("".join(parts) + "\n", encoding="utf-8")


def emit_csv(report: ProjectReport, path: str | Path) -> None:
    """Write the per-period table: period,A1,A2,B1,B2,C1,C2 rows, in the
    report's period order, plus a total row."""
    lines = ["period," + ",".join(LEVEL_LABELS)]
    for pkey, vector in report.project_by_period.items():
        lines.append(pkey + "," + ",".join(str(c) for c in vector))
    lines.append("total," + ",".join(str(c) for c in report.project_total))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- SVG builders ------------------------------------------------------


_RADAR_SIZE, _RADAR_CX, _RADAR_CY, _RADAR_RADIUS = 260, 130.0, 138.0, 92.0
#: cos and sin of each axis's angle, A1 straight up, then clockwise
_AXES = tuple((math.cos(theta), math.sin(theta)) for theta in (math.radians(-90 + 60 * i) for i in range(6)))


def _radar_points(counts: tuple[int, ...], radius: float) -> str:
    """The polygon points of `counts` on the radar's axes, scaled to their own max."""
    peak = max(counts)
    cx, cy = _RADAR_CX, _RADAR_CY
    points = []
    for value, (cos, sin) in zip(counts, _AXES):
        r = radius * (value / peak) if peak else 0.0
        points.append(f"{cx + r * cos:.2f},{cy + r * sin:.2f}")
    return " ".join(points)


def _radar_grid() -> str:
    """The markup every radar shares: its rings, axes and level labels."""
    cx, cy, radius = _RADAR_CX, _RADAR_CY, _RADAR_RADIUS
    parts = []
    for fraction in (0.25, 0.5, 0.75, 1.0):
        ring = _radar_points((1,) * 6, radius * fraction)  # equal on every axis
        parts.append(f'<polygon class="grid" points="{ring}" fill="none" stroke="#ccc"/>')
    for label, (cos, sin) in zip(LEVEL_LABELS, _AXES):
        parts.append(
            f'<line x1="{cx:.2f}" y1="{cy:.2f}" '
            f'x2="{cx + radius * cos:.2f}" y2="{cy + radius * sin:.2f}" stroke="#ccc"/>'
        )
        lx, ly = cx + radius * 1.16 * cos, cy + radius * 1.14 * sin
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" text-anchor="middle" dominant-baseline="middle" '
            f'font-size="11">{label}</text>'
        )
    return "".join(parts)


_RADAR_GRID = _radar_grid()


def radar_svg(vector: tuple[int, ...], title: str) -> str:
    """Six-axis radar polygon, scaled to the vector's own max component."""
    size = _RADAR_SIZE
    return "".join((
        f'<svg class="radar" width="{size}" height="{size}" viewBox="0 0 {size} {size}" role="img">',
        f"<title>{title.translate(_HTML_ESCAPES)}</title>",
        _RADAR_GRID,
        f'<polygon class="data" points="{_radar_points(vector, _RADAR_RADIUS)}" '
        'fill="#4e79a7" fill-opacity="0.35" stroke="#4e79a7"/>',
        f'<text x="6" y="{size - 6}" font-size="10" fill="#666">axis max: {max(vector)}</text>',
        "</svg>",
    ))


def timeline_svg(by_period: dict[str, tuple[int, ...]]) -> str:
    """Stacked bars per period, one colored segment per level, in the
    order of `by_period`: oldest first for a report's periods."""
    periods = list(by_period)
    bar_w, gap, chart_h, pad_left, pad_bottom, pad_top = 30, 12, 170, 34, 42, 8
    width = pad_left + max(1, len(periods)) * (bar_w + gap) + gap
    height = chart_h + pad_bottom + pad_top
    peak = max((sum(by_period[p]) for p in periods), default=0)
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
            value = by_period[pkey][level]
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
) -> None:
    """Write the static report document.

    Shows the project radar, the per-period stacked timeline, the top
    contributor's C1/C2 table and one radar per contributor (the top
    `top_n` by total added constructs).
    """
    chunks = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Code proficiency report: {report.repo.translate(_HTML_ESCAPES)}</title>",
        f"<style>{_PAGE_CSS}</style></head><body>",
        "<h1>Code proficiency report</h1>",
        f'<p class="meta">repository: {report.repo.translate(_HTML_ESCAPES)} &middot; '
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
        chunks.append(f'<p class="meta">{label.translate(_HTML_ESCAPES)} (by total C1+C2 added)</p>')
        rows = "".join(
            f"<tr><td>{pkey.translate(_HTML_ESCAPES)}</td><td>{c1}</td><td>{c2}</td></tr>"
            for pkey, c1, c2 in report.top_contributor.periods
        )
        chunks.append(
            f'<table id="top-contributor"><tr><th>period</th><th>C1</th><th>C2</th></tr>{rows}</table>'
        )

    ranked = sorted(
        report.profiles,
        key=lambda p: (-sum(p.total), -(p.total[Level.C1] + p.total[Level.C2]), p.contributor.anon_id),
    )[:top_n]
    chunks.append(f"<h2>Contributors (top {len(ranked)} of {len(report.profiles)})</h2>")
    for profile in ranked:
        label = _contributor_label(profile, show_names)
        chunks.append('<div class="contributor-section">')
        chunks.append(f"<h3>{label.translate(_HTML_ESCAPES)}</h3>")
        chunks.append(radar_svg(profile.total, label))
        chunks.append(
            f"<p>{profile.commit_count} commits &middot; {sum(profile.total)} constructs "
            f"&middot; C1+C2: {profile.total[Level.C1] + profile.total[Level.C2]}</p>"
        )
        chunks.append("</div>")
    chunks.append("</body></html>")
    Path(path).write_text("\n".join(chunks) + "\n", encoding="utf-8")


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
