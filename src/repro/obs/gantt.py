"""Per-rank Gantt rendering of a traced schedule (the paper's Fig. 6).

Turns the virtual-time spans of a traced ``run_pfasst`` (or any rank
program) into a schedule diagram:

* :func:`render_ascii` — one row per track, glyphs per span family,
  proportional to virtual time; the direct analogue of the paper's
  Fig. 6 and what ``repro-trace gantt`` prints.
* :func:`render_svg` — the same layout as standalone SVG (one colored
  rect per span with a hover title), for docs and reports without a
  Perfetto round-trip.

Span *families* collapse the per-iteration labels into a legend: the
family of ``sweep:L0:k2`` is ``sweep:L0``, of ``predict:1`` is
``predict`` — i.e. the label up to the last ``:``-separated counter
segment (pure-digit or ``k<digit>`` tails are stripped).
"""

from __future__ import annotations

import html
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.tracer import Span

__all__ = ["span_family", "render_ascii", "render_svg", "DEFAULT_GLYPHS"]

#: glyphs for the PFASST schedule families (Fig. 6 conventions):
#: predictor 'p', finest-level sweep 'F', coarser sweeps 'c', waits '.'
DEFAULT_GLYPHS: Dict[str, str] = {
    "predict": "p",
    "sweep:L0": "F",
    "sweep:L1": "c",
    "sweep:L2": "c",
    "warm-rebuild": "w",
    "wait:recv": ".",
    "compute": "#",
    "work": "#",
}

_FALLBACK_GLYPHS = "abdeghijklmnoqrstuvxyz"

#: fill colors per family for the SVG renderer (hex, cycled)
_SVG_COLORS = (
    "#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4",
    "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2",
)


def span_family(name: str) -> str:
    """Collapse a span label to its family (strip counter tails)."""
    parts = name.split(":")
    while len(parts) > 1:
        tail = parts[-1]
        if tail.isdigit() or (len(tail) >= 2 and tail[0] in "k" and
                              tail[1:].isdigit()):
            parts = parts[:-1]
        else:
            break
    return ":".join(parts)


def _virtual_spans(spans: Iterable[Span]) -> List[Span]:
    return [s for s in spans if s.clock == "virtual"]


def _glyph_map(families: Sequence[str],
               glyphs: Optional[Dict[str, str]]) -> Dict[str, str]:
    table = dict(DEFAULT_GLYPHS)
    if glyphs:
        table.update(glyphs)
    out: Dict[str, str] = {}
    used = set(table.values())
    spare = [g for g in _FALLBACK_GLYPHS if g not in used]
    for fam in families:
        if fam in table:
            out[fam] = table[fam]
        else:
            out[fam] = spare.pop(0) if spare else "?"
    return out


def render_ascii(
    spans: Iterable[Span],
    width: int = 78,
    glyphs: Optional[Dict[str, str]] = None,
    include: Optional[Sequence[str]] = None,
) -> str:
    """ASCII Gantt chart of the virtual-time spans, one row per track.

    ``include`` restricts rendering to the given categories (default:
    ``phase`` spans only, which is the Fig. 6 view — pass ``None``-like
    ``("phase", "comm")`` to add waits).
    """
    cats = tuple(include) if include is not None else ("phase",)
    vspans = [s for s in _virtual_spans(spans) if s.cat in cats]
    if not vspans:
        return "(no virtual-time spans to render)"
    t_max = max(s.t1 for s in vspans)
    t_max = max(t_max, 1e-12)
    families = sorted({span_family(s.name) for s in vspans})
    glyph = _glyph_map(families, glyphs)
    tracks = sorted({s.track for s in vspans})
    label_w = max(len(t) for t in tracks)

    lines: List[str] = []
    for track in tracks:
        row = [" "] * width
        for s in sorted((s for s in vspans if s.track == track),
                        key=lambda s: s.t0):
            a = int(s.t0 / t_max * (width - 1))
            b = max(a + 1, int(s.t1 / t_max * (width - 1)))
            g = glyph[span_family(s.name)]
            for i in range(a, min(b, width)):
                row[i] = g
        lines.append(f"{track:<{label_w}s} |" + "".join(row))
    lines.append(" " * label_w + " +" + "-" * width)
    legend = ", ".join(f"{glyph[f]} = {f}" for f in families)
    lines.append(f"{'':<{label_w}s}  {legend}; time ->")
    return "\n".join(lines)


def render_svg(
    spans: Iterable[Span],
    width: int = 900,
    row_height: int = 22,
    include: Optional[Sequence[str]] = None,
) -> str:
    """Standalone SVG Gantt chart of the virtual-time spans."""
    cats = tuple(include) if include is not None else ("phase", "comm")
    vspans = [s for s in _virtual_spans(spans) if s.cat in cats]
    tracks = sorted({s.track for s in vspans})
    families = sorted({span_family(s.name) for s in vspans})
    color = {fam: _SVG_COLORS[i % len(_SVG_COLORS)]
             for i, fam in enumerate(families)}
    t_max = max((s.t1 for s in vspans), default=1.0)
    t_max = max(t_max, 1e-12)
    label_w = 90
    plot_w = width - label_w - 10
    legend_h = 18 * (len(families) + 1)
    height = row_height * max(len(tracks), 1) + 30 + legend_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for row, track in enumerate(tracks):
        y = 10 + row * row_height
        parts.append(
            f'<text x="4" y="{y + row_height * 0.7:.1f}">'
            f'{html.escape(str(track), quote=False)}</text>')
        parts.append(
            f'<line x1="{label_w}" y1="{y + row_height - 2}" '
            f'x2="{width - 10}" y2="{y + row_height - 2}" '
            f'stroke="#ddd"/>')
        for s in vspans:
            if s.track != track:
                continue
            x = label_w + s.t0 / t_max * plot_w
            w = max((s.t1 - s.t0) / t_max * plot_w, 0.75)
            fam = span_family(s.name)
            parts.append(
                f'<rect x="{x:.2f}" y="{y + 2}" width="{w:.2f}" '
                f'height="{row_height - 6}" fill="{color[fam]}" '
                f'fill-opacity="0.85"><title>'
                f'{html.escape(str(s.name), quote=False)} '
                f'[{s.t0:.6g}, {s.t1:.6g}]s</title></rect>')
    y0 = 20 + row_height * max(len(tracks), 1)
    parts.append(f'<text x="4" y="{y0}">legend (virtual time, '
                 f'makespan {t_max:.6g}s):</text>')
    for i, fam in enumerate(families):
        y = y0 + 16 * (i + 1)
        parts.append(f'<rect x="8" y="{y - 9}" width="12" height="10" '
                     f'fill="{color[fam]}"/>')
        parts.append(f'<text x="26" y="{y}">'
                     f'{html.escape(str(fam), quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
