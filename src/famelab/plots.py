"""Deterministic SVG scatter plots for 2-D sample sets.

Hand-rolled SVG keeps the output byte-stable across environments: floats are
formatted with fixed precision, element order follows input order, and there
is no timestamp or random id anywhere in the file.  A canvas holds its
document as parts, one per DOT_PIECE points of a set of dots (each
formatted by a single % over its coordinates) and one per other element;
`Experiment.write_report` writes them to plots/modes.svg one by one, so the
whole document is never joined in memory, and `mode_scatter_svg` returns
the same text as one str.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .metrics import assign_modes

# outlier color first, then one color per component index
OUTLIER_COLOR = "#999999"
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
)
REFERENCE_COLOR = "#c8c8c8"
# points per part of a set of dots: the text one % makes, its argument
# tuple and its template are then this size, whatever the set's
DOT_PIECE = 1024
# XML text escapes, as xml.sax.saxutils.escape (whose import costs MiBs of RSS)
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _bounds(sets):
    pts = np.concatenate([np.atleast_2d(s) for s in sets if len(s)])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = 0.05 * (hi - lo + 1e-9)
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, size, lo, hi, title):
        self.size = size
        self.lo = lo
        self.hi = hi
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                '<text x="8" y="16" font-family="monospace" font-size="12">'
                f"{title.translate(_ESCAPES)}</text>"
            )

    def dots(self, pts, color, r=2.0, opacity=1.0):
        """Add a circle per point, a line each, as parts of DOT_PIECE
        points, each formatted by a single % over its interleaved
        coordinates; joined by newlines, they are the text of one %."""
        u, v = ((np.atleast_2d(pts) - self.lo) / (self.hi - self.lo)).T
        xy = np.empty(2 * len(u))
        xy[0::2], xy[1::2] = u * self.size, (1.0 - v) * self.size
        circle = f'<circle cx="%.2f" cy="%.2f" r="{r}" fill="{color}" fill-opacity="{opacity:g}"/>'
        for lo in range(0, len(u), DOT_PIECE):
            piece = xy[2 * lo : 2 * (lo + DOT_PIECE)]
            self.parts.append("\n".join([circle] * (len(piece) // 2)) % tuple(piece.tolist()))

    def text(self, x, y, s, color="#000000"):
        self.parts.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="11" '
            f'fill="{color}">{s.translate(_ESCAPES)}</text>'
        )

    def lines(self):
        """The document's text in pieces: each part, then its newline."""
        for part in self.parts + ["</svg>"]:
            yield part
            yield "\n"

    def render(self):
        return "".join(self.lines())


def _mode_dots(cv, spec, pts, class_id):
    """Draw pts colored by hard mode assignment; returns the assignment."""
    assign = assign_modes(spec, pts, class_id)
    for comp in sorted(set(assign.tolist())):
        color = OUTLIER_COLOR if comp < 0 else PALETTE[comp % len(PALETTE)]
        cv.dots(pts[assign == comp], color)
    return assign


def mode_scatter_svg(spec, reference, generated, class_id=None, size=480, title="") -> str:
    """Reference set in light gray under the generated set colored by hard
    mode assignment; outliers (assigned to no component) in dark gray."""
    return _mode_scatter(spec, reference, generated, class_id, size, title).render()


def _mode_scatter(spec, reference, generated, class_id=None, size=480, title=""):
    """The canvas of `mode_scatter_svg`, whose `lines` a file can take
    without the document being joined in memory."""
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    generated = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    if reference.shape[1] != 2 or generated.shape[1] != 2:
        raise InvalidArgumentError("scatter plots need 2-D samples")
    lo, hi = _bounds([reference, generated])
    cv = _Canvas(size, lo, hi, title)
    cv.dots(reference, REFERENCE_COLOR, r=1.5, opacity=0.6)
    assign = _mode_dots(cv, spec, generated, class_id)
    n_out = int((assign < 0).sum())
    cv.text(8, size - 8, f"n={len(generated)} outliers={n_out}")
    return cv


def side_by_side_svg(spec, gen_a, gen_b, class_id=None, labels=("a", "b"), size=480) -> str:
    """Two mode-colored panels over a shared coordinate frame."""
    gen_a = np.atleast_2d(np.asarray(gen_a, dtype=np.float64))
    gen_b = np.atleast_2d(np.asarray(gen_b, dtype=np.float64))
    if gen_a.shape[1] != 2 or gen_b.shape[1] != 2:
        raise InvalidArgumentError("scatter plots need 2-D samples")
    lo, hi = _bounds([gen_a, gen_b])
    panels = []
    for pts, label in zip((gen_a, gen_b), labels):
        cv = _Canvas(size, lo, hi, label)
        _mode_dots(cv, spec, pts, class_id)
        panels.append(cv)
    body = []
    for i, cv in enumerate(panels):
        inner = "\n".join(cv.parts[1:])  # strip the outer svg tag
        body.append(f'<g transform="translate({i * (size + 10)},0)">\n{inner}\n</g>')
    w = 2 * size + 10
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{size}" '
        f'viewBox="0 0 {w} {size}">\n' + "\n".join(body) + "\n</svg>\n"
    )
