"""SVG scatter rendering tests: byte determinism and structure."""

import numpy as np
import pytest

from famelab.errors import InvalidArgumentError
from famelab.gmm import preset
from famelab.plots import (
    OUTLIER_COLOR,
    PALETTE,
    REFERENCE_COLOR,
    _bounds,
    mode_scatter_svg,
    side_by_side_svg,
)

spec = preset("imbalanced2d")
# four points in the class-1 ring mode, one at the shared origin mode, one
# far from everything (a guaranteed outlier)
GEN = np.array(
    [[5.0, 0.1], [4.9, -0.2], [5.2, 0.0], [5.1, 0.3], [0.1, 0.0], [50.0, 50.0]]
)
REF = np.array([[5.0, 0.0], [4.8, 0.1], [5.3, -0.1]])


class TestModeScatter:
    def test_deterministic_bytes(self):
        a = mode_scatter_svg(spec, REF, GEN, class_id=1, title="t")
        b = mode_scatter_svg(spec, REF, GEN, class_id=1, title="t")
        assert a == b

    def test_document_shape(self):
        svg = mode_scatter_svg(spec, REF, GEN, class_id=1, title="hello")
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert svg.endswith("</svg>\n")
        assert ">hello<" in svg

    def test_one_circle_per_point(self):
        svg = mode_scatter_svg(spec, REF, GEN, class_id=1)
        assert svg.count("<circle") == len(REF) + len(GEN)

    def test_color_roles(self):
        svg = mode_scatter_svg(spec, REF, GEN, class_id=1)
        assert svg.count(f'fill="{REFERENCE_COLOR}"') == len(REF)
        # exactly one generated point sits away from every component
        assert svg.count(f'fill="{OUTLIER_COLOR}"') == 1
        assert f'fill="{PALETTE[0]}"' in svg

    def test_footer_counts(self):
        svg = mode_scatter_svg(spec, REF, GEN, class_id=1)
        assert "n=6 outliers=1" in svg

    def test_circles_read_as_formatted_one_by_one(self):
        # a set of dots is formatted by one % over its coordinates; each
        # circle reads as the f-string of its own point would
        rng = np.random.default_rng(3)
        ref, gen = rng.normal(size=(300, 2)) * 4.0, rng.normal(size=(200, 2)) * 4.0
        lo, hi = _bounds([ref, gen])
        u, v = ((ref - lo) / (hi - lo)).T
        want = [
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" fill="{REFERENCE_COLOR}" fill-opacity="0.6"/>'
            for x, y in zip(u * 480, (1.0 - v) * 480)
        ]
        lines = mode_scatter_svg(spec, ref, gen, class_id=1).splitlines()
        assert lines[2 : 2 + len(ref)] == want
        assert sum(line.startswith("<circle") for line in lines) == len(ref) + len(gen)

    def test_rejects_non_planar_points(self):
        with pytest.raises(InvalidArgumentError):
            mode_scatter_svg(spec, REF[:, :1], GEN[:, :1])
        with pytest.raises(InvalidArgumentError):
            mode_scatter_svg(spec, REF, np.zeros((4, 3)))


class TestSideBySide:
    def test_two_panels_with_labels(self):
        svg = side_by_side_svg(spec, GEN, GEN[:3], class_id=1, labels=("left", "right"))
        assert svg.count('<g transform="translate(') == 2
        assert ">left<" in svg and ">right<" in svg
        assert svg.count("<circle") == len(GEN) + 3

    def test_shared_frame_width(self):
        svg = side_by_side_svg(spec, GEN, GEN, class_id=1, size=200)
        assert 'width="410" height="200"' in svg

    def test_deterministic_bytes(self):
        a = side_by_side_svg(spec, GEN, GEN[:2], class_id=1)
        b = side_by_side_svg(spec, GEN, GEN[:2], class_id=1)
        assert a == b

    def test_rejects_non_planar_points(self):
        with pytest.raises(InvalidArgumentError):
            side_by_side_svg(spec, np.zeros((3, 1)), np.zeros((3, 1)))
