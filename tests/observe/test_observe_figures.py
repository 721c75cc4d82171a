"""The dependency-free SVG builders: byte determinism, golden digests.

The golden digests pin the exact bytes for tiny fixed inputs — any
renderer change that alters output must consciously update them,
because gallery byte-identity across jobs/executors is a CI gate.
"""

import hashlib

import numpy as np
import pytest

from repro.observe import figures

NAN = float("nan")


def _line():
    return figures.line_figure("golden line", [
        ("panel one", [("a", np.array([0.0, 1.0, 2.0, 3.0])),
                       ("b", np.array([3.0, NAN, 1.0, 0.5]))]),
        ("panel two", [("c", np.array([1.0, 1.0, 1.0, 1.0]))]),
    ])


def _heat():
    return figures.heatmap_figure("golden heat", np.array(
        [[0.0, 1.0], [2.0, NAN], [4.0, 5.0]]))


def _bar():
    return figures.bar_figure("golden bars", [
        ("1. deferral", 0.405),
        ("2. slo_weighting", 0.043),
        ("3. quarantine", 0.0),
        ("4. trim", -0.02),
        ("5. quorum", NAN),
    ])


GOLDEN = {
    "bar": (_bar, "76753b548f1e786053db0851616b4822ac"
                  "bdf83db4681a48ae9bcec6ece84040"),
    "line": (_line, "f5f5cdc2664559a213648788bc12c25b3f"
                    "0d5a040cfdb83a91511dd72ef99d63"),
    "heat": (_heat, "ef5a9fafa155555ec21fd9e2808ef461"
                    "2b48893af1e5bd55de8d5bdf1219a29b"),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_digest_is_pinned(self, kind):
        build, expected = GOLDEN[kind]
        digest = hashlib.sha256(build().encode()).hexdigest()
        assert digest == expected, (
            f"{kind} SVG bytes changed; if intentional, update the "
            f"pinned digest to {digest}")

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_rendering_twice_is_byte_identical(self, kind):
        build, _ = GOLDEN[kind]
        assert build() == build()


class TestWellFormedness:
    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_svg_shape(self, kind):
        svg = GOLDEN[kind][0]()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.endswith("\n")

    def test_text_is_escaped(self):
        svg = figures.line_figure("a <b> & c", [
            ("p", [("s", np.array([1.0, 2.0]))])])
        assert "<b>" not in svg
        assert "&lt;b&gt;" in svg
        assert "&amp;" in svg


class TestNaNHandling:
    def test_nan_breaks_the_polyline(self):
        whole = figures.line_figure("t", [
            ("p", [("s", np.array([1.0, 2.0, 3.0, 4.0]))])])
        broken = figures.line_figure("t", [
            ("p", [("s", np.array([1.0, 2.0, NAN, 4.0]))])])
        assert whole.count("<polyline") == 1
        # The NaN splits the series into a 2-point segment plus a
        # lone point (drawn as a short dash), so more elements.
        assert broken.count("<polyline") >= 2

    def test_all_nan_series_renders_no_polyline(self):
        svg = figures.line_figure("t", [
            ("p", [("s", np.array([NAN, NAN, NAN]))])])
        assert "<polyline" not in svg

    def test_nan_heatmap_cell_uses_the_nan_fill(self):
        svg = _heat()
        assert svg.count('fill="#e6e6e6"') == 1

    def test_nan_bar_renders_the_stub_fill(self):
        svg = _bar()
        assert svg.count('fill="#e6e6e6"') == 1
        assert svg.count("nan") >= 1  # the value label says so
        # Sign decides the hue: protective vs harmful bars.
        assert svg.count('fill="#1f77b4"') == 3
        assert svg.count('fill="#d62728"') == 1

    def test_flat_series_is_still_finite(self):
        svg = figures.line_figure("t", [
            ("p", [("s", np.array([2.0, 2.0, 2.0]))])])
        assert "nan" not in svg.lower().replace("anchor", "")
