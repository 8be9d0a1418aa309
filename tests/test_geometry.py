import numpy as np
import pytest

from bdrelax import geometry
from bdrelax.bdmodel import StructuredBD
from bdrelax.geometry import (Box, box_integral, box_plane_chord, box_plane_segment,
                              box_quadrature, clip_halfplane, polygon_area, segment_midpoints,
                              segment_panels)


def box_halfplane_area(box: Box, nu, c: float) -> float:
    """Area of box intersected with {x . nu <= c}."""
    return polygon_area(clip_halfplane(box.corners(), nu, c))


def test_box_basics():
    b = Box(lo=(-1.0, 0.0), hi=(1.0, 3.0))
    assert b.volume == 6.0
    assert np.allclose(b.center, [0.0, 1.5])
    s = b.scaled_about_center(0.5)
    assert np.allclose(s.extent, [1.0, 1.5])
    with pytest.raises(ValueError):
        Box(lo=(0.0, 0.0), hi=(0.0, 1.0))


def test_halfplane_area():
    b = Box.cube((0.0, 0.0), 1.0)
    assert box_halfplane_area(b, (1.0, 0.0), 0.0) == pytest.approx(0.5, abs=0)
    assert box_halfplane_area(b, (1.0, 0.0), 10.0) == pytest.approx(1.0, abs=0)
    assert box_halfplane_area(b, (1.0, 0.0), -10.0) == 0.0
    # diagonal cut through a corner: triangle of area 1/8
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    area = box_halfplane_area(b, nu, -np.sqrt(2.0) / 4.0)
    assert area == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_plane_chords():
    b = Box.cube((0.0, 0.0), 1.0)
    assert box_plane_segment(b, (1.0, 0.0), 0.2) == pytest.approx(1.0, abs=0)
    assert box_plane_segment(b, (1.0, 0.0), 0.7) == 0.0
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert box_plane_segment(b, nu, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    chord = box_plane_chord(b, (0.0, 1.0), 0.25)
    assert chord is not None
    p, q = chord
    assert p[1] == pytest.approx(0.25) and q[1] == pytest.approx(0.25)


def test_slab_area():
    # a slab {t0 <= x . eta <= t1} is the box clipped by two opposite halfplanes
    b = Box.cube((0.0, 0.0), 1.0)

    def slab(eta, t0, t1):
        eta = np.asarray(eta, dtype=float)
        return polygon_area(clip_halfplane(clip_halfplane(b.corners(), eta, t1), -eta, -t0))

    assert slab((1.0, 0.0), -0.25, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert slab((1.0, 0.0), 0.25, 0.25) == 0.0
    assert slab((1.0, 0.0), 0.6, 0.9) == 0.0


def test_quadrature_exactness():
    b = Box(lo=(0.0, -1.0), hi=(2.0, 1.0))
    pts, w = box_quadrature(b, cells=3, npts=2)
    assert w.sum() == pytest.approx(b.volume, rel=1e-14)
    # 2-pt Gauss integrates cubics exactly
    val = np.sum(w * pts[:, 0] ** 3 * pts[:, 1] ** 2)
    exact = (2.0 ** 4 / 4.0) * (2.0 / 3.0)
    assert val == pytest.approx(exact, rel=1e-13)


_AFFINE = StructuredBD.affine(np.random.default_rng(11).normal(size=(2, 2)), (0.3, -0.7))
_STAIR = StructuredBD.staircase(depth=5, total_mass=1, support=(0, 1))


@pytest.mark.parametrize("u", [_AFFINE, _STAIR], ids=["affine", "staircase"])
@pytest.mark.parametrize("cells,npts", [(1, 1), (1, 3), (5, 2), (81, 1), (100, 3), (243, 1)])
def test_box_integral_equals_full_array_sum(u, cells, npts):
    # 1, 5x2 and 81 points per axis fit in one block; 100x3 and 243 end on a
    # block that is not full; the density goes through BLAS matmuls
    b = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))

    def density(X):
        v = u.value(X)
        return np.sqrt((v * v).sum(axis=1)) + (v @ np.array([[0.3, -1.1], [0.7, 0.2]]))[:, 0]

    pts, w = box_quadrature(b, cells=cells, npts=npts)
    assert box_integral(b, cells, npts, density) == float(np.sum(w * density(pts)))


def test_box_integral_block_size_invariant(monkeypatch):
    b = Box(lo=(0.1, -0.37), hi=(0.9, 0.61))
    pts, w = box_quadrature(b, cells=96, npts=2)
    ref = float(np.sum(w * _AFFINE.value(pts)[:, 1]))
    for block in (1, 1000, 4096, 8191, 8192, 8193, 10 ** 6):
        monkeypatch.setattr(geometry, "QUAD_BLOCK", block)
        assert box_integral(b, 96, 2, lambda X: _AFFINE.value(X)[:, 1]) == ref


def test_box_integral_rejects_zero_cells():
    b = Box.cube((0.0, 0.0), 1.0)
    for fn in (lambda: box_quadrature(b, cells=0), lambda: box_integral(b, 0, 1, np.ones_like)):
        with pytest.raises(ValueError, match="cells per axis must be >= 1, got 0"):
            fn()


def test_segment_panels_split():
    mids, halves = segment_panels(np.zeros(2), np.array([1.0, 0.0]), [0.3], panels=10)
    total = 2.0 * np.sqrt((halves ** 2).sum(axis=1)).sum()
    assert total == pytest.approx(1.0, rel=1e-14)
    # breakpoints are respected: no panel straddles 0.3
    lo = mids[:, 0] - halves[:, 0]
    hi = mids[:, 0] + halves[:, 0]
    assert not np.any((lo < 0.3 - 1e-12) & (hi > 0.3 + 1e-12))


def test_segment_midpoints():
    p, q = np.array([0.5, -1.0]), np.array([-0.5, 2.0])
    pts, seg = segment_midpoints(p, q, 4)
    assert seg == np.sqrt(10.0) / 4
    # the panel midpoints at relative positions 1/8, 3/8, 5/8, 7/8
    assert np.allclose(pts, p + np.array([1, 3, 5, 7])[:, None] / 8 * (q - p), rtol=0, atol=1e-15)
    # exact on an affine integrand: the integral of x . (1, 1) over p->q
    assert seg * (pts @ np.ones(2)).sum() == pytest.approx(np.sqrt(10.0) * 0.5, rel=1e-14)


def test_polygon_clip_degenerate():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert polygon_area(clip_halfplane(tri, (1.0, 0.0), -1.0)) == 0.0
    assert polygon_area(clip_halfplane(tri, (1.0, 0.0), 2.0)) == pytest.approx(0.5)
