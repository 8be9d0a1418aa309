"""Axis-aligned boxes and the small amount of planar geometry the measure
queries need: halfplane clipping, plane-box segments, and quadrature grids.

Everything here is two dimensional.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box [lo1, hi1] x [lo2, hi2]."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError("Box is two dimensional")
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box")

    @classmethod
    def cube(cls, center, side: float) -> "Box":
        c = np.asarray(center, dtype=float)
        h = 0.5 * float(side)
        return cls(lo=(c[0] - h, c[1] - h), hi=(c[0] + h, c[1] + h))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    @property
    def extent(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def volume(self) -> float:
        e = self.extent
        return float(e[0] * e[1])

    def scaled_about_center(self, factor: float) -> "Box":
        c, e = self.center, self.extent
        h = 0.5 * factor * e
        return Box(lo=tuple(c - h), hi=tuple(c + h))

    def corners(self) -> np.ndarray:
        (a, b), (c, d) = self.lo, self.hi
        return np.array([[a, b], [c, b], [c, d], [a, d]], dtype=float)

    def faces(self):
        """Yield (start, end, outward normal) for the four faces."""
        (a, b), (c, d) = self.lo, self.hi
        yield np.array([a, b]), np.array([c, b]), np.array([0.0, -1.0])
        yield np.array([c, b]), np.array([c, d]), np.array([1.0, 0.0])
        yield np.array([c, d]), np.array([a, d]), np.array([0.0, 1.0])
        yield np.array([a, d]), np.array([a, b]), np.array([-1.0, 0.0])


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_halfplane(poly: np.ndarray, nu, c: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against {x . nu <= c}."""
    nu = np.asarray(nu, dtype=float)
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        dp, dq = float(p @ nu - c), float(q @ nu - c)
        if dp <= 0:
            out.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return np.array(out) if out else np.zeros((0, 2))


def box_plane_chord(box: Box, nu, c: float):
    """Endpoints of the chord {x . nu = c} inside the box, or None."""
    nu = np.asarray(nu, dtype=float)
    hits = []
    for p, q, _ in box.faces():
        dp, dq = float(p @ nu - c), float(q @ nu - c)
        if dp == 0.0:
            hits.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            hits.append(p + t * (q - p))
    if len(hits) < 2:
        return None
    hits = np.array(hits)
    d = hits[:, None, :] - hits[None, :, :]
    i, j = np.unravel_index(np.argmax((d * d).sum(-1)), (len(hits), len(hits)))
    if np.sqrt(((hits[i] - hits[j]) ** 2).sum()) == 0.0:
        return None
    return hits[i], hits[j]


def box_plane_segment(box: Box, nu, c: float) -> float:
    """Length of the chord {x . nu = c} inside the box."""
    chord = box_plane_chord(box, nu, c)
    if chord is None:
        return 0.0
    p, q = chord
    return float(np.sqrt(((q - p) ** 2).sum()))


_GAUSS = {
    1: (np.array([0.0]), np.array([2.0])),
    2: (np.array([-1.0, 1.0]) / np.sqrt(3.0), np.array([1.0, 1.0])),
    3: (
        np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)]),
        np.array([5.0, 8.0, 5.0]) / 9.0,
    ),
}


def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] for 1 <= npts <= 3."""
    return _GAUSS[npts]


QUAD_BLOCK = 8192  # points per block of box_integral


def _tensor_axes(box: Box, cells: int, npts: int):
    """Nodes and weights of the tensor Gauss rule along each axis."""
    if cells < 1:
        raise ValueError(f"quadrature cells per axis must be >= 1, got {cells}")
    g, w = gauss_rule(npts)
    lo, e = np.asarray(box.lo), box.extent
    h = e / cells
    mids = lo[None, :] + (np.arange(cells)[:, None] + 0.5) * h[None, :]
    x1 = (mids[:, 0][:, None] + 0.5 * h[0] * g[None, :]).ravel()
    x2 = (mids[:, 1][:, None] + 0.5 * h[1] * g[None, :]).ravel()
    w1 = np.tile(0.5 * h[0] * w, cells)
    w2 = np.tile(0.5 * h[1] * w, cells)
    return x1, x2, w1, w2


def _tensor_rows(x1, x2, w1, w2):
    """Points (m,2) and weights (m,) of the rows x1 of the tensor grid."""
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=1)
    return pts, (w1[:, None] * w2[None, :]).ravel()


def box_quadrature(box: Box, cells: int, npts: int = 2):
    """Tensor Gauss rule over the box: (points (m,2), weights (m,))."""
    return _tensor_rows(*_tensor_axes(box, cells, npts))


def box_integral(box: Box, cells: int, npts: int, density) -> float:
    """Tensor Gauss quadrature of the batched density(points (m,2)) -> (m,)
    over the box, evaluated QUAD_BLOCK points at a time.

    Each block writes its weighted values into one vector that is summed
    once, so the result equals float(np.sum(w * density(pts))) on the full
    box_quadrature arrays bit for bit, while the density's temporaries are
    bounded by the block rather than by the (cells * npts)^2 points.
    """
    x1, x2, w1, w2 = _tensor_axes(box, cells, npts)
    rows = max(1, QUAD_BLOCK // len(x2))
    out = np.empty(len(x1) * len(x2))
    for i in range(0, len(x1), rows):
        pts, w = _tensor_rows(x1[i:i + rows], x2, w1[i:i + rows], w2)
        start = i * len(x2)
        out[start:start + len(w)] = w * density(pts)
    return float(np.sum(out))


def segment_midpoints(p, q, panels: int):
    """Midpoint rule on the segment p->q with `panels` equal panels:
    (midpoints (panels, 2), panel length)."""
    ts = (np.arange(panels) + 0.5) / panels
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    return pts, float(np.linalg.norm(q - p)) / panels


def segment_panels(p, q, breaks_t: list[float], panels: int):
    """Split the segment p->q at relative positions breaks_t (in (0,1)) and
    subdivide each piece into roughly `panels` equal panels overall.

    Returns the arrays (mid, half): panel midpoints (k, 2) and half-length
    vectors (k, 2), suitable for Gauss quadrature along the segment.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ts = sorted({0.0, 1.0, *(t for t in breaks_t if 0.0 < t < 1.0)})
    pieces = []
    for a, b in zip(ts[:-1], ts[1:]):
        k = max(1, int(round(panels * (b - a))))
        edges = np.linspace(a, b, k + 1)
        pieces.append((edges[:-1], edges[1:]))
    t0 = np.concatenate([lo for lo, _ in pieces])
    t1 = np.concatenate([hi for _, hi in pieces])
    mid = p[None, :] + 0.5 * (t0 + t1)[:, None] * (q - p)[None, :]
    half = 0.5 * (t1 - t0)[:, None] * (q - p)[None, :]
    return mid, half
