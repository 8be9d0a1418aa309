"""Rigid-motion projection on a box: mean value b_K, boundary skew moment
M_K (with a volume cross-check formula), the projection that removes the
rigid part, and the scaled Korn-ratio diagnostic.

The projection fixes every infinitesimal rigid motion L x + v exactly; the
skew moment is computed relative to the box center so this holds for boxes
anywhere, not just boxes containing the origin.
"""

from dataclasses import dataclass

import numpy as np

from .bdmodel import BoundaryChargedBox, StructuredBD, total_variation
from .geometry import Box, box_plane_segment, box_quadrature, gauss_rule, segment_panels
from .tensor import frob, sym


class KornError(ValueError):
    pass


@dataclass(frozen=True)
class RigidMotion:
    """y -> L (y - anchor) + v with skew L."""

    L: np.ndarray
    v: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float).reshape(2, 2))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(2))
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float).reshape(2))
        if frob(self.L + self.L.T) > 1e-12:
            raise ValueError("L must be skew")

    def value(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X - self.anchor) @ self.L.T + self.v


def b_K(u, K: Box, cells: int = 32) -> np.ndarray:
    """Mean of u over K; exact for StructuredBD, quadrature otherwise."""
    if isinstance(u, StructuredBD):
        return u.mean(K)
    pts, w = box_quadrature(K, cells=cells, npts=2)
    return (w[:, None] * u.value(pts)).sum(axis=0) / K.volume


def _face_breaks(u, p, q) -> list[float]:
    """Relative positions where atom planes of u cross the face p->q."""
    if not isinstance(u, StructuredBD):
        return []
    planes = [(j.nu, j.c) for j in u.jumps]
    if u.profile is not None:
        planes += [(u.profile.eta, float(t)) for t, _ in u.profile.staircase.atoms()]
    d = q - p
    out = []
    for nu, c in planes:
        dn = float(d @ nu)
        if abs(dn) < 1e-14:
            if abs(float(p @ nu) - c) < 1e-12:
                raise BoundaryChargedBox("boundary-charged face")
            continue
        t = (c - float(p @ nu)) / dn
        if 0.0 < t < 1.0:
            out.append(t)
    return out


def M_K_boundary(u, K: Box, panels: int = 32) -> np.ndarray:
    """Skew moment (1/2|K|) * boundary integral of (u x nu - nu x u).

    Faces are split analytically where jump or profile planes cross them and
    integrated with 2-point Gauss per panel, so piecewise-affine traces are
    integrated exactly.
    """
    g, w = gauss_rule(2)
    acc = np.zeros((2, 2))
    for p, q, nu in K.faces():
        mids, halves = segment_panels(p, q, _face_breaks(u, p, q), panels)
        hlen = np.sqrt((halves * halves).sum(axis=1))
        for gi, wi in zip(g, w):
            pts = mids + gi * halves
            vals = u.value(pts)
            m = np.einsum("mi,j->ij", vals * (wi * hlen)[:, None], nu)
            acc += m - m.T
    return acc / (2.0 * K.volume)


def M_K_volume(u, K: Box, cells: int = 32) -> np.ndarray:
    """(Du(K) - Du(K)^t) / (2|K|) from the full distributional gradient:
    quadrature of the absolutely continuous part plus exact atom terms."""
    du = np.zeros((2, 2))
    if isinstance(u, StructuredBD):
        pts, w = box_quadrature(K, cells=cells, npts=2)
        du += np.einsum("m,mij->ij", w, u.grad_ac(pts))
        for j in u.jumps:
            seg = box_plane_segment(K, j.nu, j.c)
            if seg > 0.0:
                du += seg * np.outer(j.dv, j.nu)
        if u.profile is not None:
            p = u.profile
            mass = 0.0
            for t, q_ in p.staircase.atoms():
                mass += float(q_) * box_plane_segment(K, p.eta, float(t))
            du += mass * np.outer(p.xi, p.eta)
    else:
        pts, w = box_quadrature(K, cells=cells, npts=2)
        du += np.einsum("m,mij->ij", w, u.grad(pts))
    return (du - du.T) / (2.0 * K.volume)


def rigid_projection(u, K: Box, panels: int = 32, cells: int = 32) -> RigidMotion:
    """The rigid motion M_K (y - center) + b_K extracted from u on K."""
    return RigidMotion(L=M_K_boundary(u, K, panels=panels), v=b_K(u, K, cells=cells),
                       anchor=K.center)


def project_out_rigid(u: StructuredBD, K: Box, panels: int = 32) -> StructuredBD:
    """u minus its rigid projection on K; b_K and M_K of the result vanish."""
    r = rigid_projection(u, K, panels=panels)
    shift = r.v - r.L @ r.anchor
    return u.plus_rigid(-r.L, -shift)


def korn_ratio(u, K: Box, eps_schedule, quad_cells: int = 256) -> list[dict]:
    """Scaled first-order rigidity ratios on the shrinking boxes eps * K.

    Each entry reports eps, the L1 distance of u to its rigid projection on
    eps K, the mass |Eu|(eps K), and the ratio of the first to eps times the
    second. Raises KornError where the window mass vanishes.
    """
    rows = []
    for eps in eps_schedule:
        Ke = K.scaled_about_center(float(eps))
        ev = total_variation(u, Ke) if isinstance(u, StructuredBD) else None
        if ev is None:
            pts, w = box_quadrature(Ke, cells=quad_cells, npts=1)
            ev = float(np.sum(w * frob(sym(u.grad(pts)))))
        if ev <= 0.0:
            raise KornError("rigid on εK")
        r = rigid_projection(u, Ke)
        pts, w = box_quadrature(Ke, cells=quad_cells, npts=1)
        resid = u.value(pts) - r.value(pts)
        l1 = float(np.sum(w * np.sqrt((resid * resid).sum(axis=1))))
        rows.append({"eps": float(eps), "l1_residual": l1, "ev_mass": ev,
                     "ratio": l1 / (float(eps) * ev)})
    return rows
