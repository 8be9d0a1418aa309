"""Rigid-motion projection on a box: mean value b_K, boundary skew moment
M_K (with a volume cross-check formula), the projection that removes the
rigid part, and the scaled Korn-ratio diagnostic.

The projection fixes every infinitesimal rigid motion L x + v exactly; the
skew moment is computed relative to the box center so this holds for boxes
anywhere, not just boxes containing the origin.
"""

from dataclasses import dataclass

import numpy as np

from .bdmodel import StructuredBD, _check_boundary_charge, total_variation
from .geometry import (Box, box_integral, box_plane_segment, box_quadrature, gauss_rule,
                       segment_panels)
from .tensor import frob


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


def b_K(u: StructuredBD, K: Box) -> np.ndarray:
    """Exact mean of u over K."""
    return u.mean(K)


def _face_breaks(u: StructuredBD, p, q) -> list[float]:
    """Relative positions where atom planes of u cross the face p->q."""
    d = q - p
    out = []
    for atom in u.atoms():
        dn, c = float(d @ atom.n), float(atom.c)
        if abs(dn) < 1e-14:  # parallel to the face
            continue
        t = (c - float(p @ atom.n)) / dn
        if 0.0 < t < 1.0:
            out.append(t)
    return out


def M_K_boundary(u: StructuredBD, K: Box, panels: int = 32) -> np.ndarray:
    """Skew moment (1/2|K|) * boundary integral of (u x nu - nu x u).

    Faces are split analytically where jump or profile planes cross them and
    integrated with 2-point Gauss per panel, so piecewise-affine traces are
    integrated exactly.
    """
    _check_boundary_charge(u, K, "boundary-charged face")
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


def M_K_volume(u: StructuredBD, K: Box, cells: int = 32) -> np.ndarray:
    """(Du(K) - Du(K)^t) / (2|K|) from the full distributional gradient:
    quadrature of the absolutely continuous part plus exact atom terms."""
    du = np.zeros((2, 2))
    pts, w = box_quadrature(K, cells=cells, npts=2)
    du += np.einsum("m,mij->ij", w, u.grad_ac(pts))
    for atom in u.atoms():
        seg = box_plane_segment(K, atom.n, float(atom.c))
        if seg > 0.0:
            du += float(atom.q) * seg * np.outer(atom.a, atom.n)
    return (du - du.T) / (2.0 * K.volume)


def rigid_projection(u: StructuredBD, K: Box) -> RigidMotion:
    """The rigid motion M_K (y - center) + b_K extracted from u on K."""
    return RigidMotion(L=M_K_boundary(u, K), v=b_K(u, K), anchor=K.center)


def project_out_rigid(u: StructuredBD, K: Box) -> StructuredBD:
    """u minus its rigid projection on K; b_K and M_K of the result vanish."""
    r = rigid_projection(u, K)
    shift = r.v - r.L @ r.anchor
    return u.plus_rigid(-r.L, -shift)


def korn_ratio(u: StructuredBD, K: Box, eps_schedule, quad_cells: int = 256) -> list[dict]:
    """Scaled first-order rigidity ratios on the shrinking boxes eps * K.

    Each entry reports eps, the L1 distance of u to its rigid projection on
    eps K, the mass |Eu|(eps K), and the ratio of the first to eps times the
    second. Raises KornError where the window mass vanishes. The L1
    quadrature runs in fixed blocks of points (box_integral): memory is
    bounded by the block, not by quad_cells^2, and the value equals the
    full-array sum bit for bit.
    """
    rows = []
    for eps in eps_schedule:
        Ke = K.scaled_about_center(float(eps))
        ev = total_variation(u, Ke)
        if ev <= 0.0:
            raise KornError("rigid on εK")
        r = rigid_projection(u, Ke)

        def resid_norm(X):
            resid = u.value(X) - r.value(X)
            return np.sqrt((resid * resid).sum(axis=1))

        l1 = box_integral(Ke, quad_cells, 1, resid_norm)
        rows.append({"eps": float(eps), "l1_residual": l1, "ev_mass": ev,
                     "ratio": l1 / (float(eps) * ev)})
    return rows
