"""Assemble the three-term integral representation (bulk + jump + singular
profile) of a structured field against caller-supplied densities, and
compare it with direct energies of mollified regularizations.
"""

from dataclasses import dataclass

import numpy as np

from .bdmodel import StructuredBD, _check_boundary_charge, emeasure
from .cellsolver import Integrand
from .geometry import Box, box_plane_chord, box_quadrature
from .tensor import odot


@dataclass(frozen=True)
class Representation:
    bulk: float
    jump: float
    cantor: float

    @property
    def total(self) -> float:
        return self.bulk + self.jump + self.cantor


LINE_PANELS = 256  # midpoint panels per atom chord


def _line_quadrature(p, q):
    ts = (np.arange(LINE_PANELS) + 0.5) / LINE_PANELS
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    seg = float(np.linalg.norm(q - p)) / LINE_PANELS
    return pts, seg


def assemble(u: StructuredBD, box: Box, f, g, finf, quad: int = 64) -> Representation:
    """Pair the exact E-measure decomposition of u with the batched
    densities f(X, V, A), g(X, VM, VP, NU) and finf(X, V, P):

    bulk   = integral of f(x, u(x), e(u)(x)) over the box,
    jump   = integral of g(x, u-, u+, nu) over the jump planes in the box,
    cantor = integral of finf(x, u(x), polar) against the singular-profile
             atoms, with u at an atom taken as the two-sided midpoint.
    """
    _check_boundary_charge(u, box, "boundary-charged box")
    em = emeasure(u)
    pts, w = box_quadrature(box, cells=quad, npts=2)
    vals = u.value(pts)
    eac = u.e_ac(pts)
    bulk = float(np.sum(w * f(pts, vals, eac)))
    jump = 0.0
    for atom in em.jump_atoms:
        chord = box_plane_chord(box, atom.nu, atom.c)
        if chord is None:
            continue
        qpts, seg = _line_quadrature(*chord)
        base = u.without_jump(atom.plane).value(qpts)
        vm, vp = base, base + atom.dv[None, :]
        jump += seg * float(np.sum(g(qpts, vm, vp, np.broadcast_to(atom.nu, qpts.shape))))
    cantor = 0.0
    if u.profile is not None:
        p = u.profile
        for atom in em.singular_atoms:
            plane_c = float(atom.t)
            chord = box_plane_chord(box, p.eta, plane_c)
            if chord is None:
                continue
            qpts, seg = _line_quadrature(*chord)
            vals_atom = u.value(qpts) - 0.5 * float(atom.coeff) * p.xi[None, :]
            mass_per_len = float(atom.coeff) * atom.unit_norm
            dens = finf(qpts, vals_atom, np.broadcast_to(atom.polar, (len(qpts), 2, 2)))
            cantor += seg * mass_per_len * float(np.sum(dens))
    return Representation(bulk=bulk, jump=jump, cantor=cantor)


def densities_from_integrand(f0: Integrand):
    """(f, g, finf) evaluators implied by a v-independent corpus integrand
    with an exact recession: the surface density pairs the recession with
    the jump direction and the singular density pairs it with the polar."""
    if not f0.v_independent:
        raise ValueError("density derivation requires a v-independent integrand")
    rec = f0.recession_exact
    if rec is None:
        raise ValueError(f"integrand {f0.name} exposes no exact recession")

    def f(X, V, A):
        return f0.raw(np.atleast_2d(X), np.atleast_2d(V), A.reshape(-1, 2, 2))

    def g(X, VM, VP, NU):
        M = np.array([odot(vp - vm, nu) for vm, vp, nu in
                      zip(np.atleast_2d(VM), np.atleast_2d(VP), np.atleast_2d(NU))])
        return rec.raw(np.atleast_2d(X), np.atleast_2d(VM), M)

    def finf(X, V, P):
        return rec.raw(np.atleast_2d(X), np.atleast_2d(V), P.reshape(-1, 2, 2))

    return f, g, finf


# ---------------------------------------------------------------------------
# mollified comparison


def _hat_cdf(s: np.ndarray, h: float) -> np.ndarray:
    """Primitive of the width-h hat kernel: 0 below -h, 1 above h."""
    s = np.clip(s / h, -1.0, 1.0)
    return np.where(s <= 0.0, 0.5 * (s + 1.0) ** 2, 1.0 - 0.5 * (1.0 - s) ** 2)


def _hat_pdf(s: np.ndarray, h: float) -> np.ndarray:
    return np.maximum(1.0 - np.abs(s) / h, 0.0) / h


class MollifiedField:
    """Closed-form mollification of a structured field with axis-aligned
    atoms: each Heaviside becomes the hat-kernel ramp, each atom a hat bump
    in the strain."""

    def __init__(self, u: StructuredBD, width: float):
        for j in u.jumps:
            if max(abs(j.nu[0]), abs(j.nu[1])) < 1.0 - 1e-12:
                raise ValueError("mollifier requires axis-aligned jump planes")
        if u.profile is not None:
            e = u.profile.eta
            if max(abs(e[0]), abs(e[1])) < 1.0 - 1e-12:
                raise ValueError("mollifier requires an axis-aligned profile direction")
        self.u = u
        self.h = float(width)

    def value(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        u = self.u
        out = u.smooth.value(X)
        for j in u.jumps:
            out = out + _hat_cdf(X @ j.nu - j.c, self.h)[:, None] * j.dv[None, :]
        if u.profile is not None:
            p = u.profile
            t = X @ p.eta
            acc = np.full(len(X), p.staircase.offset)
            for tp, q in p.staircase.atoms():
                acc = acc + float(q) * _hat_cdf(t - float(tp), self.h)
            out = out + acc[:, None] * p.xi[None, :]
            out = out + p.beta * (X @ p.xi)[:, None] * p.eta[None, :]
        return out

    def e_field(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        u = self.u
        E = u.e_ac(X)
        for j in u.jumps:
            E = E + _hat_pdf(X @ j.nu - j.c, self.h)[:, None, None] * odot(j.dv, j.nu)[None, :, :]
        if u.profile is not None:
            p = u.profile
            t = X @ p.eta
            dens = np.zeros(len(X))
            for tp, q in p.staircase.atoms():
                dens = dens + float(q) * _hat_pdf(t - float(tp), self.h)
            E = E + dens[:, None, None] * odot(p.xi, p.eta)[None, :, :]
        return E


def mollified_energy(u: StructuredBD, f0: Integrand, width: float, box: Box,
                     quad: int = 512) -> float:
    """Direct quadrature of f0(x, u_h(x), e(u_h)(x)) over the box."""
    mol = MollifiedField(u, width)
    pts, w = box_quadrature(box, cells=quad, npts=1)
    vals = f0.raw(pts, mol.value(pts), mol.e_field(pts))
    return float(np.sum(w * vals))


def relaxation_upper_check(u: StructuredBD, f0: Integrand, levels, box: Box) -> dict:
    """Energies of hat-mollified regularizations of u at dyadic widths
    2^-level, reported against the assembled representation.

    Meaningful for convex, v-independent, one-homogeneous f0, where the
    relaxed densities are f0 itself, its value on the jump direction, and
    its value on the polar.
    """
    if not (f0.convex and f0.v_independent and f0.one_homogeneous):
        raise ValueError("relaxation check requires a convex, v-independent, "
                         "one-homogeneous integrand")
    f, g, finf = densities_from_integrand(f0)
    rep = assemble(u, box, f, g, finf)
    seq = []
    for level in levels:
        h = 2.0 ** (-int(level))
        seq.append((int(level), mollified_energy(u, f0, h, box)))
    return {"levels": seq, "representation": rep}
