"""Assemble the three-term integral representation (bulk + jump + singular
profile) of a structured field against caller-supplied densities, and
compare it with direct energies of mollified regularizations.
"""

from dataclasses import dataclass

import numpy as np

from .bdmodel import StructuredBD, _check_boundary_charge
from .cellsolver import Integrand
from .geometry import Box, box_integral, box_plane_chord, segment_midpoints
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


def assemble(u: StructuredBD, box: Box, f, g, finf, quad: int = 64) -> Representation:
    """Pair the parts of Eu (the ac density and the atoms of u.atoms())
    with the batched densities f(X, V, A), g(X, VM, VP, NU) and finf(X, V, P):

    bulk   = integral of f(x, u(x), e(u)(x)) over the box,
    jump   = integral of g(x, u-, u+, nu) over the jump planes in the box,
    cantor = integral of finf(x, u(x), polar) against the singular-profile
             atoms, with u at an atom taken as the two-sided midpoint.

    The bulk quadrature runs in fixed blocks of points (box_integral):
    memory is bounded by the block, not by quad^2, and the value equals the
    full-array sum bit for bit.
    """
    _check_boundary_charge(u, box, "boundary-charged box")
    bulk = box_integral(box, quad, 2, lambda X: f(X, u.value(X), u.e_ac(X)))
    jump = cantor = 0.0
    for atom in u.atoms():
        chord = box_plane_chord(box, atom.n, float(atom.c)) if atom.norm > 0.0 else None
        if chord is None:
            continue
        qpts, seg = segment_midpoints(*chord, LINE_PANELS)
        if atom.plane is not None:
            base = u.without_jump(atom.plane).value(qpts)
            nu = np.broadcast_to(atom.n, qpts.shape)
            jump += seg * float(np.sum(g(qpts, base, base + atom.a[None, :], nu)))
        else:
            vals = u.value(qpts) - 0.5 * float(atom.q) * atom.a[None, :]
            dens = finf(qpts, vals, np.broadcast_to(atom.polar, (len(qpts), 2, 2)))
            cantor += seg * (float(atom.q) * atom.norm) * float(np.sum(dens))
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
        VM = np.atleast_2d(VM)
        return rec.raw(np.atleast_2d(X), VM, odot(np.atleast_2d(VP) - VM, np.atleast_2d(NU)))

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
        for atom in u.atoms():
            if max(abs(atom.n[0]), abs(atom.n[1])) < 1.0 - 1e-12:
                raise ValueError("mollifier requires axis-aligned atom planes")
        self.u = u
        self.h = float(width)

    def value(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        u = self.u
        out = u.smooth.value(X)
        for atom in u.atoms():
            ramp = float(atom.q) * _hat_cdf(X @ atom.n - float(atom.c), self.h)
            out = out + ramp[:, None] * atom.a[None, :]
        if u.profile is not None:
            p = u.profile
            out = out + p.staircase.offset * p.xi[None, :]
            out = out + p.beta * (X @ p.xi)[:, None] * p.eta[None, :]
        return out

    def e_field(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        E = self.u.e_ac(X)
        for atom in self.u.atoms():
            bump = float(atom.q) * _hat_pdf(X @ atom.n - float(atom.c), self.h)
            E = E + bump[:, None, None] * odot(atom.a, atom.n)[None, :, :]
        return E


def mollified_energy(u: StructuredBD, f0: Integrand, width: float, box: Box,
                     quad: int = 512) -> float:
    """Direct quadrature of f0(x, u_h(x), e(u_h)(x)) over the box, in fixed
    blocks of points (box_integral): memory is bounded by the block, not by
    quad^2, and the value equals the full-array sum bit for bit."""
    mol = MollifiedField(u, width)
    return box_integral(box, quad, 1, lambda X: f0.raw(X, mol.value(X), mol.e_field(X)))


def relaxation_upper_check(u: StructuredBD, f0: Integrand, levels, box: Box) -> dict:
    """Energies of hat-mollified regularizations of u at dyadic widths
    2^-level, reported against the assembled representation.

    Meaningful for convex, v-independent, one-homogeneous f0, where the
    relaxed densities are f0 itself, its value on the jump direction, and
    its value on the polar. Both quadratures run in fixed blocks of points:
    memory is bounded by the block, not by the 512^2 points of a level, and
    the values equal the full-array sums bit for bit.
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
