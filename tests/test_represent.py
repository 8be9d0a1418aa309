import tracemalloc

import numpy as np
import pytest

from bdrelax.bdmodel import BoundaryChargedBox, JumpPlane, StructuredBD
from bdrelax.density import abs_sym
from bdrelax.geometry import Box
from bdrelax.represent import (MollifiedField, Representation, assemble,
                               densities_from_integrand, mollified_energy,
                               relaxation_upper_check)
from bdrelax.tensor import frob, sym

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
BOX = Box.cube((0.0, 0.0), 1.0)
F0 = abs_sym(mu=1e-6)


def densities():
    return densities_from_integrand(F0)


def test_assemble_affine_only_bulk():
    A = np.array([[0.4, 0.1], [0.1, -0.6]])
    u = StructuredBD.affine(A, (0.3, 0.0))
    f, g, finf = densities()
    rep = assemble(u, BOX, f, g, finf)
    assert rep.jump == 0.0 and rep.cantor == 0.0
    assert rep.total == pytest.approx(frob(sym(A)) * BOX.volume, rel=1e-12)


def test_assemble_pure_jump():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    f, g, finf = densities()
    rep = assemble(u, BOX, f, g, finf)
    assert rep.bulk == pytest.approx(0.0, abs=1e-12)
    assert rep.cantor == 0.0
    assert rep.total == pytest.approx(2 ** -0.5, rel=1e-12)


def test_assemble_staircase_cantor():
    u = StructuredBD.staircase(depth=5, total_mass=1, support=(0, 1))
    box = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))
    f, g, finf = densities()
    rep = assemble(u, box, f, g, finf)
    assert rep.bulk == pytest.approx(0.0, abs=1e-12)
    assert rep.jump == 0.0
    assert rep.cantor == pytest.approx(2 ** -0.5, rel=1e-12)


def test_assemble_additive_over_disjoint_boxes():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    f, g, finf = densities()
    left = Box(lo=(-0.5, -0.5), hi=(0.25, 0.5))
    right = Box(lo=(0.25, -0.5), hi=(0.5, 0.5))
    rep = assemble(u, BOX, f, g, finf)
    rl = assemble(u, left, f, g, finf)
    rr = assemble(u, right, f, g, finf)
    assert rep.total == pytest.approx(rl.total + rr.total, rel=1e-12)


def test_assemble_rigid_invariance():
    u = StructuredBD.staircase(depth=4, total_mass=1, support=(0, 1))
    lam = 0.7
    L = np.array([[0.0, -lam], [lam, 0.0]])
    u2 = u.plus_rigid(L, np.array([0.4, -0.1]))
    box = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))
    f, g, finf = densities()
    r1 = assemble(u, box, f, g, finf)
    r2 = assemble(u2, box, f, g, finf)
    assert r2.total == pytest.approx(r1.total, rel=1e-13)


def test_assemble_pairs_each_jump_atom_with_its_own_plane():
    # a zero-dv plane carries no atom; the traces of the e1 plane must be
    # drawn from u without the e1 plane, not without the zero plane
    def f(X, V, A):
        return np.zeros(len(X))

    def g(X, VM, VP, NU):
        return np.linalg.norm(VM, axis=1) + 10.0 * np.linalg.norm(VP, axis=1)
    plane = JumpPlane(nu=E1, c=0.25, dv=E2)
    u = StructuredBD(jumps=(JumpPlane(nu=E2, c=0.2, dv=np.zeros(2)), plane))
    rep = assemble(u, BOX, f, g, None)
    assert rep.jump == assemble(StructuredBD(jumps=(plane,)), BOX, f, g, None).jump
    assert rep.jump == pytest.approx(10.0, rel=1e-12)


def test_assemble_boundary_charged():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    f, g, finf = densities()
    with pytest.raises(BoundaryChargedBox):
        assemble(u, Box(lo=(0.0, -0.5), hi=(1.0, 0.5)), f, g, finf)


def test_mollified_affine_is_identity():
    A = np.array([[0.3, 0.1], [0.1, -0.5]])
    u = StructuredBD.affine(A, (0.2, 0.0))
    mol = MollifiedField(u, width=0.25)
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(20, 2))
    assert np.allclose(mol.value(pts), u.value(pts), atol=0)
    assert np.allclose(mol.e_field(pts), u.e_ac(pts), atol=0)


def test_mollified_jump_ramp():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    mol = MollifiedField(u, width=0.125)
    # far from the plane the ramp saturates
    assert np.allclose(mol.value([[0.4, 0.0]])[0], E2, atol=0)
    assert np.allclose(mol.value([[-0.4, 0.0]])[0], 0.0, atol=0)
    # the strain integrates back to the jump content (hat has unit mass)
    e = mollified_energy(u, F0, 0.125, BOX, quad=512)
    assert e == pytest.approx(2 ** -0.5, rel=1e-3)


def test_mollified_energy_memory_bounded_by_the_block():
    # 512^2 points at once held (262144, 2, 2) strain stacks of 8 MB each,
    # a 30 MB peak; blocked quadrature keeps one 2 MB weighted-value vector
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    mollified_energy(u, F0, 0.125, BOX, quad=8)  # warm caches outside the window
    tracemalloc.start()
    try:
        mollified_energy(u, F0, 0.125, BOX, quad=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_relaxation_upper_check_sequences():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    out = relaxation_upper_check(u, F0, levels=(1, 2, 3, 4), box=BOX)
    rep = out["representation"].total
    for level, val in out["levels"]:
        # lower-semicontinuity direction at desk scale
        assert val >= rep * 0.97
    assert abs(dict(out["levels"])[4] - rep) <= 0.03 * rep


def test_relaxation_staircase_close_by_level_4():
    u = StructuredBD.staircase(depth=6, total_mass=1, support=(0, 1))
    box = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))
    out = relaxation_upper_check(u, F0, levels=(2, 3, 4), box=box)
    rep = out["representation"].total
    vals = [v for _, v in out["levels"]]
    assert abs(vals[-1] - rep) <= 0.05 * rep
    assert all(v >= rep * 0.97 for v in vals)


def test_relaxation_requires_structure():
    from bdrelax.density import sqrt1plus_sym

    u = StructuredBD.affine(np.eye(2))
    with pytest.raises(ValueError, match="one-homogeneous"):
        relaxation_upper_check(u, sqrt1plus_sym(), levels=(1,), box=BOX)


def test_representation_total():
    rep = Representation(bulk=1.0, jump=2.0, cantor=3.0)
    assert rep.total == 6.0
