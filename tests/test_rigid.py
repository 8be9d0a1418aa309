import numpy as np
import pytest

from bdrelax.bdmodel import (BoundaryChargedBox, JumpPlane, SmoothPolynomial,
                             SmoothSinusoid, StructuredBD, total_variation)
from bdrelax.geometry import Box
from bdrelax.rigid import (KornError, M_K_boundary, M_K_volume, b_K, korn_ratio,
                           project_out_rigid)
from bdrelax.tensor import frob

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
K = Box.cube((0.0, 0.0), 1.0)


def test_bk_constant_and_skew():
    v = np.array([0.7, -0.3])
    assert np.allclose(b_K(StructuredBD.affine(np.zeros((2, 2)), v), K), v, atol=0)
    L = np.array([[0.0, -2.0], [2.0, 0.0]])
    assert np.allclose(b_K(StructuredBD.affine(L), K), 0.0, atol=1e-15)


def test_bk_affine_offcenter():
    # hand integration: mean of v + A x over a box centered at x_c is v + A x_c
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([0.5, 0.5])
    box = Box(lo=(1.0, 2.0), hi=(3.0, 5.0))
    assert np.allclose(b_K(StructuredBD.affine(A, v), box), v + A @ box.center, atol=1e-13)


def test_mk_boundary_on_rigid_and_symmetric():
    L = np.array([[0.0, 1.5], [-1.5, 0.0]])
    assert np.allclose(M_K_boundary(StructuredBD.affine(L), K), L, atol=1e-13)
    A = np.array([[2.0, 0.3], [0.3, -1.0]])
    assert np.allclose(M_K_boundary(StructuredBD.affine(A), K), 0.0, atol=1e-13)
    assert np.allclose(M_K_boundary(StructuredBD.affine(np.zeros((2, 2))), K), 0.0, atol=0)


def test_mk_volume_examples():
    L = np.array([[0.0, -0.4], [0.4, 0.0]])
    assert np.allclose(M_K_volume(StructuredBD.affine(L), K), L, atol=1e-13)
    # pure jump centered on the plane: (dv x nu - nu x dv) * chord / (2 |K|)
    dv = np.array([0.2, 0.7])
    u = StructuredBD.two_constant((0.0, 0.0), dv, E1)
    expected = (np.outer(dv, E1) - np.outer(E1, dv)) * 1.0 / (2.0 * K.volume)
    assert np.allclose(M_K_volume(u, K), expected, atol=1e-13)


def test_mk_cross_formula_on_smooth():
    u = StructuredBD(smooth=SmoothSinusoid([((0.5, -0.2), (1.0, 2.0), 0.4)]))
    d = frob(M_K_boundary(u, K, panels=32) - M_K_volume(u, K, cells=32))
    assert d < 1e-4


def test_mk_boundary_face_splitting_exact_for_jump_plus_affine():
    # piecewise-affine traces must integrate exactly once faces are split
    A = np.array([[0.3, -0.2], [0.6, 0.1]])
    dv = np.array([-0.4, 0.9])
    u = StructuredBD(smooth=SmoothPolynomial(np.zeros((2, 1, 1))),
                     jumps=(JumpPlane(nu=E1, c=0.2, dv=dv),))
    u = StructuredBD(smooth=u.smooth, jumps=u.jumps)
    mb = M_K_boundary(u, K, panels=4)
    mv = M_K_volume(u, K, cells=4)
    assert np.allclose(mb, mv, atol=1e-13)


@pytest.mark.parametrize("eta, xi, box", [
    (E1, E2, Box.cube((0.5, 0.0), 1.5)),  # holds the whole support
    (E1, E2, Box((0.2, -0.3), (0.9, 0.4))),  # cuts the support
    ((0.6, 0.8), (-0.8, 0.6), Box((0.1, -0.2), (0.7, 0.5))),  # oblique planes
], ids=["whole", "cut", "oblique"])
def test_mk_volume_profile_matches_boundary(eta, xi, box):
    # the staircase atoms enter M_K_volume through the profile branch and
    # M_K_boundary through the face breaks; both are exact here
    u = StructuredBD.staircase(depth=4, total_mass=1, support=(0, 1), eta=eta, xi=xi, beta=0.3)
    mv = M_K_volume(u, box, cells=4)
    assert np.allclose(mv, M_K_boundary(u, box, panels=4), atol=1e-13)
    assert frob(mv) > 0.1
    if box.lo[0] < 0.0:
        # Du(K) = (total mass x chord) xi (x) eta + beta |K| eta (x) xi
        du = 1.5 * np.outer(E2, E1) + 0.3 * box.volume * np.outer(E1, E2)
        assert np.allclose(mv, (du - du.T) / (2.0 * box.volume), atol=1e-15)


def test_boundary_charged_face():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E2)  # plane x2 = 0
    box = Box(lo=(-0.5, 0.0), hi=(0.5, 1.0))
    with pytest.raises(BoundaryChargedBox, match="boundary-charged face"):
        M_K_boundary(u, box)


def test_project_out_rigid():
    rng = np.random.default_rng(4)
    lam = rng.normal()
    L = np.array([[0.0, -lam], [lam, 0.0]])
    v = rng.normal(size=2)
    u = StructuredBD.affine(L, v)
    w = project_out_rigid(u, K)
    pts = rng.uniform(-0.5, 0.5, size=(30, 2))
    assert np.max(np.abs(w.value(pts))) < 1e-13
    # idempotence and vanishing moments after projection
    A = np.array([[0.5, 0.7], [-0.1, 0.2]])
    u2 = StructuredBD.affine(A, v)
    w2 = project_out_rigid(u2, K)
    assert np.allclose(b_K(w2, K), 0.0, atol=1e-10)
    assert np.allclose(M_K_boundary(w2, K), 0.0, atol=1e-10)
    w3 = project_out_rigid(w2, K)
    assert np.allclose(w3.value(pts), w2.value(pts), atol=1e-12)
    # symmetric gradient unchanged
    assert total_variation(w2, K) == pytest.approx(total_variation(u2, K), rel=1e-13)


def test_korn_rigid_raises():
    L = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(KornError, match="rigid"):
        korn_ratio(StructuredBD.affine(L, (0.2, 0.1)), K, (1.0, 0.5))


def test_korn_affine_symmetric_scale_invariant():
    A = np.array([[1.0, 0.2], [0.2, -0.6]])
    rows = korn_ratio(StructuredBD.affine(A), K, (1.0, 0.5, 0.25), quad_cells=128)
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) - min(ratios) < 1e-6


def test_korn_staircase_reports_bounded_ratios():
    u = StructuredBD.staircase(depth=6, total_mass=1, support=(0, 1))
    rows = korn_ratio(u, K, (1.0, 1.0 / 3.0), quad_cells=81)
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)
    assert set(rows[0]) == {"eps", "l1_residual", "ev_mass", "ratio"}
