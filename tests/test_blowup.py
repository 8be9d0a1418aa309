from fractions import Fraction

import numpy as np
import pytest

from bdrelax.bdmodel import SmoothPolynomial, StructuredBD
from bdrelax.blowup import (BlowupError, BlowupFrame, ProfilePair, blowup_sequence,
                            normalize_profile, normalize_profile_parallel, rescale)
from bdrelax.geometry import Box
from bdrelax.rigid import rigid_projection
from bdrelax.tensor import frob, odot

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)
K = Box.cube((0.0, 0.0), 1.0)


def profile_equal(p, q) -> bool:
    return (p.atoms == q.atoms and p.slope == q.slope and p.offset == q.offset
            and p.beta_bar == q.beta_bar and p.rho == q.rho)


# ---------------------------------------------------------------------------
# rescale


def test_rescale_affine_symmetric():
    A = np.array([[1.0, 0.25], [0.25, -0.5]])
    u = StructuredBD.affine(A)
    frame = BlowupFrame(x=(0.125, -0.25), K=K, eps=0.25)
    r = rescale(u, frame, grid_per_axis=12)
    # normalized field is A y / |A| up to the removed rigid part
    expected = r.points @ (A / frob(A)).T
    assert np.allclose(r.samples, expected, atol=1e-12)
    assert r.emass == K.volume


def test_rescale_staircase_triadic_exact():
    u = StructuredBD.staircase(depth=8, total_mass=1, support=(0, 1))
    for k in range(5):
        frame = BlowupFrame(x=(0.0, 0.0), K=K, eps=Fraction(1, 3) ** k)
        r = rescale(u, frame, grid_per_axis=6)
        assert r.emass == K.volume
        assert r.emass_ratio == 1


def test_rescale_staircase_with_profile_slope():
    # beta != 0: the slope term beta (x . xi) eta carries a constant into
    # the rescaled field; the samples are (u - R_W)(x + eps y) / (eps t)
    # with R_W the rigid projection on the window W = x + eps K
    u = StructuredBD.staircase(depth=4, beta=0.3)
    x = (Fraction(1, 2), Fraction(1, 4))
    for k in range(5):
        frame = BlowupFrame(x=x, K=K, eps=Fraction(1, 3) ** k)
        r = rescale(u, frame, grid_per_axis=6)
        assert r.emass == K.volume
        assert r.emass_ratio == 1
        eps = float(frame.eps)
        P = np.array([0.5, 0.25]) + eps * r.points
        R_W = rigid_projection(u, frame.window)
        expected = (u.value(P) - R_W.value(P)) / (eps * r.normalization)
        assert np.allclose(r.samples, expected, rtol=0.0, atol=1e-12)


def test_rescale_jump_only():
    u = StructuredBD.two_constant((0.0, 0.0), (0.0, 1.0), E1)
    r = rescale(u, BlowupFrame(x=(0.0, 0.0), K=K, eps=0.5), grid_per_axis=10)
    assert r.emass == K.volume
    assert len(r.structured.jumps) == 1
    assert r.structured.jumps[0].c == 0.0


def test_rescale_rigid_window_raises():
    L = np.array([[0.0, -1.0], [1.0, 0.0]])
    u = StructuredBD.affine(L, (0.1, 0.0))
    with pytest.raises(BlowupError, match="rigid window"):
        rescale(u, BlowupFrame(x=(0.0, 0.0), K=K, eps=0.5))


def test_rescale_requires_origin_in_K():
    with pytest.raises(BlowupError, match="origin"):
        BlowupFrame(x=(0.0, 0.0), K=Box(lo=(0.1, -0.5), hi=(1.0, 0.5)), eps=1.0)


# ---------------------------------------------------------------------------
# normalization algebra


def test_normalize_linear_profile():
    # psi_bar(t) = a t with beta_bar = 0: kappa = a/2, beta = a/2, psi = (a/2) t
    a = Fraction(5, 4)
    p = ProfilePair(atoms=(), slope=a, offset=Fraction(1, 3), beta_bar=0, rho=2,
                    eta=E1, xi=E2)
    n = normalize_profile(p)
    assert n.kappa == a / 2
    assert n.beta == a / 2
    assert n.psi.slope == a / 2
    assert n.psi.mean() == 0
    assert n.psi.derivative_mass() == n.beta * p.rho


def test_normalize_fixed_point():
    # already normalized input: zero mean and D psi_bar(I) = beta_bar rho
    p = ProfilePair(atoms=(), slope=Fraction(1, 2), offset=0, beta_bar=Fraction(1, 2),
                    rho=1, eta=E1, xi=E2)
    n = normalize_profile(p)
    assert n.kappa == 0
    assert profile_equal(n.psi, p)


def test_normalize_idempotent_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        atoms = tuple((Fraction(float(t)), Fraction(float(rng.uniform(0, 1))))
                      for t in sorted(rng.uniform(-0.4, 0.4, size=3)))
        p = ProfilePair(atoms=atoms, slope=Fraction(float(rng.normal())),
                        offset=Fraction(float(rng.normal())),
                        beta_bar=Fraction(float(rng.normal())), rho=1, eta=E1, xi=E2)
        n = normalize_profile(p)
        assert n.psi.mean() == 0
        assert n.psi.derivative_mass() == n.beta * p.rho
        again = normalize_profile(ProfilePair(atoms=n.psi.atoms, slope=n.psi.slope,
                                              offset=n.psi.offset, beta_bar=n.beta,
                                              rho=p.rho, eta=E1, xi=E2))
        assert again.kappa == 0 and profile_equal(again.psi, n.psi)


def test_normalize_unit_mass_hypothesis():
    # mass hypothesis D psi_bar(I) + beta_bar rho = rho / |eta (.) xi| with
    # beta_bar = 0 forces beta = 2^{-1/2} and D psi(I) = beta rho
    un = frob(odot(np.array(E1), np.array(E2)))  # 2^{-1/2}
    total = Fraction(1.0 / un)
    p = ProfilePair(atoms=((Fraction(-1, 4), total / 2), (Fraction(1, 4), total / 2)),
                    slope=0, offset=0, beta_bar=0, rho=1, eta=E1, xi=E2)
    n = normalize_profile(p)
    assert float(n.beta) == pytest.approx(2 ** -0.5, abs=1e-15)
    assert n.psi.derivative_mass() == n.beta  # rho = 1


def test_normalize_routes_parallel():
    p = ProfilePair(atoms=(), slope=1, offset=0, beta_bar=0, rho=1, eta=E1, xi=E1)
    with pytest.raises(ValueError, match="parallel"):
        normalize_profile(p)
    n = normalize_profile_parallel(p)
    assert n.psi.mean() == 0
    assert n.kappa == 0


def test_parallel_monotone_required():
    # signed atoms are representable (two-vector case), but the parallel
    # variant rejects any non-monotone residual
    p = ProfilePair(atoms=((Fraction(0), Fraction(-1, 2)),), slope=0, offset=0,
                    beta_bar=0, rho=1, eta=E1, xi=E1)
    with pytest.raises(ValueError, match="hypothesis violated"):
        normalize_profile_parallel(p)
    p2 = ProfilePair(atoms=(), slope=Fraction(-1), offset=0, beta_bar=0, rho=1,
                     eta=E1, xi=E1)
    with pytest.raises(ValueError, match="hypothesis violated"):
        normalize_profile_parallel(p2)


def test_parallel_unit_mass():
    # |eta (.) eta| = 1 for unit eta, so the normalized mass is rho
    p = ProfilePair(atoms=((Fraction(-1, 8), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 2))),
                    slope=0, offset=Fraction(2), beta_bar=0, rho=1, eta=E1, xi=E1)
    n = normalize_profile_parallel(p)
    assert n.psi.total_variation() == 1
    assert n.psi.mean() == 0


# ---------------------------------------------------------------------------
# blow-up sequences


def test_blowup_sequence_exact_profile():
    u = StructuredBD.staircase(depth=8, total_mass=1, support=(0, 1))
    rows = blowup_sequence(u, (0.0, 0.0), [Fraction(1, 3) ** k for k in range(3)],
                           grid_per_axis=20)
    for r in rows:
        assert r["emass"] == 1.0
        assert r["residual"] <= 1e-10
        assert not r["flagged"]


def test_blowup_sequence_perturbation_decays():
    base = StructuredBD.staircase(depth=8, total_mass=1, support=(0, 1))
    coeffs = np.zeros((2, 4, 4))
    coeffs[1, 2, 0] = 0.05  # second component gains 0.05 x^2
    u = StructuredBD(smooth=SmoothPolynomial(coeffs), profile=base.profile)
    rows = blowup_sequence(u, (0.0, 0.0), [Fraction(1, 3) ** k for k in range(4)],
                           grid_per_axis=20)
    resid = [r["residual"] for r in rows]
    assert all(b < a for a, b in zip(resid, resid[1:]))
    assert resid[-1] < 0.05 * resid[0]


def test_blowup_sequence_jump_degenerates_to_two_plateaus():
    # a pure jump through the base point, written as a single-atom profile:
    # the fit degenerates to the two-plateau staircase at every scale
    from bdrelax.bdmodel import ExplicitStaircase, Profile

    u = StructuredBD(profile=Profile(
        eta=np.array(E1), xi=np.array(E2),
        staircase=ExplicitStaircase(atom_list=((Fraction(0), Fraction(1)),))))
    rows = blowup_sequence(u, (0.0, 0.0), [Fraction(1, 2) ** k for k in range(3)],
                           grid_per_axis=16)
    for r in rows:
        assert r["emass"] == 1.0
        assert r["residual"] <= 1e-10
        assert len(r["fit"]["atom_values"]) == 1


def test_base_change_commutes_with_rescale():
    """Pushing the field through an axis dilation before or after rescaling
    gives the same sampled window (1e-10)."""
    A = np.array([[1.0, 0.3], [0.3, -0.4]])
    u = StructuredBD.affine(A)
    B = np.diag([2.0, 0.5])  # maps axis boxes to axis boxes
    Binv = np.linalg.inv(B)

    # transformed field w(y) = B u(B^t y) is affine with matrix B A B^t
    uB = StructuredBD.affine(B @ A @ B.T)
    KB = Box(lo=(-0.25, -1.0), hi=(0.25, 1.0))  # B^{-t} K
    r1 = rescale(uB, BlowupFrame(x=(0.0, 0.0), K=KB, eps=0.5), grid_per_axis=8)
    r2 = rescale(u, BlowupFrame(x=(0.0, 0.0), K=K, eps=0.5), grid_per_axis=8)
    # transport the second sample set through the base change
    pts_back = r1.points @ B  # B^t y
    expected = r2.structured.value(pts_back) @ B.T
    ratio = np.linalg.norm(expected) / np.linalg.norm(r1.samples)
    assert np.allclose(r1.samples * ratio, expected, atol=1e-10)
