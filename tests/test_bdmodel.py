import json
from fractions import Fraction

import numpy as np
import pytest

from bdrelax.bdmodel import (BoundaryChargedBox, CantorProfile, ExplicitStaircase, JumpPlane,
                             Profile, SmoothAffine, SmoothPolynomial, SmoothSinusoid,
                             StructuredBD, combine, total_variation, trace_pair,
                             tv_mass_exact)
from bdrelax.geometry import Box, box_quadrature
from bdrelax.tensor import frob, odot, sym

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def brute_force_tv(u: StructuredBD, box: Box, n: int = 512) -> float:
    """Independent oracle: Riemann sum of |e(u)| on an n^2 midpoint grid
    plus直 atom sums with chord lengths from explicit edge intersections."""
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    h = (hi - lo) / n
    xs = lo[0] + (np.arange(n) + 0.5) * h[0]
    ys = lo[1] + (np.arange(n) + 0.5) * h[1]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    ac = float(np.sum(frob(u.e_ac(pts)))) * h[0] * h[1]

    def chord_length(nu, c):
        # intersect {x . nu = c} with the four box edges directly
        corners = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
                   np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]
        pts_on = []
        for i in range(4):
            p, q = corners[i], corners[(i + 1) % 4]
            dp, dq = p @ nu - c, q @ nu - c
            if dp == 0:
                pts_on.append(p)
            if dp * dq < 0:
                pts_on.append(p + (dp / (dp - dq)) * (q - p))
        if len(pts_on) < 2:
            return 0.0
        best = 0.0
        for i in range(len(pts_on)):
            for j in range(i):
                best = max(best, float(np.linalg.norm(pts_on[i] - pts_on[j])))
        return best

    atoms = 0.0
    for jp in u.jumps:
        atoms += frob(odot(jp.dv, jp.nu)) * chord_length(jp.nu, jp.c)
    if u.profile is not None:
        p = u.profile
        un = frob(odot(p.eta, p.xi))
        for t, q in p.staircase.atoms():
            atoms += un * float(q) * chord_length(p.eta, float(t))
    return ac + atoms


def test_emeasure_affine():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    u = StructuredBD.affine(A, (0.3, 0.1))
    assert u.atoms() == ()
    pts = np.random.default_rng(0).normal(size=(5, 2))
    assert np.allclose(u.e_ac(pts), sym(A)[None, :, :], atol=0)


def test_emeasure_two_constant():
    vm, vp = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    u = StructuredBD.two_constant(vm, vp, E1)
    (atom,) = u.atoms()
    assert atom.plane == 0 and atom.q == 1 and atom.c == 0.0
    assert np.array_equal(atom.n, E1) and np.array_equal(atom.a, vp - vm)
    m = odot(vp - vm, E1)
    assert atom.norm == pytest.approx(frob(m), abs=0)
    assert np.allclose(atom.polar, m / frob(m), atol=0)
    # value convention: v+ on the x . nu >= 0 side
    assert np.allclose(u.value([[0.5, 0.0]])[0], vp)
    assert np.allclose(u.value([[-0.5, 0.0]])[0], vm)


def test_staircase_singular_mass_unit_box():
    # depth-d staircase of total mass 1: singular mass over a unit box
    # covering the support equals |e1 (.) e2| = 2^{-1/2}
    for depth in (1, 3, 5):
        u = StructuredBD.staircase(depth=depth, total_mass=1, support=(0, 1))
        box = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))
        assert total_variation(u, box) == pytest.approx(2 ** -0.5, abs=0)


def test_tv_affine_and_jump_examples():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    u = StructuredBD.affine(A)
    K = Box.cube((0.0, 0.0), 1.0)
    assert total_variation(u, K) == pytest.approx(frob(sym(A)), abs=0)
    uj = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    assert total_variation(uj, K) == pytest.approx(2 ** -0.5, abs=0)


def test_tv_against_brute_force_oracle():
    terms = [((0.2, -0.1), (1.0, 0.5), 0.3), ((-0.15, 0.25), (0.5, 1.5), 1.1)]
    u = StructuredBD(
        smooth=SmoothSinusoid(terms),
        jumps=(JumpPlane(nu=np.array([0.6, 0.8]), c=0.05, dv=np.array([0.3, -0.2])),),
        profile=Profile(eta=E1, xi=E2, staircase=CantorProfile.make(4, 1, (-0.3, 0.3))),
    )
    box = Box(lo=(-0.45, -0.4), hi=(0.55, 0.45))
    exact = total_variation(u, box, ac_cells=128)
    brute = brute_force_tv(u, box, n=512)
    assert exact == pytest.approx(brute, abs=1e-6 * max(1.0, abs(brute)) + 2e-4)
    # the AC Riemann sum at 512 is only O(h); tighten by checking the atom
    # parts alone agree to 1e-6
    u_atoms = StructuredBD(jumps=u.jumps, profile=u.profile)
    assert total_variation(u_atoms, box) == pytest.approx(
        brute_force_tv(u_atoms, box, n=512), abs=1e-6)


def test_tv_lower_bound_by_jump_content():
    rng = np.random.default_rng(3)
    K = Box.cube((0.0, 0.0), 1.0)
    for _ in range(5):
        dv = rng.normal(size=2)
        u = StructuredBD(jumps=(JumpPlane(nu=E1, c=float(rng.uniform(-0.3, 0.3)), dv=dv),))
        tv = total_variation(u, K)
        assert tv >= (1.0 / np.sqrt(2.0)) * np.linalg.norm(dv) * 1.0 - 1e-12


def test_boundary_charged_box():
    u = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    box = Box(lo=(0.0, -0.5), hi=(1.0, 0.5))  # jump plane x1 = 0 on a face
    with pytest.raises(BoundaryChargedBox, match="boundary-charged box"):
        total_variation(u, box)


def test_emeasure_linearity():
    A = np.array([[0.5, 0.0], [0.0, -0.5]])
    u1 = StructuredBD.affine(A)
    u2 = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    u = combine(u1, u2)
    K = Box.cube((0.0, 0.0), 1.0)
    assert total_variation(u, K) == pytest.approx(
        total_variation(u1, K) + total_variation(u2, K), abs=0)
    assert [atom.plane for atom in u.atoms()] == [0]


def test_cantor_refinement_preserves_mass():
    c = CantorProfile.make(3, Fraction(7, 5), (0, 1))
    for _ in range(4):
        c2 = c.refine()
        assert sum(q for _, q in c2.atoms()) == sum(q for _, q in c.atoms())
        # children stay inside the parent's interval neighborhood
        parents = c.atoms()
        kids = c2.atoms()
        assert len(kids) == 2 * len(parents)
        c = c2


def test_atoms_jumps_then_staircase():
    # one atom list: every jump plane in order, then every staircase atom
    # with its exact position and jump, built once per field
    jumps = (JumpPlane(nu=E2, c=0.25, dv=(1.0, 0.5)), JumpPlane(nu=E1, c=-0.1, dv=(0.0, 0.0)))
    stair = CantorProfile.make(2, Fraction(3, 2), (0, 1))
    u = StructuredBD(jumps=jumps, profile=Profile(eta=E1, xi=E2, staircase=stair))
    atoms = u.atoms()
    assert atoms is u.atoms() and len(atoms) == 2 + 4
    for i, (atom, j) in enumerate(zip(atoms, jumps)):
        assert atom.plane == i and atom.q == 1 and atom.c == j.c
        assert np.array_equal(atom.n, j.nu) and np.array_equal(atom.a, j.dv)
    assert atoms[1].norm == 0.0
    for atom, (t, q) in zip(atoms[2:], stair.atoms()):
        assert atom.plane is None and type(atom.c) is Fraction and (atom.c, atom.q) == (t, q)
        assert np.array_equal(atom.n, E1) and np.array_equal(atom.a, E2)
        assert atom.norm == frob(odot(E1, E2))
        assert np.array_equal(atom.polar, odot(E1, E2) / frob(odot(E1, E2)))


def test_cantor_atoms_built_once_and_immutable():
    c = CantorProfile.make(4, Fraction(1), (0, 1))
    assert isinstance(c.atoms(), tuple) and c.atoms() is c.atoms()
    assert c.offset == -float(c.mean_raw())
    # a fresh instance rebuilds the same exact atoms
    assert CantorProfile.make(4, Fraction(1), (0, 1)).atoms() == c.atoms()


def test_trace_pair():
    vm, vp = np.array([0.1, 0.2]), np.array([0.4, -0.2])
    u = StructuredBD.two_constant(vm, vp, E1)
    a, b, nu = trace_pair(u, 0)
    assert np.allclose(a, vm, atol=0) and np.allclose(b, vp, atol=0)
    assert np.allclose(nu, E1, atol=0)
    assert all(np.array_equal(x, y) for x, y in zip(trace_pair(u, -1), (a, b, nu)))
    # superposed affine part: traces differ by dv
    A = np.array([[0.3, 0.0], [0.1, 0.2]])
    u2 = StructuredBD(smooth=SmoothAffine(A, vm), jumps=u.jumps)
    at = np.array([0.0, 0.7])
    a2, b2, _ = trace_pair(u2, 0, at=at)
    assert np.allclose(b2 - a2, vp - vm, atol=0)
    assert np.allclose(a2, A @ at + vm, atol=1e-15)
    # swapped orientation
    a3, b3, nu3 = trace_pair(u, 0, orientation=-1)
    assert np.allclose(a3, vp, atol=0) and np.allclose(b3, vm, atol=0)
    assert np.allclose(nu3, -E1, atol=0)


def test_mean_exactness():
    # affine mean: v + A x_c
    A = np.array([[0.2, -0.4], [0.3, 0.1]])
    v = np.array([1.0, -2.0])
    box = Box(lo=(0.5, -1.0), hi=(2.5, 1.5))
    u = StructuredBD.affine(A, v)
    assert np.allclose(u.mean(box), v + A @ box.center, atol=1e-14)
    # jump mean: dv times the area fraction on the positive side
    uj = StructuredBD.two_constant((0.0, 0.0), E2, E1)
    K = Box(lo=(-0.5, 0.0), hi=(1.5, 1.0))
    assert np.allclose(uj.mean(K), E2 * (1.5 / 2.0), atol=1e-14)
    # sinusoid mean in its four frequency cases, against the mean of
    # Im exp(i (p x + q y + phase)) as a product of two 1-d integrals
    (x0, y0), (x1, y1) = box.lo, box.hi

    def mean_1d(p, a, b):
        return 1.0 if p == 0.0 else (np.exp(1j * p * b) - np.exp(1j * p * a)) / (1j * p * (b - a))

    for f in ((1.0, 2.0), (0.0, 1.5), (0.75, 0.0), (0.0, 0.0)):
        a, ph = np.array([0.4, -1.3]), 0.7
        u = StructuredBD(smooth=SmoothSinusoid([(a, f, ph)]))
        p, q = 2.0 * np.pi * f[0], 2.0 * np.pi * f[1]
        expected = a * (np.exp(1j * ph) * mean_1d(p, x0, x1) * mean_1d(q, y0, y1)).imag
        assert np.allclose(u.mean(box), expected, atol=1e-14), f
    # staircase plateaus: a Cantor staircase is shifted to zero average over
    # its support, so it averages to 0 xi over the support box
    uc = StructuredBD.staircase(depth=5, support=(0, 1))
    assert np.allclose(uc.mean(Box(lo=(0.0, -1.0), hi=(1.0, 2.0))), 0.0, atol=1e-14)
    # two atoms on t = x . e1 in [-1/2, 1]: psi = -0.4, then +1/2 at 1/4 and
    # +1/3 at 1/2, plus the slope term beta (x . e2) e1 at the box center (x . e2 = 1)
    us = StructuredBD(profile=Profile(eta=E1, xi=E2, beta=0.5, staircase=ExplicitStaircase(
        atom_list=((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3))),
        offset=-0.4)))
    psi_mean = -0.4 + 0.5 * (0.75 / 1.5) + (1.0 / 3.0) * (0.5 / 1.5)
    assert np.allclose(us.mean(Box(lo=(-0.5, 0.0), hi=(1.0, 2.0))),
                       psi_mean * E2 + 0.5 * E1, atol=1e-14)


def test_json_round_trip():
    u = StructuredBD(
        smooth=SmoothAffine([[0.1, 0.2], [0.0, -0.1]], [1.0, 0.0]),
        jumps=(JumpPlane(nu=E1, c=0.25, dv=np.array([0.0, 2.0])),),
        profile=Profile(eta=E1, xi=E2, beta=0.5,
                        staircase=CantorProfile.make(3, 1, (0, 1))),
    )
    u2 = StructuredBD.from_json(json.loads(json.dumps(u.to_json())))
    pts = np.random.default_rng(1).uniform(-1, 2, size=(50, 2))
    assert np.allclose(u.value(pts), u2.value(pts), atol=1e-12)
    # explicit staircase variant
    u3 = StructuredBD(profile=Profile(eta=E1, xi=E2, staircase=ExplicitStaircase(
        atom_list=((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3))),
        offset=-0.4)))
    u4 = StructuredBD.from_json(u3.to_json())
    assert np.allclose(u3.value(pts), u4.value(pts), atol=1e-12)
    # the polynomial and sinusoid smooth parts of a BD spec
    coeffs = np.arange(18, dtype=float).reshape(2, 3, 3) / 10.0 - 0.8
    for smooth in (SmoothPolynomial(coeffs),
                   SmoothSinusoid([((0.5, -0.2), (1.0, 2.0), 0.4), ((0.1, 0.3), (0.0, 1.0), 0.0)])):
        u5 = StructuredBD(smooth=smooth, jumps=u.jumps)
        d = json.loads(json.dumps(u5.to_json()))
        assert d["smooth"]["type"] == smooth.kind
        u6 = StructuredBD.from_json(d)
        assert type(u6.smooth) is type(smooth)
        assert np.array_equal(u5.value(pts), u6.value(pts))
        assert np.array_equal(u5.smooth.grad(pts), u6.smooth.grad(pts))


STAIR5 = StructuredBD.staircase(depth=5, total_mass=1, support=(0, 1))


@pytest.mark.parametrize("u", [
    STAIR5,
    StructuredBD(jumps=(JumpPlane(nu=E2, c=0.125, dv=np.array([0.3, -1.1])),),
                 profile=STAIR5.profile),
    StructuredBD(profile=Profile(eta=E1, xi=E2, staircase=ExplicitStaircase(
        atom_list=((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3))),
        offset=-0.4))),
], ids=["cantor", "jump-and-cantor", "explicit"])
def test_tv_mass_exact_matches_float_path(u):
    m = tv_mass_exact(u, (Fraction(-1, 4), Fraction(-1, 2)), (Fraction(5, 4), Fraction(1, 2)))
    box = Box(lo=(-0.25, -0.5), hi=(1.25, 0.5))
    assert m.value == pytest.approx(total_variation(u, box), abs=0)


def test_distinct_jump_planes_required():
    with pytest.raises(ValueError, match="pairwise distinct"):
        StructuredBD(jumps=(JumpPlane(nu=E1, c=0.0, dv=E2),
                            JumpPlane(nu=E1, c=0.0, dv=E1)))


def test_jump_normal_orientation_checked_on_construction():
    # a plane has one description: nu = -e1 would describe {x1 = 0.2} a
    # second time, and the pair below is in truth one field with no jump
    with pytest.raises(ValueError, match="first nonzero component positive"):
        StructuredBD(jumps=(JumpPlane(E1, 0.2, E2), JumpPlane(-E1, -0.2, E2)))
    with pytest.raises(ValueError, match="first nonzero component positive"):
        StructuredBD.two_constant((0.0, 0.0), E2, -E1)
    with pytest.raises(ValueError, match="first nonzero component positive"):
        JumpPlane(np.array([0.0, -1.0]), 0.0, E2)
    assert np.array_equal(JumpPlane(np.array([0.0, 1.0]), 0.0, E2).nu, E2)


def _seed_plateaus(stair):
    """The seed's plateau walk over the exact atoms: the reference the
    cached-steps form must reproduce bit for bit."""
    offset = stair.offset
    pieces = []
    lo = -np.inf
    level = 0.0
    for p, q in stair.atoms():
        pieces.append((lo, float(p), level + offset))
        lo = float(p)
        level += float(q)
    pieces.append((lo, np.inf, level + offset))
    return pieces


@pytest.mark.parametrize("stair", [
    *(CantorProfile.make(depth, Fraction(3, 7), (Fraction(-1, 3), 2)) for depth in range(1, 9)),
    ExplicitStaircase(atom_list=((Fraction(1, 4), Fraction(1, 2)), (0.5, Fraction(1, 3)),
                                 (0.6, 0.1)), offset=-0.4),
    ExplicitStaircase(atom_list=(), offset=0.3),
], ids=[*(f"cantor-{d}" for d in range(1, 9)), "explicit", "empty"])
def test_plateaus_match_seed_walk(stair):
    new, ref = stair.plateaus(), _seed_plateaus(stair)
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert np.array_equal(a, b)
    # the plateau values are the staircase values just left of each atom
    t = np.array([hi for _, hi, _ in new[:-1]])
    assert np.array_equal(stair.value(np.nextafter(t, -np.inf)), [v for *_, v in new[:-1]])


def _random_polynomial(rng):
    return SmoothPolynomial(rng.normal(size=(2, int(rng.integers(1, 5)), int(rng.integers(1, 5)))))


def test_polynomial_mean_matches_two_point_gauss():
    # two-point Gauss is exact up to degree 3 in each variable
    rng = np.random.default_rng(3)
    for _ in range(50):
        poly = _random_polynomial(rng)
        lo = rng.uniform(-1.5, 1.0, size=2)
        box = Box(lo=tuple(lo), hi=tuple(lo + rng.uniform(0.1, 1.5, size=2)))
        pts, w = box_quadrature(box, cells=1, npts=2)
        expected = (w[:, None] * poly.value(pts)).sum(axis=0) / box.volume
        assert np.allclose(poly.mean(box), expected, rtol=0, atol=1e-13)


def test_polynomial_grad_matches_central_differences():
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(20):
        poly = _random_polynomial(rng)
        X = rng.uniform(-1.5, 1.5, size=(7, 2))
        G = poly.grad(X)
        assert G.shape == (7, 2, 2)
        for d in range(2):
            step = h * np.eye(2)[d]
            fd = (poly.value(X + step) - poly.value(X - step)) / (2 * h)
            assert np.allclose(G[:, :, d], fd, rtol=0, atol=1e-8)
