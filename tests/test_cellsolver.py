import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bdrelax.cellsolver import (AffineData, BadSpec, CellSpec, Grid, GridDisplacement,
                                Integrand, JumpData, SolverParams, _q1_quadrature,
                                _sbd_objective, abs_sym, energy_and_grad,
                                frame_for_normal, g_odot, g_penalty, m_continuity_check,
                                prolong, raw_energy, reparametrize, scaled, solve_ld,
                                solve_periodic, solve_sbd, sqrt1plus_sym)
from bdrelax.density import laminate_a, mueller_h_integrand, vmin_abs
from bdrelax.geometry import Box
from bdrelax.minimize import SolverError, minimize_lbfgs
from bdrelax.tensor import frob, odot, sym

RNG = np.random.default_rng(0)


def rand_sym():
    B = RNG.normal(size=(2, 2))
    return 0.5 * (B + B.T)


def test_minimizer_on_quadratic():
    H = np.array([[4.0, 1.0], [1.0, 2.0]])

    def fg(x):
        return 0.5 * x @ H @ x, H @ x

    res = minimize_lbfgs(fg, np.array([3.0, -5.0]))
    assert res["converged"]
    assert np.linalg.norm(res["x"]) < 1e-6


def test_convex_affine_exactness():
    f = abs_sym(mu=1e-6)
    for _ in range(3):
        A = rand_sym()
        sol = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8), f)
        assert sol.value == pytest.approx(frob(A), abs=1e-5)


def test_sqrt1plus_zero_data():
    sol = solve_ld(CellSpec(boundary=AffineData(np.zeros((2, 2)), np.zeros(2)), mesh=8),
                   sqrt1plus_sym())
    assert sol.value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("f", [
    sqrt1plus_sym(),
    # v-dependent: the chained v- and A-derivatives of the reparametrization
    reparametrize(vmin_abs(mu=1e-2), c=0.5, v0=(0.3, -0.2), eps_v=0.5,
                  A0=[[0.1, 0.2], [0.2, -0.1]], s_A=0.25),
], ids=["sqrt1plus-sym", "vmin-abs-reparametrized"])
def test_gradient_consistency(f):
    # finite differences against the assembled gradient
    grid = Grid(Box.cube((0.0, 0.0), 1.0), 4)
    U = RNG.normal(size=(grid.n_nodes, 2))
    e0, g0 = energy_and_grad(grid, U, f)
    h = 1e-7
    for idx in [(0, 0), (7, 1), (12, 0)]:
        U2 = U.copy()
        U2[idx] += h
        e2, _ = energy_and_grad(grid, U2, f)
        fd = (e2 - e0) / h
        assert fd == pytest.approx(g0[idx], rel=1e-4, abs=1e-7)


def _seed_q1(grid, U, conn, f, freeze_x=None, raw=False, exact_sum=False):
    """The seed's Q1 kernel (einsum contractions, np.add.at scatter): the
    reference the element-last kernel must reproduce bit for bit."""
    Ue = U[conn]
    V = np.einsum("qa,eak->eqk", grid.Nval, Ue)
    G = np.einsum("qaj,eak->eqkj", grid.dN, Ue)
    X = grid.qp
    if freeze_x is not None:
        X = np.broadcast_to(np.asarray(freeze_x, dtype=float), X.shape)
    E, Q = V.shape[0], V.shape[1]
    Xf, Vf, Gf = X.reshape(-1, 2), V.reshape(-1, 2), G.reshape(-1, 2, 2)
    if raw:
        vals = f.raw(Xf, Vf, Gf)
        if exact_sum:
            return math.fsum(float(grid.wq) * v for v in vals.tolist()), None
        return grid.wq * float(np.sum(vals)), None
    energy = grid.wq * float(np.sum(f.value(Xf, Vf, Gf)))
    dV, dA = f.grad(Xf, Vf, Gf)
    nodeG = grid.wq * (np.einsum("qa,eqk->eak", grid.Nval, dV.reshape(E, Q, 2))
                       + np.einsum("qaj,eqkj->eak", grid.dN, dA.reshape(E, Q, 2, 2)))
    gradU = np.zeros_like(U)
    np.add.at(gradU, conn, nodeG)
    return energy, gradU


BIT_INTEGRANDS = {
    "mueller-h": mueller_h_integrand(),
    "laminate-a": laminate_a(),
    "sqrt1plus-sym": sqrt1plus_sym(),
    # the one path with a nonzero v-gradient
    "vmin-abs": reparametrize(vmin_abs(mu=1e-2), c=0.5, v0=(0.3, -0.2), eps_v=0.5,
                              A0=[[0.1, 0.2], [0.2, -0.1]], s_A=0.25),
}


def _assert_kernel_bits(grid, U, conn):
    for f in BIT_INTEGRANDS.values():
        for fx in (None, np.array([0.3, -0.1])):
            e_ref, g_ref = _seed_q1(grid, U, conn, f, fx)
            e_new, g_new = _q1_quadrature(grid, U, conn, f, fx)
            assert e_new == e_ref
            assert np.array_equal(g_new, g_ref)
            for exact in (False, True):
                r_ref = _seed_q1(grid, U, conn, f, fx, raw=True, exact_sum=exact)[0]
                r_new = _q1_quadrature(grid, U, conn, f, fx, raw=True, exact_sum=exact)[0]
                assert r_new == r_ref


@pytest.mark.parametrize("mesh", [4, 8, 16, 64])
@pytest.mark.parametrize("nu", [None, (1.0, 1.0), (0.6, 0.8)], ids=["axis", "diagonal", "0.6-0.8"])
def test_q1_kernel_bit_identical_to_seed(mesh, nu):
    grid = Grid(Box.cube((0.0, 0.0), 1.0), mesh, None if nu is None else frame_for_normal(nu))
    U = np.random.default_rng(mesh).normal(size=(grid.n_nodes, 2))
    _assert_kernel_bits(grid, U, grid.conn)
    # the public wrappers run the kernel on the grid's own connectivity
    f = BIT_INTEGRANDS["mueller-h"]
    e_ref, g_ref = _seed_q1(grid, U, grid.conn, f)
    e_new, g_new = energy_and_grad(grid, U, f)
    assert e_new == e_ref and np.array_equal(g_new, g_ref)
    assert raw_energy(grid, U, f, exact_sum=True) == _seed_q1(grid, U, grid.conn, f, raw=True,
                                                              exact_sum=True)[0]


@pytest.mark.parametrize("mesh", [4, 8, 16, 64])
@pytest.mark.parametrize("layout", ["periodic", "per-element"])
def test_q1_kernel_bit_identical_other_connectivities(mesh, layout):
    # the wrap-around connectivity of the periodic cell formula and the
    # identity connectivity of the per-element (SBD) fields
    grid = Grid(Box.cube((0.0, 0.0), 1.0), mesh)
    E = mesh * mesh
    if layout == "periodic":
        i = grid.conn // (mesh + 1) % mesh
        j = grid.conn % (mesh + 1) % mesh
        conn, n = i * mesh + j, mesh * mesh
    else:
        conn, n = np.arange(4 * E).reshape(E, 4), 4 * E
    U = np.random.default_rng(mesh).normal(size=(n, 2))
    _assert_kernel_bits(grid, U, conn)


def brute_force_reduced(A, f, mesh=4, rounds=3, span=0.6, pts=7):
    """Independent oracle: nested grid search over two interior nodes, all
    other interior nodes pinned to the affine interpolant."""
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=mesh)
    grid = Grid(spec.box, spec.mesh)
    base = spec.boundary.value(grid.nodes)
    interior = np.flatnonzero(~grid.boundary_mask)
    picks = [interior[0], interior[len(interior) // 2]]
    center = np.concatenate([base[picks[0]], base[picks[1]]])
    best_val, best_x = np.inf, center.copy()
    width = span
    for _ in range(rounds):
        axes = [np.linspace(best_x[k] - width, best_x[k] + width, pts) for k in range(4)]
        for combo in itertools.product(*axes):
            U = base.copy()
            U[picks[0]] = combo[:2]
            U[picks[1]] = combo[2:]
            val = raw_energy(grid, U, f)
            if val < best_val:
                best_val, best_x = val, np.array(combo)
        width /= pts - 1
    return best_val


def test_reduced_brute_force_oracle():
    # on the reduced problem the affine interpolant is optimal for convex
    # densities, and the full solver must agree within 1e-4
    for f in (abs_sym(mu=1e-6), sqrt1plus_sym()):
        A = rand_sym()
        oracle = brute_force_reduced(A, f)
        sol = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=4), f)
        assert sol.value <= oracle + 1e-4
        assert abs(sol.value - oracle) <= 1e-4


def test_monotone_mesh_refinement_convex():
    f = sqrt1plus_sym()
    A = rand_sym()
    v_coarse = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8), f).value
    v_fine = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=16), f).value
    assert v_fine <= v_coarse + 1e-6


def test_frame_shift_v_independent():
    f = abs_sym(mu=1e-6)
    A = rand_sym()
    v0 = np.array([3.0, -1.0])
    s1 = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8), f)
    s2 = solve_ld(CellSpec(boundary=AffineData(A, v0), mesh=8), f)
    assert abs(s1.value - s2.value) <= 1e-8


def test_skew_affine_shift_sym_only():
    f = abs_sym(mu=1e-6)
    A = rand_sym()
    L = np.array([[0.0, -0.8], [0.8, 0.0]])
    s1 = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8), f)
    s2 = solve_ld(CellSpec(boundary=AffineData(A + L, np.zeros(2)), mesh=8), f)
    assert abs(s1.value - s2.value) <= 1e-8


def _solve_sbd_odot(spec, f):
    return solve_sbd(spec, f, g_odot())


@pytest.mark.parametrize("solve, max_iters",
                         [(solve_ld, 2000), (_solve_sbd_odot, 200), (solve_periodic, 300)],
                         ids=["solve_ld", "solve_sbd", "solve_periodic"])
def test_multistart_determinism(solve, max_iters):
    f = abs_sym(mu=1e-6)
    A = rand_sym()
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8,
                    solver=SolverParams(multistarts=3, seed=5, max_iters=max_iters))
    v1 = solve(spec, f)
    v2 = solve(spec, f)
    assert v1.value == v2.value
    assert v1.diagnostics["start_values"] == v2.diagnostics["start_values"]
    v3 = solve(replace(spec, solver=replace(spec.solver, jobs=3)), f)
    assert v3.value == v1.value
    assert v3.diagnostics["start_values"] == v1.diagnostics["start_values"]


def test_periodic_corrector():
    # the laminate's corrector is periodic with zero mean; every start is
    # solved and the value matches the single-start one
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8, box=Box((0.0, 0.0), (1.0, 1.0)),
                    solver=SolverParams(multistarts=3, seed=2))
    sol = solve_periodic(spec, laminate_a())
    assert len(sol.diagnostics["start_values"]) == 3
    W = sol.argmin.values.reshape(9, 9, 2)
    assert np.array_equal(W[0], W[8]) and np.array_equal(W[:, 0], W[:, 8])
    assert np.max(np.abs(W[:8, :8].mean(axis=(0, 1)))) < 1e-12
    assert np.max(np.abs(W)) > 1e-3  # a laminate needs a non-zero corrector
    single = solve_periodic(replace(spec, solver=SolverParams()), laminate_a())
    assert sol.value == pytest.approx(single.value, rel=1e-7)


def test_rotated_frame_affine_exact():
    nu = np.array([0.6, 0.8])
    R = frame_for_normal(nu)
    A = rand_sym()
    sol = solve_ld(CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8, frame=R),
                   abs_sym(mu=1e-6))
    assert sol.value == pytest.approx(frob(A), abs=1e-5)


def test_integrand_overflow():
    def bad(X, V, A):
        return np.full(len(np.atleast_2d(V)), np.inf)

    f = Integrand(name="bad", value=bad, grad=lambda X, V, A: (np.zeros_like(V), np.zeros_like(A)),
                  raw=bad)
    with pytest.raises(SolverError, match="integrand overflow"):
        solve_ld(CellSpec(boundary=AffineData(np.eye(2), np.zeros(2)), mesh=4), f)


def test_energy_wall_shortens_the_step():
    # 3 - |sym A|^2 below |sym A| = 1.5 and +inf above: a trial point past
    # the wall shortens the step instead of failing the solve
    def wall(X, V, A):
        q = (sym(A) ** 2).sum(axis=(-2, -1))
        return np.where(q < 2.25, 3.0 - q, np.inf)

    f = Integrand(name="wall", value=wall, grad=lambda X, V, A: (np.zeros_like(V), -2.0 * sym(A)),
                  raw=wall)
    spec = CellSpec(boundary=AffineData(np.zeros((2, 2)), np.zeros(2)), mesh=4)
    nudged = 1e-3 * np.random.default_rng(0).normal(size=(Grid(spec.box, 4).n_nodes, 2))
    sol = solve_ld(spec, f, extra_starts=[nudged])
    assert sol.diagnostics["start_values"][0] == 3.0  # the clean start is a critical point
    assert sol.diagnostics["seed"] == 1  # the nudged start wins
    assert np.isfinite(sol.value) and sol.value < 3.0


def test_bad_spec():
    with pytest.raises(BadSpec):
        CellSpec(boundary=AffineData(np.eye(2), np.zeros(2)), mesh=3)


def test_flag_checks():
    abs_sym().check_flags()
    sqrt1plus_sym().check_flags()
    bad = Integrand(name="claims-hom", value=sqrt1plus_sym().value,
                    grad=sqrt1plus_sym().grad, raw=sqrt1plus_sym().raw,
                    one_homogeneous=True)
    with pytest.raises(ValueError, match="oneHomogeneous"):
        bad.check_flags()


# ---------------------------------------------------------------------------
# SBD solver


def _seed_facet_tables(grid):
    """The seed's facet tables: interior rows (elem_minus, local pair,
    elem_plus, local pair, normal axis), boundary rows (element, local
    pair, normal axis, outward sign)."""
    m = grid.mesh
    eid = np.arange(m * m).reshape(m, m)
    interior = []
    for ex in range(m - 1):
        for ey in range(m):
            interior.append((eid[ex, ey], 1, 3, eid[ex + 1, ey], 0, 2, 0))
    for ex in range(m):
        for ey in range(m - 1):
            interior.append((eid[ex, ey], 2, 3, eid[ex, ey + 1], 0, 1, 1))
    boundary = []
    for ey in range(m):
        boundary.append((eid[0, ey], 0, 2, 0, -1))
        boundary.append((eid[m - 1, ey], 1, 3, 0, +1))
    for ex in range(m):
        boundary.append((eid[ex, 0], 0, 1, 1, -1))
        boundary.append((eid[ex, m - 1], 2, 3, 1, +1))
    return np.array(interior, dtype=int), np.array(boundary, dtype=int)


def _seed_sbd_objective(grid, spec, f1, g1):
    """The seed's SBD objective (row-by-row facet tables, two surface
    integrand calls, np.add.at scatter): the reference the facet table
    must reproduce bit for bit."""
    E = grid.mesh ** 2
    interior, boundary = _seed_facet_tables(grid)
    facet_len = {0: float(grid.h[1]), 1: float(grid.h[0])}

    def local_mid(e, a, b):
        return 0.5 * (grid.nodes[grid.conn[e, a]] + grid.nodes[grid.conn[e, b]])

    imid = np.array([local_mid(r[0], r[1], r[2]) for r in interior])
    inu = np.array([grid.R[:, r[6]] for r in interior])
    ilen = np.array([facet_len[r[6]] for r in interior])
    bmid = np.array([local_mid(r[0], r[1], r[2]) for r in boundary])
    bnu = np.array([r[4] * grid.R[:, r[3]] for r in boundary])
    blen = np.array([facet_len[r[3]] for r in boundary])
    datum_b = spec.boundary.value(bmid)
    xs_i = np.broadcast_to(spec.freeze_x, imid.shape) if spec.freeze_x is not None else imid
    xs_b = np.broadcast_to(spec.freeze_x, bmid.shape) if spec.freeze_x is not None else bmid
    em, a1, a2, ep, b1, b2 = interior[:, :6].T
    eb, c1, c2 = boundary[:, :3].T
    own = np.arange(4 * E).reshape(E, 4)

    def split_fg(vals_flat):
        vals = vals_flat.reshape(E, 4, 2)
        bulk, gradv = _q1_quadrature(grid, vals_flat.reshape(4 * E, 2), own, f1, spec.freeze_x)
        gradv = gradv.reshape(E, 4, 2)
        vm = 0.5 * (vals[em, a1] + vals[em, a2])
        vp = 0.5 * (vals[ep, b1] + vals[ep, b2])
        gv = g1.value(xs_i, vm, vp, inu)
        surf = float(np.sum(gv * ilen))
        dVM, dVP = g1.grad(xs_i, vm, vp, inu)
        dVM = 0.5 * dVM * ilen[:, None]
        dVP = 0.5 * dVP * ilen[:, None]
        np.add.at(gradv, (em, a1), dVM)
        np.add.at(gradv, (em, a2), dVM)
        np.add.at(gradv, (ep, b1), dVP)
        np.add.at(gradv, (ep, b2), dVP)
        vin = 0.5 * (vals[eb, c1] + vals[eb, c2])
        gv = g1.value(xs_b, vin, datum_b, bnu)
        surf += float(np.sum(gv * blen))
        dVM, _ = g1.grad(xs_b, vin, datum_b, bnu)
        dVM = 0.5 * dVM * blen[:, None]
        np.add.at(gradv, (eb, c1), dVM)
        np.add.at(gradv, (eb, c2), dVM)
        return bulk, surf, gradv.ravel()

    return split_fg


@pytest.mark.parametrize("mesh", [4, 5, 8, 12])
@pytest.mark.parametrize("nu", [None, (1.0, 1.0), (0.6, 0.8)], ids=["axis", "diagonal", "0.6-0.8"])
def test_sbd_objective_bit_identical_to_seed(mesh, nu):
    frame = None if nu is None else frame_for_normal(nu)
    grid = Grid(Box.cube((0.0, 0.0), 1.0), mesh, frame)
    normal = np.array([1.0, 0.0]) if nu is None else frame[:, 0]
    x = np.random.default_rng(mesh).normal(size=8 * mesh * mesh)
    f1 = abs_sym(mu=1e-6)
    for data in (AffineData([[0.3, 0.1], [0.1, -0.5]], [0.2, 0.0]),
                 JumpData(np.zeros(2), [0.3, 1.0], normal)):
        for fx in (None, np.array([0.3, -0.1])):
            spec = CellSpec(boundary=data, mesh=mesh, frame=frame, freeze_x=fx)
            for g1 in (g_odot(), g_penalty(1e4)):
                bulk_ref, surf_ref, grad_ref = _seed_sbd_objective(grid, spec, f1, g1)(x)
                bulk, surf, grad = _sbd_objective(grid, spec, f1, g1)(x)
                assert bulk == bulk_ref
                assert surf == surf_ref
                assert np.array_equal(grad, grad_ref)


def test_sbd_penalty_limit_matches_ld():
    f1 = abs_sym(mu=1e-6)
    A = np.array([[0.8, 0.1], [0.1, -0.2]])
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    ld = solve_ld(spec, f1)
    sbd = solve_sbd(spec, f1, g_penalty(1e6))
    assert abs(sbd.value - ld.value) <= 1e-4


def test_sbd_flat_crack_jump_data():
    # crack along the datum plane achieves |dv (.) nu|; the solver must not
    # exceed it by more than 2 percent
    f1 = abs_sym(mu=1e-6)
    g1 = g_odot(mu=1e-6)
    dv, nu = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    spec = CellSpec(boundary=JumpData(np.zeros(2), dv, nu), mesh=8,
                    frame=frame_for_normal(nu))
    sol = solve_sbd(spec, f1, g1)
    target = frob(odot(dv, nu))
    assert sol.value <= target * 1.02
    assert sol.value >= 0.0


def test_sbd_zero_data():
    f1 = abs_sym(mu=1e-6)
    spec = CellSpec(boundary=AffineData(np.zeros((2, 2)), np.zeros(2)), mesh=6)
    sol = solve_sbd(spec, f1, g_odot())
    assert sol.value == pytest.approx(0.0, abs=1e-8)


# ---------------------------------------------------------------------------
# cell-value continuity diagnostics


def test_m_continuity_identical_data():
    f = abs_sym(mu=1e-6)
    A = rand_sym()
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    out = m_continuity_check(AffineData(A, np.zeros(2)), AffineData(A, np.zeros(2)), spec, f)
    assert out["difference"] == 0.0
    assert out["boundary_l1_gap"] == 0.0


def test_m_continuity_translation_v_independent():
    f = abs_sym(mu=1e-6)
    A = rand_sym()
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    out = m_continuity_check(AffineData(A, np.zeros(2)), AffineData(A, np.array([2.0, 1.0])),
                             spec, f)
    assert out["difference"] <= 1e-8
    assert out["boundary_l1_gap"] > 0.0


def test_m_continuity_lipschitz_slope():
    f = abs_sym(mu=1e-6)
    A = np.array([[1.0, 0.0], [0.0, 0.5]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    diffs, gaps = [], []
    for eps in (1e-1, 1e-2):
        out = m_continuity_check(AffineData(A, np.zeros(2)),
                                 AffineData(A + eps * B, np.zeros(2)), spec, f)
        diffs.append(out["difference"])
        gaps.append(out["boundary_l1_gap"])
    slope = diffs[0] / gaps[0]
    assert diffs[1] <= (slope * 1.5) * gaps[1] + 1e-9


def test_prolong_is_exact_embedding():
    grid = Grid(Box.cube((0.0, 0.0), 1.0), 4)
    w = GridDisplacement(grid=grid, values=RNG.normal(size=(grid.n_nodes, 2)))
    w2 = prolong(w, 2)
    pts = RNG.uniform(-0.5, 0.5, size=(40, 2))
    assert np.allclose(w.value(pts), w2.value(pts), atol=1e-13)


def test_scaled_integrand():
    f = scaled(abs_sym(mu=1e-6), 100.0)
    A = rand_sym()
    X = np.zeros((1, 2))
    V = np.zeros((1, 2))
    assert f.raw(X, V, A[None])[0] == pytest.approx(100.0 * frob(A), rel=1e-14)
