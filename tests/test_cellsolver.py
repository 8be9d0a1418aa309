import gc
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bdrelax import cellsolver
from bdrelax.cellsolver import (AffineData, BadSpec, CellSpec, Grid, GridDisplacement,
                                Integrand, JumpData, SolverParams, _dual_bound, _plan, _SymStrain,
                                _q1_quadrature, _sbd_bound, _sbd_objective, energy_and_grad,
                                frame_for_normal, m_continuity_check, prolong, raw_energy,
                                reparametrize, solve_ld, solve_periodic, solve_sbd)
from bdrelax.density import (_REGISTRY, _SURFACE_REGISTRY, A0, abs_sym, g_odot, g_penalty,
                             get_integrand, get_surface_integrand, laminate_a, mueller_f_eps,
                             mueller_h_integrand, scaled, sq_envelope, sqrt1plus_sym,
                             truncated_neg_sym_sq, vmin_abs)
from bdrelax.geometry import Box
from bdrelax.minimize import EndRun, SolverError, lbfgs_steps, minimize_lbfgs
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
    assert res["converged"] and res["reason"] == "gtol"
    assert np.linalg.norm(res["x"]) < 1e-6
    assert minimize_lbfgs(fg, np.array([3.0, -5.0]), max_iters=1)["reason"] == "max_iters"

    def wrong_sign(x):  # the reported gradient points uphill: no step is accepted
        return 0.5 * x @ H @ x, -(H @ x)

    res = minimize_lbfgs(wrong_sign, np.array([3.0, -5.0]))
    assert res["reason"] == "line_search_stall" and res["iters"] == 0


def test_caller_ends_a_run_with_its_reason():
    # sending (gradient, reason) for an accepted point ends the run there
    H = np.array([[4.0, 1.0], [1.0, 2.0]])
    steps = lbfgs_steps(np.array([3.0, -5.0]))
    x, grads = next(steps), 0
    try:
        while True:
            msg = steps.send(0.5 * x @ H @ x)
            if msg is None:  # the gradient of x: the start, then each accepted point
                x_end, grads = x, grads + 1
                msg = steps.send((H @ x, "gap") if grads == 3 else H @ x)
            x = msg
    except StopIteration as stop:
        res = stop.value
    assert res["reason"] == "gap" and res["converged"] and res["iters"] == 2
    assert np.array_equal(res["x"], x_end) and res["grad_norm"] == np.linalg.norm(H @ x_end)
    # throwing EndRun(reason) in place of a trial point's value ends the run
    # at its last accepted point, and the thrown trial is not counted
    steps = lbfgs_steps(np.array([3.0, -5.0]))
    x, grads, nfev = next(steps), 0, 0
    try:
        while True:
            if grads == 3:
                steps.throw(EndRun("superseded"))
            msg, nfev = steps.send(0.5 * x @ H @ x), nfev + 1
            if msg is None:
                x_end, grads = x, grads + 1
                msg = steps.send(H @ x)
            x = msg
    except StopIteration as stop:
        res = stop.value
    assert res["reason"] == "superseded" and res["converged"] and res["iters"] == 2
    assert np.array_equal(res["x"], x_end) and res["nfev"] == nfev


H2 = np.array([[4.0, 1.0], [1.0, 2.0]])


def _edge_run(value, grad, max_iters=6):
    """lbfgs_steps from (3, -5) on 1/2 x.H2 x, with value(x, n) and
    grad(x, n) given the point and the count n of their own calls."""
    calls = {value: 0, grad: 0}

    def call(fn, x):
        calls[fn] += 1
        return fn(x, calls[fn])

    steps = lbfgs_steps(np.array([3.0, -5.0]), max_iters)
    x = next(steps)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _multistart
        try:
            while True:
                msg = steps.send(call(value, x))
                x = steps.send(call(grad, x)) if msg is None else msg
        except StopIteration as stop:
            return stop.value


def test_lbfgs_edge_paths():
    # an uphill gradient stalls at iteration 0; an inf trial value halves the
    # step; a gradient scaled by 1e148 at the second accepted point overflows
    # the two-loop recursion to an ascent direction, restarts from steepest
    # descent and then stalls; a plain run ends on max_iters
    def value(x, n):
        return 0.5 * x @ H2 @ x

    def grad(x, n):
        return H2 @ x

    runs = [_edge_run(value, lambda x, n: -(H2 @ x)),
            _edge_run(lambda x, n: math.inf if n == 2 else value(x, n), grad),
            _edge_run(value, lambda x, n: H2 @ x * (1e148 if n == 3 else 1.0)),
            _edge_run(value, grad)]
    assert [(r["iters"], r["nfev"], r["reason"]) for r in runs] == [
        (0, 51, "line_search_stall"), (6, 8, "gtol"), (2, 3, "line_search_stall"),
        (6, 7, "max_iters")]
    assert [r["converged"] for r in runs] == [False, True, False, False]


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


@pytest.mark.parametrize("f, scale", [
    (sqrt1plus_sym(), 1.0),
    # v-dependent: the chained v- and A-derivatives of the reparametrization
    (reparametrize(vmin_abs(mu=1e-2), c=0.5, v0=(0.3, -0.2), eps_v=0.5,
                   A0=[[0.1, 0.2], [0.2, -0.1]], s_A=0.25), 1.0),
    # the hand-written sum of the mueller-h and eps |sym A| gradients
    (mueller_f_eps(0.1, mu=1e-2), 1.0),
    # a small field keeps every strain inside |sym A| < 1, where the gradient is nonzero
    (truncated_neg_sym_sq(), 0.02),
], ids=["sqrt1plus-sym", "vmin-abs-reparametrized", "mueller-f-eps", "truncated-neg-sym-sq"])
def test_gradient_consistency(f, scale):
    # finite differences against the assembled gradient
    grid = Grid(Box.cube((0.0, 0.0), 1.0), 4)
    U = scale * RNG.normal(size=(grid.n_nodes, 2))
    if scale < 1.0:  # every quadrature-point strain lies inside the unit ball
        strain = sym(np.einsum("qaj,eak->eqkj", grid.dN, U[grid.conn]))
        assert frob(strain).max() < 1.0
    e0, g0 = energy_and_grad(grid, U, f)
    h = 1e-7
    for idx in [(0, 0), (7, 1), (12, 0)]:
        assert g0[idx] != 0.0
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
    """Each row of the kernel on a stack of the first K fields of U (k, n, 2),
    K = 1, 3 and k, equals the seed kernel on that field alone, bit for bit."""
    n = U.shape[1]
    plan = _plan(grid, conn, n, len(U))
    for f in BIT_INTEGRANDS.values():
        for fx in (None, np.array([0.3, -0.1])):
            refs = [_seed_q1(grid, Uk, conn, f, fx) for Uk in U]
            raw_refs = {exact: [_seed_q1(grid, Uk, conn, f, fx, raw=True, exact_sum=exact)[0]
                                for Uk in U] for exact in (False, True)}
            for K in sorted({1, 3, len(U)}):
                e_new, grad = _q1_quadrature(grid, U[:K], plan, f, fx)
                g_new = grad(range(K))
                assert e_new.shape == (K,) and g_new.shape == (K, n, 2)
                for k in range(K):
                    assert e_new[k] == refs[k][0]
                    assert np.array_equal(g_new[k], refs[k][1])
                # a subset of the rows gets the same gradients
                rows = sorted({0, K - 1})
                for k, g in zip(rows, grad(rows)):
                    assert np.array_equal(g, refs[k][1])
                for exact in (False, True):
                    r_new = _q1_quadrature(grid, U[:K], plan, f, fx, raw=True,
                                           exact_sum=exact)[0]
                    assert r_new.tolist() == raw_refs[exact][:K]


@pytest.mark.parametrize("mesh", [4, 8, 16, 64])
@pytest.mark.parametrize("nu", [None, (1.0, 1.0), (0.6, 0.8)], ids=["axis", "diagonal", "0.6-0.8"])
def test_q1_kernel_bit_identical_to_seed(mesh, nu):
    grid = Grid(Box.cube((0.0, 0.0), 1.0), mesh, None if nu is None else frame_for_normal(nu))
    # a stack of 8 copies at the small meshes, of 3 at mesh 64 (whose row
    # sums run past numpy's 8192-element buffer)
    U = np.random.default_rng(mesh).normal(size=(8 if mesh < 64 else 3, grid.n_nodes, 2))
    _assert_kernel_bits(grid, U, grid.conn)
    # the public wrappers run the kernel on the grid's own connectivity,
    # on a single field or on a stack
    f = BIT_INTEGRANDS["mueller-h"]
    e_ref, g_ref = _seed_q1(grid, U[0], grid.conn, f)
    e_new, g_new = energy_and_grad(grid, U[0], f)
    assert type(e_new) is float and e_new == e_ref and np.array_equal(g_new, g_ref)
    e_new, grad = energy_and_grad(grid, U[:2], f, plan=_plan(grid, grid.conn, grid.n_nodes, 2))
    assert e_new[0] == e_ref and np.array_equal(grad([0, 1])[0], g_ref)
    assert raw_energy(grid, U[0], f, exact_sum=True) == _seed_q1(grid, U[0], grid.conn, f,
                                                                 raw=True, exact_sum=True)[0]


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
    U = np.random.default_rng(mesh).normal(size=(8 if mesh < 64 else 3, n, 2))
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
    # jobs is accepted and has no effect: the starts run in lockstep on one thread
    v3 = solve(replace(spec, solver=replace(spec.solver, jobs=3)), f)
    assert v3.value == v1.value
    assert v3.diagnostics["start_values"] == v1.diagnostics["start_values"]


def _serial_starts(x0, sp, scale, extra=()):
    """The seed rule: the clean start, multistarts - 1 Gaussian
    perturbations of it seeded seed + k and sized by the datum's scale,
    then the extra starts."""
    return [x0] + [x0 + 0.5 * scale * np.random.default_rng(sp.seed + k).normal(size=x0.shape)
                   for k in range(1, sp.multistarts)] + list(extra)


def _assert_lockstep_matches_serial(sol, fg_row, starts, max_iters):
    """The serial reference of the lockstep driver: one minimize_lbfgs run
    per start on the single-row objective; returns the winning run."""
    runs = [minimize_lbfgs(fg_row, x, max_iters=max_iters) for x in starts]
    k_best = min(range(len(runs)), key=lambda k: runs[k]["f"])
    assert sol.diagnostics["start_values"] == [r["f"] for r in runs]
    assert sol.diagnostics["starts"] == [(r["iters"], r["nfev"], r["reason"]) for r in runs]
    assert sol.diagnostics["seed"] == k_best
    assert sol.diagnostics["reason"] == runs[k_best]["reason"]
    assert sol.diagnostics["nfev"] == runs[k_best]["nfev"]
    assert sol.value_smoothed == runs[k_best]["f"]
    return runs[k_best]


def test_lockstep_matches_serial_ld():
    f = mueller_h_integrand()
    sp = SolverParams(multistarts=8, seed=0, max_iters=200)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=8, solver=sp,
                    freeze_x=np.zeros(2))
    grid = Grid(spec.box, spec.mesh)
    datum, free = spec.boundary.value(grid.nodes), ~grid.boundary_mask
    extra = np.random.default_rng(7).normal(size=(grid.n_nodes, 2))
    sol = solve_ld(spec, f, extra_starts=[extra])

    def fg_row(x):
        U = datum.copy()
        U[free] = x.reshape(-1, 2)
        e, gradU = energy_and_grad(grid, U, f, freeze_x=spec.freeze_x)
        return e, gradU[free].ravel()

    starts = _serial_starts(datum[free].ravel(), sp, frob(A0), [extra[free].ravel()])
    best = _assert_lockstep_matches_serial(sol, fg_row, starts, sp.max_iters)
    U = datum.copy()
    U[free] = best["x"].reshape(-1, 2)
    assert np.array_equal(sol.argmin.values, U)
    assert sol.value == raw_energy(grid, U, f, freeze_x=spec.freeze_x)
    assert {r for _, _, r in sol.diagnostics["starts"]} == {"gtol", "max_iters"}


def test_lockstep_trajectories_pinned():
    # the solve of test_lockstep_matches_serial_ld as recorded before the
    # floor went in: an integrand with a floor keeps each start's stop, work
    # and value while no run closes on it
    sp = SolverParams(multistarts=8, seed=0, max_iters=200)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=8, solver=sp,
                    freeze_x=np.zeros(2))
    extra = np.random.default_rng(7).normal(size=(Grid(spec.box, spec.mesh).n_nodes, 2))
    sol = solve_ld(spec, mueller_h_integrand(), extra_starts=[extra])
    assert sol.diagnostics["starts"] == [
        (0, 1, "gtol"), (200, 217, "max_iters"), (200, 219, "max_iters"), (200, 220, "max_iters"),
        (200, 219, "max_iters"), (200, 220, "max_iters"), (200, 217, "max_iters"),
        (200, 222, "max_iters"), (200, 215, "max_iters")]
    assert sol.diagnostics["start_values"] == [
        1.9999990000002503, 1.9999990000016057, 1.9999990000002867, 1.9999990000014094,
        1.9999990000003325, 1.9999990419715, 1.9999990000125805, 1.9999991215532558,
        1.999999000000325]
    assert sol.value == 2.0


def test_lockstep_matches_serial_periodic():
    f = laminate_a()
    sp = SolverParams(multistarts=3, seed=0, max_iters=300)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=8,
                    box=Box((0.0, 0.0), (1.0, 1.0)), solver=sp)
    sol = solve_periodic(spec, f)
    grid = Grid(spec.box, spec.mesh)
    n = spec.mesh ** 2
    plan = _plan(grid, grid.periodic_node[grid.conn], n, 1)
    f_A = reparametrize(f, v0=np.zeros(2), eps_v=0.0, A0=A0)

    def fg_row(x):
        e, grad = _q1_quadrature(grid, x.reshape(1, n, 2), plan, f_A)
        return float(e[0]), grad([0]).ravel()

    starts = _serial_starts(np.zeros(2 * n), sp, frob(A0))
    best = _assert_lockstep_matches_serial(sol, fg_row, starts, sp.max_iters)
    W = best["x"].reshape(n, 2)
    assert np.array_equal(sol.argmin.values, (W - W.mean(axis=0))[grid.periodic_node])
    assert sol.value == _q1_quadrature(grid, W[None], plan, f_A, raw=True)[0][0]


def _sbd_serial_setup(spec, f1, g1):
    """The single-row SBD objective and the datum-interpolant start x0."""
    grid = Grid(spec.box, spec.mesh)
    objective = _sbd_objective(grid, spec, f1, g1)

    def fg_row(x):
        (bulk,), (surf,), grad = objective(x[None])
        return bulk + surf, grad([0])[0]

    corners = grid.nodes[grid.conn]
    nudged = corners + 1e-9 * (corners.mean(axis=1, keepdims=True) - corners)
    return fg_row, spec.boundary.value(nudged.reshape(-1, 2)).ravel()


def test_lockstep_matches_serial_sbd():
    # the surface declares no dual datum, so no run is certified (the A0
    # affine start of the declared odot-norm closes its gap at iteration 32)
    f1, g1 = abs_sym(mu=1e-6), replace(g_odot(), dual_datum=None)
    sp = SolverParams(multistarts=3, seed=0, max_iters=150)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=6, solver=sp)
    sol = solve_sbd(spec, f1, g1)
    fg_row, x0 = _sbd_serial_setup(spec, f1, g1)
    starts = _serial_starts(x0, sp, frob(A0))
    best = _assert_lockstep_matches_serial(sol, fg_row, starts, sp.max_iters)
    assert np.array_equal(sol.argmin.values.ravel(), best["x"])


def test_certified_sbd_run_matches_serial_up_to_its_stop():
    # with the declared odot-norm, each start follows its serial trajectory
    # bit for bit up to the iteration it stops on: a run that closes its gap,
    # or that another run's certificate supersedes, ends at the point a
    # serial run capped at that iteration ends at
    f1, g1 = abs_sym(mu=1e-6), g_odot()
    sp = SolverParams(multistarts=3, seed=0, max_iters=150)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=6, solver=sp)
    sol = solve_sbd(spec, f1, g1)
    fg_row, x0 = _sbd_serial_setup(spec, f1, g1)
    starts = _serial_starts(x0, sp, frob(A0))
    reasons = [reason for _, _, reason in sol.diagnostics["starts"]]
    assert reasons[0] == "gap" and sol.diagnostics["starts"][0][0] == 32
    for k, (x, (iters, nfev, reason)) in enumerate(zip(starts, sol.diagnostics["starts"])):
        run = minimize_lbfgs(fg_row, x, max_iters=iters)
        assert (run["iters"], run["nfev"]) == (iters, nfev)
        assert run["f"] == sol.diagnostics["start_values"][k]
        assert run["reason"] == (reason if reason not in ("gap", "superseded") else "max_iters")
        if k == sol.diagnostics["seed"]:
            assert np.array_equal(sol.argmin.values.ravel(), run["x"])
            assert sol.value_smoothed == run["f"]


def test_uncertified_run_matches_serial(monkeypatch):
    # the diagonal jump cell: the certificate at iteration 64 does not halve
    # the gap of iteration 32, so the run is handed to the primal-dual finish
    # there. Up to the handoff it follows its serial trajectory bit for bit,
    # and the finish starts from that point and its own stress, then closes
    # the gap below the value L-BFGS reaches in all 200 iterations.
    handoffs = []
    pdhg = cellsolver._pdhg

    def recorded(op, datum, c, U, stress, *args):
        handoffs.append((U.copy(), stress.copy()))
        return pdhg(op, datum, c, U, stress, *args)

    monkeypatch.setattr(cellsolver, "_pdhg", recorded)
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    sp = SolverParams(max_iters=200)
    spec = CellSpec(boundary=JumpData(np.zeros(2), np.array([0.0, 1.0]), nu), mesh=8,
                    solver=sp, frame=frame_for_normal(nu))
    f = abs_sym(mu=1e-6)
    sol = solve_ld(spec, f)
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    datum, free = spec.boundary.value(grid.nodes), ~grid.boundary_mask

    def fg_row(x):
        U = datum.copy()
        U[free] = x.reshape(-1, 2)
        e, gradU = energy_and_grad(grid, U, f)
        return e, gradU[free].ravel()

    diag = sol.diagnostics
    (iters, nfev, reason), = diag["starts"]
    assert (iters, reason) == (64, "gap") and diag["reason"] == "gap" and diag["seed"] == 0
    prefix = minimize_lbfgs(fg_row, datum[free].ravel(), max_iters=iters)
    assert (prefix["iters"], prefix["nfev"]) == (iters, nfev) == (diag["iters"], diag["nfev"])
    (U0, stress0), = handoffs
    assert np.array_equal(U0[free].ravel(), prefix["x"]) and np.array_equal(U0[~free], datum[~free])
    _, grad = energy_and_grad(grid, U0[None], f, plan=_plan(grid, grid.conn, grid.n_nodes, 1))
    assert np.array_equal(stress0, grad([0], stress=True)[1][0])
    assert diag["pdhg_iters"][0] > 0
    assert diag["lower_bound"] <= sol.value and diag["gap"] == sol.value - diag["lower_bound"]
    assert diag["gap"] <= 1e-5 * sol.value
    smoothed, _ = energy_and_grad(grid, sol.argmin.values, f)
    assert sol.value_smoothed == diag["start_values"][0] == smoothed
    full = minimize_lbfgs(fg_row, datum[free].ravel(), max_iters=sp.max_iters)
    U_full = datum.copy()
    U_full[free] = full["x"].reshape(-1, 2)
    assert full["reason"] == "max_iters"
    assert sol.value < raw_energy(grid, U_full, f)


def test_pdhg_finish_brackets_the_diagonal_cell(monkeypatch):
    # the benchmark's diagonal cell at mesh 16: the finish ends on a proven
    # 1e-5 gap below the 0.89552 L-BFGS reaches in 2,000 iterations, on an
    # admissible field whose raw energy is the reported value, and its loop
    # calls neither the smoothed value nor the gradient of the integrand
    calls = {"inside": False, "value": 0, "grad": 0}
    pdhg = cellsolver._pdhg

    def flagged(*args):
        calls["inside"] = True
        try:
            return pdhg(*args)
        finally:
            calls["inside"] = False

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += calls["inside"]
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cellsolver, "_pdhg", flagged)
    f0 = abs_sym(mu=1e-6)
    f = replace(f0, value=counted("value", f0.value), grad=counted("grad", f0.grad))
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    spec = CellSpec(boundary=JumpData(np.zeros(2), np.array([0.0, 1.0]), nu), mesh=16,
                    frame=frame_for_normal(nu))
    sol = solve_ld(spec, f)
    diag = sol.diagnostics
    assert diag["reason"] == "gap" and diag["pdhg_iters"][0] > 0
    assert diag["lower_bound"] <= sol.value <= diag["lower_bound"] * (1 + 1e-5)
    assert sol.value < 0.8875
    grid = sol.argmin.grid
    assert raw_energy(grid, sol.argmin.values, f0, exact_sum=True) == pytest.approx(sol.value,
                                                                                  rel=1e-14)
    datum = spec.boundary.value(grid.nodes)
    assert np.array_equal(sol.argmin.values[grid.boundary_mask], datum[grid.boundary_mask])
    assert (calls["value"], calls["grad"]) == (0, 0)


def test_pdhg_finish_with_an_x_dependent_radius():
    # (2 + cos 2 pi x1) |sym A| declares the radius c(x) with m = 0: the
    # finish projects each stress onto its own ball and closes the gap of
    # the diagonal cell, which L-BFGS leaves open
    f0 = abs_sym(mu=1e-6)

    def c(X):
        return 2.0 + np.cos(2.0 * np.pi * X[:, 0])

    f = replace(f0, name="laminated-abs-sym", recession_exact=None, dual_datum=(c, 0.0),
                value=lambda X, V, A: c(X) * f0.value(X, V, A),
                grad=lambda X, V, A: (np.zeros_like(V), c(X)[:, None, None] * f0.grad(X, V, A)[1]),
                raw=lambda X, V, A: c(X) * f0.raw(X, V, A))
    f.check_flags()
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    spec = CellSpec(boundary=JumpData(np.zeros(2), np.array([0.0, 1.0]), nu), mesh=8,
                    frame=frame_for_normal(nu))
    sol = solve_ld(spec, f)
    diag = sol.diagnostics
    assert diag["reason"] == "gap" and diag["pdhg_iters"][0] > 0
    assert diag["lower_bound"] <= sol.value <= diag["lower_bound"] * (1 + 1e-5)
    assert sol.value == raw_energy(sol.argmin.grid, sol.argmin.values, f)


def _affine_stress(A, U_of, f):
    """The strain operator, datum, field, stress and free nodal gradient of
    f on the affine datum A y at mesh 8, from the kernel's gradient pass at
    U_of(datum, free)."""
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    grid = Grid(spec.box, spec.mesh)
    datum, free = spec.boundary.value(grid.nodes), ~grid.boundary_mask
    plan = _plan(grid, grid.conn, grid.n_nodes, 1)
    U = U_of(datum, free)
    _, grad = energy_and_grad(grid, U[None], f, plan=plan)
    G, (stress,) = grad([0], stress=True)
    dofs = np.flatnonzero(np.repeat(free, 2))
    return _SymStrain(grid, plan, dofs), datum, U, stress, G.reshape(-1)[dofs]


def test_dual_bound_on_affine_data():
    # quadrature Jensen: no bound exceeds the affine energy (|sym A| for
    # abs-sym, sqrt(1 + |sym A|^2) for sqrt1plus-sym, whose affine field is
    # optimal too), and the stress of the affine field certifies it to
    # rounding: by the unweighted equilibration for m = 0 and the
    # Hessian-weighted one for m > 0
    A = rand_sym()
    for f, energy in ((abs_sym(mu=1e-6), frob(A)),
                      (sqrt1plus_sym(), math.sqrt(1.0 + frob(A) ** 2))):
        op, datum, U, stress, g = _affine_stress(A, lambda U, free: U, f)
        bound, _ = _dual_bound(op, datum, f.dual_datum, U, stress, g)
        assert bound == pytest.approx(energy, rel=1e-9)
        for seed in range(3):
            noise = np.random.default_rng(seed).normal(size=(op.n, 2))
            op, datum, U, stress, g = _affine_stress(
                A, lambda U, free: U + np.where(free[:, None], 0.1 * noise, 0.0), f)
            bound, y = _dual_bound(op, datum, f.dual_datum, U, stress, g)
            assert bound <= energy * (1 + 1e-12) and bound > 0
            # a warm start from the correction solves the same system
            again, _ = _dual_bound(op, datum, f.dual_datum, U, stress, g, y)
            assert again == pytest.approx(bound, rel=1e-9)


def test_certified_samples_bound_their_values():
    # perturbed starts on affine data run past iteration 32 and are
    # certified; the rotated jump cell is certified without closing
    A = rand_sym()
    sp = SolverParams(multistarts=3, seed=1, max_iters=300)
    nu = np.array([0.6, 0.8])
    specs = [CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8, solver=sp),
             CellSpec(boundary=JumpData(np.zeros(2), np.array([1.0, 0.5]), nu), mesh=8,
                      solver=sp, frame=frame_for_normal(nu))]
    bounds = []
    for spec in specs:
        sol = solve_ld(spec, abs_sym(mu=1e-6))
        diag = sol.diagnostics
        assert diag["lower_bound"] <= sol.value
        assert diag["gap"] == sol.value - diag["lower_bound"]
        bounds.append(diag["lower_bound"])
    assert bounds[0] <= frob(A) * (1 + 1e-12)


def test_gradient_only_at_start_and_accepted_points():
    # the line search reads values only: on a cell that backtracks, the
    # integrand's gradient runs once per iteration plus once at the start
    calls = {"value": 0, "grad": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    # and the certificate calls neither: it reads the strains and the dual
    # datum (c, m), here of a jump cell of abs-sym and of a laminate cube
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    cells = [(abs_sym(mu=1e-6),
              CellSpec(boundary=JumpData(np.zeros(2), e2, e1), mesh=8, frame=frame_for_normal(e1))),
             (laminate_a(), CellSpec(boundary=AffineData(np.outer(e1, e1), np.zeros(2)), mesh=8))]
    for f0, spec in cells:
        calls.update(value=0, grad=0)
        f = replace(f0, value=counted("value", f0.value), grad=counted("grad", f0.grad))
        diag = solve_ld(spec, f).diagnostics
        assert diag["reason"] == "gap"
        assert diag["nfev"] > diag["iters"] + 1  # some trial points were rejected
        assert calls == {"value": diag["nfev"], "grad": diag["iters"] + 1}


def test_lockstep_overflow_at_a_later_start():
    # the third start is far out, where the density overflows: the solve
    # fails as a serial run of that start would
    def capped(X, V, A):
        q = (A ** 2).sum(axis=(-2, -1))
        return np.where(q < 1e6, np.sqrt(q), np.inf)

    f = Integrand(name="capped", value=capped, raw=capped, sym_only=False,
                  grad=lambda X, V, A: (np.zeros_like(V), np.zeros_like(A)))
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=4,
                    solver=SolverParams(multistarts=2))
    far = np.full((Grid(spec.box, 4).n_nodes, 2), 1e4)
    with pytest.raises(SolverError, match="integrand overflow"):
        solve_ld(spec, f, extra_starts=[far])


def test_lockstep_nonfinite_row_leaves_other_rows_alone():
    # 3 - |sym A|^2 below |sym A| = 1.5 and +inf above: two nudged starts
    # run into the wall at different rounds, so some kernel calls hold
    # infinite rows next to finite ones
    mixed = []

    def wall(X, V, A):
        q = (sym(A) ** 2).sum(axis=(-2, -1))
        out = np.where(q < 2.25, 3.0 - q, np.inf)
        rows = np.isinf(out).reshape(-1, 16 * 4).any(axis=1)  # per start: E Q points
        mixed.append(rows.any() and not rows.all())
        return out

    f = Integrand(name="wall", value=wall, grad=lambda X, V, A: (np.zeros_like(V), -2.0 * sym(A)),
                  raw=wall)
    sp = SolverParams(multistarts=1, max_iters=100)
    spec = CellSpec(boundary=AffineData(np.zeros((2, 2)), np.zeros(2)), mesh=4, solver=sp)
    grid = Grid(spec.box, spec.mesh)
    free = ~grid.boundary_mask
    nudged = [t * np.random.default_rng(0).normal(size=(grid.n_nodes, 2)) for t in (1e-3, 1e-1)]
    sol = solve_ld(spec, f, extra_starts=nudged)
    assert any(mixed)

    def fg_row(x):
        U = np.zeros((grid.n_nodes, 2))
        U[free] = x.reshape(-1, 2)
        e, gradU = energy_and_grad(grid, U, f)
        return e, gradU[free].ravel()

    x0 = np.zeros(2 * int(free.sum()))
    starts = _serial_starts(x0, sp, 0.0, [U[free].ravel() for U in nudged])
    _assert_lockstep_matches_serial(sol, fg_row, starts, sp.max_iters)


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


def test_gradient_pass_reads_the_value_pass_arrays():
    # when every row asks, the gradient pass gets the very point and strain
    # arrays of the value pass, both read-only; a subset of rows gets its
    # own strains, and the points of each stack height are one array
    seen = []

    def recorded(fn, tag):
        def wrapped(X, V, A):
            seen.append((tag, X, A))
            return fn(X, V, A)
        return wrapped

    f0 = laminate_a()
    f = replace(f0, value=recorded(f0.value, "value"), grad=recorded(f0.grad, "grad"))
    grid = Grid(Box.cube((0.0, 0.0), 1.0), 4)
    plan = _plan(grid, grid.conn, grid.n_nodes, 3)
    U = RNG.normal(size=(3, grid.n_nodes, 2))
    _, grad = _q1_quadrature(grid, U, plan, f)
    grad([0, 1, 2])
    grad([0, 2])
    _q1_quadrature(grid, U[:2], plan, f)[1]([0, 1])
    (_, X3, A3), (_, Xg, Ag), (_, X2, A2), (_, X2v, A2v), (_, X2g, A2g) = seen
    assert Xg is X3 and Ag is A3 and not (X3.flags.writeable or A3.flags.writeable)
    assert X2 is plan[2][1] and A2 is not A3 and len(A2) == 2 * len(A3) // 3
    assert X2v is X2 and X2g is X2 and A2g is A2v


def test_no_grid_outlives_its_solve(monkeypatch):
    # a solve's assembly plan lives and dies with the solve: once the value
    # is read, no grid a solver built is reachable, also where the laminate
    # keeps the coefficients of the solve's last point array
    alive = []

    class Tracked(Grid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(cellsolver, "Grid", Tracked)
    sp = SolverParams(multistarts=2, max_iters=40)
    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=8, solver=sp)
    values = [solve_ld(spec, laminate_a()).value,
              solve_periodic(replace(spec, box=Box((0.0, 0.0), (1.0, 1.0))), laminate_a()).value,
              solve_sbd(replace(spec, mesh=4), abs_sym(mu=1e-6), g_odot()).value]
    gc.collect()
    assert all(np.isfinite(values)) and len(alive) == 3
    assert [ref() for ref in alive] == [None] * 3


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
    for starts in (0, -3):
        with pytest.raises(BadSpec, match="multistarts"):
            SolverParams(multistarts=starts)
    # a NaN fails every tolerance check, so it must not pass one
    with pytest.raises(BadSpec, match="jump normal must be unit"):
        JumpData((0.0, 0.0), (0.0, 1.0), (np.nan, 0.0))
    with pytest.raises(BadSpec, match="frame must be orthonormal"):
        CellSpec(boundary=AffineData(np.eye(2), np.zeros(2)), frame=np.full((2, 2), np.nan))


def test_flag_checks():
    for name in _REGISTRY:
        get_integrand(name).check_flags()
    bad = Integrand(name="claims-hom", value=sqrt1plus_sym().value,
                    grad=sqrt1plus_sym().grad, raw=sqrt1plus_sym().raw,
                    one_homogeneous=True)
    with pytest.raises(ValueError, match="oneHomogeneous"):
        bad.check_flags()

    # the Q1 kernel hands a v-independent integrand a zero V
    def reads_v(X, V, A):
        return frob(sym(A)) * (1.0 + (V * V).sum(axis=-1))

    liar = Integrand(name="reads-v", value=reads_v, grad=None, raw=reads_v)
    with pytest.raises(ValueError, match="vIndependent"):
        liar.check_flags()
    replace(liar, v_independent=False).check_flags()


def test_dual_datum_check():
    # a declared datum (c, m) must give raw = c(x) sqrt(m^2 + |sym A|^2): a
    # wrong one would certify a false lower bound
    f = abs_sym(mu=1e-6)
    assert f.dual_datum == (1.0, 0.0)
    with pytest.raises(ValueError, match="dualDatum"):
        replace(f, dual_datum=(1.5, 0.0)).check_flags()
    with pytest.raises(ValueError, match="dualDatum"):
        replace(laminate_a(), dual_datum=(2.0, 0.0)).check_flags()
    scaled(f, 3.0).check_flags()
    # the laminate's radius is its x-dependent coefficient: abs-sym's datum,
    # a constant radius or a wrong m are all rejected
    lam = laminate_a()
    lam.check_flags()
    c, m = lam.dual_datum
    assert m == 1e-2 and callable(c)
    for wrong in ((1.0, 0.0), (2.0, m), (c, 2 * m), (c, 0.0), (c, -m)):
        with pytest.raises(ValueError, match="dualDatum"):
            replace(lam, dual_datum=wrong).check_flags()
    sqrt1plus_sym().check_flags()
    for wrong in ((1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="dualDatum"):
            replace(sqrt1plus_sym(), dual_datum=wrong).check_flags()


def test_reparametrize_maps_the_dual_datum():
    f = abs_sym(mu=1e-6)
    g = reparametrize(f, c=0.5, s_A=0.25, v0=np.ones(2), eps_v=0.5)
    assert g.dual_datum == (2.0, 0.0) and g.recession_exact.dual_datum == (2.0, 0.0)
    g.check_flags()
    assert scaled(f, 100.0).dual_datum == (100.0, 0.0)
    assert reparametrize(f, A0=A0).dual_datum is None
    assert reparametrize(mueller_h_integrand(), c=2.0).dual_datum is None
    assert sqrt1plus_sym().dual_datum == (1.0, 1.0)
    assert sqrt1plus_sym().recession_exact.dual_datum == (1.0, 0.0)
    # the eps-scaled jump cell eps f(A / eps) of sqrt(1 + |sym A|^2) is
    # sqrt(eps^2 + |sym A|^2): (c c0 / s_A, m s_A)
    jump = reparametrize(sqrt1plus_sym(), c=0.25, s_A=0.25)
    assert jump.dual_datum == (1.0, 0.25)
    jump.check_flags()
    lam = laminate_a()
    g = reparametrize(lam, c=0.5, s_A=0.25)
    (c, m), X = g.dual_datum, RNG.normal(size=(6, 2))
    assert m == 0.25e-2 and np.array_equal(c(X), 2.0 * lam.dual_datum[0](X))
    g.check_flags()
    assert reparametrize(lam, A0=A0).dual_datum is None


def test_frozen_laminate_cell_reads_c_at_the_frozen_point():
    # under freeze_x the certificate reads the laminate's radius where the
    # kernel reads its coefficient: at x0, where c = 1 is the coefficient's
    # minimum. The same cell of an integrand that is handed the broadcast
    # point with the radius c(x0) as a number stops on the same iteration
    # with the same bound
    lam, x0 = laminate_a(), np.array([0.5, 0.25])
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    spec = CellSpec(boundary=JumpData(np.zeros(2), e2, e1), mesh=8, frame=frame_for_normal(e1))
    c0 = float(lam.dual_datum[0](x0[None])[0])
    assert c0 == 1.0

    def at_x0(fn):
        return lambda X, V, A: fn(np.broadcast_to(x0, X.shape), V, A)

    broadcast = replace(lam, value=at_x0(lam.value), grad=at_x0(lam.grad), raw=at_x0(lam.raw),
                        dual_datum=(c0, lam.dual_datum[1]))
    frozen = solve_ld(replace(spec, freeze_x=x0), lam)
    want = solve_ld(spec, broadcast)
    d, w = frozen.diagnostics, want.diagnostics
    assert frozen.value == want.value
    assert (d["iters"], d["nfev"], d["reason"]) == (w["iters"], w["nfev"], w["reason"])
    assert d["reason"] == "gap"
    assert d["lower_bound"] == pytest.approx(w["lower_bound"], rel=1e-12)
    assert d["lower_bound"] <= frozen.value and d["gap"] <= 1e-5 * frozen.value


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
    own = _plan(grid, np.arange(4 * E).reshape(E, 4), 4 * E, 1)

    def split_fg(vals_flat):
        vals = vals_flat.reshape(E, 4, 2)
        bulk, gradv = _q1_quadrature(grid, vals_flat.reshape(1, 4 * E, 2), own, f1,
                                     spec.freeze_x)
        bulk, gradv = bulk[0], gradv([0]).reshape(E, 4, 2)
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
    X3 = np.random.default_rng(mesh + 100).normal(size=(3, 8 * mesh * mesh))
    f1 = abs_sym(mu=1e-6)
    for data in (AffineData([[0.3, 0.1], [0.1, -0.5]], [0.2, 0.0]),
                 JumpData(np.zeros(2), [0.3, 1.0], normal)):
        for fx in (None, np.array([0.3, -0.1])):
            spec = CellSpec(boundary=data, mesh=mesh, frame=frame, freeze_x=fx,
                            solver=SolverParams(multistarts=3))
            for g1 in (g_odot(), g_penalty(1e4)):
                seed_fg = _seed_sbd_objective(grid, spec, f1, g1)
                objective = _sbd_objective(grid, spec, f1, g1)
                bulk_ref, surf_ref, grad_ref = seed_fg(x)
                (bulk,), (surf,), grad = objective(x[None])
                assert bulk == bulk_ref
                assert surf == surf_ref
                assert np.array_equal(grad([0])[0], grad_ref)
                # a stack of three: each row is the seed's value of that row,
                # whether all rows or some ask for their gradient
                refs = [seed_fg(row) for row in X3]
                bulk, surf, grad = objective(X3)
                for k, (bulk_ref, surf_ref, grad_ref) in enumerate(refs):
                    assert bulk[k] == bulk_ref
                    assert surf[k] == surf_ref
                for rows in ([0, 1, 2], [0, 2]):
                    for k, g in zip(rows, grad(rows)):
                        assert np.array_equal(g, refs[k][2])


def test_sbd_one_surface_call_per_round():
    # the starts of an SBD cell run in lockstep: each round values the
    # pending points of all active starts with one g1.value call (the
    # rounds are the most values any start took); the raw surface energy is
    # read for one row at each certificate (iteration 32 here) and at the
    # argmin
    g = g_odot()
    calls = {"value": [], "raw": []}

    def counted(name):
        fn = getattr(g, name)

        def wrapped(X, VM, VP, NU):
            calls[name].append(len(X))
            return fn(X, VM, VP, NU)
        return wrapped

    spec = CellSpec(boundary=AffineData(A0, np.zeros(2)), mesh=6,
                    solver=SolverParams(multistarts=3, max_iters=40))
    sol = solve_sbd(spec, abs_sym(mu=1e-6), replace(g, value=counted("value"), raw=counted("raw")))
    nfev = [n for _, n, _ in sol.diagnostics["starts"]]
    n_facets = 2 * 6 * 5 + 4 * 6
    assert len(calls["value"]) == max(nfev) and calls["value"][0] == 3 * n_facets
    certified = sum(iters >= 32 for iters, _, _ in sol.diagnostics["starts"])
    assert certified > 0 and calls["raw"] == [n_facets] * (certified + 1)


def test_sbd_penalty_limit_matches_ld():
    # the stiff penalty's conjugate |tau|^2 / 4c puts the bound 2.25e-6
    # below |sym A|: the clean start closes its gap at the first certificate
    f1 = abs_sym(mu=1e-6)
    A = np.array([[0.8, 0.1], [0.1, -0.2]])
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8)
    ld = solve_ld(spec, f1)
    sbd = solve_sbd(spec, f1, g_penalty(1e6))
    assert abs(sbd.value - ld.value) <= 1e-4
    diag = sbd.diagnostics
    assert (diag["iters"], diag["reason"]) == (32, "gap")
    assert diag["lower_bound"] <= sbd.value <= frob(A) * (1 + 1e-12)
    assert diag["gap"] == sbd.value - diag["lower_bound"] <= 1e-5 * sbd.value


def test_floor_datum_is_checked_and_reparametrized():
    # a floor c (raw >= c) is sampled like the other declarations, scales
    # with c and, being pointwise, survives an offset A0
    f = mueller_h_integrand()
    assert f.floor == 0.0
    f.check_flags()
    with pytest.raises(ValueError, match="floor"):
        replace(f, floor=5.0).check_flags()
    assert reparametrize(f, c=3.0, A0=A0).floor == 0.0
    assert reparametrize(replace(f, floor=0.25), c=2.0, s_A=5.0, A0=A0).floor == 0.5
    assert reparametrize(abs_sym(), c=2.0).floor is None


def test_floor_closes_the_identity_cell_in_its_first_round():
    # h >= 0 and the clean start of Qh(Id) ends on gtol at iteration 0 with
    # a raw value of about 4e-16, within the absolute part of the floor's
    # test: no other start runs past the round in which it closed, and
    # every perturbed start ends there at its start point
    est = sq_envelope(mueller_h_integrand(), np.eye(2), mesh_schedule=(8, 16))
    for mesh, diag in est.diagnostics.items():
        starts = diag["starts"]
        assert starts[0] == (0, 1, "gtol") and diag["seed"] == 0
        assert all(nfev <= starts[0][1] for _, nfev, _ in starts)
        assert starts[1:8] == [(0, 1, "superseded")] * 7
        assert diag["lower_bound"] == 0.0 and 0.0 <= diag["gap"] < 1e-15
    assert all(0.0 <= v < 1e-10 for _, v in est.samples)


def test_sbd_clean_affine_start_ends_on_gap():
    # the clean start of this cell is the exact minimizer |sym A| = 0.6 and
    # used to run to max_iters; it now ends on the first certificate, whose
    # bound is |sym A| itself, and the reported raw value lies above it. The
    # two perturbed starts, which ran to max_iters after it, end in the same
    # round, each at its last accepted point
    A = np.array([[0.3, 0.1], [0.1, -0.5]])
    spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=4,
                    solver=SolverParams(multistarts=3, seed=5))
    sol = solve_sbd(spec, abs_sym(mu=1e-6), g_odot())
    diag = sol.diagnostics
    assert diag["starts"][0][::2] == (32, "gap")
    assert [(nfev, reason) for _, nfev, reason in diag["starts"][1:]] == [
        (diag["starts"][0][1], "superseded")] * 2
    assert (diag["seed"], diag["reason"]) == (5, "gap")
    assert diag["lower_bound"] == pytest.approx(frob(A), rel=1e-12)
    assert diag["lower_bound"] <= sol.value <= frob(A) * (1 + 1e-5)


@pytest.mark.parametrize("nu", [None, (0.6, 0.8)], ids=["axis", "0.6-0.8"])
def test_sbd_bound_is_below_every_field(nu):
    # the constant-stress bound holds for every per-element Q1 field: the
    # datum interpolant and random fields around it, for bulk densities
    # with m = 0 and m > 0 (the laminate's x-dependent radius, also frozen)
    # and both surface declarations; on an axis jump of abs-sym*100 with
    # odot-norm it is |dv (.) nu| to rounding
    frame = None if nu is None else frame_for_normal(nu)
    normal = np.array([1.0, 0.0]) if nu is None else frame[:, 0]
    dv = np.array([0.3, 1.0])
    rng = np.random.default_rng(3)
    for data in (AffineData(rand_sym(), [0.2, 0.0]), JumpData(np.zeros(2), dv, normal)):
        for fx in (None, np.array([0.3, -0.1])):
            spec = CellSpec(boundary=data, mesh=5, frame=frame, freeze_x=fx,
                            solver=SolverParams(multistarts=4))  # a stack of 4 fields
            grid = Grid(spec.box, spec.mesh, frame)
            _, x0 = _sbd_serial_setup(spec, abs_sym(), g_odot())
            fields = [x0] + [x0 + t * rng.normal(size=x0.shape) for t in (1e-3, 0.1, 1.0)]
            for f1 in (scaled(abs_sym(), 100.0), laminate_a(), sqrt1plus_sym()):
                for g1 in (g_odot(), g_penalty(10.0)):
                    bound = _sbd_bound(grid, spec, f1, g1)
                    objective = _sbd_objective(grid, spec, f1, g1)
                    raw = [b + s for b, s in zip(*objective(np.array(fields), raw=True)[:2])]
                    assert bound > 0 and min(raw) >= bound * (1 - 1e-12)
    spec = CellSpec(boundary=JumpData(np.zeros(2), dv, normal), mesh=5, frame=frame)
    bound = _sbd_bound(Grid(spec.box, 5, frame), spec, scaled(abs_sym(), 100.0), g_odot())
    assert bound == pytest.approx(frob(odot(dv, normal)), rel=1e-14)
    assert _sbd_bound(Grid(spec.box, 5, frame), spec, vmin_abs(), g_odot()) is None
    assert _sbd_bound(Grid(spec.box, 5, frame), spec, abs_sym(),
                      replace(g_odot(), dual_datum=None)) is None


def test_surface_declaration_check():
    # a declared surface datum (r, k) must give raw = r |J (.) nu| + k |J|^2
    # and a smoothed value at or below raw: a wrong one would certify a
    # false lower bound
    for name in _SURFACE_REGISTRY:
        get_surface_integrand(name).check_flags()
    odot_norm, penalty = g_odot(), g_penalty(10.0)
    penalty.check_flags()
    assert odot_norm.dual_datum == (1.0, 0.0) and penalty.dual_datum == (0.0, 10.0)
    assert penalty.raw is penalty.value
    for g, wrong in ((odot_norm, (2.0, 0.0)), (odot_norm, (0.0, 1.0)), (odot_norm, (1.0, 1e-3)),
                     (penalty, (0.0, 20.0)), (penalty, (1.0, 0.0)), (penalty, (-1.0, 10.0))):
        with pytest.raises(ValueError, match="dualDatum"):
            replace(g, dual_datum=wrong).check_flags()
    with pytest.raises(ValueError, match="above raw"):
        replace(odot_norm, value=lambda X, VM, VP, NU: odot_norm.raw(X, VM, VP, NU) + 1e-3
                ).check_flags()
    with pytest.raises(ValueError, match="finite"):
        replace(penalty, raw=lambda X, VM, VP, NU: -penalty.raw(X, VM, VP, NU)).check_flags()
    replace(odot_norm, dual_datum=None).check_flags()


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
    # the axis frame, then a frame rotated by 1e-9 rad, within allclose of I
    for frame in (None, frame_for_normal((math.cos(1e-9), math.sin(1e-9)))):
        grid = Grid(Box.cube((0.0, 0.0), 1.0), 4, frame=frame)
        w = GridDisplacement(grid=grid, values=RNG.normal(size=(grid.n_nodes, 2)))
        w2 = prolong(w, 2)
        pts = RNG.uniform(-0.5, 0.5, size=(40, 2))
        assert np.allclose(w.value(pts), w2.value(pts), atol=1e-13)
        # the fine grid keeps the coarse grid's frame, and the coarse nodes
        assert np.array_equal(w2.grid.R, grid.R)
        assert np.array_equal(w2.grid.nodes.reshape(9, 9, 2)[::2, ::2].reshape(-1, 2),
                              grid.nodes)


def test_scaled_integrand():
    f = scaled(abs_sym(mu=1e-6), 100.0)
    A = rand_sym()
    X = np.zeros((1, 2))
    V = np.zeros((1, 2))
    assert f.raw(X, V, A[None])[0] == pytest.approx(100.0 * frob(A), rel=1e-14)
