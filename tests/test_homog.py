import numpy as np
import pytest

from bdrelax.density import abs_sym, laminate_a, mueller_h_integrand, sqrt1plus_sym
from bdrelax.homog import (FoldError, HomogError, HomogSpec, fhom_dirichlet, fhom_periodic,
                           fold, fold_emass, fold_energy, make_periodic_competitor)
from bdrelax.tensor import frob, sym


def test_x_independent_convex_every_T():
    f0 = sqrt1plus_sym()
    A = np.array([[0.4, 0.1], [0.1, -0.2]])
    spec = HomogSpec(f0=f0, A=A, T_schedule=(1, 2), mesh_per_period=8)
    est = fhom_dirichlet(spec)
    target = float(np.sqrt(1.0 + frob(sym(A)) ** 2))
    for _, v in est.samples:
        assert v == pytest.approx(target, abs=1e-5)


def test_periodic_x_independent_convex():
    f0 = sqrt1plus_sym()
    A = np.array([[0.4, 0.1], [0.1, -0.2]])
    spec = HomogSpec(f0=f0, A=A, T_schedule=(1,), mesh_per_period=8)
    val = fhom_periodic(spec)
    assert val == pytest.approx(float(np.sqrt(1.0 + frob(sym(A)) ** 2)), abs=1e-6)


def test_zero_strain_mean_of_coefficient():
    # with A = 0 the zero corrector is optimal pointwise and the value is
    # the mean of f0(., 0); independent oracle by 1-D Riemann quadrature
    f0 = laminate_a(mu_reg=1e-2)
    spec = HomogSpec(f0=f0, A=np.zeros((2, 2)), T_schedule=(1,), mesh_per_period=16)
    est = fhom_dirichlet(spec)
    xs = (np.arange(40000) + 0.5) / 40000
    oracle = float(np.mean((2.0 + np.cos(2 * np.pi * xs)) * 1e-2))
    assert est.samples[0][1] == pytest.approx(oracle, abs=1e-4)


def test_dirichlet_monotone_in_T():
    f0 = laminate_a(mu_reg=1e-2)
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = HomogSpec(f0=f0, A=A, T_schedule=(1, 2), mesh_per_period=8)
    est = fhom_dirichlet(spec)
    vals = [v for _, v in est.samples]
    assert vals[1] <= vals[0] + 1e-6


def test_laminate_cells_stop_on_a_certified_gap():
    # the laminate cubes of the homogenization benchmark (8 cells per
    # period, grids 8, 16 and 32): without the Hessian-weighted certificate
    # they take (290, 862, gtol), (1398, 2962, gtol) and (2000, 2078,
    # max_iters); T=1 closes at the certificate its gaps predict, without it
    # at (128, 148)
    spec = HomogSpec(f0=laminate_a(), A=np.array([[1.0, 0.0], [0.0, 0.0]]), T_schedule=(1, 2, 4),
                     mesh_per_period=8)
    est = fhom_dirichlet(spec)
    work = {1: (96, 116, "gap"), 2: (128, 154, "gap"), 4: (128, 149, "gap")}
    for T, value in est.samples:
        diag = est.diagnostics[T]
        assert (diag["iters"], diag["nfev"], diag["reason"]) == work[T]
        cell_value = value * T * T
        assert diag["lower_bound"] <= cell_value
        assert diag["gap"] <= 1e-5 * cell_value
    assert est.converged is True


def test_periodic_below_dirichlet():
    f0 = laminate_a(mu_reg=1e-2)
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = HomogSpec(f0=f0, A=A, T_schedule=(1, 2), mesh_per_period=8)
    per = fhom_periodic(spec)
    est = fhom_dirichlet(spec)
    for _, v in est.samples:
        assert per <= v * 1.02


def test_periodic_requires_convex():
    spec = HomogSpec(f0=mueller_h_integrand(), A=np.eye(2), T_schedule=(1,),
                     mesh_per_period=8)
    with pytest.raises(HomogError, match="periodic formula requires convex integrand"):
        fhom_periodic(spec)


def test_homog_spec_validation():
    with pytest.raises(HomogError, match="symmetric"):
        HomogSpec(f0=abs_sym(), A=np.array([[0.0, 1.0], [0.0, 0.0]]), T_schedule=(1,))
    with pytest.raises(HomogError, match="cap"):
        HomogSpec(f0=abs_sym(), A=np.eye(2), T_schedule=(8,), mesh_per_period=16)
    with pytest.raises(HomogError, match="increasing"):
        HomogSpec(f0=abs_sym(), A=np.eye(2), T_schedule=(2, 2), mesh_per_period=8)
    with pytest.raises(HomogError, match="mesh_per_period"):
        HomogSpec(f0=abs_sym(), A=np.eye(2), T_schedule=(1,), mesh_per_period=4)


# ---------------------------------------------------------------------------
# folding


def test_fold_identity_trivial():
    w = make_periodic_competitor(16, (0.0, 0.0), eps=1.0, seed=0)
    w1 = fold(w, 1, 1.0, (0.0, 0.0))
    assert np.array_equal(w1.values, w.values)


def test_fold_energy_and_mass_identity():
    f = abs_sym(mu=1e-6)
    v, eps = (0.0, 1.0), 0.5
    for j in (2, 4):
        w = make_periodic_competitor(32 // j, v, eps=eps, seed=11)
        wj = fold(w, j, eps, v)
        assert wj.grid.mesh == 32
        assert fold_energy(w, f) == fold_energy(wj, f)
        assert fold_emass(w) == fold_emass(wj)


def test_fold_grid_mismatch():
    w = make_periodic_competitor(16, (0.0, 1.0), eps=1.0, seed=0)
    with pytest.raises(FoldError, match="grid/j mismatch"):
        fold(w, 2, 1.0, (0.0, 1.0), target_mesh=24)


def test_fold_trace_mismatch():
    w = make_periodic_competitor(16, (0.0, 1.0), eps=1.0, seed=0)
    bad = w.values.copy()
    bad[0] += 1.0
    from bdrelax.cellsolver import GridDisplacement

    with pytest.raises(FoldError):
        fold(GridDisplacement(grid=w.grid, values=bad), 2, 1.0, (0.0, 1.0))


def test_fold_shift_consistency():
    # j = 1 with a nonzero shift vector must leave the field unchanged
    v, eps = (0.3, -0.2), 0.7
    w = make_periodic_competitor(8, v, eps=eps, seed=2)
    w1 = fold(w, 1, eps, v)
    assert np.allclose(w1.values, w.values, atol=1e-12)


def _seed_fold(w, j, eps, v):
    """The seed's fold, one fine row at a time with explicit wrap fix-ups:
    the reference the gather form must reproduce bit for bit."""
    v = np.asarray(v, dtype=float).reshape(2)
    N = w.grid.mesh
    M = N * j
    vals = w.values.reshape(N + 1, N + 1, 2)
    px = np.arange(M + 1)
    ix = px % N
    kx = px // N
    wrap = (ix == 0) & (kx > 0)
    ix = np.where(wrap, N, ix)
    kx = np.where(wrap, kx - 1, kx)
    iy = np.where((px % N == 0) & (px > 0), N, px % N)
    out = np.empty((M + 1, M + 1, 2))
    for a in range(M + 1):
        shift = (kx[a] / eps) * v / j
        out[a, :, :] = vals[ix[a], iy, :] / j + shift
    return out.reshape((M + 1) ** 2, 2)


@pytest.mark.parametrize("mesh", [4, 5, 8, 16, 32])
def test_fold_matches_seed_loop(mesh):
    for j in (1, 2, 3, 4, 7):
        for eps in (0.3, 0.5, 1.0):
            for seed in range(3):
                v = (0.4 - 0.3 * seed, 1.0 + 0.5 * seed)
                w = make_periodic_competitor(mesh, v, eps=eps, seed=seed)
                wj = fold(w, j, eps, v)
                assert wj.grid.mesh == mesh * j
                assert np.array_equal(wj.values, _seed_fold(w, j, eps, v))
