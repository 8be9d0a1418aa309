import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from bdrelax.cellsolver import AffineData, CellSpec, SolverParams, solve_ld, solve_periodic
from bdrelax.density import (A0, DensityEstimate, _kept, abs_sym, bulk_density,
                             check_symmetric_quasiconvexity, convex_envelope_witness_A0,
                             get_integrand, get_surface_integrand, integrand_evaluator,
                             jump_density, laminate_a, mueller_f_eps, mueller_h,
                             mueller_h_integrand, recession, scaled, sq_envelope,
                             sqrt1plus_sym, truncated_neg_sym_sq, vmin_abs)
from bdrelax.geometry import Box
from bdrelax.tensor import frob, odot, sym

X0 = (0.0, 0.0)
V0 = (0.0, 0.0)


def rand_sym(seed=0):
    B = np.random.default_rng(seed).normal(size=(2, 2))
    return 0.5 * (B + B.T)


# ---------------------------------------------------------------------------
# corpus


def test_mueller_h_values():
    assert mueller_h(np.eye(2)) == 0.0
    # hand evaluation of the printed formula at A0: 0 + 0 + min(2, 2)
    assert mueller_h(A0) == 2.0
    with pytest.raises(ValueError):
        mueller_h(np.eye(3))


def test_mueller_zero_set_witness():
    w = convex_envelope_witness_A0()
    assert w["h_values"] == [0.0, 0.0]
    assert w["mean_is_A0"]
    assert w["h_at_mean"] == 2.0


def test_skew_sensitivity():
    # same symmetric part, different values: h depends on the skew part
    assert np.allclose(sym(np.eye(2)), sym(A0), atol=0)
    assert mueller_h(np.eye(2)) == 0.0 and mueller_h(A0) == 2.0


def test_corpus_flags():
    mueller_h_integrand().check_flags()
    mueller_f_eps(0.1).check_flags()
    laminate_a().check_flags()
    truncated_neg_sym_sq().check_flags()
    vmin_abs().check_flags()


def test_registry():
    assert get_integrand("abs-sym").name == "abs-sym"
    assert get_integrand("mueller-f-eps(0.25)").name == "mueller-f-eps(0.25)"
    assert get_integrand("laminate-a:0.05").name == "laminate-a(0.05)"
    assert "*" in get_integrand("abs-sym*100").name
    with pytest.raises(KeyError):
        get_integrand("nope")
    assert get_surface_integrand("odot").name == "odot-norm"
    assert get_surface_integrand("penalty(10)").name == "penalty(10)"


def test_surface_registry_shares_id_grammar():
    # bulk and surface ids take an argument as 'name(arg)' or 'name:arg'
    assert get_surface_integrand("penalty:100").name == "penalty(100)"
    assert get_surface_integrand(" penalty(100) ").name == "penalty(100)"
    VM, VP, NU = np.zeros((1, 2)), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])
    for spec in ("odot:0.01", "odot-norm(0.01)"):
        g = get_surface_integrand(spec)
        assert g.value(None, VM, VP, NU) == get_surface_integrand("odot(0.01)").value(None, VM, VP, NU)
    with pytest.raises(KeyError, match="known"):
        get_surface_integrand("nope:1")


def test_mueller_smoothed_matches_raw():
    f = mueller_h_integrand(mu=1e-8)
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 2, 2))
    X = np.zeros((6, 2))
    V = np.zeros((6, 2))
    assert np.allclose(f.value(X, V, A), f.raw(X, V, A), atol=1e-6)
    # gradient finite-difference check on the smoothed form
    f = mueller_h_integrand(mu=1e-3)
    A1 = A[:1]
    _, dA = f.grad(X[:1], V[:1], A1)
    h = 1e-7
    for i in range(2):
        for j in range(2):
            A2 = A1.copy()
            A2[0, i, j] += h
            fd = (f.value(X[:1], V[:1], A2)[0] - f.value(X[:1], V[:1], A1)[0]) / h
            assert fd == pytest.approx(dA[0, i, j], rel=1e-3, abs=1e-6)


def _general_sym(A):
    return 0.5 * (A + A.swapaxes(-1, -2))


def _general_sq(S):
    return (S * S).sum(axis=(-2, -1))


def _corpus_in_general_form():
    """Every _REGISTRY entry at its default argument, written with the
    general n x n forms of the symmetric part and of the squared norm (one
    numpy reduction) and a memo-free laminate coefficient: {id: (value,
    grad, raw)}, the formulas the corpus must reproduce bit for bit."""
    mu = 1e-6

    def q_of(A):
        S = _general_sym(A)
        return S, _general_sq(S)

    def abs_value(X, V, A):
        return np.sqrt(q_of(A)[1] + mu * mu) - mu

    def abs_grad(X, V, A):
        S, q = q_of(A)
        return np.zeros_like(V), S / np.sqrt(q + mu * mu)[:, None, None]

    def abs_raw(X, V, A):
        return np.sqrt(q_of(A)[1])

    def s1p_value(X, V, A):
        return np.sqrt(1.0 + q_of(A)[1])

    def s1p_grad(X, V, A):
        S, q = q_of(A)
        return np.zeros_like(V), S / np.sqrt(1.0 + q)[:, None, None]

    def pieces(A):
        return (A[..., 0, 0] - A[..., 1, 1], A[..., 0, 1] + A[..., 1, 0],
                A[..., 0, 0] + A[..., 1, 1], A[..., 0, 1] - A[..., 1, 0])

    def sm(t):
        return np.sqrt(t * t + mu * mu) - mu

    def sp(t):
        return t / np.sqrt(t * t + mu * mu)

    def h_raw(X, V, A):
        l1, l2, l3, l4 = pieces(A)
        return np.abs(l1) + np.abs(l2) + np.minimum(np.abs(l3), np.abs(l4))

    def h_value(X, V, A):
        l1, l2, l3, l4 = pieces(A)
        a, b = sm(l3), sm(l4)
        return sm(l1) + sm(l2) + 0.5 * (a + b - sm(a - b))

    def h_grad(X, V, A):
        l1, l2, l3, l4 = pieces(A)
        a, b = sm(l3), sm(l4)
        da = 0.5 * (1.0 - sp(a - b)) * sp(l3)
        db = 0.5 * (1.0 + sp(a - b)) * sp(l4)
        dA = np.zeros_like(A)
        dA[..., 0, 0], dA[..., 1, 1] = sp(l1) + da, -sp(l1) + da
        dA[..., 0, 1], dA[..., 1, 0] = sp(l2) + db, sp(l2) - db
        return np.zeros_like(V), dA

    def f_eps_grad(X, V, A):
        (dV1, dA1), (dV2, dA2) = h_grad(X, V, A), abs_grad(X, V, A)
        return dV1 + 0.1 * dV2, dA1 + 0.1 * dA2

    def coef(X):
        return 2.0 + np.cos(2.0 * np.pi * X[:, 0])

    def lam_value(X, V, A):
        return coef(X) * np.sqrt(1e-2 * 1e-2 + q_of(A)[1])

    def lam_grad(X, V, A):
        S, q = q_of(A)
        return np.zeros_like(V), (coef(X) / np.sqrt(1e-2 * 1e-2 + q))[:, None, None] * S

    def trunc_value(X, V, A):
        return np.maximum(1.0 - q_of(A)[1], 0.0)

    def trunc_grad(X, V, A):
        S, q = q_of(A)
        return np.zeros_like(V), -2.0 * (q < 1.0).astype(float)[:, None, None] * S

    def vfac(V):
        nv = np.sqrt((V * V).sum(axis=-1) + mu * mu) - mu
        return 1.0 + 0.5 * (nv + 1.0 - np.sqrt((nv - 1.0) ** 2 + mu * mu))

    def vmin_raw(X, V, A):
        return (1.0 + np.minimum(np.sqrt((V ** 2).sum(axis=-1)), 1.0)) * abs_raw(X, V, A)

    def vmin_value(X, V, A):
        return vfac(V) * abs_value(X, V, A)

    def vmin_grad(X, V, A):
        S, q = q_of(A)
        root = np.sqrt(q + mu * mu)
        nv_root = np.sqrt((V * V).sum(axis=-1) + mu * mu)
        nv = nv_root - mu
        dmin = 0.5 * (1.0 - (nv - 1.0) / np.sqrt((nv - 1.0) ** 2 + mu * mu))
        return ((dmin * (root - mu) / nv_root)[:, None] * V,
                (vfac(V) / root)[:, None, None] * S)

    return {
        "abs-sym": (abs_value, abs_grad, abs_raw),
        "sqrt1plus-sym": (s1p_value, s1p_grad, s1p_value),
        "mueller-h": (h_value, h_grad, h_raw),
        "mueller-f-eps": (lambda X, V, A: h_value(X, V, A) + 0.1 * abs_value(X, V, A),
                          f_eps_grad,
                          lambda X, V, A: h_raw(X, V, A) + 0.1 * abs_raw(X, V, A)),
        "laminate-a": (lam_value, lam_grad, lam_value),
        "truncated-neg-sym-sq": (trunc_value, trunc_grad, trunc_value),
        "vmin-abs": (vmin_value, vmin_grad, vmin_raw),
    }


def _extreme_batch(seed, n=256):
    """Points, values and gradients over 16 decades, with entries near 1e154
    (whose squares overflow), near 1e308 (whose doubles overflow), signed
    zeros and infinities."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    V = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    A = rng.normal(size=(n, 2, 2)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1, 1))
    special = np.array([1e154, -3e154, 1.7e308, -1e308, 0.0, -0.0, np.inf, -np.inf])
    rows = rng.integers(0, n, size=n // 2)
    A[rows, rng.integers(0, 2, size=n // 2), rng.integers(0, 2, size=n // 2)] = \
        rng.choice(special, size=n // 2)
    V[rows[: n // 8], 0] = rng.choice(special[:6], size=n // 8)
    return X, V, A


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(_corpus_in_general_form()))
def test_corpus_bits_match_the_general_forms(name):
    # the component forms of tensor.sym and tensor.frob_sq, and the kept
    # x-only factors and strain terms, change no bit of any corpus entry:
    # signed zeros, infinities and overflowed values included
    value, grad, raw = _corpus_in_general_form()[name]
    f = get_integrand(name)
    for seed in range(3):
        X, V, A = _extreme_batch(seed)
        Xr, Ar = X.copy(), A.copy()
        Xr.flags.writeable = Ar.flags.writeable = False  # arrays the corpus may keep terms for
        with np.errstate(all="ignore"):
            ref = value(X, V, A), raw(X, V, A), grad(X, V, A)
            # fresh arrays, then read-only ones twice: the second pass reads kept terms
            for Xk, Ak in ((X, A), (Xr, Ar), (Xr, Ar)):
                assert _same_bits(f.value(Xk, V, Ak), ref[0])
                (dV, dA) = f.grad(Xk, V, Ak)
                assert _same_bits(dV, ref[2][0]) and _same_bits(dA, ref[2][1])
                assert _same_bits(f.raw(Xk, V, Ak), ref[1])


def test_laminate_memo_keys_on_the_array_not_its_address():
    # two read-only point arrays at one data address and of one shape, with
    # different first coordinates, and a writeable array changed in place:
    # each call gets the coefficient of the points it was handed
    f = laminate_a()
    rng = np.random.default_rng(4)
    A = rng.normal(size=(8, 2, 2))
    V = np.zeros((8, 2))

    def fresh(X):
        return (2.0 + np.cos(2.0 * np.pi * X[:, 0])) * np.sqrt(1e-4 + (sym(A) ** 2).sum((1, 2)))

    base = rng.uniform(size=16)
    base.flags.writeable = False
    X1 = base.reshape(8, 2)
    X2 = np.lib.stride_tricks.as_strided(base, shape=(8, 2), strides=(8, 8))
    assert X1.ctypes.data == X2.ctypes.data and not X2.flags.writeable
    for X in (X1, X2, X1):
        assert np.array_equal(f.value(X, V, A), fresh(X))
    W = rng.uniform(size=(8, 2))
    assert np.array_equal(f.value(W, V, A), fresh(W))
    W[:, 0] += 0.25  # a writeable array is never kept
    assert np.array_equal(f.value(W, V, A), fresh(W))
    view = W.view()
    view.flags.writeable = False  # nor a read-only view of writeable data
    assert np.array_equal(f.value(view, V, A), fresh(view))
    W[:, 0] += 0.25
    assert np.array_equal(f.value(view, V, A), fresh(view))


def test_kept_terms_go_with_their_array():
    # terms are kept for a read-only array while it lives, never for a
    # writeable one, and are dropped with the array
    calls = []

    def doubled(Y):
        calls.append(1)
        return 2.0 * Y

    kept = _kept(doubled)
    Y = np.arange(4.0)
    kept(Y), kept(Y)
    assert len(calls) == 2
    Y.flags.writeable = False
    out = weakref.ref(kept(Y))
    assert np.array_equal(kept(Y), 2.0 * Y) and len(calls) == 3 and out() is not None
    del Y
    gc.collect()
    assert out() is None


def test_laminate_memo_across_cells_of_one_shape():
    # the periodic cell and the T = 1 cube have point arrays of one shape;
    # one laminate serves both, as a HomogSpec does, and each solve equals
    # the solve with a memo-free laminate (fed writeable copies of X). In
    # the later rounds a cube's points may reuse the freed buffer of the
    # periodic cell's, which a memo keyed on the address would mistake
    lam, ref = laminate_a(), laminate_a()

    def copied(fn):
        return lambda X, V, A: fn(np.array(X), V, A)

    free = replace(ref, value=copied(ref.value), grad=copied(ref.grad), raw=copied(ref.raw))
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    periodic = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=8,
                        box=Box((0.0, 0.0), (1.0, 1.0)), solver=SolverParams(max_iters=100))
    cube = replace(periodic, box=Box.cube((0.0, 0.0), 1.0))
    want = [solve_periodic(periodic, free), solve_ld(cube, free)]
    for _ in range(3):
        for w, (solve, spec) in zip(want, ((solve_periodic, periodic), (solve_ld, cube))):
            g = solve(spec, lam)
            assert g.value == w.value and g.value_smoothed == w.value_smoothed
            assert np.array_equal(g.argmin.values, w.argmin.values)
            assert g.diagnostics == w.diagnostics
            del g  # the solution keeps its grid, not the plan with the points


# ---------------------------------------------------------------------------
# bulk density


def test_bulk_density_convex_v_independent():
    f = abs_sym(mu=1e-6)
    A = rand_sym(2)
    est = bulk_density(f, X0, V0, A, eps_schedule=(1.0, 0.5), mesh=8)
    for _, v in est.samples:
        assert v == pytest.approx(frob(A), abs=1e-5)
    assert est.converged
    assert list(est.diagnostics) == [k for k, _ in est.samples] == [1.0, 0.5]


def test_bulk_density_zero_matrix():
    f = abs_sym(mu=1e-6)
    est = bulk_density(f, X0, V0, np.zeros((2, 2)), eps_schedule=(1.0,), mesh=8)
    assert est.extrapolated == pytest.approx(0.0, abs=1e-10)


def test_bulk_density_v_dependent_trend():
    f = vmin_abs(mu=1e-6)
    A = np.array([[1.0, 0.0], [0.0, 0.0]])  # e1 (.) e1, |A| = 1
    est = bulk_density(f, X0, V0, A, eps_schedule=(1.0, 0.5, 0.25), mesh=8)
    vals = [v for _, v in est.samples]
    assert all(v >= 1.0 - 1e-9 for v in vals)
    # dominated comparison: the v-offset contribution is at most eps * data size
    assert vals[-1] <= vals[0] + 1e-9
    assert vals[-1] - 1.0 <= 0.75 * (vals[0] - 1.0) + 1e-9


def test_bulk_density_requires_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        bulk_density(abs_sym(), X0, V0, np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# envelope


def test_sq_envelope_convex_is_identity():
    f = abs_sym(mu=1e-6)
    A = rand_sym(3)
    est = sq_envelope(f, A, mesh_schedule=(8, 16), solver=SolverParams())
    for _, v in est.samples:
        assert v == pytest.approx(frob(A), abs=1e-5)


def test_sq_envelope_mueller_identity_zero():
    est = sq_envelope(mueller_h_integrand(), np.eye(2), mesh_schedule=(8,),
                      solver=SolverParams())
    assert est.extrapolated <= 1e-10


def test_sq_envelope_non_increasing():
    est = sq_envelope(mueller_h_integrand(), A0, mesh_schedule=(8, 16),
                      solver=SolverParams(multistarts=2, seed=0))
    vals = [v for _, v in est.samples]
    assert vals[1] <= vals[0] + 1e-6
    assert all(v > 0.05 for v in vals)


def test_sq_envelope_requires_v_independent():
    with pytest.raises(ValueError, match="v-independent"):
        sq_envelope(vmin_abs(), np.eye(2))


# ---------------------------------------------------------------------------
# jump density


def test_jump_density_eps_invariance_one_homogeneous():
    f = abs_sym(mu=1e-6)
    est = jump_density(f, X0, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                       eps_schedule=(1.0, 0.5, 0.25), mesh=8)
    vals = [v for _, v in est.samples]
    assert max(vals) - min(vals) <= 1e-4


@pytest.mark.parametrize("dv, mesh, work", [
    ((0.0, 1.0), 8, (64, 148, "gap")),
    ((1.0, 0.0), 8, (96, 117, "gap")),
    ((0.0, 1.0), 12, (96, 122, "gap")),
], ids=["e2-e1-m8", "e1-e1-m8", "e2-e1-m12"])
def test_axis_jump_cells_stop_on_a_certified_gap(dv, mesh, work):
    # the axis cells of the jump benchmark: without the duality-gap stop
    # they take (100, 343, gtol), (413, 4813, gtol) and (355, 7985,
    # line_search_stall) for the same values; the last two close at the
    # certificate their gaps predict, without it at (128, 384) and (128, 642)
    est = jump_density(abs_sym(mu=1e-6), X0, (0.0, 0.0), dv, (1.0, 0.0),
                       eps_schedule=(1.0,), mesh=mesh)
    diag = est.diagnostics[1.0]
    assert (diag["iters"], diag["nfev"], diag["reason"]) == work
    assert diag["lower_bound"] <= est.extrapolated
    assert diag["gap"] <= 1e-5 * est.extrapolated
    assert est.extrapolated == pytest.approx(frob(odot(np.array(dv), np.array([1.0, 0.0]))),
                                             rel=1e-6)
    assert est.converged


def test_jump_density_doubling():
    f = abs_sym(mu=1e-6)
    e1 = jump_density(f, X0, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                      eps_schedule=(1.0,), mesh=16).extrapolated
    e2 = jump_density(f, X0, (0.0, 0.0), (0.0, 2.0), (1.0, 0.0),
                      eps_schedule=(1.0,), mesh=16).extrapolated
    assert e2 == pytest.approx(2.0 * e1, rel=1e-2)


def test_jump_density_bis_variant():
    f = sqrt1plus_sym()
    bis = jump_density(f, X0, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), variant="bis", mesh=16)
    target = frob(odot(np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    assert bis.extrapolated == pytest.approx(target, rel=0.05)
    assert list(bis.diagnostics) == [k for k, _ in bis.samples] == [0.0]
    with pytest.raises(ValueError, match="recession"):
        jump_density(laminate_a(), X0, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), variant="bis")


def test_jump_density_sbd_pair_crack_dominated():
    # huge bulk penalty forces the flat crack; value approaches g1 at the datum
    f1 = scaled(abs_sym(mu=1e-6), 100.0)
    g1 = get_surface_integrand("odot")
    est = jump_density((f1, g1), X0, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                       eps_schedule=(1.0,), mesh=8)
    target = 2 ** -0.5
    assert est.extrapolated == pytest.approx(target, rel=0.02)


def test_jump_density_validation():
    with pytest.raises(ValueError, match="differ"):
        jump_density(abs_sym(), X0, (0.0, 0.0), (0.0, 0.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# recession


def test_recession_sqrt1plus():
    A = rand_sym(4)
    est = recession(integrand_evaluator(sqrt1plus_sym()), X0, V0, A)
    assert est.extrapolated == pytest.approx(frob(sym(A)), abs=1e-3)


def test_recession_one_homogeneous_exact():
    f = integrand_evaluator(abs_sym(mu=0.0))
    A = rand_sym(5)
    est = recession(f, X0, V0, A, t_schedule=(1.0, 10.0, 100.0))
    for _, slope in est.samples:
        assert slope == pytest.approx(frob(sym(A)), rel=1e-14)


def test_recession_bounded_perturbation():
    def f(x0, v, A):
        return frob(sym(np.asarray(A))) + np.sin(frob(np.asarray(A)))

    A = rand_sym(6)
    est = recession(f, X0, V0, A, t_schedule=(1e2, 1e3, 1e4))
    assert est.extrapolated == pytest.approx(frob(sym(A)), abs=1e-3)


def test_recession_validation():
    with pytest.raises(ValueError, match="increasing"):
        recession(integrand_evaluator(abs_sym()), X0, V0, np.eye(2), t_schedule=(10.0, 5.0))


def test_recession_matches_bulk_density_for_sqc_one_homogeneous():
    # for |sym A| (convex, hence symmetric quasiconvex, one-homogeneous,
    # v-independent) both estimators reduce to the integrand value
    f = abs_sym(mu=1e-6)
    A = rand_sym(9)
    rec = recession(integrand_evaluator(f), X0, V0, A, t_schedule=(1e2, 1e3)).extrapolated
    bulk = bulk_density(f, X0, V0, A, eps_schedule=(1.0,), mesh=8).extrapolated
    assert abs(rec - bulk) <= 1e-4


# ---------------------------------------------------------------------------
# quasiconvexity deficit search


def test_sqc_convex_never_negative():
    out = check_symmetric_quasiconvexity(abs_sym(mu=0.0), X0, V0, rand_sym(7), trials=20)
    assert out["worst_deficit"] >= -1e-8
    assert not out["violation_found"]


def test_sqc_violation_found():
    out = check_symmetric_quasiconvexity(truncated_neg_sym_sq(), X0, V0,
                                         np.zeros((2, 2)), trials=100)
    assert out["violation_found"]
    assert out["worst_deficit"] < 0


def test_sqc_zero_matrix_minimum():
    out = check_symmetric_quasiconvexity(abs_sym(mu=0.0), X0, V0, np.zeros((2, 2)), trials=10)
    assert out["worst_deficit"] >= 0.0


def test_density_estimate_invariants():
    est = DensityEstimate.from_samples([(1.0, 2.0)])
    assert est.extrapolated == 2.0 and est.spread == 0.0
    est2 = DensityEstimate.from_samples([(1.0, 2.0), (0.5, 1.5)])
    assert est2.extrapolated == 1.5 and est2.spread == 0.5
    assert est.diagnostics == est2.diagnostics == {}
    # a solved cell's row carries its diagnostics, keyed by the sample key
    est3 = DensityEstimate.from_samples([(8, 2.0, {"iters": 3}), (16, 1.5, {"iters": 5})])
    assert est3.samples == [(8, 2.0), (16, 1.5)] and est3.spread == 0.5
    assert est3.diagnostics == {8: {"iters": 3}, 16: {"iters": 5}}
    # converged needs every solved sample's winning run to stop on gtol or gap
    assert not est3.converged
    rows = [(8, 2.0, {"reason": "gtol"}), (16, 2.0, {"reason": "gap"})]
    assert DensityEstimate.from_samples(rows).converged
    for reason in ("max_iters", "line_search_stall"):
        assert not DensityEstimate.from_samples(rows + [(32, 2.0, {"reason": reason})]).converged
    with pytest.raises(ValueError):
        DensityEstimate.from_samples([])
