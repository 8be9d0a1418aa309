import numpy as np
import pytest

from bdrelax.cellsolver import SolverParams
from bdrelax.density import (A0, DensityEstimate, abs_sym, bulk_density,
                             check_symmetric_quasiconvexity, convex_envelope_witness_A0,
                             get_integrand, get_surface_integrand, integrand_evaluator,
                             jump_density, laminate_a, mueller_f_eps, mueller_h,
                             mueller_h_integrand, recession, scaled, sq_envelope,
                             sqrt1plus_sym, truncated_neg_sym_sq, vmin_abs)
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
    with pytest.raises(ValueError):
        DensityEstimate.from_samples([])
