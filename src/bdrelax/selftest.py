"""Acceptance suite: one check per shipped criterion, each returning
(passed, detail). The CLI `selftest` command and the pytest acceptance
module both run exactly these functions.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np

from .bdmodel import SmoothSinusoid, StructuredBD
from .blowup import BlowupFrame, ProfilePair, normalize_profile, rescale
from .cellsolver import AffineData, CellSpec, SolverParams, solve_ld
from .density import (A0, abs_sym, convex_envelope_witness_A0, integrand_evaluator,
                      jump_density, laminate_a, mueller_h, mueller_h_integrand, recession,
                      sq_envelope, sqrt1plus_sym)
from .geometry import Box
from .homog import (HomogSpec, fhom_dirichlet, fhom_periodic, fold, fold_emass, fold_energy,
                    make_periodic_competitor)
from .represent import relaxation_upper_check
from .rigid import M_K_boundary, M_K_volume, korn_ratio, rigid_projection
from .tensor import frob, odot, sym


def check_rigid_invariance() -> tuple[bool, str]:
    """100 random rigid motions are fixed by the box projection (1e-10)."""
    rng = np.random.default_rng(0)
    K = Box.cube((0.0, 0.0), 1.0)
    pts = np.concatenate([K.corners(), rng.uniform(-0.5, 0.5, size=(40, 2))])
    worst = 0.0
    for _ in range(100):
        lam = rng.normal()
        L = np.array([[0.0, -lam], [lam, 0.0]])
        v = rng.normal(size=2)
        u = StructuredBD.affine(L, v)
        r = rigid_projection(u, K)
        worst = max(worst, float(np.max(np.abs(r.value(pts) - u.value(pts)))))
    return worst <= 1e-10, f"max |R_K[Lx+v] - (Lx+v)| = {worst:.3e} (tol 1e-10)"


def check_mk_cross_formula() -> tuple[bool, str]:
    """Boundary and volume skew moments agree at quadrature order >= 1.8."""
    rng = np.random.default_rng(1)
    K = Box.cube((0.1, -0.2), 1.0)
    orders = []
    for _ in range(20):
        terms = []
        for _ in range(2):
            amp = rng.normal(size=2)
            freq = rng.integers(1, 3, size=2) + rng.uniform(-0.3, 0.3, size=2)
            terms.append((amp, freq, rng.uniform(0, 2 * np.pi)))
        u = StructuredBD(smooth=SmoothSinusoid(terms))
        d16 = frob(M_K_boundary(u, K, panels=16) - M_K_volume(u, K, cells=16))
        d32 = frob(M_K_boundary(u, K, panels=32) - M_K_volume(u, K, cells=32))
        if d32 < 1e-13:
            orders.append(np.inf)
        else:
            orders.append(math.log2(d16 / d32))
    ok = all(o >= 1.8 for o in orders)
    finite = [o for o in orders if np.isfinite(o)]
    return ok, f"observed orders min {min(orders):.2f} median {np.median(finite):.2f} (need >= 1.8)"


def check_convex_cell_exactness() -> tuple[bool, str]:
    """solve_ld with the convex norm density reproduces |A| to 1e-4."""
    rng = np.random.default_rng(2)
    f = abs_sym(mu=1e-6)
    worst = 0.0
    for _ in range(10):
        B = rng.normal(size=(2, 2))
        A = 0.5 * (B + B.T)
        spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=16)
        sol = solve_ld(spec, f)
        worst = max(worst, abs(sol.value - frob(A)))
    return worst <= 1e-4, f"max |value - |A|| = {worst:.3e} (tol 1e-4)"


def check_mueller_suite() -> tuple[bool, str]:
    """Skew-sensitive corpus: zero at Id, strictly positive envelope at A0,
    vanishing convex envelope witness."""
    msgs = []
    ok = True
    h = mueller_h_integrand(mu=1e-6)
    if mueller_h(np.eye(2)) != 0.0:
        ok, msgs = False, msgs + ["h(Id) != 0"]
    if mueller_h(A0) != 2.0:
        ok, msgs = False, msgs + ["h(A0) != 2"]
    sp = SolverParams(multistarts=8, seed=0)
    est_id = sq_envelope(h, np.eye(2), mesh_schedule=(8, 16, 32), solver=sp)
    if any(v > 1e-10 for _, v in est_id.samples):
        ok = False
        msgs.append(f"Qh(Id) samples {est_id.samples}")
    est_a0 = sq_envelope(h, A0, mesh_schedule=(8, 16, 32), solver=sp)
    vals = [v for _, v in est_a0.samples]
    if any(v <= 0.05 for v in vals):
        ok = False
        msgs.append(f"Qh(A0) floor violated: {vals}")
    if any(b > a + 1e-6 for a, b in zip(vals, vals[1:])):
        ok = False
        msgs.append(f"Qh(A0) not non-increasing: {vals}")
    w = convex_envelope_witness_A0()
    if w["h_values"] != [0.0, 0.0] or not w["mean_is_A0"]:
        ok = False
        msgs.append("convex envelope witness failed")
    floor_only = h.dual_datum is None and h.floor is not None  # the bound is 0 |box|
    stops = ", ".join(_stop_note(f"Qh({name}) mesh {mesh}", d, floor_only)
                      for name, est in (("Id", est_id), ("A0", est_a0))
                      for mesh, d in est.diagnostics.items())
    detail = (f"h(Id)=0, h(A0)=2, Qh(Id) max {max(v for _, v in est_id.samples):.1e}, "
              f"Qh(A0) = {['%.4f' % v for v in vals]}, witness mean = A0")
    return ok, f"{detail if ok else '; '.join(msgs)} ({stops})"


def _stop_note(label: str, d: dict, floor_only: bool = False) -> str:
    """'<label> stopped on <reason>, rel gap <gap / value>' of a cell's
    diagnostics d, with 'n/a' for an uncertified cell; a zero value, whose
    bound is then 0 as well, reads 0. Where the integrand's floor is the
    only bound (`floor_only`), no certificate was made and the note says
    so in place of the gap."""
    if floor_only:
        return f"{label} stopped on {d['reason']}, no certificate (floor bound only)"
    rel = "n/a"
    if "gap" in d:
        value = d["lower_bound"] + d["gap"]
        rel = f"{d['gap'] / value if value else 0.0:.1e}"
    return f"{label} stopped on {d['reason']}, rel gap {rel}"


def check_jump_recession() -> tuple[bool, str]:
    """Jump cell values match the symmetrized-dyad norm within 5 percent;
    recession slopes of sqrt(1+|.|^2) reach |sym A| within 1e-3."""
    f = abs_sym(mu=1e-6)
    pairs = [
        ("e2", (0.0, 1.0), "e1", (1.0, 0.0)),
        ("e1", (1.0, 0.0), "e1", (1.0, 0.0)),
        ("e2", (0.0, 1.0), "diag", (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))),
    ]
    worst_rel, stops = 0.0, []
    for dv_name, dv, nu_name, nu in pairs:
        target = frob(odot(np.asarray(dv), np.asarray(nu)))
        est = jump_density(f, (0.0, 0.0), (0.0, 0.0), dv, nu, eps_schedule=(1.0,), mesh=32)
        worst_rel = max(worst_rel, abs(est.extrapolated - target) / target)
        stops.append(_stop_note(f"dv={dv_name} nu={nu_name}", est.diagnostics[1.0]))
    rng = np.random.default_rng(5)
    B = rng.normal(size=(2, 2))
    A = 0.5 * (B + B.T)
    est_rec = recession(integrand_evaluator(sqrt1plus_sym()), (0.0, 0.0), (0.0, 0.0), A)
    rec_err = abs(est_rec.extrapolated - frob(sym(A)))
    ok = worst_rel <= 0.05 and rec_err <= 1e-3
    return ok, (f"jump rel err {worst_rel:.3%} (tol 5%; {', '.join(stops)}), "
                f"recession err {rec_err:.2e} (tol 1e-3)")


def check_homogenization() -> tuple[bool, str]:
    """Periodic and growing-cube formulas agree for the laminate; the
    x-independent convex case is exact at every cube size."""
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = HomogSpec(f0=laminate_a(mu_reg=1e-2), A=A, T_schedule=(1, 2, 4), mesh_per_period=16)
    per = fhom_periodic(spec)
    dir_est = fhom_dirichlet(spec)
    rel = abs(per - dir_est.extrapolated) / per
    f0 = sqrt1plus_sym()
    B = np.array([[0.4, 0.1], [0.1, -0.2]])
    spec2 = HomogSpec(f0=f0, A=B, T_schedule=(1, 2, 4), mesh_per_period=8)
    est2 = fhom_dirichlet(spec2)
    target = integrand_evaluator(f0)((0.0, 0.0), (0.0, 0.0), B)
    worst = max(abs(v - target) for _, v in est2.samples)
    ok = rel <= 0.02 and worst <= 1e-5
    stops = ", ".join(_stop_note(f"T={T}", d) for T, d in dir_est.diagnostics.items())
    return ok, (f"laminate periodic {per:.6f} vs dirichlet extrapolated "
                f"{dir_est.extrapolated:.6f} (rel {rel:.3%}, tol 2%; {stops}); "
                f"convex exactness max err {worst:.2e} (tol 1e-5)")


def check_folding() -> tuple[bool, str]:
    """Folding a periodic competitor preserves the discrete energy and the
    discrete |E .| mass on the common grid of resolution 32."""
    f = abs_sym(mu=1e-6)
    eps, v = 0.5, (0.0, 1.0)
    worst_e, worst_m = 0.0, 0.0
    for j in (1, 2, 4):
        w = make_periodic_competitor(32 // j, v, eps=eps, seed=7)
        wj = fold(w, j, eps, v, target_mesh=32)
        worst_e = max(worst_e, abs(fold_energy(w, f) - fold_energy(wj, f)))
        worst_m = max(worst_m, abs(fold_emass(w) - fold_emass(wj)))
    ok = worst_e <= 1e-8 and worst_m == 0.0
    return ok, f"energy gap {worst_e:.2e} (tol 1e-8), mass gap {worst_m:.2e} (tol 0)"


def check_blowup_algebra() -> tuple[bool, str]:
    """1000 random profile normalizations are exactly zero-average with
    D psi = beta rho and exactly idempotent; staircase rescaling carries
    mass |K| exactly along a triadic schedule."""
    rng = np.random.default_rng(8)
    bad = 0
    for _ in range(1000):
        rho = Fraction(float(rng.uniform(0.2, 2.0)))
        n_atoms = int(rng.integers(0, 6))
        ts = sorted(rng.uniform(-0.49, 0.49, size=n_atoms) * float(rho))
        atoms = tuple((Fraction(float(t)), Fraction(float(rng.uniform(0, 1)))) for t in ts)
        p = ProfilePair(atoms=atoms, slope=Fraction(float(rng.normal())),
                        offset=Fraction(float(rng.normal())),
                        beta_bar=Fraction(float(rng.normal())), rho=rho,
                        eta=(1.0, 0.0), xi=(0.0, 1.0))
        n = normalize_profile(p)
        if n.psi.mean() != 0 or n.psi.derivative_mass() != n.beta * p.rho:
            bad += 1
            continue
        n2 = normalize_profile(ProfilePair(atoms=n.psi.atoms, slope=n.psi.slope,
                                           offset=n.psi.offset, beta_bar=n.beta,
                                           rho=p.rho, eta=p.eta, xi=p.xi))
        if (n2.kappa != 0 or n2.psi.atoms != n.psi.atoms or n2.psi.slope != n.psi.slope
                or n2.psi.offset != n.psi.offset or n2.beta != n.beta):
            bad += 1
    u = StructuredBD.staircase(depth=8, total_mass=1, support=(0, 1))
    K = Box.cube((0.0, 0.0), 1.0)
    mass_exact = True
    for k in range(5):
        r = rescale(u, BlowupFrame(x=(0.0, 0.0), K=K, eps=Fraction(1, 3) ** k),
                    grid_per_axis=8)
        mass_exact = mass_exact and (r.emass == K.volume)
    ok = bad == 0 and mass_exact
    return ok, (f"{1000 - bad}/1000 normalizations exact; "
                f"rescale mass identity exact over 5 triadic scales: {mass_exact}")


def check_korn_scaling() -> tuple[bool, str]:
    """Korn ratios of the staircase stay within a factor 1.5 across the
    triadic window schedule."""
    u = StructuredBD.staircase(depth=8, total_mass=1, support=(0, 1))
    K = Box.cube((0.0, 0.0), 1.0)
    rows = korn_ratio(u, K, (1.0, 1.0 / 3.0, 1.0 / 9.0), quad_cells=243)
    ratios = [r["ratio"] for r in rows]
    finite = all(np.isfinite(r) and r > 0 for r in ratios)
    spread = max(ratios) / min(ratios)
    ok = finite and spread <= 1.5
    return ok, f"ratios {['%.4f' % r for r in ratios]}, max/min {spread:.3f} (tol 1.5)"


def check_representation() -> tuple[bool, str]:
    """Mollified energies approach the assembled representation: 3 percent
    for the pure jump by level 4, exact for affine fields."""
    f0 = abs_sym(mu=1e-6)
    box = Box.cube((0.0, 0.0), 1.0)
    uj = StructuredBD.two_constant((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
    out = relaxation_upper_check(uj, f0, levels=(1, 2, 3, 4), box=box)
    rep = out["representation"].total
    lvl4 = dict(out["levels"])[4]
    rel = abs(lvl4 - rep) / rep
    ua = StructuredBD.affine([[0.3, 0.1], [0.1, -0.5]], (0.2, 0.0))
    out_a = relaxation_upper_check(ua, f0, levels=(1, 2, 3, 4), box=box)
    rep_a = out_a["representation"].total
    worst_a = max(abs(v - rep_a) for _, v in out_a["levels"])
    ok = rel <= 0.03 and worst_a <= 1e-9 * max(1.0, rep_a)
    return ok, (f"jump: level-4 {lvl4:.6f} vs representation {rep:.6f} "
                f"(rel {rel:.3%}, tol 3%); affine: max gap {worst_a:.2e}")


CHECKS = [
    (1, "rigid invariance", check_rigid_invariance),
    (2, "M_K cross-formula", check_mk_cross_formula),
    (3, "convex cell exactness", check_convex_cell_exactness),
    (4, "Mueller suite", check_mueller_suite),
    (5, "jump/recession consistency", check_jump_recession),
    (6, "homogenization cross-formula", check_homogenization),
    (7, "folding identity", check_folding),
    (8, "blow-up algebra", check_blowup_algebra),
    (9, "Korn scaling diagnostic", check_korn_scaling),
    (10, "representation vs relaxation", check_representation),
]


def run_all() -> bool:
    """Run every check, print one ACCEPTANCE line each and write its wall
    time to stderr; True when all pass."""
    all_ok = True
    for num, name, fn in CHECKS:
        start = time.perf_counter()
        ok, detail = fn()
        all_ok = all_ok and ok
        print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
        print(f"selftest {num:2d} {name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return all_ok
