"""The integrand corpus (bulk and surface densities, their id registry)
and the relaxed density estimators built on the cell solvers: bulk density,
discrete (symmetric) quasiconvex envelope, jump density, recession slopes
and a randomized quasiconvexity deficit test.

All limsup-type quantities are reported as DensityEstimate records: the
sample sequence along the requested schedule, the last value as the
working extrapolation, and the spread of the last two samples. No claim
about the true limit is encoded beyond that.
"""

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .cellsolver import (AffineData, CellSpec, GridDisplacement, Integrand, JumpData,
                         SolverParams, SurfaceIntegrand, frame_for_normal, prolong,
                         reparametrize, solve_ld, solve_sbd)
from .tensor import frob, frob_sq, sym

DEFAULT_EPS_SCHEDULE = (1.0, 0.5, 0.25)
DEFAULT_T_SCHEDULE = (1e2, 1e3, 1e4)
DEFAULT_MESH_SCHEDULE = (8, 16, 32)


@dataclass
class DensityEstimate:
    """(key, value) samples along a refinement schedule plus the working
    extrapolation (= last sample), the spread of the last two and the
    cell diagnostics of each solved sample, keyed like the samples.

    `converged` needs a small spread and, for every solved sample, a winning
    run that stopped on "gtol" or "gap" (a certified duality gap, with the
    sample's lower_bound and gap in its diagnostics), not on "max_iters" or
    "line_search_stall"."""

    samples: list
    extrapolated: float
    spread: float
    converged: bool
    diagnostics: dict

    @classmethod
    def from_samples(cls, rows) -> "DensityEstimate":
        """From (key, value) or, for a solved cell, (key, value, diagnostics)
        rows in schedule order."""
        rows = list(rows)
        if not rows:
            raise ValueError("no samples")
        samples = [(row[0], row[1]) for row in rows]
        vals = [v for _, v in samples]
        extrapolated = vals[-1]
        spread = abs(vals[-1] - vals[-2]) if len(vals) > 1 else 0.0
        est = cls(samples=samples, extrapolated=extrapolated, spread=spread, converged=False,
                  diagnostics={row[0]: row[2] for row in rows if len(row) > 2})
        est.converged = est.runs_converged and spread <= max(1e-8, 0.02 * abs(extrapolated))
        return est

    @property
    def runs_converged(self) -> bool:
        """Every solved sample's winning run stopped on gtol or gap."""
        return all(d.get("reason") in ("gtol", "gap") for d in self.diagnostics.values())


# ---------------------------------------------------------------------------
# integrand corpus


def _smooth_norm(q, mu):
    """sqrt(q + mu^2) - mu for q = |M|^2 >= 0."""
    return np.sqrt(q + mu * mu) - mu


def _read_only(Y) -> bool:
    """Y is an array that neither it nor the array owning its data can write."""
    if not isinstance(Y, np.ndarray) or Y.flags.writeable:
        return False
    return Y.base is None or (isinstance(Y.base, np.ndarray) and not Y.base.flags.writeable)


def _kept(fn):
    """fn of one array, kept for the last read-only array it was formed on
    while that array lives: found by the array's identity, never by its
    address, and dropped when the array goes, so it neither outlives the
    array nor answers for another one at the same address. Any other
    array, or one that can be written, is computed afresh. The Q1 kernel
    hands every pass of a solve the same read-only points, and the
    gradient pass the value pass's strains."""
    last = [None]  # (weak reference to the array, fn(array))

    def forget(ref):
        if last[0] is not None and last[0][0] is ref:
            last[0] = None

    def kept(Y):
        hit = last[0]
        if hit is not None and hit[0]() is Y:
            return hit[1]
        out = fn(Y)
        if _read_only(Y):
            last[0] = (weakref.ref(Y, forget), out)
        return out

    return kept


def _sym_root(c: float):
    """A -> (sym A, sqrt(|sym A|^2 + c)), the terms the value and the
    gradient of a sym-only corpus entry share, kept per strain array."""

    @_kept
    def strain(A):
        S = sym(A)
        return S, np.sqrt(frob_sq(S) + c)

    return strain


def abs_sym(mu: float = 1e-6) -> Integrand:
    """f(A) = |sym A| (Frobenius), smoothed by mu for minimization."""
    strain = _sym_root(mu * mu)

    def raw(X, V, A):
        return frob(sym(A))

    def value(X, V, A):
        return strain(A)[1] - mu

    def grad(X, V, A):
        S, root = strain(A)
        return np.zeros_like(V), S / root[:, None, None]

    f = Integrand(name="abs-sym", value=value, grad=grad, raw=raw,
                  convex=True, one_homogeneous=True, sym_only=True, mu=mu, dual_datum=(1.0, 0.0))
    return replace(f, recession_exact=f)


def scaled(f0: Integrand, c: float) -> Integrand:
    """c * f0 for c > 0, named f0.name*c (flags unchanged)."""
    return replace(reparametrize(f0, c=c), name=f"{f0.name}*{c:g}")


def sqrt1plus_sym() -> Integrand:
    """f(A) = sqrt(1 + |sym A|^2); already smooth, exact recession |sym A|."""
    strain = _sym_root(1.0)

    def value(X, V, A):
        return strain(A)[1]

    def grad(X, V, A):
        S, root = strain(A)
        return np.zeros_like(V), S / root[:, None, None]

    return Integrand(name="sqrt1plus-sym", value=value, grad=grad, raw=value,
                     convex=True, sym_only=True, recession_exact=abs_sym(mu=1e-6),
                     dual_datum=(1.0, 1.0))


def mueller_h(A) -> float:
    """One-homogeneous nonconvex density on 2x2 matrices:
    |A11 - A22| + |A12 + A21| + min(|A11 + A22|, |A12 - A21|)."""
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ValueError("mueller_h expects a 2x2 matrix")
    return float(abs(A[0, 0] - A[1, 1]) + abs(A[0, 1] + A[1, 0])
                 + min(abs(A[0, 0] + A[1, 1]), abs(A[0, 1] - A[1, 0])))


A0 = np.array([[1.0, -1.0], [1.0, 1.0]])
J_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _h_pieces(A):
    A = np.asarray(A, dtype=float)
    l1 = A[..., 0, 0] - A[..., 1, 1]
    l2 = A[..., 0, 1] + A[..., 1, 0]
    l3 = A[..., 0, 0] + A[..., 1, 1]
    l4 = A[..., 0, 1] - A[..., 1, 0]
    return l1, l2, l3, l4


def mueller_h_integrand(mu: float = 1e-6) -> Integrand:
    """mueller_h as a full-gradient Integrand (depends on the skew part),
    with the floor 0."""

    def raw(X, V, A):
        l1, l2, l3, l4 = _h_pieces(A)
        return np.abs(l1) + np.abs(l2) + np.minimum(np.abs(l3), np.abs(l4))

    def _root(t):  # the smoothed |t| is _root(t) - mu, its derivative t / _root(t)
        return np.sqrt(t * t + mu * mu)

    @_kept
    def terms(A):  # the four pieces, their roots, the smoothed |l3| and |l4| and the root of a - b
        pieces = _h_pieces(A)
        roots = [_root(t) for t in pieces]
        a, b = roots[2] - mu, roots[3] - mu
        return pieces, roots, a, b, _root(a - b)

    def value(X, V, A):
        _, (r1, r2, _, _), a, b, root_ab = terms(A)
        return (r1 - mu) + (r2 - mu) + 0.5 * (a + b - (root_ab - mu))

    def grad(X, V, A):
        (l1, l2, l3, l4), (r1, r2, r3, r4), a, b, root_ab = terms(A)
        t = (a - b) / root_ab
        da = 0.5 * (1.0 - t) * (l3 / r3)
        db = 0.5 * (1.0 + t) * (l4 / r4)
        d1, d2 = l1 / r1, l2 / r2
        dA = np.empty_like(np.asarray(A, dtype=float))
        dA[..., 0, 0] = d1 + da
        dA[..., 1, 1] = -d1 + da
        dA[..., 0, 1] = d2 + db
        dA[..., 1, 0] = d2 - db
        return np.zeros_like(np.asarray(V, dtype=float)), dA

    f = Integrand(name="mueller-h", value=value, grad=grad, raw=raw,
                  convex=False, one_homogeneous=True, sym_only=False,
                  v_independent=True, mu=mu, floor=0.0)
    return replace(f, recession_exact=f)


def mueller_f_eps(eps: float, mu: float = 1e-6) -> Integrand:
    """mueller_h plus eps |sym A|: coercive in the strain, still skew-sensitive.

    The quasiconvexification step itself has no closed form; this corpus
    entry exposes the raw density and sq_envelope computes its discrete
    envelope on demand.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    h = mueller_h_integrand(mu=mu)
    a = abs_sym(mu=mu)

    def value(X, V, A):
        return h.value(X, V, A) + eps * a.value(X, V, A)

    def grad(X, V, A):
        dV1, dA1 = h.grad(X, V, A)
        dV2, dA2 = a.grad(X, V, A)
        return dV1 + eps * dV2, dA1 + eps * dA2

    def raw(X, V, A):
        return h.raw(X, V, A) + eps * a.raw(X, V, A)

    f = Integrand(name=f"mueller-f-eps({eps:g})", value=value, grad=grad, raw=raw,
                  convex=False, one_homogeneous=True, sym_only=False, mu=mu)
    return replace(f, recession_exact=f)


def convex_envelope_witness_A0() -> dict:
    """Two-point convex combination showing the convex envelope of
    mueller_h vanishes at A0: both endpoints are zeros of h and average
    to A0."""
    pairs = [(0.5, 2.0 * np.eye(2)), (0.5, 2.0 * J_ROT)]
    mean = sum(w * B for w, B in pairs)
    return {
        "pairs": pairs,
        "h_values": [mueller_h(B) for _, B in pairs],
        "mean": mean,
        "mean_is_A0": bool(np.allclose(mean, A0, atol=0.0)),
        "h_at_mean": mueller_h(mean),
    }


def laminate_a(mu_reg: float = 1e-2) -> Integrand:
    """Unit-periodic laminate (2 + cos 2 pi x1) * sqrt(mu^2 + |sym A|^2).

    The coefficient depends on x alone, so it is formed once per point
    array (_kept); it is also the radius of the dual datum (coef, mu)."""

    strain = _sym_root(mu_reg * mu_reg)

    @_kept
    def coef(X):
        return 2.0 + np.cos(2.0 * np.pi * np.atleast_2d(X)[:, 0])

    def value(X, V, A):
        return coef(X) * strain(A)[1]

    def grad(X, V, A):
        S, root = strain(A)
        return np.zeros_like(np.asarray(V, dtype=float)), (coef(X) / root)[:, None, None] * S

    return Integrand(name=f"laminate-a({mu_reg:g})", value=value, grad=grad, raw=value,
                     convex=True, sym_only=True, dual_datum=(coef, mu_reg))


def truncated_neg_sym_sq() -> Integrand:
    """max(1 - |sym A|^2, 0): bounded, nonconvex, not symmetric quasiconvex."""

    def value(X, V, A):
        S = sym(A)
        return np.maximum(1.0 - frob_sq(S), 0.0)

    def grad(X, V, A):
        S = sym(A)
        active = (frob_sq(S) < 1.0).astype(float)
        return np.zeros_like(np.asarray(V, dtype=float)), -2.0 * active[:, None, None] * S

    return Integrand(name="truncated-neg-sym-sq", value=value, grad=grad, raw=value,
                     convex=False, sym_only=True)


def vmin_abs(mu: float = 1e-6) -> Integrand:
    """(1 + min(|v|, 1)) |sym A|: the v-dependent bulk-density test case."""

    def _vfac(V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        nv = np.sqrt((V * V).sum(axis=-1) + mu * mu) - mu
        return 1.0 + 0.5 * (nv + 1.0 - np.sqrt((nv - 1.0) ** 2 + mu * mu))

    def raw(X, V, A):
        nv = np.sqrt((np.atleast_2d(V) ** 2).sum(axis=-1))
        return (1.0 + np.minimum(nv, 1.0)) * frob(sym(A))

    strain = _sym_root(mu * mu)

    def value(X, V, A):
        return _vfac(V) * (strain(A)[1] - mu)

    def grad(X, V, A):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        S, root = strain(A)
        sn = root - mu
        nv_root = np.sqrt((V * V).sum(axis=-1) + mu * mu)
        nv = nv_root - mu
        dmin = 0.5 * (1.0 - (nv - 1.0) / np.sqrt((nv - 1.0) ** 2 + mu * mu))
        dV = (dmin * sn / nv_root)[:, None] * V
        dA = (_vfac(V) / root)[:, None, None] * S
        return dV, dA

    return Integrand(name="vmin-abs", value=value, grad=grad, raw=raw,
                     convex=False, v_independent=False, sym_only=True, mu=mu)


def g_odot(mu: float = 1e-6) -> SurfaceIntegrand:
    """g = |(v+ - v-) (.) nu| for unit nu, smoothed by mu. Its dual datum is
    the odot-radius 1: the conjugate is 0 at every traction sigma nu with
    sigma symmetric and |sigma| <= 1, as sigma nu . J = sigma : (J (.) nu)."""

    def _q(D, NU):
        return 0.5 * ((D * D).sum(axis=-1) + ((D * NU).sum(axis=-1)) ** 2)

    def raw(X, VM, VP, NU):
        return np.sqrt(_q(VP - VM, NU))

    def value(X, VM, VP, NU):
        return _smooth_norm(_q(VP - VM, NU), mu)

    def grad(X, VM, VP, NU):
        D = VP - VM
        dn = (D * NU).sum(axis=-1)
        root = np.sqrt(_q(D, NU) + mu * mu)
        dD = 0.5 * (D + dn[:, None] * NU) / root[:, None]
        return -dD, dD

    return SurfaceIntegrand(name="odot-norm", value=value, grad=grad, raw=raw,
                            dual_datum=(1.0, 0.0))


def g_penalty(c: float = 1e4) -> SurfaceIntegrand:
    """Quadratic jump penalty c |v+ - v-|^2 (suppresses facet jumps); it
    is its own raw density, and its conjugate is |tau|^2 / 4c."""

    def value(X, VM, VP, NU):
        D = VP - VM
        return c * (D * D).sum(axis=-1)

    def grad(X, VM, VP, NU):
        D = VP - VM
        return -2.0 * c * D, 2.0 * c * D

    return SurfaceIntegrand(name=f"penalty({c:g})", value=value, grad=grad, raw=value,
                            dual_datum=(0.0, c))


_REGISTRY = {
    "abs-sym": lambda arg: abs_sym() if arg is None else abs_sym(mu=float(arg)),
    "sqrt1plus-sym": lambda arg: sqrt1plus_sym(),
    "mueller-h": lambda arg: mueller_h_integrand(),
    "mueller-f-eps": lambda arg: mueller_f_eps(float(arg if arg is not None else 0.1)),
    "laminate-a": lambda arg: laminate_a() if arg is None else laminate_a(mu_reg=float(arg)),
    "truncated-neg-sym-sq": lambda arg: truncated_neg_sym_sq(),
    "vmin-abs": lambda arg: vmin_abs(),
}


_SURFACE_REGISTRY = {
    "odot": lambda arg: g_odot() if arg is None else g_odot(mu=float(arg)),
    "penalty": lambda arg: g_penalty() if arg is None else g_penalty(c=float(arg)),
}
_SURFACE_REGISTRY["odot-norm"] = _SURFACE_REGISTRY["odot"]  # the integrand's own name


def _lookup(registry: dict, spec: str, what: str):
    """Build the entry of an id 'name', 'name(arg)' or 'name:arg'."""
    arg = None
    if "(" in spec and spec.endswith(")"):
        spec, arg = spec[:-1].split("(", 1)
    elif ":" in spec:
        spec, arg = spec.split(":", 1)
    if spec not in registry:
        raise KeyError(f"unknown {what} id {spec!r}; known: {sorted(registry)}")
    return registry[spec](arg)


def get_integrand(spec: str) -> Integrand:
    """Look up a corpus integrand by id, e.g. 'abs-sym' or 'mueller-f-eps(0.1)'.

    A '*C' suffix scales the density by C (used for penalty-style bulk
    terms in the SBD experiments).
    """
    spec, star, factor = spec.strip().partition("*")
    f = _lookup(_REGISTRY, spec, "integrand")
    return scaled(f, float(factor)) if star else f


def get_surface_integrand(spec: str) -> SurfaceIntegrand:
    """Look up a surface integrand by id, e.g. 'odot' or 'penalty:100'."""
    return _lookup(_SURFACE_REGISTRY, spec.strip(), "surface integrand")


# ---------------------------------------------------------------------------
# estimators


def _require_symmetric(A) -> np.ndarray:
    A = np.asarray(A, dtype=float).reshape(2, 2)
    if frob(A - A.T) > 1e-12:
        raise ValueError("matrix argument must be symmetric")
    return A


def _sample(key, sol) -> tuple:
    """The (key, value, diagnostics) row of a solved cell."""
    return key, sol.value, sol.diagnostics


def bulk_density(f0: Integrand, x0, v, A, eps_schedule=DEFAULT_EPS_SCHEDULE,
                 mesh: int = 16, solver: SolverParams | None = None) -> DensityEstimate:
    """Unit-cube Dirichlet values of the frozen-base-point bulk formula:
    for each eps, minimize f0(x0, v + eps w, e(w)) over w matching A y on
    the boundary."""
    spec = CellSpec(boundary=AffineData(_require_symmetric(A), np.zeros(2)), mesh=mesh,
                    solver=solver or SolverParams(),
                    freeze_x=np.asarray(x0, dtype=float).reshape(2))
    return DensityEstimate.from_samples(
        _sample(eps, solve_ld(spec, reparametrize(f0, v0=v, eps_v=eps)))
        for eps in map(float, eps_schedule))


def sq_envelope(f0: Integrand, A, mesh_schedule=DEFAULT_MESH_SCHEDULE, x0=(0.0, 0.0),
                solver: SolverParams | None = None) -> DensityEstimate:
    """Discrete quasiconvex-envelope values at A across a mesh schedule.

    Competitors are constrained through the full gradient; integrands with
    the symOnly flag see only its symmetric part, which realizes the
    symmetric quasiconvexification. Dyadic refinements warm-start from the
    prolonged coarse minimizer, so the reported sequence is non-increasing
    up to line-search noise.
    """
    if not f0.v_independent:
        raise ValueError("sq_envelope requires a v-independent integrand")
    A = np.asarray(A, dtype=float).reshape(2, 2)
    solver = solver or SolverParams(multistarts=8)
    rows = []
    prev: GridDisplacement | None = None
    for mesh in mesh_schedule:
        spec = CellSpec(boundary=AffineData(A, np.zeros(2)), mesh=int(mesh),
                        solver=solver, freeze_x=np.asarray(x0, dtype=float))
        extra = []
        if prev is not None and mesh % prev.grid.mesh == 0:
            factor = mesh // prev.grid.mesh
            extra.append(prev.values if factor == 1 else prolong(prev, factor).values)
        sol = solve_ld(spec, f0, extra_starts=extra)
        rows.append(_sample(int(mesh), sol))
        prev = sol.argmin
    return DensityEstimate.from_samples(rows)


def jump_density(f0, x0, v_minus, v_plus, nu, eps_schedule=DEFAULT_EPS_SCHEDULE,
                 mesh: int = 32, solver: SolverParams | None = None,
                 variant: str = "eps") -> DensityEstimate:
    """Jump cell values on the oriented unit cube.

    f0 may be a bulk Integrand (conforming solver, the eps-scaled problem
    eps f0(x0, w, e(w)/eps)) or a pair (f1, g1) for the bulk-plus-surface
    solver. variant='bis' substitutes the exact recession density and
    solves the eps-free problem once.
    """
    nu = np.asarray(nu, dtype=float).reshape(2)
    v_minus = np.asarray(v_minus, dtype=float).reshape(2)
    v_plus = np.asarray(v_plus, dtype=float).reshape(2)
    if np.allclose(v_minus, v_plus):
        raise ValueError("v_plus must differ from v_minus")
    spec = CellSpec(boundary=JumpData(v_minus=v_minus, v_plus=v_plus, nu=nu), mesh=mesh,
                    solver=solver or SolverParams(), frame=frame_for_normal(nu),
                    freeze_x=np.asarray(x0, dtype=float).reshape(2))
    sbd_pair = isinstance(f0, tuple)
    if variant == "bis":
        if sbd_pair:
            raise ValueError("bis variant applies to the bulk-only form")
        if f0.recession_exact is None:
            raise ValueError(f"integrand {f0.name} exposes no exact recession")
        return DensityEstimate.from_samples([_sample(0.0, solve_ld(spec, f0.recession_exact))])

    def solve(eps):
        if sbd_pair:
            f1, g1 = f0
            # eps f1(x0, eps w, e(w)/eps): the v-offset, then the jump rescaling
            f_eps = reparametrize(reparametrize(f1, v0=np.zeros(2), eps_v=eps), c=eps, s_A=eps)
            return solve_sbd(spec, f_eps, g1)
        return solve_ld(spec, reparametrize(f0, c=eps, s_A=eps))

    return DensityEstimate.from_samples(_sample(eps, solve(eps))
                                        for eps in map(float, eps_schedule))


def recession(f_eval, x0, v, A, t_schedule=DEFAULT_T_SCHEDULE) -> DensityEstimate:
    """Secant slopes (f(x0, v, t A) - f(x0, v, 0)) / t along increasing t."""
    ts = [float(t) for t in t_schedule]
    if any(t < 1.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t schedule must be increasing and >= 1")
    A = np.asarray(A, dtype=float).reshape(2, 2)
    f0 = float(f_eval(x0, v, np.zeros((2, 2))))
    samples = []
    for t in ts:
        ft = float(f_eval(x0, v, t * A))
        if not np.isfinite(ft):
            raise ValueError(f"non-finite value at t={t}")
        samples.append((t, (ft - f0) / t))
    return DensityEstimate.from_samples(samples)


def integrand_evaluator(f: Integrand):
    """Adapt a corpus Integrand to the pointwise (x0, v, A) -> float shape."""

    def ev(x0, v, A):
        X = np.asarray(x0, dtype=float).reshape(1, 2)
        V = np.asarray(v, dtype=float).reshape(1, 2)
        Am = np.asarray(A, dtype=float).reshape(1, 2, 2)
        return float(f.raw(X, V, Am)[0])

    return ev


def check_symmetric_quasiconvexity(f: Integrand, x0, v, A, trials: int = 100) -> dict:
    """Search for a quasiconvexity violation with random unit-periodic
    trigonometric test fields: seeded Gaussian amplitudes on the Fourier
    modes |k_i| <= 2, sampled at the 64 x 64 cell midpoints of the period.

    Returns the worst (most negative) deficit mean of f(x0, v, A + grad
    phi) minus f(x0, v, A) over the period; a nonnegative worst deficit
    certifies only that no violation was found.
    """
    rng = np.random.default_rng(0)
    x0 = np.asarray(x0, dtype=float).reshape(2)
    v = np.asarray(v, dtype=float).reshape(2)
    A = np.asarray(A, dtype=float).reshape(2, 2)
    ys = (np.arange(64) + 0.5) / 64
    Y1, Y2 = np.meshgrid(ys, ys, indexing="ij")
    Y = np.stack([Y1.ravel(), Y2.ravel()], axis=1)
    modes = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3) if (k1, k2) != (0, 0)]
    X = np.broadcast_to(x0, Y.shape)
    V = np.broadcast_to(v, Y.shape)
    base = float(f.raw(x0.reshape(1, 2), v.reshape(1, 2), A.reshape(1, 2, 2))[0])
    worst = np.inf
    deficits = []
    for _ in range(trials):
        G = np.zeros((len(Y), 2, 2))
        for k in modes:
            a = rng.normal(scale=0.5, size=2)
            b = rng.normal(scale=0.5, size=2)
            phase = 2.0 * np.pi * (Y @ np.asarray(k, dtype=float))
            cs, sn = np.cos(phase), np.sin(phase)
            kv = 2.0 * np.pi * np.asarray(k, dtype=float)
            grad_scalar = -a[:, None] * sn[None, :] + b[:, None] * cs[None, :]  # (comp, m)
            G += np.einsum("im,j->mij", grad_scalar, kv)
        vals = f.raw(X, V, A[None, :, :] + G)
        deficit = float(vals.mean() - base)
        deficits.append(deficit)
        worst = min(worst, deficit)
    return {"worst_deficit": worst, "deficits": deficits, "trials": trials,
            "violation_found": worst < -1e-8}
