"""Discrete Dirichlet cell problems on the square: a conforming Q1 solver
for linear-growth bulk energies and a discontinuous per-element variant
with facet jump energies.

Fields are nodal, elements are multilinear quadrilaterals on a uniform
grid with 2x2 Gauss quadrature, so affine competitors are reproduced
exactly. An optional orthonormal frame rotates the grid, which is how the
oriented cubes for jump-type boundary data are realized.

Reported cell values use the raw (unsmoothed) integrand evaluated at the
minimizer of the smoothed energy; the smoothing bias of the objective is
O(mu) and is reported in the diagnostics.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Box, gauss_rule
from .minimize import SolverError, minimize_lbfgs
from .tensor import frob, sym
from .util import pmap

_SQRT3 = math.sqrt(3.0)


class BadSpec(ValueError):
    pass


# ---------------------------------------------------------------------------
# integrands


@dataclass(frozen=True)
class Integrand:
    """Bulk energy density f(x, v, A) with smoothed derivatives.

    value/grad/raw take batched arguments: X (m,2), V (m,2), A (m,2,2).
    `raw` is the unsmoothed density used for reporting and for the flag
    self-checks; `grad` returns (df/dv, df/dA) of the smoothed density.
    """

    name: str
    dim: int
    value: object
    grad: object
    raw: object
    convex: bool = False
    one_homogeneous: bool = False
    x_periodic: bool = False
    v_independent: bool = True
    sym_only: bool = True
    mu: float = 0.0
    recession_exact: "Integrand | None" = None

    def check_flags(self, rng=None, samples: int = 16, tol: float = 1e-9) -> None:
        """Sampled validation of the declared structure flags."""
        rng = rng or np.random.default_rng(0)
        X = rng.normal(size=(samples, 2))
        V = rng.normal(size=(samples, 2))
        A = rng.normal(size=(samples, 2, 2))
        base = self.raw(X, V, A)
        if not np.all(np.isfinite(base)) or np.any(base < -tol):
            raise ValueError(f"integrand {self.name}: raw values must be finite and >= 0")
        if self.sym_only:
            if np.max(np.abs(self.raw(X, V, sym(A)) - base)) > tol * (1 + np.max(np.abs(base))):
                raise ValueError(f"integrand {self.name}: symOnly flag violated")
        if self.one_homogeneous:
            for t in (2.0, 10.0):
                if np.max(np.abs(self.raw(X, V, t * A) - t * base)) > tol * t * (1 + np.max(np.abs(base))):
                    raise ValueError(f"integrand {self.name}: oneHomogeneous flag violated")


def _smooth_norm(q, mu):
    """sqrt(q + mu^2) - mu for q = |M|^2 >= 0."""
    return np.sqrt(q + mu * mu) - mu


def abs_sym(mu: float = 1e-6) -> Integrand:
    """f(A) = |sym A| (Frobenius), smoothed by mu for minimization."""

    def raw(X, V, A):
        return frob(sym(A))

    def value(X, V, A):
        S = sym(A)
        return _smooth_norm((S * S).sum(axis=(-2, -1)), mu)

    def grad(X, V, A):
        S = sym(A)
        root = np.sqrt((S * S).sum(axis=(-2, -1)) + mu * mu)
        dA = S / root[:, None, None]
        return np.zeros_like(V), dA

    f = Integrand(name="abs-sym", dim=2, value=value, grad=grad, raw=raw,
                  convex=True, one_homogeneous=True, sym_only=True, mu=mu)
    return replace(f, recession_exact=f)


def reparametrize(f0: Integrand, c: float = 1.0, v0=None, eps_v: float = 1.0, A0=None,
                  s_A: float = 1.0) -> Integrand:
    """c f0(x, v0 + eps_v w, A0 + A / s_A) as an integrand in (x, w, A), with
    the chained gradients (c eps_v df0/dv, (c / s_A) df0/dA).

    v0=None leaves v as it is (eps_v is then unused) and A0=None adds no
    offset. Flags are those of f0; the exact recession, where f0 has one,
    is (c / s_A) f0^inf(x, v0 + eps_v w, A).
    """
    if c <= 0 or s_A <= 0:
        raise ValueError("scale must be positive")
    if v0 is not None:
        v0 = np.asarray(v0, dtype=float).reshape(1, 2)
    if A0 is not None:
        A0 = np.asarray(A0, dtype=float).reshape(1, 2, 2)
    c_v, c_A = c * eps_v, c / s_A

    def args(V, A):
        if v0 is not None:
            V = v0 + eps_v * V
        if s_A != 1.0:
            A = np.asarray(A) / s_A
        if A0 is not None:
            A = A0 + A
        return V, A

    def value(X, V, A):
        return c * f0.value(X, *args(V, A))

    def grad(X, V, A):
        dV, dA = f0.grad(X, *args(V, A))
        return c_v * dV, c_A * dA

    def raw(X, V, A):
        return c * f0.raw(X, *args(V, A))

    rec = f0.recession_exact
    if rec is not None:
        rec = reparametrize(rec, c=c_A, v0=v0, eps_v=eps_v)
    return replace(f0, value=value, grad=grad, raw=raw, recession_exact=rec)


def scaled(f0: Integrand, c: float, name: str | None = None) -> Integrand:
    """c * f0 for c > 0 (flags unchanged)."""
    return replace(reparametrize(f0, c=c), name=name or f"{f0.name}*{c:g}")


def sqrt1plus_sym() -> Integrand:
    """f(A) = sqrt(1 + |sym A|^2); already smooth, exact recession |sym A|."""

    def value(X, V, A):
        S = sym(A)
        return np.sqrt(1.0 + (S * S).sum(axis=(-2, -1)))

    def grad(X, V, A):
        S = sym(A)
        root = np.sqrt(1.0 + (S * S).sum(axis=(-2, -1)))
        return np.zeros_like(V), S / root[:, None, None]

    return Integrand(name="sqrt1plus-sym", dim=2, value=value, grad=grad, raw=value,
                     convex=True, sym_only=True, recession_exact=abs_sym(mu=1e-6))


# surface integrands ---------------------------------------------------------


@dataclass(frozen=True)
class SurfaceIntegrand:
    """Facet energy g(x, v-, v+, nu) with derivatives in the traces."""

    name: str
    value: object  # (X, VM, VP, NU) -> (m,)
    grad: object  # -> (dVM, dVP)


def g_odot(mu: float = 1e-6) -> SurfaceIntegrand:
    """g = |(v+ - v-) (.) nu| for unit nu, smoothed by mu."""

    def _q(D, NU):
        return 0.5 * ((D * D).sum(axis=-1) + ((D * NU).sum(axis=-1)) ** 2)

    def value(X, VM, VP, NU):
        return _smooth_norm(_q(VP - VM, NU), mu)

    def grad(X, VM, VP, NU):
        D = VP - VM
        dn = (D * NU).sum(axis=-1)
        root = np.sqrt(_q(D, NU) + mu * mu)
        dD = 0.5 * (D + dn[:, None] * NU) / root[:, None]
        return -dD, dD

    return SurfaceIntegrand(name="odot-norm", value=value, grad=grad)


def g_penalty(c: float = 1e4) -> SurfaceIntegrand:
    """Quadratic jump penalty c |v+ - v-|^2 (suppresses facet jumps)."""

    def value(X, VM, VP, NU):
        D = VP - VM
        return c * (D * D).sum(axis=-1)

    def grad(X, VM, VP, NU):
        D = VP - VM
        return -2.0 * c * D, 2.0 * c * D

    return SurfaceIntegrand(name=f"penalty({c:g})", value=value, grad=grad)


# ---------------------------------------------------------------------------
# boundary data


@dataclass(frozen=True)
class AffineData:
    A: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float).reshape(2, 2))
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float).reshape(2))

    def value(self, X):
        return np.atleast_2d(X) @ self.A.T + self.v0

    @property
    def scale(self) -> float:
        return max(float(frob(self.A)), 1e-12)


@dataclass(frozen=True)
class JumpData:
    """v+ where x . nu >= 0, v- otherwise (two-constant datum)."""

    v_minus: np.ndarray
    v_plus: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v_minus", np.asarray(self.v_minus, dtype=float).reshape(2))
        object.__setattr__(self, "v_plus", np.asarray(self.v_plus, dtype=float).reshape(2))
        nu = np.asarray(self.nu, dtype=float).reshape(2)
        if abs(float(nu @ nu) - 1.0) > 1e-12:
            raise BadSpec("jump normal must be unit")
        object.__setattr__(self, "nu", nu)

    def value(self, X):
        X = np.atleast_2d(X)
        side = (X @ self.nu >= 0.0)[:, None]
        return np.where(side, self.v_plus[None, :], self.v_minus[None, :])

    @property
    def scale(self) -> float:
        return max(float(np.linalg.norm(self.v_plus - self.v_minus)), 1e-12)


@dataclass(frozen=True)
class SolverParams:
    max_iters: int = 2000
    grad_tol: float | None = None
    multistarts: int = 1
    seed: int = 0
    jobs: int | None = 1  # parallel multistart workers; None = host parallelism


@dataclass(frozen=True)
class CellSpec:
    """Dirichlet cell problem: box, boundary datum, mesh, solver knobs.

    `frame` is an optional orthonormal matrix rotating the grid (used for
    cubes with one face orthogonal to a jump normal); `freeze_x` evaluates
    the integrand at a fixed base point instead of the physical position.
    """

    boundary: object
    mesh: int = 16
    box: Box = field(default_factory=lambda: Box.cube((0.0, 0.0), 1.0))
    solver: SolverParams = field(default_factory=SolverParams)
    frame: np.ndarray | None = None
    freeze_x: np.ndarray | None = None

    def __post_init__(self):
        if self.mesh < 4:
            raise BadSpec("meshPerAxis must be >= 4")
        if self.frame is not None:
            R = np.asarray(self.frame, dtype=float).reshape(2, 2)
            if frob(R @ R.T - np.eye(2)) > 1e-10:
                raise BadSpec("frame must be orthonormal")
            object.__setattr__(self, "frame", R)
        if self.freeze_x is not None:
            object.__setattr__(self, "freeze_x", np.asarray(self.freeze_x, dtype=float).reshape(2))


def frame_for_normal(nu) -> np.ndarray:
    """Orthonormal frame whose first column is nu."""
    nu = np.asarray(nu, dtype=float).reshape(2)
    nu = nu / np.linalg.norm(nu)
    perp = np.array([-nu[1], nu[0]])
    return np.stack([nu, perp], axis=1)


# ---------------------------------------------------------------------------
# grid and assembly


class Grid:
    """Uniform Q1 grid over `box`, optionally rotated by an orthonormal frame.

    Physical coordinates are x = R x_ref; all FE bookkeeping happens in
    reference coordinates.
    """

    def __init__(self, box: Box, mesh: int, frame: np.ndarray | None = None):
        if mesh < 1:
            raise BadSpec("mesh must be >= 1")
        self.box = box
        self.mesh = int(mesh)
        self.R = np.eye(2) if frame is None else np.asarray(frame, dtype=float)
        m = self.mesh
        lo = np.asarray(box.lo)
        self.h = box.extent / m
        ix = np.arange(m + 1)
        Xr, Yr = np.meshgrid(lo[0] + ix * self.h[0], lo[1] + ix * self.h[1], indexing="ij")
        self.nodes_ref = np.stack([Xr.ravel(), Yr.ravel()], axis=1)
        self.nodes = self.nodes_ref @ self.R.T

        def nid(i, j):
            return i * (m + 1) + j

        ex, ey = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        ex, ey = ex.ravel(), ey.ravel()
        self.conn = np.stack([nid(ex, ey), nid(ex + 1, ey), nid(ex, ey + 1), nid(ex + 1, ey + 1)],
                             axis=1)

        g, _ = gauss_rule(2)
        gp = 0.5 + 0.5 * g / 1.0  # 2-pt Gauss on [0,1]: 0.5 +- 1/(2 sqrt 3)
        gx, gy = np.meshgrid(gp, gp, indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()  # (4,)
        # shape values and reference gradients at the quad points
        self.Nval = np.stack([(1 - gx) * (1 - gy), gx * (1 - gy), (1 - gx) * gy, gx * gy], axis=1)
        dN_dxi = np.stack([-(1 - gy), (1 - gy), -gy, gy], axis=1) / self.h[0]
        dN_deta = np.stack([-(1 - gx), -gx, (1 - gx), gx], axis=1) / self.h[1]
        dn_axis = np.stack([dN_dxi, dN_deta], axis=2)  # (Q, a, 2) axis-aligned
        self.dN = np.einsum("ij,qaj->qai", np.linalg.inv(self.R).T, dn_axis)
        self.wq = float(self.h[0] * self.h[1]) * 0.25  # per quad point (|det R| = 1)

        elo = np.stack([lo[0] + ex * self.h[0], lo[1] + ey * self.h[1]], axis=1)
        qp_ref = elo[:, None, :] + np.stack([gx, gy], axis=1)[None, :, :] * self.h[None, None, :]
        self.qp = qp_ref @ self.R.T  # (E, Q, 2) physical quad points

        on_bd = np.zeros(len(self.nodes_ref), dtype=bool)
        r = self.nodes_ref
        tol = 1e-12 * max(1.0, float(np.max(np.abs(r))))
        for k in range(2):
            on_bd |= np.abs(r[:, k] - box.lo[k]) <= tol
            on_bd |= np.abs(r[:, k] - box.hi[k]) <= tol
        self.boundary_mask = on_bd

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class GridDisplacement:
    """Nodal vector field on a Grid (conforming Q1)."""

    grid: Grid
    values: np.ndarray  # (N, 2)
    boundary_mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.n_nodes, 2)
        if self.boundary_mask is None:
            self.boundary_mask = self.grid.boundary_mask.copy()

    def _locate(self, X):
        """Reference cell indices and local coordinates of physical points."""
        g = self.grid
        Xr = np.atleast_2d(np.asarray(X, dtype=float)) @ np.linalg.inv(g.R).T
        loc = (Xr - np.asarray(g.box.lo)[None, :]) / g.h[None, :]
        cell = np.clip(np.floor(loc).astype(int), 0, g.mesh - 1)
        t = loc - cell
        return cell, t

    def value(self, X) -> np.ndarray:
        cell, t = self._locate(X)
        g = self.grid
        i, j = cell[:, 0], cell[:, 1]
        n00 = self.values[i * (g.mesh + 1) + j]
        n10 = self.values[(i + 1) * (g.mesh + 1) + j]
        n01 = self.values[i * (g.mesh + 1) + j + 1]
        n11 = self.values[(i + 1) * (g.mesh + 1) + j + 1]
        tx, ty = t[:, 0][:, None], t[:, 1][:, None]
        return (n00 * (1 - tx) * (1 - ty) + n10 * tx * (1 - ty)
                + n01 * (1 - tx) * ty + n11 * tx * ty)


def _q1_quadrature(grid: Grid, U: np.ndarray, conn: np.ndarray, f: Integrand, freeze_x=None,
                   raw: bool = False, exact_sum: bool = False):
    """The Q1 element kernel: quadrature energy sum_q w f(x_q, v_q, grad_q)
    of nodal values U (n, 2) on the elements `conn` (E, 4) of `grid`.

    Returns (energy, nodal gradient (n, 2)) for the smoothed density, or
    (energy, None) for the raw one (raw=True), summed exactly with
    math.fsum when exact_sum is set. The connectivity is the grid's own,
    a periodic wrap-around or the identity for per-element fields.

    Arrays keep the element axis last, so every numpy operation runs over
    it. The sums over local nodes, over quadrature points and into the
    nodes run in a fixed order (a = 0..3, q = 0..3, elements in `conn`
    order) that the tests pin bit for bit: the solver trajectories depend
    on the last bits of the gradient.
    """
    Nval, dN = grid.Nval, grid.dN
    E, Q = len(conn), len(Nval)
    Ua = U.T[:, conn.T]  # (k, a, E)
    V = Nval[:, 0, None, None] * Ua[:, 0]  # (Q, k, E)
    G = dN[:, 0, None, :, None] * Ua[None, :, 0, None, :]  # (Q, k, j, E)
    for a in range(1, 4):
        V += Nval[:, a, None, None] * Ua[:, a]
        G += dN[:, a, None, :, None] * Ua[None, :, a, None, :]
    X = grid.qp
    if freeze_x is not None:
        X = np.broadcast_to(np.asarray(freeze_x, dtype=float), X.shape)
    # the integrand takes points in (element, quadrature point) order
    Xf = X.reshape(-1, 2)
    Vf = np.ascontiguousarray(V.transpose(2, 0, 1)).reshape(-1, 2)
    Gf = np.ascontiguousarray(G.transpose(3, 0, 1, 2)).reshape(-1, 2, 2)
    del V, G  # freed before the integrand allocates its temporaries
    if raw:
        vals = f.raw(Xf, Vf, Gf)
        if exact_sum:
            return math.fsum(float(grid.wq) * v for v in vals.tolist()), None
        return grid.wq * float(np.sum(vals)), None
    energy = grid.wq * float(np.sum(f.value(Xf, Vf, Gf)))
    dV, dA = f.grad(Xf, Vf, Gf)
    dV = np.ascontiguousarray(dV.reshape(E, Q * 2).T).reshape(Q, 2, E)  # (Q, k, E)
    dA = np.ascontiguousarray(dA.reshape(E, Q, 2, 2).transpose(1, 3, 2, 0))  # (Q, j, k, E)
    # back-contraction (a, k, E): the v part and the strain part, each
    # summed over q, then added
    S1 = Nval[0, :, None, None] * dV[0]
    S2 = dN[0, :, 0, None, None] * dA[0, 0] + dN[0, :, 1, None, None] * dA[0, 1]
    for q in range(1, Q):
        S1 += Nval[q, :, None, None] * dV[q]
        S2 += dN[q, :, 0, None, None] * dA[q, 0] + dN[q, :, 1, None, None] * dA[q, 1]
    S1 += S2
    S1 *= grid.wq
    gradU = np.empty((len(U), 2))
    for k in range(2):
        gradU[:, k] = np.bincount(conn.ravel(), weights=S1[:, k].T.ravel(), minlength=len(U))
    return energy, gradU


def energy_and_grad(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None):
    """Quadrature energy sum_q w f(x_q, v_q, grad_q) and its nodal gradient."""
    return _q1_quadrature(grid, U, grid.conn, f, freeze_x)


def raw_energy(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None,
               exact_sum: bool = False) -> float:
    """Quadrature energy with the unsmoothed integrand."""
    return _q1_quadrature(grid, U, grid.conn, f, freeze_x, raw=True, exact_sum=exact_sum)[0]


def prolong(w: GridDisplacement, factor: int = 2) -> GridDisplacement:
    """Exact Q1 embedding of w into the factor-refined grid."""
    g = w.grid
    fine = Grid(g.box, g.mesh * factor, frame=None if np.allclose(g.R, np.eye(2)) else g.R)
    vals = w.value(fine.nodes)
    return GridDisplacement(grid=fine, values=vals)


# ---------------------------------------------------------------------------
# conforming (LD) solver


@dataclass
class LDSolution:
    value: float  # raw energy of the minimizer
    value_smoothed: float
    argmin: GridDisplacement
    diagnostics: dict


def _interpolate_boundary(grid: Grid, data) -> np.ndarray:
    return np.asarray(data.value(grid.nodes), dtype=float)


def _multistart(make_fg, x0: np.ndarray, spec: CellSpec, extra_starts=()):
    """Minimize from x0, from multistarts - 1 seeded Gaussian perturbations
    of it (sized by the datum's scale) and from `extra_starts`, on `jobs`
    workers, with the solver parameters of `spec`.

    `make_fg` gives each start its own objective. The reduction runs in
    start order, so the lowest smoothed energy wins with ties going to the
    lowest seed, whatever the worker count. Returns the winning L-BFGS
    result and the diagnostics shared by the cell solvers.
    """
    sp, scale = spec.solver, getattr(spec.boundary, "scale", 1.0)
    starts = []
    for k in range(max(1, sp.multistarts)):
        xk = x0.copy()
        if k > 0:
            rng = np.random.default_rng(sp.seed + k)
            xk += 0.5 * scale * rng.normal(size=xk.shape)
        starts.append((xk, sp.seed + k))
    for j, xj in enumerate(extra_starts):
        starts.append((xj, sp.seed + sp.multistarts + j))

    def run_one(start):
        return minimize_lbfgs(make_fg(), start[0], max_iters=sp.max_iters, grad_tol=sp.grad_tol)

    results = pmap(run_one, starts, jobs=sp.jobs)
    k_best = min(range(len(results)), key=lambda k: results[k]["f"])
    res = results[k_best]
    diag = {"iters": res["iters"], "converged": res["converged"],
            "grad_norm": res["grad_norm"], "grad_tol": res["grad_tol"],
            "seed": starts[k_best][1], "start_values": [r["f"] for r in results],
            "max_iters_hit": res["iters"] >= sp.max_iters}
    return res, diag


def solve_ld(spec: CellSpec, f: Integrand, extra_starts=()) -> LDSolution:
    """Minimize the bulk quadrature energy over Q1 fields matching the
    boundary datum at the boundary nodes.

    Multistarts perturb the interior of the datum interpolant with seeded
    Gaussian noise (the first start is the clean interpolant); the best
    smoothed energy wins, ties broken by the lowest seed. `extra_starts`
    appends caller-provided nodal fields (e.g. prolonged coarse minimizers)
    to the start list.
    """
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    datum = _interpolate_boundary(grid, spec.boundary)
    mask = grid.boundary_mask
    free = ~mask
    if not free.any():
        raise BadSpec("bad spec")

    def make_fg():
        U = datum.copy()

        def fg(xvec):
            U[free] = xvec.reshape(-1, 2)
            e, gradU = energy_and_grad(grid, U, f, freeze_x=spec.freeze_x)
            if not np.isfinite(e):
                raise SolverError("integrand overflow")
            return e, gradU[free].ravel()

        return fg

    extra = [np.asarray(Ux, dtype=float).reshape(grid.n_nodes, 2)[free].ravel()
             for Ux in extra_starts]
    res, diag = _multistart(make_fg, datum[free].ravel(), spec, extra)
    Ubest = datum.copy()
    Ubest[free] = res["x"].reshape(-1, 2)
    argmin = GridDisplacement(grid=grid, values=Ubest, boundary_mask=mask)
    value = raw_energy(grid, Ubest, f, freeze_x=spec.freeze_x)
    return LDSolution(value=value, value_smoothed=res["f"], argmin=argmin,
                      diagnostics={**diag, "mu": f.mu})


def boundary_l1_gap(spec: CellSpec, data1, data2, panels_per_edge: int = 256) -> float:
    """Midpoint-rule integral of |data1 - data2| over the box boundary."""
    grid = Grid(spec.box, 1, frame=spec.frame)
    total = 0.0
    for p, q, _ in Box(spec.box.lo, spec.box.hi).faces():
        ts = (np.arange(panels_per_edge) + 0.5) / panels_per_edge
        pts_ref = p[None, :] + ts[:, None] * (q - p)[None, :]
        pts = pts_ref @ grid.R.T
        seg = np.linalg.norm((q - p) @ grid.R.T) / panels_per_edge
        d = data1.value(pts) - data2.value(pts)
        total += float(np.sum(np.sqrt((d * d).sum(axis=1)))) * seg
    return total


def m_continuity_check(data1, data2, spec: CellSpec, f: Integrand) -> dict:
    """Both sides of the boundary-data continuity estimate for the cell value."""
    m1 = solve_ld(replace(spec, boundary=data1), f)
    m2 = solve_ld(replace(spec, boundary=data2), f)
    gap = boundary_l1_gap(spec, data1, data2)
    return {"m1": m1.value, "m2": m2.value, "difference": abs(m1.value - m2.value),
            "boundary_l1_gap": gap}


# ---------------------------------------------------------------------------
# SBD solver: per-element fields with facet jump energies


@dataclass
class SBDField:
    grid: Grid
    values: np.ndarray  # (E, 4, 2) per-element nodal values


@dataclass
class SBDSolution:
    value: float
    value_smoothed: float
    bulk: float
    surface: float
    argmin: SBDField
    diagnostics: dict


def _facet_tables(grid: Grid):
    """Interior and boundary facet index tables.

    Each interior facet row holds (elem_minus, local pair, elem_plus, local
    pair, normal axis); minus is the side with smaller x . nu. Boundary rows
    hold the element, its local pair, the normal axis and the outward sign.
    """
    m = grid.mesh
    eid = np.arange(m * m).reshape(m, m)  # [ex, ey]
    interior = []
    # vertical facets, nu = +e1 (reference): left elem locals (1, 3), right (0, 2)
    for ex in range(m - 1):
        for ey in range(m):
            interior.append((eid[ex, ey], 1, 3, eid[ex + 1, ey], 0, 2, 0))
    # horizontal facets, nu = +e2: lower locals (2, 3), upper (0, 1)
    for ex in range(m):
        for ey in range(m - 1):
            interior.append((eid[ex, ey], 2, 3, eid[ex, ey + 1], 0, 1, 1))
    boundary = []
    for ey in range(m):
        boundary.append((eid[0, ey], 0, 2, 0, -1))  # left, outward -e1
        boundary.append((eid[m - 1, ey], 1, 3, 0, +1))
    for ex in range(m):
        boundary.append((eid[ex, 0], 0, 1, 1, -1))  # bottom, outward -e2
        boundary.append((eid[ex, m - 1], 2, 3, 1, +1))
    return np.array(interior, dtype=int), np.array(boundary, dtype=int)


def solve_sbd(spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand) -> SBDSolution:
    """Minimize bulk quadrature plus midpoint-rule facet surface energy over
    element-wise Q1 fields; the boundary datum enters through the surface
    term on boundary facets."""
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    m = grid.mesh
    E = m * m
    interior, boundary = _facet_tables(grid)
    hx, hy = float(grid.h[0]), float(grid.h[1])
    facet_len = {0: hy, 1: hx}

    # physical facet midpoints and normals
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
    own = np.arange(4 * E).reshape(E, 4)  # each element owns its four nodal values

    def split_fg(vals_flat):
        vals = vals_flat.reshape(E, 4, 2)
        bulk, gradv = _q1_quadrature(grid, vals_flat.reshape(4 * E, 2), own, f1, spec.freeze_x)
        gradv = gradv.reshape(E, 4, 2)
        # interior facets
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
        # boundary facets: inside trace against the datum, outward normal
        vin = 0.5 * (vals[eb, c1] + vals[eb, c2])
        gv = g1.value(xs_b, vin, datum_b, bnu)
        surf += float(np.sum(gv * blen))
        dVM, _ = g1.grad(xs_b, vin, datum_b, bnu)
        dVM = 0.5 * dVM * blen[:, None]
        np.add.at(gradv, (eb, c1), dVM)
        np.add.at(gradv, (eb, c2), dVM)
        return bulk, surf, gradv.ravel()

    def fg(x):
        bulk, surf, grad = split_fg(x)
        e = bulk + surf
        if not np.isfinite(e):
            raise SolverError("integrand overflow")
        return e, grad

    # side-aware datum interpolant: evaluate at nodes nudged toward the
    # element center, so discontinuous data land on facets, not inside cells
    corner_pts = grid.nodes[grid.conn]  # (E, 4, 2)
    centers = corner_pts.mean(axis=1, keepdims=True)
    nudged = corner_pts + 1e-9 * (centers - corner_pts)
    U0 = spec.boundary.value(nudged.reshape(-1, 2)).reshape(E, 4, 2)
    res, diag = _multistart(lambda: fg, U0.ravel(), spec)
    vals = res["x"].reshape(E, 4, 2)
    bulk, surf, _ = split_fg(res["x"])
    raw_bulk = _q1_quadrature(grid, vals.reshape(4 * E, 2), own, f1, spec.freeze_x, raw=True)[0]
    return SBDSolution(value=raw_bulk + surf, value_smoothed=res["f"], bulk=bulk,
                       surface=surf, argmin=SBDField(grid=grid, values=vals),
                       diagnostics={**diag, "mu": f1.mu})
