"""Discrete cell problems on a box: a conforming Q1 solver for
linear-growth bulk energies with Dirichlet or periodic conditions and a
discontinuous per-element variant with facet jump energies, all minimized
by one multistart driver over stacked points and all returning a
CellSolution. The minimizer asks for values first and for a gradient only
at accepted points, so the Q1 kernel returns its gradient lazily, and it
skips the field-value path of v-independent integrands.

Fields are nodal, elements are multilinear quadrilaterals on a uniform
grid with 2x2 Gauss quadrature, so affine competitors are reproduced
exactly. An optional orthonormal frame rotates the grid, which is how the
oriented cubes for jump-type boundary data are realized.

Reported values use the raw (unsmoothed) bulk integrand at the minimizer
of the smoothed energy, whose smoothing mu is in the diagnostics. Surface
integrands have no raw form: the SBD surface term is the smoothed one, at
most mu times the total facet length (2m + 2 on the unit cell at mesh m)
below the raw one for density.g_odot, and exact for density.g_penalty.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Box, gauss_rule, segment_midpoints
from .minimize import lbfgs_steps
from .tensor import frob, sym


class BadSpec(ValueError):
    pass


# ---------------------------------------------------------------------------
# integrand types (the corpus lives in density)


@dataclass(frozen=True)
class Integrand:
    """Bulk energy density f(x, v, A) with smoothed derivatives.

    value/grad/raw take batched arguments: X (m,2), V (m,2), A (m,2,2).
    `raw` is the unsmoothed density used for reporting and for the flag
    self-checks; `grad` returns (df/dv, df/dA) of the smoothed density.
    """

    name: str
    value: object
    grad: object
    raw: object
    convex: bool = False
    one_homogeneous: bool = False
    v_independent: bool = True
    sym_only: bool = True
    mu: float = 0.0
    recession_exact: "Integrand | None" = None

    def check_flags(self) -> None:
        """Sampled validation of the declared structure flags at 16 seeded
        Gaussian points, to a relative tolerance of 1e-9. The Q1 kernel
        relies on v_independent: it hands such an integrand a zero V."""
        rng, tol = np.random.default_rng(0), 1e-9
        X, V, A = rng.normal(size=(16, 2)), rng.normal(size=(16, 2)), rng.normal(size=(16, 2, 2))
        base = self.raw(X, V, A)
        if not np.all(np.isfinite(base)) or np.any(base < -tol):
            raise ValueError(f"integrand {self.name}: raw values must be finite and >= 0")
        if self.sym_only:
            if np.max(np.abs(self.raw(X, V, sym(A)) - base)) > tol * (1 + np.max(np.abs(base))):
                raise ValueError(f"integrand {self.name}: symOnly flag violated")
        if self.v_independent:
            V2 = rng.normal(size=(16, 2))
            if np.max(np.abs(self.raw(X, V2, A) - base)) > tol * (1 + np.max(np.abs(base))):
                raise ValueError(f"integrand {self.name}: vIndependent flag violated")
        if self.one_homogeneous:
            for t in (2.0, 10.0):
                if np.max(np.abs(self.raw(X, V, t * A) - t * base)) > tol * t * (1 + np.max(np.abs(base))):
                    raise ValueError(f"integrand {self.name}: oneHomogeneous flag violated")


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


@dataclass(frozen=True)
class SurfaceIntegrand:
    """Facet energy g(x, v-, v+, nu) with derivatives in the traces."""

    name: str
    value: object  # (X, VM, VP, NU) -> (m,)
    grad: object  # -> (dVM, dVP)


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
    multistarts: int = 1
    seed: int = 0
    jobs: int = 1  # no effect: the multistarts run in lockstep on one thread

    def __post_init__(self):
        if self.multistarts < 1:
            raise BadSpec("multistarts must be >= 1")


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

        i, j = np.divmod(np.arange(len(self.nodes_ref)), m + 1)
        self.boundary_mask = (i % m == 0) | (j % m == 0)
        self.periodic_node = (i % m) * m + j % m  # the node's index in a box-periodic field

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class GridDisplacement:
    """Nodal vector field on a Grid (conforming Q1)."""

    grid: Grid
    values: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.n_nodes, 2)

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


def _stack_conn(conn: np.ndarray, n: int, K: int) -> np.ndarray:
    """Connectivity (K, E, 4) of K stacked n-node fields: copy k's is conn + k n."""
    return conn[None] + n * np.arange(K)[:, None, None]


def _q1_quadrature(grid: Grid, U: np.ndarray, conn: np.ndarray, f: Integrand, freeze_x=None,
                   raw: bool = False, exact_sum: bool = False):
    """The Q1 element kernel: quadrature energies sum_q w f(x_q, v_q, grad_q)
    of a stack U (K, n, 2) of nodal fields on the first K copies of the
    stacked connectivity `conn` (_stack_conn) of the grid's own, a periodic
    wrap-around or the identity for per-element fields.

    Returns (energies (K,), grad) for the smoothed density, where grad(rows)
    forms the nodal gradients (len(rows), n, 2) of the listed stack rows
    (ascending) from the strains the value pass built, copying none when
    every row asks; or (energies (K,), None) for the raw density (raw=True),
    summed exactly with math.fsum when exact_sum is set. A v-independent
    integrand gets a zero V: the kernel skips the nodal-value interpolation
    and the v part of the back-contraction, which is +0 and leaves every
    gradient bit unchanged, as the scatter accumulates from +0.0.

    Arrays keep the element axis last, so every numpy operation runs over
    the K E elements. The sums over local nodes, over quadrature points and
    into the nodes run in a fixed order (a = 0..3, q = 0..3, elements in
    `conn` order) and each energy is a row sum, so each copy's result is bit
    for bit that of a stack of one: the solver trajectories depend on the
    gradient's last bits.
    """
    Nval, dN = grid.Nval, grid.dN
    K, n = U.shape[:2]
    flat = conn[:K].reshape(-1, 4)
    Q = len(Nval)
    Ua = U.reshape(K * n, 2).T[:, flat.T]  # (k, a, E)
    V = None if f.v_independent else Nval[:, 0, None, None] * Ua[:, 0]  # (Q, k, E)
    G = dN[:, 0, None, :, None] * Ua[None, :, 0, None, :]  # (Q, k, j, E)
    for a in range(1, 4):
        if V is not None:
            V += Nval[:, a, None, None] * Ua[:, a]
        G += dN[:, a, None, :, None] * Ua[None, :, a, None, :]
    X = grid.qp.reshape(-1, 2)
    if freeze_x is not None:
        X = np.broadcast_to(np.asarray(freeze_x, dtype=float), X.shape)
    # the integrand takes points in (copy, element, quadrature point) order
    Xf = X if K == 1 else np.concatenate([X] * K)
    Vf = (np.zeros((len(Xf), 2)) if V is None
          else np.ascontiguousarray(V.transpose(2, 0, 1)).reshape(-1, 2))
    Gf = np.ascontiguousarray(G.transpose(3, 0, 1, 2)).reshape(-1, 2, 2)
    del V, G  # freed before the integrand allocates its temporaries
    if raw:
        vals = f.raw(Xf, Vf, Gf).reshape(K, -1)
        if exact_sum:
            return np.array([math.fsum(grid.wq * v for v in row.tolist()) for row in vals]), None
        return grid.wq * vals.sum(axis=1), None
    energy = grid.wq * f.value(Xf, Vf, Gf).reshape(K, -1).sum(axis=1)

    def grad(rows):
        R = len(rows)
        sel = slice(None) if R == K else np.asarray(rows)  # a slice copies nothing
        Gr = Gf.reshape(K, -1, 2, 2)[sel].reshape(-1, 2, 2)
        # Xf and the zero Vf repeat per row, so their first R rows serve any R
        Vr = Vf[:len(Gr)] if f.v_independent else Vf.reshape(K, -1, 2)[sel].reshape(-1, 2)
        dV, dA = f.grad(Xf[:len(Gr)], Vr, Gr)
        E = len(dA) // Q
        dA = np.ascontiguousarray(dA.reshape(E, Q, 2, 2).transpose(1, 3, 2, 0))  # (Q, j, k, E)
        # back-contraction (a, k, E): the strain part and, for a
        # v-dependent integrand, the v part, each summed over q, then added
        S = dN[0, :, 0, None, None] * dA[0, 0] + dN[0, :, 1, None, None] * dA[0, 1]
        for q in range(1, Q):
            S += dN[q, :, 0, None, None] * dA[q, 0] + dN[q, :, 1, None, None] * dA[q, 1]
        if not f.v_independent:
            dV = np.ascontiguousarray(dV.reshape(E, Q * 2).T).reshape(Q, 2, E)  # (Q, k, E)
            S1 = Nval[0, :, None, None] * dV[0]
            for q in range(1, Q):
                S1 += Nval[q, :, None, None] * dV[q]
            S1 += S
            S = S1
        S *= grid.wq
        gradU = np.empty((R * n, 2))
        for k in range(2):
            gradU[:, k] = np.bincount(conn[:R].ravel(), weights=S[:, k].T.ravel(),
                                      minlength=R * n)
        return gradU.reshape(R, n, 2)

    return energy, grad


def energy_and_grad(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None, conn=None):
    """Quadrature energy sum_q w f(x_q, v_q, grad_q) of the nodal field U
    (n, 2) and its nodal gradient or, given `conn`, the grid's connectivity
    stacked by _stack_conn, the energies (K,) of a stack U (K, n, 2) and the
    kernel's grad(rows), which forms gradients only for the rows asked."""
    if conn is None:
        e, grad = _q1_quadrature(grid, U[None], grid.conn[None], f, freeze_x)
        return float(e[0]), grad([0])[0]
    return _q1_quadrature(grid, U, conn, f, freeze_x)


def raw_energy(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None,
               exact_sum: bool = False) -> float:
    """Quadrature energy with the unsmoothed integrand."""
    return float(_q1_quadrature(grid, U[None], grid.conn[None], f, freeze_x, raw=True,
                                exact_sum=exact_sum)[0][0])


def prolong(w: GridDisplacement, factor: int = 2) -> GridDisplacement:
    """Exact Q1 embedding of w into the factor-refined grid."""
    g = w.grid
    fine = Grid(g.box, g.mesh * factor, frame=g.R)
    vals = w.value(fine.nodes)
    return GridDisplacement(grid=fine, values=vals)


# ---------------------------------------------------------------------------
# conforming (LD) solver


@dataclass
class CellSolution:
    value: float  # raw energy of the minimizer
    value_smoothed: float
    argmin: object  # GridDisplacement or SBDField
    diagnostics: dict


def _starts(x0: np.ndarray, spec: CellSpec, extra_starts=()) -> list:
    """x0, multistarts - 1 Gaussian perturbations of it sized by the datum's
    scale, then `extra_starts`; start k has seed spec.solver.seed + k."""
    sp, scale = spec.solver, spec.boundary.scale
    return [x0] + [x0 + 0.5 * scale * np.random.default_rng(sp.seed + k).normal(size=x0.shape)
                   for k in range(1, sp.multistarts)] + list(extra_starts)


def _multistart(fg, starts: list, spec: CellSpec):
    """Minimize fg, which maps stacked points X (K, d) to values (K,) and a
    grad(rows) giving the gradients (len(rows), d) of the listed rows, from
    each of `starts` in lockstep on one thread (spec.solver.jobs has no
    effect). Each round stacks the pending point of every L-BFGS run not
    yet ended, makes one fg call and sends each value back to its run; the
    runs that then ask for the gradient of that point (at their start and at
    an accepted step) get it from one grad call. Rows do not interact, so
    each start follows its serial trajectory. The lowest smoothed energy
    wins, ties going to the lowest seed. Returns the winning L-BFGS result
    and the cell diagnostics.
    """
    runs = [lbfgs_steps(x, spec.solver.max_iters) for x in starts]
    points, results = [next(run) for run in runs], [None] * len(runs)

    def send(k, msg):
        try:
            points[k] = runs[k].send(msg)
        except StopIteration as stop:
            results[k] = stop.value

    active = list(range(len(runs)))
    with np.errstate(over="ignore", invalid="ignore"):  # lbfgs_steps judges non-finite values
        while active:
            F, grad = fg(np.array([points[k] for k in active]))
            for k, f in zip(active, F):
                send(k, float(f))
            asked = [i for i, k in enumerate(active) if points[k] is None]
            if asked:
                for i, g in zip(asked, grad(asked)):
                    send(active[i], g)
            del grad  # the strains it holds go before the next round builds its own
            active = [k for k in active if results[k] is None]
    k_best = min(range(len(results)), key=lambda k: results[k]["f"])
    res = results[k_best]
    diag = {"iters": res["iters"], "nfev": res["nfev"], "reason": res["reason"],
            "converged": res["converged"], "grad_norm": res["grad_norm"],
            "grad_tol": res["grad_tol"], "seed": spec.solver.seed + k_best,
            "start_values": [r["f"] for r in results],
            "starts": [(r["iters"], r["nfev"], r["reason"]) for r in results]}
    return res, diag


def solve_ld(spec: CellSpec, f: Integrand, extra_starts=()) -> CellSolution:
    """Minimize the bulk quadrature energy over Q1 fields matching the
    boundary datum at the boundary nodes.

    Multistarts perturb the interior of the datum interpolant with seeded
    Gaussian noise (the first start is the clean interpolant); the best
    smoothed energy wins, ties broken by the lowest seed. `extra_starts`
    appends caller-provided nodal fields (e.g. prolonged coarse minimizers)
    to the start list.
    """
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    datum = np.asarray(spec.boundary.value(grid.nodes), dtype=float)
    free = ~grid.boundary_mask
    extra = [np.asarray(Ux, dtype=float).reshape(grid.n_nodes, 2)[free].ravel()
             for Ux in extra_starts]
    starts = _starts(datum[free].ravel(), spec, extra)
    conn = _stack_conn(grid.conn, grid.n_nodes, len(starts))
    dofs = np.flatnonzero(np.repeat(free, 2))  # the free entries of a flattened field

    def fg(X):
        U = datum.reshape(1, -1).repeat(len(X), axis=0)
        U[:, dofs] = X
        e, grad = energy_and_grad(grid, U.reshape(len(X), -1, 2), f, spec.freeze_x, conn)
        return e, lambda rows: grad(rows).reshape(len(rows), -1).take(dofs, axis=1)

    res, diag = _multistart(fg, starts, spec)
    Ubest = datum.copy()
    Ubest[free] = res["x"].reshape(-1, 2)
    argmin = GridDisplacement(grid=grid, values=Ubest)
    value = raw_energy(grid, Ubest, f, freeze_x=spec.freeze_x)
    return CellSolution(value=value, value_smoothed=res["f"], argmin=argmin,
                        diagnostics={**diag, "mu": f.mu})


def solve_periodic(spec: CellSpec, f: Integrand) -> CellSolution:
    """Minimize the quadrature energy of f(x, 0, A + grad w) over Q1 fields
    w periodic on the period cell `spec.box`, with A the matrix of the
    affine datum. Adding a constant to w changes no energy, so every start
    keeps its mean; the argmin is the zero-mean corrector w.
    """
    grid, n = Grid(spec.box, spec.mesh, frame=spec.frame), spec.mesh ** 2
    f_A = reparametrize(f, v0=np.zeros(2), eps_v=0.0, A0=spec.boundary.A)
    starts = _starts(np.zeros(2 * n), spec)
    conn = _stack_conn(grid.periodic_node[grid.conn], n, len(starts))

    def fg(X):
        energy, grad = _q1_quadrature(grid, X.reshape(len(X), n, 2), conn, f_A, spec.freeze_x)
        return energy, lambda rows: grad(rows).reshape(len(rows), -1)

    res, diag = _multistart(fg, starts, spec)
    W = res["x"].reshape(n, 2)
    argmin = GridDisplacement(grid=grid, values=(W - W.mean(axis=0))[grid.periodic_node])
    value = float(_q1_quadrature(grid, W[None], conn, f_A, spec.freeze_x, raw=True)[0][0])
    return CellSolution(value=value, value_smoothed=res["f"], argmin=argmin,
                        diagnostics={**diag, "mu": f.mu})


def boundary_l1_gap(spec: CellSpec, data1, data2) -> float:
    """Midpoint-rule integral of |data1 - data2| over the box boundary,
    256 panels per edge."""
    grid = Grid(spec.box, 1, frame=spec.frame)
    total = 0.0
    for p, q, _ in Box(spec.box.lo, spec.box.hi).faces():
        pts_ref, seg = segment_midpoints(p, q, 256)
        pts = pts_ref @ grid.R.T
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


def _sbd_objective(grid: Grid, spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand):
    """The SBD objective U -> (bulk (K,), surface (K,), grad) of a stack U
    (K, 8E) of per-element nodal values, K at most spec.solver.multistarts:
    Q1 bulk quadrature plus a midpoint rule on every facet, where grad(rows)
    forms the gradients (len(rows), 8E) of the listed rows (ascending).

    One facet table holds the interior vertical facets (nu = +e1 in
    reference coordinates, minus side left), the interior horizontal ones
    (nu = +e2, minus side below), then the boundary facets (left and right
    per row, bottom and top per column, outward normals). Each row has two
    minus-side slots 4 e + local, a normal, a length and a midpoint;
    interior rows also have two plus-side slots, boundary rows take the
    datum at the midpoint as their plus trace. A call makes one kernel and
    one g1.value call over all K rows, grad one g1.grad call over the rows
    asked, and each row's result is bit for bit that of a stack of one.
    """
    m, E = grid.mesh, grid.mesh ** 2
    eid = np.arange(E).reshape(m, m)  # [ex, ey]
    vert, horz = eid[:-1].ravel(), eid[:, :-1].ravel()  # minus elements of interior facets
    plus = np.concatenate([4 * (vert[:, None] + m) + [0, 2], 4 * (horz[:, None] + 1) + [0, 1]])
    minus = np.concatenate([
        4 * vert[:, None] + [1, 3], 4 * horz[:, None] + [2, 3],
        np.stack([4 * eid[0, :, None] + [0, 2], 4 * eid[-1, :, None] + [1, 3]], 1).reshape(-1, 2),
        np.stack([4 * eid[:, 0, None] + [0, 1], 4 * eid[:, -1, None] + [2, 3]], 1).reshape(-1, 2)])
    ni, n = len(plus), len(minus)
    axis = np.repeat([0, 1, 0, 1], [ni // 2, ni // 2, 2 * m, 2 * m])
    sign = np.concatenate([np.ones(ni, dtype=int), np.tile([-1, 1], 2 * m)])
    nu = sign[:, None] * grid.R[:, axis].T
    length = grid.h[1 - axis]
    node = grid.conn.ravel()  # node of slot 4 e + local
    mid = 0.5 * (grid.nodes[node[minus[:, 0]]] + grid.nodes[node[minus[:, 1]]])
    datum = spec.boundary.value(mid[ni:])
    X = mid if spec.freeze_x is None else np.broadcast_to(spec.freeze_x, mid.shape)
    # every slot lies on exactly two facets: a stable sort of the slots,
    # listed interior minus, interior plus, then boundary, gives each slot
    # its two gradient terms in a fixed order
    slots = np.concatenate([minus[:ni].T.ravel(), plus.T.ravel(), minus[ni:].T.ravel()])
    rows = np.concatenate([np.tile(np.arange(ni), 2), np.tile(np.arange(n, n + ni), 2),
                           np.tile(np.arange(ni, n), 2)])
    first, second = rows[np.argsort(slots, kind="stable")].reshape(-1, 2).T
    # tables of the largest stack (an element owns its 4 nodal values); K rows read a prefix
    K_max = spec.solver.multistarts
    own = _stack_conn(np.arange(4 * E).reshape(E, 4), 4 * E, K_max)
    Xs, nus = np.tile(X, (K_max, 1)), np.tile(nu, (K_max, 1))

    def objective(U):
        K, V = len(U), U.reshape(len(U), 4 * E, 2)
        bulk, bulk_grad = _q1_quadrature(grid, V, own, f1, spec.freeze_x)
        vm = 0.5 * (V.take(minus[:, 0], 1) + V.take(minus[:, 1], 1))
        vp = np.concatenate([0.5 * (V.take(plus[:, 0], 1) + V.take(plus[:, 1], 1)),
                             np.broadcast_to(datum, (K, n - ni, 2))], axis=1)
        w = g1.value(Xs[:K * n], vm.reshape(-1, 2), vp.reshape(-1, 2),
                     nus[:K * n]).reshape(K, n) * length
        surf = w[:, :ni].sum(axis=1) + w[:, ni:].sum(axis=1)

        def grad(asked):
            R = len(asked)
            g = bulk_grad(asked)
            dVM, dVP = g1.grad(Xs[:R * n], vm[asked].reshape(-1, 2), vp[asked].reshape(-1, 2),
                               nus[:R * n])
            terms = np.concatenate([0.5 * dVM.reshape(R, n, 2) * length[:, None],
                                    0.5 * dVP.reshape(R, n, 2)[:, :ni] * length[:ni, None]], 1)
            g += terms.take(first, 1)
            g += terms.take(second, 1)
            return g.reshape(R, -1)

        return bulk, surf, grad

    return objective


def solve_sbd(spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand) -> CellSolution:
    """Minimize bulk quadrature plus midpoint-rule facet surface energy over
    element-wise Q1 fields; the boundary datum enters through the surface
    term on boundary facets. The argmin is an SBDField.

    The value is the raw bulk energy plus the smoothed surface term
    g1.value: for g_odot it lies below the raw one by at most mu times the
    total facet length (2m + 2 on the unit cell at mesh m, so 2.6e-5 at
    mesh 12 with mu = 1e-6), for g_penalty it is exact.
    """
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    E = grid.mesh ** 2
    objective = _sbd_objective(grid, spec, f1, g1)

    def fg(X):
        bulk, surf, grad = objective(X)
        return bulk + surf, grad

    # side-aware datum interpolant: evaluate at nodes nudged toward the
    # element center, so discontinuous data land on facets, not inside cells
    corners = grid.nodes[grid.conn]  # (E, 4, 2)
    nudged = corners + 1e-9 * (corners.mean(axis=1, keepdims=True) - corners)
    x0 = spec.boundary.value(nudged.reshape(-1, 2)).ravel()
    res, diag = _multistart(fg, _starts(x0, spec), spec)
    V = res["x"].reshape(1, 4 * E, 2)
    _, (surf,), _ = objective(V)
    (raw_bulk,), _ = _q1_quadrature(grid, V, np.arange(4 * E).reshape(1, E, 4), f1,
                                    spec.freeze_x, raw=True)
    return CellSolution(value=float(raw_bulk + surf), value_smoothed=res["f"],
                        argmin=SBDField(grid=grid, values=V.reshape(E, 4, 2)),
                        diagnostics={**diag, "mu": f1.mu})
