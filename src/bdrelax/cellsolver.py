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

Reported values use the raw (unsmoothed) bulk and surface integrands at
the minimizer of the smoothed energy, whose smoothing mu is in the
diagnostics, so a cell value is an upper bound on the raw discrete
infimum; a duality gap brackets it from below where the integrands
declare their conjugates (_dual_bound, _sbd_bound), and a primal-dual loop
(_pdhg) finishes the |sym A| cells whose gap L-BFGS does not close.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import Box, gauss_rule, segment_midpoints
from .minimize import EndRun, lbfgs_steps
from .tensor import frob, frob_sq, odot, sym


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
    `dual_datum` (c, m) declares raw = c(x) sqrt(m^2 + |sym A|^2), with c a
    positive number or an x-only function of the points (m,) and m >= 0;
    the conjugate is -m sqrt(c^2 - |tau|^2) on |tau| <= c, and solve_ld
    then certifies its runs with a duality gap (_dual_bound). `floor` is a
    number c with raw >= c everywhere, which gives solve_ld the lower bound
    c |box|.
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
    dual_datum: tuple | None = None
    floor: float | None = None

    def check_flags(self) -> None:
        """Sampled validation of the declared structure flags at 16 seeded
        Gaussian points, to a relative tolerance of 1e-9. The Q1 kernel
        relies on v_independent: it hands such an integrand a zero V, and a
        wrong dual_datum or floor would certify a false lower bound."""
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
        if self.dual_datum is not None:
            c, m = self.dual_datum
            c = c(X) if callable(c) else c
            target = c * np.sqrt(m * m + frob_sq(sym(A)))
            if m < 0 or np.any(c <= 0) or np.max(np.abs(base - target)) > tol * np.max(target):
                raise ValueError(f"integrand {self.name}: dualDatum (c, m = {m:g}) violated")
        if self.floor is not None and np.any(base < self.floor - tol * (1 + np.max(np.abs(base)))):
            raise ValueError(f"integrand {self.name}: floor {self.floor:g} violated")


def reparametrize(f0: Integrand, c: float = 1.0, v0=None, eps_v: float = 1.0, A0=None,
                  s_A: float = 1.0) -> Integrand:
    """c f0(x, v0 + eps_v w, A0 + A / s_A) as an integrand in (x, w, A), with
    the chained gradients (c eps_v df0/dv, (c / s_A) df0/dA).

    v0=None leaves v as it is (eps_v is then unused) and A0=None adds no
    offset. Flags are those of f0; the exact recession, where f0 has one,
    is (c / s_A) f0^inf(x, v0 + eps_v w, A). A dual datum (c0, m) becomes
    (c c0 / s_A, m s_A), and an offset A0 drops it (the density is no
    longer of that form); a floor becomes c floor, with or without A0.
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
    dual = f0.dual_datum
    if dual is not None:
        c0, m = dual
        c1 = (lambda X: c_A * c0(X)) if callable(c0) else c_A * c0
        dual = None if A0 is not None else (c1, m * s_A)
    floor = None if f0.floor is None else c * f0.floor
    return replace(f0, value=value, grad=grad, raw=raw, recession_exact=rec, dual_datum=dual,
                   floor=floor)


@dataclass(frozen=True)
class SurfaceIntegrand:
    """Facet energy g(x, v-, v+, nu) with derivatives in the traces.

    value/grad/raw take batched arguments X (m,2), VM (m,2), VP (m,2) and
    unit normals NU (m,2). `raw` is the unsmoothed density the SBD cell
    reports, at or above the smoothed `value`; `grad` returns (dg/dv-,
    dg/dv+) of the smoothed density. `dual_datum` (r, k), r, k >= 0,
    declares raw = r |J (.) nu| + k |J|^2 for the jump J = v+ - v-: at a
    traction sigma nu, sigma symmetric, the conjugate is 0 for |sigma| <= r
    and at most (|sigma| - r)^2 |sigma nu|^2 / (4 k |sigma|^2) above (+inf
    for k = 0), and solve_sbd then certifies its runs with a duality gap
    (_sbd_bound).
    """

    name: str
    value: object  # (X, VM, VP, NU) -> (m,)
    grad: object  # -> (dVM, dVP)
    raw: object
    dual_datum: tuple | None = None

    def check_flags(self) -> None:
        """Sampled validation at 16 seeded Gaussian points and unit normals,
        to a relative tolerance of 1e-9: the raw density is finite, >= 0 and
        not below the smoothed one, and a declared dual_datum matches it (a
        wrong one would certify a false lower bound)."""
        rng, tol = np.random.default_rng(0), 1e-9
        X, VM, VP, NU = (rng.normal(size=(16, 2)) for _ in range(4))
        NU /= np.sqrt((NU * NU).sum(axis=1))[:, None]
        base = self.raw(X, VM, VP, NU)
        scale = 1 + np.max(np.abs(base))
        if not np.all(np.isfinite(base)) or np.any(base < -tol):
            raise ValueError(f"surface integrand {self.name}: raw values must be finite and >= 0")
        if np.any(self.value(X, VM, VP, NU) > base + tol * scale):
            raise ValueError(f"surface integrand {self.name}: smoothed value above raw")
        if self.dual_datum is not None:
            r, k = self.dual_datum
            J = VP - VM
            target = r * frob(odot(J, NU)) + k * (J * J).sum(axis=1)
            if r < 0 or k < 0 or np.max(np.abs(base - target)) > tol * scale:
                raise ValueError(f"surface integrand {self.name}: dualDatum (r = {r:g}, "
                                 f"k = {k:g}) violated")


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
        if not abs(float(nu @ nu) - 1.0) <= 1e-12:
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
            if not frob(R @ R.T - np.eye(2)) <= 1e-10:
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

    @cached_property
    def plan(self) -> tuple:
        """The kernel's plan (_plan) for one field on the grid's own elements."""
        return _plan(self, self.conn, self.n_nodes, 1)


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


def _plan(grid: Grid, conn: np.ndarray, n: int, K: int) -> tuple:
    """The assembly plan of the Q1 kernel for stacks of up to K fields of n
    nodes on the connectivity conn (E, 4), built once per solve: the gather
    index (K, E, 4) of copy k's nodes conn + k n, the scatter index
    (K, E, 4, 2) 2 node + component into the flattened stack, and, for each
    stack height k <= K, the quadrature points of k copies in (copy,
    element, quadrature point) order as one read-only array. A stack of k
    fields reads the first k copies of each, so the kernel hands every pass
    over k rows the same point array, and an integrand may keep its x-only
    coefficients for it."""
    gather = conn[None] + n * np.arange(K)[:, None, None]
    X = np.concatenate([grid.qp.reshape(-1, 2)] * K)
    X.flags.writeable = False
    m = len(X) // K
    return gather, 2 * gather[..., None] + np.arange(2), [X[:k * m] for k in range(1, K + 1)]


def _q1_strains(grid: Grid, U: np.ndarray, gather: np.ndarray, values: bool = False):
    """The strain half of the Q1 kernel: the field values V (Q, k, K E) at
    the quadrature points (None unless `values`) and the gradients
    G (Q, k, j, K E), G[q, k, j] = d_j u_k, of a stack U (K, n, 2) of nodal
    fields gathered through the first K copies of `gather` (a plan's)."""
    Nval, dN = grid.Nval, grid.dN
    K, n = U.shape[:2]
    Ua = U.reshape(K * n, 2).take(gather[:K], axis=0)  # (K, E, a, k)
    Ua = np.ascontiguousarray(Ua.transpose(3, 2, 0, 1)).reshape(2, 4, -1)  # (k, a, E)
    V = Nval[:, 0, None, None] * Ua[:, 0] if values else None  # (Q, k, E)
    G = dN[:, 0, None, :, None] * Ua[None, :, 0, None, :]  # (Q, k, j, E)
    for a in range(1, 4):
        if V is not None:
            V += Nval[:, a, None, None] * Ua[:, a]
        G += dN[:, a, None, :, None] * Ua[None, :, a, None, :]
    return V, G


def _q1_scatter(grid: Grid, dA: np.ndarray, scatter: np.ndarray, n: int, dV=None) -> np.ndarray:
    """The scatter half of the Q1 kernel: the nodal gradients (R, n, 2) of
    sum_q w (dA : grad N_a + dV N_a) for stresses dA (Q, j, k, R E) and, for
    a v-dependent integrand, dV (Q, k, R E), through the scatter index
    (R, E, 4, 2) of R rows (a plan's)."""
    Nval, dN = grid.Nval, grid.dN
    # back-contraction (a, k, E): the strain part and, for a v-dependent
    # integrand, the v part, each summed over q, then added
    S = dN[0, :, 0, None, None] * dA[0, 0] + dN[0, :, 1, None, None] * dA[0, 1]
    for q in range(1, len(Nval)):
        S += dN[q, :, 0, None, None] * dA[q, 0] + dN[q, :, 1, None, None] * dA[q, 1]
    if dV is not None:
        S1 = Nval[0, :, None, None] * dV[0]
        for q in range(1, len(Nval)):
            S1 += Nval[q, :, None, None] * dV[q]
        S1 += S
        S = S1
    S *= grid.wq
    # each (node, component) bin adds its terms in (element, local node) order
    R = len(scatter)
    return np.bincount(scatter.ravel(), weights=S.transpose(2, 0, 1).ravel(),
                       minlength=2 * R * n).reshape(R, n, 2)


def _q1_quadrature(grid: Grid, U: np.ndarray, plan: tuple, f: Integrand, freeze_x=None,
                   raw: bool = False, exact_sum: bool = False):
    """The Q1 element kernel: quadrature energies sum_q w f(x_q, v_q, grad_q)
    of a stack U (K, n, 2) of nodal fields through the first K copies of a
    plan (_plan) of the grid's own connectivity, a periodic wrap-around or
    the identity for per-element fields.

    Returns (energies (K,), grad) for the smoothed density, where grad(rows)
    forms the nodal gradients (len(rows), n, 2) of the listed stack rows
    (ascending) from the strains the value pass built, copying none when
    every row asks, and grad(rows, stress=True) also returns the stresses
    df/dA (len(rows), Q, j, k, E) it contracted; or (energies (K,), None)
    for the raw density (raw=True), summed exactly with math.fsum when
    exact_sum is set. A v-independent integrand gets a zero V: the kernel
    skips the nodal-value interpolation and the v part of the
    back-contraction, which is +0 and leaves every gradient bit unchanged,
    as the scatter accumulates from +0.0.

    Arrays keep the element axis last, so every numpy operation runs over
    the K E elements. The sums over local nodes, over quadrature points and
    into the nodes run in a fixed order (a = 0..3, q = 0..3, elements in
    connectivity order) and each energy is a row sum, so each copy's result
    is bit for bit that of a stack of one: the solver trajectories depend on
    the gradient's last bits.
    """
    gather, scatter, points = plan
    K, n = U.shape[:2]
    Q = len(grid.Nval)
    V, G = _q1_strains(grid, U, gather, values=not f.v_independent)
    if freeze_x is not None:
        freeze_x = np.asarray(freeze_x, dtype=float)

    def points_of(k):  # the integrand takes points in (copy, element, quadrature point) order
        X = points[k - 1]
        return X if freeze_x is None else np.broadcast_to(freeze_x, X.shape)

    Xf = points_of(K)
    Vf = (np.zeros((len(Xf), 2)) if V is None
          else np.ascontiguousarray(V.transpose(2, 0, 1)).reshape(-1, 2))
    Gf = np.ascontiguousarray(G.transpose(3, 0, 1, 2))
    Gf.flags.writeable = False  # the gradient pass reads these strains again
    Gf = Gf.reshape(-1, 2, 2)
    del V, G  # freed before the integrand allocates its temporaries
    if raw:
        vals = f.raw(Xf, Vf, Gf).reshape(K, -1)
        if exact_sum:
            return np.array([math.fsum(grid.wq * v for v in row.tolist()) for row in vals]), None
        return grid.wq * vals.sum(axis=1), None
    energy = grid.wq * f.value(Xf, Vf, Gf).reshape(K, -1).sum(axis=1)

    def grad(rows, stress=False):
        R = len(rows)
        sel = slice(None) if R == K else np.asarray(rows)  # a slice copies nothing
        Gr = Gf if R == K else Gf.reshape(K, -1, 2, 2)[sel].reshape(-1, 2, 2)
        # the zero Vf repeats per row, so its first R rows serve any R
        Vr = Vf[:len(Gr)] if f.v_independent else Vf.reshape(K, -1, 2)[sel].reshape(-1, 2)
        dV, dA = f.grad(Xf if R == K else points_of(R), Vr, Gr)
        E = len(dA) // Q
        dA = np.ascontiguousarray(dA.reshape(E, Q, 2, 2).transpose(1, 3, 2, 0))  # (Q, j, k, E)
        if not f.v_independent:
            dV = np.ascontiguousarray(dV.reshape(E, Q * 2).T).reshape(Q, 2, E)  # (Q, k, E)
        nodal = _q1_scatter(grid, dA, scatter[:R], n, None if f.v_independent else dV)
        return (nodal, np.moveaxis(dA.reshape(Q, 2, 2, R, -1), 3, 0)) if stress else nodal

    return energy, grad


def energy_and_grad(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None, plan=None):
    """Quadrature energy sum_q w f(x_q, v_q, grad_q) of the nodal field U
    (n, 2) and its nodal gradient or, given a `plan` (_plan) of stacks on
    the grid's connectivity, the energies (K,) of a stack U (K, n, 2) and
    the kernel's grad(rows), which forms gradients only for the rows asked."""
    if plan is None:
        e, grad = _q1_quadrature(grid, U[None], grid.plan, f, freeze_x)
        return float(e[0]), grad([0])[0]
    return _q1_quadrature(grid, U, plan, f, freeze_x)


def raw_energy(grid: Grid, U: np.ndarray, f: Integrand, freeze_x=None,
               exact_sum: bool = False) -> float:
    """Quadrature energy with the unsmoothed integrand."""
    return float(_q1_quadrature(grid, U[None], grid.plan, f, freeze_x, raw=True,
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


GAP_TOL = 1e-5  # a certified run ends once value - lower bound <= GAP_TOL * value
FIRST_CERTIFICATE = 32  # certified at 32, 64, 128, ... and where the gap is predicted to close
CG_TOL = 1e-12  # relative residual that ends the equilibrating CG solve, whatever its preconditioner
PDHG_MAX_ITERS = 10_000  # iteration cap of the primal-dual finish (_pdhg)
PDHG_CHECK = 100  # the primal-dual finish restarts at its averages and is certified this often


class _SymStrain:
    """The symmetric strain operator K: u -> sym grad u at the kernel's
    quadrature points, for Q1 fields on `grid` whose free entries (those of
    the interior nodes in a flattened field) are `dofs`, gathered and
    scattered through the first copy of a plan (_plan). A stress is held in
    the components (3, Q E) (s11, s22, sqrt2 s12), so that S : e is a dot
    product and |S| a Euclidean norm; comps converts the kernel's stresses.

    - Bc (3 Q, 8) holds the strains of the 8 unit fields of one element,
      which the kernel's strain half (_q1_strains) forms once here;
      K(Uf) = Bc U_e is one product per element of a flattened field and
      KT(S) = sum_q w Bc^T S_q its weighted scatter onto the free entries;
    - Ke = sum_q w B_q^T B_q is the 8x8 stiffness that every element of the
      uniform grid shares, and solve runs CG on the assembled operator
      with it or with one matrix per element, preconditioned by the exact
      block factor of that operator (_factor), so that it reaches CG_TOL in
      one or two steps; the shared Ke's factor is built once per operator;
    - norm_sq estimates |K|^2, the top eigenvalue of that operator.
    """

    def __init__(self, grid: Grid, plan: tuple, dofs: np.ndarray):
        self.grid, self.dofs, self.n = grid, dofs, grid.n_nodes
        self.gather, self.scatter = plan[0][0], plan[1][0]
        one = np.arange(4) + 4 * np.arange(8)[:, None, None]  # 8 unit fields of one element
        G = _q1_strains(grid, np.eye(8).reshape(8, 4, 2), one)[1]
        B = 0.5 * (G + G.transpose(0, 2, 1, 3))  # (Q, k, j, 8), symmetric
        self.Ke = _q1_scatter(grid, B, 2 * one[..., None] + np.arange(2), 4).reshape(8, 8)
        self.Bc = self.comps(B).reshape(-1, 8)  # (3 Q, 8)
        self.slots = np.ascontiguousarray(self.scatter.reshape(-1, 8).T)  # (8, E) flat entries

    def K(self, Uf: np.ndarray) -> np.ndarray:
        return (self.Bc @ Uf.take(self.slots)).reshape(3, -1)

    def KT(self, S: np.ndarray) -> np.ndarray:
        back = self.grid.wq * (self.Bc.T @ S.reshape(len(self.Bc), -1))  # (8, E)
        return np.bincount(self.slots.ravel(), back.ravel(), minlength=2 * self.n)[self.dofs]

    def comps(self, stress: np.ndarray) -> np.ndarray:
        """The components (3, Q E) of symmetric stresses (Q, j, k, E)."""
        return np.stack([stress[:, 0, 0], stress[:, 1, 1],
                         math.sqrt(2.0) * stress[:, 0, 1]]).reshape(3, -1)

    def _stiffness(self, y: np.ndarray, Ke, Uy: np.ndarray) -> np.ndarray:
        Uy[self.dofs] = y
        Ue = Uy.reshape(self.n, 2).take(self.gather, axis=0).reshape(-1, 8)  # (E, 8)
        KUe = Ue @ Ke if Ke.ndim == 2 else np.einsum("ei,eij->ej", Ue, Ke)
        return np.bincount(self.scatter.ravel(), KUe.ravel(), minlength=2 * self.n)[self.dofs]

    def _factor(self, Ke: np.ndarray) -> tuple:
        """The exact block LU factor of the assembled sum_e Ue^T Ke Ue. The
        free entries of grid line i (nodes i (m+1) + j, 0 < j < m) form
        block i - 1 of b = 2 (m - 1) entries 2 (j - 1) + k, and a Q1
        element couples only neighbouring lines, so the operator is block
        tridiagonal: diagonal blocks D_i and upper blocks B_i, each held as
        compact rows (b, 6), row (j, k) against the nodes j - 1, j, j + 1
        of its own or the next line. Returns the inverses S_i^-1 (L, b, b)
        of S_0 = D_0, S_i+1 = D_i+1 - B_i^T S_i^-1 B_i, the compact B
        (L - 1, b, 6) and the columns (b, 6) of those rows in a line padded
        by two entries on each side."""
        m = self.grid.mesh
        b = 2 * (m - 1)
        cols = 2 * (np.arange(b)[:, None] // 2) + np.arange(6)
        # element ex m + ey as (ex, ey, side ax of row, of column, ay of row, of column, k, k)
        K = np.broadcast_to(Ke, (m * m, 8, 8)).reshape(m, m, 2, 2, 2, 2, 2, 2).transpose(
            0, 1, 3, 6, 2, 5, 4, 7)

        def band(P):  # the rows of node lines against j - 1, j, j + 1, from elements ey = j - 1, j
            return np.stack([P[:, :-1, 1, 0], P[:, 1:, 0, 0] + P[:, :-1, 1, 1], P[:, 1:, 0, 1]],
                            axis=3).reshape(len(P), b, 6)

        def dense(rows):
            full = np.zeros((b, b + 4))
            full[np.arange(b)[:, None], cols] = rows
            return full[:, 2:-2]

        D, B = band(K[:-1, :, 1, 1]) + band(K[1:, :, 0, 0]), band(K[1:-1, :, 0, 1])
        S = np.empty((len(D), b, b))
        for i in range(len(D)):
            S[i] = dense(D[i])
            if i:
                Bd = dense(B[i - 1])
                S[i] -= Bd.T @ (S[i - 1] @ Bd)
            S[i] = np.linalg.inv(S[i])
        return S, B, cols

    def _precondition(self, factor: tuple, r: np.ndarray) -> np.ndarray:
        """The factor's solve of the operator for r: one forward sweep
        z_i+1 = r_i+1 - B_i^T S_i^-1 z_i and one backward sweep
        x_i = S_i^-1 (z_i - B_i x_i+1)."""
        S, B, cols = factor
        L, b = S.shape[:2]
        z, pad = r.reshape(L, b).copy(), np.zeros(b + 4)
        for i in range(L - 1):
            w = (S[i] @ z[i])[:, None] * B[i]
            z[i + 1] -= np.bincount(cols.ravel(), w.ravel(), minlength=b + 4)[2:-2]
        for i in range(L - 1, -1, -1):
            if i < L - 1:
                pad[2:-2] = z[i + 1]
                z[i] -= (B[i] * pad[cols]).sum(axis=1)
            z[i] = S[i] @ z[i]
        return z.ravel()

    @cached_property
    def _shared_factor(self) -> tuple:
        return self._factor(self.Ke)

    def solve(self, g: np.ndarray, y=None, Ke=None):
        """CG on the assembled sum_e Ue^T Ke Ue over the free entries, with
        the shared Ke (Ke None) or one matrix (E, 8, 8) per element, for the
        right side g from y (or 0) to a relative residual of CG_TOL,
        preconditioned by the exact block factor (_factor) of that operator.
        Returns (y, the flattened correction field (2 n) or None where CG
        stops short of CG_TOL)."""
        factor = self._shared_factor if Ke is None else self._factor(Ke)
        Ke = self.Ke if Ke is None else Ke
        Uy = np.zeros(2 * self.n)
        y = np.zeros(len(g)) if y is None else y.copy()
        res = g - self._stiffness(y, Ke, Uy)
        p = self._precondition(factor, res)
        rz, stop = res.dot(p), (CG_TOL * CG_TOL) * g.dot(g)
        for _ in range(2 * len(g)):
            if res.dot(res) <= stop:
                break
            Kp = self._stiffness(p, Ke, Uy)
            alpha = rz / p.dot(Kp)
            y += alpha * p
            res -= alpha * Kp
            z = self._precondition(factor, res)
            rz, rz_old = res.dot(z), rz
            p = z + (rz / rz_old) * p
        else:
            return y, None
        Uy[self.dofs] = y
        return y, Uy

    @cached_property
    def norm_sq(self) -> float:
        """|K|^2 from the free entries to sum_q w |.|^2: 50 power steps on
        the shared stiffness from a seeded Gaussian field."""
        y, Uy, lam = np.random.default_rng(0).normal(size=len(self.dofs)), np.zeros(2 * self.n), 0.0
        for _ in range(50):
            y /= math.sqrt(y.dot(y))
            Ky = self._stiffness(y, self.Ke, Uy)
            lam, y = y.dot(Ky), Ky
        return float(lam)


def _dual_bound(op: _SymStrain, datum: np.ndarray, dual: tuple, U: np.ndarray,
                stress: np.ndarray, y=None):
    """A lower bound on the discrete infimum of sum_q w f_q(sym grad u_q),
    f_q(S) = c_q sqrt(m^2 + |S|^2), over Q1 fields u equal to `datum` (n, 2)
    at the boundary nodes, from a run's field U (n, 2) and any stress
    (3, Q E) in the components of the operator `op` (_SymStrain): the bound
    equilibrates whatever stress it is given, so it is valid for every one.
    `dual` is (c, m): c a number or the radii c_q (Q, E) at the points the
    kernel read, and m >= 0.

    1. equilibrate: CG on the Q1 operator K of 1/2 sum_q w H_q[e(y)] : e(y),
       e(y) = sym grad y, over fields y vanishing at the boundary nodes
       solves K y = KT(stress) from y (the previous correction, or 0) to a
       relative residual of CG_TOL, so tau = stress - H[e(y)] does no work
       on any such field. For m = 0, H is the identity and K is applied
       through the one 8x8 matrix that every element of the uniform grid
       has, whose block factor every certificate of the solve shares. For
       m > 0, H_q is the Hessian of f_q at the run's strain S_q = K(U),
       H[D] = (c / rho)(D - S (S : D) / rho^2) with rho = sqrt(m^2 + |S|^2),
       so tau is the run's stress after one Newton step; K is assembled as
       one 8x8 matrix per element and factored for this certificate. The
       factor only preconditions CG, whose residual test decides validity,
       and any positive definite H leaves tau equilibrated: it makes the
       bound tight, not valid;
    2. scale tau into the balls |tau_q| <= c_q by one factor s;
    3. return sum_q w [s tau : e(datum) + m sqrt(c_q^2 - s^2 |tau_q|^2)],
       which equals sum_q w [s tau : sym grad u - f_q*(s tau)] <= sum_q w
       f_q(sym grad u) for every admissible u, f_q*(tau) =
       -m sqrt(c_q^2 - |tau|^2) being the conjugate (Fenchel-Young).

    Returns (bound, y), with bound None where CG stops short of CG_TOL.
    """
    grid, (c, m) = op.grid, dual
    Q, E = len(grid.Nval), len(grid.conn)
    Ke = None
    if m > 0:
        B = op.Bc.reshape(3, Q, 8)
        S = op.K(U.ravel()).reshape(3, Q, E)
        rho2 = m * m + (S * S).sum(axis=0)
        a = c / np.sqrt(rho2)  # (Q, E)
        b = np.einsum("cqi,cqe->qei", B, S)  # B_q^T S_q
        BtB = np.einsum("cqi,cqj->qij", B, B).reshape(Q, 64)
        Ke = (a.T @ BtB).reshape(E, 8, 8) - np.einsum("qei,qej->eij", (a / rho2)[..., None] * b, b)
        Ke *= grid.wq
    y, Uy = op.solve(op.KT(stress), y, Ke)
    if Uy is None:
        return None, y
    D = op.K(Uy).reshape(3, Q, E)
    tau = stress.reshape(3, Q, E) - (D if m == 0 else a * (D - S * ((S * D).sum(axis=0) / rho2)))
    size = np.sqrt((tau * tau).sum(axis=0))  # (Q, E)
    s = c / max(size.max(), c) if np.ndim(c) == 0 else 1.0 / max((size / c).max(), 1.0)
    bound = grid.wq * s * (tau.reshape(3, -1) * op.K(datum.ravel())).sum()
    if m > 0:
        bound += grid.wq * m * np.sqrt(np.maximum(c * c - (s * size) ** 2, 0.0)).sum()
    return bound, y


def _pdhg(op: _SymStrain, datum: np.ndarray, c, U: np.ndarray, stress: np.ndarray, scale: float,
          raw_value, best: float, y=None) -> tuple:
    """The primal-dual finish of a cell whose raw density is c(x) |sym A|:
    PDHG (Chambolle and Pock, J. Math. Imaging Vision 40, 2011) on the
    saddle point min_u max_{|sigma_q| <= c_q} sum_q w sigma_q : sym grad u_q
    over Q1 fields u equal to `datum` at the boundary nodes, started from a
    run's field U (n, 2) and stress (3, Q E) in the components of op, the
    cell's _SymStrain, with c a number or the radii (Q, E). Each iteration
    makes one dual step, sigma <- the projection of sigma + s K(2 u -
    u_previous) onto the balls |sigma_q| <= c_q, and one primal step,
    u <- u - t K^T sigma, with s t |K|^2 = 0.99^2 and t / s =
    (scale / max c)^2 / (2 h1 h2): scaling the datum by a, or c by l,
    scales the field by a, or the stress by l, and leaves the iterates those
    of the unscaled cell with t / s times a^2, or divided by l^2; the field
    is measured per node, each node standing for h1 h2 of area. The factor
    1/2 was the best of 1, 2 and 4 on diagonal, rotated and axis jump cells
    at meshes 8 to 32, and max c beat mean c on an x-dependent c. The loop
    reads no integrand.

    Every PDHG_CHECK iterations it restarts u and sigma at their averages
    over the last PDHG_CHECK iterations (Applegate, Hinder, Lu and Lubin,
    arXiv:2105.12715), the averaged field competes for the field of lowest
    energy so far, and it certifies that field: its raw_value(U) against the
    best of `best` and _dual_bound at the averaged sigma, from the CG
    correction y; the bound equilibrates sigma itself, so the iterate needs
    no pairing with a gradient. It ends on "gap" once the value is within
    GAP_TOL of that bound, or on "max_iters" after PDHG_MAX_ITERS. Returns
    (field, bound, reason, iterations, y).
    """
    dofs, c_q = op.dofs, np.reshape(c, -1)  # c_q at the (q, e) points of a stress's components
    ratio = (scale / float(c_q.max())) ** 2 / (2.0 * op.grid.h[0] * op.grid.h[1])
    t, s = 0.99 * math.sqrt(ratio / op.norm_sq), 0.99 / math.sqrt(ratio * op.norm_sq)
    Uf, sigma = U.ravel().copy(), stress.copy()
    e = e_prev = op.K(Uf)
    low, U_low = math.inf, Uf
    U_sum, sigma_sum = np.zeros(len(dofs)), np.zeros_like(sigma)
    for it in range(1, PDHG_MAX_ITERS + 1):
        step = e + e
        step -= e_prev
        step *= s
        sigma += step
        size = np.sqrt((sigma * sigma).sum(axis=0))
        size /= c_q
        sigma /= np.maximum(size, 1.0, out=size)
        Uf = Uf.copy()
        Uf[dofs] -= t * op.KT(sigma)
        e_prev, e = e, op.K(Uf)
        U_sum += Uf[dofs]
        sigma_sum += sigma
        fields = [(Uf, e)]
        if it % PDHG_CHECK == 0:  # both restart at their averages over the last PDHG_CHECK
            Uf = Uf.copy()
            Uf[dofs], sigma = U_sum / PDHG_CHECK, sigma_sum / PDHG_CHECK
            e = e_prev = op.K(Uf)
            U_sum[:], sigma_sum[:] = 0.0, 0.0
            fields.append((Uf, e))
        for V, eV in fields:
            energy = (c_q * np.sqrt((eV * eV).sum(axis=0))).sum()
            if energy < low:
                low, U_low = energy, V
        if it % PDHG_CHECK:
            continue
        U_best = U_low.reshape(-1, 2)
        value = raw_value(U_best)
        bound, y = _dual_bound(op, datum, (c, 0.0), U_best, sigma, y)
        if bound is not None:
            best = max(best, bound)
        if value - best <= GAP_TOL * value:
            return U_best, best, "gap", it, y
    return U_best, best, "max_iters", PDHG_MAX_ITERS, y


def _predicted_certificate(i0: int, g0: float, i1: int, g1: float, target: float):
    """The multiple of FIRST_CERTIFICATE in (i1, 2 i1) where the geometric rate
    of the gaps g0 at i0 and g1 at i1 reaches `target`, or None."""
    if not 0.0 < target < g1 < g0 < math.inf:
        return None
    it = i1 + (i1 - i0) * math.log(target / g1) / math.log(g1 / g0)
    it = max(i1 + FIRST_CERTIFICATE, FIRST_CERTIFICATE * math.ceil(it / FIRST_CERTIFICATE))
    return it if it < 2 * i1 else None


def _multistart(fg, starts: list, spec: CellSpec, certify=None, finish=None, floor=None):
    """Minimize fg, which maps stacked points X (K, d) to values (K,) and a
    grad(rows) giving the gradients (len(rows), d) of the listed rows, from
    each of `starts` in lockstep on one thread (spec.solver.jobs has no
    effect). Each round stacks the pending point of every L-BFGS run not
    yet ended, makes one fg call and sends each value back to its run; the
    runs that then ask for the gradient of that point (at their start and at
    an accepted step) get it from one grad call. Rows do not interact, so
    each start follows its serial trajectory. The lowest smoothed energy
    wins, ties going to the lowest seed. Returns the winning result and the
    cell diagnostics.

    With `certify`, grad(rows) returns the gradients and a stress per row
    (None where certify reads none), and at iterations 32, 64, 128, ...
    each run's accepted point gets certify(k, x, stress) = (its raw value,
    a lower bound on the cell's discrete infimum or None), a bound that
    equilibrates the stress it is handed and so needs no gradient. After
    each of these doubling certificates a run is certified at most once
    more before the next, at the iteration where the geometric rate of its
    last two gaps reaches GAP_TOL times the value (_predicted_certificate).
    A run ends with reason "gap" once its value minus the best bound of the
    solve, which the diagnostics hold as lower_bound, is at most GAP_TOL
    times the value. With `finish`, a run whose gap (value minus best bound)
    at a doubling certificate is not at most half its previous doubling
    certificate's is handed off there:
    finish(k, x, stress, best bound) = (its final point, a bound, its reason
    "gap" or "max_iters", its iterations, which the diagnostics hold as
    pdhg_iters), and the run's smoothed value there comes from one fg call.
    With `floor` = (a lower bound, raw: x -> the raw value of a point), the
    best bound starts there, and a run that ends on its own closes as a
    certified one does when raw(x) minus the best bound is at most GAP_TOL
    times that value plus 1e-12 x datum scale x |box|; its reason stays.
    Once a run has closed, every active run whose last accepted point
    would lose the selection to it ends at that point in the same round,
    with reason "superseded": by the bound, no start can end more than
    GAP_TOL below the closed value. Up to its end, every run follows its
    serial trajectory. A run's stop reason is then "gtol", "gap",
    "superseded", "max_iters" or "line_search_stall".
    """
    runs = [lbfgs_steps(x, spec.solver.max_iters) for x in starts]
    points, results = [next(run) for run in runs], [None] * len(runs)
    grads_sent, best = [0] * len(runs), -math.inf  # a run's gradients count its iterations
    accepted, pdhg_iters, closed = [math.inf] * len(runs), [0] * len(runs), []
    gaps, lasts, predicted = {}, {}, {}  # per run: last doubling gap, last certificate, next one
    if floor is not None:
        best, raw = floor
        atol = 1e-12 * spec.boundary.scale * spec.box.volume

    def send(k, msg):
        try:
            points[k] = runs[k].send(msg)
        except StopIteration as stop:
            results[k] = stop.value

    def closes(r):  # its raw value is within GAP_TOL of the best bound
        value = raw(r["x"])
        return value - best <= GAP_TOL * value + atol

    active = list(range(len(runs)))
    with np.errstate(over="ignore", invalid="ignore"):  # lbfgs_steps judges non-finite values
        while active:
            X = np.array([points[k] for k in active])
            F, grad = fg(X)
            for k, f in zip(active, F):
                send(k, float(f))
                if points[k] is None:
                    accepted[k] = float(f)
            asked = [i for i, k in enumerate(active) if points[k] is None]
            handoffs = []
            if asked:
                G, stresses = grad(asked) if certify else (grad(asked), [None] * len(asked))
                for i, g, stress in zip(asked, G, stresses):
                    k = active[i]
                    it, grads_sent[k] = grads_sent[k], grads_sent[k] + 1
                    doubling = it >= FIRST_CERTIFICATE and it & (it - 1) == 0
                    if certify and (doubling or it == predicted.get(k)):
                        value, bound = certify(k, X[i], stress)
                        if bound is not None:
                            best = max(best, bound)
                        gap, last = value - best, lasts.get(k)
                        lasts[k] = it, gap
                        if gap <= GAP_TOL * value:
                            g = (g, "gap")
                        elif doubling and finish is not None and gap > 0.5 * gaps.get(k, math.inf):
                            g = (g, "handoff")
                            handoffs.append((k, X[i], stress))
                        elif doubling:
                            gaps[k] = gap
                            if last is not None:
                                predicted[k] = _predicted_certificate(*last, it, gap,
                                                                      GAP_TOL * value)
                    send(k, g)
            del grad  # the strains it holds go before the next round builds its own
            for k, x, stress in handoffs:
                x, bound, reason, pdhg_iters[k] = finish(k, x, stress, best)
                best = max(best, bound)
                results[k].update(x=x, f=float(fg(x[None])[0][0]), reason=reason,
                                  converged=reason == "gap")
            closed += [k for k in active if results[k] is not None and (
                results[k]["reason"] == "gap" or floor is not None and closes(results[k]))]
            if closed:
                r = min(closed, key=lambda k: (results[k]["f"], k))
                for k in active:
                    if results[k] is None and (accepted[k], k) > (results[r]["f"], r):
                        try:
                            runs[k].throw(EndRun("superseded"))
                        except StopIteration as stop:
                            results[k] = stop.value
            active = [k for k in active if results[k] is None]
    k_best = min(range(len(results)), key=lambda k: results[k]["f"])
    res = results[k_best]
    diag = {"iters": res["iters"], "nfev": res["nfev"], "reason": res["reason"],
            "converged": res["converged"], "grad_norm": res["grad_norm"],
            "grad_tol": res["grad_tol"], "seed": spec.solver.seed + k_best,
            "start_values": [r["f"] for r in results],
            "starts": [(r["iters"], r["nfev"], r["reason"]) for r in results]}
    if finish is not None:
        diag["pdhg_iters"] = pdhg_iters
    if best > -math.inf:
        diag["lower_bound"] = best
    return res, diag


def solve_ld(spec: CellSpec, f: Integrand, extra_starts=()) -> CellSolution:
    """Minimize the bulk quadrature energy over Q1 fields matching the
    boundary datum at the boundary nodes.

    Multistarts perturb the interior of the datum interpolant with seeded
    Gaussian noise (the first start is the clean interpolant); the best
    smoothed energy wins, ties broken by the lowest seed. `extra_starts`
    appends caller-provided nodal fields (e.g. prolonged coarse minimizers)
    to the start list.

    An integrand with a dual_datum (c, m) (raw density c(x) sqrt(m^2 +
    |sym A|^2)) is certified (_multistart, _dual_bound) from the field of
    each certified point and the stress of its own gradient pass, which
    certify and finish convert into the components of _SymStrain (a pass
    that is not certified converts nothing); the bound equilibrates
    whatever stress it is given. c is read at the points the kernel read
    (the frozen point under freeze_x), and the diagnostics then hold the
    best lower_bound found and the gap, value - lower_bound. An integrand
    with a floor c (raw >= c) has the lower bound c |box|, against which a
    run that ends on its own closes the solve (_multistart).
    """
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    datum = np.asarray(spec.boundary.value(grid.nodes), dtype=float)
    free = ~grid.boundary_mask
    extra = [np.asarray(Ux, dtype=float).reshape(grid.n_nodes, 2)[free].ravel()
             for Ux in extra_starts]
    starts = _starts(datum[free].ravel(), spec, extra)
    plan = _plan(grid, grid.conn, grid.n_nodes, len(starts))
    dofs = np.flatnonzero(np.repeat(free, 2))  # the free entries of a flattened field
    dual = f.dual_datum
    if dual is not None and callable(dual[0]):  # the radii (Q, E) at the kernel's points
        X = plan[2][0] if spec.freeze_x is None else np.broadcast_to(spec.freeze_x, plan[2][0].shape)
        dual = (np.ascontiguousarray(dual[0](X).reshape(-1, len(grid.Nval)).T), dual[1])

    def fg(X):
        U = datum.reshape(1, -1).repeat(len(X), axis=0)
        U[:, dofs] = X
        e, grad = energy_and_grad(grid, U.reshape(len(X), -1, 2), f, spec.freeze_x, plan)

        def grad_free(rows):
            if dual is None:
                return grad(rows).reshape(len(rows), -1).take(dofs, axis=1)
            G, stress = grad(rows, stress=True)
            return G.reshape(len(rows), -1).take(dofs, axis=1), stress

        return e, grad_free

    def field(x):
        U = datum.copy()
        U[free] = x.reshape(-1, 2)
        return U

    corrections = {}  # each run's last CG correction, its next warm start
    op = None if dual is None else _SymStrain(grid, plan, dofs)

    def raw_value(U):
        return raw_energy(grid, U, f, freeze_x=spec.freeze_x)

    def certify(k, x, stress):
        U = field(x)
        bound, corrections[k] = _dual_bound(op, datum, dual, U, op.comps(stress),
                                            corrections.get(k))
        return raw_value(U), bound

    def finish(k, x, stress, best):
        U, bound, reason, iters, corrections[k] = _pdhg(
            op, datum, dual[0], field(x), op.comps(stress), spec.boundary.scale, raw_value, best,
            corrections.get(k))
        return U[free].ravel(), bound, reason, iters

    floor = None if f.floor is None else (f.floor * spec.box.volume, lambda x: raw_value(field(x)))
    res, diag = _multistart(fg, starts, spec, None if dual is None else certify,
                            finish if dual is not None and dual[1] == 0 else None, floor)
    Ubest = field(res["x"])
    argmin = GridDisplacement(grid=grid, values=Ubest)
    value = raw_energy(grid, Ubest, f, freeze_x=spec.freeze_x)
    if "lower_bound" in diag:
        diag["gap"] = value - diag["lower_bound"]
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
    plan = _plan(grid, grid.periodic_node[grid.conn], n, len(starts))

    def fg(X):
        energy, grad = _q1_quadrature(grid, X.reshape(len(X), n, 2), plan, f_A, spec.freeze_x)
        return energy, lambda rows: grad(rows).reshape(len(rows), -1)

    res, diag = _multistart(fg, starts, spec)
    W = res["x"].reshape(n, 2)
    argmin = GridDisplacement(grid=grid, values=(W - W.mean(axis=0))[grid.periodic_node])
    value = float(_q1_quadrature(grid, W[None], plan, f_A, spec.freeze_x, raw=True)[0][0])
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


def _sbd_facets(grid: Grid, spec: CellSpec) -> tuple:
    """The SBD facet table: the interior vertical facets (nu = +e1 in
    reference coordinates, minus side left), the interior horizontal ones
    (nu = +e2, minus side below), then the boundary facets (left and right
    per row, bottom and top per column, outward normals). Returns minus
    (n, 2), the two minus-side slots 4 e + local of every row; plus (ni, 2),
    those of the interior rows; nu (n, 2), length (n,) and mid (n, 2), the
    physical normals, lengths and midpoints; and datum (n - ni, 2), the
    boundary datum at the boundary rows' midpoints, their plus trace."""
    m = grid.mesh
    eid = np.arange(m * m).reshape(m, m)  # [ex, ey]
    vert, horz = eid[:-1].ravel(), eid[:, :-1].ravel()  # minus elements of interior facets
    plus = np.concatenate([4 * (vert[:, None] + m) + [0, 2], 4 * (horz[:, None] + 1) + [0, 1]])
    minus = np.concatenate([
        4 * vert[:, None] + [1, 3], 4 * horz[:, None] + [2, 3],
        np.stack([4 * eid[0, :, None] + [0, 2], 4 * eid[-1, :, None] + [1, 3]], 1).reshape(-1, 2),
        np.stack([4 * eid[:, 0, None] + [0, 1], 4 * eid[:, -1, None] + [2, 3]], 1).reshape(-1, 2)])
    ni = len(plus)
    axis = np.repeat([0, 1, 0, 1], [ni // 2, ni // 2, 2 * m, 2 * m])
    sign = np.concatenate([np.ones(ni, dtype=int), np.tile([-1, 1], 2 * m)])
    nu = sign[:, None] * grid.R[:, axis].T
    length = grid.h[1 - axis]
    node = grid.conn.ravel()  # node of slot 4 e + local
    mid = 0.5 * (grid.nodes[node[minus[:, 0]]] + grid.nodes[node[minus[:, 1]]])
    return minus, plus, nu, length, mid, spec.boundary.value(mid[ni:])


def _sbd_objective(grid: Grid, spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand):
    """The SBD objective U -> (bulk (K,), surface (K,), grad) of a stack U
    (K, 8E) of per-element nodal values, K at most spec.solver.multistarts:
    Q1 bulk quadrature plus a midpoint rule on every row of the facet table
    (_sbd_facets), where grad(rows) forms the gradients (len(rows), 8E) of
    the listed rows (ascending); objective(U, raw=True) gives the raw bulk
    and surface energies and no grad. Boundary rows take the datum at the
    midpoint as their plus trace. A call makes one kernel and one g1.value
    (or g1.raw) call over all K rows, grad one g1.grad call over the rows
    asked, and each row's result is bit for bit that of a stack of one.
    """
    E = grid.mesh ** 2
    minus, plus, nu, length, mid, datum = _sbd_facets(grid, spec)
    ni, n = len(plus), len(minus)
    X = mid if spec.freeze_x is None else np.broadcast_to(spec.freeze_x, mid.shape)
    # every slot lies on exactly two facets: a stable sort of the slots,
    # listed interior minus, interior plus, then boundary, gives each slot
    # its two gradient terms in a fixed order
    slots = np.concatenate([minus[:ni].T.ravel(), plus.T.ravel(), minus[ni:].T.ravel()])
    rows = np.concatenate([np.tile(np.arange(ni), 2), np.tile(np.arange(n, n + ni), 2),
                           np.tile(np.arange(ni, n), 2)])
    first, second = rows[np.argsort(slots, kind="stable")].reshape(-1, 2).T
    # plan and tables of the largest stack (an element owns its 4 nodal
    # values); K rows read a prefix
    K_max = spec.solver.multistarts
    own = _plan(grid, np.arange(4 * E).reshape(E, 4), 4 * E, K_max)
    Xs, nus = np.tile(X, (K_max, 1)), np.tile(nu, (K_max, 1))

    def objective(U, raw=False):
        K, V = len(U), U.reshape(len(U), 4 * E, 2)
        bulk, bulk_grad = _q1_quadrature(grid, V, own, f1, spec.freeze_x, raw=raw)
        vm = 0.5 * (V.take(minus[:, 0], 1) + V.take(minus[:, 1], 1))
        vp = np.concatenate([0.5 * (V.take(plus[:, 0], 1) + V.take(plus[:, 1], 1)),
                             np.broadcast_to(datum, (K, n - ni, 2))], axis=1)
        w = (g1.raw if raw else g1.value)(Xs[:K * n], vm.reshape(-1, 2), vp.reshape(-1, 2),
                                          nus[:K * n]).reshape(K, n) * length
        surf = w[:, :ni].sum(axis=1) + w[:, ni:].sum(axis=1)
        if raw:
            return bulk, surf, None

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


def _sbd_bound(grid: Grid, spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand):
    """A lower bound on the raw discrete SBD energy of every per-element Q1
    field, from the dual datum (c, m) of f1 (Integrand) and (r, k) of g1
    (SurfaceIntegrand), or None where either declares none.

    For every such field u and constant symmetric sigma,
      sum_q w sigma : grad u_q + sum_interior len sigma nu . [u](mid)
        + sum_boundary len sigma nu . (datum - u)(mid) = sigma : M,
    M = sym sum_boundary len datum(mid) (x) nu, exactly: 2x2 Gauss
    integrates the Q1 gradient and the midpoint rule the linear traces.
    Fenchel-Young at every quadrature point and facet with sigma = s M / |M|
    (the constant-stress point of the limit-analysis dual) gives
      E(u) >= phi(s) = s |M| + sum_q w m sqrt(c_q^2 - s^2)
                       - (s - r)_+^2 sum_f len |M nu_f|^2 / (4 k |M|^2)
    for 0 <= s <= min_q c_q (and s <= r for k = 0), with c_q read where the
    kernel reads f1. phi is concave, and a ternary search maximizes it.
    """
    if f1.dual_datum is None or g1.dual_datum is None:
        return None
    (c, m), (r, k) = f1.dual_datum, g1.dual_datum
    _, plus, nu, length, _, datum = _sbd_facets(grid, spec)
    X = grid.qp.reshape(-1, 2)
    if callable(c):
        c = c(X if spec.freeze_x is None else spec.freeze_x[None])
    c = np.broadcast_to(c, len(X))
    M = sym(np.einsum("f,fi,fj->ij", length[len(plus):], datum, nu[len(plus):]))
    size = float(frob(M))
    if size == 0.0:
        return 0.0
    Mnu = nu @ M / size
    penalty = float(length @ (Mnu * Mnu).sum(axis=1)) / (4 * k) if k > 0 else 0.0

    def phi(s):
        bulk = grid.wq * m * np.sqrt(c * c - s * s).sum()
        return s * size + bulk - max(s - r, 0.0) ** 2 * penalty

    lo, hi = 0.0, min(float(c.min()), math.inf if k > 0 else r)
    s_max = hi
    for _ in range(100):  # ternary search: (2/3)^100 of the interval is left
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (a, hi) if phi(a) < phi(b) else (lo, b)
    return float(max(phi(lo), phi(s_max)))


def solve_sbd(spec: CellSpec, f1: Integrand, g1: SurfaceIntegrand) -> CellSolution:
    """Minimize bulk quadrature plus midpoint-rule facet surface energy over
    element-wise Q1 fields; the boundary datum enters through the surface
    term on boundary facets. The argmin is an SBDField, and the value is
    the raw bulk plus the raw surface energy (f1.raw, g1.raw) there, an
    upper bound on the raw discrete infimum.

    Where f1 and g1 both declare a dual datum, the runs are certified
    (_multistart) against one bound computed once per solve (_sbd_bound):
    a run ends on "gap" once its raw value at a certified iteration (32, 64,
    128, ... and where its gap is predicted to close) is within GAP_TOL of
    it, and the diagnostics hold that lower_bound and the gap,
    value - lower_bound. Every other run keeps its serial trajectory.
    """
    grid = Grid(spec.box, spec.mesh, frame=spec.frame)
    E = grid.mesh ** 2
    objective = _sbd_objective(grid, spec, f1, g1)
    bound = _sbd_bound(grid, spec, f1, g1)

    def fg(X):
        bulk, surf, grad = objective(X)
        if bound is None:
            return bulk + surf, grad
        return bulk + surf, lambda rows: (grad(rows), [None] * len(rows))

    def raw_value(x):
        (bulk,), (surf,), _ = objective(x[None], raw=True)
        return float(bulk + surf)

    # side-aware datum interpolant: evaluate at nodes nudged toward the
    # element center, so discontinuous data land on facets, not inside cells
    corners = grid.nodes[grid.conn]  # (E, 4, 2)
    nudged = corners + 1e-9 * (corners.mean(axis=1, keepdims=True) - corners)
    x0 = spec.boundary.value(nudged.reshape(-1, 2)).ravel()
    res, diag = _multistart(fg, _starts(x0, spec), spec,
                            None if bound is None else lambda k, x, _: (raw_value(x), bound))
    value = raw_value(res["x"])
    if bound is not None:
        diag.update(lower_bound=bound, gap=value - bound)
    return CellSolution(value=value, value_smoothed=res["f"],
                        argmin=SBDField(grid=grid, values=res["x"].reshape(E, 4, 2)),
                        diagnostics={**diag, "mu": f1.mu})
