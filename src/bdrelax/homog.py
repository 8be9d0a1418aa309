"""Periodic homogenization of bulk densities: growing-cube Dirichlet
values, the periodic cell formula for convex integrands, and the folding
construction with its discrete energy identity.
"""

from dataclasses import dataclass, field

import numpy as np

from .cellsolver import (AffineData, CellSpec, Grid, GridDisplacement, Integrand,
                         SolverParams, raw_energy, solve_ld, solve_periodic)
from .density import DensityEstimate, abs_sym
from .geometry import Box
from .tensor import frob

MAX_GRID_PER_AXIS = 64  # memory cap: T * mesh_per_period


class HomogError(ValueError):
    pass


class FoldError(ValueError):
    pass


@dataclass(frozen=True)
class HomogSpec:
    """Periodic bulk integrand, symmetric strain, growing-cube schedule."""

    f0: Integrand
    A: np.ndarray
    T_schedule: tuple = (1, 2, 4)
    mesh_per_period: int = 16
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float).reshape(2, 2))
        if frob(self.A - self.A.T) > 1e-12:
            raise HomogError("A must be symmetric")
        Ts = tuple(int(t) for t in self.T_schedule)
        if any(t < 1 for t in Ts) or any(b <= a for a, b in zip(Ts, Ts[1:])):
            raise HomogError("T schedule must be increasing positive integers")
        object.__setattr__(self, "T_schedule", Ts)
        if self.mesh_per_period < 8:
            raise HomogError("mesh_per_period must be >= 8")
        if Ts[-1] * self.mesh_per_period > MAX_GRID_PER_AXIS:
            raise HomogError(
                f"T * mesh_per_period exceeds the {MAX_GRID_PER_AXIS} per-axis cap")


def fhom_dirichlet(spec: HomogSpec) -> DensityEstimate:
    """Normalized Dirichlet values on the cubes Q_T with affine data A y.

    Grids have T * mesh_per_period cells per axis so they stay aligned with
    the unit periodicity cell at every T. The affine datum forces a
    boundary layer whose cost decays like 1/T, so the reported
    extrapolation removes it with a two-point fit linear in 1/T (it
    degenerates to the last sample for a single-entry schedule).
    """

    def sample(T):
        cell = CellSpec(boundary=AffineData(spec.A, np.zeros(2)), mesh=T * spec.mesh_per_period,
                        box=Box.cube((0.0, 0.0), float(T)), solver=spec.solver)
        sol = solve_ld(cell, spec.f0)
        return T, sol.value / float(T) ** 2, sol.diagnostics

    est = DensityEstimate.from_samples(map(sample, spec.T_schedule))
    if len(est.samples) >= 2:
        (t1, f1), (t2, f2) = est.samples[-2:]
        s1, s2 = 1.0 / t1, 1.0 / t2
        est.extrapolated = f2 + s2 * (f2 - f1) / (s1 - s2)
        est.converged = abs(f2 - f1) <= max(1e-8, 0.1 * abs(est.extrapolated))
    return est


def fhom_periodic(spec: HomogSpec) -> float:
    """Periodic cell formula: minimize the mean of f0(x, A + e(w)) over
    zero-mean unit-periodic w (`cellsolver.solve_periodic` on the unit
    cell, with the multistarts of spec.solver). Stated for convex
    integrands only."""
    if not spec.f0.convex:
        raise HomogError("periodic formula requires convex integrand")
    cell = CellSpec(boundary=AffineData(spec.A, np.zeros(2)), mesh=spec.mesh_per_period,
                    box=Box((0.0, 0.0), (1.0, 1.0)), solver=spec.solver)
    return solve_periodic(cell, spec.f0).value


def make_periodic_competitor(mesh: int, jump_vec, eps: float, seed: int = 0) -> GridDisplacement:
    """A deterministic competitor on (0,1)^2 matching the folding trace
    convention: w(1, x2) - w(0, x2) = jump_vec / eps, periodic in x2."""
    rng = np.random.default_rng(seed)
    grid = Grid(Box((0.0, 0.0), (1.0, 1.0)), mesh)
    v = np.asarray(jump_vec, dtype=float).reshape(2)
    x = grid.nodes_ref
    vals = np.outer(x[:, 0], v / eps)  # linear ramp carrying the trace offset
    for k1, k2 in ((1, 0), (0, 1), (1, 1), (2, 1)):
        amp = 0.3 * rng.normal(size=2)
        vals += np.outer(np.sin(2 * np.pi * (k1 * x[:, 0] + k2 * x[:, 1])), amp)
    return GridDisplacement(grid=grid, values=vals)


def fold(w: GridDisplacement, j: int, eps: float, v, target_mesh: int | None = None) -> GridDisplacement:
    """Fold a periodic competitor on (0,1)^2 into j^2 rescaled copies:
    w_j(x) = (w(j x - floor(j x)) + floor(j x_1) v / eps) / j.

    The folded field oscillates at scale 1/(mesh * j), so it is returned on
    the j-times refined grid where its Q1 representation is exact. Requesting
    any other target mesh raises a grid/j mismatch error. The input must
    match traces: w(1, .) - w(0, .) = v / eps and w periodic across the
    horizontal faces.
    """
    if j < 1:
        raise FoldError("j must be >= 1")
    g = w.grid
    if not (np.allclose(g.box.lo, (0.0, 0.0)) and np.allclose(g.box.hi, (1.0, 1.0))
            and np.allclose(g.R, np.eye(2))):
        raise FoldError("fold expects an axis-aligned grid on (0,1)^2")
    v = np.asarray(v, dtype=float).reshape(2)
    N = g.mesh
    M = N * j
    if target_mesh is not None and target_mesh != M:
        raise FoldError("grid/j mismatch")
    vals = w.values.reshape(N + 1, N + 1, 2)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(vals[N, :, :] - vals[0, :, :] - v / eps)) > 1e-9 * scale:
        raise FoldError("traces do not match the jump-data convention")
    if np.max(np.abs(vals[:, N, :] - vals[:, 0, :])) > 1e-9 * scale:
        raise FoldError("field is not periodic across the horizontal faces")
    # fine index p lies in period k = max(p - 1, 0) // N at node p - N k:
    # a period boundary takes the left limit, node N of the earlier period
    p = np.arange(M + 1)
    k = np.maximum(p - 1, 0) // N
    node = p - N * k
    out = vals[node[:, None], node[None, :], :] / j + ((k / eps)[:, None] * v / j)[:, None, :]
    return GridDisplacement(grid=Grid(g.box, M), values=out.reshape((M + 1) ** 2, 2))


def fold_energy(w: GridDisplacement, f: Integrand) -> float:
    """Discrete bulk energy used in the folding identity (exact summation).

    x-independent integrands only: the identity compares energies of fields
    living on grids of different scales.
    """
    return raw_energy(w.grid, w.values, f, exact_sum=True)


def fold_emass(w: GridDisplacement) -> float:
    """Discrete |E .| mass of the field: the fold energy of |sym A|."""
    return fold_energy(w, abs_sym())
