"""Independent Q1 reference evaluator for cell-solver outputs.

It shares no code with `bdrelax.cellsolver`: it walks the elements of the
uniform grid one by one, evaluates explicit bilinear shape functions at the
2x2 Gauss points and sums the weighted raw integrand with `math.fsum`. The
only program code it calls is the integrand's own pointwise `raw` density.

Node numbering follows the solver's documented layout: node (i, j) of an
m-cell grid is `i * (m + 1) + j`, with i counting along the first reference
axis. Physical points are x = R x_ref for the orthonormal frame R.
"""

import math

import numpy as np

_G = 0.5 / math.sqrt(3.0)
GAUSS = (0.5 - _G, 0.5 + _G)  # 2-point Gauss abscissae on [0, 1]


def _frame(frame):
    if frame is None:
        return ((1.0, 0.0), (0.0, 1.0))
    R = np.asarray(frame, dtype=float).reshape(2, 2)
    return ((float(R[0, 0]), float(R[0, 1])), (float(R[1, 0]), float(R[1, 1])))


def _phys(R, xr, yr):
    return (R[0][0] * xr + R[0][1] * yr, R[1][0] * xr + R[1][1] * yr)


def q1_raw_energy(lo, hi, mesh, frame, values, raw, freeze_x=None) -> float:
    """sum over elements and Gauss points of w * raw(x, v, grad v).

    `values` holds the nodal field, shape ((mesh+1)**2, 2); `raw` is the
    integrand's batched raw density (X (n,2), V (n,2), A (n,2,2)) -> (n,).
    """
    m = int(mesh)
    R = _frame(frame)
    hx = (float(hi[0]) - float(lo[0])) / m
    hy = (float(hi[1]) - float(lo[1])) / m
    U = [(float(a), float(b)) for a, b in np.asarray(values, dtype=float).reshape(-1, 2)]
    if len(U) != (m + 1) ** 2:
        raise ValueError("field does not match the grid")
    xs, vs, gs = [], [], []
    for ex in range(m):
        for ey in range(m):
            n00 = U[ex * (m + 1) + ey]
            n10 = U[(ex + 1) * (m + 1) + ey]
            n01 = U[ex * (m + 1) + ey + 1]
            n11 = U[(ex + 1) * (m + 1) + ey + 1]
            for s in GAUSS:
                for t in GAUSS:
                    N = ((1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t)
                    dNs = (-(1 - t) / hx, (1 - t) / hx, -t / hx, t / hx)
                    dNt = (-(1 - s) / hy, -s / hy, (1 - s) / hy, s / hy)
                    corners = (n00, n10, n01, n11)
                    v = [sum(N[a] * corners[a][k] for a in range(4)) for k in range(2)]
                    # reference gradient dU_k / dxi_i, then the physical one
                    gr = [[sum(dNs[a] * corners[a][k] for a in range(4)),
                           sum(dNt[a] * corners[a][k] for a in range(4))] for k in range(2)]
                    g = [[gr[k][0] * R[j][0] + gr[k][1] * R[j][1] for j in range(2)]
                         for k in range(2)]
                    xr = float(lo[0]) + (ex + s) * hx
                    yr = float(lo[1]) + (ey + t) * hy
                    xs.append(freeze_x if freeze_x is not None else _phys(R, xr, yr))
                    vs.append(v)
                    gs.append(g)
    vals = raw(np.array(xs, dtype=float), np.array(vs, dtype=float), np.array(gs, dtype=float))
    w = hx * hy / 4.0
    return math.fsum(w * float(v) for v in np.asarray(vals, dtype=float))


def node_positions(lo, hi, mesh, frame):
    """Physical positions of all nodes, in node order."""
    m = int(mesh)
    R = _frame(frame)
    hx = (float(hi[0]) - float(lo[0])) / m
    hy = (float(hi[1]) - float(lo[1])) / m
    return np.array([_phys(R, float(lo[0]) + i * hx, float(lo[1]) + j * hy)
                     for i in range(m + 1) for j in range(m + 1)])


def boundary_gap(lo, hi, mesh, frame, values, datum) -> float:
    """Largest distance between the field and the boundary datum on the
    boundary nodes. `datum(x)` returns the admissible values at x: one
    value, or both traces where x lies on a datum discontinuity."""
    m = int(mesh)
    U = np.asarray(values, dtype=float).reshape(-1, 2)
    X = node_positions(lo, hi, mesh, frame)
    worst = 0.0
    for i in range(m + 1):
        for j in range(m + 1):
            if i in (0, m) or j in (0, m):
                k = i * (m + 1) + j
                gap = min(math.hypot(U[k, 0] - a, U[k, 1] - b) for a, b in datum(X[k]))
                worst = max(worst, gap)
    return worst


def affine_datum(A, v0):
    A = np.asarray(A, dtype=float).reshape(2, 2)
    v0 = np.asarray(v0, dtype=float).reshape(2)

    def datum(x):
        return [(A[0, 0] * x[0] + A[0, 1] * x[1] + v0[0], A[1, 0] * x[0] + A[1, 1] * x[1] + v0[1])]

    return datum


def jump_datum(v_minus, v_plus, nu, tol=1e-9):
    vm = tuple(float(a) for a in v_minus)
    vp = tuple(float(a) for a in v_plus)
    n = tuple(float(a) for a in nu)

    def datum(x):
        s = x[0] * n[0] + x[1] * n[1]
        if abs(s) <= tol:
            return [vm, vp]
        return [vp] if s > 0 else [vm]

    return datum
