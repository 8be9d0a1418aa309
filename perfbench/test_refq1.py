"""Closed-form checks of the reference Q1 evaluator.

Run with `python3 -m pytest perfbench` (or `python3 perfbench/test_refq1.py`)
from the repository root.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refq1  # noqa: E402


def abs_sym_raw(X, V, A):
    S = 0.5 * (A + np.swapaxes(A, -1, -2))
    return np.sqrt((S * S).sum(axis=(-2, -1)))


def v_weighted_raw(X, V, A):
    """(1 + |v|^2) |sym A|: checks that the nodal values enter correctly."""
    return (1.0 + (V * V).sum(axis=-1)) * abs_sym_raw(X, V, A)


def nodes(lo, hi, m, R):
    h = ((hi[0] - lo[0]) / m, (hi[1] - lo[1]) / m)
    ref = np.array([(lo[0] + i * h[0], lo[1] + j * h[1])
                    for i in range(m + 1) for j in range(m + 1)])
    return ref @ R.T


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_affine_field_energy_is_exact():
    A = np.array([[0.7, -0.2], [0.4, -0.3]])
    v0 = np.array([0.1, -0.5])
    for lo, hi, m, R in (((-0.5, -0.5), (0.5, 0.5), 8, np.eye(2)),
                         ((-2.0, -2.0), (2.0, 2.0), 6, np.eye(2)),
                         ((-0.5, -0.5), (0.5, 0.5), 5, rotation(0.3))):
        X = nodes(lo, hi, m, R)
        U = X @ A.T + v0
        area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        S = 0.5 * (A + A.T)
        target = area * math.sqrt(float((S * S).sum()))
        got = refq1.q1_raw_energy(lo, hi, m, R, U, abs_sym_raw)
        assert abs(got - target) <= 1e-12 * target
        assert refq1.boundary_gap(lo, hi, m, R, U, refq1.affine_datum(A, v0)) <= 1e-14


def test_constant_field_weights_nodal_values():
    lo, hi, m = (-0.5, -0.5), (0.5, 0.5), 4
    X = nodes(lo, hi, m, np.eye(2))
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    U = X @ A.T + np.array([0.0, 2.0])
    # v = (x1, 2): the weight 1 + x1^2 + 4 integrates to 5 + 1/12 exactly,
    # and Gauss points integrate the quadratic x1^2 exactly on each element
    got = refq1.q1_raw_energy(lo, hi, m, None, U, v_weighted_raw)
    assert abs(got - (5.0 + 1.0 / 12.0)) <= 1e-12


def test_jump_field_energy_is_the_dyad_norm():
    """The Q1 interpolant of a two-constant datum across the plane x . nu = 0
    ramps over one element layer: the energy is |dv (.) nu| exactly."""
    for dv, theta in (((0.0, 1.0), 0.0), ((1.0, 0.0), 0.0), ((0.3, -0.8), 0.7)):
        R = rotation(theta)
        nu = R[:, 0]
        lo, hi, m = (-0.5, -0.5), (0.5, 0.5), 8
        ref = nodes(lo, hi, m, np.eye(2))
        # nodes with x_ref[0] >= 0 carry v+, the rest v-
        U = np.where(ref[:, :1] >= -1e-12, np.asarray(dv)[None, :], 0.0)
        d = np.asarray(dv)
        M = 0.5 * (np.outer(d, nu) + np.outer(nu, d))
        target = math.sqrt(float((M * M).sum()))
        got = refq1.q1_raw_energy(lo, hi, m, R, U, abs_sym_raw)
        assert abs(got - target) <= 1e-12
        datum = refq1.jump_datum((0.0, 0.0), dv, nu)
        assert refq1.boundary_gap(lo, hi, m, R, U, datum) <= 1e-12


def test_boundary_gap_sees_a_moved_node():
    lo, hi, m = (-0.5, -0.5), (0.5, 0.5), 4
    A = np.eye(2)
    U = nodes(lo, hi, m, np.eye(2)) @ A.T
    U[0] += (0.0, 1e-3)  # node (0, 0) is a corner
    assert abs(refq1.boundary_gap(lo, hi, m, None, U, refq1.affine_datum(A, (0, 0))) - 1e-3) < 1e-15


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
