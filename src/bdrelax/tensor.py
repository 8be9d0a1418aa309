"""Dense matrix algebra: the symmetric part, the Frobenius norm and the
symmetrized tensor product.

All matrix norms are Frobenius norms throughout the package. The 2x2 stacks
of the cell solvers take component forms that give the bits of the general
forms at a fraction of their numpy overhead.
"""

import numpy as np


def sym(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (2, 2):
        return 0.5 * (A + A.swapaxes(-1, -2))
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    S = np.empty(A.shape)
    S[..., 0, 0] = 0.5 * (a00 + a00)  # a, or inf where 2a overflows, as in the general form
    S[..., 0, 1] = S[..., 1, 0] = 0.5 * (a01 + a10)
    S[..., 1, 1] = 0.5 * (a11 + a11)
    return S


def frob_sq(A) -> np.ndarray:
    """Squared Frobenius norm of a (..., 2, 2) stack, summed as
    ((a00^2 + a01^2) + a10^2) + a11^2: the order of numpy's
    sum(axis=(-2, -1)) over a C-ordered stack, so the bits are the same."""
    A = np.asarray(A, dtype=float)
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    return a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11


def frob(A) -> float | np.ndarray:
    """Frobenius norm; batched over leading axes."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] == (2, 2):
        return np.sqrt(frob_sq(A))
    return np.sqrt((A * A).sum(axis=(-2, -1)))


def odot(a, b) -> np.ndarray:
    """Symmetrized tensor product a (.) b = (a x b + b x a) / 2, batched."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("odot expects two vector stacks of equal shape")
    ab = a[..., :, None] * b[..., None, :]
    return 0.5 * (ab + ab.swapaxes(-1, -2))
