"""Dense matrix algebra: the symmetric part, the Frobenius norm and the
symmetrized tensor product.

All matrix norms are Frobenius norms throughout the package.
"""

import numpy as np


def sym(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    return 0.5 * (A + A.swapaxes(-1, -2))


def frob(A) -> float | np.ndarray:
    """Frobenius norm; batched over leading axes."""
    A = np.asarray(A, dtype=float)
    return np.sqrt((A * A).sum(axis=(-2, -1)))


def odot(a, b) -> np.ndarray:
    """Symmetrized tensor product a (.) b = (a x b + b x a) / 2, batched."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("odot expects two vector stacks of equal shape")
    ab = a[..., :, None] * b[..., None, :]
    return 0.5 * (ab + ab.swapaxes(-1, -2))
