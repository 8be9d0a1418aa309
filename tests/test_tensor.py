import numpy as np
import pytest

from bdrelax.tensor import frob, odot, sym


def test_split_identity():
    assert np.array_equal(sym(np.eye(2)), np.eye(2))
    assert np.array_equal(np.eye(2) - sym(np.eye(2)), np.zeros((2, 2)))


def test_split_printed_example():
    # (A0 + A0^t)/2 = Id with skew rotation generator left over
    A0 = np.array([[1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(sym(A0), np.eye(2))
    assert np.array_equal(A0 - sym(A0), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_split_reconstruction_and_projection():
    # A = sym A + (A - sym A), and sym projects: it fixes symmetric
    # matrices and annihilates skew ones
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n))
        S, W = sym(A), A - sym(A)
        assert np.allclose(S + W, A, atol=0)
        assert np.allclose(S, S.T, atol=0)
        assert np.allclose(W, -W.T, atol=0)
        assert np.array_equal(sym(S), S)
        assert np.array_equal(sym(W), np.zeros((n, n)))


def test_odot_values():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert np.array_equal(odot(e1, e2), np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert frob(odot(e1, e2)) == pytest.approx(2 ** -0.5, abs=0)
    assert np.array_equal(odot(e1, e1), np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert frob(odot(e1, e1)) == 1.0


def test_odot_symmetric_in_arguments():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert np.array_equal(odot(a, b), odot(b, a))


def test_odot_batched_matches_pairwise_outer():
    # a stack of pairs gives the stack of the seed's per-pair outer form, bit for bit
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(256, 2)), rng.normal(size=(256, 2))
    pairwise = np.array([0.5 * (np.outer(x, y) + np.outer(y, x)) for x, y in zip(a, b)])
    assert np.array_equal(odot(a, b), pairwise)
    assert np.array_equal(odot(a.reshape(16, 16, 2), b.reshape(16, 16, 2)),
                          pairwise.reshape(16, 16, 2, 2))
    with pytest.raises(ValueError, match="equal shape"):
        odot(a, b[:1])
