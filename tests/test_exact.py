import numpy as np
import sympy

from ddforms import exact


def sparse_rows(mat):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in mat]


def test_kernel_matches_sympy_nullity():
    rng = np.random.default_rng(11)
    for trial in range(300):
        rows, cols = rng.integers(1, 9, size=2)
        mat = rng.integers(-3, 4, size=(rows, cols))
        mat *= rng.random((rows, cols)) < 0.6
        if trial % 3 == 0 and rows > 2:
            # force a dependent row
            mat[-1] = 2 * mat[0] - mat[1]
        K = exact.kernel(sparse_rows(mat), cols)
        nullity = cols - sympy.Matrix(mat.tolist()).rank()
        assert K.shape == (cols, nullity)
        assert not np.any(mat @ K)
        assert exact.rank(sparse_rows(mat)) == cols - nullity


def test_kernel_basis_is_integral_and_independent():
    # a boundary-like matrix with a non-unit pivot
    mat = np.array([[2, 1, 0, 1], [0, 3, 3, 0], [2, 4, 3, 1]])
    K = exact.kernel(sparse_rows(mat), 4)
    assert K.dtype == np.int64
    assert not np.any(mat @ K)
    assert np.linalg.matrix_rank(K) == K.shape[1] == 2


def test_kernel_of_no_rows_is_identity():
    assert np.array_equal(exact.kernel([], 3), np.eye(3, dtype=np.int64))
    assert exact.kernel([{}, {}], 2).shape == (2, 2)
    assert exact.rank([]) == 0


def test_elimination_leaves_rows_unchanged():
    rows = sparse_rows(np.array([[1, 2, 0], [2, 4, 1], [0, 0, 3]]))
    before = [dict(r) for r in rows]
    exact.kernel(rows, 3)
    exact.rank(rows)
    assert rows == before
