import copy

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ddforms import exact

from conftest import dense
from reference import fresh_echelon, fresh_kernel


def sparse_rows(mat):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in mat]


def dense_kernel(rows, ncols):
    """exact.kernel as a dense basis and its free columns, after checking
    that its triplets list distinct nonzero entries sorted by row, then
    column, and round-trip through a dense reference."""
    (r, c, v), free = exact.kernel(rows, ncols)
    assert r.dtype == c.dtype == np.int64 and len(r) == len(c) == len(v)
    key = r * max(len(free), 1) + c
    assert np.all(np.diff(key) > 0) and all(x != 0 for x in v)
    K = dense((r, c, v), (ncols, len(free)))
    back = exact.dense_triplets(K)
    assert all(np.array_equal(a, b) for a, b in zip(back, (r, c, v)))
    return K, free


def test_kernel_matches_sympy_nullity():
    rng = np.random.default_rng(11)
    for trial in range(300):
        rows, cols = rng.integers(1, 9, size=2)
        mat = rng.integers(-3, 4, size=(rows, cols))
        mat *= rng.random((rows, cols)) < 0.6
        if trial % 3 == 0 and rows > 2:
            # force a dependent row
            mat[-1] = 2 * mat[0] - mat[1]
        K, free = dense_kernel(sparse_rows(mat), cols)
        nullity = cols - sympy.Matrix(mat.tolist()).rank()
        assert K.shape == (cols, nullity)
        assert not np.any(mat @ K)
        assert len(free) == nullity
        # the basis is diagonal, with positive entries, on the free columns
        diag = K[free]
        assert np.array_equal(diag, np.diag(np.diag(diag)))
        assert np.all(np.diag(diag) > 0)
        assert exact.rank(sparse_rows(mat)) == cols - nullity


def test_kernel_basis_is_integral_and_independent():
    # a boundary-like matrix with a non-unit pivot
    mat = np.array([[2, 1, 0, 1], [0, 3, 3, 0], [2, 4, 3, 1]])
    K, _free = dense_kernel(sparse_rows(mat), 4)
    assert K.dtype == np.int64
    assert not np.any(mat @ K)
    assert np.linalg.matrix_rank(K) == K.shape[1] == 2


def test_kernel_of_no_rows_is_identity():
    K, free = dense_kernel([], 3)
    assert np.array_equal(K, np.eye(3, dtype=np.int64))
    assert list(free) == [0, 1, 2]
    assert dense_kernel([{}, {}], 2)[0].shape == (2, 2)
    (rows, cols, vals), free = exact.kernel([{0: 1, 1: 1}, {}], 2)
    assert [rows.tolist(), cols.tolist(), vals.tolist()] == \
        [[0, 1], [0, 0], [-1, 1]]
    assert free.tolist() == [1]
    assert all(len(x) == 0 for x in exact.kernel([{0: 1}], 1)[0])
    assert exact.rank([]) == 0


def test_elimination_leaves_rows_unchanged():
    rows = sparse_rows(np.array([[1, 2, 0], [2, 4, 1], [0, 0, 3]]))
    before = [dict(r) for r in rows]
    exact.kernel(rows, 3)
    exact.rank(rows)
    exact.echelon(rows)
    assert rows == before


@st.composite
def integer_rows(draw):
    """Sparse integer rows, some with non-unit entries, some combinations
    of two rows before them, and some with a +-1 entry at the leading
    column of a row before them, which displaces a non-unit pivot."""
    ncols = draw(st.integers(1, 8))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -4, 6])
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["sparse", "combination", "unit lead"]))
        if kind == "combination" and len(rows) >= 2:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            a, b = draw(entry), draw(entry)
            row = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0)
                   for c in rows[i].keys() | rows[j].keys()}
            row = {c: v for c, v in sorted(row.items()) if v}
        else:
            row = draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                       max_size=4))
            if kind == "unit lead" and rows and rows[-1]:
                lead = min(rows[-1])
                row = {c: v for c, v in row.items() if c > lead}
                row[lead] = draw(st.sampled_from([1, -1]))
        rows.append(row)
    return rows, ncols


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(integer_rows())
def test_in_place_elimination_equals_fresh_rows(case):
    """The in-place row steps keep the same rows, build the same pivot
    dicts and the same kernel triplets as the elimination that builds a
    new dict at every step, and leave the caller's rows unchanged."""
    rows, ncols = case
    before = copy.deepcopy(rows)
    assert exact.echelon(rows) == fresh_echelon(before)
    (r, c, v), free = exact.kernel(rows, ncols)
    (r0, c0, v0), free0 = fresh_kernel(before, ncols)
    assert v.dtype == v0.dtype
    for x, y in ((r, r0), (c, c0), (v, v0), (free, free0)):
        assert x.tolist() == y.tolist()
    assert rows == before


def test_displaced_pivot_is_copied():
    """A +-1 row displaces the non-unit pivot of its leading column, which
    is then reduced in a copy: the caller's dict keeps its entries."""
    first, second = {0: 2, 1: 1}, {0: 1, 2: 1}
    kept, pivots = exact.echelon([first, second])
    assert kept == [0, 1]
    assert pivots == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -2}}
    assert pivots[0] is second
    assert first == {0: 2, 1: 1} and second == {0: 1, 2: 1}
    exact.kernel([first, second], 3)
    assert first == {0: 2, 1: 1} and second == {0: 1, 2: 1}


def test_rank_matches_sympy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.integers(-3, 4, size=rng.integers(1, 7, size=2))
        assert exact.rank(exact.dense_rows(mat)) == \
            sympy.Matrix(mat.tolist()).rank()
    # larger sparse boundary-like matrices: a few +-1 (sometimes +-2)
    # entries per column, some columns combinations of others
    for trial in range(6):
        rows, cols = 30 + 3 * trial, 40 - 2 * trial
        mat = np.zeros((rows, cols), dtype=int)
        for j in range(cols):
            idx = rng.choice(rows, size=3, replace=False)
            mat[idx, j] = rng.choice([-1, 1, 1, 2], size=3) * \
                rng.choice([-1, 1], size=3)
        for j in rng.choice(cols, size=8, replace=False):
            a, b = rng.choice(cols, size=2, replace=False)
            mat[:, j] = mat[:, a] - 2 * mat[:, b]
        assert exact.rank(exact.dense_rows(mat)) == \
            sympy.Matrix(mat.tolist()).rank()


def test_kernel_past_int64_stays_exact():
    # rows 2 x_i - x_(i+1) = 0: the kernel is (1, 2, 4, ..., 2^69)
    n = 69
    rows = [{i: 2, i + 1: -1} for i in range(n)]
    K, free = dense_kernel(rows, n + 1)
    assert list(free) == [n]
    assert K.dtype == object and K.shape == (n + 1, 1)
    assert [int(x) for x in K[:, 0]] == [2 ** i for i in range(n + 1)]
    A = np.zeros((n, n + 1), dtype=np.int64)
    for i, r in enumerate(rows):
        for j, v in r.items():
            A[i, j] = v
    assert all(x == 0 for x in (A @ K).ravel())
    # a short chain stays int64
    assert dense_kernel(rows[:10], 11)[0].dtype == np.int64


def test_independent_rows_match_sympy_ranks():
    rng = np.random.default_rng(5)
    for _trial in range(100):
        mat = rng.integers(-2, 3, size=rng.integers(1, 9, size=2))
        mat *= rng.random(mat.shape) < 0.5
        if len(mat) > 2:
            mat[-1] = mat[0] - 3 * mat[1]
        keep, pivots = exact.echelon(exact.dense_rows(mat))
        for i in range(len(mat) + 1):
            # a row is kept exactly when it raises the rank of those before
            head = sympy.Matrix(mat[:i].tolist()).rank() if i else 0
            assert sum(j < i for j in keep) == head
        assert len(keep) == sympy.Matrix(mat.tolist()).rank()
        # a column leads a pivot row exactly when it raises the rank of
        # the columns before it
        ranks = [sympy.Matrix(mat[:, :j].tolist()).rank() if j else 0
                 for j in range(mat.shape[1] + 1)]
        assert sorted(pivots) == [j for j in range(mat.shape[1])
                                  if ranks[j + 1] > ranks[j]]


def test_dense_and_triplet_rows_agree():
    mat = np.array([[0, 3, 0], [0, 0, 0], [-1, 0, 2]])
    rows = exact.dense_rows(mat)
    assert rows == [{1: 3}, {}, {0: -1, 2: 2}]
    i, j = np.nonzero(mat)
    assert exact.triplet_rows(i, j, mat[i, j], 3) == rows
    assert all(type(v) is int for r in rows for v in r.values())


def python_int_product(a, b, shape):
    """The product of two triplet matrices, summed in Python ints."""
    out = [[0] * shape[1] for _ in range(shape[0])]
    for i, c, v in zip(*(np.asarray(x).tolist() for x in a)):
        for cc, j, w in zip(*(np.asarray(x).tolist() for x in b)):
            if cc == c:
                out[i][j] += int(v) * int(w)
    return out


def dense_product(a, b, shape):
    """exact.product as a dense list of Python ints, after checking that
    it lists nonzero entries in row-major order."""
    rows, cols, vals = exact.product(a, b, shape)
    key = rows * shape[1] + cols
    assert np.all(np.diff(key) > 0) and all(v != 0 for v in vals)
    out = [[0] * shape[1] for _ in range(shape[0])]
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        out[i][j] = v
    return out


def shuffled(triplets, rng):
    order = rng.permutation(len(triplets[0]))
    return tuple(np.asarray(x)[order] for x in triplets)


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_product_matches_python_ints(big):
    """The segment-summed sparse product equals a Python-int product:
    random triplets with repeated rows and columns against a sparse B given
    in shuffled row order, in int64, and with entries near 2^40, where a
    sum of int64 terms could overflow, in Python ints.  The product with
    an exact kernel basis of A, also shuffled, vanishes."""
    rng = np.random.default_rng(3)
    nrows, inner, ncols, nnz = 17, 23, 9, 60
    for _trial in range(5):
        cells = rng.choice(nrows * inner, nnz, replace=False)
        rows, cols = np.divmod(cells, inner)
        rows[: nnz // 2] = rng.integers(0, 3, nnz // 2)
        order = np.unique(rows * inner + cols, return_index=True)[1]
        rows, cols = rows[order], cols[order]
        vals = rng.integers(-5, 6, len(rows))
        B = rng.integers(-3, 4, (inner, ncols)) * (rng.random((inner, ncols))
                                                   < 0.2)
        if big:
            vals = vals.astype(object) * 2 ** 40 + 1
            B = B.astype(object) * 2 ** 40 - 7 * (B != 0)
        a = (rows, cols, vals)
        b = shuffled(exact.dense_triplets(B), rng)
        assert exact.product(a, b, (nrows, ncols))[2].dtype == \
            (object if big else np.int64)
        assert dense_product(a, b, (nrows, ncols)) == \
            python_int_product(a, b, (nrows, ncols))
        nz = vals != 0
        k, free = exact.kernel(exact.triplet_rows(rows[nz], cols[nz],
                                                  vals[nz], nrows), inner)
        assert len(free) > 0
        k = shuffled(k, rng)
        assert not any(map(len, exact.product(a, k, (nrows, len(free)))))


def test_product_degenerate():
    """Empty triplets on either side and a B with no columns give an empty
    product; a generic product equals the Python-int reference."""
    rows, cols, vals = (np.array([0, 2, 2]), np.array([1, 0, 3]),
                        np.array([4, -1, 2]))
    none = (np.zeros(0, np.int64),) * 3
    b = exact.dense_triplets(np.arange(8).reshape(4, 2))
    for x, y, shape in ((none, b, (3, 2)), ((rows, cols, vals), none, (3, 2)),
                        ((rows, cols, vals), none, (3, 0))):
        assert not any(map(len, exact.product(x, y, shape)))
    assert dense_product((rows, cols, vals), b, (3, 2)) == \
        python_int_product((rows, cols, vals), b, (3, 2))
