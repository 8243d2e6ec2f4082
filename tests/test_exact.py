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


def dense_rank(mat):
    mat = np.asarray(mat)
    return exact.rank(exact.dense_triplets(mat), mat.shape)


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
        assert dense_rank(mat) == cols - nullity


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
    assert dense_rank(np.zeros((0, 3), int)) == 0
    assert dense_rank(np.zeros((3, 0), int)) == 0


def test_elimination_leaves_rows_unchanged():
    mat = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 3]])
    rows = sparse_rows(mat)
    before = [dict(r) for r in rows]
    exact.kernel(rows, 3)
    exact.echelon(rows)
    assert rows == before
    # the triplets that rank and independent read are not modified either
    for shape in (mat.shape, (3, 4), (4, 3)):
        triplets = exact.dense_triplets(np.pad(mat, [(0, shape[0] - 3),
                                                     (0, shape[1] - 3)]))
        kept = [a.copy() for a in triplets]
        exact.rank(triplets, shape)
        assert all(map(np.array_equal, triplets, kept))


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


def check_subset_kernel(rows, ncols, chosen, full):
    """exact.kernel of the free columns ``chosen`` alone is the columns
    of the full kernel ``full`` at them, renumbered in order, with the
    same values, int64 exactly when they all fit."""
    (r, c, v), free = full
    (rs, cs, vs), fs = exact.kernel(rows, ncols, free=chosen)
    assert fs.dtype == np.int64 and fs.tolist() == list(chosen)
    at = {f: i for i, f in enumerate(free.tolist())}
    renumber = {at[f]: j for j, f in enumerate(chosen)}
    pick = np.isin(c, list(renumber))
    assert rs.tolist() == r[pick].tolist()
    assert cs.tolist() == [renumber[x] for x in c[pick].tolist()]
    assert vs.tolist() == v[pick].tolist()
    fits = all(-2**63 <= x < 2**63 for x in vs.tolist())
    assert vs.dtype == (np.int64 if fits else object)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(integer_rows(), st.data())
def test_subset_kernel_is_the_full_kernels_columns(case, data):
    """For any increasing subset of the free columns, among them none and
    every one, the kernel of those columns alone equals the full kernel's
    columns at them, and leaves the caller's rows unchanged."""
    rows, ncols = case
    before = copy.deepcopy(rows)
    full = exact.kernel(rows, ncols)
    free = full[1].tolist()
    mask = data.draw(st.lists(st.booleans(), min_size=len(free),
                              max_size=len(free)))
    chosen = [f for f, keep in zip(free, mask) if keep]
    for subset in ([], free, chosen):
        check_subset_kernel(rows, ncols, subset, full)
    assert rows == before


def test_subset_kernel_past_int64():
    """A subset kernel keeps Python ints (object dtype) where its own
    values pass int64, and int64 where they fit though the full kernel's
    do not: column n has entries 2^k up to 2^69, column n + 1 is small."""
    n = 69
    rows = [{i: 2, i + 1: -1} for i in range(n)]
    rows[0][n + 1] = 1
    full = exact.kernel(rows, n + 2)
    assert full[1].tolist() == [n, n + 1] and full[0][2].dtype == object
    for subset in ([], [n], [n + 1], [n, n + 1]):
        check_subset_kernel(rows, n + 2, subset, full)
    assert exact.kernel(rows, n + 2, free=[n])[0][2].dtype == object
    assert exact.kernel(rows, n + 2, free=[n + 1])[0][2].dtype == np.int64


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
        assert dense_rank(mat) == sympy.Matrix(mat.tolist()).rank()
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
        assert dense_rank(mat) == sympy.Matrix(mat.tolist()).rank()
        assert dense_rank(mat.T) == sympy.Matrix(mat.tolist()).rank()


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


@st.composite
def integer_matrices(draw):
    """Sparse integer matrices, wide, tall or square, empty or of rank 0
    included: some rows, then some columns, are combinations of two
    before them, so both orientations have dependent lines."""
    kind = draw(st.sampled_from(["wide", "tall", "square", "empty",
                                 "zero"]))
    a, b = sorted(draw(st.integers(1, 9)) for _ in range(2))
    shape = {"wide": (a, b + 1), "tall": (b + 1, a), "square": (a, a),
             "empty": draw(st.sampled_from([(0, a), (a, 0), (0, 0)])),
             "zero": (a, b)}[kind]
    entry = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3])
    mat = np.array(draw(st.lists(entry, min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1])),
                   np.int64).reshape(shape)
    if kind == "zero":
        mat[...] = 0
    for axis in (0, 1):
        view = mat if axis == 0 else mat.T
        for i in range(2, len(view)):
            if draw(st.booleans()):
                j, k = (draw(st.integers(0, i - 1)) for _ in range(2))
                view[i] = draw(entry) * view[j] + draw(entry) * view[k]
    return mat


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(integer_matrices())
def test_short_orientation_keeps_rows_and_columns(mat):
    """``independent`` eliminates the short orientation, yet gives the R
    and C that the elimination of the rows in order gives: the kept rows
    and the sorted pivot columns."""
    kept, pivots = exact.echelon(exact.dense_rows(mat))
    got = exact.independent(exact.dense_triplets(mat), mat.shape)
    assert got == (kept, sorted(pivots))
    assert dense_rank(mat) == len(kept) == dense_rank(mat.T)
