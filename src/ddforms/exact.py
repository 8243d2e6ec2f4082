"""Exact linear algebra over the integers on sparse matrices.

The elimination takes a matrix by its rows, each a {column: value} dict of
its nonzero integer entries.  One fraction-free elimination serves the
rank, the independent rows and columns and the kernel, so none depends on
a floating-point threshold.  Its one row step, ``_reduce``, works in place
on a row the elimination owns, a copy of the caller's taken at its first
reduction, and takes a gcd only at a non-unit pivot; the caller's rows
are never modified.  The product takes two matrices as triplets
(rows, cols, vals) of their nonzero entries.
"""

from __future__ import annotations

import math

import numpy as np


def _reduce(r, p, c):
    """Reduce the row r by the pivot row p at column c, in place:
    r <- pv * r - f * p, f = r[c] and pv = p[c] reduced by their gcd, so
    the entry at c cancels; divided by its content when pv is not a unit.
    A +-1 pivot takes no gcd (g = 1) and no content division."""
    f, pv = r[c], p[c]
    if abs(pv) != 1:
        g = math.gcd(f, pv)
        f, pv = f // g, pv // g
    if pv != 1:
        for cc in r:
            r[cc] *= pv
    for cc, v in p.items():
        x = r.get(cc, 0) - f * v
        if x:
            r[cc] = x
        else:
            r.pop(cc, None)
    if abs(pv) != 1 and r:
        g = math.gcd(*r.values())
        if g > 1:
            for cc in r:
                r[cc] //= g


def triplet_rows(rows, cols, vals, nrows):
    """The rows of an integer matrix given as triplets with distinct
    (row, col) pairs, as {column: value} dicts."""
    out = [{} for _ in range(nrows)]
    for i, j, v in zip(*(np.asarray(a).tolist() for a in (rows, cols, vals))):
        out[i][j] = v
    return out


def dense_triplets(mat):
    """The triplets (rows, cols, vals) of the nonzero entries of a dense
    integer array, in row-major order."""
    i, j = np.nonzero(mat)
    return i, j, mat[i, j]


def dense_rows(mat):
    """The rows of a dense integer array as {column: value} dicts."""
    mat = np.asarray(mat)
    return triplet_rows(*dense_triplets(mat), len(mat))


def rank(rows):
    """Exact rank of integer rows."""
    return len(echelon(rows)[0])


def echelon(rows):
    """The rows that raise the rank of those before them and the pivots,
    {leading column: pivot row}, whose sorted leading columns are likewise
    the first maximal independent subset of the columns.

    Each row is reduced by the pivots until it is zero or leads a new
    column, with +-1 pivots preferred: a +-1 row takes the place of a
    non-unit pivot, which is reduced in its stead.  A row is copied at its
    first reduction, a displaced pivot again, and then reduced in place,
    so the caller's rows are never modified; a row that leads a new column
    untouched is kept as it is."""
    pivots = {}
    kept = []
    for i, r in enumerate(rows):
        own = False
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                kept.append(i)
                break
            if abs(p[c]) != 1 and abs(r[c]) == 1:
                # the displaced pivot may be the caller's row
                pivots[c], r, p = r, p, r
                own = False
            if not own:
                r, own = dict(r), True
            _reduce(r, p, c)
    return kept, pivots


def kernel(rows, ncols):
    """An integer basis K of {x : A x = 0}, of shape (ncols, nullity), as
    triplets (rows, cols, vals) sorted by row, then column, and its free
    columns f, increasing.  The values are int64 when every one fits, else
    Python ints (object dtype).

    Back-substitution brings the echelon rows to reduced form, each pivot
    row reduced in place in a copy of it by the pivots after it.  Column i
    belongs to f[i]: K[f[i], i] is the least positive integer that makes
    every pivot entry integral, other free entries are zero."""
    pivots = echelon(rows)[1]
    for c in sorted(pivots, reverse=True):
        above = [cc for cc in pivots[c] if cc != c and cc in pivots]
        if above:
            r = pivots[c] = dict(pivots[c])
            for cc in above:
                _reduce(r, pivots[cc], cc)
    free = {f: i for i, f in enumerate(j for j in range(ncols)
                                       if j not in pivots)}
    scale = [1] * len(free)
    for c, r in pivots.items():
        for f, v in r.items():
            if f != c:
                scale[free[f]] = math.lcm(scale[free[f]],
                                          abs(r[c]) // math.gcd(r[c], v))
    entries = [(f, i, scale[i]) for f, i in free.items()]
    entries += [(c, free[f], -v * scale[free[f]] // r[c])
                for c, r in pivots.items() for f, v in r.items() if f != c]
    entries.sort()
    vals = [v for _c, _i, v in entries]
    fits = all(-2**63 <= v < 2**63 for v in vals)
    triplets = (np.array([c for c, _i, _v in entries], np.int64),
                np.array([i for _c, i, _v in entries], np.int64),
                np.array(vals, np.int64 if fits else object))
    return triplets, np.fromiter(free, np.int64, len(free))


def _order(keys):
    """The permutation that sorts integer keys, by Python's sort: numpy's
    would page in a few hundred KB of sort code, more than the few
    thousand keys here are worth."""
    keys = np.asarray(keys).tolist()
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), np.intp)


def product(a, b, shape):
    """The nonzero entries of A B as triplets (rows, cols, vals), in
    row-major order, for integer matrices A and B given as triplets with
    distinct (row, col) pairs in any order; ``shape`` is that of A B.  The
    sums are taken in int64 when none can reach 2^62, else in Python ints
    (object dtype).

    Each triplet (i, c, v) of A meets each triplet (c, j, w) of B in one
    term v * w of entry (i, j).  Sorted by row, the triplets of row c of B
    are one run; the terms are sorted by entry and each entry is summed
    once, over its segment."""
    (ar, ac, av), (br, bc, bv) = ([np.asarray(x) for x in m] for m in (a, b))
    va, vb = (float(np.abs(v).max(initial=0)) for v in (av, bv))
    dtype = np.int64 if len(av) * va * vb < 2.0 ** 62 else object
    by_row = _order(br)
    br, bc, bv = br[by_row], bc[by_row], bv[by_row]
    start = np.searchsorted(br, ac)
    count = np.searchsorted(br, ac, side="right") - start
    # term t joins triplet pick[t] of A with triplet
    # start[pick[t]] + (t - first term of pick[t]) of B
    pick = np.repeat(np.arange(len(av)), count)
    nz = (start - np.cumsum(count) + count)[pick] + np.arange(len(pick))
    key = ar[pick] * shape[1] + bc[nz]
    terms = av.astype(dtype)[pick] * bv.astype(dtype)[nz]
    by_key = _order(key)
    key = key[by_key]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    vals = np.add.reduceat(terms[by_key], first)
    keep = vals != 0
    rows, cols = np.divmod(key[first[keep]], shape[1])
    return rows, cols, vals[keep]
