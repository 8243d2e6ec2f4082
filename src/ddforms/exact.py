"""Exact linear algebra over the integers on sparse rows.

A matrix is given by its rows, each a {column: value} dict of its nonzero
integer entries.  One fraction-free elimination serves the rank and the
kernel, so neither depends on a floating-point threshold.
"""

from __future__ import annotations

import math

import numpy as np


def _combine(r, p, c):
    """A new row pv * r - f * p, f = r[c] and pv = p[c] reduced by their
    gcd, so the entry at c cancels; divided by its content when pv is not a
    unit."""
    g = math.gcd(r[c], p[c])
    f, pv = r[c] // g, p[c] // g
    out = {cc: pv * v for cc, v in r.items()}
    for cc, v in p.items():
        x = out.get(cc, 0) - f * v
        if x:
            out[cc] = x
        else:
            out.pop(cc, None)
    g = math.gcd(*out.values()) if out and abs(pv) != 1 else 1
    return {cc: v // g for cc, v in out.items()} if g > 1 else out


def _eliminate(rows):
    """Row echelon form, as {leading column: pivot row}: each row is reduced
    by its leading column until it is zero or leads a new column, with +-1
    pivots preferred.  The input rows are not modified."""
    pivots = {}
    for r in rows:
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            if abs(p[c]) != 1 and abs(r[c]) == 1:
                pivots[c], r, p = r, p, r
            r = _combine(r, p, c)
    return pivots


def rank(rows):
    """Exact rank of integer rows."""
    return len(_eliminate(rows))


def kernel(rows, ncols):
    """An integer basis of {x : A x = 0}, int64 of shape (ncols, nullity).

    Back-substitution brings the echelon rows to reduced form.  Column i
    belongs to the i-th free column f: x_f is the least positive integer
    that makes every pivot entry integral, other free entries are zero."""
    pivots = _eliminate(rows)
    for c in sorted(pivots, reverse=True):
        for cc in [cc for cc in pivots[c] if cc != c and cc in pivots]:
            pivots[c] = _combine(pivots[c], pivots[cc], cc)
    free = {f: i for i, f in enumerate(j for j in range(ncols)
                                       if j not in pivots)}
    scale = [1] * len(free)
    for c, r in pivots.items():
        for f, v in r.items():
            if f != c:
                scale[free[f]] = math.lcm(scale[free[f]],
                                          abs(r[c]) // math.gcd(r[c], v))
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    K[list(free), range(len(free))] = scale
    for c, r in pivots.items():
        for f, v in r.items():
            if f != c:
                K[c, free[f]] = -v * scale[free[f]] // r[c]
    return K
