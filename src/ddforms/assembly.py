"""Global broken form spaces over mesh strata and assembled operators.

A broken space is a direct sum of per-simplex element spaces over one or
several strata (m, k): k-forms attached to the unmarked m-simplices.  The
module assembles the piecewise exterior derivative D, the signed trace sum
T, and the combined distributional derivative on graded spaces as integer
triplet operators, applied to vectors and matrices from the triplets, with
dense rows or columns scattered only on request.  The stratum layout is
read here alone: ``placement`` and a kernel subspace's ``embedding`` are
the integer maps between spaces, applied by ``LinearOp.apply`` like any
other.  It builds the mesh-weighted element Grams and their block
Cholesky factors once per (family, m, k) stratum of a mesh, and kernel
subspaces once per pair, whose exact integer bases are kept as triplets
and never as dense arrays, with Grams assembled element by element.
A space keeps its metric only as its Cholesky factor, the ``whitening``:
the dense Gram of a space is a reference built on request and never
stored, and no factor keeps an inverse of more than 128 rows.  One
recursion by halves factors a Gram and applies L, L^T, L^-1 and L^-T, all
in place, with general inverses only on diagonal leaves of at most 128
rows, of which the element blocks are the batched case.  So a
factorisation holds at once the Gram, which becomes L, its leaf inverses
and temporaries of at most half its size (a leaf and a 128-row strip for
the factor, the off-diagonal product for a solve), and applying the
factor to a matrix holds that matrix, written in place, and one product
of half its rows.  The mesh weights, and so the metric, are a function of
the pair alone: their exponent is the top dimension of the root mesh,
read through ``pair.parent`` on a skeleton.
"""

from __future__ import annotations

import math
from functools import cached_property, partialmethod

import numpy as np

from ddforms import exact
from ddforms.mesh import MeshError, facet_incidence
from ddforms.polyforms import FormError, simplex_metrics


class AssemblyError(ValueError):
    """Inconsistent spaces or operators."""


def mesh_weight(pair, simplex):
    """The scaling weight h_C^(n - dim C) of the mesh inner product.

    n is the top dimension of the root mesh (``pair.parent`` for a
    skeleton), so a skeleton keeps the weights of the mesh it was cut
    from.  h_C is the diameter of C, or the mean diameter of adjacent
    edges when C is a vertex (the edges of the root mesh, for a skeleton),
    but a top simplex weighs h^0 = 1, so a lone vertex needs no edges.
    """
    root = pair.parent or pair
    if simplex.dim == root.top_dim:
        return 1.0
    if simplex.dim >= 1:
        h = pair.diameter(simplex)
    else:
        v = simplex.vertices[0]
        lengths = [pair.diameter(e) for e in _vertex_edges(root).get(v, ())]
        if not lengths:
            raise MeshError(f"isolated vertex {v} has no adjacent edges")
        h = sum(lengths) / len(lengths)
    try:
        weight = h ** (root.top_dim - simplex.dim)
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight):
        raise MeshError(f"mesh weight of {simplex} beyond the floating-point "
                        "range")
    return weight


def _vertex_edges(root):
    """Each vertex's edges in the root mesh, in edge order: one pass over
    the edges, built once per mesh for all of its vertex weights."""

    def build():
        edges = {}
        for e in root.simplices(1):
            for v in e.vertices:
                edges.setdefault(v, []).append(e)
        return edges

    return root.cached(("vertex edges",), build)


def _stratum_factor(pair, family, m, k):
    """The (cells, b, b) stack of mesh-weighted element Grams of the (m, k)
    stratum in stratum order, their Cholesky factors and the factors'
    ``_cholesky`` leaves: one batched pass per stratum and pair.  Element
    Grams that leave the floating-point range raise FormError."""

    def build():
        simplices = pair.stratum(m)
        coords = np.asarray(pair.coords, float)
        cells = np.array([s.vertices for s in simplices])
        w = np.asarray([mesh_weight(pair, c) for c in simplices])
        with np.errstate(over="ignore", invalid="ignore"):
            G = w[:, None, None] * family.space(m, k).gram(
                *simplex_metrics(coords[cells]))
        if not np.isfinite(G).all():
            raise FormError("element Gram beyond the floating-point range")
        L = G.copy()
        return G, L, _cholesky(L)

    return pair.cached(("stratum", family.kind, family.r, m, k), build)


# The most rows of a diagonal block whose inverse a factor keeps: a
# larger factor is factored and applied by halves down to blocks of at
# most this size.
_LEAF = 128


def _cholesky(G):
    """Factor a stack G of symmetric positive definite matrices as L L^T
    in place, reading only its lower triangle: on return G holds L, zero
    above the diagonal.  Returns the inverses of L's diagonal leaves, the
    blocks of at most _LEAF rows at which halving stops: the leaf on rows
    a:b is kept in rows a:b, columns 0:b-a of one (cells, n, w) stack, w
    the widest leaf, so a stack of at most _LEAF rows keeps its whole
    inverse and a larger one at most _LEAF floats per row.

    A leaf is factored by ``np.linalg.cholesky``.  A larger stack,
    G = [[P, Q^T], [Q, R]], is factored by halves: P = A A^T, then
    C = Q A^-T through A's leaves, written over Q, then R - C C^T = B B^T
    after an update of R's lower triangle in place, _LEAF rows at a time.
    """
    def widest(n):
        return n if n <= _LEAF else max(widest(n // 2), widest(n - n // 2))

    leaves = np.zeros(G.shape[:-1] + (widest(G.shape[-1]),))

    def factor(G, first):
        n = G.shape[-1]
        if n <= _LEAF:
            G[...] = np.linalg.cholesky(G)
            leaves[..., first:first + n, :n] = np.linalg.inv(G)
            return
        h = n // 2
        factor(G[..., :h, :h], first)
        C, R = G[..., h:, :h], G[..., h:, h:]
        _tril_apply(G[..., :h, :h], leaves, C.swapaxes(-1, -2), True, False,
                    first)
        G[..., :h, h:] = 0.0
        for a in range(0, n - h, _LEAF):
            b = a + _LEAF
            R[..., a:b, :b] -= C[..., a:b, :] @ C[..., :b, :].swapaxes(-1, -2)
        factor(R, first + h)

    factor(G, 0)
    return leaves


def _tril_apply(L, leaves, y, inverse, transpose, first=0):
    """y <- L y, L^T y, L^-1 y or L^-T y in place, for a stack L of
    lower-triangular factors with their ``_cholesky`` leaves and a stack y
    of right-hand sides.

    A stack of at most _LEAF rows is multiplied by its leaf, or by the
    leaf's inverse read from the leaves of the whole factor at its first
    row ``first``.  A larger one goes by halves, L = [[A, 0], [C, B]],
    and never reads L's zero triangle.  The off-diagonal block reads one
    half of y, the source (y1 for L, y2 for L^T), and writes the other,
    the target: a product multiplies the target by its diagonal block,
    adds C y1 (C^T y2) and then multiplies the source; a solve solves the
    source, subtracts and then solves the target.
    """
    n = L.shape[-1]
    if n <= _LEAF:
        F = leaves[..., first:first + n, :n] if inverse else L
        # np.matmul(..., out=y) would copy y as well, since they overlap,
        # and on a strided y, such as a transposed block, runs without BLAS
        y[...] = (F.swapaxes(-1, -2) if transpose else F) @ y
        return
    h = n // 2
    C = L[..., h:, :h]
    top = (L[..., :h, :h], y[..., :h, :], first)
    bottom = (L[..., h:, h:], y[..., h:, :], first + h)
    # (diagonal block, half of y, first row) of the source and the target
    if transpose:
        (D, x, at), (E, z, to), C = bottom, top, C.swapaxes(-1, -2)
    else:
        (D, x, at), (E, z, to) = top, bottom
    if inverse:
        _tril_apply(D, leaves, x, True, transpose, at)
        z -= C @ x
        _tril_apply(E, leaves, z, True, transpose, to)
    else:
        _tril_apply(E, leaves, z, False, transpose, to)
        z += C @ x
        _tril_apply(D, leaves, x, False, transpose, at)


class GramFactor:
    """The Cholesky factor L of a block-diagonal Gram matrix, G = L L^T.

    ``blocks`` lists (first row, (cells, b, b) stack of lower-triangular
    element factors, their ``_cholesky`` leaves) per stratum, or one
    (1, n, n) factor and its leaves for a dense Gram; rows outside them
    whiten by the identity.  No inverse of more than _LEAF rows is kept.
    ``mul_lt``, ``mul_l``, ``solve_l`` and ``solve_lt`` apply L^T
    (whitening), L, L^-1 and L^-T (unwhitening) to the rows of a vector
    or matrix x, block by block in place on ``out``: a new array unless
    given, which may be x itself or a view such as a column block.  Each
    block takes one batched product, or for a larger factor the products
    by halves of ``_tril_apply``.
    """

    def __init__(self, blocks):
        self.blocks = blocks

    def _apply(self, x, inverse, transpose, out=None):
        if out is None:
            out = np.array(x, float)
        elif out is not x:
            out[...] = x
        cols = out if out.ndim == 2 else out[:, None]
        for offset, L, leaves in self.blocks:
            cells, b = L.shape[:2]
            y = cols[offset:offset + cells * b].reshape(
                cells, b, cols.shape[1])
            _tril_apply(L, leaves, y, inverse, transpose)
        return out

    mul_lt = partialmethod(_apply, inverse=False, transpose=True)
    mul_l = partialmethod(_apply, inverse=False, transpose=False)
    solve_l = partialmethod(_apply, inverse=True, transpose=False)
    solve_lt = partialmethod(_apply, inverse=True, transpose=True)


class _Stratum:
    __slots__ = ("m", "k", "simplices", "block", "offset")

    def __init__(self, m, k, simplices, block, offset):
        self.m = m
        self.k = k
        self.simplices = simplices
        self.block = block
        self.offset = offset


class BrokenSpace:
    """Direct sum of element spaces over strata (m, k), with a block
    diagonal metric kept as its block Cholesky factor.

    Strata are kept in decreasing simplex dimension.  The metric weights
    each element block by ``mesh_weight``, whose exponent is the top
    dimension of the root mesh (``pair.parent`` for a skeleton).
    """

    def __init__(self, pair, strata, family):
        self.pair = pair
        self.family = family
        strata = sorted(set(strata), key=lambda mk: (-mk[0], mk[1]))
        if len({m for m, _ in strata}) != len(strata):
            raise AssemblyError("two strata on the same simplex dimension")
        self.strata = []
        offset = 0
        for m, k in strata:
            if not (0 <= k <= m):
                raise AssemblyError(f"invalid stratum (m={m}, k={k})")
            simplices = pair.stratum(m)
            block = family.space(m, k).size
            self.strata.append(_Stratum(m, k, simplices, block, offset))
            offset += block * len(simplices)
        self.dim = offset

    def stratum(self, m, k):
        for s in self.strata:
            if (s.m, s.k) == (m, k):
                return s
        return None

    def _factors(self):
        """Per nonempty stratum, its ``_stratum_factor`` record."""
        for s in self.strata:
            if s.block and s.simplices:
                yield s, _stratum_factor(self.pair, self.family, s.m, s.k)

    @property
    def gram(self):
        """The dense Gram, built afresh on each read: the tests' reference
        for the factor, which is the only form the solve paths read."""
        G = np.zeros((self.dim, self.dim))
        for s, (blocks, _L, _leaves) in self._factors():
            cells, b = blocks.shape[:2]
            stop = s.offset + cells * b
            square = G[s.offset:stop, s.offset:stop].reshape(
                cells, b, cells, b)
            square[np.arange(cells), :, np.arange(cells)] = blocks
        return G

    @cached_property
    def whitening(self):
        """The block Cholesky factor of the Gram, from the strata's records."""
        return GramFactor([(s.offset, L, leaves)
                           for s, (_G, L, leaves) in self._factors()])

    def __repr__(self):
        strata = [(s.m, s.k, len(s.simplices), s.block) for s in self.strata]
        return f"BrokenSpace(dim={self.dim}, strata={strata})"


class LinearOp:
    """An integer matrix between two broken spaces (or kernel subspaces).

    Kept as triplets (rows, cols, vals) with distinct (row, col) pairs;
    float values are refused, and no dense copy is kept.  ``apply``
    multiplies from the triplets; ``submatrix`` scatters a dense float
    block for a caller that needs one and frees it.
    """

    def __init__(self, domain, codomain, triplets):
        dtype = np.asarray(triplets[2]).dtype
        if dtype.kind not in "iO":
            raise AssemblyError(f"operator of dtype {dtype} is not integer")
        self.domain = domain
        self.codomain = codomain
        self.triplets = triplets

    def apply(self, x, transpose=False):
        """A x, or A^T x, for a vector or the columns of a matrix: each
        entry's product summed into its row by one ``np.bincount``."""
        rows, cols, vals = self.triplets
        n = self.codomain.dim
        if transpose:
            rows, cols, n = cols, rows, self.domain.dim
        x = np.asarray(x, float)
        k = x.shape[1] if x.ndim == 2 else 1
        terms = vals.astype(float)[:, None] * x[cols].reshape(len(cols), k)
        slot = rows[:, None] * k + np.arange(k)
        out = np.bincount(slot.ravel(), terms.ravel(), minlength=n * k)
        return out.reshape((n,) + x.shape[1:])

    def restrict(self, rows=None, cols=None, transpose=False):
        """The triplets of the rows ``rows`` and columns ``cols`` of A, or
        of A^T (all where None), each index renumbered by its place in
        the given order, and their shape."""
        index, shape = list(self.triplets[:2]), list(self.shape)
        if transpose:
            index.reverse()
            shape.reverse()
        keep = np.ones(len(self.triplets[2]), bool)
        for axis, sel in enumerate((rows, cols)):
            if sel is not None:
                pos = np.full(shape[axis], -1)
                pos[sel] = np.arange(len(sel))
                index[axis] = pos[index[axis]]
                keep &= index[axis] >= 0
                shape[axis] = len(sel)
        return (index[0][keep], index[1][keep],
                self.triplets[2][keep]), tuple(shape)

    def submatrix(self, rows=None, cols=None, out=None, transpose=False):
        """The dense float rows ``rows`` and columns ``cols`` of A, or of
        A^T, as ``restrict`` selects them, scattered from the triplets
        into out: a new array unless given, such as a view into a larger
        one."""
        (r, c, v), shape = self.restrict(rows, cols, transpose)
        if out is None:
            out = np.zeros(shape)
        else:
            out[...] = 0.0
        out[r, c] = v
        return out

    @property
    def shape(self):
        """(rows, columns): the codomain's and the domain's dimension."""
        return self.codomain.dim, self.domain.dim

    @cached_property
    def echelon(self):
        """The first maximal independent rows R and columns C, from one
        exact elimination of the short orientation (``exact.independent``);
        the pivot rows are not kept."""
        return exact.independent(self.triplets, self.shape)

    def kernel(self, transpose=False, free=None):
        """An integer basis of ker A, or of ker A^T, as ``exact.kernel``
        gives it (of the free columns ``free`` alone, if given), from the
        independent rows R (columns C) alone, so that no row is reduced to
        zero."""
        (rows, cols, vals), (height, n) = self.restrict(
            self.echelon[transpose], transpose=transpose)
        return exact.kernel(exact.triplet_rows(rows, cols, vals, height), n,
                            free)

    def __repr__(self):
        return f"LinearOp({self.codomain.dim}x{self.domain.dim})"


def placement(small, big):
    """The integer map putting each stratum of the broken space small at its
    rows of the broken space big, which must hold it with the same block
    size over the same simplices; its transpose restricts big to small."""
    rows = [np.zeros(0, np.int64)]
    for s in small.strata:
        t = big.stratum(s.m, s.k)
        if t is None or t.block != s.block or t.simplices != s.simplices:
            raise AssemblyError(f"stratum (m={s.m}, k={s.k}) does not embed")
        rows.append(t.offset + np.arange(s.block * len(s.simplices)))
    return LinearOp(small, big, (np.concatenate(rows), np.arange(small.dim),
                                 np.ones(small.dim, np.int64)))


# The element-block entry pairs a kernel Gram takes at a time: a basis
# with dense rows has many pairs per cell, and their index and value
# arrays would otherwise outweigh the dense basis they replace, or the
# Gram they fill (at 2^16 pairs, 2.8 MiB of traced peak for the 1.8 MiB
# Gram of a 480-dim kernel; at 2^12, 2.0 MiB in the same time).
_GRAM_PAIRS = 2 ** 12


class Subspace:
    """The span of a basis in a space: an exact integer kernel Z, kept as
    ``triplets`` (rows, cols, vals) sorted by row, then column, and
    diagonal on its ``free`` columns, or a dense float ``basis`` such as a
    Gram-orthonormal harmonic one.  Its metric is kept only as the dense
    Cholesky factor of its Gram Z^T G Z and the inverses of its diagonal
    leaves, its whitening, factored on first use in place of a Gram that
    is not kept."""

    def __init__(self, ambient, basis=None, triplets=None, free=None):
        self.ambient = ambient
        self.basis = basis
        self.triplets = triplets
        self.free = free
        self.dim = basis.shape[1] if triplets is None else len(free)

    @property
    def gram(self):
        """Z^T G Z, built afresh on each read.  A kernel basis is
        assembled element by element, as Z_e^T G_e Z_e over the entries of
        Z in each element block: every pair (a, i, v), (b, j, w) of them
        adds v w G_e[a, b] at (i, j), about _GRAM_PAIRS pairs at a time.
        A dense basis has Gram (L^T B)^T (L^T B)."""
        if self.triplets is None:
            Y = self.ambient.whitening.mul_lt(self.basis)
            return Y.T @ Y
        rows, cols, vals = self.triplets
        out = np.zeros((self.dim, self.dim))
        for s, (G, _L, _leaves) in self.ambient._factors():
            lo, hi = np.searchsorted(
                rows, [s.offset, s.offset + s.block * len(s.simplices)])
            cell, a = np.divmod(rows[lo:hi] - s.offset, s.block)
            col, val = cols[lo:hi], vals[lo:hi].astype(float)
            # the rows are sorted, so the entries of one cell are one run;
            # entry t pairs with each of the count[t] entries of its run
            start = np.searchsorted(cell, cell)
            count = np.searchsorted(cell, cell, side="right") - start
            for t in np.array_split(np.arange(hi - lo),
                                    1 + count.sum() // _GRAM_PAIRS):
                c = count[t]
                pick = np.repeat(t, c)
                mate = np.repeat(start[t] - np.cumsum(c) + c, c) + \
                    np.arange(len(pick))
                terms = val[pick] * val[mate] * \
                    G[cell[pick], a[pick], a[mate]]
                np.add.at(out, (col[pick], col[mate]), terms)
        return out

    @property
    def embedding(self):
        """A kernel basis Z as the integer map into the ambient space."""
        return LinearOp(self, self.ambient, self.triplets)

    @cached_property
    def whitening(self):
        L = self.gram[None]
        return GramFactor([(0, L, _cholesky(L))])

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient.dim})"


def broken_space(pair, m, k, family):
    """The single-stratum space of k-forms on the unmarked m-simplices."""
    return BrokenSpace(pair, [(m, k)], family)


def _triplets(pair, family, op, m, k):
    """Integer triplets (rows, cols, vals) of D (op "D") or T (op "T") on
    the (m, k) stratum, indexed within the source and target strata: one
    scatter of the signed element blocks, built once per pair."""

    def build():
        if op == "D":
            cell = facet = np.arange(len(pair.stratum(m)))
            j, sign = np.zeros_like(cell), np.ones_like(cell)
            tables = family.d_matrix(m, k)[None]
        else:
            cell, facet, j, sign = facet_incidence(pair, m)
            tables = family.trace_matrix(m, k)
        blocks = tables[j]
        blocks *= sign[:, None, None]
        _cells, bt, bs = blocks.shape
        e, a, b = np.nonzero(blocks)
        return facet[e] * bt + a, cell[e] * bs + b, blocks[e, a, b]

    return pair.cached((op, family, m, k), build)


_NO_TRIPLETS = (np.zeros(0, np.int64),) * 3


def operator_D(pair, m, k, family):
    """Piecewise exterior derivative on the (m, k) stratum."""
    src = broken_space(pair, m, k, family)
    tgt = BrokenSpace(pair, [(m, k + 1)] if k + 1 <= m else [], family)
    return LinearOp(src, tgt, triplets=_triplets(pair, family, "D", m, k))


def operator_T(pair, m, k, family):
    """Signed trace-sum (jump) operator from the m- to the (m-1)-stratum."""
    if m < 1:
        raise AssemblyError("trace operator needs m >= 1")
    src = broken_space(pair, m, k, family)
    tgt = BrokenSpace(pair, [(m - 1, k)] if k <= m - 1 else [], family)
    return LinearOp(src, tgt, triplets=_triplets(pair, family, "T", m, k))


def derivative_operator(space):
    """The distributional exterior derivative of a graded broken space.

    Each stratum (m, k) contributes (-1)^i D into (m, k+1) and -(-1)^i T
    into (m-1, k), where i = n - m for the mesh's top dimension n; invalid
    targets are dropped.
    """
    pair, family = space.pair, space.family
    targets = set()
    for s in space.strata:
        if s.k + 1 <= s.m:
            targets.add((s.m, s.k + 1))
        if s.m >= 1 and s.k <= s.m - 1:
            targets.add((s.m - 1, s.k))
    tgt = BrokenSpace(pair, targets, family)
    parts = [_NO_TRIPLETS]
    for s in space.strata:
        sign = (-1) ** (pair.top_dim - s.m)
        for op, t, factor in (("D", tgt.stratum(s.m, s.k + 1), sign),
                              ("T", tgt.stratum(s.m - 1, s.k), -sign)):
            if t is not None:
                rows, cols, vals = _triplets(pair, family, op, s.m, s.k)
                parts.append((rows + t.offset, cols + s.offset, factor * vals))
    triplets = tuple(np.concatenate(a) for a in zip(*parts))
    return LinearOp(space, tgt, triplets=triplets)


def kernel_space(pair, m, k, family, which):
    """Kernel subspaces: "vertical" = ker T (single-valued traces, the
    conforming space), "horizontal" = ker D (piecewise-constant-like).
    The basis is the exact integer kernel of the operator, kept as
    triplets, built once per pair."""
    ops = {"vertical": operator_T, "horizontal": operator_D}
    if which not in ops:
        raise AssemblyError(f"unknown kernel kind {which!r}")

    def build():
        op = ops[which](pair, m, k, family)
        triplets, free = op.kernel()
        return Subspace(op.domain, triplets=triplets, free=free)

    return pair.cached(("kernel", which, family, m, k), build)


def export_matrix(op, path):
    """Write an operator's triplets in a plain coordinate text format.

    First line: rows cols nnz.  Then one "row col value" triple per line,
    0-based, in row-major order.
    """
    rows, cols, vals = op.triplets
    order = np.lexsort((cols, rows))
    with open(path, "w") as fh:
        fh.write(f"{op.codomain.dim} {op.domain.dim} {len(order)}\n")
        for e in order:
            fh.write(f"{rows[e]} {cols[e]} {float(vals[e]):.17g}\n")
