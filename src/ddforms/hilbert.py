"""Finite-dimensional Hilbert complex machinery.

A complex instance is a sequence of inner-product spaces with integer
differentials whose consecutive compositions vanish exactly.  Harmonic
spaces and the Hodge Laplacian are computed after whitening: the
Cholesky factor L of each Gram matrix, the space's ``whitening`` (block
by block for a broken space, dense for a kernel subspace, whose integer
basis is kept as triplets and whose Gram is assembled from the element
Grams), maps to an orthonormal frame.  A metric is read only through its
factor, G x = L (L^T x) and x^T G x = |L^T x|^2, and L^-1 and L^-T by
halves from L, so no dense Gram and no dense inverse of a factor of more
than 128 rows is stored.  A harmonic dimension is decided
by one exact elimination per integer differential, which selects its
independent rows and columns.  Only where it is positive is the space
whitened, and one raw Householder QR of those rows and columns gives the
harmonic basis from its reflectors, with no square Q; the per-index memo
keeps that subspace alone; S is written and whitened in place in one
array, so the QR holds S and numpy's two copies of it.  The Laplace
solve is one symmetric positive definite system in Gram form per index,
K = F^T F, its blocks, from the dense blocks of the integer
differentials and the harmonic basis, written and whitened in place in
one array F: a solve holds F and K, then K, numpy's copy of it and the
right-hand side.  The metric pseudoinverse of the paper's regularizers
is a test reference (tests/reference.py); no command calls it.  The
whitened differentials, the one way to apply a differential through the
metric, apply the integer triplets to vectors and are never formed as
matrices; ``subspace_transfer`` is the one Gram pairing, which every
isomorphism step and subspace equality of distrib reads.
"""

from __future__ import annotations

import numpy as np

from ddforms import exact
from ddforms.assembly import AssemblyError, Subspace


class ComplexInstance:
    """Spaces with integer differentials diffs[i]: spaces[i] -> spaces[i+1]."""

    def __init__(self, spaces, diffs, label=""):
        if len(diffs) != len(spaces) - 1:
            raise AssemblyError("need one differential per consecutive pair")
        for i, d in enumerate(diffs):
            if (d.codomain.dim, d.domain.dim) != (spaces[i + 1].dim,
                                                  spaces[i].dim):
                raise AssemblyError(f"differential {i} has the wrong shape")
        self.spaces = list(spaces)
        self.diffs = list(diffs)
        self.label = label
        self._harmonic = {}
        for i in range(len(diffs) - 1):
            shape = (spaces[i + 2].dim, spaces[i].dim)
            if len(exact.product(diffs[i + 1].triplets, diffs[i].triplets,
                                 shape)[0]):
                raise AssemblyError(
                    f"{label or 'complex'}: differentials {i}, {i + 1} "
                    "do not compose to zero")

    def __len__(self):
        return len(self.spaces)

    def dims(self):
        return [s.dim for s in self.spaces]

    def whitened_diff(self, i, x, transpose=False):
        """The differential i between orthonormal frames,
        L_{i+1}^T d_i L_i^-T, or its transpose L_i^-1 d_i^T L_{i+1},
        applied to x right to left."""
        W0, W1 = self.spaces[i].whitening, self.spaces[i + 1].whitening
        d = self.diffs[i]
        if transpose:
            return W0.solve_l(d.apply(W1.mul_l(x), transpose=True))
        return W1.mul_lt(d.apply(W0.solve_lt(x)))

    def __repr__(self):
        return f"ComplexInstance({self.label!r}, dims={self.dims()})"


def _independent(cx, i):
    """The rows R of d_i and the columns C of d_{i-1} independent over the
    integers, read off the one ``LinearOp.echelon`` of each."""
    rows = cx.diffs[i].echelon[0] if i < len(cx.diffs) else []
    cols = cx.diffs[i - 1].echelon[1] if i > 0 else []
    return rows, cols


def harmonic_dim(cx, i):
    """The harmonic dimension at index i, h = n - |R| - |C|: R and C span
    the row space of d_i and the range of d_{i-1}.  No float work runs."""
    rows, cols = _independent(cx, i)
    return cx.spaces[i].dim - len(rows) - len(cols)


def harmonic_space(cx, i):
    """Harmonic forms at index i: ker d_i intersected with ker d*_{i-1}.

    Where ``harmonic_dim`` is h = 0 the subspace is empty and no float
    work runs.  Otherwise one Householder QR, kept in raw form, runs on
    the whitened S = [L^-1 d_i[R]^T | L^T d_{i-1}[:, C]], built from the
    slices of the independent rows R and columns C alone; its blocks are
    orthogonal as d_i d_{i-1} = 0.  The trailing h columns of its complete
    Q, unwhitened, are the Gram-orthonormal basis.  The subspace is
    memoised on the complex instance per index.
    """
    h = cx._harmonic.get(i)
    if h is None:
        space = cx.spaces[i]
        n = space.dim
        rows, cols = _independent(cx, i)
        basis = np.zeros((n, 0))
        if harmonic_dim(cx, i):
            W = space.whitening
            S = np.empty((n, len(rows) + len(cols)))
            R, C = S[:, :len(rows)], S[:, len(rows):]
            if rows:
                cx.diffs[i].submatrix(rows=rows, out=R.T)
                W.solve_l(R, out=R)
            if cols:
                cx.diffs[i - 1].submatrix(cols=cols, out=C)
                W.mul_lt(C, out=C)
            basis = W.solve_lt(_trailing_q(*np.linalg.qr(S, mode="raw")))
        h = cx._harmonic[i] = Subspace(space, basis)
    return h


# The most reflectors _trailing_q applies as one block.
_BLOCK = 64


def _trailing_q(raw, tau):
    """The last n - k columns of the complete Q = H_0 ... H_{k-1} of an
    n x k matrix, from its raw QR (k x n reflectors, scales tau): the
    reflectors H_j = I - tau_j v_j v_j^T, v_j = (0, 1, raw[j, j+1:]),
    applied last to first to the last n - k columns of the identity, with
    no n x n Q formed.  They go in blocks of at most _BLOCK: the product
    of a block's reflectors is I - V T V^T, with T upper triangular and
    T^-1 = striu(V^T V) + diag(1/tau), the UT transform (Joffrain et al.,
    "Accumulating Householder transformations, revisited", ACM TOMS 32,
    2006), so a block is three products and a triangular solve.  A
    reflector with tau = 0 is the identity and is left out."""
    k, n = raw.shape
    Q = np.eye(n, n - k, -k)
    for lo in reversed(range(0, k, _BLOCK)):
        b = min(_BLOCK, k - lo)
        V = np.tril(raw[lo:lo + b, lo:].T, -1)
        V[np.arange(b), np.arange(b)] = 1.0
        keep = np.flatnonzero(tau[lo:lo + b])
        V = V[:, keep]
        T_inv = np.triu(V.T @ V, 1)
        T_inv[np.diag_indices(len(keep))] = 1.0 / tau[lo + keep]
        Q[lo:] -= V @ np.linalg.solve(T_inv, V.T @ Q[lo:])
    return Q


def laplace_solve(cx, i, f):
    """Solve the Hodge-Laplace problem: u orthogonal to harmonics with
    Laplacian(u) = f - p, p = H H^T G f the harmonic part of f, H the
    Gram-orthonormal harmonic basis.  Returns (u, p).

    With G_j = L_j L_j^T the Gram of space j and G = G_i = L L^T, u solves
    one symmetric positive definite system K u = G (f - p),
    K = A^T A + B^T B + (H^T G)^T (H^T G), A = L_{i+1}^T d_i and
    B = L_{i-1}^-1 (G d_{i-1})^T, that is K = G Laplacian + G H H^T G.
    The projector term vanishes off the harmonic space and the Laplacian
    on it, so the solution is orthogonal to the harmonic forms.  The
    three blocks are scattered from the triplets and whitened in place in
    one array F = [B; A; H^T G], every product with G going through L, so
    K = F^T F is one product; F and its views are freed before the
    solve."""
    W = cx.spaces[i].whitening
    H = harmonic_space(cx, i).basis
    below = cx.spaces[i - 1].dim if i > 0 else 0
    above = cx.spaces[i + 1].dim if i < len(cx.diffs) else 0
    F = np.empty((below + above + H.shape[1], len(H)))
    B, A, HG = F[:below], F[below:below + above], F[below + above:]
    GD, GH = B.T, HG.T
    if i > 0:
        cx.diffs[i - 1].submatrix(out=GD)
        W.mul_l(W.mul_lt(GD, out=GD), out=GD)
        cx.spaces[i - 1].whitening.solve_l(B, out=B)
    if i < len(cx.diffs):
        cx.diffs[i].submatrix(out=A)
        cx.spaces[i + 1].whitening.mul_lt(A, out=A)
    W.mul_l(W.mul_lt(H, out=GH), out=GH)
    p = H @ (HG @ f)
    K = F.T @ F
    del F, B, A, HG, GD, GH
    return np.linalg.solve(K, W.mul_l(W.mul_lt(f - p))), p


def subspace_transfer(a, y):
    """The Gram pairings a^T G y of a Gram-orthonormal basis a with an
    array y of its ambient space, (L^T a)^T (L^T y) through the ambient's
    Cholesky factor L: the coordinates of y's projection on a."""
    W = a.ambient.whitening
    return W.mul_lt(a.basis).T @ W.mul_lt(y)

