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
than 128 rows is stored.  A harmonic dimension is decided by one exact
elimination per integer differential, in its short orientation, which
selects its independent rows R and columns C.  Only where it is positive
is the space whitened, and the basis is h columns of an exact integer
kernel, chosen exactly and projected off the narrower whitened block of
d_i[R] and d_{i-1}[:, C]; no array is wider than that block or h.  The
per-index memo keeps the harmonic subspace alone.  The Laplace solve is
one symmetric positive definite system in Gram form per index,
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
from ddforms.polyforms import FormError


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
    work runs.  Otherwise h exact representatives are projected off the
    narrower of two whitened blocks.  On the C side (|C| <= |R|) they are
    columns of the exact kernel Z of d_i, whitened by L^T, projected off
    L^T d_{i-1}[:, C]; on the R side, the mirror image, columns of the
    exact kernel of d_{i-1}^T, whitened by L^-1 into ker d*_{i-1},
    projected off L^-1 d_i[R]^T.  The other block is orthogonal to them
    already, as d_i[R] Z = 0.  A kernel basis is diagonal on its free
    rows F and the block's columns lie in the kernel, so the block's rows
    F have full column rank: one ``exact.independent`` of them picks
    |block| rows of F, and the kernel columns of the other h, alone
    back-substituted, are the representatives.  At an end index the block
    is empty and the kernel's h columns are all representatives; with no
    differential the kernel is the identity.  The block's reduced QR
    projects them off it twice, and a thin QR of the h columns gives the
    whitened basis, which unwhitened is Gram-orthonormal.  The subspace
    is memoised on the complex instance per index.
    """
    h = cx._harmonic.get(i)
    if h is None:
        space = cx.spaces[i]
        n = space.dim
        basis = np.zeros((n, 0))
        if harmonic_dim(cx, i):
            W = space.whitening
            rows, cols = _independent(cx, i)
            side = len(rows) < len(cols)  # the R side, else the C side
            block, whiten = (rows, W.solve_l) if side else (cols, W.mul_lt)
            kern = cx.diffs[i - side] if i - side < len(cx.diffs) else None
            free, Q = None, np.zeros((n, 0))
            if block:
                d = cx.diffs[i - 1 + side]
                free = np.ones(n, bool)
                free[kern.echelon[not side]] = False
                free = np.flatnonzero(free)
                free = np.delete(free, exact.independent(
                    *d.restrict(free, block, side))[0]).tolist()
                B = d.submatrix(cols=block, transpose=side)
                Q = np.linalg.qr(whiten(B, out=B))[0]
            X = _kernel_basis(kern.kernel(side, free) if kern
                              else exact.kernel([], n), n)
            whiten(X, out=X)
            for _ in range(2):
                X -= Q @ (Q.T @ X)
            basis = W.solve_lt(np.linalg.qr(X)[0])
        h = cx._harmonic[i] = Subspace(space, basis)
    return h


def _kernel_basis(kernel, n):
    """The dense float n x h basis of an ``exact.kernel`` result; entries
    past int64 (object dtype) are converted one by one, and a FormError
    names an entry beyond the floating-point range."""
    (rows, cols, vals), free = kernel
    Z = np.zeros((n, len(free)))
    try:
        Z[rows, cols] = vals
    except OverflowError:
        raise FormError("integer kernel basis beyond the floating-point "
                        "range") from None
    return Z


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

