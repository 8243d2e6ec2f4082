"""Finite-dimensional Hilbert complex machinery.

A complex instance is a sequence of inner-product spaces with integer
differentials whose consecutive compositions vanish exactly.  Harmonic
spaces, the Hodge Laplacian and its solve, and metric Moore-Penrose
pseudoinverses are computed after whitening: the Cholesky factor of each
Gram matrix, the space's ``whitening`` (block by block for a broken space,
dense for a kernel subspace), maps to an orthonormal frame.  A harmonic
dimension is decided by one exact elimination per integer differential,
which selects its independent rows and columns; one QR, memoised per
index, gives the harmonic basis and, where the Laplace solve asks for them
(its only caller), the exact and coexact ranges on which it takes two
Cholesky factors.  Pseudoinverses are applied by exact row selection and
one thin QR.
The Laplacian, the metric adjoints and the whitened differentials are
applied to vectors and never formed as matrices.
"""

from __future__ import annotations

import numpy as np

from ddforms import exact
from ddforms.assembly import AssemblyError, Subspace, adjoint


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
        d = self.diffs[i].matrix
        if transpose:
            return W0.solve_l(d.T @ W1.mul_l(x))
        return W1.mul_lt(d @ W0.solve_lt(x))

    def __repr__(self):
        return f"ComplexInstance({self.label!r}, dims={self.dims()})"


def _harmonic_split(cx, i, ranges=False):
    """The memo entry of index i: the harmonic subspace, the complete
    orthogonal factor Q of one QR (None where none ran) and r1 = |R|.

    The rows R of d_i and the columns C of d_{i-1} independent over the
    integers span the row space of d_i and the range of d_{i-1}, so the
    harmonic dimension is n - |R| - |C|; R and C are read off the one
    ``LinearOp.echelon`` of d_i and of d_{i-1}.  Where it is positive, or
    ``ranges`` asks for Q, Q is that of the whitened
    S = [L^-1 d_i[R]^T | L^T d_{i-1}[:, C]], whose blocks are orthogonal
    as d_i d_{i-1} = 0: its leading r1 columns span the coexact range, the
    next |C| the exact range, the rest (unwhitened) the harmonic forms."""
    entry = cx._harmonic.get(i)
    if entry is None or ranges and entry[1] is None:
        space = cx.spaces[i]
        W, n = space.whitening, space.dim
        S = np.zeros((n, 0))
        if i < len(cx.diffs):
            d = cx.diffs[i]
            S = W.solve_l(d.matrix[d.echelon[0]].T)
        r1 = S.shape[1]
        if i > 0:
            d = cx.diffs[i - 1]
            S = np.hstack([S, W.mul_lt(d.matrix[:, d.echelon[1]])])
        Q, basis = None, np.zeros((n, 0))
        if S.shape[1] < n or ranges:
            Q = np.linalg.qr(S, mode="complete")[0]
            basis = W.solve_lt(Q[:, S.shape[1]:])
        entry = cx._harmonic[i] = (Subspace(space, basis), Q, r1)
    return entry


def harmonic_space(cx, i):
    """Harmonic forms at index i: ker d_i intersected with ker d*_{i-1}.

    Its dimension is decided by exact row and column selection on the
    integer differentials, its Gram-orthonormal basis by one QR.  The
    result is memoised on the complex instance per index.
    """
    return _harmonic_split(cx, i)[0]


def hodge_laplacian(cx, i, u):
    """The Hodge Laplacian d*_i d_i + d_{i-1} d*_{i-1} at index i, a
    Gram-self-adjoint operator, applied to u."""
    out = np.zeros(np.shape(u))
    if i < len(cx.diffs):
        d = cx.diffs[i]
        out += adjoint(d, d.matrix @ u)
    if i > 0:
        d = cx.diffs[i - 1]
        out += d.matrix @ adjoint(d, u)
    return out


def laplace_solve(cx, i, f):
    """Solve the Hodge-Laplace problem: u orthogonal to harmonics with
    Laplacian(u) = f - p, p the harmonic part of f.  Returns (u, p).

    In whitened coordinates, with Q of the harmonic split, p projects onto
    the harmonic columns of Q, and the Laplacian maps the coexact range Q1
    and the exact range Q2 into themselves, as M^T M with M = A_i Q1 and
    M = A_{i-1}^T Q2, the whitened differentials applied to those columns;
    each block is solved by its Cholesky factor."""
    W = cx.spaces[i].whitening
    h, Q, r1 = _harmonic_split(cx, i, ranges=True)
    r = Q.shape[1] - h.dim
    c = Q.T @ W.mul_lt(f)
    y = c[:r].copy()
    for lo, hi, j, transpose in ((0, r1, i, False), (r1, r, i - 1, True)):
        if lo < hi:
            M = cx.whitened_diff(j, Q[:, lo:hi], transpose)
            L = np.linalg.cholesky(M.T @ M)
            y[lo:hi] = np.linalg.solve(L.T, np.linalg.solve(L, c[lo:hi]))
    return W.solve_lt(Q[:, :r] @ y), W.solve_lt(Q[:, r:] @ c[r:])


def pseudoinverse(op, rhs):
    """E @ rhs, E = L_dom^-T pinv(Aw) L_cod^T the metric pseudoinverse of an
    integer operator A, Aw = L_cod^T A L_dom^-T.  A's integer-independent
    rows R span its row space: with H = L_dom^-1 A[R]^T, pinv(Aw) z = H a,
    a the least-squares solution of Aw H a = z by one thin QR."""
    dom, cod = op.domain.whitening, op.codomain.whitening
    rows = op.echelon[0]
    out = np.zeros((op.domain.dim,) + np.shape(rhs)[1:])
    if not rows or not out.size:
        return out
    H = dom.solve_l(op.matrix[rows].T)
    Q, T = np.linalg.qr(cod.mul_lt(op.matrix @ dom.solve_lt(H)))
    return dom.solve_lt(H @ np.linalg.solve(T, Q.T @ cod.mul_lt(rhs)))


def subspace_transfer(a, b):
    """The matrix of Gram pairings between two orthonormal subspace bases."""
    if a.ambient is not b.ambient and a.ambient.dim != b.ambient.dim:
        raise AssemblyError("subspaces live in different ambient spaces")
    return a.basis.T @ a.ambient.gram @ b.basis


def subspace_equality_defect(a, b):
    """Zero iff the two subspaces coincide: combines the dimension gap and
    the deviation of the principal cosines from one."""
    if a.dim != b.dim:
        return float(abs(a.dim - b.dim))
    if a.dim == 0:
        return 0.0
    # the thin SVD, as in distrib._transfer_verdict
    s = np.linalg.svd(subspace_transfer(a, b), full_matrices=False)[1]
    return float(np.max(np.abs(s - 1.0)))
