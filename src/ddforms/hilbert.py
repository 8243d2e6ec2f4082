"""Finite-dimensional Hilbert complex machinery.

A complex instance is a sequence of inner-product spaces with differential
matrices whose consecutive compositions vanish.  Harmonic spaces, Hodge
decompositions, the Hodge Laplacian and its solve, and metric Moore-Penrose
pseudoinverses are all computed after whitening: the Cholesky factor of
each Gram matrix maps to an orthonormal frame, where plain SVD machinery
gives the metric-correct answers.  Every space carries that factor as its
``whitening``: block by block for a broken space, one dense factor of
Z^T G Z for a kernel subspace with integer basis Z.  Each SVD, the
pseudoinverse's included, is one ``rank_split``; the harmonic one of an
index is memoised on its complex and also serves the Laplace solve there.
"""

from __future__ import annotations

import numpy as np

from ddforms.assembly import AssemblyError, LinearOp, Subspace, adjoint
from ddforms.polyforms import rank_split


class ComplexInstance:
    """Spaces with differentials diffs[i]: spaces[i] -> spaces[i+1]."""

    def __init__(self, spaces, diffs, label=""):
        if len(diffs) != len(spaces) - 1:
            raise AssemblyError("need one differential per consecutive pair")
        for i, d in enumerate(diffs):
            if d.matrix.shape != (spaces[i + 1].dim, spaces[i].dim):
                raise AssemblyError(f"differential {i} has the wrong shape")
        self.spaces = list(spaces)
        self.diffs = list(diffs)
        self.label = label
        self._harmonic = {}
        for i in range(len(diffs) - 1):
            a, b = diffs[i + 1].matrix, diffs[i].matrix
            scale = max(np.linalg.norm(a) * np.linalg.norm(b), 1.0)
            if np.linalg.norm(a @ b) > 1e-10 * scale:
                raise AssemblyError(
                    f"{label or 'complex'}: differentials {i}, {i + 1} "
                    "do not compose to zero")

    def __len__(self):
        return len(self.spaces)

    def dims(self):
        return [s.dim for s in self.spaces]

    def whitened_diff(self, i):
        """The differential i expressed between orthonormal frames:
        L_{i+1}^T d_i L_i^-T."""
        W0, W1 = self.spaces[i].whitening, self.spaces[i + 1].whitening
        return W1.mul_lt(W0.solve_l(self.diffs[i].matrix.T).T)

    def __repr__(self):
        return f"ComplexInstance({self.label!r}, dims={self.dims()})"


def _harmonic_split(cx, i):
    """The memo entry of index i: the harmonic subspace, plus the positive
    singular values s_r and leading right singular vectors V_r of the
    whitened stacked matrix A = [d_i; d_{i-1}^T], which diagonalise the
    whitened Laplacian A^T A."""
    entry = cx._harmonic.get(i)
    if entry is None:
        rows = []
        if i < len(cx.diffs):
            rows.append(cx.whitened_diff(i))
        if i > 0:
            rows.append(cx.whitened_diff(i - 1).T)
        A = np.vstack(rows) if rows else np.zeros((0, cx.spaces[i].dim))
        split = rank_split(A)
        h = Subspace(cx.spaces[i], cx.spaces[i].whitening.solve_lt(split.null))
        entry = (h, split.s[:split.rank], split.row_range)
        cx._harmonic[i] = entry
    return entry


def harmonic_space(cx, i):
    """Harmonic forms at index i: ker d_i intersected with ker d*_{i-1}.

    Computed as the nullspace of the whitened stacked matrix
    [d_i; d_{i-1}^T]; the returned basis is Gram-orthonormal.  The result
    is memoised on the complex instance per index.
    """
    return _harmonic_split(cx, i)[0]


def betti_from_complex(cx):
    """Homology dimensions at every index via harmonic spaces."""
    return [harmonic_space(cx, i).dim for i in range(len(cx))]


def hodge_decompose(x, cx, i):
    """Split x into exact, coexact and harmonic parts, Gram-orthogonally."""
    W = cx.spaces[i].whitening
    xw = W.mul_lt(x)
    if i > 0:
        Bex = rank_split(cx.whitened_diff(i - 1)).range
    else:
        Bex = np.zeros((cx.spaces[i].dim, 0))
    if i < len(cx.diffs):
        Bco = rank_split(cx.whitened_diff(i).T).range
    else:
        Bco = np.zeros((cx.spaces[i].dim, 0))
    x_ex = Bex @ (Bex.T @ xw)
    x_co = Bco @ (Bco.T @ xw)
    x_h = xw - x_ex - x_co
    return tuple(W.solve_lt(c) for c in (x_ex, x_co, x_h))


def hodge_laplacian(cx, i):
    """The operator d*_i d_i + d_{i-1} d*_{i-1}, Gram-self-adjoint."""
    n = cx.spaces[i].dim
    mat = np.zeros((n, n))
    if i < len(cx.diffs):
        d = cx.diffs[i]
        mat += adjoint(d).matrix @ d.matrix
    if i > 0:
        d = cx.diffs[i - 1]
        mat += d.matrix @ adjoint(d).matrix
    return LinearOp(cx.spaces[i], cx.spaces[i], mat)


def laplace_solve(cx, i, f):
    """Solve the Hodge-Laplace problem: u orthogonal to harmonics with
    Laplacian(u) = f - p, p the harmonic part of f.  Returns (u, p).

    Reuses the SVD behind ``harmonic_space``: in whitened coordinates
    u = V_r diag(s_r^-2) V_r^T (f - p)."""
    W = cx.spaces[i].whitening
    fw = W.mul_lt(f)
    h, s, V = _harmonic_split(cx, i)
    hw = W.mul_lt(h.basis)
    pw = hw @ (hw.T @ fw)
    uw = V @ ((V.T @ (fw - pw)) / s ** 2)
    return W.solve_lt(uw), W.solve_lt(pw)


def pseudoinverse(op):
    """Metric Moore-Penrose pseudoinverse of an operator between spaces:
    L_dom^-T pinv(Aw) L_cod^T, Aw = L_cod^T A L_dom^-T.  pinv(Aw) splits
    the taller of Aw and Aw^T = pinv(Aw^T)^T, forming no null space."""
    dom, cod = op.domain.whitening, op.codomain.whitening
    Aw = cod.mul_lt(dom.solve_l(op.matrix.T).T)
    rows, cols = Aw.shape
    if rows >= cols:
        pw = rank_split(Aw).solve(np.eye(rows))
    else:
        pw = rank_split(Aw.T).solve(np.eye(cols)).T
    mat = dom.solve_lt(cod.mul_l(pw.T).T)
    return LinearOp(op.codomain, op.domain, mat)


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
    s = rank_split(subspace_transfer(a, b)).s
    return float(np.max(np.abs(s - 1.0)))
