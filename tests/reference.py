"""References the tests check the package against, which no command uses.

- ``pseudoinverse`` and the paper's regularizers ``regularizer_R`` and
  ``regularizer_S``, which invert the isomorphism steps' transfers
  (criteria 6 and 7, and the inverse-transfer test);
- the mesh references ``boundary_matrix`` (dense relative incidence) and
  ``patch_pair`` (one element patch as its own pair), against which the
  Betti numbers and the one-pass patch condition are checked;
- the criterion-10 Stokes calculus on one simplex: ``geometry``,
  ``normal_trace`` and ``stokes_residual``, over ``SimplexGeometry``;
- ``trimmed_dimension``, the closed-form dimension of a trimmed space;
- ``stratum_slice``, the rows of one stratum of a broken space, read off
  its layout apart from ``assembly.placement``.
"""

import math

import numpy as np

from ddforms.assembly import AssemblyError, operator_D, operator_T
from ddforms.distrib import redirected_gamma, redirected_lambda
from ddforms.mesh import (MeshError, RelativePair, Simplex,
                          _permutation_parity, facet_incidence)
from ddforms.polyforms import SimplexGeometry


def stratum_slice(space, m):
    """The rows of the stratum on dimension m of a broken space."""
    (s,) = [s for s in space.strata if s.m == m]
    return slice(s.offset, s.offset + s.block * len(s.simplices))


# -- the paper's regularizers ---------------------------------------------


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
    H = dom.solve_l(op.submatrix(rows=rows).T)
    Q, T = np.linalg.qr(cod.mul_lt(op.apply(dom.solve_lt(H))))
    return dom.solve_lt(H @ np.linalg.solve(T, Q.T @ cod.mul_lt(rhs)))


def _regularizer(cx, i, op, sign, x):
    """(I + sign * d_{i-1} E) x on space i of a graded complex, where E, the
    metric pseudoinverse of op, reads the stratum of op's codomain in
    space i and writes into the stratum of op's domain in space i-1."""
    rows = stratum_slice(cx.spaces[i], op.codomain.strata[0].m)
    cols = stratum_slice(cx.spaces[i - 1], op.domain.strata[0].m)
    y = np.zeros((cx.spaces[i - 1].dim,) + np.shape(x)[1:])
    y[cols] = pseudoinverse(op, x[rows])
    return x + sign * cx.diffs[i - 1].apply(y)


def regularizer_R(pair, family, k, b, x):
    """The preimage regularizer on the degree-graded space at depth b,
    applied to x.

    Subtracts the derivative of a right-inverse lift (through T) of the
    deepest graded component; the result of applying it to a cocycle has
    vanishing deepest component and an unchanged derivative.
    """
    if not 2 <= b <= k + 1:
        raise AssemblyError(f"depth {b} out of range for regularizer (k={k})")
    cx = redirected_lambda(pair, family, k - b + 1)
    t_op = operator_T(pair, pair.top_dim - b + 2, k - b + 1, family)
    return _regularizer(cx, k, t_op, (-1.0) ** b, x)


def regularizer_S(pair, family, m, b, x):
    """Chain-side mirror of regularizer_R on the stratum-graded space,
    lifting through D."""
    n = pair.top_dim
    if not 2 <= b <= n - m + 1:
        raise AssemblyError(f"depth {b} out of range for regularizer (m={m})")
    cx = redirected_gamma(pair, family, m + b - 1)
    d_op = operator_D(pair, m + b - 1, b - 2, family)
    return _regularizer(cx, n - m, d_op, (-1.0) ** (b + n - m), x)


# -- mesh references ------------------------------------------------------


def boundary_matrix(pair, m):
    """Relative boundary matrix from the m-stratum to the (m-1)-stratum.

    Integer entries o(F, C); rows for marked simplices are omitted.
    """
    if m < 1 or m > pair.top_dim:
        raise MeshError(f"boundary dimension {m} out of range")
    mat = [[0] * len(pair.stratum(m)) for _ in pair.stratum(m - 1)]
    cell, facet, _j, sign = facet_incidence(pair, m).tolist()
    for c, f, s in zip(cell, facet, sign):
        mat[f][c] = s
    return mat


def patch_pair(pair, simplex):
    """The local element patch (M_F, N_F) around a simplex F.

    M_F collects every simplex sharing a top-dimensional supersimplex with
    F; N_F is the part of its (n-1)-skeleton not containing F, together
    with any marked members.
    """
    f = simplex if isinstance(simplex, Simplex) else pair.simplex(simplex)
    if f.vertices not in {s.vertices for s in pair.all_simplices()}:
        raise MeshError(f"{f} not in complex")
    n = pair.top_dim
    fset = set(f.vertices)
    members = {}
    for c in pair.simplices(n):
        if fset <= set(c.vertices):
            for g in c.subsimplices():
                members[g] = pair.simplex(g)
    marked = set()
    for g in members:
        if len(g) - 1 <= n - 1 and (not fset <= set(g) or g in pair.marked):
            marked.add(g)
    return RelativePair(pair.coords, members.values(), marked, top_dim=n)


# -- the criterion-10 Stokes calculus -------------------------------------


def geometry(pair, simplex):
    """SimplexGeometry of a mesh simplex, honoring its stored orientation."""
    parity = _permutation_parity(simplex.orientation, simplex.vertices)
    return SimplexGeometry(pair.points(simplex), parity)


def normal_trace(form, positions, geo, face_geo=None):
    """The normal trace: inverse face star of the trace of the star."""
    if face_geo is None:
        face_geo = geo.face(positions)
    starred = geo.star(form)
    return face_geo.star_inverse(starred.trace(positions))


def stokes_residual(w, e, geo, relative=False):
    """Integration-by-parts residual |<dw,e> - <w,delta e> - boundary sum|.

    Faces are taken with ascending orientation, so the incidence sign of
    the j-th facet is (-1)^j.  With ``relative`` the residual is divided
    by the sum of the term magnitudes (floored at one), which keeps the
    measure meaningful on poorly shaped simplices.
    """
    m = geo.dim
    t1 = geo.inner_product(w.derivative(), e)
    t2 = geo.inner_product(w, geo.codifferential(e))
    rhs = 0.0
    scale = abs(t1) + abs(t2)
    for j in range(m + 1):
        positions = tuple(i for i in range(m + 1) if i != j)
        fg = geo.face(positions)
        tw = w.trace(positions)
        ne = normal_trace(e, positions, geo, fg)
        term = (-1) ** j * fg.inner_product(tw, ne)
        rhs += term
        scale += abs(term)
    residual = abs(t1 - t2 - rhs)
    if relative:
        return residual / max(scale, 1.0)
    return residual


def trimmed_dimension(m, k, r):
    """Closed-form dimension of the trimmed space (used as an oracle)."""
    return math.comb(r + k - 1, k) * math.comb(r + m, m - k)
