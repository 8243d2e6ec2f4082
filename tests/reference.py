"""References the tests check the package against, which no command uses.

- ``dense_adjoint`` and ``dense_laplacian``, the metric adjoint and the
  Hodge Laplacian as dense matrices from the dense Grams, against which
  the whitened differentials and ``solve``'s residual are checked;
- ``pseudoinverse`` and the paper's regularizers ``regularizer_R`` and
  ``regularizer_S``, which invert the isomorphism steps' transfers
  (criteria 6 and 7, and the inverse-transfer test);
- the mesh references ``orientation_sign`` (the incidence sign from
  explicit vertex orderings), ``boundary_matrix`` (dense relative
  incidence), ``patch_pair`` (one element patch as its own pair) and
  ``open_star_report`` (the patch condition, one elimination per star),
  against which the incidence, the Betti numbers and the patch condition
  are checked;
- ``kernel_lift``, the solve of A X = B read off the exact kernel of
  [A | -B], against which ``polyforms._solve`` is checked;
- ``fresh_echelon`` and ``fresh_kernel``, the elimination whose every row
  step builds a new row dict and takes a gcd, against which the in-place
  steps of ``exact.echelon`` and ``exact.kernel`` are checked;
- ``trailing_q``, the harmonic complement one reflector at a time;
- the criterion-10 Stokes calculus on one simplex: ``geometry``,
  ``normal_trace`` and ``stokes_residual``, over ``SimplexGeometry``;
- the symbolic form algebra (``trace``, ``is_zero``, ``minus``,
  ``from_coefficients``, ``instantiate``, ``bubble_space``) and, on it,
  the symbolic decomposition check ``decomposition_entry``: extensions
  built as forms, traced and compared after reduction;
- ``trimmed_dimension``, the closed-form dimension of a trimmed space;
- ``stratum_slice``, the rows of one stratum of a broken space, read off
  its layout apart from ``assembly.placement``.
"""

import itertools
import math

import numpy as np

from ddforms import exact
from ddforms.assembly import AssemblyError, operator_D, operator_T
from ddforms.distrib import redirected_gamma, redirected_lambda
from ddforms.mesh import (MeshError, RelativePair, Simplex,
                          _permutation_parity, facet_incidence)
from ddforms.polyforms import (BarycentricForm, ElementSpace, FormError,
                               SimplexGeometry, _bubble_coeffs, _canon_wedge,
                               _coeff_matrix, _extension_lift, _family_space,
                               _kernel, _monomial_times, _placed, _solve,
                               whitney_form)


def stratum_slice(space, m):
    """The rows of the stratum on dimension m of a broken space."""
    (s,) = [s for s in space.strata if s.m == m]
    return slice(s.offset, s.offset + s.block * len(s.simplices))


# -- the metric ----------------------------------------------------------


def dense_adjoint(op):
    """The metric adjoint G_dom^-1 A^T G_cod of an operator A, as a dense
    matrix from the two spaces' dense Grams."""
    return np.linalg.solve(op.domain.gram,
                           op.submatrix().T @ op.codomain.gram)


def dense_laplacian(cx, i):
    """The Hodge Laplacian d*_i d_i + d_{i-1} d*_{i-1} at index i of a
    complex, as a dense matrix from the dense Grams and differentials."""
    n = cx.spaces[i].dim
    lap = np.zeros((n, n))
    if i < len(cx.diffs):
        lap += dense_adjoint(cx.diffs[i]) @ cx.diffs[i].submatrix()
    if i > 0:
        lap += cx.diffs[i - 1].submatrix() @ dense_adjoint(cx.diffs[i - 1])
    return lap


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


# -- the exact solve ------------------------------------------------------


def kernel_lift(A, B, error, reason):
    """The integer X with A X = B for integer A and B, read off the exact
    kernel of [A | -B]; free columns of A get zero.  Raises error(reason)
    unless every column of B is a free column of unit scale, i.e. unless
    it is an integer combination of the pivot columns of A."""
    n, nb = A.shape[1], B.shape[1]
    K, free = _kernel(np.hstack([A, -B]))
    lead = len(free) - nb
    if lead < 0 or not np.array_equal(free[lead:], np.arange(n, n + nb)) \
            or np.any(np.diagonal(K[n:, lead:]) != 1):
        raise error(reason)
    return K[:n, lead:].astype(np.int64)


# -- the harmonic basis ---------------------------------------------------


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


def _insert(pivots, r):
    """Reduce row r by the pivots, {leading column: pivot row}, until it is
    zero or leads a new column, with +-1 pivots preferred; whether it led
    one.  The row itself is not modified."""
    while r:
        c = min(r)
        p = pivots.get(c)
        if p is None:
            pivots[c] = r
            return True
        if abs(p[c]) != 1 and abs(r[c]) == 1:
            pivots[c], r, p = r, p, r
        r = _combine(r, p, c)
    return False


def fresh_echelon(rows):
    """``exact.echelon`` with a new row dict at every step."""
    pivots = {}
    return [i for i, r in enumerate(rows) if _insert(pivots, r)], pivots


def fresh_kernel(rows, ncols):
    """``exact.kernel`` with a new row dict at every step."""
    pivots = fresh_echelon(rows)[1]
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


def trailing_q(raw, tau):
    """``hilbert._trailing_q`` one reflector at a time: H_j applied last to
    first to the last n - k columns of the identity."""
    k, n = raw.shape
    Q = np.eye(n, n - k, -k)
    for j in range(k - 1, -1, -1):
        v = raw[j, j:].copy()
        v[0] = 1.0
        Q[j:] -= np.outer(tau[j] * v, v @ Q[j:])
    return Q


# -- mesh references ------------------------------------------------------


def _ordering(simplex):
    """An explicit vertex ordering of a simplex and the sign it leaves
    over: a sign of -1 swaps the last two vertices of the ascending tuple
    and leaves 1, except on a vertex, whose one ordering leaves its sign."""
    v = simplex.vertices
    if simplex.sign < 0 and len(v) > 1:
        return v[:-2] + (v[-1], v[-2]), 1
    return v, simplex.sign


def orientation_sign(face, cell):
    """The incidence sign o(F, C) for a codimension-one face F of C: C's
    ordering with the absent vertex at position j induces an ordering of
    F, and o(F, C) is (-1)^j times the parity taking it to F's ordering,
    times the signs the orderings leave."""
    fset = set(face.vertices)
    cset = set(cell.vertices)
    if not fset < cset or len(cset) - len(fset) != 1:
        raise MeshError(f"{face} is not a codimension-1 face of {cell}")
    (absent,) = cset - fset
    (corder, csign), (forder, fsign) = _ordering(cell), _ordering(face)
    j = corder.index(absent)
    induced = tuple(v for v in corder if v != absent)
    return (-1) ** j * _permutation_parity(induced, forder) * csign * fsign


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


def open_star_report(pair):
    """The patch report of ``mesh.check_local_patch_condition``, one
    elimination per simplex and dimension: every open star collected in
    one pass over the simplices, from the top dimension down (a simplex in
    a top cell joins the star of each of its subsimplices), and ranked on
    its own."""
    n = pair.top_dim
    star = {}
    faces = {}
    for m in range(n, -1, -1):
        for g in pair.simplices(m):
            # below the top, a simplex lies in a top cell exactly when that
            # cell has put it in its own star
            if m < n and (g.vertices not in star or g.vertices in pair.marked):
                continue
            if m:
                faces[g.vertices] = [
                    (f, orientation_sign(pair.simplex(f), g))
                    for f in g.faces()]
            for f in g.subsimplices():
                star.setdefault(f, []).append(g.vertices)
    entries = {}
    failures = []
    for f in pair.all_simplices():
        b = _open_star_betti(star.get(f.vertices, ()), faces, n)
        entries[f.vertices] = b
        if any(b[m] != 0 for m in range(n)):
            failures.append(f.vertices)
    return {"betti": entries, "failures": failures, "passed": not failures}


def _open_star_betti(chains, faces, n):
    """Betti numbers of the relative chains of a patch, given its open star
    by descending dimension, each dimension in ascending order, and the
    signed facets of every simplex."""
    by_dim = [[g for g in chains if len(g) == m + 1] for m in range(n + 1)]
    ranks = [0] * (n + 2)
    for m in range(1, n + 1):
        index = {g: i for i, g in enumerate(by_dim[m - 1])}
        ranks[m] = exact.rank(
            {index[h]: sign for h, sign in faces[g] if h in index}
            for g in by_dim[m])
    return [len(by_dim[m]) - ranks[m] - ranks[m + 1] for m in range(n + 1)]


# -- the criterion-10 Stokes calculus -------------------------------------


def geometry(pair, simplex):
    """SimplexGeometry of a mesh simplex, honoring its orientation sign."""
    return SimplexGeometry(pair.points(simplex), simplex.sign)


def normal_trace(form, positions, geo, face_geo=None):
    """The normal trace: inverse face star of the trace of the star."""
    if face_geo is None:
        face_geo = geo.face(positions)
    starred = geo.star(form)
    return face_geo.star_inverse(trace(starred, positions))


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
        tw = trace(w, positions)
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


# -- the symbolic form algebra --------------------------------------------


def trace(form, positions):
    """The pullback of a form to the face at the given vertex positions,
    the increasing tuple of local vertex indices of the face inside the
    form's simplex.  Terms involving a dropped barycentric variable or its
    differential vanish."""
    positions = tuple(positions)
    kept = set(positions)
    remap = {p: i for i, p in enumerate(positions)}
    mf = len(positions) - 1
    out = BarycentricForm(mf, form.degree)
    if form.degree > mf:
        return out
    for (alpha, sig), c in form.terms.items():
        if any(a > 0 and i not in kept for i, a in enumerate(alpha)):
            continue
        if any(i not in kept for i in sig):
            continue
        na = tuple(alpha[p] for p in positions)
        new_idx = tuple(remap[i] for i in sig)
        for nsig, w in _canon_wedge(new_idx, mf).items():
            out._add((na, nsig), c * w)
    return out


def is_zero(form, tol=0.0):
    """Whether every coefficient of a form is at most tol in size."""
    return all(abs(c) <= tol for c in form.terms.values())


def minus(a, b):
    """The difference of two forms of equal degree."""
    return a + b * -1.0


# -- the symbolic decomposition check -------------------------------------


def from_coefficients(space, coeffs):
    """The form with the given coordinates in a space's basis."""
    out = BarycentricForm(space.dim, space.degree)
    for c, f in zip(coeffs, space.basis):
        if c:
            out = out + f * float(c)
    return out


def bubble_space(kind, r, m, k):
    """The bubble space of the family on an m-simplex as an element space
    of forms, and its coefficients in the family basis."""
    src = _family_space(kind, r, m, k)
    null = _bubble_coeffs(kind, r, m, k)
    basis = [from_coefficients(src, c) for c in null.T]
    return ElementSpace(m, src.degree, basis, src.frame_degree), null


def instantiate(kind, alpha, idx, positions, mc):
    """A generator of a face, placed at the given positions, as a form on
    the mc-simplex."""
    alpha_c, mapped = _placed(alpha, idx, positions, mc)
    if kind == "trimmed":
        return _monomial_times(alpha_c, whitney_form(mc, mapped))
    return BarycentricForm.monomial(mc, alpha_c, mapped)


def extensions(kind, r, mf, k, mc):
    """{positions of each mf-face of the mc-simplex: the extensions of the
    face's bubble basis of k-forms}, as forms.  Extension i is column i of
    the lift over the full-support generators instantiated at the face."""
    gens, lift = _extension_lift(kind, r, mf, k)
    table = {}
    for positions in itertools.combinations(range(mc + 1), mf + 1):
        inst = [instantiate(kind, alpha, idx, positions, mc)
                for alpha, idx in gens]
        table[positions] = forms = []
        for gc in lift.T:
            out = BarycentricForm(mc, k)
            for w, g in zip(gc.tolist(), inst):
                if w:
                    out = out + g * w
            forms.append(out)
    return table


def _vanishes(form):
    """Whether a form is zero: term-wise first, else on the reduced
    coefficients, where forms equal only after sum(lambda) = 1 agree."""
    return is_zero(form) or not form.reduced()


def check_extension_identities(family, mf, k, mc):
    """Trace/extension identities for one face-in-simplex configuration,
    on symbolic traces of the extension forms."""
    kind, r = family.kind, family.r
    bubble, _ = bubble_space(kind, r, mf, k)
    if bubble.size == 0:
        return True
    for positions, exts in extensions(kind, r, mf, k, mc).items():
        pos_set = set(positions)
        for i, (f, ext) in enumerate(zip(bubble.basis, exts)):
            back = trace(ext, positions)
            if not _vanishes(minus(back, f)):
                return False
            for gsize in range(max(mf + 1, k + 1), mc + 1):
                for gpos in itertools.combinations(range(mc + 1), gsize):
                    tr = trace(ext, gpos)
                    if pos_set <= set(gpos):
                        remap = gpos.index
                        inner = tuple(remap(p) for p in positions)
                        via = extensions(kind, r, mf, k, gsize - 1)[inner][i]
                        if not _vanishes(minus(tr, via)):
                            return False
                    elif not _vanishes(tr):
                        return False
    return True


def decomposition_entry(family, m, k):
    """The decomposition report of the k-form element space on an
    m-simplex, from the symbolic extensions and their traces."""
    space = family.space(m, k)
    exts = [ext for mf in range(k, m + 1)
            for face in extensions(family.kind, family.r, mf, k, m).values()
            for ext in face]
    coords = _solve(space.matrix, _coeff_matrix(exts, space.frame), FormError,
                    "form is not a member of the element space", space.inverse)
    count = len(exts)
    rank = exact.rank(exact.dense_rows(coords.T))
    identities = all(check_extension_identities(family, mf, k, m)
                     for mf in range(k, m + 1))
    ok = count == space.size and rank == space.size and identities
    return {"space_dim": space.size, "bubble_sum": count, "rank": rank,
            "identities": bool(identities), "ok": bool(ok)}
