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
- ``s_qr_basis``, the harmonic basis as the complement of the whitened
  S = [L^-1 d_i[R]^T | L^T d_{i-1}[:, C]] in a complete QR;
- the float form algebra: ``BarycentricForm`` (sums, scalar multiples,
  the exterior derivative and the reduction to the reduced frame),
  ``whitney_form``, ``coeff_matrix`` and ``FormSpace``, a space spanned
  by forms with its coefficients solved for exactly; on it the family
  bases as forms (``family_forms``) and the element tables the package
  builds as integer maps on the reduced frame, here read off forms:
  ``generator_table``, ``d_table``, ``trace_tables``, ``bubble_table``,
  ``extension_table`` and ``reference_tensor``;
- the criterion-10 Stokes calculus on one simplex: ``geometry``,
  ``star``, ``star_inverse``, ``codifferential``, ``face``,
  ``normal_trace`` and ``stokes_residual``, over ``SimplexGeometry``;
- the symbolic trace and decomposition (``trace``, ``is_zero``,
  ``minus``, ``from_coefficients``, ``instantiate``, ``bubble_space``)
  and, on them, the symbolic decomposition check ``decomposition_entry``:
  extensions built as forms, traced and compared after reduction;
- ``trimmed_dimension``, the closed-form dimension of a trimmed space;
- ``stratum_slice``, the rows of one stratum of a broken space, read off
  its layout apart from ``assembly.placement``.
"""

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from ddforms import exact, hilbert
from ddforms.assembly import AssemblyError, operator_D, operator_T
from ddforms.distrib import redirected_gamma, redirected_lambda
from ddforms.mesh import (MeshError, RelativePair, Simplex,
                          _permutation_parity, facet_incidence)
from ddforms.polyforms import (FamilyError, FormError, SimplexGeometry,
                               _bubble_coeffs, _canon_wedge,
                               _compositions_leq, _extension_lift,
                               _family_space, _frame_index, _generators,
                               _inverse, _kernel, _placed, _solve,
                               _unit_monomial_integral, reduced_frame)


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


def s_qr_basis(cx, i):
    """The harmonic basis at index i by the complete QR of the whitened
    S = [L^-1 d_i[R]^T | L^T d_{i-1}[:, C]], at any index: its trailing
    n - |R| - |C| columns, unwhitened."""
    rows, cols = hilbert._independent(cx, i)
    W, n = cx.spaces[i].whitening, cx.spaces[i].dim
    parts = [np.zeros((n, 0))]
    if rows:
        parts.append(W.solve_l(cx.diffs[i].submatrix()[rows].T))
    if cols:
        parts.append(W.mul_lt(cx.diffs[i - 1].submatrix()[:, cols]))
    S = np.hstack(parts)
    return W.solve_lt(np.linalg.qr(S, mode="complete")[0][:, S.shape[1]:])


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
        ranks[m] = len(exact.echelon(
            [{index[h]: sign for h, sign in faces[g] if h in index}
             for g in by_dim[m]])[0])
    return [len(by_dim[m]) - ranks[m] - ranks[m + 1] for m in range(n + 1)]


# -- the float form algebra -----------------------------------------------


@lru_cache(maxsize=None)
def _one_minus_sum_power(a, m):
    """Expansion of (1 - x_1 - ... - x_m)^a as {exponent tuple: coeff}."""
    out = {}
    for combo in _compositions_leq(a, m):
        s = sum(combo)
        coeff = (-1) ** s * math.factorial(a)
        coeff //= math.factorial(a - s)
        for j in combo:
            coeff //= math.factorial(j)
        out[combo] = float(coeff)
    return out


class BarycentricForm:
    """A polynomial differential form on an m-simplex.

    ``terms`` maps (alpha, sigma) to a coefficient, where alpha is an
    exponent tuple over lambda_0..lambda_m and sigma is a strictly
    increasing tuple in {1..m} naming the wedge d(lambda_sigma).
    """

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim, degree, terms=None):
        self.dim = dim
        self.degree = degree
        self.terms = dict(terms) if terms else {}

    def _add(self, key, coeff):
        c = self.terms.get(key, 0.0) + coeff
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    @classmethod
    def monomial(cls, dim, alpha, indices=(), coeff=1.0):
        """The form coeff * lambda^alpha * wedge of d(lambda_i) over indices.

        ``indices`` may mention index 0 and need not be sorted; the result
        is canonicalized.
        """
        alpha = tuple(alpha)
        if len(alpha) != dim + 1:
            raise FormError(f"exponent tuple has length {len(alpha)}, need {dim + 1}")
        f = cls(dim, len(indices))
        for sig, c in _canon_wedge(tuple(indices), dim).items():
            f._add((alpha, sig), coeff * c)
        return f

    def _like(self, other):
        if self.dim != other.dim:
            raise FormError("forms live on simplices of different dimension")

    def __add__(self, other):
        self._like(other)
        if self.degree != other.degree:
            raise FormError("degree mismatch in sum")
        out = BarycentricForm(self.dim, self.degree, self.terms)
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def __mul__(self, scalar):
        out = BarycentricForm(self.dim, self.degree)
        for key, c in self.terms.items():
            out._add(key, c * scalar)
        return out

    __rmul__ = __mul__

    def derivative(self):
        """Exterior derivative, canonicalized.  Top-degree input gives 0."""
        out = BarycentricForm(self.dim, self.degree + 1)
        if self.degree >= self.dim:
            return out
        for (alpha, sig), c in self.terms.items():
            for i, ai in enumerate(alpha):
                if ai == 0:
                    continue
                na = alpha[:i] + (ai - 1,) + alpha[i + 1:]
                for nsig, w in _canon_wedge((i,) + sig, self.dim).items():
                    out._add((na, nsig), c * ai * w)
        return out

    def reduced(self):
        """Coefficients over the reduced frame (lambda_0 eliminated).

        The result maps (alpha with alpha[0] = 0, sigma) to coefficients
        and is a unique representation of the form.
        """
        out = {}
        m = self.dim
        for (alpha, sig), c in self.terms.items():
            if not alpha[0]:
                # lambda_0^0 = 1: the term is already reduced
                v = out.get((alpha, sig), 0.0) + c
                if v:
                    out[alpha, sig] = v
                else:
                    out.pop((alpha, sig), None)
                continue
            rest = alpha[1:]
            for combo, w in _one_minus_sum_power(alpha[0], m).items():
                na = (0,) + tuple(r + e for r, e in zip(rest, combo))
                key = (na, sig)
                v = out.get(key, 0.0) + c * w
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out


def whitney_form(m, rho):
    """The lowest-order form attached to the sub-vertex-tuple rho."""
    k = len(rho) - 1
    f = BarycentricForm(m, k)
    for i, v in enumerate(rho):
        rest = rho[:i] + rho[i + 1:]
        alpha = tuple(1 if t == v else 0 for t in range(m + 1))
        for sig, c in _canon_wedge(rest, m).items():
            f._add((alpha, sig), (-1) ** i * c)
    return f


def monomial_times(alpha, form):
    """lambda^alpha times a form."""
    out = BarycentricForm(form.dim, form.degree)
    for (a, sig), c in form.terms.items():
        na = tuple(x + y for x, y in zip(a, alpha))
        out._add((na, sig), c)
    return out


def coeff_matrix(forms, frame):
    """The integer coefficient vectors of forms in a reduced frame, as
    columns; FormError for a term outside the frame or a non-integral
    coefficient."""
    index = _frame_index(frame)
    rows, cols, vals = [], [], []
    for j, f in enumerate(forms):
        for key, c in f.reduced().items():
            if key not in index:
                raise FormError(f"term {key} outside frame")
            if c != round(c):
                raise FormError(f"non-integral coefficient {c} of term {key}")
            rows.append(index[key])
            cols.append(j)
            vals.append(c)
    out = np.zeros((len(frame), len(forms)), dtype=np.int64)
    out[rows, cols] = vals
    return out


class FormSpace:
    """A space of k-forms on one m-simplex spanned by a list of forms, with
    their integer coefficients over a reduced frame."""

    def __init__(self, dim, degree, basis, frame):
        self.dim = dim
        self.degree = degree
        self.basis = list(basis)
        self.frame = frame
        self.matrix = coeff_matrix(self.basis, frame)

    @property
    def size(self):
        return len(self.basis)

    @cached_property
    def inverse(self):
        return _inverse(self.matrix)

    def coefficients(self, form):
        """Coordinates of a form in this basis; FormError if not a member."""
        reason = "form is not a member of the element space"
        if not form.reduced().keys() <= _frame_index(self.frame).keys():
            raise FormError(reason)
        return _solve(self.matrix, coeff_matrix([form], self.frame),
                      FormError, reason, self.inverse)[:, 0]


def generator_form(kind, m, alpha, idx):
    """A generator of a family on the m-simplex as a form: lambda^alpha
    times the lowest-order form of idx (trimmed), or lambda^alpha times
    the wedge of idx (full)."""
    if kind == "trimmed":
        return monomial_times(alpha, whitney_form(m, idx))
    return BarycentricForm.monomial(m, alpha, idx)


def generator_table(kind, r, m, k):
    """Every generator's coefficients in the reduced frame of the family's
    polynomial degree, one column each, read off the forms."""
    degree = r if kind == "trimmed" else r - k
    return coeff_matrix([generator_form(kind, m, alpha, idx)
                         for alpha, idx in _generators(kind, r, m, k)],
                        reduced_frame(m, k, degree))


def family_forms(kind, r, m, k):
    """The basis of a family space as forms, built from its generators."""
    space = _family_space(kind, r, m, k)
    return FormSpace(m, space.degree,
                     [generator_form(kind, m, alpha, idx)
                      for alpha, idx in space.generators], space.frame)


def _images(tgt, images, error):
    """The coordinates of forms in the basis of a FormSpace."""
    return _solve(tgt.matrix, coeff_matrix(images, tgt.frame), error,
                  "family is not closed under the requested operation",
                  tgt.inverse)


def d_table(kind, r, m, k):
    """The d table: the derivatives of the basis forms, in the target
    basis."""
    src = family_forms(kind, r, m, k)
    tgt = family_forms(kind, r, m, k + 1)
    if not src.size or k >= m:
        return np.zeros((tgt.size, src.size), np.int64)
    return _images(tgt, [f.derivative() for f in src.basis], FamilyError)


def trace_tables(kind, r, m, k):
    """The trace tables onto the facets, stacked by the omitted vertex:
    the symbolic traces of the basis forms, in the facet's basis."""
    src = family_forms(kind, r, m, k)
    tgt = family_forms(kind, r, m - 1, k)
    out = np.zeros((m + 1, tgt.size, src.size), np.int64)
    if not out.size:
        return out
    for j in range(m + 1):
        positions = tuple(i for i in range(m + 1) if i != j)
        out[j] = _images(tgt, [trace(f, positions) for f in src.basis],
                         FamilyError)
    return out


def bubble_table(kind, r, m, k):
    """The bubble coefficients: the kernel of the stacked trace tables."""
    size = family_forms(kind, r, m, k).size
    if m == 0 or k > m - 1 or not size:
        return np.eye(size, dtype=np.int64)
    return _kernel(trace_tables(kind, r, m, k).reshape(-1, size))[0]


def extension_table(kind, r, mf, k, mc):
    """The coordinates of the symbolic extensions of every mf-face's
    bubble forms in the family basis of the mc-simplex, one column per
    face and bubble form."""
    forms = [ext for face in extensions(kind, r, mf, k, mc).values()
             for ext in face]
    tgt = family_forms(kind, r, mc, k)
    if not forms:
        return np.zeros((tgt.size, 0), np.int64)
    return _images(tgt, forms, FormError)


def reference_tensor(space):
    """The Gram reference tensor A[s, t, i, j] of a FormSpace, read off
    the terms of its basis forms (see ``ElementSpace.reference_tensor``)."""
    m, n = space.dim, space.size
    sigs = {s: i for i, s in enumerate(
        itertools.combinations(range(1, m + 1), space.degree))}
    alphas = {a: i for i, a in enumerate(sorted(
        {a for f in space.basis for a, _s in f.terms}))}
    C = np.zeros((len(sigs), n, len(alphas)))
    for i, f in enumerate(space.basis):
        for (a, s), c in f.terms.items():
            C[sigs[s], i, alphas[a]] += c
    M = np.array([[_unit_monomial_integral(
        tuple(x + y for x, y in zip(a, b))) for b in alphas]
        for a in alphas]).reshape(len(alphas), len(alphas))
    return np.einsum("sia,tja->stij", C @ M, C)


# -- the criterion-10 Stokes calculus -------------------------------------


def geometry(pair, simplex):
    """SimplexGeometry of a mesh simplex, honoring its orientation sign."""
    return SimplexGeometry(pair.points(simplex), simplex.sign)


def vol_coeff(geo):
    """The volume form of a simplex as vol_coeff * dL1^...^dLm."""
    return geo.parity * math.factorial(geo.dim) * geo.volume


def star(geo, form):
    """Hodge star with respect to the simplex's orientation."""
    m = geo.dim
    k = form.degree
    out = BarycentricForm(m, m - k)
    all_idx = tuple(range(1, m + 1))
    for (alpha, sig), c in form.terms.items():
        for tau in itertools.combinations(all_idx, k):
            g = geo.metric(tau, sig)
            if not g:
                continue
            rho = tuple(i for i in all_idx if i not in tau)
            sign = _permutation_parity(tau + rho, all_idx)
            out._add((alpha, rho), c * sign * g * vol_coeff(geo))
    return out


def star_inverse(geo, form):
    """Inverse Hodge star, mapping j-forms back to (m-j)-forms."""
    k = geo.dim - form.degree
    return star(geo, form) * float((-1) ** (k * (geo.dim - k)))


def codifferential(geo, form):
    """delta = (-1)^(m(k+1)+1) * star d star; zero on 0-forms."""
    m, k = geo.dim, form.degree
    if k == 0:
        return BarycentricForm(m, 0)
    sign = float((-1) ** (m * (k + 1) + 1))
    return star(geo, star(geo, form).derivative()) * sign


def face(geo, positions):
    """Geometry of the face at the given vertex positions (ascending
    orientation)."""
    return SimplexGeometry(geo.points[list(positions)])


def normal_trace(form, positions, geo, face_geo=None):
    """The normal trace: inverse face star of the trace of the star."""
    if face_geo is None:
        face_geo = face(geo, positions)
    return star_inverse(face_geo, trace(star(geo, form), positions))


def stokes_residual(w, e, geo, relative=False):
    """Integration-by-parts residual |<dw,e> - <w,delta e> - boundary sum|.

    Faces are taken with ascending orientation, so the incidence sign of
    the j-th facet is (-1)^j.  With ``relative`` the residual is divided
    by the sum of the term magnitudes (floored at one), which keeps the
    measure meaningful on poorly shaped simplices.
    """
    m = geo.dim
    t1 = geo.inner_product(w.derivative(), e)
    t2 = geo.inner_product(w, codifferential(geo, e))
    rhs = 0.0
    scale = abs(t1) + abs(t2)
    for j in range(m + 1):
        positions = tuple(i for i in range(m + 1) if i != j)
        fg = face(geo, positions)
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
    src = family_forms(kind, r, m, k)
    null = _bubble_coeffs(kind, r, m, k)
    basis = [from_coefficients(src, c) for c in null.T]
    return FormSpace(m, src.degree, basis, src.frame), null


def instantiate(kind, alpha, idx, positions, mc):
    """A generator of a face, placed at the given positions, as a form on
    the mc-simplex."""
    return generator_form(kind, mc, *_placed(alpha, idx, positions, mc))


def extensions(kind, r, mf, k, mc):
    """{positions of each mf-face of the mc-simplex: the extensions of the
    face's bubble basis of k-forms}, as forms.  Extension i is column i of
    the lift over the full-support generators instantiated at the face;
    the extension from a simplex to itself is the identity."""
    if mf == mc:
        return {tuple(range(mc + 1)): bubble_space(kind, r, mf, k)[0].basis}
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
    space = family_forms(family.kind, family.r, m, k)
    exts = [ext for mf in range(k, m + 1)
            for face in extensions(family.kind, family.r, mf, k, m).values()
            for ext in face]
    coords = _solve(space.matrix, coeff_matrix(exts, space.frame), FormError,
                    "form is not a member of the element space", space.inverse)
    count = len(exts)
    rank = len(exact.echelon(exact.dense_rows(coords.T))[0])
    identities = all(check_extension_identities(family, mf, k, m)
                     for mf in range(k, m + 1))
    ok = count == space.size and rank == space.size and identities
    return {"space_dim": space.size, "bubble_sum": count, "rank": rank,
            "identities": bool(identities), "ok": bool(ok)}
