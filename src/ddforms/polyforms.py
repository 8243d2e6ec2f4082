"""Polynomial differential forms on a single simplex, as integer tables.

A k-form on an m-simplex is written in barycentric coordinates, as terms
lambda^alpha d(lambda_sigma) with integer coefficients.  Its unique
coefficient vector lies in the reduced frame: lambda_0 is eliminated
through lambda_0 = 1 - lambda_1 - ... - lambda_m and d(lambda_0) through
d(lambda_0) = -(d(lambda_1) + ... + d(lambda_m)), leaving the monomials
and wedges in the variables 1..m.  The element families are spanned by
symbolic generators (alpha, idx): lambda^alpha phi_rho for the trimmed
family, with phi_rho = sum_i (-1)^i lambda_{rho_i} d(lambda_{rho - rho_i})
the lowest-order form, and lambda^alpha d(lambda_sigma) for the full one
(Arnold, Falk and Winther, Acta Numerica 15, 2006).  A generator's terms
are an integer dict, and its column in the reduced frame an integer
expansion of them; a family basis is a subset of the generators.

Everything after that is integer maps on the frame and integer tables:
the exterior derivative of the frame monomials is one integer matrix,
applied to a basis's columns; a generator traces onto a facet to a
generator or to zero, so the trace tables are generators' coordinates;
the bubbles are the kernel of the stacked trace tables; an extension is
a lift over the generators touching every vertex of a face, placed on
the face; the trace onto any face is a product of facet tables; and the
decomposition check compares table products exactly.  Each table that
solves A X = B does so by one ``_solve``, exact and in integers.  The
element Grams contract the batched simplex metrics with a reference
tensor built from the basis generators' terms.  ``SimplexGeometry``
keeps the exact L2 inner product of two forms on one simplex, the tests'
entry-by-entry reference for the element Grams; the float form algebra
the tests check these tables against is in tests/reference.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ddforms import exact
from ddforms.mesh import _permutation_parity


class FormError(ValueError):
    """Invalid differential-form operation (dimension or degree mismatch)."""


class FamilyError(ValueError):
    """An element family fails a structural requirement."""


# -- combinatorial helpers ------------------------------------------------


@lru_cache(maxsize=None)
def _canon_wedge(indices, m):
    """Expand a wedge of d(lambda_i) into the canonical frame on {1..m}.

    Any occurrence of index 0 is replaced via d(lambda_0) = -sum of the
    others.  Returns a dict from strictly increasing tuples in {1..m} to
    integer coefficients.
    """
    indices = tuple(indices)
    if 0 in indices:
        pos = indices.index(0)
        out = {}
        for i in range(1, m + 1):
            rep = indices[:pos] + (i,) + indices[pos + 1:]
            for sig, c in _canon_wedge(rep, m).items():
                out[sig] = out.get(sig, 0) - c
        return {s: c for s, c in out.items() if c}
    if len(set(indices)) != len(indices):
        return {}
    srt = tuple(sorted(indices))
    return {srt: _permutation_parity(indices, srt)}


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            out.append((head,) + rest)
    return out


@lru_cache(maxsize=None)
def _compositions_leq(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to <= total."""
    out = []
    for t in range(total + 1):
        out.extend(_compositions(t, parts))
    return tuple(out)


@lru_cache(maxsize=None)
def _one_minus_sum_power(a, m):
    """(1 - x_1 - ... - x_m)^a as {exponent tuple: integer coefficient}."""
    return {combo: (-1) ** sum(combo) * math.factorial(a)
            // math.factorial(a - sum(combo))
            // math.prod(map(math.factorial, combo))
            for combo in _compositions_leq(a, m)}


def _unit_monomial_integral(alpha):
    """Integral of lambda^alpha over an m-simplex of unit volume,
    prod(alpha!) * m! / (|alpha| + m)! with m = len(alpha) - 1."""
    m = len(alpha) - 1
    num = math.prod(math.factorial(a) for a in alpha) * math.factorial(m)
    return num / math.factorial(sum(alpha) + m)


# -- the reduced frame ----------------------------------------------------


@lru_cache(maxsize=None)
def reduced_frame(m, k, R):
    """Ordered reduced frame keys for k-forms of polynomial degree <= R."""
    keys = []
    for alpha in _compositions_leq(R, m):
        for sig in itertools.combinations(range(1, m + 1), k):
            keys.append(((0,) + alpha, sig))
    keys.sort()
    return tuple(keys)


@lru_cache(maxsize=None)
def _frame_index(frame):
    return {key: i for i, key in enumerate(frame)}


def _frame_table(forms, frame):
    """The integer coefficients over a reduced frame of forms given by
    their terms, {(alpha, sigma): integer} with sigma canonical, one column
    each: lambda_0^a is expanded as (1 - lambda_1 - ... - lambda_m)^a."""
    index = _frame_index(frame)
    out = np.zeros((len(frame), len(forms)), np.int64)
    for j, terms in enumerate(forms):
        col = {}
        for (alpha, sig), c in terms.items():
            for combo, w in _one_minus_sum_power(alpha[0],
                                                 len(alpha) - 1).items():
                i = index[(0,) + tuple(map(sum, zip(alpha[1:], combo))), sig]
                col[i] = col.get(i, 0) + c * w
        out[list(col), j] = list(col.values())
    return out


# -- geometry -------------------------------------------------------------


def simplex_metrics(points):
    """Volumes and barycentric gradient Grams of a stack of m-simplices.

    ``points`` has shape (c, m+1, n): c simplices of m+1 vertices in R^n.
    Returns ``(volumes, grad_grams)`` of shapes (c,) and (c, m+1, m+1),
    where ``grad_grams[c, i, j] = g(d lambda_i, d lambda_j)`` on simplex c.
    The edge Grams are factored in one batched call; a single degenerate
    simplex in the stack raises FormError, and so does one whose edge Gram
    or its determinant leaves the floating-point range.
    """
    pts = np.asarray(points, float)
    c, m = pts.shape[0], pts.shape[1] - 1
    if m == 0:
        return np.ones(c), np.zeros((c, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        edges = pts[:, 1:] - pts[:, :1]
        M = edges @ edges.transpose(0, 2, 1)
        det = np.linalg.det(M)
        scale = np.abs(M).max(axis=(1, 2), initial=0.0)
        scale[scale == 0.0] = 1.0
        floor = 1e-24 * scale ** m
    if not (np.isfinite(det).all() and np.isfinite(floor).all()):
        raise FormError("simplex geometry beyond the floating-point range")
    if np.any(det <= floor):
        raise FormError("degenerate simplex geometry")
    Gsub = np.linalg.inv(M)
    G = np.empty((c, m + 1, m + 1))
    G[:, 1:, 1:] = Gsub
    G[:, 0, 1:] = -Gsub.sum(axis=1)
    G[:, 1:, 0] = -Gsub.sum(axis=2)
    G[:, 0, 0] = Gsub.sum(axis=(1, 2))
    return np.sqrt(det) / math.factorial(m), G


class SimplexGeometry:
    """Metric data of an embedded m-simplex: volume and gradient Gram, and
    the exact L2 inner product of two forms on it."""

    def __init__(self, points, parity=1):
        pts = np.asarray(points, float)
        self.points = pts
        self.dim = len(pts) - 1
        self.parity = parity
        volumes, grad_grams = simplex_metrics(pts[None])
        self.volume = float(volumes[0])
        self.grad_gram = grad_grams[0]

    def metric(self, sigma, tau):
        """Pointwise inner product g(dL_sigma, dL_tau) of constant wedges."""
        if len(sigma) != len(tau):
            raise FormError("degree mismatch in metric pairing")
        if not sigma:
            return 1.0
        sub = self.grad_gram[np.ix_(sigma, tau)]
        return float(np.linalg.det(sub))

    def integrate_monomial(self, alpha):
        """Exact integral of lambda^alpha over the simplex."""
        return self.volume * _unit_monomial_integral(alpha)

    def inner_product(self, w, e):
        """L2 inner product of two equal-degree forms on this simplex, each
        read off its ``terms``, {(alpha, sigma): coefficient}, its
        ``degree`` and its ``dim``."""
        if w.degree != e.degree or w.dim != self.dim or e.dim != self.dim:
            raise FormError("inner product needs equal degrees on this simplex")
        total = 0.0
        for (a1, s1), c1 in w.terms.items():
            for (a2, s2), c2 in e.terms.items():
                g = self.metric(s1, s2)
                if g:
                    alpha = tuple(x + y for x, y in zip(a1, a2))
                    total += c1 * c2 * g * self.integrate_monomial(alpha)
        return total


# -- element spaces -------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A polynomial element family: ``trimmed`` (P_r minus) or ``full``.

    The full family assigns decreasing polynomial degree r - k to k-forms
    so that the exterior derivative stays inside the family.
    """

    kind: str
    r: int

    def __post_init__(self):
        if self.kind not in ("trimmed", "full"):
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if self.r < 1:
            raise FamilyError("polynomial degree must be >= 1")

    @property
    def label(self):
        return f"{self.kind}(r={self.r})"

    def space(self, m, k):
        return _family_space(self.kind, self.r, m, k)

    def d_matrix(self, m, k):
        return _d_matrix(self.kind, self.r, m, k)

    def trace_matrix(self, m, k):
        return _trace_matrix(self.kind, self.r, m, k)


class ElementSpace:
    """A space of k-forms on one m-simplex whose basis is a list of family
    generators: their integer coefficients over the reduced frame of
    polynomial degree ``frame_degree``, one column each, the generators
    (alpha, idx) and their terms; with no matrix, the zero space."""

    def __init__(self, dim, degree, frame_degree, matrix=None, generators=(),
                 terms=()):
        self.dim = dim
        self.degree = degree
        self.frame_degree = frame_degree
        self.frame = reduced_frame(dim, degree, frame_degree)
        self.matrix = np.zeros((len(self.frame), 0), np.int64) \
            if matrix is None else matrix
        self.generators = generators
        self.terms = terms

    @property
    def size(self):
        return self.matrix.shape[1]

    @cached_property
    def inverse(self):
        """``_inverse`` of the independent basis matrix, on first use."""
        return _inverse(self.matrix)

    @cached_property
    def reference_tensor(self):
        """A[s, t, i, j]: the Gram of basis forms i, j on a unit-volume
        simplex, restricted to the wedges sigma_s of i and sigma_t of j.

        With sigma_s running over the canonical k-subsets of {1..m}, the
        Gram on a simplex C is |C| * sum over (s, t) of
        det(g_C[sigma_s, sigma_t]) * A[s, t]: A does not depend on the
        geometry.  Built from the basis generators' terms and exact
        monomial integrals on first use and kept on the space.
        """
        m, n = self.dim, self.size
        sigs = {s: i for i, s in enumerate(
            itertools.combinations(range(1, m + 1), self.degree))}
        alphas = {a: i for i, a in enumerate(sorted(
            {a for terms in self.terms for a, _s in terms}))}
        C = np.zeros((len(sigs), n, len(alphas)))
        for i, terms in enumerate(self.terms):
            for (a, s), c in terms.items():
                C[sigs[s], i, alphas[a]] += c
        M = np.array([[_unit_monomial_integral(
            tuple(x + y for x, y in zip(a, b))) for b in alphas]
            for a in alphas]).reshape(len(alphas), len(alphas))
        return np.einsum("sia,tja->stij", C @ M, C)

    def gram(self, volumes, grad_grams):
        """Element Grams on a stack of simplices, shape (c, size, size).

        ``volumes`` and ``grad_grams`` are as returned by simplex_metrics.
        One batched determinant gives the k x k minors
        g(dL_sigma, dL_tau) of every cell, and one contraction with the
        reference tensor gives every cell's Gram.
        """
        m, k = self.dim, self.degree
        c = len(volumes)
        if self.size == 0:
            return np.zeros((c, 0, 0))
        # for k = 0 the minors are determinants of 0 x 0 matrices, i.e. 1
        sigs = np.array(list(itertools.combinations(range(1, m + 1), k)), int)
        minors = np.linalg.det(
            grad_grams[:, sigs[:, None, :, None], sigs[None, :, None, :]])
        G = np.einsum("cst,stij->cij", minors, self.reference_tensor)
        G *= np.asarray(volumes, float)[:, None, None]
        # exact symmetry, as the pairwise inner products had
        return 0.5 * (G + G.transpose(0, 2, 1))


@lru_cache(maxsize=None)
def _family_space(kind, r, m, k):
    """The family space of k-forms on an m-simplex, its basis a subset of
    the generators: for the trimmed family the generators independent of
    those before them (exactly: their coefficients are integers), for the
    full family, all k-forms of polynomial degree <= r - k, the monomials
    free of lambda_0 and d(lambda_0), which make up the reduced frame."""
    if m < 0:
        raise FamilyError(f"no simplex of dimension {m}")
    if k < 0 or k > m or (kind == "full" and r < k):
        return ElementSpace(m, max(k, 0), 0)
    gens = _generators(kind, r, m, k)
    terms = _generator_terms(kind, r, m, k)
    table = _generator_table(kind, r, m, k)
    if kind == "trimmed":
        keep = _independent(table)[1]
    else:
        keep = sorted((i for i, (alpha, sig) in enumerate(gens)
                       if not alpha[0] and 0 not in sig),
                      key=gens.__getitem__)
    return ElementSpace(m, k, r if kind == "trimmed" else r - k,
                        table[:, keep], [gens[i] for i in keep],
                        [terms[i] for i in keep])


# -- derivative / trace matrices, bubbles, extensions ---------------------


def _kernel(table):
    """The exact integer kernel basis of a small dense integer table, as a
    dense array, and its free columns (see ``exact.kernel``)."""
    (rows, cols, vals), free = exact.kernel(exact.dense_rows(table),
                                            table.shape[1])
    K = np.zeros((table.shape[1], len(free)), vals.dtype)
    K[rows, cols] = vals
    return K, free


def _independent(table):
    """(R, C) of a dense integer table, by ``exact.independent``."""
    return exact.independent(exact.dense_triplets(table), table.shape)


def _inverse(A):
    """(R, C, M, d) for an integer A: the rows R independent over the
    integers and the pivot columns C, the first independent ones, from one
    echelon, and an integer M and d > 0 with A[R, C] M = d I, from one
    exact kernel of [A[R, C] | -I]; A[R, C] is square and invertible."""
    rows, cols = _independent(A)
    n = len(cols)
    K = _kernel(np.hstack([A[np.ix_(rows, cols)],
                           -np.eye(n, dtype=np.int64)]))[0]
    # column j of K is s_j (A[R, C]^-1 e_j, e_j), s_j > 0
    scale = np.diagonal(K[n:]).tolist()
    d = math.lcm(*scale)
    return rows, cols, K[:n] * np.array([d // s for s in scale], K.dtype), d


def _solve(A, B, error, reason, inverse=None):
    """The integer X with A X = B for integer A and B that is zero off the
    pivot columns C of A: X[C] = M B[R] / d by the given ``_inverse(A)``,
    or by one taken here.  Raises error(reason) unless that is integral and
    solves A X = B exactly, i.e. unless B is an integer combination of C."""
    rows, cols, M, d = _inverse(A) if inverse is None else inverse
    X = np.zeros((A.shape[1], B.shape[1]), np.int64)
    X[cols], rest = np.divmod(M @ B[rows], d)
    if rest.any() or not np.array_equal(A @ X, B):
        raise error(reason)
    return X


@lru_cache(maxsize=None)
def _d_matrix(kind, r, m, k):
    """Matrix of the exterior derivative space(m,k) -> space(m,k+1): the
    derivative on the reduced frame, d(lambda^alpha d(lambda_sigma)) =
    sum over i >= 1 of alpha_i lambda^(alpha - e_i) d(lambda_i) ^
    d(lambda_sigma), is one integer matrix, applied to the source basis
    and solved for in the target basis."""
    src = _family_space(kind, r, m, k)
    tgt = _family_space(kind, r, m, k + 1)
    if src.size == 0 or k >= m:
        return np.zeros((tgt.size, src.size), dtype=np.int64)
    d_frame = _frame_table(
        [{(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:], s): alpha[i] * w
          for i in range(1, m + 1) if alpha[i]
          for s, w in _canon_wedge((i,) + sig, m).items()}
         for alpha, sig in src.frame], tgt.frame)
    return _solve(tgt.matrix, d_frame @ src.matrix, FamilyError,
                  "family is not closed under the requested operation",
                  tgt.inverse)


@lru_cache(maxsize=None)
def _trace_matrix(kind, r, m, k):
    """The matrices of the traces onto the facets of an m-simplex, stacked
    as (m + 1, target size, source size) and indexed by the omitted local
    vertex j.  The trace of a generator onto that facet is zero where j is
    in its monomial support or index set, and otherwise the facet's
    generator with j dropped, so one solve for those generators in the
    facet's basis gives every column."""
    src = _family_space(kind, r, m, k)
    tgt = _family_space(kind, r, m - 1, k)
    out = np.zeros((m + 1, tgt.size, src.size), dtype=np.int64)
    if not out.size:
        return out
    index = _generator_index(kind, r, m - 1, k)
    traced = [(j, i, index[alpha[:j] + alpha[j + 1:],
                           tuple(v - (v > j) for v in idx)])
              for i, (alpha, idx) in enumerate(src.generators)
              for j in range(m + 1) if not alpha[j] and j not in idx]
    gens = sorted({g for _j, _i, g in traced})
    B = _generator_table(kind, r, m - 1, k)[:, gens]
    coords = _solve(tgt.matrix, B, FamilyError,
                    "family is not closed under the requested operation",
                    tgt.inverse)
    at = {g: c for c, g in enumerate(gens)}
    for j, i, g in traced:
        out[j, :, i] = coords[:, at[g]]
    return out


@lru_cache(maxsize=None)
def _bubble_coeffs(kind, r, m, k):
    """The trace-free subspace of the family space on an m-simplex: an
    integer basis of the kernel of the stacked trace tables, mapping the
    bubble basis into the family basis."""
    size = _family_space(kind, r, m, k).size
    if m == 0 or k > m - 1 or not size:
        return np.eye(size, dtype=np.int64)
    return _kernel(_trace_matrix(kind, r, m, k).reshape(-1, size))[0]


@lru_cache(maxsize=None)
def _generators(kind, r, m, k):
    """The symbolic generators spanning the family space on an m-simplex,
    each (alpha, idx): for the trimmed family idx names a lowest-order
    form, for the full family a literal wedge, over all m + 1 vertices."""
    if kind == "trimmed":
        return tuple((alpha, rho)
                     for rho in itertools.combinations(range(m + 1), k + 1)
                     for alpha in sorted(_compositions(r - 1, m + 1)))
    return tuple((alpha, sig)
                 for sig in itertools.combinations(range(m + 1), k)
                 for alpha in sorted(_compositions_leq(r - k, m + 1)))


@lru_cache(maxsize=None)
def _generator_terms(kind, r, m, k):
    """The terms of each generator, {(alpha, sigma): integer} with sigma
    canonical: lambda^alpha phi_rho, phi_rho = sum_i (-1)^i lambda_{rho_i}
    d(lambda_{rho - rho_i}), for the trimmed family, and lambda^alpha
    d(lambda_sigma) for the full one, d(lambda_0) expanded by
    ``_canon_wedge``."""
    out = []
    for alpha, idx in _generators(kind, r, m, k):
        parts = [(alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:], (-1) ** i,
                  idx[:i] + idx[i + 1:]) for i, v in enumerate(idx)] \
            if kind == "trimmed" else [(alpha, 1, idx)]
        out.append({(a, sig): sign * c for a, sign, rest in parts
                    for sig, c in _canon_wedge(rest, m).items()})
    return tuple(out)


@lru_cache(maxsize=None)
def _generator_table(kind, r, m, k):
    """The generators' integer coefficients in the reduced frame of the
    family's polynomial degree, one column each."""
    degree = r if kind == "trimmed" else r - k
    return _frame_table(_generator_terms(kind, r, m, k),
                        reduced_frame(m, k, degree))


@lru_cache(maxsize=None)
def _generator_coords(kind, r, m, k):
    """The integer coordinates of the generators in the family basis, one
    column each, by one solve."""
    space = _family_space(kind, r, m, k)
    return _solve(space.matrix, _generator_table(kind, r, m, k), FormError,
                  "form is not a member of the element space", space.inverse)


@lru_cache(maxsize=None)
def _generator_index(kind, r, m, k):
    return {g: i for i, g in enumerate(_generators(kind, r, m, k))}


def _placed(alpha, idx, positions, mc):
    """A face generator as the generator of the mc-simplex it becomes."""
    alpha_c = [0] * (mc + 1)
    for p, a in zip(positions, alpha):
        alpha_c[p] = a
    return tuple(alpha_c), tuple(positions[i] for i in idx)


@lru_cache(maxsize=None)
def _extension_lift(kind, r, mf, k):
    """The full-support generators on an mf-simplex, and the integer
    representation of the bubble basis over them, by one exact solve in the
    family coordinates, zero on generators dependent on those before them;
    raises if their span is insufficient.  A generator has full support
    when every local vertex appears in its monomial support or its index
    set, so that placed on a face of a larger simplex it vanishes on the
    faces missing a vertex of that face."""
    coeffs = _bubble_coeffs(kind, r, mf, k)
    gens = tuple((alpha, idx) for alpha, idx in _generators(kind, r, mf, k)
                 if {i for i, a in enumerate(alpha) if a} | set(idx)
                 == set(range(mf + 1)))
    if coeffs.shape[1] == 0:
        return gens, np.zeros((len(gens), 0), dtype=np.int64)
    if not gens:
        raise FamilyError(
            f"{kind}(r={r}): no full-support generators for k={k} on dim {mf}")
    index = _generator_index(kind, r, mf, k)
    A = _generator_coords(kind, r, mf, k)[:, [index[g] for g in gens]]
    return gens, _solve(A, coeffs, FamilyError, (
        f"{kind}(r={r}): bubble space on dim {mf}, k={k} is not covered "
        "by full-support generators; no extension operator available"))


@lru_cache(maxsize=None)
def _extension_coords(kind, r, mf, k, mc):
    """The extensions of the bubble basis of every mf-face of the
    mc-simplex, as integer coordinates in the family basis there: one
    column per face (in ``combinations`` order) and bubble form.  The
    extension of bubble form i is the full-support generators placed on
    the face, weighted by column i of the lift: it restricts back to the
    bubble form, vanishes on faces not containing the face, and lands in
    the family space.  The extension from a simplex to itself is the
    identity: the bubble coefficients."""
    if mf == mc:
        return _bubble_coeffs(kind, r, mf, k)
    gens, lift = _extension_lift(kind, r, mf, k)
    size = _family_space(kind, r, mc, k).size
    if lift.shape[1] == 0:
        return np.zeros((size, 0), dtype=np.int64)
    coords = _generator_coords(kind, r, mc, k)
    index = _generator_index(kind, r, mc, k)
    return np.hstack([
        coords[:, [index[_placed(alpha, idx, positions, mc)]
                   for alpha, idx in gens]] @ lift
        for positions in itertools.combinations(range(mc + 1), mf + 1)])


@lru_cache(maxsize=None)
def _face_trace(kind, r, m, k, positions):
    """The trace table from the m-simplex onto its face at the given
    increasing positions: the product of facet tables, the omitted
    vertices dropped highest first, so that the lower ones keep their
    local index."""
    omitted = [j for j in range(m + 1) if j not in positions]
    if not omitted:
        return np.eye(_family_space(kind, r, m, k).size, dtype=np.int64)
    j = omitted[-1]
    inner = tuple(p - (p > j) for p in positions)
    return _face_trace(kind, r, m - 1, k, inner) @ \
        _trace_matrix(kind, r, m, k)[j]


# -- family condition checkers --------------------------------------------


def check_local_exactness(family, m):
    """Exactness of the per-simplex polynomial sequence on an m-simplex.

    Checks that the constants span ker of the first derivative and that
    kernel and range dimensions match at every later index, including
    surjectivity onto the top-degree space.
    """
    report = {"dim": m, "family": family.label, "indices": {}, "passed": True}
    ranks = {k: len(_independent(family.d_matrix(m, k))[0])
             for k in range(m + 1)}
    for k in range(m + 1):
        n = family.space(m, k).size
        nullity = n - ranks[k]
        if k == 0:
            ok = nullity == 1 and n >= 1
            if ok and n:
                space = family.space(m, 0)
                one = np.zeros((len(space.frame), 1), np.int64)
                one[_frame_index(space.frame)[(0,) * (m + 1), ()]] = 1
                try:
                    _solve(space.matrix, one, FormError, "", space.inverse)
                except FormError:
                    ok = False
        else:
            # the top d table is zero, so at k = m this is surjectivity
            ok = nullity == ranks[k - 1]
        report["indices"][k] = {"dim": n, "kernel": nullity, "ok": bool(ok)}
        report["passed"] = report["passed"] and ok
    return report


def _extension_identities(kind, r, mf, k, mc):
    """The trace/extension identities of the mf-face bubbles in the
    mc-simplex, as exact integer comparisons of coordinates: traced onto
    a proper face of dimension g >= mf (onto the simplex itself when
    mf = mc), the extensions of the faces inside it are that face's
    extensions, which for g = mf are its bubble forms, and those of the
    faces not inside it vanish."""
    coeffs = _bubble_coeffs(kind, r, mf, k)
    nb = coeffs.shape[1]
    if nb == 0:
        return True
    faces = list(itertools.combinations(range(mc + 1), mf + 1))
    ext = _extension_coords(kind, r, mf, k, mc)
    for g in range(mf, max(mc, mf + 1)):
        at = {p: i for i, p in
              enumerate(itertools.combinations(range(g + 1), mf + 1))}
        # (family basis on the g-face, face, bubble form)
        inner = coeffs[:, None] if g == mf else \
            _extension_coords(kind, r, mf, k, g).reshape(-1, len(at), nb)
        for gpos in itertools.combinations(range(mc + 1), g + 1):
            local = {p: i for i, p in enumerate(gpos)}
            want = np.zeros((len(inner), len(faces), nb), np.int64)
            for a, positions in enumerate(faces):
                if set(positions) <= local.keys():
                    want[:, a] = inner[:, at[tuple(map(local.get, positions))]]
            if not np.array_equal(_face_trace(kind, r, mc, k, gpos) @ ext,
                                  want.reshape(len(inner), -1)):
                return False
    return True


def check_geometric_decomposition(pair, family, k):
    """Face-by-face decomposition of the element spaces on a mesh's strata.

    For each simplex dimension present, verifies that extended bubble
    spaces of all faces are independent and jointly span the element
    space, and that the trace/extension identities hold.  A dimension whose
    bubbles have no extension into the family space fails with the reason.
    """
    n = pair.top_dim
    report = {"family": family.label, "degree": k, "dims": {}, "passed": True}
    for m in range(k, n + 1):
        if not pair.simplices(m):
            continue
        try:
            entry = _decomposition_entry(family, m, k)
        except (FamilyError, FormError) as exc:
            entry = {"ok": False, "reason": str(exc)}
        report["dims"][m] = entry
        report["passed"] = report["passed"] and entry["ok"]
    return report


def _decomposition_entry(family, m, k):
    """Decomposition report of the k-form element space on an m-simplex;
    raises FamilyError or FormError when a bubble cannot be extended."""
    kind, r = family.kind, family.r
    size = family.space(m, k).size
    # the basis is independent, so the extensions' rank is their
    # coordinates' rank
    coords = np.hstack([_extension_coords(kind, r, mf, k, m)
                        for mf in range(k, m + 1)])
    count = coords.shape[1]
    rank = len(_independent(coords)[0])
    identities = all(_extension_identities(kind, r, mf, k, m)
                     for mf in range(k, m + 1))
    ok = count == size and rank == size and identities
    return {
        "space_dim": size,
        "bubble_sum": count,
        "rank": rank,
        "identities": bool(identities),
        "ok": bool(ok),
    }
