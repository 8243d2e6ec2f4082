"""Distributional complexes over a mesh and their harmonic space theory.

This module builds every complex family the library knows, each once per
pair: the degree- and stratum-redirected complexes, whose ends are the
conforming complex (degree n), the chain-like complex (stratum 0) and the
full graded (total) complex they share, and their skeleton variants.  On
top of the builders sit the harmonic spaces of every grading, each at the
complex and position that ``_graded`` gives, and one ``_transfer``: the
matrix that an inclusion, a kernel embedding ``Subspace.embedding`` and a
stratum injection ``assembly.placement``, induces on two harmonic spaces
(the paper's regularizers, which the tests keep as references, invert
it).  ``verify_chain`` walks one ladder of harmonic spaces, from the
chain-like end through the total complex to the conforming end, and
reads every step off that transfer: equalities by their defect,
isomorphism steps by their singular values.  The other end-to-end
routines check homology dimensions against the mesh's Betti numbers, the
row and column exactness of the broken double complex, and the skeleton
projection and degree-0 identities.
"""

from __future__ import annotations

import numpy as np

from ddforms import exact
from ddforms.mesh import (betti_numbers, check_local_patch_condition,
                          check_pure, skeleton_pair)
from ddforms.polyforms import (check_geometric_decomposition,
                               check_local_exactness)
from ddforms.assembly import (AssemblyError, BrokenSpace, LinearOp, Subspace,
                              broken_space, derivative_operator, kernel_space,
                              operator_D, operator_T, placement)
from ddforms.hilbert import (ComplexInstance, harmonic_dim, harmonic_space,
                             subspace_transfer)


# The smallest relative singular value a harmonic transfer between equal
# dimensions must exceed to count as a bijection.
SMIN_TOL = 1e-6


def _kernel_diff(sub, target):
    """The graded derivative on a kernel subspace, into the next space of a
    graded complex: a kernel subspace (in the coordinates of its integer
    basis) or a broken space, either on a single stratum.

    In exact integers, on the triplets of the kernel bases: the image rows
    off the target's stratum must vanish, the others are read through the
    target's ``placement`` in the image space, and a kernel target's
    coordinates, read off its free columns, must be integers that
    reproduce the image."""
    tgt = target.ambient if isinstance(target, Subspace) else target
    d = derivative_operator(sub.ambient)
    rows, cols, vals = exact.product(d.triplets, sub.triplets,
                                     (d.codomain.dim, sub.dim))
    big_rows, small_rows, _ones = placement(tgt, d.codomain).triplets
    local = np.full(d.codomain.dim, -1)
    local[big_rows] = small_rows
    rows = local[rows]
    if np.any(rows < 0):
        raise AssemblyError("differential leaves the target stratum")
    if not isinstance(target, Subspace):
        return LinearOp(sub, target, triplets=(rows, cols, vals))
    zr, zc, zv = target.triplets
    coord = np.full(tgt.dim, -1)
    coord[target.free] = np.arange(target.dim)
    on = coord[rows] >= 0
    # Z[free[i], i], in the row order of the triplets, which is column order
    at, scale = coord[rows[on]], zv[coord[zr] == zc]
    if np.any(vals[on] % scale[at]):
        raise AssemblyError(
            "differential image has fractional coordinates in the subspace")
    coords = (at, cols[on], vals[on] // scale[at])
    span = exact.product(target.triplets, coords, (tgt.dim, sub.dim))
    if not all(map(np.array_equal, span, (rows, cols, vals))):
        raise AssemblyError("differential image falls outside the subspace")
    return LinearOp(sub, target, triplets=coords)


def _graded_complex(pair, family, kernels, head, label):
    """The one shape of every graded complex.

    A run of kernel subspaces, given as (m, k, which) triples, is joined by
    the graded derivative to the graded broken spaces that start on the
    stratum ``head`` = (m, k) and take m - k derivative steps.
    """
    spaces = [kernel_space(pair, m, k, family, which)
              for m, k, which in kernels]
    spaces.append(BrokenSpace(pair, [head], family))
    ops = [_kernel_diff(a, b) for a, b in zip(spaces, spaces[1:])]
    for _i in range(head[0] - head[1]):
        d = derivative_operator(spaces[-1])
        spaces.append(d.codomain)
        ops.append(d)
    return ComplexInstance(spaces, ops, label)


def redirected_lambda(pair, family, k0):
    """The degree-redirected complex: conforming spaces below k0, then the
    graded broken spaces with the distributional derivative.

    k0 = 0 gives the fully graded (total) complex; k0 = n gives the
    conforming complex, whose top space, n-forms with no trace to jump,
    is the whole broken space.
    """
    n = pair.top_dim
    if not 0 <= k0 <= n:
        raise AssemblyError(f"redirect degree {k0} out of range")
    kernels = [(n, k, "vertical") for k in range(k0)]
    label = f"redirected-degree({k0})"
    return pair.cached(("redirL", family, k0), lambda: (
        _graded_complex(pair, family, kernels, (n, k0), label)))


def redirected_gamma(pair, family, m0):
    """The stratum-redirected complex: piecewise-constant-like (kernel of
    the cellwise derivative) spaces above stratum m0, then graded broken
    spaces.  m0 = n gives the total complex, which is the very instance
    ``redirected_lambda(pair, family, 0)`` returns; m0 = 0 gives the
    chain-like one, whose vertex space, with no derivative to take, is the
    whole broken space.
    """
    n = pair.top_dim
    if not 0 <= m0 <= n:
        raise AssemblyError(f"redirect stratum {m0} out of range")
    if m0 == n:
        return redirected_lambda(pair, family, 0)
    kernels = [(m, 0, "horizontal") for m in range(n, m0, -1)]
    label = f"redirected-stratum({m0})"
    return pair.cached(("redirG", family, m0), lambda: (
        _graded_complex(pair, family, kernels, (m0, 0), label)))


def total_complex(pair, family):
    return redirected_lambda(pair, family, 0)


def conforming_complex(pair, family):
    return redirected_lambda(pair, family, pair.top_dim)


def chainlike_complex(pair, family):
    return redirected_gamma(pair, family, 0)


# -- harmonic spaces ------------------------------------------------------


def _graded(pair, family, side, index, b):
    """The complex and position of the harmonic space at grading depth b:
    side "lambda" fixes the degree k = index, at position k of
    redirected_lambda(k - b + 1), b = 1..k+1; side "gamma" fixes the
    stratum m = index, at position n - m of redirected_gamma(m + b - 1),
    b = 1..n-m+1."""
    degree = side == "lambda"
    pos = index if degree else pair.top_dim - index
    if not 1 <= b <= pos + 1:
        raise AssemblyError(f"grading depth {b} out of range for "
                            f"{'degree' if degree else 'stratum'} {index}")
    if degree:
        return redirected_lambda(pair, family, index - b + 1), pos
    return redirected_gamma(pair, family, index + b - 1), pos


def harmonic_lambda(pair, family, k, b):
    """The degree-k harmonic space at grading depth b (b = 1..k+1)."""
    return harmonic_space(*_graded(pair, family, "lambda", k, b))


def harmonic_gamma(pair, family, m, b):
    """The chain-side harmonic space over the m-stratum at depth b."""
    return harmonic_space(*_graded(pair, family, "gamma", m, b))


def _embedded(h):
    """A harmonic basis H of a kernel subspace seen in its broken space, Z H
    by its ``embedding``; one of a broken space is returned as it is."""
    space = h.ambient
    if isinstance(space, BrokenSpace):
        return h
    return Subspace(space.ambient, space.embedding.apply(h.basis))


# -- isomorphism steps ----------------------------------------------------


def _transfer(src, tgt):
    """The map that the inclusion of src's space in tgt's induces on
    cohomology, in the two harmonic bases: h^T G ι(y), with y and h the
    bases seen in their broken spaces, ι the stratum injection, the
    ``placement`` of the one broken space in the other, and the pairing
    ``subspace_transfer``.  Harmonic forms are cocycles, so no projection
    is needed.  Where either space is empty the transfer is empty and no
    space is whitened."""
    if not (src.dim and tgt.dim):
        return np.zeros((tgt.dim, src.dim))
    src, tgt = _embedded(src), _embedded(tgt)
    y = placement(src.ambient, tgt.ambient).apply(src.basis)
    return subspace_transfer(tgt, y)


def _singular_values(transfer):
    # the thin SVD, not the values-only one: that LAPACK path raised the
    # peak RSS of a chain on square_grid:6 by 0.6 MB
    return np.linalg.svd(transfer, full_matrices=False)[1]


def _bijection(transfer):
    """The smallest relative singular value of a transfer and whether it
    is a bijection: square, and either empty or smin_rel above SMIN_TOL."""
    rows, cols = transfer.shape
    smin_rel = float(rows == cols)
    if transfer.size and rows == cols:
        s = _singular_values(transfer)
        smin_rel = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return smin_rel, rows == cols and (not rows or smin_rel > SMIN_TOL)


def _defect(src, tgt):
    """Zero iff two harmonic spaces coincide in their broken space: the
    dimension gap, or else how far the singular values of the transfer
    between their Gram-orthonormal bases are from one.  A space coincides
    with itself with no transfer taken."""
    if src is tgt or src.dim != tgt.dim or not src.dim:
        return float(abs(src.dim - tgt.dim))
    return float(np.max(np.abs(_singular_values(_transfer(src, tgt)) - 1.0)))


# -- end-to-end verification ----------------------------------------------


def verify_chain(pair, family, k):
    """The full isomorphism chain from simplicial homology at index n-k to
    the conforming harmonic space of degree k.

    One ladder of 2k + 4 harmonic spaces, all at position k: the
    chain-like complex's, the stratum-graded ones at depths 1..k+1, the
    degree-graded ones at depths k+1..1 and the conforming complex's.
    The two graded runs meet at the total complex, one shared instance,
    so no step compares it with itself.  Each other neighbouring pair is
    one step, read off the ``_transfer`` of the inclusion between them,
    which points from each end towards the total complex: between an end
    space and its depth-1 space an equality, checked by the ``_defect``
    of the two subspaces, and between two depths an isomorphism step,
    checked by the singular values of the transfer.  At k = n each
    depth-1 equality compares one end instance with itself, a defect of
    0 taken with no SVD; both stay so that every degree reports the same
    steps.

    Returns the report of the degree: the Betti number, the ``dims`` of
    every space along the ladder, and ``steps``, one entry per step keyed
    by its label.
    """
    check_pure(pair)
    n = pair.top_dim
    m = n - k
    target = betti_numbers(pair)[m]
    ladder = [harmonic_space(chainlike_complex(pair, family), k),
              *(harmonic_gamma(pair, family, m, b) for b in range(1, k + 2)),
              *(harmonic_lambda(pair, family, k, b)
                for b in range(k + 1, 0, -1)),
              harmonic_space(conforming_complex(pair, family), k)]
    steps = {"homology vs chain harmonic": {
        "ok": ladder[0].dim == target, "dims": (target, ladder[0].dim)}}
    for j in range(2 * k + 3):
        if j == k + 1:
            continue
        chain_side = j <= k
        src, tgt = ladder[j], ladder[j + 1]
        if not chain_side:
            src, tgt = tgt, src
        depth = j if chain_side else 2 * k + 2 - j
        if not depth:
            end = "chain" if chain_side else "conforming"
            defect = _defect(src, tgt)
            steps[f"{end} harmonic depth-1 equality"] = {
                "ok": defect < 1e-8, "defect": defect}
            continue
        smin_rel, ok = _bijection(_transfer(src, tgt))
        side = "chain" if chain_side else "degree"
        steps[f"{side} transfer depth {depth}->{depth + 1}"] = {
            "ok": ok and src.dim == target, "dims": (src.dim, tgt.dim),
            "smin": smin_rel}
    steps["conforming dimension"] = {
        "ok": ladder[-1].dim == target, "dims": (target, ladder[-1].dim)}
    dims = [target] + [h.dim for h in ladder]
    return {
        "betti": target,
        "dims": dims,
        "steps": steps,
        "passed": all(s["ok"] for s in steps.values())
        and all(d == target for d in dims),
    }


def skeleton_projection(pair, family, k):
    """The codimension-one skeleton isomorphism at degree k >= 2.

    Pairs the skeleton-stratum part of the depth-2 harmonic space of the
    full mesh with the skeleton's conforming harmonic space at degree k-1,
    which lies in ker D and ker T already, so needs no cocycle projection.
    The transpose of the skeleton space's ``placement`` in the depth-2
    space restricts the depth-2 forms to the skeleton's broken space,
    and ``subspace_transfer`` pairs them there through its block factor.
    """
    n = pair.top_dim
    if k < 2:
        raise AssemblyError("the skeleton projection needs k >= 2")
    h2 = harmonic_lambda(pair, family, k, 2)
    skel_cx = conforming_complex(skeleton_pair(pair, n - 1), family)
    emb = _embedded(harmonic_space(skel_cx, k - 1))
    comp = placement(emb.ambient, h2.ambient).apply(h2.basis, transpose=True)
    transfer = subspace_transfer(emb, comp)
    smin_rel, ok = _bijection(transfer)
    return {
        "degree": k,
        "dims": (h2.dim, emb.dim),
        "smin_rel": smin_rel,
        "transfer": transfer,
        "ok": bool(ok),
    }


def _degree_zero_ranks(pair, family, m):
    """rank D and rank [D; T] of the (m, 0) stratum, T from m >= 1, from
    one elimination per pair, which the identities at m - 1 and m share."""

    def build():
        d = operator_D(pair, m, 0, family).integer_rows()
        t = operator_T(pair, m, 0, family).integer_rows() if m else []
        kept = exact.echelon(d + t)[0]
        return sum(i < len(d) for i in kept), len(kept)

    return pair.cached(("degree zero ranks", family, m), build)


def skeleton_degree_zero_identity(pair, family, m):
    """Dimension identity for the degree-0 skeleton harmonic space.

    The cocycle space of 0-forms over the m-skeleton splits into the chain
    harmonic space at stratum m plus the traces of the one-higher-stratum
    cellwise-constant space.  The m-skeleton's (m, 0) stratum, its D and
    its T are the pair's own, so both sides are ranked on the pair.
    """
    n = pair.top_dim
    if m < 0 or m > n:
        raise AssemblyError("stratum out of range")
    lhs = broken_space(pair, m, 0, family).dim - \
        _degree_zero_ranks(pair, family, m)[1]
    # the rank of T on ker D: the T rows that raise the rank of [D; T]
    rank_d, rank_dt = (_degree_zero_ranks(pair, family, m + 1) if m < n
                       else (0, 0))
    rhs = harmonic_dim(chainlike_complex(pair, family), n - m) + \
        rank_dt - rank_d
    return {"lhs": int(lhs), "rhs": int(rhs), "ok": bool(lhs == rhs)}


def _exact_sequence(labels, dims, ranks, front):
    """Exactness of a sequence augmented in front: at each position the
    kernel dims[i] - ranks[i] of the outgoing map equals the rank of the
    incoming one, ``front`` at the first position."""
    incoming = [front] + ranks[:-1]
    entries = {lab: {"dim": d, "kernel": d - r, "ok": d - r == inc}
               for lab, d, r, inc in zip(labels, dims, ranks, incoming)}
    return {"indices": entries, "ok": all(e["ok"] for e in entries.values())}


def verify_double_complex(pair, family):
    """Row and column exactness of the broken double complex, with exact
    integer ranks."""
    n = pair.top_dim
    report = {"rows": {}, "columns": {}}

    def dims(strata):
        return [broken_space(pair, m, k, family).dim for m, k in strata]

    for m in range(n + 1):
        ks = range(m + 1)
        ranks = [exact.rank(operator_D(pair, m, k, family)
                            .integer_rows()) for k in ks]
        report["rows"][m] = _exact_sequence(
            ks, dims([(m, k) for k in ks]), ranks, len(pair.stratum(m)))
    for k in range(n + 1):
        ms = range(n, k - 1, -1)
        ranks = [exact.rank(operator_T(pair, m, k, family)
                            .integer_rows()) if m > k else 0 for m in ms]
        ds = dims([(m, k) for m in ms])
        # the front is the conforming space ker T on the top stratum
        report["columns"][k] = _exact_sequence(ms, ds, ranks,
                                               ds[0] - ranks[0])
    report["passed"] = all(r["ok"] for part in ("rows", "columns")
                           for r in report[part].values())
    return report


def harmonic_family(pair, family):
    """Dimension table of every graded harmonic space on this mesh:
    ``harmonic_dim`` on the complex and position that ``_graded`` gives
    ``harmonic_lambda`` and ``harmonic_gamma``, and on the conforming and
    chain-like ends, so no basis is built."""
    n = pair.top_dim
    report = {"lambda": {}, "gamma": {}, "conforming": {}, "chain": {}}
    ends = {"lambda": ("conforming", conforming_complex(pair, family)),
            "gamma": ("chain", chainlike_complex(pair, family))}
    for side, (end, cx) in ends.items():
        for index in range(n + 1):
            pos = index if side == "lambda" else n - index
            report[end][index] = harmonic_dim(cx, pos)
            for b in range(1, pos + 2):
                report[side][(index, b)] = harmonic_dim(
                    *_graded(pair, family, side, index, b))
    return report


def check_conditions(pair, family):
    """The three structural conditions a family must satisfy on a mesh:
    per-simplex exactness, face decomposition, and local patch homology.
    A non-pure complex raises MeshError.  The first two depend only on the
    family, the simplex dimension and the degree, and are read off the
    cached integer element tables that assembly shares, the decomposition
    as exact comparisons of table products; the third ranks every open
    star of the mesh at once, one elimination per dimension, from the
    cached facet incidence that the Betti numbers share."""
    check_pure(pair)
    n = pair.top_dim
    local = {m: check_local_exactness(family, m) for m in range(n + 1)
             if pair.simplices(m)}
    decomp = {k: check_geometric_decomposition(pair, family, k)
              for k in range(n + 1)}
    patch = check_local_patch_condition(pair)
    passed = all(r["passed"] for r in local.values()) and \
        all(r["passed"] for r in decomp.values()) and patch["passed"]
    return {"local_exactness": local, "decomposition": decomp,
            "patch": patch, "passed": bool(passed)}
