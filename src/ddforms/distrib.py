"""Distributional complexes over a mesh and their harmonic space theory.

This module builds every complex family the library knows, each once per
pair: the degree- and stratum-redirected complexes, whose ends are the
conforming complex (degree n), the chain-like complex (stratum 0) and the
full graded (total) complex they share, and their skeleton variants.  On
top of the builders sit the isomorphism steps between harmonic spaces of
consecutive gradings, each the matrix that the stratum injection induces
on them (the paper's regularizers, which the tests keep as references,
invert it), taken through the integer maps ``assembly.placement`` and
``Subspace.embedding``, and end-to-end verification routines: homology
dimensions against the mesh's Betti numbers, the full isomorphism chain
from simplicial homology to conforming harmonic forms, the row and column
exactness of the broken double complex, and the skeleton projection and
degree-0 identities.
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
                             subspace_equality_defect, subspace_transfer)


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


def harmonic_lambda(pair, family, k, b):
    """The degree-k harmonic space at grading depth b (b = 1..k+1)."""
    if not 1 <= b <= k + 1:
        raise AssemblyError(f"grading depth {b} out of range for degree {k}")
    cx = redirected_lambda(pair, family, k - b + 1)
    return harmonic_space(cx, k)


def harmonic_gamma(pair, family, m, b):
    """The chain-side harmonic space over the m-stratum at depth b."""
    n = pair.top_dim
    if not 1 <= b <= n - m + 1:
        raise AssemblyError(f"grading depth {b} out of range for stratum {m}")
    cx = redirected_gamma(pair, family, m + b - 1)
    return harmonic_space(cx, n - m)


def harmonic_conforming(pair, family, k):
    return harmonic_space(conforming_complex(pair, family), k)


def harmonic_chain(pair, family, m):
    cx = chainlike_complex(pair, family)
    return harmonic_space(cx, pair.top_dim - m)


def _embedded(coord_harmonic, space):
    """A harmonic basis H of a kernel subspace seen in its broken space, Z H
    by its ``embedding``; a broken space's is returned as it is."""
    if isinstance(space, BrokenSpace):
        return coord_harmonic
    return Subspace(space.ambient, space.embedding.apply(coord_harmonic.basis))


# -- isomorphism steps ----------------------------------------------------


def _transfer_verdict(transfer, src_dim, tgt_dim):
    """The smallest relative singular value of a harmonic transfer matrix
    and whether it is a bijection: equal dimensions, and either both zero
    or smin_rel above SMIN_TOL."""
    if src_dim and src_dim == tgt_dim:
        # the thin SVD, not the values-only one: that LAPACK path raised
        # the peak RSS of a chain on square_grid:6 by 0.6 MB
        s = np.linalg.svd(transfer, full_matrices=False)[1]
        smin_rel = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    else:
        smin_rel = 1.0 if src_dim == tgt_dim else 0.0
    ok = src_dim == tgt_dim and (src_dim == 0 or smin_rel > SMIN_TOL)
    return smin_rel, ok


def iso_step(pair, family, side, index, b):
    """One harmonic-space transfer between grading depths b-1 and b.

    side "lambda" fixes the form degree (index = k), side "gamma" fixes
    the stratum (index = m).  The stratum injection ι, the ``placement``
    of the source's broken space in the target's, places the source
    harmonic forms y, cocycles, there; the transfer h^T G ι(y), taken by
    ``subspace_transfer``, is the map ι induces on cohomology in the two
    harmonic bases, and the theory makes it a bijection.  The paper's
    regularizer R, a test reference, gives its inverse transpose
    (R h)^T G ι(y), with the same smin_rel.  Where either harmonic space
    is empty the transfer is empty and no space is whitened.
    """
    if side == "lambda":
        h_src = harmonic_lambda(pair, family, index, b - 1)
        h_tgt = harmonic_lambda(pair, family, index, b)
    elif side == "gamma":
        h_src = harmonic_gamma(pair, family, index, b - 1)
        h_tgt = harmonic_gamma(pair, family, index, b)
    else:
        raise AssemblyError(f"unknown side {side!r}")
    transfer = np.zeros((h_tgt.dim, h_src.dim))
    if transfer.size:
        y = placement(h_src.ambient, h_tgt.ambient).apply(h_src.basis)
        transfer = subspace_transfer(h_tgt, y)
    smin_rel, ok = _transfer_verdict(transfer, h_src.dim, h_tgt.dim)
    return {
        "side": side,
        "index": index,
        "b": b,
        "src_dim": h_src.dim,
        "tgt_dim": h_tgt.dim,
        "smin_rel": smin_rel,
        "ok": bool(ok),
        "transfer": transfer,
    }


# -- end-to-end verification ----------------------------------------------


def verify_chain(pair, family, k):
    """The full isomorphism chain from simplicial homology at index n-k to
    the conforming harmonic space of degree k.

    Returns the report of the degree: the Betti number, the ``dims`` of
    every space along the chain, and ``steps``, one entry per step keyed
    by its label.  Equalities are checked as subspace coincidences and
    isomorphism steps by the singular values of the harmonic transfer
    matrices.  The two transfer ladders meet at the
    total complex, one shared instance, so no step compares it with itself.
    At k = n each depth-1 equality compares one end instance with itself,
    a defect of 0 taken with no SVD; both stay so that every degree reports
    the same steps.
    """
    check_pure(pair)
    n = pair.top_dim
    m = n - k
    target = betti_numbers(pair)[m]
    steps = {}

    def record(label, ok, **extra):
        steps[label] = {"ok": bool(ok), **extra}

    # simplicial homology vs the chain-complex harmonic space
    c0 = harmonic_chain(pair, family, m)
    record("homology vs chain harmonic", c0.dim == target,
           dims=(target, c0.dim))

    # depth-1 equality on the chain side
    cg1 = harmonic_gamma(pair, family, m, 1)
    chain_cx = chainlike_complex(pair, family)
    emb0 = _embedded(c0, chain_cx.spaces[n - m])
    defect = subspace_equality_defect(emb0, cg1)
    record("chain harmonic depth-1 equality", defect < 1e-8, defect=defect)

    # chain-side isomorphism steps
    for b in range(2, k + 2):
        st = iso_step(pair, family, "gamma", m, b)
        record(f"chain transfer depth {b - 1}->{b}",
               st["ok"] and st["src_dim"] == target,
               dims=(st["src_dim"], st["tgt_dim"]), smin=st["smin_rel"])

    # degree-side isomorphism steps
    for b in range(k + 1, 1, -1):
        st = iso_step(pair, family, "lambda", k, b)
        record(f"degree transfer depth {b - 1}->{b}",
               st["ok"] and st["src_dim"] == target,
               dims=(st["src_dim"], st["tgt_dim"]), smin=st["smin_rel"])

    # depth-1 equality on the degree side
    h1 = harmonic_lambda(pair, family, k, 1)
    hc = harmonic_conforming(pair, family, k)
    conf_cx = conforming_complex(pair, family)
    embc = _embedded(hc, conf_cx.spaces[k])
    defect = subspace_equality_defect(embc, h1)
    record("conforming harmonic depth-1 equality", defect < 1e-8,
           defect=defect)
    record("conforming dimension", hc.dim == target, dims=(target, hc.dim))

    dims = [target, c0.dim, cg1.dim]
    dims += [harmonic_gamma(pair, family, m, b).dim for b in range(2, k + 2)]
    dims += [harmonic_lambda(pair, family, k, b).dim
             for b in range(k + 1, 0, -1)]
    dims.append(hc.dim)
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
    emb = _embedded(harmonic_space(skel_cx, k - 1), skel_cx.spaces[k - 1])
    comp = placement(emb.ambient, h2.ambient).apply(h2.basis, transpose=True)
    transfer = subspace_transfer(emb, comp)
    smin_rel, ok = _transfer_verdict(transfer, h2.dim, emb.dim)
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
    ``harmonic_dim`` on the complex and index that ``harmonic_lambda``,
    ``harmonic_gamma``, ``harmonic_conforming`` and ``harmonic_chain``
    read, so no basis is built."""
    n = pair.top_dim
    report = {"lambda": {}, "gamma": {}, "conforming": {}, "chain": {}}
    for k in range(n + 1):
        report["conforming"][k] = harmonic_dim(
            conforming_complex(pair, family), k)
        for b in range(1, k + 2):
            report["lambda"][(k, b)] = harmonic_dim(
                redirected_lambda(pair, family, k - b + 1), k)
    for m in range(n + 1):
        report["chain"][m] = harmonic_dim(chainlike_complex(pair, family),
                                          n - m)
        for b in range(1, n - m + 2):
            report["gamma"][(m, b)] = harmonic_dim(
                redirected_gamma(pair, family, m + b - 1), n - m)
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
