import io
import json
from functools import cached_property

import numpy as np
import pytest

from ddforms.assembly import (AssemblyError, BrokenSpace, LinearOp, Subspace,
                              derivative_operator, kernel_space, operator_D,
                              operator_T)
from ddforms.cli import main
from ddforms.hilbert import (ComplexInstance, harmonic_space, laplace_solve,
                             subspace_transfer)
from ddforms.mesh import (betti_numbers, build_complex, generate_mesh,
                          load_mesh_file, mark_pair, save_mesh_file)
from ddforms.polyforms import Family, FormError
from ddforms import distrib, exact, hilbert

from conftest import RANK_RTOL, dense_basis, svd_null
from reference import (dense_adjoint, dense_laplacian, pseudoinverse,
                       s_qr_basis)
from test_distrib import _torus, _tunnel_block


@pytest.fixture(scope="module")
def annulus_cx(catalog):
    pair = catalog("annulus", 1, "full")
    return distrib.conforming_complex(pair, Family("trimmed", 1))


def test_complex_validates_composition(catalog):
    cx = distrib.total_complex(catalog("annulus"), Family("trimmed", 1))
    bad = [LinearOp(d.domain, d.codomain, exact.dense_triplets(
                np.ones(d.submatrix().shape, np.int64))) for d in cx.diffs]
    with pytest.raises(AssemblyError, match="do not compose to zero"):
        ComplexInstance(cx.spaces, bad, "broken-on-purpose")
    for d in cx.diffs:
        with pytest.raises(AssemblyError, match="is not integer"):
            LinearOp(d.domain, d.codomain, exact.dense_triplets(d.submatrix()))


def test_complex_checks_composition_on_triplets(catalog, monkeypatch):
    """The d o d = 0 check of a new complex is one exact product of the
    two triplet sets: it builds no dict rows and no dense copy of either
    differential."""
    cx = distrib.total_complex(catalog("annulus"), Family("trimmed", 1))
    diffs = [LinearOp(d.domain, d.codomain, triplets=d.triplets)
             for d in cx.diffs]

    def refused(*_args):
        raise AssertionError("dict rows built")

    monkeypatch.setattr(exact, "triplet_rows", refused)
    ComplexInstance(cx.spaces, diffs, "triplets")
    assert not any("matrix" in vars(d) for d in diffs)


def test_harmonic_dims_match_betti(catalog, annulus_cx):
    pair = catalog("annulus", 1, "full")
    betti = betti_numbers(pair)
    dims = [harmonic_space(annulus_cx, i).dim for i in range(len(annulus_cx))]
    n = pair.top_dim
    assert dims == [betti[n - k] for k in range(n + 1)]


def test_harmonic_equals_laplacian_kernel(annulus_cx):
    for i in range(len(annulus_cx)):
        h = harmonic_space(annulus_cx, i)
        lap = dense_laplacian(annulus_cx, i)
        s = np.linalg.svd(lap, compute_uv=False)
        kdim = int(np.sum(s < 1e-9 * max(s[0], 1.0)))
        assert kdim == h.dim
        if h.dim:
            resid = np.linalg.norm(lap @ h.basis)
            assert resid < 1e-9


def hodge_parts(cx, i, x):
    """The exact, coexact and harmonic parts of x from the Laplace solve:
    x = d d* u + d* d u + p, with (u, p) = laplace_solve(cx, i, x)."""
    u, p = laplace_solve(cx, i, x)
    d0, d1 = cx.diffs[i - 1], cx.diffs[i]
    return (d0.submatrix() @ (dense_adjoint(d0) @ u),
            dense_adjoint(d1) @ (d1.submatrix() @ u), p)


def test_hodge_decomposition(annulus_cx):
    rng = np.random.default_rng(5)
    i = 1
    gram = annulus_cx.spaces[i].gram
    x = rng.standard_normal(annulus_cx.spaces[i].dim)
    ex, co, h = hodge_parts(annulus_cx, i, x)
    assert np.linalg.norm(ex + co + h - x) < 1e-10
    assert abs(ex @ gram @ co) < 1e-10
    assert abs(ex @ gram @ h) < 1e-10
    assert abs(co @ gram @ h) < 1e-10


def test_hodge_projector_identities(annulus_cx):
    # exact part of an exact vector is itself; harmonic of harmonic likewise
    i = 1
    d = annulus_cx.diffs[0]
    rng = np.random.default_rng(6)
    v = d.submatrix() @ rng.standard_normal(annulus_cx.spaces[0].dim)
    ex, co, h = hodge_parts(annulus_cx, i, v)
    assert np.linalg.norm(ex - v) < 1e-9 * max(np.linalg.norm(v), 1.0)
    hb = harmonic_space(annulus_cx, i).basis[:, 0]
    ex, co, h = hodge_parts(annulus_cx, i, hb)
    assert np.linalg.norm(h - hb) < 1e-9


def test_rank_identity(annulus_cx):
    # rank of d_i equals dim of space i+1 minus the codifferential kernel
    for i in range(len(annulus_cx.diffs)):
        a = annulus_cx.whitened_diff(i, np.eye(annulus_cx.spaces[i].dim))
        rank = np.linalg.matrix_rank(a, tol=1e-9)
        coker = a.shape[0] - np.linalg.matrix_rank(a.T, tol=1e-9)
        assert rank == annulus_cx.spaces[i + 1].dim - coker


def test_laplace_solve(annulus_cx):
    rng = np.random.default_rng(7)
    for i in range(len(annulus_cx)):
        dim = annulus_cx.spaces[i].dim
        if dim == 0:
            continue
        f = rng.standard_normal(dim)
        u, p = laplace_solve(annulus_cx, i, f)
        lap = dense_laplacian(annulus_cx, i)
        resid = np.linalg.norm(lap @ u - (f - p))
        assert resid < 1e-8 * max(np.linalg.norm(f), 1.0)
        h = harmonic_space(annulus_cx, i)
        if h.dim:
            gram = annulus_cx.spaces[i].gram
            assert np.linalg.norm(h.basis.T @ gram @ u) < 1e-8


def test_laplace_solve_harmonic_source(annulus_cx):
    h = harmonic_space(annulus_cx, 1)
    f = h.basis[:, 0]
    u, p = laplace_solve(annulus_cx, 1, f)
    assert np.linalg.norm(u) < 1e-9
    assert np.linalg.norm(p - f) < 1e-9


def test_pseudoinverse_contracts(catalog):
    pair = catalog("annulus")
    fam = Family("trimmed", 1)
    for op in (operator_T(pair, 2, 0, fam), operator_T(pair, 2, 1, fam),
               operator_D(pair, 2, 0, fam), operator_D(pair, 1, 0, fam)):
        A, P = op.submatrix(), pseudoinverse(op, np.eye(op.codomain.dim))
        scale = max(np.linalg.norm(A), 1.0)
        assert np.linalg.norm(A @ P @ A - A) < 1e-10 * scale
        assert np.linalg.norm(P @ A @ P - P) < 1e-10 * max(np.linalg.norm(P), 1.0)
        # gram self-adjointness of both products
        gd, gc = op.domain.gram, op.codomain.gram
        ap = gc @ (A @ P)
        pa = gd @ (P @ A)
        assert np.linalg.norm(ap - ap.T) < 1e-10 * max(np.linalg.norm(ap), 1.0)
        assert np.linalg.norm(pa - pa.T) < 1e-10 * max(np.linalg.norm(pa), 1.0)


def test_pseudoinverse_of_identity(annulus_cx):
    sp = annulus_cx.spaces[1]
    op = LinearOp(sp, sp, exact.dense_triplets(
        np.eye(sp.dim, dtype=np.int64)))
    E = pseudoinverse(op, np.eye(sp.dim))
    assert np.linalg.norm(E - np.eye(sp.dim)) < 1e-10


CATALOG = [("interval", 2), ("triangle", 1), ("tetrahedron", 1),
           ("square_grid", 1), ("annulus", 1), ("cube_tet", 1),
           ("solid_ring", 1), ("sphere_boundary", 2)]


def svd_pseudoinverse(op):
    """The dense metric pseudoinverse from the SVD of the whitened
    operator, singular values above RANK_RTOL * max(s_max, 1) counted."""
    dom, cod = op.domain.whitening, op.codomain.whitening
    Aw = cod.mul_lt(dom.solve_l(op.submatrix().T).T)
    if not Aw.size:
        return np.zeros(op.submatrix().T.shape)
    u, s, vt = np.linalg.svd(Aw, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * max(s[0], 1.0)))
    pw = vt[:rank].T @ (u[:, :rank].T / s[:rank, None])
    return dom.solve_lt(cod.mul_l(pw.T).T)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name,size", CATALOG)
def test_pseudoinverse_matches_svd(catalog, name, size, r):
    """pseudoinverse(op, x) equals E @ x for E the whitened-SVD metric
    pseudoinverse, for D and T on every stratum of the mesh."""
    fam = Family("trimmed", r)
    rng = np.random.default_rng(r)
    for mark in ("none", "full", "half"):
        pair = catalog(name, size, mark)
        for m in range(1, pair.top_dim + 1):
            for k in range(m):
                for op in (operator_D(pair, m, k, fam),
                           operator_T(pair, m, k, fam)):
                    x = rng.standard_normal((op.codomain.dim, 3))
                    ref = svd_pseudoinverse(op) @ x
                    got = pseudoinverse(op, x)
                    scale = np.abs(ref).max(initial=0.0)
                    assert np.abs(got - ref).max(initial=0.0) <= \
                        1e-12 * scale, (mark, m, k, op)


def test_pseudoinverse_degenerate(catalog):
    """A rank-0 operator, an empty codomain and a right-hand side with no
    columns each give zeros of the domain's shape."""
    pair = catalog("annulus", 1, "full")
    sp = BrokenSpace(pair, [(2, 1)], Family("trimmed", 1))
    empty = BrokenSpace(pair, [], Family("trimmed", 1))
    zero = LinearOp(sp, sp, exact.dense_triplets(
        np.zeros((sp.dim, sp.dim), np.int64)))
    assert not pseudoinverse(zero, np.ones((sp.dim, 2))).any()
    assert pseudoinverse(zero, np.ones(sp.dim)).shape == (sp.dim,)
    to_empty = LinearOp(sp, empty, exact.dense_triplets(
        np.zeros((0, sp.dim), np.int64)))
    assert not pseudoinverse(to_empty, np.zeros((0, 2))).any()
    assert pseudoinverse(to_empty, np.zeros((0, 2))).shape == (sp.dim, 2)
    ident = LinearOp(sp, sp, exact.dense_triplets(
        np.eye(sp.dim, dtype=np.int64)))
    assert pseudoinverse(ident, np.zeros((sp.dim, 0))).shape == (sp.dim, 0)


def _cosine_defect(a, b):
    """How far the principal cosines between two Gram-orthonormal bases
    of one space are from one: the singular values of their
    ``subspace_transfer``."""
    s = np.linalg.svd(subspace_transfer(a, b.basis), compute_uv=False)
    return np.abs(s - 1.0).max(initial=0.0)


def test_subspace_transfer_self_pairing(annulus_cx):
    """A Gram-orthonormal basis paired with itself gives the identity."""
    h = harmonic_space(annulus_cx, 1)
    assert h.dim and _cosine_defect(h, h) < 1e-12
    t = subspace_transfer(h, h.basis)
    assert np.allclose(t, np.eye(h.dim))


def jittered(name, size, seed, squeeze=1.0):
    """A catalog mesh with every vertex moved at random by up to 0.15, then
    scaled by ``squeeze`` along the last axis: cell aspect ratios up to
    about 1 / squeeze."""
    base = generate_mesh(name, size)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.15, 0.15, (len(base.coords), base.ambient_dim))
    coords = np.array(base.coords) + shift
    coords[:, -1] *= squeeze
    cells = [s.vertices for s in base.simplices(base.top_dim)]
    return build_complex(cells, coords)


def dense_whitened(op):
    """L_cod^T A L_dom^-T from dense Cholesky factors of the two Grams."""
    L_dom = np.linalg.cholesky(op.domain.gram)
    L_cod = np.linalg.cholesky(op.codomain.gram)
    return L_cod.T @ np.linalg.solve(L_dom, op.submatrix().T).T


@pytest.mark.parametrize("name,r", [("annulus", 1), ("annulus", 2),
                                    ("solid_ring", 1), ("solid_ring", 2)])
def test_block_whitening_matches_dense_cholesky(name, r):
    pair = jittered(name, 1, seed=7 + r)
    fam = Family("trimmed", r)
    n = pair.top_dim
    rng = np.random.default_rng(r)
    for k in range(1, n):
        space = BrokenSpace(pair, [(n - j, k - j) for j in range(k + 1)], fam)
        assert len(space.strata) > 1
        op = derivative_operator(space)
        assert len(op.codomain.strata) > 1

        ref = dense_whitened(op)
        got = ComplexInstance([op.domain, op.codomain], [op]).whitened_diff(
            0, np.eye(op.domain.dim))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

        got = ComplexInstance([op.domain, op.codomain], [op]).whitened_diff(
            0, np.eye(op.codomain.dim), transpose=True)
        assert np.linalg.norm(got - ref.T) <= 1e-12 * np.linalg.norm(ref)

        for which in ("vertical", "horizontal"):
            sub = kernel_space(pair, n, k, fam, which)
            assert sub.dim
            Z = dense_basis(sub)
            ref = Z.T @ sub.ambient.gram @ Z
            assert np.linalg.norm(sub.gram - ref) <= \
                1e-12 * np.linalg.norm(ref)
            L = np.linalg.cholesky(ref)
            x = rng.standard_normal((sub.dim, 5))
            for got, want in ((sub.whitening.mul_lt(x), L.T @ x),
                              (sub.whitening.mul_l(x), L @ x),
                              (sub.whitening.solve_lt(x),
                               np.linalg.solve(L.T, x))):
                assert np.linalg.norm(got - want) <= \
                    1e-10 * np.linalg.norm(want)


def test_harmonic_space_memoised_per_complex():
    fam = Family("trimmed", 1)
    cx = distrib.total_complex(generate_mesh("annulus", 1, "full"), fam)
    fresh = distrib.total_complex(generate_mesh("annulus", 1, "full"), fam)
    assert fresh is not cx
    for i in range(len(cx)):
        h = harmonic_space(cx, i)
        assert harmonic_space(cx, i) is h
        again = harmonic_space(fresh, i)
        assert again is not h and again.dim == h.dim
        assert _cosine_defect(h, again) < 1e-12


@pytest.mark.parametrize("name,mark", [("annulus", "none"), ("annulus", "full"),
                                       ("solid_ring", "none"),
                                       ("solid_ring", "half")])
def test_laplace_solve_in_harmonic_complement(name, mark):
    """The one Gram-form symmetric positive definite solve inverts the
    dense Laplacian off the harmonic space and stays
    orthogonal to it."""
    pair = mark_pair(jittered(name, 1, seed=11), mark)
    fam = Family("trimmed", 1)
    rng = np.random.default_rng(5)
    for cx in (distrib.conforming_complex(pair, fam),
               distrib.total_complex(pair, fam)):
        for i in range(len(cx)):
            dim = cx.spaces[i].dim
            if dim == 0:
                continue
            gram = cx.spaces[i].gram
            f = rng.standard_normal(dim)
            u, p = laplace_solve(cx, i, f)
            res = dense_laplacian(cx, i) @ u - (f - p)
            rhs = f - p
            assert np.sqrt(res @ gram @ res) < 1e-10 * np.sqrt(rhs @ gram @ rhs)
            h = harmonic_space(cx, i)
            u_norm = np.sqrt(u @ gram @ u)
            assert np.linalg.norm(h.basis.T @ gram @ u) < 1e-12 * max(u_norm, 1)


def eigh_laplace_solve(cx, i, f):
    """(u, p) from the eigh pseudo-inverse of the whitened Laplacian
    A_i^T A_i + A_{i-1} A_{i-1}^T, each A formed by ``whitened_diff`` on
    the identity: p projects the whitened f onto the eigenvectors of the h
    smallest eigenvalues, h the exact dimension of ``harmonic_space``, and
    u divides the rest by their eigenvalues.  The h smallest eigenvalues
    and the others are returned too, so the gap behind h can be checked."""
    n = cx.spaces[i].dim
    lap = np.zeros((n, n))
    if i < len(cx.diffs):
        a = cx.whitened_diff(i, np.eye(n))
        lap += a.T @ a
    if i > 0:
        a = cx.whitened_diff(i - 1, np.eye(cx.spaces[i - 1].dim))
        lap += a @ a.T
    w, v = np.linalg.eigh(lap)
    h = harmonic_space(cx, i).dim
    W = cx.spaces[i].whitening
    fw = W.mul_lt(f)
    p = v[:, :h] @ (v[:, :h].T @ fw)
    u = v[:, h:] @ ((v[:, h:].T @ fw) / w[h:])
    return W.solve_lt(u), W.solve_lt(p), (w[:h], w[h:])


@pytest.mark.parametrize("name,mark,r", [("annulus", "none", 1),
                                         ("annulus", "full", 2),
                                         ("cube_tet", "none", 2)])
def test_laplace_solve_matches_eigh_reference(name, mark, r):
    """(u, p) of the Gram-form solve equal the dense eigh reference on the
    conforming and the total complex, at indices with and without
    harmonic forms."""
    pair = mark_pair(jittered(name, 1, seed=4), mark)
    rng = np.random.default_rng(8)
    harmonic = set()
    for cx in (distrib.conforming_complex(pair, Family("trimmed", r)),
               distrib.total_complex(pair, Family("trimmed", r))):
        for i in range(len(cx)):
            if not cx.spaces[i].dim:
                continue
            f = rng.standard_normal(cx.spaces[i].dim)
            u, p = laplace_solve(cx, i, f)
            u_ref, p_ref, (zero, positive) = eigh_laplace_solve(cx, i, f)
            assert np.abs(zero).max(initial=0.0) < 1e-9 * positive.min()
            assert _rel(u, u_ref) <= 1e-11, (cx.label, i)
            assert np.linalg.norm(p - p_ref) <= 1e-11 * np.linalg.norm(f)
            harmonic.add(len(zero) > 0)
    assert harmonic == {False, True}


@pytest.mark.parametrize("name,mark,r", [("annulus", "full", 2),
                                         ("cube_tet", "none", 1)])
def test_laplace_solve_at_the_ends_matches_eigh_reference(name, mark, r):
    """At the first index of a complex, with no incoming differential,
    and at its last, with no outgoing one, (u, p) equal the dense eigh
    reference: on each two-space piece of the total complex, whose ends
    have both differentials inside the whole complex."""
    pair = mark_pair(jittered(name, 1, seed=4), mark)
    cx = distrib.total_complex(pair, Family("trimmed", r))
    rng = np.random.default_rng(3)
    solved = 0
    for j in range(len(cx.diffs)):
        piece = ComplexInstance(cx.spaces[j:j + 2], cx.diffs[j:j + 1])
        for i in (0, 1):
            if not piece.spaces[i].dim:
                continue
            f = rng.standard_normal(piece.spaces[i].dim)
            u, p = laplace_solve(piece, i, f)
            u_ref, p_ref, (zero, positive) = eigh_laplace_solve(piece, i, f)
            assert np.abs(zero).max(initial=0.0) < 1e-9 * positive.min()
            assert _rel(u, u_ref) <= 1e-11, (j, i)
            assert np.linalg.norm(p - p_ref) <= 1e-11 * np.linalg.norm(f)
            solved += 1
    assert solved == 2 * len(cx.diffs)


def test_solve_without_harmonic_forms_runs_no_qr(monkeypatch):
    """Where every harmonic dimension is 0 (solid_ring:1, half marked,
    trimmed r=2), ``solve`` takes no QR: the harmonic spaces are empty by
    the exact count alone, and the solve needs no range basis."""
    def refused(*_args, **_kwargs):
        raise AssertionError("a QR ran")

    monkeypatch.setattr(np.linalg, "qr", refused)
    out = io.StringIO()
    assert main(["solve", "--mesh", "catalog:solid_ring:1", "--mark", "half",
                 "--degree", "2", "--format", "structured"], out=out) == 0
    report = json.loads(out.getvalue())["report"]
    dims = [e["harmonic_dim"] for i, e in report.items()
            if i != "passed" and e["dim"]]
    assert dims and not any(dims)


def test_chain_takes_no_square_decomposition(monkeypatch):
    """A cold chain builds neither a whole dense differential nor a dense
    broken-space Gram, and takes no raw QR.  Each QR is reduced, of the
    n x |block| whitened block the representatives are projected off,
    the narrower of R and C, or of the n x h projected representatives;
    on square_grid:6, whose harmonic indices are all end indices, the
    block is empty and every QR is n x h, and where every harmonic space
    is empty (half marked) it factors no Gram and takes no QR."""
    counts = {"matrix": 0, "gram": 0, "cholesky": 0}
    qrs, last = [], []
    submatrix = LinearOp.submatrix
    gram = BrokenSpace.gram.fget
    cholesky, qr = np.linalg.cholesky, np.linalg.qr
    independent = hilbert._independent

    def counted(name, call, fresh=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[name] += fresh(*args)
            return call(*args, **kwargs)
        return wrapper

    def seen(cx, i):
        last[:] = [independent(cx, i), cx.spaces[i].dim]
        return last[0]

    def counted_qr(a, mode="reduced"):
        (rows, cols), n = last
        h, block = n - len(rows) - len(cols), min(len(rows), len(cols))
        assert mode == "reduced" and a.shape in {(n, h), (n, block)}
        qrs.append("basis" if a.shape[1] == h else "block")
        return qr(a, mode=mode)

    def whole(op, rows=None, cols=None, out=None, transpose=False):
        counts["matrix"] += rows is None and cols is None
        return submatrix(op, rows, cols, out, transpose)

    monkeypatch.setattr(LinearOp, "submatrix", whole)
    monkeypatch.setattr(BrokenSpace, "gram", property(counted("gram", gram)))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky))
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(hilbert, "_independent", seen)
    for mark in ("none", "full", "half"):
        assert main(["chain", "--mesh", "catalog:annulus", "--mark", mark,
                     "--degree", "2"], out=io.StringIO()) == 0, mark
        assert counts["matrix"] == counts["gram"] == 0, (mark, counts)
    assert set(qrs) == {"basis", "block"}
    for mark in ("none", "full"):
        qrs.clear()
        assert main(["chain", "--mesh", "catalog:square_grid:6", "--mark",
                     mark], out=io.StringIO()) == 0
        assert qrs and set(qrs) == {"basis"}, mark
    counts["cholesky"], qrs[:] = 0, []
    assert main(["chain", "--mesh", "catalog:square_grid:6", "--mark",
                 "half"], out=io.StringIO()) == 0
    assert counts["cholesky"] == 0 and not qrs


def test_each_integer_matrix_is_eliminated_once(monkeypatch):
    """A cold run eliminates no integer matrix twice: the conforming and
    chain-like complexes are the end redirects, not second copies, and a
    skeleton is built once per pair.  A harmonic run forms no dense
    broken-space Gram."""
    keys, grams = [], []
    echelon = LinearOp.__dict__["echelon"].func
    gram = BrokenSpace.gram.fget

    def keyed(op):
        rows, cols, vals = op.triplets
        keys.append(((op.codomain.dim, op.domain.dim),
                     tuple(sorted(zip(rows.tolist(), cols.tolist(),
                                      vals.tolist())))))
        return echelon(op)

    def counted_gram(space):
        grams.append(space.dim)
        return gram(space)

    eliminated = cached_property(keyed)
    eliminated.__set_name__(LinearOp, "echelon")
    monkeypatch.setattr(LinearOp, "echelon", eliminated)
    monkeypatch.setattr(BrokenSpace, "gram", property(counted_gram))
    runs = [["chain", "--mesh", "catalog:square_grid:6", "--mark", mark]
            for mark in ("none", "full", "half")]
    runs += [["chain", "--mesh", "catalog:annulus", "--mark", "half",
              "--degree", "2"],
             ["harmonic", "--mesh", "catalog:cube_tet", "--mark", "half",
              "--family", "full", "--degree", "2"]]
    for args in runs:
        keys.clear()
        assert main(args, out=io.StringIO()) == 0, args
        assert keys, args
        assert len(keys) == len(set(keys)), (args, len(keys), len(set(keys)))
    assert main(["harmonic", "--mesh", "catalog:annulus", "--degree", "2"],
                out=io.StringIO()) == 0
    assert not grams


def test_harmonic_memo_holds_no_square_array():
    """The per-index memo keeps the harmonic subspace alone: after the
    harmonic spaces, their whitenings and a Laplace solve at every index,
    no array it holds is larger than the n x h basis."""
    pair = generate_mesh("annulus", 1, "none")
    rng = np.random.default_rng(9)
    for cx in (distrib.conforming_complex(pair, Family("trimmed", 1)),
               distrib.total_complex(pair, Family("trimmed", 1))):
        for i in range(len(cx)):
            h = harmonic_space(cx, i)
            h.whitening
            if cx.spaces[i].dim:
                laplace_solve(cx, i, rng.standard_normal(cx.spaces[i].dim))
        assert sorted(cx._harmonic) == list(range(len(cx)))
        for i, entry in cx._harmonic.items():
            n = cx.spaces[i].dim
            assert isinstance(entry, Subspace)
            assert entry.basis.shape == (n, entry.dim)
            arrays = [a for a in vars(entry).values()
                      if isinstance(a, np.ndarray)]
            arrays += [a for block in entry.whitening.blocks
                       for a in block[1:]]
            assert all(a.size <= n * entry.dim for a in arrays), (cx.label, i)
        assert any(e.dim for e in cx._harmonic.values())


def svd_harmonic(cx, i):
    """The whitened harmonic basis of the stacked-SVD split: the float
    nullspace of the whitened [d_i; d_{i-1}^T], with the singular values
    behind its rank."""
    eye = np.eye(cx.spaces[i].dim)
    rows = [cx.whitened_diff(i, eye)] if i < len(cx.diffs) else []
    if i > 0:
        rows.append(cx.whitened_diff(i - 1, eye, transpose=True))
    return svd_null(np.vstack(rows) if rows
                    else np.zeros((0, cx.spaces[i].dim)))


def test_exact_dims_on_squeezed_meshes(record_property):
    """A search for a float mis-rank on meshes with aspect ratios up to
    about 1e3.  The exact harmonic dimensions of the conforming and the
    chain-like complexes must equal the Betti numbers on every mesh; the
    stacked-SVD ranks are compared with them, and the mis-ranks found, if
    any, and the smallest relative singular value behind a float rank
    are recorded either way."""
    misranks, gap = [], 1.0
    for name in ("annulus", "square_grid", "cube_tet", "solid_ring"):
        for squeeze in (1e-1, 1e-2, 1e-3):
            for mark in ("none", "full", "half"):
                pair = mark_pair(jittered(name, 1, 3, squeeze), mark)
                n, betti = pair.top_dim, betti_numbers(pair)
                for cx in (distrib.conforming_complex(pair, Family("trimmed", 1)),
                           distrib.chainlike_complex(pair, Family("trimmed", 1))):
                    for i in range(len(cx)):
                        h = harmonic_space(cx, i)
                        assert h.dim == betti[n - i]
                        ref, s = svd_harmonic(cx, i)
                        if ref.shape[1] != h.dim:
                            misranks.append((name, squeeze, mark, cx.label,
                                             i, ref.shape[1], h.dim))
                        if len(s):
                            gap = min(gap, s[-1] / max(s[0], 1.0))
    record_property("float_misranks", misranks)
    record_property("smallest_relative_singular_value", gap)
    print(f"float mis-ranks: {misranks}; smallest relative singular "
          f"value behind a float rank: {gap:.1e}")


def test_one_elimination_per_differential(monkeypatch):
    """The harmonic spaces and the Laplace solves at every index of a
    complex eliminate each integer differential once, in its short
    orientation: its rows R and the columns C read by the next index come
    from the same echelon.  The only other eliminations are those of the
    representatives' kernels, each of independent rows alone, none
    reduced to zero, and at an interior index with harmonic forms one
    selection of the representatives, of the (h + |block|) x |block|
    rows of the block on the kernel's free rows."""
    calls, shapes, kernels = [], [], []
    echelon, independent, kernel = exact.echelon, exact.independent, \
        exact.kernel

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    def counted_independent(triplets, shape):
        shapes.append(shape)
        return independent(triplets, shape)

    def counted_kernel(rows, ncols, free=None):
        kernels.append(len(rows))
        assert len(echelon(rows)[0]) == len(rows)
        return kernel(rows, ncols, free)

    rng = np.random.default_rng(3)
    selected = 0
    for name, mark in (("cube_tet", "half"), ("annulus", "none"),
                       ("annulus", "full")):
        for build in (distrib.conforming_complex, distrib.total_complex):
            cx = build(generate_mesh(name, 1, mark), Family("trimmed", 2))
            calls.clear(), shapes.clear(), kernels.clear()
            monkeypatch.setattr(exact, "echelon", counted)
            monkeypatch.setattr(exact, "independent", counted_independent)
            monkeypatch.setattr(exact, "kernel", counted_kernel)
            for i in range(len(cx)):
                harmonic_space(cx, i)
                if cx.spaces[i].dim:
                    laplace_solve(cx, i,
                                  rng.standard_normal(cx.spaces[i].dim))
            monkeypatch.undo()
            selections = []
            for i in range(len(cx)):
                h = hilbert.harmonic_dim(cx, i)
                block = min(map(len, hilbert._independent(cx, i)))
                if block and h:
                    selections.append((h + block, block))
            assert sorted(shapes) == sorted([d.shape for d in cx.diffs]
                                            + selections)
            assert sorted(calls) == sorted([min(s) for s in shapes]
                                           + kernels)
            assert all("echelon" in vars(d) for d in cx.diffs)
            selected += len(selections)
    assert selected


def test_pseudoinverse_of_float_operator_names_the_cause(catalog):
    """Float values have no integer rows to select from, so they make no
    operator: LinearOp refuses float triplet values at construction with
    an AssemblyError that names their dtype, before any pseudoinverse could
    meet them."""
    sp = BrokenSpace(catalog("annulus", 1, "full"), [(2, 1)], Family("trimmed", 1))
    with pytest.raises(AssemblyError, match="float64 is not integer"):
        LinearOp(sp, sp, exact.dense_triplets(np.eye(sp.dim)))


def _rel(got, ref):
    return np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300)


@pytest.mark.parametrize("name", ["annulus", "cube_tet"])
def test_applied_operators_match_dense(catalog, name):
    """The whitened differential (both directions) and the Laplacian it
    gives in the orthonormal frame, A_i^T A_i + A_{i-1} A_{i-1}^T, equal
    dense references built from the Grams and their Cholesky factors:
    L_{i+1}^T d_i L_i^-T, and L_i^T lap L_i^-T for the dense Laplacian,
    on the conforming and the total complex, trimmed r=2."""
    pair = catalog(name, 1, "half")
    fam = Family("trimmed", 2)
    rng = np.random.default_rng(12)
    for cx in (distrib.conforming_complex(pair, fam),
               distrib.total_complex(pair, fam)):
        chol = [np.linalg.cholesky(sp.gram) for sp in cx.spaces]
        for i, d in enumerate(cx.diffs):
            n0, n1 = d.domain.dim, d.codomain.dim
            ref = chol[i + 1].T @ np.linalg.solve(chol[i], d.submatrix().T).T
            x = rng.standard_normal((n0, 3))
            y = rng.standard_normal((n1, 3))
            assert _rel(cx.whitened_diff(i, x), ref @ x) <= 1e-12
            assert _rel(cx.whitened_diff(i, y, transpose=True),
                        ref.T @ y) <= 1e-12
        for i, sp in enumerate(cx.spaces):
            lap = dense_laplacian(cx, i)
            ref = chol[i].T @ np.linalg.solve(chol[i], lap.T).T
            v = rng.standard_normal((sp.dim, 3))
            got = np.zeros_like(v)
            if i < len(cx.diffs):
                got += cx.whitened_diff(i, cx.whitened_diff(i, v),
                                        transpose=True)
            if i > 0:
                got += cx.whitened_diff(i - 1, cx.whitened_diff(
                    i - 1, v, transpose=True))
            assert _rel(got, ref @ v) <= 1e-12


def test_bases_span_the_s_qr_subspace(catalog, tmp_path):
    """At every index the basis from exact representatives and the S-QR
    reference span one subspace: every singular value of their Gram
    pairing is within 1e-13 of 1.  Every index of every complex is
    checked, on catalog meshes, on a file of two disjoint triangles,
    whose end indices have h = 2 (b0 = 2 unmarked, b2 = 2 fully marked),
    and on the conforming complexes of the torus surface and the
    two-tunnel block, which have h = 2 at an interior index.  The cases
    seen include both sides of an interior index and an index where R
    and C are both empty."""
    path = tmp_path / "two_triangles.json"
    save_mesh_file(build_complex([[0, 1, 2], [3, 4, 5]],
                                 [[0, 0], [1, 0], [0, 1],
                                  [3, 0], [4, 0], [3, 1]]), path)
    two = load_mesh_file(path)
    pairs = [(catalog(name, 1, mark), name)
             for name in ("interval", "annulus", "tetrahedron")
             for mark in ("none", "full", "half")]
    pairs += [(mark_pair(two, mark), "two") for mark in ("none", "full")]
    complexes = [(build(pair, family), name) for pair, name in pairs
                 for build, family in (
                     (distrib.conforming_complex, Family("trimmed", 1)),
                     (distrib.total_complex, Family("trimmed", 1)),
                     (distrib.chainlike_complex, Family("trimmed", 2)))]
    complexes += [(distrib.conforming_complex(mark_pair(mesh(), "none"),
                                              Family("trimmed", 1)), name)
                  for mesh, name in ((_torus, "torus"),
                                     (_tunnel_block, "block"))]
    widths, cases = set(), set()
    for cx, name in complexes:
        for i in range(len(cx)):
            rows, cols = hilbert._independent(cx, i)
            h = harmonic_space(cx, i)
            s = np.linalg.svd(subspace_transfer(h, s_qr_basis(cx, i)),
                              compute_uv=False)
            assert len(s) == h.dim
            assert np.abs(s - 1.0).max(initial=0.0) <= 1e-13, \
                (name, cx.label, i)
            if h.dim:
                cases.add((bool(rows), bool(cols), len(rows) < len(cols)))
                widths.add((name, h.dim, bool(rows and cols)))
    assert {(False, False, False), (True, True, True),
            (True, True, False)} <= cases
    assert {("two", 2, False), ("torus", 2, True),
            ("block", 2, True)} <= widths
    assert betti_numbers(two) == [2, 0, 0]
    assert betti_numbers(mark_pair(two, "full")) == [0, 0, 2]


def test_kernel_basis_past_int64():
    """An exact kernel with entries past int64 (object dtype) converts to
    finite floats; past the floating-point range it is a one-line
    FormError."""
    n = 69
    kernel = exact.kernel([{i: 2, i + 1: -1} for i in range(n)], n + 1)
    assert kernel[0][2].dtype == object
    Z = hilbert._kernel_basis(kernel, n + 1)
    assert Z.dtype == float and np.all(np.isfinite(Z))
    assert Z[:, 0].tolist() == [2.0 ** i for i in range(n + 1)]
    (rows, cols, vals), free = kernel
    huge = np.array([v * 10 ** 400 for v in vals], object)
    with pytest.raises(FormError, match="floating-point range") as err:
        hilbert._kernel_basis(((rows, cols, huge), free), n + 1)
    assert "\n" not in str(err.value)
