import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given

from ddforms import exact
from ddforms.assembly import (AssemblyError, BrokenSpace, LinearOp, Subspace,
                              broken_space, derivative_operator, kernel_space,
                              operator_D, operator_T, placement)
from ddforms.cli import main
from ddforms.hilbert import ComplexInstance, harmonic_space
from ddforms.mesh import (MeshError, _kuhn_cells, betti_numbers,
                          build_complex, generate_mesh, mark_pair,
                          skeleton_pair)
from ddforms.polyforms import Family
from ddforms import distrib

from conftest import dense_basis, svd_null
from reference import (pseudoinverse, regularizer_R, regularizer_S,
                       stratum_slice)
from test_properties import DRAWN, marked_subgrids

FAM = Family("trimmed", 1)

CATALOG = ["interval", "triangle", "tetrahedron", "square_grid", "annulus",
           "cube_tet", "solid_ring", "sphere_boundary"]


def test_redirect_bounds(catalog):
    pair = catalog("square_grid")
    n = pair.top_dim
    for k0 in (-1, n + 1):
        with pytest.raises(AssemblyError):
            distrib.redirected_lambda(pair, FAM, k0)
    for m0 in (-1, n + 1):
        with pytest.raises(AssemblyError):
            distrib.redirected_gamma(pair, FAM, m0)


def test_total_complex_identity(catalog):
    pair = catalog("annulus", 1, "full")
    tl = distrib.total_complex(pair, FAM)
    tg = distrib.redirected_gamma(pair, FAM, pair.top_dim)
    assert tl.dims() == tg.dims()
    for a, b in zip(tl.diffs, tg.diffs):
        assert np.array_equal(a.submatrix(), b.submatrix())


def test_total_complex_shared(catalog):
    """Both redirections reach the total complex as one shared instance."""
    for name in CATALOG:
        for mark in ("none", "full", "half"):
            pair = catalog(name, 1, mark)
            tg = distrib.redirected_gamma(pair, FAM, pair.top_dim)
            assert tg is distrib.redirected_lambda(pair, FAM, 0)
            assert tg is distrib.total_complex(pair, FAM)


def test_redirected_at_top_matches_conforming(catalog):
    """n-forms have no trace and vertex forms no derivative, so the
    conforming and chain-like complexes are the redirected complexes at
    the top degree and at the vertex stratum: one shared instance each."""
    for name in CATALOG:
        for mark in ("none", "full", "half"):
            pair = catalog(name, 1, mark)
            n = pair.top_dim
            assert distrib.conforming_complex(pair, FAM) is \
                distrib.redirected_lambda(pair, FAM, n)
            assert distrib.chainlike_complex(pair, FAM) is \
                distrib.redirected_gamma(pair, FAM, 0)


def test_subcomplex_nesting(catalog):
    """The redirected complex at k0 embeds block-wise into the one at
    k0 - 1 from index k0 - 2 on: a shared kernel space by the identity,
    the conforming space by its basis; the embeddings commute with the
    differentials."""
    pair = catalog("annulus")
    for k0 in (1, 2):
        cxa = distrib.redirected_lambda(pair, FAM, k0)
        cxb = distrib.redirected_lambda(pair, FAM, k0 - 1)

        def emb(i):
            sa, sb = cxa.spaces[i], cxb.spaces[i]
            if sa is sb:
                return np.eye(sa.dim)
            if isinstance(sa, Subspace):
                return placement(sa.ambient, sb).apply(dense_basis(sa))
            return placement(sa, sb).submatrix()

        for i in range(max(k0 - 2, 0), pair.top_dim):
            lhs = cxb.diffs[i].submatrix() @ emb(i)
            rhs = emb(i + 1) @ cxa.diffs[i].submatrix()
            assert np.linalg.norm(lhs - rhs) < 1e-10, (k0, i)


def test_vertical_complex_exact(catalog):
    """The columns of the double complex, the trace-jump complexes
    augmented by the conforming space, are exact at every index."""
    rep = distrib.verify_double_complex(catalog("square_grid"), FAM)
    assert set(rep["columns"]) == {0, 1, 2}
    for k, col in rep["columns"].items():
        assert col["ok"] and list(col["indices"]) == list(range(2, k - 1, -1))
        assert all(e["ok"] for e in col["indices"].values()), k


def test_horizontal_complex_kernel_is_constants(catalog):
    """The kernel of the cellwise derivative on k = 0 of each row of the
    double complex is the cellwise constants: one per simplex."""
    pair = catalog("annulus")
    rep = distrib.verify_double_complex(pair, FAM)
    for m in (1, 2):
        first = rep["rows"][m]["indices"][0]
        assert first["ok"] and first["kernel"] == len(pair.stratum(m))


def test_harmonic_lambda_depth_range(catalog):
    pair = catalog("annulus", 1, "full")
    with pytest.raises(AssemblyError):
        distrib.harmonic_lambda(pair, FAM, 1, 3)
    assert distrib.harmonic_lambda(pair, FAM, 1, 2).dim == 1


def test_regularizer_R_on_cocycles(catalog):
    pair = catalog("annulus", 1, "full")
    rng = np.random.default_rng(8)
    for k, b in [(1, 2), (2, 2), (2, 3)]:
        cx = distrib.redirected_lambda(pair, FAM, k - b + 1)
        sp = cx.spaces[k]
        d_prev = cx.diffs[k - 1].submatrix()
        h = harmonic_space(cx, k)
        z = d_prev @ rng.standard_normal(d_prev.shape[1])
        if h.dim:
            z = z + h.basis @ rng.standard_normal(h.dim)
        out = regularizer_R(pair, FAM, k, b, z)
        deep = stratum_slice(sp, pair.top_dim - b + 1)
        assert np.linalg.norm(out[deep]) < 1e-9 * max(np.linalg.norm(z), 1.0)
        if k < len(cx.diffs):
            d_next = cx.diffs[k].submatrix()
            assert np.linalg.norm(d_next @ out - d_next @ z) < 1e-9


def test_regularizer_R_fixes_shallow(catalog):
    pair = catalog("annulus", 1, "full")
    k, b = 2, 2
    cx = distrib.redirected_lambda(pair, FAM, k - b + 1)
    sp = cx.spaces[k]
    x = np.zeros(sp.dim)
    top = stratum_slice(sp, pair.top_dim)
    rng = np.random.default_rng(9)
    x[top] = rng.standard_normal(top.stop - top.start)
    out = regularizer_R(pair, FAM, k, b, x)
    assert np.linalg.norm(out - x) < 1e-12 * np.linalg.norm(x)


def test_regularizer_S_on_cocycles(catalog):
    pair = catalog("annulus", 1, "full")
    n = pair.top_dim
    rng = np.random.default_rng(10)
    for m, b in [(1, 2), (0, 2), (0, 3)]:
        cx = distrib.redirected_gamma(pair, FAM, m + b - 1)
        idx = n - m
        sp = cx.spaces[idx]
        d_prev = cx.diffs[idx - 1].submatrix()
        h = harmonic_space(cx, idx)
        z = d_prev @ rng.standard_normal(d_prev.shape[1])
        if h.dim:
            z = z + h.basis @ rng.standard_normal(h.dim)
        out = regularizer_S(pair, FAM, m, b, z)
        deep = stratum_slice(sp, m + b - 1)
        assert np.linalg.norm(out[deep]) < 1e-9 * max(np.linalg.norm(z), 1.0)
        if idx < len(cx.diffs):
            d_next = cx.diffs[idx].submatrix()
            assert np.linalg.norm(d_next @ out - d_next @ z) < 1e-9


def test_exactness_witness(catalog):
    """For every harmonic form w at depth b-1, the potential xi built by
    the right-inverse recursion through D and T, stratum by stratum, pairs
    its graded derivative with w to the squared norm of w."""
    pair = catalog("annulus", 1, "full")
    n = pair.top_dim
    for k, b in [(1, 2), (2, 2), (2, 3)]:
        h = distrib.harmonic_lambda(pair, FAM, k, b - 1)
        amb = h.ambient
        xi_space = BrokenSpace(pair, [(n - j, k - 1 - j) for j in range(b - 1)
                                      if k - 1 - j >= 0], FAM)
        d_xi = derivative_operator(xi_space)
        xi = np.zeros((xi_space.dim, h.dim))
        for j in range(b - 1):
            mj, kj = n - j, k - j
            rhs = h.basis[stratum_slice(amb, mj)]
            if j >= 1:
                t = operator_T(pair, mj + 1, kj, FAM)
                rhs = rhs - (-1.0) ** j * (t.submatrix() @ prev)
            d_op = operator_D(pair, mj, kj - 1, FAM)
            prev = (-1.0) ** j * pseudoinverse(d_op, rhs)
            xi[stratum_slice(xi_space, mj)] = prev
        w = placement(amb, d_xi.codomain).apply(h.basis)
        g_w = d_xi.codomain.gram @ w
        values = np.sum((d_xi.submatrix() @ xi) * g_w, axis=0)
        norm2 = np.sum(w * g_w, axis=0)
        assert np.all(np.abs(values - norm2) < 1e-9 * np.maximum(norm2, 1e-30))


def test_verify_chain_square_marks(catalog):
    for mark in ("none", "full", "half"):
        pair = catalog("square_grid", 1, mark)
        betti = betti_numbers(pair)
        for k in range(3):
            rep = distrib.verify_chain(pair, FAM, k)
            assert rep["passed"], (mark, k, rep["steps"])
            assert all(d == betti[2 - k] for d in rep["dims"])


def test_verify_chain_trimmed_r2(catalog):
    pair = catalog("annulus", 1, "full")
    fam = Family("trimmed", 2)
    rep = distrib.verify_chain(pair, fam, 1)
    assert rep["passed"]
    assert all(d == 1 for d in rep["dims"])


def _failed(report):
    return [label for label, s in report["steps"].items() if not s["ok"]]


def test_verify_chain_fails_a_zero_transfer(catalog, monkeypatch):
    """A stratum placement that maps everything to zero makes every
    transfer zero, which no step forgives: neither the isomorphism steps
    nor the depth-1 equalities, whose transfers go through it too."""
    pair = catalog("annulus", 1, "full")
    assert distrib.verify_chain(pair, FAM, 1)["passed"]

    def zero_placement(small, big):
        rows, cols, vals = placement(small, big).triplets
        return LinearOp(small, big, (rows, cols, 0 * vals))

    monkeypatch.setattr(distrib, "placement", zero_placement)
    report = distrib.verify_chain(pair, FAM, 1)
    assert _failed(report) == ["chain harmonic depth-1 equality",
                               "chain transfer depth 1->2",
                               "degree transfer depth 1->2",
                               "conforming harmonic depth-1 equality"]
    assert not report["passed"]


@pytest.mark.parametrize("side", ["chain", "conforming"])
def test_verify_chain_fails_a_perturbed_harmonic_basis(catalog, monkeypatch,
                                                       side):
    """A harmonic basis at an end of the ladder moved off its space, with
    its dimension kept, fails the depth-1 equality that reads it."""
    pair = catalog("annulus", 1, "full")
    assert distrib.verify_chain(pair, FAM, 1)["passed"]
    end = {"chain": distrib.chainlike_complex,
           "conforming": distrib.conforming_complex}[side](pair, FAM)
    rng = np.random.default_rng(22)

    def perturbed(cx, i):
        h = harmonic_space(cx, i)
        if cx is not end:
            return h
        noise = rng.standard_normal(h.basis.shape)
        return Subspace(h.ambient, h.basis + 1e-4 * np.abs(h.basis).max()
                        * noise)

    monkeypatch.setattr(distrib, "harmonic_space", perturbed)
    report = distrib.verify_chain(pair, FAM, 1)
    assert _failed(report) == [f"{side} harmonic depth-1 equality"]
    assert not report["passed"]


def test_verdict_helpers_on_edge_transfers(catalog):
    """A non-square transfer is no bijection, and its two spaces differ
    by their dimension gap; an empty one is a bijection between spaces
    that coincide."""
    sp = broken_space(catalog("annulus"), 2, 1, FAM)
    one, three, empty, other = (Subspace(sp, np.eye(sp.dim, j))
                                for j in (1, 3, 0, 0))
    assert distrib._transfer(one, three).shape == (3, 1)
    assert distrib._bijection(distrib._transfer(one, three)) == (0.0, False)
    assert distrib._defect(one, three) == distrib._defect(three, one) == 2.0
    assert distrib._transfer(empty, other).shape == (0, 0)
    assert distrib._bijection(distrib._transfer(empty, other)) == (1.0, True)
    assert distrib._defect(empty, other) == 0.0
    assert distrib._defect(one, one) == 0.0


def test_verify_chain_rebuilds_nothing(catalog, monkeypatch):
    """Every complex of the chain is memoised on the pair, so a second run
    of each degree constructs no complex."""
    pair = catalog("annulus", 1, "full")
    n = pair.top_dim
    for k in range(n + 1):
        distrib.verify_chain(pair, FAM, k)
    built = []
    init = ComplexInstance.__init__

    def counted(self, spaces, diffs, label=""):
        built.append(label)
        init(self, spaces, diffs, label)

    monkeypatch.setattr(ComplexInstance, "__init__", counted)
    assert all(distrib.verify_chain(pair, FAM, k)["passed"]
               for k in range(n + 1))
    assert not built


def test_skeleton_projection(catalog):
    rep = distrib.skeleton_projection(catalog("annulus"), FAM, 2)
    assert rep["ok"] and rep["dims"] == (1, 1)
    rep = distrib.skeleton_projection(catalog("square_grid"), FAM, 2)
    assert rep["ok"] and rep["dims"] == (1, 1)
    with pytest.raises(AssemblyError):
        distrib.skeleton_projection(catalog("annulus"), FAM, 1)


def test_skeleton_degree_zero(catalog):
    pair = catalog("annulus", 1, "full")
    for m in range(pair.top_dim + 1):
        assert distrib.skeleton_degree_zero_identity(pair, FAM, m)["ok"]


def test_verify_double_complex(catalog):
    for mark in ("none", "full"):
        rep = distrib.verify_double_complex(catalog("annulus", 1, mark), FAM)
        assert rep["passed"]


def test_double_complex_flags_pinched(tmp_path):
    """Two triangles sharing only a vertex: `check` fails on the patch
    condition and on the vertex column of the double complex, whose rows
    stay exact."""
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0],
                     [2.0, 2.0]],
        "cells": [[0, 1, 2], [2, 3, 4]]}))
    out = io.StringIO()
    assert main(["check", "--mesh", str(path), "--format", "structured"],
                out=out) == 1
    rep = json.loads(out.getvalue())["report"]
    assert not rep["passed"]
    assert not rep["patch"]["passed"]
    double = rep["double_complex"]
    assert not double["passed"] and not double["columns"]["0"]["ok"]
    assert all(row["ok"] for row in double["rows"].values())


def test_harmonic_family_table(catalog):
    pair = catalog("annulus", 1, "full")
    rep = distrib.harmonic_family(pair, FAM)
    assert rep["lambda"][(1, 1)] == rep["lambda"][(1, 2)] == 1
    assert rep["gamma"][(1, 1)] == rep["gamma"][(1, 2)] == 1
    assert rep["conforming"][1] == rep["chain"][1] == 1


def test_harmonic_family_builds_no_basis(monkeypatch):
    """The dimension table and the degree-0 identities read counts: no QR
    runs, and the counts are the dimensions of the harmonic spaces."""
    pair = generate_mesh("annulus", 1, "none")
    qr = np.linalg.qr

    def no_qr(*args, **kwargs):
        raise AssertionError("harmonic_family took a QR")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    rep = distrib.harmonic_family(pair, FAM)
    for m in range(3):
        assert distrib.skeleton_degree_zero_identity(pair, FAM, m)["ok"]
    monkeypatch.setattr(np.linalg, "qr", qr)
    assert rep["lambda"][(1, 1)] == rep["chain"][1] == 1
    for (k, b), h in rep["lambda"].items():
        assert distrib.harmonic_lambda(pair, FAM, k, b).dim == h
    for (m, b), h in rep["gamma"].items():
        assert distrib.harmonic_gamma(pair, FAM, m, b).dim == h


def test_every_complex_family_builds(catalog):
    pair = catalog("square_grid")
    skel = skeleton_pair(pair, 1)
    for cx in [distrib.conforming_complex(pair, FAM),
               distrib.chainlike_complex(pair, FAM),
               distrib.total_complex(pair, FAM),
               distrib.redirected_lambda(pair, FAM, 1),
               distrib.redirected_gamma(pair, FAM, 0),
               distrib.total_complex(skel, FAM),
               distrib.chainlike_complex(skel, FAM)]:
        assert len(cx) >= 1
        for a, b in zip(cx.diffs, cx.diffs[1:]):
            assert np.linalg.norm(b.submatrix() @ a.submatrix()) < 1e-9


@pytest.mark.parametrize("name", ["annulus", "cube_tet"])
def test_graded_complexes_match_betti(catalog, unweighted_total, name):
    """Every redirected complex, on both sides and at every redirect
    index, and the unweighted total complex carry the relative homology
    in reverse order."""
    for mark in ("none", "full", "half"):
        pair = catalog(name, 1, mark)
        n = pair.top_dim
        expected = betti_numbers(pair)[::-1]
        for fam in (FAM, Family("trimmed", 2)):
            cxs = [distrib.redirected_lambda(pair, fam, k0)
                   for k0 in range(n + 1)]
            cxs += [distrib.redirected_gamma(pair, fam, m0)
                    for m0 in range(n + 1)]
            cxs.append(unweighted_total(pair, fam))
            for cx in cxs:
                dims = [harmonic_space(cx, i).dim for i in range(len(cx))]
                assert dims == expected, (mark, fam, cx)


@pytest.mark.parametrize("name", ["annulus", "cube_tet", "square_grid"])
def test_zero_skeleton_complexes_match_betti(catalog, name):
    """The 0-skeleton has no edges: its vertex weights come from the parent
    mesh, and its chain-like complex carries the skeleton's homology."""
    for mark in ("none", "full", "half"):
        pair = catalog(name, 2 if name == "square_grid" else 1, mark)
        skel = skeleton_pair(pair, 0)
        assert skel.parent is pair
        for fam in (FAM, Family("full", 2)):
            cx = distrib.chainlike_complex(skel, fam)
            dims = [harmonic_space(cx, i).dim for i in range(len(cx))]
            assert dims == betti_numbers(skel)[::-1]


def test_non_pure_complex_unsupported():
    pair = build_complex([[0, 1, 2], [2, 3]],
                         [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert betti_numbers(pair) == [1, 0, 0]
    # the strays are found once per pair, and every call raises
    for _ in range(2):
        with pytest.raises(MeshError,
                           match=r"Simplex\(2, 3\) lies in no 2-cell"):
            distrib.check_conditions(pair, FAM)
        for k in range(3):
            with pytest.raises(MeshError, match="unsupported configuration"):
                distrib.verify_chain(pair, FAM, k)


def test_skeleton_ranks_are_exact(catalog):
    """The skeleton identities and the double complex take their ranks and
    kernels from exact elimination; they agree with the float ranks."""
    for mark in ("none", "full", "half"):
        pair = catalog("annulus", 1, mark)
        for m in range(pair.top_dim + 1):
            rep = distrib.skeleton_degree_zero_identity(pair, FAM, m)
            assert rep["ok"], rep
        assert distrib.skeleton_projection(pair, FAM, 2)["ok"]
        for m in range(1, pair.top_dim + 1):
            for k in range(m):
                t = operator_T(pair, m, k, FAM)
                assert exact.rank(t.triplets, t.shape) == \
                    np.linalg.matrix_rank(t.submatrix(), tol=1e-9)


def kernel_from_dense(ambient, Z, free):
    """A kernel subspace with the dense integer basis Z, kept as its
    row-major triplets."""
    return Subspace(ambient, triplets=exact.dense_triplets(Z),
                    free=np.asarray(free))


def test_kernel_diff_guards(catalog):
    pair = catalog("annulus", 1, "full")
    n = pair.top_dim
    # a source column outside ker T has trace jumps off the target stratum
    amb = broken_space(pair, n, 0, FAM)
    off = kernel_from_dense(amb, np.eye(amb.dim, 1, dtype=np.int64), [0])
    with pytest.raises(AssemblyError, match="leaves the target stratum"):
        distrib._kernel_diff(off, broken_space(pair, n, 1, FAM))
    # a kernel target missing one direction of the image
    src = kernel_space(pair, n, 0, FAM, "vertical")
    tgt = kernel_space(pair, n, 1, FAM, "vertical")
    mat = distrib._kernel_diff(src, tgt).submatrix()
    assert mat.shape == (tgt.dim, src.dim)
    assert np.array_equal(dense_basis(tgt) @ mat, distrib._kernel_diff(
        src, tgt.ambient).submatrix())
    drop = np.argmax(np.abs(mat).sum(axis=1))
    keep = np.arange(tgt.dim) != drop
    bad = kernel_from_dense(tgt.ambient, dense_basis(tgt)[:, keep],
                            tgt.free[keep])
    with pytest.raises(AssemblyError, match="falls outside the subspace"):
        distrib._kernel_diff(src, bad)


def test_kernel_diff_reads_scaled_free_columns(catalog):
    """A kernel column scaled by s on its free column (2, or past int64)
    divides its coordinate by s, decided in exact integers: a fractional
    coordinate is refused, and with the source basis scaled by s as well
    every coordinate divides exactly, in Python ints past int64."""
    pair = catalog("annulus", 1, "full")
    n = pair.top_dim
    src = kernel_space(pair, n, 0, FAM, "vertical")
    tgt = kernel_space(pair, n, 1, FAM, "vertical")
    mat = distrib._kernel_diff(src, tgt).submatrix().astype(np.int64)
    assert np.any(mat[0] % 2)
    for s in (2, 2 ** 70):
        basis = dense_basis(tgt).astype(object)
        basis[:, 0] *= s
        scaled = kernel_from_dense(tgt.ambient, basis, tgt.free)
        with pytest.raises(AssemblyError, match="fractional coordinates"):
            distrib._kernel_diff(src, scaled)
        both = kernel_from_dense(src.ambient,
                                 dense_basis(src).astype(object) * s, src.free)
        want = mat.astype(object) * s
        want[0] = mat[0]
        rows, cols, vals = distrib._kernel_diff(both, scaled).triplets
        got = np.zeros(want.shape, object)
        got[rows, cols] = vals
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("family", [FAM, Family("trimmed", 2),
                                    Family("full", 2)], ids=lambda f: f.label)
@pytest.mark.parametrize("name", CATALOG)
def test_kernel_diffs_are_integral(catalog, name, family):
    """Every differential out of a kernel subspace, in the coordinates of
    its integer basis, has integer entries."""
    for mark in ("none", "full", "half"):
        pair = catalog(name, 1, mark)
        n = pair.top_dim
        complexes = [distrib.redirected_lambda(pair, family, k0)
                     for k0 in range(1, n + 1)]
        complexes += [distrib.redirected_gamma(pair, family, m0)
                      for m0 in range(n)]
        diffs = [d for cx in complexes for d in cx.diffs
                 if isinstance(d.domain, Subspace)]
        assert len(diffs) == n * (n + 1)
        for d in diffs:
            assert np.array_equal(d.submatrix(), np.rint(d.submatrix()))


def test_metric_independence(catalog, unweighted_total):
    pair = catalog("annulus")
    w = distrib.total_complex(pair, FAM)
    u = unweighted_total(pair, FAM)
    assert [harmonic_space(w, i).dim for i in range(len(w))] == \
        [harmonic_space(u, i).dim for i in range(len(u))]


def _cocycle_projector(space, matrix):
    """The Gram-orthogonal projector onto the float SVD nullspace of a
    matrix on a space, from a QR of the whitened nullspace basis."""
    W = space.whitening
    Kb = W.solve_lt(np.linalg.qr(W.mul_lt(svd_null(matrix)[0]))[0])
    return Kb @ (Kb.T @ space.gram)


def _step(pair, family, side, index, b):
    """The complex and index of an isomorphism step's target space, the
    regularizer of its side, and the source and target harmonic spaces."""
    cx, pos = distrib._graded(pair, family, side, index, b)
    reg = regularizer_R if side == "lambda" else regularizer_S
    return (cx, pos, reg,
            harmonic_space(*distrib._graded(pair, family, side, index, b - 1)),
            harmonic_space(cx, pos))


def _steps(n):
    """Every isomorphism step (side, index, b) on a mesh of dimension n."""
    cases = [("lambda", k, b) for k in range(1, n + 1)
             for b in range(2, k + 2)]
    return cases + [("gamma", m, b) for m in range(n)
                    for b in range(2, n - m + 2)]


def projected_iso_step(pair, family, side, index, b):
    """The transfer of an isomorphism step with the injected source forms
    projected onto the cocycles of the target's outgoing graded
    derivative before pairing."""
    cx, pos, _reg, h_src, h_tgt = _step(pair, family, side, index, b)
    sp = cx.spaces[pos]
    image = placement(h_src.ambient, sp).apply(h_src.basis)
    if pos < len(cx.diffs) and cx.diffs[pos].codomain.dim:
        image = _cocycle_projector(sp, cx.diffs[pos].submatrix()) @ image
    return h_tgt.basis.T @ sp.gram @ image


def projected_skeleton_transfer(pair, family, k):
    """The skeleton transfer with the skeleton-stratum component projected
    onto ker D and ker T before pairing."""
    n = pair.top_dim
    h2 = distrib.harmonic_lambda(pair, family, k, 2)
    skel = skeleton_pair(pair, n - 1)
    skel_cx = distrib.conforming_complex(skel, family)
    h_skel = harmonic_space(skel_cx, k - 1)
    sp = skel_cx.spaces[k - 1]
    # the top skeleton space is a broken space, its own ambient
    amb, basis = ((sp.ambient, dense_basis(sp)) if isinstance(sp, Subspace)
                  else (sp, np.eye(sp.dim)))
    DT = np.vstack([op(skel, n - 1, k - 1, family).submatrix()
                    for op in (operator_D, operator_T)])
    comp = h2.basis[stratum_slice(h2.ambient, n - 1)]
    emb = basis @ h_skel.basis
    return emb.T @ amb.gram @ _cocycle_projector(amb, DT) @ comp


def _close(a, b):
    scale = max(1.0, np.abs(b).max(initial=0.0))
    return a.shape == b.shape and \
        np.abs(a - b).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("family", [FAM, Family("full", 2)],
                         ids=lambda f: f.label)
@pytest.mark.parametrize("name", ["annulus", "cube_tet"])
def test_transfers_match_cocycle_projection(catalog, name, family):
    """Harmonic forms are cocycles, so every isomorphism-step transfer and
    every skeleton transfer equals the one taken after the Gram-orthogonal
    projection onto the cocycles."""
    for mark in ("none", "full", "half"):
        pair = catalog(name, 1, mark)
        n = pair.top_dim
        for side, index, b in _steps(n):
            _cx, _pos, _reg, h_src, h_tgt = _step(pair, family, side, index, b)
            assert _close(distrib._transfer(h_src, h_tgt),
                          projected_iso_step(pair, family, side, index, b)), \
                (mark, side, index, b)
        for k in range(2, n + 1):
            st = distrib.skeleton_projection(pair, family, k)
            assert _close(st["transfer"],
                          projected_skeleton_transfer(pair, family, k)), \
                (mark, k)


def _inverse_transfer_widths(pair, family):
    """Every isomorphism step of a pair, against the paper's regularizer R
    of its side: R fixes the placed source forms ι(y), and
    T_R = (R h)^T G ι(y) inverts the transpose of the step's transfer
    T = h^T G ι(y), so both have the same smallest relative singular
    value; every step between equal dimensions passes.  Returns the width
    of each transfer."""
    widths = []
    for side, index, b in _steps(pair.top_dim):
        cx, pos, regularizer, h_src, h_tgt = _step(pair, family, side,
                                                   index, b)
        sp = cx.spaces[pos]
        y = placement(h_src.ambient, sp).apply(h_src.basis)
        assert np.array_equal(regularizer(pair, family, index, b, y), y)
        transfer = distrib._transfer(h_src, h_tgt)
        assert distrib._bijection(transfer)[1] == (h_src.dim == h_tgt.dim)
        t_r = regularizer(pair, family, index, b, h_tgt.basis).T @ \
            sp.gram @ y
        assert np.linalg.norm(t_r.T @ transfer
                              - np.eye(h_src.dim)) <= 1e-12, \
            (side, index, b)
        widths.append(h_src.dim)
    return widths


def test_regularized_transfer_inverts_the_transfer(catalog):
    """The regularizer R behind the paper's isomorphism steps gives the
    inverse transpose of each step's transfer, on the catalog and on drawn
    sub-grids, where holes make transfers 2 wide and more."""
    widths = []
    for name in ("annulus", "cube_tet"):
        for mark in ("none", "full", "half"):
            for family in (FAM, Family("full", 2)):
                widths += _inverse_transfer_widths(catalog(name, 1, mark),
                                                   family)

    @DRAWN
    @given(marked_subgrids())
    def drawn(pair):
        assume(distrib.check_conditions(pair, FAM)["passed"])
        widths.extend(_inverse_transfer_widths(pair, FAM))

    drawn()
    assert max(widths) >= 2


def _torus():
    """A 3 x 3 torus surface in R^3: the Kuhn triangles of a 3 x 3 grid
    of squares with opposite sides glued, 18 triangles on 9 vertices,
    each cell in sorted orientation."""
    cells, coords = _kuhn_cells(list(itertools.product(range(3), repeat=2)))
    glued = [3 * (int(x) % 3) + int(y) % 3 for x, y in coords]
    angles = [2 * np.pi * np.array(divmod(v, 3)) / 3 for v in range(9)]
    points = [((2 + np.cos(p)) * np.cos(t), (2 + np.cos(p)) * np.sin(t),
               np.sin(p)) for t, p in angles]
    return build_complex([sorted(glued[v] for v in c) for c in cells],
                         points)


def _tunnel_block():
    """A 5 x 3 x 1 Kuhn block without the cubes (1, 1) and (3, 1): two
    tunnels, 78 tetrahedra."""
    keep = [c + (0,) for c in itertools.product(range(5), range(3))
            if c not in ((1, 1), (3, 1))]
    return build_complex(*_kuhn_cells(keep))


@pytest.mark.parametrize("mesh,mark,betti", [
    (_torus, "none", [1, 2, 1]),
    (_tunnel_block, "none", [1, 2, 0, 0]),
    (_tunnel_block, "full", [0, 0, 2, 1])],
    ids=["torus", "block", "block-marked"])
def test_wide_transfers(mesh, mark, betti):
    """Homology two wide, which no catalog mesh has: the isomorphism chain
    passes at every degree through transfers two wide, and every graded
    harmonic dimension equals the Betti number of its index."""
    pair = mark_pair(mesh(), mark)
    n = pair.top_dim
    assert len(pair.simplices(n)) == {2: 18, 3: 78}[n]
    assert list(betti_numbers(pair)) == betti
    widths = []
    for k in range(n + 1):
        rep = distrib.verify_chain(pair, FAM, k)
        assert rep["passed"], (k, rep["steps"])
        widths += [step["dims"][0] for label, step in rep["steps"].items()
                   if "transfer" in label]
    assert max(widths) == 2
    table = distrib.harmonic_family(pair, FAM)
    assert [table["chain"][m] for m in range(n + 1)] == betti
    assert [table["conforming"][k] for k in range(n + 1)] == betti[::-1]
    assert all(h == betti[n - k] for (k, _b), h in table["lambda"].items())
    assert all(h == betti[m] for (m, _b), h in table["gamma"].items())
