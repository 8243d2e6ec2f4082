import io
import pathlib
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ddforms
from ddforms import assembly, cli, distrib, exact, polyforms
from ddforms.assembly import (AssemblyError, BrokenSpace, GramFactor,
                              LinearOp, Subspace, _cholesky,
                              broken_space, derivative_operator,
                              export_matrix, kernel_space, mesh_weight,
                              operator_D, operator_T, placement)
from ddforms.cli import main
from ddforms.mesh import (RelativePair, build_complex, generate_mesh,
                          skeleton_pair)
from ddforms.polyforms import (ElementSpace, Family, FamilyError,
                               simplex_metrics)

from conftest import dense, dense_basis, svd_null
from reference import dense_adjoint, orientation_sign


def rel(a, scale):
    return np.linalg.norm(a) / max(scale, 1.0)


def test_broken_space_dims(catalog):
    pair = catalog("square_grid")
    fam = Family("trimmed", 1)
    assert broken_space(pair, 2, 0, fam).dim == 2 * 3
    assert broken_space(pair, 2, 1, fam).dim == 2 * 3
    assert broken_space(pair, 1, 0, fam).dim == 5 * 2
    assert broken_space(pair, 0, 0, fam).dim == 4


def test_gram_symmetric_positive(catalog):
    pair = catalog("annulus")
    fam = Family("trimmed", 1)
    for m, k in [(2, 1), (1, 0), (1, 1)]:
        g = broken_space(pair, m, k, fam).gram
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_mesh_weight_scaling(catalog):
    pair = catalog("square_grid")
    cell = pair.simplices(2)[0]
    edge = pair.simplices(1)[0]
    assert mesh_weight(pair, cell) == pytest.approx(1.0)
    assert mesh_weight(pair, edge) == pytest.approx(pair.diameter(edge))


@pytest.mark.parametrize("name,size,skeleton", [
    ("square_grid", 1, None), ("square_grid", 4, None),
    ("cube_tet", 1, 2)])
def test_vertex_weights_equal_per_vertex_scan(name, size, skeleton):
    """The vertex weights, read from each vertex's root edges gathered in
    one pass, equal a scan of every root edge per vertex, on a mesh and
    on a skeleton pair, whose edges are those of its root."""
    pair = generate_mesh(name, size)
    if skeleton is not None:
        pair = skeleton_pair(pair, skeleton)
    root = pair.parent or pair
    for v in pair.simplices(0):
        lengths = [pair.diameter(e) for e in root.simplices(1)
                   if v.vertices[0] in e.vertices]
        scan = (sum(lengths) / len(lengths)) ** root.top_dim
        assert mesh_weight(pair, v) == scan, v


@pytest.mark.parametrize("name", ["annulus", "cube_tet"])
def test_skeleton_weight_exponent_from_root(catalog, name):
    """On a codimension-one skeleton, each Gram block is the unweighted
    element Gram times h_C^(n - m), n the top dimension of the root mesh
    (not of the skeleton)."""
    for mark in ("none", "half"):
        pair = catalog(name, 1, mark)
        n = pair.top_dim
        skel = skeleton_pair(pair, n - 1)
        for fam in (Family("trimmed", 1), Family("full", 2)):
            for m in range(n):
                for k in range(m + 1):
                    sp = broken_space(skel, m, k, fam)
                    (s,) = sp.strata
                    coords = np.asarray(skel.coords, float)
                    cells = np.array([c.vertices for c in s.simplices])
                    grams = fam.space(m, k).gram(
                        *simplex_metrics(coords[cells]))
                    for i, c in enumerate(s.simplices):
                        if m:
                            h = skel.diameter(c)
                        else:
                            h = np.mean([pair.diameter(e)
                                         for e in pair.simplices(1)
                                         if c.vertices[0] in e.vertices])
                        sl = slice(s.offset + i * s.block,
                                   s.offset + (i + 1) * s.block)
                        assert np.allclose(sp.gram[sl, sl],
                                           h ** (n - m) * grams[i],
                                           rtol=1e-12, atol=0), (m, k, c)


@pytest.mark.parametrize("name,size", [("square_grid", 6), ("cube_tet", 1)])
def test_each_stratum_is_factored_once(monkeypatch, name, size):
    """A cold chain factors the element Grams of an (m, k) stratum of its
    mesh at most once, with one batched Cholesky call, however many broken
    spaces share the stratum; a stratum no harmonic space whitens is not
    factored at all, so unmarked strata are and half-marked ones are
    not."""
    batched, built = [], []
    cholesky, cached = np.linalg.cholesky, RelativePair.cached

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            batched.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    def counted_build(self, key, build):
        if key[0] == "stratum" and key not in self._cache:
            built.append(key[3:])
        return cached(self, key, build)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(RelativePair, "cached", counted_build)
    for mark in ("none", "half"):
        batched.clear()
        built.clear()
        assert main(["chain", "--mesh", f"catalog:{name}:{size}", "--mark",
                     mark], out=io.StringIO()) == 0
        pair = generate_mesh(name, size, mark)
        assert len(set(built)) == len(built) == len(batched), \
            (mark, built, batched)
        assert all(pair.stratum(m) for m, _k in built)
        assert bool(built) == (mark == "none"), (mark, built)


def test_gram_factor_writes_blocks_and_keeps_other_rows():
    """Each block of a factor applies its batched element factors in place
    of the rows it covers, rows outside every block pass unchanged, and a
    vector or a column-major matrix comes back as a new array of its
    shape."""
    rng = np.random.default_rng(2)
    L = np.tril(rng.standard_normal((3, 2, 2))) + 3 * np.eye(2)
    L = L @ L.transpose(0, 2, 1)  # its Gram, factored back in place
    leaves = _cholesky(L)
    factor = GramFactor([(1, L, leaves), (8, L[:1], leaves[:1])])
    dense = np.eye(11)
    for c in range(3):
        dense[1 + 2 * c:3 + 2 * c, 1 + 2 * c:3 + 2 * c] = L[c]
    dense[8:10, 8:10] = L[0]
    x = np.asfortranarray(rng.standard_normal((11, 4)))
    for got, want in ((factor.mul_l(x), dense @ x),
                      (factor.mul_lt(x), dense.T @ x),
                      (factor.solve_l(x), np.linalg.solve(dense, x)),
                      (factor.solve_lt(x[:, 0]),
                       np.linalg.solve(dense.T, x[:, 0]))):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    before = x.copy()
    factor.mul_lt(x)[:] = 0
    assert np.array_equal(x, before)


def test_dense_whitening_keeps_factor_alone():
    """A kernel subspace of more than 128 dimensions keeps its metric as
    the dense Cholesky factor L alone: no other square array, and its leaf
    inverses at most 128 floats per row."""
    space = kernel_space(generate_mesh("square_grid", 6), 2, 1,
                         Family("trimmed", 2), "vertical")
    n = space.dim
    assert n > 128
    W = space.whitening
    (offset, L, leaves), = W.blocks
    assert offset == 0 and L.shape == (1, n, n)
    assert leaves.shape[:2] == (1, n) and leaves.shape[2] <= 128
    assert np.allclose(W.mul_l(W.mul_lt(np.eye(n)[:, :3])),
                       space.gram[:, :3], rtol=1e-12, atol=1e-12)


def test_submatrix_matches_dense_rows_and_columns(catalog):
    d = derivative_operator(BrokenSpace(catalog("annulus"), [(2, 1), (1, 0)],
                                        Family("trimmed", 1)))
    rows, cols = [5, 0, 3], [7, 2]
    ref = dense(d.triplets, (d.codomain.dim, d.domain.dim))
    assert np.array_equal(d.submatrix(), ref)
    assert np.array_equal(d.submatrix(rows=rows), ref[rows])
    assert np.array_equal(d.submatrix(cols=cols), ref[:, cols])
    assert np.array_equal(d.submatrix(rows, cols), ref[np.ix_(rows, cols)])


def test_apply_matches_dense_product(catalog):
    """A x and A^T y from the triplets equal the dense products, for
    vectors, for matrices and for matrices with no columns."""
    d = derivative_operator(BrokenSpace(catalog("annulus"), [(2, 1), (1, 0)],
                                        Family("trimmed", 1)))
    ref = dense(d.triplets, (d.codomain.dim, d.domain.dim)).astype(float)
    rng = np.random.default_rng(3)
    for cols in ((), (4,), (0,)):
        x = rng.standard_normal((d.domain.dim,) + cols)
        y = rng.standard_normal((d.codomain.dim,) + cols)
        assert d.apply(x).shape == (d.codomain.dim,) + cols
        assert np.allclose(d.apply(x), ref @ x, rtol=1e-14, atol=1e-13)
        assert d.apply(y, transpose=True).shape == (d.domain.dim,) + cols
        assert np.allclose(d.apply(y, transpose=True), ref.T @ y,
                           rtol=1e-14, atol=1e-13)


def test_placement_round_trip(catalog):
    """placement(a, b) puts each stratum of a at its rows of b, zero rows
    elsewhere, and its transpose reads them back exactly."""
    fam = Family("trimmed", 1)
    pair = catalog("annulus")
    for strata in ([(1, 0)], [(2, 1), (1, 0)], [(2, 2), (0, 0)]):
        small = BrokenSpace(pair, strata, fam)
        big = BrokenSpace(pair, strata + [(m, 0) for m in range(3)
                                          if m not in dict(strata)], fam)
        p = placement(small, big)
        x = np.random.default_rng(4).standard_normal((small.dim, 3))
        y = p.apply(x)
        assert np.array_equal(p.apply(y, transpose=True), x)
        assert np.count_nonzero(y.any(axis=1)) == small.dim


def test_placement_refuses_what_does_not_embed(catalog):
    """A stratum the larger space lacks, holds with another block size, or
    holds over as many other simplices does not embed."""
    pair = catalog("annulus")
    small = BrokenSpace(pair, [(1, 0)], Family("trimmed", 1))
    for big in (BrokenSpace(pair, [(2, 1)], Family("trimmed", 1)),
                BrokenSpace(pair, [(1, 0)], Family("trimmed", 2))):
        with pytest.raises(AssemblyError, match="does not embed"):
            placement(small, big)
    square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    one = build_complex([[0, 1, 2], [1, 2, 3]], square)
    other = build_complex([[0, 1, 3], [0, 2, 3]], square)
    fam = Family("trimmed", 1)
    a, b = (BrokenSpace(p, [(2, 0)], fam) for p in (one, other))
    assert a.dim == b.dim
    with pytest.raises(AssemblyError, match="does not embed"):
        placement(a, b)


def test_subspace_embedding_matches_dense_basis(catalog):
    """A kernel subspace's embedding applies its integer basis Z from the
    triplets: Z H equals the dense product, for every kernel subspace of
    a fully marked annulus."""
    fam = Family("full", 2)
    pair = catalog("annulus", 1, "full")
    rng = np.random.default_rng(5)
    for m, k, which in kernel_strata(pair, True):
        sub = kernel_space(pair, m, k, fam, which)
        H = rng.standard_normal((sub.dim, 3))
        ref = dense_basis(sub).astype(float) @ H
        assert sub.embedding.apply(H).shape == ref.shape
        assert np.allclose(sub.embedding.apply(H), ref, rtol=1e-14,
                           atol=1e-13 * max(1.0, np.abs(ref).max(initial=0)))


def test_identities_whitney(catalog):
    pair = catalog("annulus")
    fam = Family("trimmed", 1)
    m = 2
    d0 = operator_D(pair, m, 0, fam)
    d1 = operator_D(pair, m, 1, fam)
    scale = np.linalg.norm(d1.submatrix()) * np.linalg.norm(d0.submatrix())
    assert rel(d1.submatrix() @ d0.submatrix(), scale) < 1e-12
    t2 = operator_T(pair, 2, 0, fam)
    t1 = operator_T(pair, 1, 0, fam)
    scale = np.linalg.norm(t1.submatrix()) * np.linalg.norm(t2.submatrix())
    assert rel(t1.submatrix() @ t2.submatrix(), scale) < 1e-12
    # commutation: T after D equals D after T
    td = operator_T(pair, 2, 1, fam).submatrix() @ d0.submatrix()
    dt = operator_D(pair, 1, 0, fam).submatrix() @ t2.submatrix()
    assert rel(td - dt, np.linalg.norm(td)) < 1e-12


def test_one_dimensional_trace_signs():
    pair = generate_mesh("interval", 3)
    fam = Family("trimmed", 1)
    t = operator_T(pair, 1, 0, fam)
    sp = t.domain
    x = np.zeros(sp.dim)
    (s,) = sp.strata
    x[s.offset + s.block:s.offset + 2 * s.block] = 1.0
    y = t.submatrix() @ x
    # the middle cell [1, 2] hits interior vertices 1 and 2 with opposite signs
    assert y[1] * y[2] < 0


def test_derivative_squares_to_zero_graded(catalog):
    pair = catalog("annulus")
    fam = Family("trimmed", 1)
    sp = broken_space(pair, 2, 0, fam)
    d0 = derivative_operator(sp)
    d1 = derivative_operator(d0.codomain)
    scale = np.linalg.norm(d1.submatrix()) * np.linalg.norm(d0.submatrix())
    assert rel(d1.submatrix() @ d0.submatrix(), scale) < 1e-12


def test_kernel_space_dims(catalog):
    fam = Family("trimmed", 1)
    empty = catalog("square_grid")
    full = catalog("square_grid", 1, "full")
    # single-valued vertex functions vanish where trace rows exist
    assert kernel_space(empty, 2, 0, fam, "vertical").dim == 0
    assert kernel_space(full, 2, 0, fam, "vertical").dim == 4
    # cellwise constants
    assert kernel_space(empty, 2, 0, fam, "horizontal").dim == 2
    # vertices have no trace: no complex asks for ker T there
    with pytest.raises(AssemblyError, match="trace operator needs m >= 1"):
        kernel_space(empty, 0, 0, fam, "vertical")


def test_kernel_space_is_exact_kernel(catalog):
    pair = catalog("annulus")
    fam = Family("trimmed", 1)
    for which, build in (("vertical", operator_T), ("horizontal", operator_D)):
        sub = kernel_space(pair, 2, 1, fam, which)
        op = build(pair, 2, 1, fam)
        triplets, free = exact.kernel(op.integer_rows(), op.domain.dim)
        assert sub.dim and all(map(np.array_equal, sub.triplets, triplets))
        assert np.array_equal(sub.free, free)
        assert sub.basis is None
        rows, cols, vals = op.triplets
        image = np.zeros((op.codomain.dim, sub.dim), dtype=np.int64)
        np.add.at(image, rows, vals[:, None] * dense_basis(sub)[cols])
        assert not np.any(image)


def kernel_strata(pair, every):
    """(m, k, which) of every kernel subspace of a pair, or of those its
    graded complexes use: ker T on top, ker D of vertex forms."""
    n = pair.top_dim
    if not every:
        return [(n, k, "vertical") for k in range(n)] + \
            [(m, 0, "horizontal") for m in range(1, n + 1)]
    return [(m, k, which) for which in ("vertical", "horizontal")
            for m in range(which == "vertical", n + 1) for k in range(m + 1)]


@pytest.mark.parametrize("family", [Family(kind, r)
                                    for kind in ("trimmed", "full")
                                    for r in (1, 2, 3)], ids=lambda f: f.label)
@pytest.mark.parametrize("name", ["annulus", "cube_tet", "solid_ring"])
def test_kernel_gram_matches_dense_reference(catalog, name, family):
    """The element-assembled Gram of a kernel subspace equals the dense
    Z^T G Z of its dense integer basis and the ambient's dense Gram, to
    1e-13 relative: every kernel subspace on annulus and cube_tet, the
    complexes' kernels on solid_ring.  Some bases are no gluing matrix:
    rows with many nonzeros, entries other than +-1."""
    widest = largest = 0
    for mark in ("none", "full", "half"):
        pair = catalog(name, 1, mark)
        for m, k, which in kernel_strata(pair, name != "solid_ring"):
            sub = kernel_space(pair, m, k, family, which)
            Z = dense_basis(sub).astype(float)
            ref = Z.T @ sub.ambient.gram @ Z
            assert sub.gram.shape == ref.shape == (sub.dim, sub.dim)
            assert np.linalg.norm(sub.gram - ref) <= \
                1e-13 * np.linalg.norm(ref), (mark, m, k, which)
            widest = max(widest, np.count_nonzero(Z, axis=1).max(initial=0))
            largest = max(largest, np.abs(Z).max(initial=0))
    if (name, family.label) == ("annulus", "full(r=2)"):
        assert widest >= 38
    if (name, family.label) == ("cube_tet", "trimmed(r=3)"):
        assert largest >= 10


def test_kernel_gram_in_small_slices(catalog, monkeypatch):
    """The kernel Gram taken a few entry pairs at a time equals the one
    taken at once, on a basis with dense rows."""
    pair = catalog("annulus", 1, "none")
    family = Family("full", 2)
    whole = kernel_space(pair, 1, 0, family, "vertical").gram
    monkeypatch.setattr(assembly, "_GRAM_PAIRS", 5)
    sliced = kernel_space(pair, 1, 0, family, "vertical").gram
    assert np.linalg.norm(sliced - whole) <= 1e-13 * np.linalg.norm(whole)


# A cold solve under the marking that sets the peak memory of the
# benchmark's solve-3d-r2 workload.
COLD_SOLVE = ["solve", "--mesh", "catalog:solid_ring:1", "--mark", "full",
              "--family", "trimmed", "--degree", "2", "--format",
              "structured"]


def clear_tables():
    """Empty the element-table caches, so the next run starts cold."""
    for value in vars(polyforms).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_cold_solve_forms_no_dense_kernel_basis():
    """A cold solve on fully marked solid_ring:1, trimmed r=2, binds no
    integer array of a kernel basis's (ambient x dim) shape: none is a
    local of a package frame when it returns, nor an attribute of such a
    local."""
    pkg = str(pathlib.Path(ddforms.__file__).parent)
    seen = set()

    def note(value):
        if isinstance(value, np.ndarray) and value.ndim == 2 \
                and value.dtype.kind in "iuO":
            seen.add(value.shape)

    def profile(frame, event, _arg):
        if event == "return" and frame.f_code.co_filename.startswith(pkg):
            for value in list(frame.f_locals.values()):
                note(value)
                if type(value).__module__.startswith("ddforms."):
                    for attr in list(getattr(value, "__dict__", {}).values()):
                        note(attr)

    clear_tables()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert main(COLD_SOLVE, out=io.StringIO()) == 0
    finally:
        sys.setprofile(previous)
    cx = distrib.conforming_complex(generate_mesh("solid_ring", 1, "full"),
                                    Family("trimmed", 2))
    shapes = {(sp.ambient.dim, sp.dim) for sp in cx.spaces
              if isinstance(sp, Subspace)}
    assert (960, 480) in shapes and seen
    assert not shapes & seen


def reachable(root):
    """Every ddforms object reached from root through containers and
    instance attributes."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("ddforms."):
            found.append(obj)
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


def test_cold_solve_keeps_no_dense_operator_or_gram(monkeypatch):
    """After a cold solve on fully marked solid_ring:1, trimmed r=2, no
    operator reached from the pair's cache holds a dense copy of itself,
    and no kernel subspace holds its Gram: a space keeps its metric only
    as its whitening."""
    pairs = []
    resolve = cli.resolve_mesh

    def kept(*args):
        pairs.append(resolve(*args))
        return pairs[-1]

    monkeypatch.setattr(cli, "resolve_mesh", kept)
    clear_tables()
    assert main(COLD_SOLVE, out=io.StringIO()) == 0
    objects = reachable(pairs[0]._cache)
    ops = [o for o in objects if isinstance(o, LinearOp)]
    kernels = [o for o in objects
               if isinstance(o, Subspace) and o.triplets is not None]
    assert ops and any("whitening" in vars(k) for k in kernels)
    assert 480 in {k.dim for k in kernels}
    for op in ops:
        assert not any(isinstance(v, np.ndarray) and v.shape ==
                       (op.codomain.dim, op.domain.dim)
                       for v in vars(op).values()), op
    for sub in kernels:
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2
                       for v in vars(sub).values()), sub


# The traced-memory bound of the cold solve above: it reads 24.0 MiB
# where each kernel subspace also stores its dense Gram and each
# differential a dense copy, 16.8 MiB where only the dense inverse of
# each factor is kept, 13.6 MiB where a factor keeps no inverse of more
# than 128 rows, and 11.5 MiB where the dense factors, the harmonic S
# and the Laplace system's blocks are formed in place; the bound keeps
# a margin of about 15%.
SOLVE_BUDGET_MIB = 13.25


def test_cold_solve_memory_budget():
    """The cold solve's traced memory peak, over what is live when it
    starts, stays under SOLVE_BUDGET_MIB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        clear_tables()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(COLD_SOLVE, out=io.StringIO()) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < SOLVE_BUDGET_MIB * 2 ** 20, peak / 2 ** 20


def test_adjoint_identity(catalog):
    pair = catalog("square_grid")
    fam = Family("trimmed", 1)
    op = operator_D(pair, 2, 0, fam)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.domain.dim)
    y = rng.standard_normal(op.codomain.dim)
    lhs = (op.submatrix() @ x) @ op.codomain.gram @ y
    rhs = x @ op.domain.gram @ (dense_adjoint(op) @ y)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_graded_space_strata(catalog):
    # strata are kept in decreasing simplex dimension, given in any order
    pair = catalog("annulus")
    sp = BrokenSpace(pair, [(1, 0), (2, 1)], Family("trimmed", 1))
    assert [(s.m, s.k) for s in sp.strata] == [(2, 1), (1, 0)]


def test_invalid_stratum_rejected(catalog):
    pair = catalog("square_grid")
    with pytest.raises(AssemblyError):
        BrokenSpace(pair, [(1, 2)], Family("trimmed", 1))


def reference_fill(pair, family, op, m, k):
    """D or T on the (m, k) stratum, filled block by block from the float
    element tables with one orientation sign per (cell, facet)."""
    cells = pair.stratum(m)
    bs = family.space(m, k).size
    if op == "D":
        bt = family.space(m, k + 1).size
        A = np.zeros((bt * len(cells), bs * len(cells)))
        for i in range(len(cells)):
            A[i * bt:(i + 1) * bt, i * bs:(i + 1) * bs] = family.d_matrix(m, k)
        return A
    faces = {s.vertices: i for i, s in enumerate(pair.stratum(m - 1))}
    bt = family.space(m - 1, k).size
    A = np.zeros((bt * len(faces), bs * len(cells)))
    for i, c in enumerate(cells):
        for j in range(m + 1):
            fverts = c.vertices[:j] + c.vertices[j + 1:]
            fi = faces.get(fverts)
            if fi is None:
                continue
            sign = orientation_sign(pair.simplex(fverts), c)
            A[fi * bt:(fi + 1) * bt, i * bs:(i + 1) * bs] += \
                sign * family.trace_matrix(m, k)[j]
    return A


FAMILIES = [Family("trimmed", 1), Family("trimmed", 2), Family("full", 2)]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
@pytest.mark.parametrize("name", ["annulus", "cube_tet", "solid_ring"])
def test_triplet_operators_and_exact_kernels(catalog, name, family):
    for mark in ("none", "full", "half"):
        pair = catalog(name, 1, mark)
        n = pair.top_dim
        ops = [("D", m, k) for m in range(n + 1) for k in range(m)]
        ops += [("T", m, k) for m in range(1, n + 1) for k in range(m)]
        for op, m, k in ops:
            build = operator_D if op == "D" else operator_T
            A = build(pair, m, k, family)
            ref = reference_fill(pair, family, op, m, k)
            assert np.abs(A.submatrix() - ref).max(initial=0.0) <= 1e-12
            triplets, free = exact.kernel(A.integer_rows(), A.domain.dim)
            K = dense(triplets, (A.domain.dim, len(free)))
            rows, cols, vals = A.triplets
            AK = np.zeros((A.codomain.dim, K.shape[1]), dtype=np.int64)
            np.add.at(AK, rows, vals[:, None] * K[cols])
            assert not np.any(AK)
            N = svd_null(A.submatrix())[0]
            assert K.shape == N.shape
            Q = np.linalg.qr(K.astype(float))[0]
            assert np.abs(Q @ Q.T - N @ N.T).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("table", ["d_matrix", "trace_matrix"])
def test_non_integral_element_table_raises(monkeypatch, table):
    """A target space whose basis is twice the Whitney basis (its
    generators' terms and coefficient columns doubled) gives the table
    half-integral coordinates, which the exact lift refuses."""
    target = (2, 1) if table == "d_matrix" else (1, 0)
    space = polyforms._family_space

    def doubled(kind, r, m, k):
        src = space(kind, r, m, k)
        if (m, k) != target:
            return src
        return ElementSpace(m, k, src.frame_degree, 2 * src.matrix,
                            src.generators,
                            [{key: 2 * c for key, c in terms.items()}
                             for terms in src.terms])

    monkeypatch.setattr(polyforms, "_family_space", doubled)
    pair = generate_mesh("square_grid", 1)
    build = operator_D if table == "d_matrix" else operator_T
    polyforms._d_matrix.cache_clear()
    polyforms._trace_matrix.cache_clear()
    try:
        with pytest.raises(FamilyError, match="not closed"):
            build(pair, 2, 0, Family("trimmed", 1))
    finally:
        polyforms._d_matrix.cache_clear()
        polyforms._trace_matrix.cache_clear()


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 528])
def test_tril_solve_by_halves(n):
    """A dense factor applies L^-1 and L^-T by halves, above the 128-row
    leaf and at it: both equal np.linalg.solve to roundoff on a vector and
    on a column-major matrix, leave the input as it was, and keep no
    inverse wider than the leaf beside L."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    L = (a @ a.T + n * np.eye(n))[None]
    leaves = _cholesky(L)
    assert leaves.shape[:2] == (1, n) and leaves.shape[2] <= 128
    if n <= 128:
        assert np.abs(leaves[0] @ L[0] - np.eye(n)).max() <= 1e-13
    factor = GramFactor([(0, L, leaves)])
    for x in (rng.standard_normal(n),
              np.asfortranarray(rng.standard_normal((n, 5)))):
        before = x.copy()
        for got, F in ((factor.solve_l(x), L[0]),
                       (factor.solve_lt(x), L[0].T)):
            want = np.linalg.solve(F, x)
            assert got.shape == x.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(x, before)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 528])
def test_factor_and_products_by_halves(n):
    """The in-place Cholesky by halves equals np.linalg.cholesky, on a
    contiguous Gram and on a view into a larger array, zeroing the upper
    triangle and leaving the array around the view alone; and L, L^T,
    L^-1 and L^-T applied in place to a contiguous matrix, a vector and a
    column block of a larger matrix equal the dense products and solves,
    leaving the other columns alone."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    gram = a @ a.T + n * np.eye(n)
    want = np.linalg.cholesky(gram)
    outer = rng.standard_normal((n + 3, n + 5))
    inside = np.zeros(outer.shape, bool)
    inside[2:2 + n, 3:3 + n] = True
    for G in (gram[None].copy(), outer[None, 2:2 + n, 3:3 + n]):
        G[0] = gram
        around = outer[~inside]
        leaves = _cholesky(G)
        assert np.abs(G[0] - want).max() <= 1e-13 * np.abs(want).max()
        assert not np.triu(G[0], 1).any()
        assert leaves.shape[:2] == (1, n) and leaves.shape[2] <= 128
        assert np.array_equal(outer[~inside], around)
    factor = GramFactor([(0, G, leaves)])
    L = G[0]
    others = [0, 1, 6, 7, 8]
    for apply, dense_op in ((factor.mul_l, lambda x: L @ x),
                            (factor.mul_lt, lambda x: L.T @ x),
                            (factor.solve_l, lambda x: np.linalg.solve(L, x)),
                            (factor.solve_lt,
                             lambda x: np.linalg.solve(L.T, x))):
        block = rng.standard_normal((n, 9))
        rest = block[:, others]
        for y in (rng.standard_normal((n, 4)), rng.standard_normal(n),
                  block[:, 2:6]):
            wanted = dense_op(y)
            assert apply(y, out=y) is y
            assert np.abs(y - wanted).max() <= 1e-12 * np.abs(wanted).max()
        assert np.array_equal(block[:, others], rest)


def test_export_matrix_format(tmp_path):
    # a 3 x 2 operator whose triplets are not in row order
    op = LinearOp(SimpleNamespace(dim=2), SimpleNamespace(dim=3),
                  (np.array([1, 0]), np.array([1, 0]), np.array([-2, 3])))
    path = tmp_path / "op.txt"
    export_matrix(op, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split() == ["3", "2", "2"]
    assert lines[1:] == ["0 0 3", "1 1 -2"]
