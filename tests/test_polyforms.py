import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
import sympy

from ddforms import exact, polyforms
from ddforms.assembly import broken_space
from ddforms.cli import main
from ddforms.mesh import build_complex, generate_mesh
from ddforms.polyforms import (Family, FamilyError, FormError,
                               SimplexGeometry, check_geometric_decomposition,
                               check_local_exactness, simplex_metrics)

from reference import (BarycentricForm, bubble_space, bubble_table,
                       coeff_matrix, d_table, decomposition_entry,
                       extension_table, family_forms, from_coefficients,
                       generator_table, geometry, instantiate, is_zero, minus,
                       monomial_times, reference_tensor, star, star_inverse,
                       stokes_residual, trace, trace_tables, trimmed_dimension,
                       vol_coeff, whitney_form)

REF_TRI = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
REF_TET = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
           (0.0, 0.0, 1.0)]


def random_form(rng, m, k, terms=3):
    f = BarycentricForm(m, k)
    for _ in range(terms):
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=m + 1))
        idx = tuple(sorted(rng.choice(m + 1, size=k, replace=False)))
        f = f + BarycentricForm.monomial(m, alpha, idx,
                                         float(rng.standard_normal()))
    return f


def random_geometry(rng, m):
    while True:
        pts = rng.standard_normal((m + 1, m))
        try:
            return SimplexGeometry(pts)
        except Exception:
            continue


def test_derivative_squares_to_zero():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        for k in range(m):
            f = random_form(rng, m, k)
            dd = f.derivative().derivative()
            assert is_zero(dd, tol=1e-12)


def test_whitney_edge_derivative():
    # the edge form on (1,2) of a triangle has constant derivative
    w = whitney_form(2, (1, 2))
    expected = BarycentricForm.monomial(2, (0, 0, 0), (1, 2), 2.0)
    assert is_zero(minus(w.derivative(), expected), tol=1e-12)


def test_monomial_integration_against_sympy():
    geo = SimplexGeometry(REF_TRI)
    x, y = sympy.symbols("x y")
    lams = (1 - x - y, x, y)
    rng = np.random.default_rng(1)
    for _ in range(10):
        alpha = tuple(int(a) for a in rng.integers(0, 4, size=3))
        expr = lams[0] ** alpha[0] * lams[1] ** alpha[1] * lams[2] ** alpha[2]
        exact = sympy.integrate(sympy.integrate(expr, (y, 0, 1 - x)),
                                (x, 0, 1))
        assert abs(geo.integrate_monomial(alpha) - float(exact)) < 1e-14


def test_inner_product_orthogonality():
    geo = SimplexGeometry(REF_TRI)
    d1 = BarycentricForm.monomial(2, (0, 0, 0), (1,))
    d2 = BarycentricForm.monomial(2, (0, 0, 0), (2,))
    assert abs(geo.inner_product(d1, d2)) < 1e-15
    assert abs(geo.inner_product(d1, d1) - 0.5) < 1e-15


def test_star_round_trip():
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        geo = random_geometry(rng, m)
        for k in range(m + 1):
            f = random_form(rng, m, k)
            back = star_inverse(geo, star(geo, f))
            assert is_zero(minus(back, f), tol=1e-9)


def test_star_of_one_is_volume_form():
    geo = SimplexGeometry(REF_TET)
    one = BarycentricForm.monomial(3, (0, 0, 0, 0))
    vol = star(geo, one)
    diff = minus(vol, BarycentricForm.monomial(3, (0, 0, 0, 0), (1, 2, 3),
                                               vol_coeff(geo)))
    assert is_zero(diff, tol=1e-12)


def test_stokes_identity_random():
    rng = np.random.default_rng(3)
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(10):
            geo = random_geometry(rng, m)
            k = int(rng.integers(0, m))
            w = random_form(rng, m, k)
            e = random_form(rng, m, k + 1)
            scale = max(1.0, math.sqrt(geo.inner_product(w, w))
                        * math.sqrt(geo.inner_product(e, e)))
            worst = max(worst, stokes_residual(w, e, geo) / scale)
    assert worst < 1e-10


def test_trimmed_dimension_formula():
    for r in (1, 2, 3):
        for m in (1, 2, 3):
            for k in range(m + 1):
                space = Family("trimmed", r).space(m, k)
                assert space.dim == m and space.size == trimmed_dimension(m, k, r)


def test_whitney_space_sizes():
    fam = Family("trimmed", 1)
    assert fam.space(2, 0).size == 3
    assert fam.space(2, 1).size == 3
    assert fam.space(2, 2).size == 1
    assert fam.space(3, 1).size == 6
    assert fam.space(3, 2).size == 4


def test_full_family_closed_under_derivative():
    for m in (1, 2):
        for k in range(m):
            space = family_forms("full", 2, m, k)
            target = family_forms("full", 2, m, k + 1)
            for i in range(space.size):
                coeffs = np.zeros(space.size)
                coeffs[i] = 1.0
                df = from_coefficients(space, coeffs).derivative()
                target.coefficients(df)


def test_local_exactness():
    for fam in (Family("trimmed", 1), Family("trimmed", 2), Family("full", 2)):
        for m in (1, 2, 3):
            rep = check_local_exactness(fam, m)
            assert rep["passed"], (fam.label, m, rep)


def test_geometric_decomposition(catalog):
    pair = catalog("square_grid")
    for fam in (Family("trimmed", 1), Family("trimmed", 2)):
        for k in range(3):
            rep = check_geometric_decomposition(pair, fam, k)
            assert rep["passed"], (fam.label, k)


def decomposes(kind, r, m, k):
    """The theory's verdict on the decomposition of the k-forms of a
    family on an m-simplex (Arnold, Falk and Winther, CMAME 198, 2009):
    every trimmed space decomposes, and the full space P_(r-k) of k-forms
    fails only at k = r on m > r, where the constant top-degree bubbles of
    the r-faces have no extension."""
    return not (kind == "full" and k == r and m > r)


def test_full_family_decomposition():
    """The decomposition verdict of every simplex dimension is the
    theory's, identities included, so on a mesh of dimension n the full
    family decomposes in every degree exactly when r >= n."""
    for name in ("triangle", "square_grid", "tetrahedron", "cube_tet"):
        pair = generate_mesh(name)
        n = pair.top_dim
        for r in range(1, n + 2):
            passed = []
            for k in range(n + 1):
                rep = check_geometric_decomposition(pair, Family("full", r), k)
                for m, entry in rep["dims"].items():
                    assert entry["ok"] == decomposes("full", r, m, k), \
                        (name, r, k, m, entry)
                    if entry["ok"]:
                        assert entry["identities"]
                    else:
                        assert "no full-support generators" in entry["reason"]
                passed.append(rep["passed"])
            assert all(passed) == (r >= n), (name, r)


def reported(entry, family, m, k):
    """A decomposition entry, or the failed entry check_geometric_decomposition
    makes of the error it raises."""
    try:
        return entry(family, m, k)
    except (FamilyError, FormError) as exc:
        return {"ok": False, "reason": str(exc)}


@pytest.mark.parametrize("kind", ["trimmed", "full"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_decomposition_matches_symbolic_reference(kind, r):
    """The integer tables give the report the symbolic extensions and
    their traces give, failures and reasons included, and its verdict is
    the theory's."""
    family = Family(kind, r)
    for m in range(4):
        for k in range(m + 1):
            entry = reported(polyforms._decomposition_entry, family, m, k)
            assert entry == reported(decomposition_entry, family, m, k), \
                (kind, r, m, k)
            assert entry["ok"] == decomposes(kind, r, m, k), (kind, r, m, k)


@pytest.fixture
def fresh_tables():
    """Cold element tables before and after a test that patches one, so
    that no table built from a patched one outlives it."""

    def clear():
        for value in vars(polyforms).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    yield
    clear()


def flipped(monkeypatch, name, key, entry):
    """Patch the polyforms table function name so that, at the arguments
    key, it returns a copy of its table with entry raised by one."""
    table = getattr(polyforms, name)

    def patched(*args):
        out = table(*args)
        if args == key:
            out = out.copy()
            out[entry] += 1
        return out

    monkeypatch.setattr(polyforms, name, patched)


@pytest.mark.parametrize("name,key,entry", [
    # the trace onto the edge (0, 1) of a triangle reads vertex 2
    ("_face_trace", ("trimmed", 1, 2, 0, (0, 1)), (0, 2)),
    # the extension of vertex 0 into a triangle gains lambda_1
    ("_extension_coords", ("trimmed", 1, 0, 0, 2), (1, 0)),
])
def test_flipped_table_fails_the_identities(monkeypatch, fresh_tables, name,
                                            key, entry):
    """One entry flipped in a copy of a trace table or of the extension
    coordinates breaks an identity: the decomposition and ``check``
    fail."""
    flipped(monkeypatch, name, key, entry)
    pair = generate_mesh("square_grid", 1)
    rep = check_geometric_decomposition(pair, Family("trimmed", 1), 0)
    assert rep["dims"][2]["identities"] is False
    assert rep["dims"][1]["identities"] is True
    assert not rep["passed"]
    out = io.StringIO()
    assert main(["check", "--mesh", "catalog:square_grid", "--family",
                 "trimmed", "--degree", "1", "--format", "structured"],
                out=out) == 1
    report = json.loads(out.getvalue())["report"]
    assert report["decomposition"]["0"] is False
    assert not report["passed"]


def test_every_float_decomposition_is_rank_split(monkeypatch):
    """A chain, a solve and a check, each with cold element tables, take
    every SVD in one function, which both harmonic-transfer verdicts read,
    and every QR inside the harmonic space; no SVD runs under the harmonic
    space, the Laplace solve or the structural conditions, and no pinv or
    lstsq runs at all."""
    callers = {"svd": set(), "qr": set()}
    svd_under = set()

    def traced(name):
        call = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            callers[name].add(frame.f_code.co_name)
            while name == "svd" and frame is not None:
                svd_under.add(frame.f_code.co_name)
                frame = frame.f_back
            return call(*args, **kwargs)

        return wrapper

    def refused(*args, **kwargs):
        raise AssertionError("a float decomposition outside the metric")

    for name in callers:
        monkeypatch.setattr(np.linalg, name, traced(name))
    monkeypatch.setattr(np.linalg, "pinv", refused)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    for argv in (["chain", "--mesh", "catalog:annulus", "--mark", "half"],
                 ["solve", "--mesh", "catalog:cube_tet", "--mark", "half",
                  "--degree", "2"],
                 ["check", "--mesh", "catalog:cube_tet", "--mark", "half",
                  "--degree", "2"]):
        for value in vars(polyforms).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        assert main(argv, out=io.StringIO()) == 0, argv
    assert callers == {"svd": {"_singular_values"}, "qr": {"harmonic_space"}}
    assert {"_bijection", "_defect"} <= svd_under
    assert not svd_under & {"harmonic_space", "laplace_solve",
                            "check_conditions"}


def test_trace_surjectivity():
    # the trace onto a facet hits the facet's whole element space
    for fam in (Family("trimmed", 1), Family("trimmed", 2)):
        for m in (1, 2, 3):
            for k in range(m):
                table = fam.trace_matrix(m, k)[0]
                assert table.dtype == np.int64
                assert exact.rank(exact.dense_rows(table)) == \
                    fam.space(m - 1, k).size


@pytest.mark.parametrize("kind", ["trimmed", "full"])
@pytest.mark.parametrize("r", [1, 2])
def test_negative_simplex_dimension_is_unsupported(kind, r):
    """A family space on a simplex of negative dimension, asked for
    directly or as the facet space of a vertex's traces, raises
    FamilyError."""
    fam = Family(kind, r)
    with pytest.raises(FamilyError, match="dimension -1"):
        fam.space(-1, 0)
    with pytest.raises(FamilyError, match="dimension -1"):
        fam.trace_matrix(0, 0)


def test_element_space_membership_rejects_outside():
    space = family_forms("trimmed", 1, 2, 1)
    quad = BarycentricForm.monomial(2, (2, 0, 0), (1,))
    with pytest.raises((FamilyError, FormError)):
        space.coefficients(quad)


def test_geometry_orientation_from_mesh(catalog):
    pair = catalog("annulus")
    for cell in pair.simplices(2):
        geo = geometry(pair, cell)
        assert geo.volume > 0


def test_build_element_space_bubble_traces_vanish():
    bubble, _coeffs = bubble_space("trimmed", 2, 2, 1)
    for i in range(bubble.size):
        coeffs = np.zeros(bubble.size)
        coeffs[i] = 1.0
        f = from_coefficients(bubble, coeffs)
        for j in range(3):
            positions = tuple(p for p in range(3) if p != j)
            assert is_zero(trace(f, positions), tol=1e-9)


def pairwise_gram(forms, geo):
    """The element Gram entry by entry from SimplexGeometry.inner_product."""
    n = forms.size
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            G[i, j] = geo.inner_product(forms.basis[i], forms.basis[j])
    return G


def random_points(rng, m, cells=2):
    """A stack of non-degenerate m-simplices in R^(m+1)."""
    out = []
    while len(out) < cells:
        pts = rng.standard_normal((m + 1, m + 1))
        edges = pts[1:] - pts[0]
        if m == 0 or np.linalg.cond(edges @ edges.T) < 1e4:
            out.append(pts)
    return np.array(out)


@pytest.mark.parametrize("kind,r", [("trimmed", 1), ("trimmed", 2),
                                    ("trimmed", 3), ("full", 1), ("full", 2)])
def test_reference_tensor_gram_matches_pairwise(kind, r):
    rng = np.random.default_rng(20 + r)
    fam = Family(kind, r)
    for m in range(4):
        pts = random_points(rng, m)
        volumes, grad_grams = simplex_metrics(pts)
        for k in range(m + 1):
            space = fam.space(m, k)
            forms = family_forms(kind, r, m, k)
            stack = space.gram(volumes, grad_grams)
            assert stack.shape == (len(pts), space.size, space.size)
            for c, cell in enumerate(pts):
                ref = pairwise_gram(forms, SimplexGeometry(cell))
                scale = max(np.abs(ref).max(initial=0.0), 1e-300)
                assert np.abs(stack[c] - ref).max(initial=0.0) <= 1e-12 * scale, \
                    (kind, r, m, k, c)


def test_reference_tensor_of_empty_space():
    """P_{r-k} with r < k is empty: its reference tensor is a zero-size
    tensor of rank four, not an einsum error."""
    space = Family("full", 2).space(3, 3)
    assert space.size == 0
    assert space.reference_tensor.shape == (1, 1, 0, 0)


def test_flat_simplex_in_stratum_raises():
    # two triangles in R^3, the second one flat (collinear vertices)
    coords = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (3, 0, 0)]
    pair = build_complex([(0, 1, 2), (1, 3, 4)], coords)
    with pytest.raises(FormError):
        broken_space(pair, 2, 1, Family("trimmed", 1)).gram
    with pytest.raises(FormError):
        simplex_metrics(np.array(coords, float)[[[0, 1, 2], [1, 3, 4]]])


def float_greedy_trimmed(m, k, r):
    """The trimmed basis as the float greedy loop chose it: a generator is
    kept unless one least-squares solve puts it within 1e-8 of the span of
    those kept before it.  Returns the kept generators (alpha, rho), their
    forms and their coefficient vectors."""
    frame = polyforms.reduced_frame(m, k, r)
    gens, basis, vectors = [], [], []
    for rho in itertools.combinations(range(m + 1), k + 1):
        w = whitney_form(m, rho)
        for alpha in sorted(polyforms._compositions(r - 1, m + 1)):
            gen = monomial_times(alpha, w)
            v = coeff_matrix([gen], frame)[:, 0]
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                continue
            if vectors:
                A = np.column_stack(vectors)
                sol, *_ = np.linalg.lstsq(A, v, rcond=None)
                if np.linalg.norm(A @ sol - v) < 1e-8 * nv:
                    continue
            gens.append((alpha, rho))
            basis.append(gen)
            vectors.append(v)
    return gens, basis, vectors


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_trimmed_basis_matches_float_greedy(r):
    """The trimmed basis keeps the generators the float greedy loop keeps:
    the same generators, the same terms and the same coefficient
    columns."""
    for m in range(4):
        for k in range(m + 1):
            space = polyforms._family_space("trimmed", r, m, k)
            gens, basis, vectors = float_greedy_trimmed(m, k, r)
            assert list(space.generators) == gens, (m, k, r)
            assert list(space.terms) == [f.terms for f in basis], (m, k, r)
            assert np.array_equal(space.matrix, np.column_stack(vectors))
            assert space.size == trimmed_dimension(m, k, r), (m, k, r)


@pytest.mark.parametrize("kind,r", [("trimmed", 1), ("trimmed", 2),
                                    ("trimmed", 3), ("full", 1), ("full", 2),
                                    ("full", 3)])
def test_bubble_bases_are_exact_trace_kernels(kind, r):
    for m in range(1, 4):
        for k in range(m):
            bubble, null = bubble_space(kind, r, m, k)
            src = polyforms._family_space(kind, r, m, k)
            assert np.issubdtype(null.dtype, np.integer)
            assert null.shape == (src.size, bubble.size)
            for j in range(m + 1):
                table = polyforms._trace_matrix(kind, r, m, k)[j]
                assert table.dtype == np.int64
                assert not np.any(table @ null), (kind, r, m, k, j)
            if null.size:
                assert np.linalg.matrix_rank(null) == bubble.size


def lstsq_extension(form, positions, mc, family):
    """One form's extension, from its coordinates in the bubble basis
    lifted over the full-support generators; from a simplex to itself,
    the form."""
    kind, r, k = family.kind, family.r, form.degree
    mf = len(positions) - 1
    if mf == mc:
        return form
    bubble, _ = bubble_space(kind, r, mf, k)
    gens, lift = polyforms._extension_lift(kind, r, mf, k)
    out = BarycentricForm(mc, k)
    for w, (alpha, idx) in zip(lift @ bubble.coefficients(form), gens):
        if abs(w) > 1e-14:
            out = out + instantiate(
                kind, alpha, idx, positions, mc) * float(w)
    return out


@pytest.mark.parametrize("kind,r", [("trimmed", 1), ("trimmed", 2),
                                    ("trimmed", 3), ("full", 1), ("full", 2),
                                    ("full", 3)])
def test_extension_table_matches_lstsq_extension(kind, r):
    """The extension coordinates, one column per face and bubble form,
    are those of the extensions lifted form by form.  Only the constant
    top-degree bubbles of the full family at k = r have no extension, into
    every larger simplex, as the theory says."""
    family = Family(kind, r)
    for mc in range(4):
        for mf in range(mc + 1):
            for k in range(mf + 1):
                bubble, _ = bubble_space(kind, r, mf, k)
                unextended = kind == "full" and k == r == mf < mc
                try:
                    table = polyforms._extension_coords(kind, r, mf, k, mc)
                except FamilyError:
                    assert unextended, (kind, r, mc, mf, k)
                    with pytest.raises(FamilyError):
                        lstsq_extension(bubble.basis[0], tuple(range(mf + 1)),
                                        mc, family)
                    continue
                assert not unextended, (kind, r, mc, mf, k)
                faces = list(itertools.combinations(range(mc + 1), mf + 1))
                space = family_forms(kind, r, mc, k)
                assert table.shape == (space.size, len(faces) * bubble.size)
                assert table.dtype == np.int64
                exts = iter(table.T)
                for positions in faces:
                    for f in bubble.basis:
                        ext = from_coefficients(space, next(exts))
                        ref = lstsq_extension(f, positions, mc, family)
                        diff = minus(ext, ref).reduced().values()
                        assert max(map(abs, diff), default=0.0) <= 1e-12, \
                            (kind, r, mc, mf, k, positions)


@pytest.mark.parametrize("kind", ["trimmed", "full"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_element_tables_are_exact_integer_lifts(kind, r):
    """Every d and trace table is int64 and maps the source basis to the
    coefficients of its images in the target basis, exactly."""
    for m in range(4):
        for k in range(m + 1):
            src = family_forms(kind, r, m, k)
            cases = [(polyforms._d_matrix(kind, r, m, k),
                      polyforms._family_space(kind, r, m, k + 1),
                      [f.derivative() for f in src.basis])]
            for j in range(m + 1 if m else 0):
                positions = tuple(i for i in range(m + 1) if i != j)
                cases.append((polyforms._trace_matrix(kind, r, m, k)[j],
                              polyforms._family_space(kind, r, m - 1, k),
                              [trace(f, positions) for f in src.basis]))
            for table, target, images in cases:
                assert table.dtype == np.int64
                assert np.array_equal(
                    target.matrix @ table,
                    coeff_matrix(images, target.frame)), \
                    (kind, r, m, k)


def assert_tables_match_form_algebra(kind, r, m):
    """Every element table of the family on an m-simplex equals the one
    the references' float form algebra reads off forms, bit for bit."""
    for k in range(m + 1):
        key = (kind, r, m, k)
        space = polyforms._family_space(*key)
        forms = family_forms(*key)
        table = polyforms._generator_table(*key)
        assert table.dtype == np.int64
        assert np.array_equal(table, generator_table(*key)), key
        assert np.array_equal(space.matrix, forms.matrix), key
        assert np.array_equal(polyforms._d_matrix(*key), d_table(*key)), key
        if m:
            assert np.array_equal(polyforms._trace_matrix(*key),
                                  trace_tables(*key)), key
        assert np.array_equal(polyforms._bubble_coeffs(*key),
                              bubble_table(*key)), key
        for mf in range(k, m + 1):
            try:
                ext = polyforms._extension_coords(kind, r, mf, k, m)
            except FamilyError:
                with pytest.raises(FamilyError):
                    extension_table(kind, r, mf, k, m)
                continue
            assert np.array_equal(ext, extension_table(kind, r, mf, k, m)), \
                (key, mf)
        assert np.array_equal(space.reference_tensor, reference_tensor(forms)), \
            key


@pytest.mark.parametrize("kind", ["trimmed", "full"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_integer_tables_match_form_algebra(fresh_tables, kind, r):
    """The tables built as integer maps on the reduced frame (generator
    tables, d and trace tables, bubble and extension coordinates and the
    Gram reference tensors) are those the float form algebra gives, on
    every simplex up to dimension 4."""
    for m in range(5):
        assert_tables_match_form_algebra(kind, r, m)


def test_non_integral_coefficient_raises():
    half = BarycentricForm.monomial(2, (1, 0, 0), (1,), 0.5)
    with pytest.raises(FormError, match="non-integral"):
        coeff_matrix([half], polyforms.reduced_frame(2, 1, 1))
