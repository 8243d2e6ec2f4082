"""Property-based checks on random marked sub-grids of the square grid,
their orientations, and the exact integer solve of the element layer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ddforms import distrib, exact
from ddforms.hilbert import harmonic_space, laplace_solve
from ddforms.mesh import (RelativePair, Simplex, _kuhn_cells,
                          betti_numbers, build_complex,
                          check_local_patch_condition, facet_incidence)
from ddforms.polyforms import Family, FamilyError, _solve

from reference import (dense_laplacian, kernel_lift, open_star_report,
                       orientation_sign, regularizer_R, regularizer_S,
                       stratum_slice)

JITTER = st.floats(-0.15, 0.15)


@st.composite
def marked_subgrids(draw):
    """A jittered triangulation of some unit squares of a grid of at most
    4 x 4 squares (holes and disconnected pieces allowed), with a random
    set of its boundary facets marked."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    squares = [(i, j) for i in range(w) for j in range(h)]
    holes = draw(st.sets(st.sampled_from(squares),
                         max_size=len(squares) - 1))
    cells, coords = _kuhn_cells([s for s in squares if s not in holes])
    shifts = draw(st.lists(st.tuples(JITTER, JITTER), min_size=len(coords),
                           max_size=len(coords)))
    coords = [(x + a, y + b) for (x, y), (a, b) in zip(coords, shifts)]
    facets = build_complex(cells, coords).boundary_facets()
    marked = [f.vertices for f in facets if draw(st.booleans())]
    return build_complex(cells, coords, marked)


DRAWN = settings(max_examples=40, derandomize=True, deadline=None,
                 database=None,
                 suppress_health_check=[HealthCheck.filter_too_much,
                                        HealthCheck.too_slow])


@st.composite
def jittered_blocks(draw):
    """Some unit cubes of a 2 x 2 x 2 block, Kuhn-triangulated, with
    jittered vertices."""
    cubes = draw(st.sets(st.tuples(*[st.integers(0, 1)] * 3), min_size=1))
    cells, coords = _kuhn_cells(sorted(cubes))
    shifts = draw(st.lists(st.tuples(*[st.floats(-0.1, 0.1)] * 3),
                           min_size=len(coords), max_size=len(coords)))
    return cells, [tuple(x + a for x, a in zip(p, d))
                   for p, d in zip(coords, shifts)]


@DRAWN
@given(st.one_of(marked_subgrids().map(lambda pair: (
    [s.vertices for s in pair.simplices(2)], pair.coords)),
    jittered_blocks()))
def test_batched_orientations_equal_per_cell_signs(mesh):
    """The signs ``build_complex`` takes from one determinant over the
    stack of cells are those of each cell's own determinant."""
    cells, coords = mesh
    pair = build_complex(cells, coords)
    for s in pair.simplices(pair.top_dim):
        p0, *rest = (coords[v] for v in s.vertices)
        edges = np.array([[x - x0 for x, x0 in zip(p, p0)] for p in rest])
        assert s.sign == np.sign(np.linalg.det(edges))


@DRAWN
@given(marked_subgrids())
def test_patch_condition_matches_open_star_reference(pair):
    """The patch report, every per-simplex Betti vector included, is that
    of ranking each open star on its own, on drawn meshes and markings."""
    assert check_local_patch_condition(pair) == open_star_report(pair)


@DRAWN
@given(marked_subgrids(), st.randoms(use_true_random=False))
def test_flipped_orientations(pair, rng):
    """Flipping the orientation signs of random simplices, vertices and
    edges included, in a pair built directly: the incidence signs are the
    reference's from explicit vertex orderings, the total complex still
    squares to zero exactly, and the Betti numbers and the patch report
    do not change."""
    flipped = RelativePair(pair.coords, [
        Simplex(s.vertices, -s.sign if rng.random() < 0.5 else s.sign)
        for s in pair.all_simplices()], pair.marked)
    for m in range(1, pair.top_dim + 1):
        cells, facets = flipped.stratum(m), flipped.stratum(m - 1)
        cell, facet, _j, sign = facet_incidence(flipped, m).tolist()
        assert sign == [orientation_sign(facets[f], cells[c])
                        for c, f in zip(cell, facet)]
    distrib.total_complex(flipped, Family("trimmed", 1))
    assert betti_numbers(flipped) == betti_numbers(pair)
    assert check_local_patch_condition(flipped) == \
        check_local_patch_condition(pair)


@DRAWN
@given(marked_subgrids())
def test_harmonic_dimensions_match_betti(pair):
    fam = Family("trimmed", 1)
    assume(distrib.check_conditions(pair, fam)["passed"])
    betti = betti_numbers(pair)
    n = pair.top_dim
    for k in range(n + 1):
        for cx in (distrib.conforming_complex(pair, fam),
                   distrib.chainlike_complex(pair, fam)):
            assert harmonic_space(cx, k).dim == betti[n - k]
        assert distrib.verify_chain(pair, fam, k)["passed"]


@DRAWN
@given(marked_subgrids())
def test_regularizers_on_cocycles(pair):
    """Criterion 6 on drawn meshes: R and S, applied to random cocycles
    (exact forms plus harmonic ones), zero the deepest graded component
    and leave the derivative unchanged."""
    fam = Family("trimmed", 1)
    assume(distrib.check_conditions(pair, fam)["passed"])
    rng = np.random.default_rng(6)
    n = pair.top_dim
    jobs = [(regularizer_R, k, b, distrib.redirected_lambda(
                pair, fam, k - b + 1), k, n - b + 1)
            for k, b in [(1, 2), (2, 2), (2, 3)]]
    jobs += [(regularizer_S, m, b, distrib.redirected_gamma(
                 pair, fam, m + b - 1), n - m, m + b - 1)
             for m, b in [(1, 2), (0, 2), (0, 3)]]
    for regularizer, index, b, cx, pos, deep in jobs:
        d_prev = cx.diffs[pos - 1].submatrix()
        h = harmonic_space(cx, pos)
        z = d_prev @ rng.standard_normal((d_prev.shape[1], 3))
        z += h.basis @ rng.standard_normal((h.dim, 3))
        out = regularizer(pair, fam, index, b, z)
        scale = max(np.linalg.norm(z), 1.0)
        deep_rows = out[stratum_slice(cx.spaces[pos], deep)]
        assert np.linalg.norm(deep_rows) <= 1e-10 * scale
        if pos < len(cx.diffs):
            d_next = cx.diffs[pos].submatrix()
            assert np.linalg.norm(d_next @ (out - z)) <= 1e-10 * scale


def test_laplace_solve_on_drawn_subgrids():
    """The Laplace solve on the conforming complex of drawn sub-grids, with
    the bounds of the catalog solve test: the Gram-norm residual against
    f - p and the harmonic overlap of u.  Holes and disconnected or fully
    marked pieces give harmonic spaces of dimension 2 and more, which no
    catalog mesh has; at least one drawn case must reach one."""
    widest = []

    @DRAWN
    @given(marked_subgrids())
    def solve(pair):
        cx = distrib.conforming_complex(pair, Family("trimmed", 1))
        rng = np.random.default_rng(10)
        for i in range(len(cx)):
            dim = cx.spaces[i].dim
            if dim == 0:
                continue
            gram = cx.spaces[i].gram
            f = rng.standard_normal(dim)
            u, p = laplace_solve(cx, i, f)
            res = dense_laplacian(cx, i) @ u - (f - p)
            rhs = f - p
            assert np.sqrt(res @ gram @ res) < \
                1e-10 * np.sqrt(rhs @ gram @ rhs)
            h = harmonic_space(cx, i)
            u_norm = np.sqrt(u @ gram @ u)
            assert np.linalg.norm(h.basis.T @ gram @ u) < \
                1e-12 * max(u_norm, 1)
            widest.append(h.dim)

    solve()
    assert max(widest) >= 2


SMALL = st.integers(-3, 3)


@st.composite
def injective_lifts(draw):
    """An integer A of full column rank and an integer X, as int64."""
    n = draw(st.integers(0, 4))
    rows = draw(st.integers(n, 6))
    A = np.array(draw(st.lists(st.lists(SMALL, min_size=n, max_size=n),
                               min_size=rows, max_size=rows)),
                 dtype=np.int64).reshape(rows, n)
    assume(exact.rank(exact.dense_rows(A)) == n)
    nb = draw(st.integers(0, 3))
    X = np.array(draw(st.lists(st.lists(SMALL, min_size=nb, max_size=nb),
                               min_size=n, max_size=n)),
                 dtype=np.int64).reshape(n, nb)
    return A, X


@DRAWN
@given(injective_lifts())
def test_solve_recovers_integer_solution(ax):
    A, X = ax
    got = _solve(A, A @ X, FamilyError, "drawn")
    assert got.dtype == np.int64
    assert np.array_equal(got, X)


@DRAWN
@given(injective_lifts(), st.lists(SMALL, min_size=6, max_size=6))
def test_solve_refuses_column_outside_range(ax, col):
    A, X = ax
    b = np.array(col[:len(A)], dtype=np.int64)[:, None]
    assume(exact.rank(exact.dense_rows(np.hstack([A, b]))) > A.shape[1])
    with pytest.raises(FamilyError, match="drawn"):
        _solve(A, np.hstack([A @ X, b]), FamilyError, "drawn")


@DRAWN
@given(injective_lifts())
def test_solve_refuses_half_integral_solution(ax):
    A, X = ax
    assume(np.any(X % 2))
    with pytest.raises(FamilyError, match="drawn"):
        _solve(2 * A, A @ X, FamilyError, "drawn")


@DRAWN
@given(injective_lifts(), st.data())
def test_solve_with_dependent_columns(ax, data):
    """A = [A0 | A0 P] has the pivot columns of A0 and dependent ones
    after them: the solution of A X = A Y is zero off the pivot columns
    and is the one read off the exact kernel of [A | -B]."""
    A0, _X = ax
    n = A0.shape[1]
    assume(n)
    extra = data.draw(st.integers(1, 3))
    P = np.array(data.draw(st.lists(SMALL, min_size=n * extra,
                                    max_size=n * extra)),
                 dtype=np.int64).reshape(n, extra)
    Y = np.array(data.draw(st.lists(SMALL, min_size=(n + extra) * 2,
                                    max_size=(n + extra) * 2)),
                 dtype=np.int64).reshape(n + extra, 2)
    A = np.hstack([A0, A0 @ P])
    got = _solve(A, A @ Y, FamilyError, "drawn")
    assert got.dtype == np.int64
    assert not got[n:].any()
    assert np.array_equal(A @ got, A @ Y)
    assert np.array_equal(got, kernel_lift(A, A @ Y, FamilyError, "drawn"))
