import itertools
import json
import math
import warnings

import numpy as np
import pytest

from ddforms import exact
from ddforms.mesh import (MeshError, Simplex, _kuhn_cells, betti_numbers,
                          build_complex, check_local_patch_condition,
                          generate_mesh, load_mesh_file, mark_pair,
                          save_mesh_file, skeleton_pair)

from reference import (boundary_matrix, open_star_report, orientation_sign,
                       patch_pair)

CATALOG = ("interval", "triangle", "tetrahedron", "square_grid", "annulus",
           "cube_tet", "solid_ring", "sphere_boundary")


def test_simplex_faces_and_dim():
    s = Simplex((0, 2, 5))
    assert s.dim == 2
    assert s.faces() == [(2, 5), (0, 5), (0, 2)]
    with pytest.raises(MeshError):
        Simplex((2, 0, 5))
    assert Simplex((0, 2)).sign == 1
    with pytest.raises(MeshError):
        Simplex((0, 2), 0)


def test_orientation_sign_alternates():
    cell = Simplex((0, 1, 2))
    assert orientation_sign(Simplex((1, 2)), cell) == 1
    assert orientation_sign(Simplex((0, 2)), cell) == -1
    assert orientation_sign(Simplex((0, 1)), cell) == 1


@pytest.mark.parametrize("dim", [2, 3])
def test_orientation_beyond_float_range(dim):
    """A cell whose orientation determinant overflows is turned, by the
    exact sign, as the same cell at unit scale is, with no warning."""
    unit = np.eye(dim + 1, dim, k=-1)
    for turn in (False, True):
        vertices = unit[[0, 2, 1] + list(range(3, dim + 1))] if turn else unit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [build_complex([list(range(dim + 1))], scale * vertices)
                     for scale in (1.0, 1e300)]
        cell = tuple(range(dim + 1))
        assert pairs[0].simplex(cell).sign == pairs[1].simplex(cell).sign \
            == (-1 if turn else 1), turn


def test_boundary_of_boundary_vanishes():
    pair = generate_mesh("annulus", 1)
    for m in range(2, pair.top_dim + 1):
        b1 = np.array(boundary_matrix(pair, m))
        b2 = np.array(boundary_matrix(pair, m - 1))
        assert not np.any(b2 @ b1)


def test_betti_ball_like():
    for name in ("interval", "triangle", "tetrahedron", "square_grid",
                 "cube_tet"):
        pair = generate_mesh(name)
        b = betti_numbers(pair)
        assert b[0] == 1 and not any(b[1:])


def test_betti_sphere():
    assert betti_numbers(generate_mesh("sphere_boundary", 1)) == [1, 1]
    assert betti_numbers(generate_mesh("sphere_boundary", 2)) == [1, 0, 1]
    assert betti_numbers(generate_mesh("sphere_boundary", 3)) == [1, 0, 0, 1]


def test_betti_relative_boundary():
    for name in ("triangle", "tetrahedron", "square_grid"):
        pair = generate_mesh(name, 1, "full")
        b = betti_numbers(pair)
        assert b[-1] == 1 and not any(b[:-1])


def test_betti_relative_half_boundary():
    for name in ("triangle", "square_grid", "tetrahedron"):
        b = betti_numbers(generate_mesh(name, 1, "half"))
        assert not any(b)


def test_betti_annulus_and_ring(catalog):
    assert betti_numbers(catalog("annulus")) == [1, 1, 0]
    assert betti_numbers(catalog("annulus", 1, "full")) == [0, 1, 1]
    assert betti_numbers(catalog("solid_ring")) == [1, 1, 0, 0]
    assert betti_numbers(catalog("solid_ring", 1, "full")) == [0, 0, 1, 1]


@pytest.mark.parametrize("keep,betti", [
    # three of four unit intervals
    ([(0,), (1,), (3,)], [2, 0]),
    # a 3 x 3 block of squares without its centre
    ([c for c in itertools.product(range(3), repeat=2) if c != (1, 1)],
     [1, 1, 0]),
    # a 3 x 3 x 3 block of cubes without its centre
    ([c for c in itertools.product(range(3), repeat=3) if c != (1, 1, 1)],
     [1, 0, 1, 0]),
    # a 2^4 block of 4-cubes
    (list(itertools.product(range(2), repeat=4)), [1, 0, 0, 0, 0]),
], ids=["d1", "d2", "d3", "d4"])
def test_kuhn_cells_any_dimension(keep, betti):
    """Kuhn's triangulation splits each d-cube into d! simplices of volume
    1/d!, which close into a complex with the homology of the union of
    the cubes."""
    cells, coords = _kuhn_cells(keep)
    assert len(cells) == math.factorial(len(keep[0])) * len(keep)
    edges = [np.subtract([coords[v] for v in c[1:]], coords[c[0]])
             for c in cells]
    assert np.allclose(np.abs(np.linalg.det(edges)), 1.0)
    assert betti_numbers(build_complex(cells, coords)) == betti


def test_betti_numbers_computed_once_per_pair(monkeypatch):
    pair = generate_mesh("annulus")
    first = betti_numbers(pair)
    first[0] = 99

    def no_rank(rows):
        raise AssertionError("Betti numbers recomputed")

    monkeypatch.setattr(exact, "rank", no_rank)
    assert betti_numbers(pair) == [1, 1, 0]


def test_mark_pair_keeps_simplices():
    # a triangle with a dangling edge: re-marking must keep the edge
    pair = build_complex([[0, 1, 2], [2, 3]],
                         [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                         marked=[[0, 1]])
    unmarked = mark_pair(pair, "none")
    assert not unmarked.marked
    assert [len(unmarked.simplices(m)) for m in range(3)] == [4, 4, 1]
    full = mark_pair(unmarked, "full")
    assert full.marked == {(0, 1), (0, 2), (1, 2), (0,), (1,), (2,)}
    assert mark_pair(full, "full") is full
    with pytest.raises(MeshError):
        mark_pair(pair, "file")


@pytest.mark.parametrize("name,size", [("cube_tet", 1), ("square_grid", 3)])
@pytest.mark.parametrize("scale", [2.0 ** -40, 1e-12])
def test_mark_half_does_not_depend_on_scale(name, size, scale):
    """"half" marks the same simplices on a mesh scaled down, and the
    relative Betti numbers stay those of the unit mesh (all zero)."""
    unit = generate_mesh(name, size)
    cells = [list(c.vertices) for c in unit.simplices(unit.top_dim)]
    small = build_complex(cells, scale * np.array(unit.coords))
    want = mark_pair(unit, "half")
    got = mark_pair(small, "half")
    assert got.marked == want.marked
    assert betti_numbers(got) == betti_numbers(want) == \
        [0] * (unit.top_dim + 1)


def test_marked_set_closure_enforced():
    cells = [[0, 1, 2]]
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    pair = build_complex(cells, coords, marked=[[0, 1]])
    assert {(0,), (1,)} <= pair.marked
    assert (2,) not in pair.marked


def test_stratum_excludes_marked(catalog):
    pair = catalog("square_grid", 1, "full")
    boundary = {f.vertices for f in pair.boundary_facets()}
    for s in pair.stratum(1):
        assert s.vertices not in boundary


def test_patch_pair_interior_vertex():
    pair = generate_mesh("square_grid", 2)
    # vertex contained in every adjacent triangle; its patch is a disk
    counts = {}
    for c in pair.simplices(2):
        for v in c.vertices:
            counts[v] = counts.get(v, 0) + 1
    interior = max(counts, key=counts.get)
    patch = patch_pair(pair, pair.simplex((interior,)))
    b = betti_numbers(patch)
    assert b[:2] == [0, 0] and b[2] == 1


def test_patch_condition_catalog(catalog):
    for name in ("square_grid", "annulus", "cube_tet"):
        rep = check_local_patch_condition(catalog(name))
        assert rep["passed"] and not rep["failures"]


@pytest.mark.parametrize("mark", ["none", "full", "half"])
def test_patch_condition_matches_patch_pairs(catalog, mark):
    for name in ("interval", "triangle", "tetrahedron", "square_grid",
                 "annulus", "cube_tet", "sphere_boundary"):
        pair = catalog(name, 1, mark)
        rep = check_local_patch_condition(pair)
        for f in pair.all_simplices():
            assert rep["betti"][f.vertices] == \
                betti_numbers(patch_pair(pair, f)), (name, mark, f)


def test_patch_condition_pinched_fails():
    cells = [[0, 1, 2], [2, 3, 4]]
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]
    rep = check_local_patch_condition(build_complex(cells, coords))
    assert not rep["passed"]
    assert (2,) in rep["failures"]


@pytest.mark.parametrize("mark", ["none", "full", "half"])
def test_patch_condition_matches_open_star_reference(catalog, mark):
    """Ranking all open stars together, one elimination per dimension,
    gives every per-simplex Betti vector, the failures and the verdict of
    ranking each star on its own."""
    for name in CATALOG:
        pair = catalog(name, 1, mark)
        assert check_local_patch_condition(pair) == open_star_report(pair), \
            (name, mark)


def test_patch_condition_pinched_matches_reference():
    cells = [[0, 1, 2], [2, 3, 4]]
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]
    pair = build_complex(cells, coords)
    assert check_local_patch_condition(pair) == open_star_report(pair)


@pytest.mark.parametrize("cells_coords,centre", [
    (_kuhn_cells([(i, j) for i in range(2) for j in range(2)]),
     (1.0, 1.0)),
    (_kuhn_cells([(i, j, k) for i in range(2) for j in range(2)
                  for k in range(2)]), (1.0, 1.0, 1.0)),
])
def test_marked_interior_vertex_breaks_its_star(cells_coords, centre):
    """A marked interior vertex leaves its open star a punctured ball,
    whose relative homology sits below the top index: the vertex fails,
    and the failures are those of ranking each star on its own."""
    cells, coords = cells_coords
    vertex = coords.index(centre)
    pair = build_complex(cells, coords, marked=[(vertex,)])
    rep = check_local_patch_condition(pair)
    assert rep["failures"] == [(vertex,)]
    assert not rep["passed"]
    assert rep == open_star_report(pair)


def test_skeleton_pair(catalog):
    pair = catalog("solid_ring")
    skel = skeleton_pair(pair, 2)
    assert skel.top_dim == 2
    assert len(skel.simplices(2)) == len(pair.simplices(2))
    assert not skel.simplices(3)


def test_skeleton_pair_drops_marked():
    pair = generate_mesh("square_grid", 1, "full")
    skel = skeleton_pair(pair, 1)
    assert len(skel.simplices(1)) == len(pair.stratum(1))


def test_mesh_file_roundtrip(tmp_path, catalog):
    pair = generate_mesh("annulus", 1, "full")
    path = tmp_path / "mesh.json"
    save_mesh_file(pair, path)
    back = load_mesh_file(path)
    assert back.top_dim == pair.top_dim
    assert back.marked == pair.marked
    assert betti_numbers(back) == betti_numbers(pair)


def test_mesh_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(MeshError):
        load_mesh_file(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"vertices": [], "cells": []}))
    with pytest.raises(MeshError):
        load_mesh_file(missing)
    tri = {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
           "cells": [[0, 1, 2]], "marked": [[0, 1]]}
    for field, value in (("cells", [[0, 1.0, 2]]), ("cells", [["0", 1, 2]]),
                         ("cells", [[0, 1, True]]), ("cells", [3]),
                         ("marked", [[0, 1.5]]), ("ambient_dim", 1.0)):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(dict(tri, **{field: value})))
        with pytest.raises(MeshError):
            load_mesh_file(path)
    low = tmp_path / "low.json"
    low.write_text(json.dumps(dict(tri, ambient_dim=1,
                                   vertices=[[0], [1], [2]])))
    with pytest.raises(MeshError, match="ambient_dim"):
        load_mesh_file(low)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tri))
    assert load_mesh_file(good).top_dim == 2
