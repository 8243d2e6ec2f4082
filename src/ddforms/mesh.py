"""Oriented simplicial complexes, relative chain complexes and Betti numbers.

A mesh is a pair (T, U): a finite simplicial complex T together with a
subcomplex U of marked simplices encoding boundary conditions.  Chain
matrices are assembled over the unmarked simplices only, which realizes the
relative chain complex as a quotient by deletion.  A simplex keeps its
orientation as a sign relative to its ascending vertex tuple.  Ranks of
the integer chain matrices are computed exactly (sparse fraction-free
elimination), so Betti numbers carry no floating point tolerance.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from ddforms import exact


class MeshError(ValueError):
    """Invalid mesh input (bad indices, duplicate cells, broken closure)."""


@dataclass(frozen=True)
class Simplex:
    """An oriented simplex, identified by its ascending vertex tuple.

    ``sign`` is its orientation, +1 or -1 times that of the ascending
    order.  Top-dimensional cells in matching ambient dimension carry the
    sign of their Euclidean orientation.
    """

    vertices: tuple
    sign: int = 1

    def __post_init__(self):
        if not self.vertices:
            raise MeshError("simplex needs at least one vertex")
        if any(a >= b for a, b in zip(self.vertices, self.vertices[1:])):
            raise MeshError(f"vertices must be strictly increasing: {self.vertices}")
        if self.sign not in (1, -1):
            raise MeshError(f"orientation sign must be 1 or -1: {self.sign}")

    @property
    def dim(self):
        return len(self.vertices) - 1

    def faces(self):
        """All codimension-one faces, as ascending vertex tuples."""
        v = self.vertices
        return [v[:j] + v[j + 1:] for j in range(len(v))]

    def subsimplices(self):
        """All nonempty sub-vertex-tuples, including the simplex itself."""
        return list(_subtuples(self.vertices))

    def __repr__(self):
        return f"Simplex{self.vertices}"


def _subtuples(v):
    """The nonempty sub-tuples of v, by size; v itself comes last."""
    return itertools.chain.from_iterable(
        itertools.combinations(v, r) for r in range(1, len(v) + 1))


def _permutation_parity(seq, target):
    """Sign of the permutation taking ``seq`` to ``target``."""
    perm = [target.index(x) for x in seq]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class RelativePair:
    """A simplicial complex T with a marked subcomplex U and coordinates;
    ``parent`` is the pair a skeleton was cut from, if any."""

    def __init__(self, coords, simplices, marked, top_dim=None, parent=None):
        self.coords = tuple(tuple(float(x) for x in p) for p in coords)
        self.ambient_dim = len(self.coords[0]) if self.coords else 0
        if any(len(p) != self.ambient_dim for p in self.coords):
            raise MeshError("inconsistent coordinate dimensions")
        self._by_dim = {}
        self._lookup = {}
        for s in simplices:
            self._by_dim.setdefault(s.dim, []).append(s)
            self._lookup[s.vertices] = s
        for d in self._by_dim:
            self._by_dim[d].sort(key=lambda s: s.vertices)
        self.marked = frozenset(marked)
        self.top_dim = top_dim if top_dim is not None else max(self._by_dim, default=0)
        self.parent = parent
        self._cache = {}
        self._validate()

    def cached(self, key, build):
        """The value memoised under key on this pair, built on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _validate(self):
        for s in self._lookup.values():
            for f in s.faces():
                if len(f) >= 1 and f not in self._lookup:
                    raise MeshError(f"complex not closed: missing face {f} of {s}")
        for v in self.marked:
            if v not in self._lookup:
                raise MeshError(f"marked simplex {v} not in complex")
            for f in _subtuples(v):
                if f not in self.marked:
                    raise MeshError(f"marked set not closed under faces at {f}")

    # -- queries ----------------------------------------------------------

    def simplices(self, m):
        """All m-simplices of T, sorted by vertex tuple."""
        return list(self._by_dim.get(m, []))

    def stratum(self, m):
        """Unmarked m-simplices T^m \\ U^m, sorted by vertex tuple."""
        return [s for s in self._by_dim.get(m, []) if s.vertices not in self.marked]

    def all_simplices(self):
        for m in sorted(self._by_dim):
            yield from self._by_dim[m]

    def simplex(self, vertices):
        return self._lookup[tuple(vertices)]

    def points(self, simplex):
        return [self.coords[v] for v in simplex.vertices]

    def diameter(self, simplex):
        pts = self.points(simplex)
        best = 0.0
        for a, b in itertools.combinations(pts, 2):
            best = max(best, math.dist(a, b))
        return best

    def boundary_facets(self):
        """Facets of T contained in exactly one top-dimensional cell."""
        count = {}
        for c in self._by_dim.get(self.top_dim, []):
            for f in c.faces():
                if len(f) >= 1:
                    count[f] = count.get(f, 0) + 1
        return [self.simplex(f) for f, n in sorted(count.items()) if n == 1]

    def __repr__(self):
        sizes = {m: len(self._by_dim[m]) for m in sorted(self._by_dim)}
        return f"RelativePair(n={self.top_dim}, sizes={sizes}, marked={len(self.marked)})"


# -- construction ---------------------------------------------------------


def _euclid_orientations(cells, coords):
    """The signs of the Euclidean volumes of n-cells in ambient dim n, each
    given by its ascending vertices: one float determinant over the stack
    of their edges.  Where a determinant overflows or is zero (it may
    underflow on a tiny cell), its sign is taken from the exact
    determinant of the coordinates as fractions; the first cell whose
    exact determinant is zero raises MeshError."""
    if not cells:
        return []
    pts = np.array(coords)[np.array(cells)]
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(pts[:, 1:] - pts[:, :1]).tolist()
    signs = []
    for vertices, det in zip(cells, dets):
        if not math.isfinite(det) or det == 0.0:
            # imported here: fractions imports decimal, 0.4 MB in every
            # command
            from fractions import Fraction
            p0, *rest = (coords[v] for v in vertices)
            rows = [[Fraction(x) - Fraction(x0) for x, x0 in zip(p, p0)]
                    for p in rest]
            order = tuple(range(len(rows)))
            det = sum(_permutation_parity(perm, order)
                      * math.prod(row[j] for row, j in zip(rows, perm))
                      for perm in itertools.permutations(order))
        if det == 0.0:
            raise MeshError(f"degenerate cell {vertices}")
        signs.append(1 if det > 0 else -1)
    return signs


def build_complex(cells, vertices, marked=()):
    """Close a list of cells (vertex-index lists) into a RelativePair.

    ``marked`` lists simplices whose closure forms the subcomplex U.  Cells
    of full ambient dimension d >= 1 carry the sign of their Euclidean
    volume.  The cells before the first malformed one are oriented first,
    so a degenerate cell among them is named before it.
    """
    coords = [tuple(float(x) for x in p) for p in vertices]
    nv = len(coords)
    if not cells:
        raise MeshError("no cells given")
    if len(set(coords)) != nv:
        raise MeshError("coincident vertex coordinates")
    if any(len(p) != len(coords[0]) for p in coords):
        raise MeshError("inconsistent coordinate dimensions")
    # each valid cell, in order, with its orientation sign
    keys, fault = {}, None
    for cell in cells:
        key = tuple(sorted(cell))
        if len(set(cell)) != len(cell):
            fault = f"repeated vertex in cell {cell}"
        elif any(v < 0 or v >= nv for v in cell):
            fault = f"vertex index out of range in cell {cell}"
        elif key in keys:
            fault = f"duplicate cell {cell}"
        if fault:
            break
        keys[key] = 1
    full = [key for key in keys if 1 < len(key) == len(coords[0]) + 1]
    keys.update(zip(full, _euclid_orientations(full, coords)))
    if fault:
        raise MeshError(fault)
    members = {}
    for key, sign in keys.items():
        members[key] = Simplex(key, sign)
        members.update((f, Simplex(f)) for f in _subtuples(key)
                       if f not in members)
    marked_closed = set()
    for msub in marked:
        key = tuple(sorted(msub))
        if key not in members:
            raise MeshError(f"marked simplex {msub} absent from the complex")
        marked_closed.update(_subtuples(key))
    return RelativePair(coords, members.values(), marked_closed)


# -- orientation and chain matrices ---------------------------------------


def facet_incidence(pair, m):
    """The signed facet incidence of the m-stratum, computed once per pair:
    int arrays (cell, facet, j, sign) with one entry per unmarked facet F
    of an unmarked m-cell C; cell and facet index the m- and (m-1)-strata,
    j is the local vertex F omits and sign is o(F, C) = (-1)^j s_C s_F."""

    def build():
        facets = {s.vertices: (i, s.sign)
                  for i, s in enumerate(pair.stratum(m - 1))}
        entries = [(ci, j, c.sign) + facets[f]
                   for ci, c in enumerate(pair.stratum(m))
                   for j, f in enumerate(c.faces()) if f in facets]
        cell, j, s_c, facet, s_f = np.array(entries, np.int64).reshape(-1, 5).T
        return np.array([cell, facet, j, (-1) ** j * s_c * s_f])

    return pair.cached(("incidence", m), build)


def betti_numbers(pair):
    """Relative Betti numbers b_0 .. b_n of (T, U), exactly over the
    rationals; computed once per pair, returned as a fresh list."""

    def build():
        n = pair.top_dim
        dims = [len(pair.stratum(m)) for m in range(n + 1)]
        ranks = [0] * (n + 2)
        for m in range(1, n + 1):
            cell, facet, _j, sign = facet_incidence(pair, m)
            ranks[m] = exact.rank((facet, cell, sign), (
                len(pair.stratum(m - 1)), len(pair.stratum(m))))
        return [dims[m] - ranks[m] - ranks[m + 1] for m in range(n + 1)]

    return list(pair.cached(("betti",), build))


# -- patches and skeletons ------------------------------------------------


def check_local_patch_condition(pair):
    """Per-simplex relative patch homology report (vanishing below top index).

    Returns a dict with per-simplex Betti vectors of (M_F, N_F), the list of
    failing simplices, and the overall verdict.  The relative chains of
    (M_F, N_F) are the top cells containing F and the unmarked simplices of
    those cells that contain F (the open star of F), so their incidence in
    the pair is ranked directly, without building the patch as a pair.

    The members of the stars are read off ``facet_incidence`` from the top
    dimension down: every top cell is one, and an unmarked simplex is one
    when it is a facet of one.  The stars of all simplices are ranked
    together, one elimination per dimension, over rows keyed by (F, G) for
    each member G of the star of F, with entries on the columns (F, H) of
    the facets H of G that contain F.  A row meets only the rows of its own
    star, so the independent rows of each star count its rank.  A row
    whose key leads a pivot one dimension up is a combination of the rows
    after it, since the boundary of a boundary vanishes, and is cleared
    before the elimination (Chen and Kerber, "Persistent homology
    computation with a twist", EuroCG 2011).
    """
    n = pair.top_dim
    simplices = list(pair.all_simplices())
    index = {s.vertices: i for i, s in enumerate(simplices)}
    sizes = np.zeros((n + 1, len(simplices)), np.int64)
    ranks = np.zeros((n + 2, len(simplices)), np.int64)
    cleared = {}
    for m in range(n, -1, -1):
        stratum = pair.stratum(m)
        if m == n:
            # a marked top cell, at position -1, has no unmarked facet
            where = {s.vertices: i for i, s in enumerate(stratum)}
            members = pair.simplices(n)
            pos = np.array([where.get(g.vertices, -1) for g in members],
                           np.int64)
            member = np.ones(len(stratum), bool)
        else:
            cell, facet, _j, _sign = facet_incidence(pair, m + 1)
            above, member = member, np.zeros(len(stratum), bool)
            member[facet[above[cell]]] = True
            pos = np.flatnonzero(member)
            members = [stratum[i] for i in pos]
        verts = np.array([g.vertices for g in members],
                         np.int64).reshape(-1, m + 1)
        subsets = list(_subtuples(range(m + 1)))
        # row (F, G): F the subsimplex of member G at the local positions
        star = np.array([index[f] for local in subsets
                         for f in map(tuple, verts[:, local].tolist())],
                        np.int64)
        owner = np.tile(pos, len(subsets))
        sizes[m] = np.bincount(star, minlength=len(simplices))
        if not m or not len(star):
            continue
        # the facet of each member omitting local vertex j, or -1; a last
        # row of -1 serves the marked top cells
        cell, facet, j, sign = facet_incidence(pair, m)
        facets = np.full((len(stratum) + 1, m + 1), -1, np.int64)
        signs = np.zeros((len(stratum) + 1, m + 1), np.int64)
        facets[cell, j], signs[cell, j] = facet, sign
        live = np.flatnonzero([key not in cleared for key in
                               (star * len(stratum) + owner).tolist()])
        outside = np.repeat([[j not in local for j in range(m + 1)]
                             for local in subsets], len(members), axis=0)
        rows, col = np.nonzero((facets[owner[live]] >= 0) & outside[live])
        at, width = live[rows], len(pair.stratum(m - 1))
        kept, cleared = exact.echelon(exact.triplet_rows(
            rows, star[at] * width + facets[owner[at], col],
            signs[owner[at], col], len(live)))
        ranks[m] = np.bincount(star[live[kept]], minlength=len(simplices))
    betti = (sizes - ranks[:-1] - ranks[1:]).T.tolist()
    failures = [s.vertices for s, b in zip(simplices, betti) if any(b[:n])]
    return {
        "betti": {s.vertices: b for s, b in zip(simplices, betti)},
        "failures": failures,
        "passed": not failures,
    }


def check_pure(pair):
    """MeshError unless every simplex lies in a top cell: the theory covers
    triangulations, so a non-pure complex is an unsupported configuration.
    Names the stray simplex of highest dimension; the strays are found
    once per pair."""

    def build():
        covered = {g for c in pair.simplices(pair.top_dim)
                   for g in c.subsimplices()}
        return [s for s in pair.all_simplices() if s.vertices not in covered]

    stray = pair.cached(("stray",), build)
    if stray:
        raise MeshError(f"unsupported configuration: non-pure complex, "
                        f"{stray[-1]} lies in no {pair.top_dim}-cell")


def skeleton_pair(pair, m):
    """The m-skeleton pair (T^[m] \\ U^m, U^[m-1]).

    The top-dimensional marked simplices are removed from the complex and
    the remaining marked set is truncated one dimension below, which keeps
    the local patch condition inheritable skeleton by skeleton.
    """
    if m < 0 or m > pair.top_dim:
        raise MeshError(f"skeleton dimension {m} out of range")

    def build():
        members = []
        for d in range(m + 1):
            for s in pair.simplices(d):
                if d == m and s.vertices in pair.marked:
                    continue
                members.append(s)
        marked = {v for v in pair.marked if len(v) - 1 <= m - 1}
        return RelativePair(pair.coords, members, marked, top_dim=m,
                            parent=pair.parent or pair)

    return pair.cached(("skeleton", m), build)


# -- mesh catalog ---------------------------------------------------------


def _kuhn_cells(keep):
    """Kuhn's triangulation of the listed unit cubes of any dimension d,
    each given by its lowest corner: d! simplices per cube, one per order
    in which a path from that corner steps along the d axes to the
    opposite one (Freudenthal, Ann. Math. 43, 1942).  Returns the cells
    and the coordinates of their vertices, numbered as first reached."""
    verts = {}
    cells = []
    for base in keep:
        for order in itertools.permutations(range(len(base))):
            path = [tuple(base)]
            for axis in order:
                p = path[-1]
                path.append(p[:axis] + (p[axis] + 1,) + p[axis + 1:])
            cells.append([verts.setdefault(p, len(verts)) for p in path])
    return cells, [tuple(map(float, p)) for p in verts]


def mark_pair(pair, mode):
    """Re-mark a pair, keeping every simplex of it: "none" marks nothing,
    "full" every boundary facet, "half" those lowest in the last coordinate
    to within 1e-9 of their spread, at any scale (a disk on the boundary
    for the catalog meshes).  Returns the pair itself when unchanged."""
    if mode not in ("none", "full", "half"):
        raise MeshError(f"unknown marking mode {mode!r}")
    facets = pair.boundary_facets() if mode != "none" else []
    if mode == "half" and facets:
        levels = [sum(p[-1] for p in pair.points(f)) / (f.dim + 1)
                  for f in facets]
        lo, hi = min(levels), max(levels)
        facets = [f for f, x in zip(facets, levels)
                  if x <= lo + 1e-9 * (hi - lo)]
    marked = {g for f in facets for g in f.subsimplices()}
    if marked == pair.marked:
        return pair
    return RelativePair(pair.coords, pair.all_simplices(), marked,
                        top_dim=pair.top_dim)


# The most faces a catalog mesh may list: its cells with all their faces,
# 2^(d+1) - 1 per d-cell, as build_complex closes them.  It bounds the
# simplex count and the time and memory of building the mesh.
MAX_CATALOG_FACES = 2 ** 19


def generate_mesh(name, size=1, mark="none"):
    """Catalog meshes with boundary marking mode none / full / half: Kuhn
    triangulations of unit cubes, or the p-faces of the corner d-simplex
    {0, e_1, ..., e_d}; only the requested shape is built, and only when
    its cells list at most MAX_CATALOG_FACES faces."""
    if size < 1:
        raise MeshError(f"invalid subdivision parameter {size}")

    def ring(*tail):
        """The squares of a (size + 2)^2 block about a size^2 hole."""
        return [c + tail for c in itertools.product(range(size + 2), repeat=2)
                if not all(0 < x <= size for x in c)]

    def corner(d, p):
        return p, math.comb(d + 1, p + 1), lambda: (
            list(itertools.combinations(range(d + 1), p + 1)),
            [tuple(float(t == i) for t in range(d)) for i in range(-1, d)])

    # shape: (cell dimension p, cell count, its cells and coordinates)
    squares = (size + 2) ** 2 - size ** 2
    shapes = {
        "interval": (1, size, lambda: _kuhn_cells(
            itertools.product(range(size)))),
        "square_grid": (2, 2 * size ** 2, lambda: _kuhn_cells(
            itertools.product(range(size), repeat=2))),
        "annulus": (2, 2 * squares, lambda: _kuhn_cells(ring())),
        "cube_tet": (3, 6, lambda: _kuhn_cells([(0, 0, 0)])),
        "solid_ring": (3, 6 * squares, lambda: _kuhn_cells(ring(0))),
        "triangle": corner(2, 2), "tetrahedron": corner(3, 3),
        "sphere_boundary": corner(size + 1, size)}
    if name not in shapes:
        raise MeshError(f"unknown catalog mesh {name!r}")
    p, count, build = shapes[name]
    # the exponent is capped, so a huge size costs no huge power
    if count * (2 ** min(p + 1, 64) - 1) > MAX_CATALOG_FACES:
        raise MeshError(f"catalog mesh {name}:{size} too large: its cells "
                        f"list more than {MAX_CATALOG_FACES} faces")
    cells, coords = build()
    return mark_pair(build_complex(cells, coords), mark)


# -- mesh files -----------------------------------------------------------


def load_mesh_file(path):
    """Read the JSON mesh format (ambient_dim, vertices, cells, marked)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MeshError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise MeshError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise MeshError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise MeshError(f"{path}: top level must be a JSON object")
    for key in ("ambient_dim", "vertices", "cells"):
        if key not in data:
            raise MeshError(f"{path}: missing field {key!r}")
    dim, cells = data["ambient_dim"], data["cells"]
    marked = data.get("marked", [])
    if not _is_index(dim):
        raise MeshError(f"{path}: ambient_dim must be an integer")
    for field, entries in (("cells", cells), ("marked", marked)):
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and all(_is_index(v) for v in e)
                for e in entries):
            raise MeshError(
                f"{path}: {field} must be lists of integer vertex indices")
    top = max((len(c) - 1 for c in cells), default=0)
    if dim < top:
        raise MeshError(
            f"{path}: ambient_dim {dim} is below the top cell dimension {top}")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(
            isinstance(p, list) and all(_is_coordinate(x) for x in p)
            for p in vertices):
        raise MeshError(f"{path}: vertices must be lists of finite numbers")
    if any(len(p) != dim for p in vertices):
        raise MeshError(f"{path}: vertex coordinates disagree with ambient_dim")
    return build_complex(cells, vertices, marked)


def _is_index(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_coordinate(value):
    """A number that converts to a finite float (NaN compares false)."""
    return (_is_index(value) or isinstance(value, float)) and \
        abs(value) <= sys.float_info.max


def save_mesh_file(pair, path):
    n = pair.top_dim
    data = {
        "ambient_dim": pair.ambient_dim,
        "vertices": [list(p) for p in pair.coords],
        "cells": [list(s.vertices) for s in pair.simplices(n)],
        "marked": sorted(list(v) for v in pair.marked),
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
