"""Acceptance criteria.

Each test is one criterion and prints a single pass/fail line; with
``pytest -v`` the test names themselves give the per-criterion verdicts.
The shared mesh factory keeps per-mesh caches alive so the whole file runs
well under a minute.
"""

import math

import numpy as np

from ddforms.assembly import operator_D, operator_T
from ddforms.hilbert import harmonic_space, laplace_solve
from ddforms.mesh import betti_numbers, build_complex, generate_mesh
from ddforms.polyforms import Family, SimplexGeometry
from ddforms import distrib

from reference import (BarycentricForm, dense_laplacian, pseudoinverse,
                       regularizer_R, regularizer_S, stokes_residual,
                       stratum_slice)

WHITNEY = Family("trimmed", 1)
TRIMMED2 = Family("trimmed", 2)

# mesh catalog: name, size, marking
CATALOG_ALL = [
    ("interval", 2, "none"),
    ("triangle", 1, "none"),
    ("tetrahedron", 1, "none"),
    ("square_grid", 1, "none"),
    ("annulus", 1, "none"),
    ("cube_tet", 1, "none"),
    ("solid_ring", 1, "none"),
    ("sphere_boundary", 2, "none"),
]

# the (mesh, marking) pairs for the homology-related criteria
CATALOG_MARKED = [
    ("square_grid", 1, "none"),
    ("square_grid", 1, "full"),
    ("square_grid", 1, "half"),
    ("annulus", 1, "none"),
    ("annulus", 1, "full"),
    ("solid_ring", 1, "none"),
    ("solid_ring", 1, "full"),
]

CATALOG_MARKED_2D = [c for c in CATALOG_MARKED if c[0] != "solid_ring"]


def report(num, name, ok):
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def pinched_pair():
    cells = [[0, 1, 2], [2, 3, 4]]
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]
    return build_complex(cells, coords)


def test_criterion_01_betti_oracle(catalog):
    ok = True
    for name in ("interval", "triangle", "tetrahedron", "square_grid",
                 "cube_tet"):
        b = betti_numbers(catalog(name))
        ok = ok and b[0] == 1 and not any(b[1:])
    for p in (1, 2, 3):
        b = betti_numbers(catalog("sphere_boundary", p))
        ok = ok and b == [1] + [0] * (p - 1) + [1]
    for name in ("triangle", "tetrahedron", "square_grid"):
        b = betti_numbers(catalog(name, 1, "full"))
        ok = ok and b[-1] == 1 and not any(b[:-1])
    for name in ("triangle", "tetrahedron", "square_grid"):
        ok = ok and not any(betti_numbers(catalog(name, 1, "half")))
    report(1, "relative Betti numbers", ok)


def test_criterion_02_differential_identities(catalog):
    worst = 0.0
    for name, size, mark in CATALOG_ALL:
        pair = catalog(name, size, mark)
        n = pair.top_dim
        for fam in (WHITNEY, TRIMMED2):
            for m in range(1, n + 1):
                for k in range(m - 1):
                    d0 = operator_D(pair, m, k, fam).submatrix()
                    d1 = operator_D(pair, m, k + 1, fam).submatrix()
                    scale = max(np.linalg.norm(d1) * np.linalg.norm(d0), 1.0)
                    worst = max(worst, np.linalg.norm(d1 @ d0) / scale)
                    t0 = operator_T(pair, m, k, fam).submatrix()
                    t1 = operator_T(pair, m - 1, k, fam).submatrix() \
                        if m >= 2 else np.zeros((0, t0.shape[0]))
                    scale = max(np.linalg.norm(t1) * np.linalg.norm(t0), 1.0)
                    worst = max(worst, np.linalg.norm(t1 @ t0) / scale)
                    td = operator_T(pair, m, k + 1, fam).submatrix() @ d0
                    dt = operator_D(pair, m - 1, k, fam).submatrix() @ t0 \
                        if m >= 2 else np.zeros_like(td)
                    scale = max(np.linalg.norm(td), np.linalg.norm(dt), 1.0)
                    worst = max(worst, np.linalg.norm(td - dt) / scale)
            cx = distrib.total_complex(pair, fam)
            for i in range(len(cx.diffs) - 1):
                a, b = cx.diffs[i + 1].submatrix(), cx.diffs[i].submatrix()
                scale = max(np.linalg.norm(a) * np.linalg.norm(b), 1.0)
                worst = max(worst, np.linalg.norm(a @ b) / scale)
    report(2, f"differential identities (worst {worst:.2e})", worst < 1e-10)


def test_criterion_03_condition_checkers(catalog):
    ok = True
    for name, size, mark in CATALOG_ALL:
        pair = catalog(name, size, mark)
        for fam in (WHITNEY, TRIMMED2):
            rep = distrib.check_conditions(pair, fam)
            ok = ok and rep["passed"]
    neg = distrib.check_conditions(pinched_pair(), WHITNEY)
    ok = ok and not neg["patch"]["passed"]
    ok = ok and (2,) in neg["patch"]["failures"]
    report(3, "structural condition checkers", ok)


def test_criterion_04_harmonic_dimensions(catalog):
    ok = True
    for name, size, mark in CATALOG_MARKED:
        pair = catalog(name, size, mark)
        betti = betti_numbers(pair)
        n = pair.top_dim
        for k in range(n + 1):
            dim = harmonic_space(distrib.conforming_complex(pair, WHITNEY),
                                 k).dim
            ok = ok and dim == betti[n - k]
    report(4, "conforming harmonic dims equal Betti numbers", ok)


def test_criterion_05_isomorphism_chain(catalog):
    ok = True
    for name, size, mark in CATALOG_MARKED:
        pair = catalog(name, size, mark)
        for k in range(pair.top_dim + 1):
            rep = distrib.verify_chain(pair, WHITNEY, k)
            ok = ok and rep["passed"]
            ok = ok and all(d == rep["betti"] for d in rep["dims"])
    report(5, "homology-to-harmonic isomorphism chain", ok)


def test_criterion_06_regularizers(catalog):
    rng = np.random.default_rng(11)
    count = 0
    worst = 0.0
    for name, size, mark in CATALOG_MARKED_2D:
        pair = catalog(name, size, mark)
        n = pair.top_dim
        jobs = [("lambda", 1, 2), ("lambda", 2, 2), ("lambda", 2, 3),
                ("gamma", 1, 2), ("gamma", 0, 2), ("gamma", 0, 3)]
        for side, idx, b in jobs:
            if side == "lambda":
                cx = distrib.redirected_lambda(pair, WHITNEY, idx - b + 1)
                pos = idx
                regularizer = regularizer_R
                deep = stratum_slice(cx.spaces[pos], n - b + 1)
            else:
                cx = distrib.redirected_gamma(pair, WHITNEY, idx + b - 1)
                pos = n - idx
                regularizer = regularizer_S
                deep = stratum_slice(cx.spaces[pos], idx + b - 1)
            d_prev = cx.diffs[pos - 1].submatrix()
            h = harmonic_space(cx, pos)
            d_next = cx.diffs[pos].submatrix() if pos < len(cx.diffs) else None
            for _ in range(7):
                z = d_prev @ rng.standard_normal(d_prev.shape[1])
                if h.dim:
                    z = z + h.basis @ rng.standard_normal(h.dim)
                out = regularizer(pair, WHITNEY, idx, b, z)
                scale = max(np.linalg.norm(z), 1.0)
                worst = max(worst, np.linalg.norm(out[deep]) / scale)
                if d_next is not None:
                    worst = max(worst, np.linalg.norm(
                        d_next @ out - d_next @ z) / scale)
                count += 1
    report(6, f"regularizers on {count} cocycles (worst {worst:.2e})",
           count >= 200 and worst < 1e-10)


def test_criterion_07_pseudoinverse_contracts(catalog):
    worst = 0.0
    for name, size, mark in CATALOG_ALL:
        pair = catalog(name, size, mark)
        n = pair.top_dim
        for m in range(1, n + 1):
            for k in range(m):
                for op in (operator_D(pair, m, k, WHITNEY),
                           operator_T(pair, m, k, WHITNEY)):
                    A = op.submatrix()
                    P = pseudoinverse(op, np.eye(op.codomain.dim))
                    scale = max(np.linalg.norm(A), 1.0)
                    worst = max(worst,
                                np.linalg.norm(A @ P @ A - A) / scale)
                    scale = max(np.linalg.norm(P), 1.0)
                    worst = max(worst,
                                np.linalg.norm(P @ A @ P - P) / scale)
    report(7, f"pseudoinverse contracts (worst {worst:.2e})", worst < 1e-10)


def test_criterion_08_skeleton_projection(catalog):
    ok = True
    for name, size, mark, k in [("solid_ring", 1, "none", 2),
                                ("solid_ring", 1, "none", 3),
                                ("square_grid", 1, "none", 2),
                                ("square_grid", 1, "full", 2),
                                ("annulus", 1, "none", 2)]:
        rep = distrib.skeleton_projection(catalog(name, size, mark), WHITNEY,
                                          k)
        ok = ok and rep["ok"]
    report(8, "skeleton projection isomorphism", ok)


def test_criterion_09_row_column_exactness(catalog):
    ok = True
    meshes = CATALOG_MARKED + [("triangle", 1, "none"),
                               ("tetrahedron", 1, "none"),
                               ("cube_tet", 1, "none"),
                               ("sphere_boundary", 2, "none")]
    for name, size, mark in meshes:
        rep = distrib.verify_double_complex(catalog(name, size, mark),
                                            WHITNEY)
        ok = ok and all(r["ok"] for r in rep["rows"].values())
        ok = ok and all(c["ok"] for c in rep["columns"].values())
    report(9, "double complex row/column exactness", ok)


def test_criterion_10_stokes_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for m in (1, 2, 3):
        for _ in range(100):
            while True:
                pts = rng.standard_normal((m + 1, m))
                edges = pts[1:] - pts[0]
                # keep the shape regular so roundoff stays below the bound
                if np.linalg.cond(edges) > 20.0:
                    continue
                geo = SimplexGeometry(pts)
                break
            k = int(rng.integers(0, m))
            w = BarycentricForm(m, k)
            e = BarycentricForm(m, k + 1)
            for _t in range(3):
                aw = tuple(int(a) for a in rng.integers(0, 2, size=m + 1))
                iw = tuple(sorted(rng.choice(m + 1, size=k, replace=False)))
                w = w + BarycentricForm.monomial(
                    m, aw, iw, float(rng.standard_normal()))
                ae = tuple(int(a) for a in rng.integers(0, 2, size=m + 1))
                ie = tuple(sorted(rng.choice(m + 1, size=k + 1,
                                             replace=False)))
                e = e + BarycentricForm.monomial(
                    m, ae, ie, float(rng.standard_normal()))
            worst = max(worst, stokes_residual(w, e, geo, relative=True))
    report(10, f"integration by parts (worst {worst:.2e})", worst < 1e-10)


def test_criterion_11_metric_independence(catalog, unweighted_total):
    ok = True
    for name, size, mark in CATALOG_MARKED:
        pair = catalog(name, size, mark)
        w = distrib.total_complex(pair, WHITNEY)
        u = unweighted_total(pair, WHITNEY)
        ok = ok and [harmonic_space(w, i).dim for i in range(len(w))] == \
            [harmonic_space(u, i).dim for i in range(len(u))]
    report(11, "harmonic dims independent of gram weights", ok)


def test_criterion_12_hodge_laplace_solve(catalog):
    pair = catalog("annulus", 1, "full")
    cx = distrib.conforming_complex(pair, WHITNEY)
    rng = np.random.default_rng(13)
    ok = True
    for i in range(len(cx)):
        dim = cx.spaces[i].dim
        if dim == 0:
            continue
        f = rng.standard_normal(dim)
        u, p = laplace_solve(cx, i, f)
        lap = dense_laplacian(cx, i)
        gram = cx.spaces[i].gram
        rhs = f - p
        res = lap @ u - rhs
        scale = max(math.sqrt(rhs @ gram @ rhs), 1.0)
        ok = ok and math.sqrt(res @ gram @ res) / scale < 1e-8
        h = harmonic_space(cx, i)
        if h.dim:
            ok = ok and np.linalg.norm(h.basis.T @ gram @ u) < 1e-8
    report(12, "discrete Hodge-Laplace solve", ok)
