"""Seeded inputs and the correctness oracle of the ddforms benchmark.

Every operation is one ``ddforms`` command line.  The schedule of a run is
drawn from the seed alone and written out before timing starts; the
program under test only ever sees the resulting argv and mesh files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

MARKS = ("none", "full", "half")

# Relative Betti numbers b_0..b_n per (shape, marking), derived by hand:
# the square grid is a disk, the solid ring an annulus times an interval.
# "half" marks the bottom face, which is a deformation retract of the
# whole mesh in both cases, so every relative group vanishes.
EXPECTED_BETTI = {
    ("square_grid", "none"): [1, 0, 0],
    ("square_grid", "full"): [0, 0, 1],
    ("square_grid", "half"): [0, 0, 0],
    ("solid_ring", "none"): [1, 1, 0, 0],
    ("solid_ring", "full"): [0, 0, 1, 1],
    ("solid_ring", "half"): [0, 0, 0, 0],
}

# command, shape, mesh size, family degree, and the quick self-test sizes.
WORKLOADS = {
    "chain-2d": {"command": "chain", "shape": "square_grid", "size": 6,
                 "degree": 1, "quick_size": 2, "quick_degree": 1},
    "solve-3d-r2": {"command": "solve", "shape": "solid_ring", "size": 1,
                    "degree": 2, "quick_size": 1, "quick_degree": 1},
    "betti-2d": {"command": "betti", "shape": "square_grid", "size": 10,
                 "degree": 1, "quick_size": 3, "quick_degree": 1},
}

JITTER = 0.12


def draw_marks(rng, count):
    """Markings in shuffled blocks of three, so that every run sees the
    three markings in near-equal shares whatever the seed."""
    marks = []
    while len(marks) < count:
        block = list(MARKS)
        rng.shuffle(block)
        marks.extend(block)
    return marks[:count]


def solid_ring_cells():
    """Kuhn triangulation (six tetrahedra per unit cube) of the 3x3x1 block
    of cubes without its centre cube: the catalog's ``solid_ring:1``.  It
    is built here rather than taken from the program, so that the inputs
    stay fixed when the program's catalog changes."""
    keep = [(i, j, 0) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    index = {}
    cells = []
    for base in keep:
        for perm in itertools.permutations(range(3)):
            p = base
            path = [index.setdefault(p, len(index))]
            for axis in perm:
                p = tuple(p[t] + (t == axis) for t in range(3))
                path.append(index.setdefault(p, len(index)))
            cells.append(path)
    coords = [None] * len(index)
    for p, k in index.items():
        coords[k] = [float(x) for x in p]
    return cells, coords


def _signed_volume(cell, coords):
    p0, p1, p2, p3 = (coords[v] for v in cell)
    a = [p1[t] - p0[t] for t in range(3)]
    b = [p2[t] - p0[t] for t in range(3)]
    c = [p3[t] - p0[t] for t in range(3)]
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])) / 6.0


def jitter(cells, coords, rng):
    """Move every vertex by up to JITTER per axis.  A draw that leaves any
    cell below half its original signed volume is redrawn, so no seed can
    give a degenerate or inverted mesh."""
    original = [_signed_volume(c, coords) for c in cells]
    while True:
        moved = [[x + rng.uniform(-JITTER, JITTER) for x in p] for p in coords]
        if all(_signed_volume(c, moved) / v >= 0.5
               for c, v in zip(cells, original)):
            return moved


def boundary_facets(cells):
    count = {}
    for cell in cells:
        s = tuple(sorted(cell))
        for j in range(len(s)):
            f = s[:j] + s[j + 1:]
            count[f] = count.get(f, 0) + 1
    return [list(f) for f, n in sorted(count.items()) if n == 1]


def ring_marking(cells, coords, mark):
    """Marked facets of the unjittered ring: none, the whole boundary, or
    its bottom face z = 0 (what the catalog's "half" mode marks)."""
    facets = boundary_facets(cells)
    if mark == "none":
        return []
    if mark == "full":
        return facets
    return [f for f in facets if all(coords[v][2] == 0.0 for v in f)]


def make_schedule(workload, seed, count, workdir, quick=False):
    """The first ``count`` operations of a run, with their mesh files
    written to ``workdir``.  Each entry holds the argv, the marking and the
    mesh shape, which together key the oracle's table."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    size = spec["quick_size"] if quick else spec["size"]
    degree = spec["quick_degree"] if quick else spec["degree"]
    ops = []
    for i, mark in enumerate(draw_marks(rng, count)):
        argv = [spec["command"], "--family", "trimmed", "--degree",
                str(degree), "--format", "structured"]
        if spec["shape"] == "solid_ring":
            cells, coords = solid_ring_cells()
            marked = ring_marking(cells, coords, mark)
            moved = jitter(cells, coords, rng)
            path = os.path.join(workdir, f"{workload}-{i}.json")
            with open(path, "w") as fh:
                json.dump({"ambient_dim": 3, "vertices": moved,
                           "cells": cells, "marked": marked}, fh)
            argv += ["--mesh", path, "--mark", "file"]
        else:
            argv += ["--mesh", f"catalog:{spec['shape']}:{size}",
                     "--mark", mark]
        ops.append({"index": i, "argv": argv, "mark": mark,
                    "shape": spec["shape"]})
    return ops


def oracle(op, result, table=EXPECTED_BETTI):
    """Reasons why one operation failed; empty when it passed.

    A failure is a nonzero exit, an escaped exception, a report with
    ``passed`` false, or a report that disagrees with the Betti table."""
    if result.get("error"):
        return [f"exception: {result['error']}"]
    if result.get("rc") != 0:
        return [f"exit status {result.get('rc')}"]
    try:
        doc = json.loads(result["stdout"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    reasons = []
    if doc.get("passed") is not True:
        reasons.append("report says passed=false")
    betti = table[(op["shape"], op["mark"])]
    n = len(betti) - 1
    report = doc.get("report", {})
    command = op["argv"][0]
    if command == "betti":
        if report.get("betti") != betti:
            reasons.append(f"betti {report.get('betti')} != {betti}")
    elif command == "chain":
        for k in range(n + 1):
            entry = report.get(str(k), {})
            want = betti[n - k]
            if entry.get("betti") != want:
                reasons.append(f"degree {k}: betti {entry.get('betti')} != {want}")
            dims = entry.get("dims") or [None]
            if any(d != want for d in dims):
                reasons.append(f"degree {k}: dims {dims} != {want}")
    elif command == "solve":
        for i in range(n + 1):
            entry = report.get(str(i))
            if entry is None:
                reasons.append(f"index {i} missing")
                continue
            got = entry.get("harmonic_dim", 0)
            if got != betti[n - i]:
                reasons.append(f"index {i}: harmonic_dim {got} != {betti[n - i]}")
    return reasons
