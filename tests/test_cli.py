import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddforms import cli, distrib, mesh
from ddforms.assembly import operator_D, operator_T
from ddforms.cli import main, resolve_mesh
from ddforms.hilbert import harmonic_space, laplace_solve
from ddforms.mesh import (MeshError, _kuhn_cells, build_complex,
                          generate_mesh, load_mesh_file, save_mesh_file)
from ddforms.polyforms import Family

from reference import dense_laplacian


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_betti_tetrahedron_relative():
    code, text = run(["betti", "--mesh", "catalog:tetrahedron",
                      "--mark", "full"])
    assert code == 0
    assert "0 0 0 1" in text


def test_chain_annulus_structured():
    code, text = run(["chain", "--mesh", "catalog:annulus", "--mark", "full",
                      "--format", "structured"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"]
    assert doc["mesh"]["betti"] == [0, 1, 1]
    assert all(doc["report"][str(k)]["passed"] for k in range(3))


PLATE_BETTI = {"none": [1, 2, 0], "full": [0, 2, 1], "half": [0, 2, 0]}


@pytest.mark.parametrize("mark", sorted(PLATE_BETTI))
@pytest.mark.parametrize("degree", ["1", "2"])
def test_plate_with_two_holes(tmp_path, mark, degree):
    """A plate of 5 x 3 squares without the squares (1, 1) and (3, 1) has
    b_1 = 2, which no catalog mesh reaches: it meets the structural
    conditions, the harmonic dimensions equal the Betti numbers, and the
    isomorphism chain passes through transfers two wide."""
    keep = [c for c in itertools.product(range(5), range(3))
            if c not in ((1, 1), (3, 1))]
    path = str(tmp_path / "plate.json")
    save_mesh_file(build_complex(*_kuhn_cells(keep)), path)
    args = ["--mesh", path, "--mark", mark, "--family", "trimmed",
            "--degree", degree, "--format", "structured"]
    betti = PLATE_BETTI[mark]
    code, text = run(["check"] + args)
    assert code == 0 and json.loads(text)["passed"]
    code, text = run(["harmonic"] + args)
    doc = json.loads(text)
    assert code == 0 and doc["mesh"]["betti"] == betti
    report = doc["report"]
    assert [report["chain"][str(m)] for m in range(3)] == betti
    assert [report["conforming"][str(k)] for k in range(3)] == betti[::-1]
    code, text = run(["chain"] + args)
    doc = json.loads(text)
    assert code == 0 and doc["mesh"]["betti"] == betti
    widths = [step["dims"][0] for k in range(3)
              for label, step in doc["report"][str(k)]["steps"].items()
              if "transfer" in label]
    assert max(widths) == 2


@pytest.mark.parametrize("mark", ["none", "half"])
def test_four_dimensional_cube(tmp_path, mark):
    """The Kuhn triangulation of the unit 4-cube, 24 simplices, runs the
    element tables in dimension 4: check passes, the harmonic dimensions
    equal the Betti numbers, and the isomorphism chain passes."""
    path = str(tmp_path / "cube4.json")
    pair = build_complex(*_kuhn_cells([(0, 0, 0, 0)]))
    assert len(pair.simplices(4)) == 24
    save_mesh_file(pair, path)
    args = ["--mesh", path, "--mark", mark, "--family", "trimmed",
            "--degree", "1", "--format", "structured"]
    betti = [int(mark == "none"), 0, 0, 0, 0]
    code, text = run(["check"] + args)
    assert code == 0 and json.loads(text)["passed"]
    code, text = run(["harmonic"] + args)
    doc = json.loads(text)
    assert code == 0 and doc["mesh"]["betti"] == betti
    report = doc["report"]
    assert [report["chain"][str(m)] for m in range(5)] == betti
    assert [report["conforming"][str(k)] for k in range(5)] == betti[::-1]
    code, text = run(["chain"] + args)
    assert code == 0 and json.loads(text)["passed"]


def test_structured_output_deterministic():
    """Both output formats, written from one canonical walk of the report,
    are byte-identical from run to run."""
    for command in ("harmonic", "chain"):
        for fmt in ("structured", "table"):
            args = [command, "--mesh", "catalog:square_grid", "--mark",
                    "half", "--format", fmt]
            assert run(args) == run(args)


def test_canonical_report_walk():
    """The one writer both formats read: floats, numpy ones too, with 12
    decimals in exponent form; tuples, nested ones too, as lists; keys as
    strings in insertion order, a tuple key joined by commas; bools, ints
    and strings as they are."""
    doc = {2: (np.float64(1 / 3), [True, 7, (0.1, "x", ())]),
           "a": {(1, 2): False, 0: -2.0 / 3}}
    out = cli._canonical(doc)
    assert out == {"2": [0.3333333333333, [True, 7, [0.1, "x", []]]],
                   "a": {"1,2": False, "0": -0.6666666666667}}
    assert list(out) == ["2", "a"] and list(out["a"]) == ["1,2", "0"]
    assert type(out["2"][0]) is float
    assert type(out["2"][1][0]) is bool and type(out["2"][1][1]) is int
    assert json.dumps(out) == json.dumps(cli._canonical(out))


def test_check_pinched_fails(tmp_path):
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0],
                     [2.0, 2.0]],
        "cells": [[0, 1, 2], [2, 3, 4]],
    }))
    code, text = run(["check", "--mesh", str(path), "--format", "structured"])
    assert code == 1
    doc = json.loads(text)
    assert not doc["report"]["patch"]["passed"]
    assert [2] in doc["report"]["patch"]["failures"]


def test_solve_exit_zero():
    code, text = run(["solve", "--mesh", "catalog:annulus", "--mark", "full",
                      "--format", "structured"])
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["passed"]


@pytest.mark.parametrize("name,mark,family,r", [
    ("triangle", "none", "trimmed", 1), ("tetrahedron", "half", "full", 2),
    ("cube_tet", "none", "full", 2)])
def test_solve_reports_every_index_alike(name, mark, family, r):
    """Every index of a solve report has the same keys, an empty one too:
    it reports harmonic dimension 0 and zero residual and overlap."""
    code, text = run(["solve", "--mesh", f"catalog:{name}", "--mark", mark,
                      "--family", family, "--degree", str(r),
                      "--format", "structured"])
    report = json.loads(text)["report"]
    assert code == 0 and report.pop("passed")
    assert all(e.keys() == {"dim", "harmonic_dim", "residual",
                            "harmonic_overlap", "ok"} for e in report.values())
    empty = [e for e in report.values() if e["dim"] == 0]
    assert empty and all(e == {"dim": 0, "harmonic_dim": 0, "residual": 0.0,
                               "harmonic_overlap": 0.0, "ok": True}
                         for e in empty)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name,mark", [("annulus", "none"), ("annulus", "full"),
                                       ("cube_tet", "half")])
def test_solve_residual_is_the_laplacians(name, mark, r):
    """solve's residual, taken through the whitened differentials, is the
    dense Laplacian's Gram-norm residual |lap u - (f - p)|_G / |f|_G, and
    its harmonic overlap is |H^T G u|, for the source solve draws and the
    u and p of laplace_solve."""
    code, text = run(["solve", "--mesh", f"catalog:{name}", "--mark", mark,
                      "--degree", str(r), "--format", "structured"])
    report = json.loads(text)["report"]
    assert code == 0
    cx = distrib.conforming_complex(generate_mesh(name, 1, mark),
                                    Family("trimmed", r))
    rng = random.Random(20240823)
    for i in range(len(cx)):
        gram = cx.spaces[i].gram
        f = np.array([rng.gauss(0.0, 1.0) for _ in range(cx.spaces[i].dim)])
        u, p = laplace_solve(cx, i, f)
        res = dense_laplacian(cx, i) @ u - (f - p)
        residual = np.sqrt(res @ gram @ res) / \
            max(np.sqrt(f @ gram @ f), 1e-30)
        overlap = np.linalg.norm(harmonic_space(cx, i).basis.T @ gram @ u)
        assert abs(report[str(i)]["residual"] - residual) <= 1e-13
        assert abs(report[str(i)]["harmonic_overlap"] - overlap) <= 1e-13


def test_solve_source_without_numpy_random():
    """solve draws its source from the standard library's generator: a
    fresh process never imports numpy.random, and two runs print the same
    structured report byte for byte."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from ddforms.cli import main; rc = main(sys.argv[1:]);"
            " print('numpy.random' in sys.modules); sys.exit(rc)")
    args = ["solve", "--mesh", "catalog:annulus", "--mark", "full",
            "--degree", "2", "--format", "structured"]
    runs = [subprocess.run([sys.executable, "-c", code] + args, env=env,
                           capture_output=True, text=True) for _ in range(2)]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout
    report, imported = runs[0].stdout.splitlines()
    assert imported == "False"
    assert json.loads(report)["report"]["passed"]


def test_mark_file_mode(tmp_path):
    pair = generate_mesh("square_grid", 1, "full")
    path = tmp_path / "square.json"
    save_mesh_file(pair, path)
    loaded = resolve_mesh(str(path), "file")
    assert loaded.marked == pair.marked
    stripped = resolve_mesh(str(path), "none")
    assert not stripped.marked


def test_mark_file_on_catalog_rejected():
    code, _text = run(["betti", "--mesh", "catalog:annulus",
                       "--mark", "file"])
    assert code == 2


def test_malformed_mesh_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    with pytest.raises(MeshError):
        load_mesh_file(str(path))
    code, _text = run(["betti", "--mesh", str(path)])
    assert code == 2


def test_missing_mesh_file(capsys):
    with pytest.raises(MeshError, match="cannot read"):
        load_mesh_file("/nonexistent/mesh.json")
    assert _error_exit(capsys, ["betti", "--mesh", "/nonexistent/mesh.json"])


def test_invalid_tolerance(capsys):
    for tol in ("-1", "0", "nan", "inf"):
        code, text = run(["solve", "--mesh", "catalog:triangle",
                          "--tol", tol])
        err = capsys.readouterr().err
        assert (code, text) == (2, ""), tol
        assert err.startswith("error:") and err.count("\n") == 1


def _error_exit(capsys, args):
    code, text = run(args)
    err = capsys.readouterr().err
    return code == 2 and text == "" and err.startswith("error:") \
        and err.count("\n") == 1


@pytest.mark.parametrize("vertices", [
    5, [5, 6, 7], [["a", "b"], ["c", "d"], ["e", "f"]],
    [[0, 0], [1, 0], [0, float("nan")]], [[0, 0], [1, 0], [0, 1e400]],
    [[0, 0], [1, 0], [0, 10 ** 400]], [[0, 0], [1, 0], [0, True]]],
    ids=["scalar", "flat", "strings", "nan", "inf", "huge-int", "bool"])
def test_mesh_file_vertices_must_be_finite_numbers(tmp_path, capsys, vertices):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": vertices,
                                "cells": [[0, 1, 2]]}))
    with pytest.raises(MeshError):
        load_mesh_file(str(path))
    for command in ("betti", "solve", "chain"):
        assert _error_exit(capsys, [command, "--mesh", str(path)]), command


def test_flat_triangle_in_space(tmp_path, capsys):
    """A triangle with collinear vertices in R^3 has Betti numbers but no
    metric: the metric commands end in one error line."""
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "ambient_dim": 3,
        "vertices": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        "cells": [[0, 1, 2]]}))
    for command in ("harmonic", "chain", "solve"):
        assert _error_exit(capsys, [command, "--mesh", str(path)]), command
    assert run(["betti", "--mesh", str(path)])[0] == 0


def _outcome(capsys, args):
    """Exit code, stdout and stderr of a run, with every warning an
    error: a warning would otherwise reach stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(args)
    return code, text, capsys.readouterr().err


def test_huge_coordinates(tmp_path, capsys):
    """Finite coordinates whose edge Gram, orientation determinant and
    vertex weights overflow: betti and check give their verdict, and the
    metric commands end in one error line that does not call the simplex
    degenerate."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "ambient_dim": 2, "vertices": [[0, 0], [1e300, 0], [0, 1e300]],
        "cells": [[0, 1, 2]]}))
    args = ["--mesh", str(path), "--mark", "file"]
    for command in ("betti", "check"):
        code, _text, err = _outcome(capsys, [command] + args)
        assert (code, err) == (0, ""), command
    for command in ("harmonic", "chain", "solve"):
        code, text, err = _outcome(capsys, [command] + args)
        assert (code, text) == (2, "") and err.startswith("error:"), command
        assert err.count("\n") == 1 and "degenerate" not in err, command


@pytest.mark.parametrize("scale", [1e10, 1e-16])
def test_solve_singular_system_is_one_error_line(tmp_path, capsys, scale):
    """A triangle scaled until the degree-2 Laplace system is numerically
    singular gives one error line and exit 2, not a traceback."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "ambient_dim": 2, "cells": [[0, 1, 2]],
        "vertices": [[0, 0], [scale, 0], [0.3 * scale, 0.9 * scale]]}))
    code, text, err = _outcome(capsys, ["solve", "--mesh", str(path),
                                        "--mark", "file", "--degree", "2"])
    assert (code, text) == (2, "")
    assert err.startswith("error: unsupported configuration: ")
    assert err.count("\n") == 1


@st.composite
def mesh_documents(draw):
    """A small mesh file: three to five vertices in R^1..R^3, at a scale
    from 1e-300 to 1e300, at times with an int or a bool coordinate; cells
    and marked simplices of full dimension, at times ragged or with a
    vertex index out of range."""
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-300, 300))
    vertices = draw(st.lists(st.lists(
        st.integers(-2, 2).map(lambda i: i * scale),
        min_size=dim, max_size=dim), min_size=dim + 1, max_size=dim + 2,
        unique_by=tuple))
    odd = draw(st.sampled_from([None, None, None, 1, True]))
    if odd is not None:
        vertices[draw(st.integers(0, dim))][-1] = odd
    nv = len(vertices)
    full = st.lists(st.integers(0, nv - 1), min_size=dim + 1,
                    max_size=dim + 1, unique=True)
    ragged = st.lists(st.integers(-1, nv), min_size=1, max_size=dim + 2)
    simplex = full | full | ragged
    return {"ambient_dim": dim, "vertices": vertices,
            "cells": draw(st.lists(simplex, min_size=1, max_size=3)),
            "marked": draw(st.lists(simplex, max_size=2))}


FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                database=None)


def test_fuzzed_mesh_files(tmp_path, capsys):
    """Any drawn mesh file loads to a pair or raises MeshError, and betti
    and chain on it give a verdict with an empty stderr or exit 2 with one
    error line; no run raises or warns."""
    path = tmp_path / "mesh.json"

    @FUZZ
    @given(mesh_documents())
    def fuzz(doc):
        path.write_text(json.dumps(doc))
        try:
            load_mesh_file(str(path))
        except MeshError:
            pass
        for command in ("betti", "chain"):
            code, text, err = _outcome(
                capsys, [command, "--mesh", str(path), "--mark", "file"])
            assert (code in (0, 1) and err == "") or (
                code == 2 and text == "" and err.startswith("error:")
                and err.count("\n") == 1), (command, code, err)

    fuzz()


def test_dump_operators(tmp_path):
    target = tmp_path / "ops"
    code, _text = run(["betti", "--mesh", "catalog:square_grid",
                       "--dump-operators", str(target)])
    assert code == 0
    files = sorted(os.listdir(target))
    assert "D_2_0.txt" in files and "T_2_0.txt" in files
    header = (target / "D_2_0.txt").read_text().splitlines()[0]
    rows, cols, nnz = (int(v) for v in header.split())
    assert rows == 6 and cols == 6 and nnz > 0
    # every file holds its operator's nonzero entries, row by row
    pair, family = generate_mesh("square_grid"), Family("trimmed", 1)
    ops = {f"{name}_{m}_{k}.txt": build(pair, m, k, family)
           for m in range(3) for k in range(m)
           for name, build in (("D", operator_D), ("T", operator_T))}
    ops.update((f"d_total_{i}.txt", d) for i, d in
               enumerate(distrib.total_complex(pair, family).diffs))
    assert sorted(ops) == files
    for name, op in ops.items():
        lines = (target / name).read_text().splitlines()
        dense = op.submatrix()
        i, j = np.nonzero(dense)
        assert lines[0] == f"{dense.shape[0]} {dense.shape[1]} {len(i)}"
        assert lines[1:] == [f"{a} {b} {dense[a, b]:.17g}"
                             for a, b in zip(i, j)], name


def test_degree_two_family():
    code, text = run(["chain", "--mesh", "catalog:square_grid",
                      "--mark", "full", "--family", "trimmed",
                      "--degree", "2", "--format", "structured"])
    assert code == 0
    assert json.loads(text)["passed"]


@pytest.mark.parametrize("spec", ["catalog:sphere_boundary:60",
                                  "catalog:square_grid:1000000"])
def test_catalog_size_ceiling(capsys, spec):
    """A catalog mesh whose cells list more than MAX_CATALOG_FACES faces
    is refused before any cell is built: one error line within a second,
    from every command."""
    for command in ("betti", "chain"):
        start = time.perf_counter()
        assert _error_exit(capsys, [command, "--mesh", spec])
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name,size,faces", [
    ("interval", 10, 10 * 3), ("square_grid", 2, 8 * 7),
    ("annulus", 1, 16 * 7), ("cube_tet", 1, 6 * 15),
    ("solid_ring", 1, 48 * 15), ("triangle", 1, 7), ("tetrahedron", 1, 15),
    ("sphere_boundary", 3, 5 * 15)])
def test_catalog_ceiling_counts_faces(monkeypatch, name, size, faces):
    """The ceiling counts 2^(p+1) - 1 faces per p-cell, before any cell is
    built: a mesh that lists exactly the ceiling is built, and refused
    under a ceiling one lower."""
    monkeypatch.setattr(mesh, "MAX_CATALOG_FACES", faces)
    pair = mesh.generate_mesh(name, size)
    n = pair.top_dim
    assert len(pair.simplices(n)) * (2 ** (n + 1) - 1) == faces
    monkeypatch.setattr(mesh, "MAX_CATALOG_FACES", faces - 1)
    with pytest.raises(MeshError, match="too large"):
        mesh.generate_mesh(name, size)


def test_bad_catalog_size(capsys):
    # a field past catalog:name:size is part of the size, not ignored
    for spec in ("catalog:annulus:x", "catalog:square_grid:1:2"):
        with pytest.raises(MeshError):
            resolve_mesh(spec, "none")
        for command in ("betti", "chain"):
            assert _error_exit(capsys, [command, "--mesh", spec]), command


def test_unsupported_full_family(capsys):
    """The full family at r < n has no geometric decomposition on the
    triangle: the condition check reports it and the run gives a verdict."""
    args = ["--mesh", "catalog:triangle", "--family", "full", "--degree", "1",
            "--format", "structured"]
    for command in ("chain", "harmonic"):
        code, text = run([command] + args)
        assert code in (0, 1)
        assert "condition checkers reported failures" in \
            json.loads(text)["warnings"]
    code, text = run(["check"] + args)
    assert code == 1
    report = json.loads(text)["report"]
    assert report["decomposition"]["1"] is False
    assert not report["passed"]
    assert run(["chain", "--strict"] + args)[0] == 1
    assert "error:" not in capsys.readouterr().err


def test_file_mesh_keeps_dangling_edge(tmp_path):
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "cells": [[0, 1, 2], [2, 3]],
    }))
    code, text = run(["betti", "--mesh", str(path), "--mark", "none",
                      "--format", "structured"])
    assert code == 0
    assert json.loads(text)["mesh"]["simplices"] == {"0": 4, "1": 4, "2": 1}


@pytest.mark.parametrize("last,scale", [([0, 0, 1], 1e-110),
                                        ([1, 1, 0], 1.0)],
                         ids=["tiny", "flat"])
def test_betti_on_tiny_and_flat_tetrahedra(tmp_path, capsys, last, scale):
    """A unit tetrahedron scaled by 1e-110, whose float orientation
    determinant underflows to 0, is oriented by the exact determinant and
    gets a verdict; an exactly degenerate one (its last vertex in the
    plane of the others) still ends in one "degenerate cell" line."""
    path = tmp_path / "tet.json"
    vertices = scale * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], last])
    path.write_text(json.dumps({"ambient_dim": 3,
                                "vertices": vertices.tolist(),
                                "cells": [[0, 1, 2, 3]]}))
    code, text = run(["betti", "--mesh", str(path), "--format", "structured"])
    err = capsys.readouterr().err
    if scale < 1:
        assert code == 0 and not err
        assert json.loads(text)["report"]["betti"] == [1, 0, 0, 0]
    else:
        assert (code, text) == (2, "")
        assert err.startswith("error: degenerate cell") and \
            err.count("\n") == 1


def test_non_pure_mesh_is_unsupported(tmp_path, capsys):
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "cells": [[0, 1, 2], [2, 3]],
    }))
    for command in ("check", "harmonic", "chain", "solve"):
        for mark in ("none", "half"):
            code, text = run([command, "--mesh", str(path), "--mark", mark])
            err = capsys.readouterr().err
            assert (code, text) == (2, "")
            assert err.startswith("error: unsupported configuration: ")
            assert err.count("\n") == 1
    assert run(["betti", "--mesh", str(path)])[0] == 0


# Relative Betti numbers of the ladder meshes under each marking.
LADDER_BETTI = {
    ("annulus", "none"): [1, 1, 0],
    ("annulus", "full"): [0, 1, 1],
    ("annulus", "half"): [0, 1, 0],
    ("cube_tet", "none"): [1, 0, 0, 0],
    ("cube_tet", "full"): [0, 0, 0, 1],
    ("cube_tet", "half"): [0, 0, 0, 0],
}

# `solve`: [dim, harmonic dim] of the conforming space at every index.
LADDER_SOLVE = {
    ("annulus", 1, "none"): [[0, 0], [16, 1], [16, 1]],
    ("annulus", 1, "full"): [[16, 1], [32, 1], [16, 0]],
    ("annulus", 1, "half"): [[2, 0], [19, 1], [16, 0]],
    ("annulus", 2, "none"): [[16, 0], [64, 1], [48, 1]],
    ("annulus", 2, "full"): [[48, 1], [96, 1], [48, 0]],
    ("annulus", 2, "half"): [[21, 0], [70, 1], [48, 0]],
    ("cube_tet", 1, "none"): [[0, 0], [1, 0], [6, 0], [6, 1]],
    ("cube_tet", 1, "full"): [[8, 1], [19, 0], [18, 0], [6, 0]],
    ("cube_tet", 1, "half"): [[0, 0], [2, 0], [8, 0], [6, 0]],
    ("cube_tet", 2, "none"): [[1, 0], [14, 0], [36, 0], [24, 1]],
    ("cube_tet", 2, "full"): [[27, 1], [74, 0], [72, 0], [24, 0]],
    ("cube_tet", 2, "half"): [[2, 0], [20, 0], [42, 0], [24, 0]],
}


def _verdicts(value):
    if isinstance(value, dict):
        for key, item in value.items():
            if key in ("ok", "passed"):
                yield item
            else:
                yield from _verdicts(item)


@pytest.mark.parametrize("mark", ["none", "full", "half"])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name", ["annulus", "cube_tet"])
def test_ladder_dimensions(name, r, mark):
    """chain, solve and harmonic against fixed dimensions: every harmonic
    dimension along the chain is the Betti number it stands for.  Every
    verdict of check (the double complex included) and of harmonic (the
    skeleton identities included) holds."""
    betti = LADDER_BETTI[(name, mark)]
    n = len(betti) - 1
    reports = {}
    for command in ("chain", "solve", "harmonic", "check"):
        code, text = run([command, "--mesh", f"catalog:{name}", "--mark", mark,
                          "--degree", str(r), "--format", "structured"])
        doc = json.loads(text)
        assert code == 0 and doc["passed"] and not doc["warnings"]
        assert all(_verdicts(doc["report"])), command
        assert doc["mesh"]["betti"] == betti
        reports[command] = doc["report"]

    chain = reports["chain"]
    for k in range(n + 1):
        assert chain[str(k)]["betti"] == betti[n - k]
        assert chain[str(k)]["dims"] == [betti[n - k]] * (2 * k + 5)

    solve = reports["solve"]
    assert [[solve[str(i)]["dim"], solve[str(i)]["harmonic_dim"]]
            for i in range(n + 1)] == LADDER_SOLVE[(name, r, mark)]

    double = reports["check"]["double_complex"]
    assert list(double["rows"]) == list(double["columns"]) == \
        [str(i) for i in range(n + 1)]

    harmonic = reports["harmonic"]
    skeleton = harmonic["skeleton"]
    assert {k: p["dims"] for k, p in skeleton["projection"].items()} == {
        str(k): [betti[n - k]] * 2 for k in range(2, n + 1)}
    assert list(skeleton["degree_zero"]) == [str(m) for m in range(n + 1)]
    assert harmonic["degree_graded"] == {
        f"{k},{b}": betti[n - k] for k in range(n + 1) for b in range(1, k + 2)}
    assert harmonic["stratum_graded"] == {
        f"{m},{b}": betti[m] for m in range(n + 1) for b in range(1, n - m + 2)}
    assert harmonic["conforming"] == {str(k): betti[n - k] for k in range(n + 1)}
    assert harmonic["chain"] == {str(m): betti[m] for m in range(n + 1)}


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "deeply nested"])
def test_unreadable_mesh_file(tmp_path, capsys, kind):
    path = tmp_path / "mesh.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(MeshError):
        load_mesh_file(str(path))
    assert _error_exit(capsys, ["betti", "--mesh", str(path)])


def test_dump_operators_unwritable(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _error_exit(capsys, ["betti", "--mesh", "catalog:triangle",
                                "--dump-operators", str(blocker / "ops")])


def test_zero_dimensional_mesh(tmp_path):
    """A mesh of points has Betti numbers, passes the checks under every
    marking (it has no boundary facet) and gets a verdict from every
    metric command: a top simplex weighs 1, so a vertex needs no edge.
    Its harmonic dimensions are the Betti numbers, one per unmarked
    point."""
    path = tmp_path / "points.json"
    meshes = [(0, [[]], [], [1]), (3, [[0, 3, 3]], [], [1]),
              (1, [[0], [1]], [], [2]), (1, [[0], [1]], [[1]], [1])]
    for dim, points, marked, betti in meshes:
        path.write_text(json.dumps({
            "ambient_dim": dim, "vertices": points, "marked": marked,
            "cells": [[v] for v in range(len(points))]}))
        for mark in ("file", "none", "full", "half"):
            want = betti if mark == "file" else [len(points)]
            args = ["--mesh", str(path), "--mark", mark,
                    "--format", "structured"]
            code, text = run(["betti"] + args)
            assert code == 0 and json.loads(text)["report"]["betti"] == want
            code, text = run(["check"] + args)
            assert code == 0 and json.loads(text)["report"]["passed"]
            for command in ("harmonic", "chain", "solve"):
                code, text = run([command] + args)
                report = json.loads(text)["report"]
                assert code == 0 and report["passed"], (command, mark)
            assert report["0"]["harmonic_dim"] == want[0]
            code, text = run(["harmonic"] + args)
            report = json.loads(text)["report"]
            assert report["conforming"] == report["chain"] == {"0": want[0]}
