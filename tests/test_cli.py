import io
import json
import os

import pytest

from ddforms.cli import main, parse_mesh_file, resolve_mesh
from ddforms.mesh import MeshError, generate_mesh, save_mesh_file


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


def test_structured_output_deterministic():
    args = ["harmonic", "--mesh", "catalog:square_grid", "--mark", "half",
            "--format", "structured"]
    assert run(args) == run(args)


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
        parse_mesh_file(str(path))
    code, _text = run(["betti", "--mesh", str(path)])
    assert code == 2


def test_missing_mesh_file():
    code, _text = run(["betti", "--mesh", "/nonexistent/mesh.json"])
    assert code == 2


def test_invalid_tolerance():
    code, _text = run(["betti", "--mesh", "catalog:triangle",
                       "--tol", "-1"])
    assert code == 2


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


def test_degree_two_family():
    code, text = run(["chain", "--mesh", "catalog:square_grid",
                      "--mark", "full", "--family", "trimmed",
                      "--degree", "2", "--format", "structured"])
    assert code == 0
    assert json.loads(text)["passed"]


def test_bad_catalog_size(capsys):
    with pytest.raises(MeshError):
        resolve_mesh("catalog:annulus:x", "none")
    code, _text = run(["betti", "--mesh", "catalog:annulus:x"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_unsupported_full_family(capsys):
    """The full family at r <= n has no geometric decomposition on the
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
