"""Reachability guard: every function of the package is reached by a small
CLI ladder, except those named below, each with the reason it stays.

The ladder runs all five commands on annulus and cube_tet, under every
marking, with trimmed r=1 and full r=2, and one trimmed r=2 ``solve`` on a
mesh file with ``--mark file``, the benchmark's solve input, with
structured output, in process and under ``sys.setprofile``.  The element-table caches are cleared first, so
what the ladder reaches does not depend on the tests run before it.  A
function no verdict reads fails the guard until it is deleted or named
here with its reason.
"""

import ast
import io
import pathlib
import sys

import ddforms
from ddforms import cli
from ddforms.mesh import generate_mesh, save_mesh_file

PKG = pathlib.Path(ddforms.__file__).parent

UNREACHED = {
    # table rendering: the ladder asks for structured output
    "cli._render_table": "table output",
    "cli._render_table.<locals>.walk": "table output",
    # the ladder's mesh file is written before the profile starts
    "mesh.save_mesh_file": "mesh-file output",
    # --dump-operators
    "cli.dump_operators": "operator dump",
    "assembly.export_matrix": "operator dump",
    "distrib.total_complex": "operator dump, and the tests' total complex",
    # SimplexGeometry, the tests' entry-by-entry reference of the element
    # Grams and of the Stokes calculus of criterion 10: perfbench/tracer.py
    # wraps inner_product by name, so the class stays with its metric
    "polyforms.SimplexGeometry.__init__": "benchmark tracer",
    "polyforms.SimplexGeometry.metric": "benchmark tracer",
    "polyforms.SimplexGeometry.integrate_monomial": "benchmark tracer",
    "polyforms.SimplexGeometry.inner_product": "benchmark tracer",
    # __repr__s
    "mesh.Simplex.__repr__": "repr",
    "mesh.RelativePair.__repr__": "repr",
    "assembly.BrokenSpace.__repr__": "repr",
    "assembly.LinearOp.__repr__": "repr",
    "assembly.Subspace.__repr__": "repr",
    "hilbert.ComplexInstance.__repr__": "repr",
    "hilbert.ComplexInstance.dims": "the repr's dimensions, also read by tests",
    # perfbench/tracer.py wraps it by name; the tests' dense reference
    "assembly.BrokenSpace.gram": "benchmark tracer and the tests' dense "
                                 "reference of the factor",
}


def defined_functions():
    """Qualified names, as code objects give them, of every function and
    method defined in the package's modules."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")

    for path in sorted(PKG.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def clear_caches():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ddforms"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_every_function_is_reached_or_allowlisted(tmp_path):
    codes = set()
    mesh_file = str(tmp_path / "cube_tet-half.json")
    save_mesh_file(generate_mesh("cube_tet", 1, "half"), mesh_file)

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for command in ("betti", "check", "harmonic", "chain", "solve"):
            for mesh in ("annulus", "cube_tet"):
                for mark in ("none", "full", "half"):
                    for family, r in (("trimmed", "1"), ("full", "2")):
                        cli.main([command, "--mesh", f"catalog:{mesh}",
                                  "--mark", mark, "--family", family,
                                  "--degree", r, "--format", "structured"],
                                 out=io.StringIO())
        cli.main(["solve", "--mesh", mesh_file, "--mark", "file",
                  "--family", "trimmed", "--degree", "2",
                  "--format", "structured"], out=io.StringIO())
    finally:
        sys.setprofile(previous)
    reached = {f"{pathlib.Path(code.co_filename).stem}.{code.co_qualname}"
               for code in codes if code.co_filename.startswith(str(PKG))}
    unreached = defined_functions() - reached
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached"
    assert sorted(UNREACHED.keys() - unreached) == [], "reached now"
