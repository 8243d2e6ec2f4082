import ast
import inspect
import pathlib

import ddforms
from ddforms import cli, distrib, mesh, polyforms

from test_reach import UNREACHED

# user outputs the reach ladder does not ask for: the operator dump's
# builders and the mesh-file writer
USER_OUTPUTS = {"total_complex", "export_matrix", "save_mesh_file"}


def test_exports_resolve():
    assert len(ddforms.__all__) == len(set(ddforms.__all__))
    for name in ddforms.__all__:
        assert hasattr(ddforms, name), name


def test_exports_name_nothing_test_only():
    """No exported function is one that only the tests reach: such a
    reference lives in tests/reference.py, outside the package."""
    test_only = set()
    for name in ddforms.__all__:
        value = getattr(ddforms, name)
        module = value.__module__.rpartition(".")[2]
        if inspect.isfunction(value) and \
                f"{module}.{value.__qualname__}" in UNREACHED:
            test_only.add(name)
    assert sorted(test_only - USER_OUTPUTS) == []


def test_incidence_reference_lives_in_tests():
    """``mesh.facet_incidence`` computes the incidence signs inline; the
    per-facet ``orientation_sign`` is the tests' reference alone."""
    assert "orientation_sign" not in ddforms.__all__
    assert not hasattr(mesh, "orientation_sign")


def _tree(module):
    return ast.parse(pathlib.Path(module.__file__).read_text())


def test_distrib_reads_no_stratum_layout():
    """distrib places and restricts strata only through
    ``assembly.placement``: it reads no ``.offset`` or ``.block`` and
    calls no ``stratum_slice``."""
    names = {getattr(node, "attr", None) or getattr(node, "id", None)
             for node in ast.walk(_tree(distrib))
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"offset", "block", "stratum_slice"}


def test_form_algebra_lives_in_tests():
    """The element layer builds its tables as integer maps on the reduced
    frame: polyforms defines no float form algebra, its element spaces
    carry no basis of forms, and ``SimplexGeometry`` keeps only the metric
    methods the benchmark tracer reads.  The form algebra is the tests'
    reference in tests/reference.py."""
    for name in ("BarycentricForm", "whitney_form", "_monomial_times",
                 "_coeff_matrix"):
        assert name not in ddforms.__all__, name
        assert not hasattr(polyforms, name), name
    space = polyforms.Family("trimmed", 1).space(2, 1)
    assert not hasattr(space, "basis") and not hasattr(space, "coefficients")
    methods = {name for name, value in vars(polyforms.SimplexGeometry).items()
               if inspect.isfunction(value)}
    assert methods == {"__init__", "metric", "integrate_monomial",
                       "inner_product"}


# The element tables the decomposition check shares with assembly: integer
# maps on the reduced frame, which the walk below reaches and checks too.
ELEMENT_TABLES = {"_family_space", "_generator_terms", "_generator_table",
                  "_frame_table", "_trace_matrix"}


def test_decomposition_check_takes_no_symbolic_trace():
    """``check_geometric_decomposition`` and every polyforms function it
    reaches by name, the element tables included, call no ``.trace``,
    ``.reduced``, ``.derivative`` or ``_vanishes``: the identities are
    integer comparisons of table products, and the tables integer maps."""
    functions = {node.name: node for node in _tree(polyforms).body
                 if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["check_geometric_decomposition"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", None) or \
                getattr(node.func, "id", None)
            assert callee not in ("trace", "reduced", "derivative",
                                  "_vanishes"), (name, callee)
            if isinstance(node.func, ast.Name) and callee in functions:
                todo.append(callee)
    assert {"_decomposition_entry", "_extension_identities", "_face_trace",
            "_extension_coords"} | ELEMENT_TABLES <= seen


def test_element_tables_take_one_exact_solve():
    """Within polyforms only ``_inverse`` and ``_bubble_coeffs`` name
    ``_kernel``, and only ``_kernel`` names ``exact.kernel``: every table
    that solves A X = B goes through ``_solve`` and an ``_inverse``."""
    names = {"_kernel": set(), "exact.kernel": set()}

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_kernel":
                names["_kernel"].add(owner)
            if isinstance(child, ast.Attribute) and child.attr == "kernel" \
                    and getattr(child.value, "id", None) == "exact":
                names["exact.kernel"].add(owner)
            walk(child, owner)

    walk(_tree(polyforms), None)
    assert names == {"_kernel": {"_inverse", "_bubble_coeffs"},
                     "exact.kernel": {"_kernel"}}


def _pairs_through_the_factor(node):
    """A product ``….mul_lt(…).T @ …``: a Gram pairing through L."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
        and isinstance(node.left, ast.Attribute) and node.left.attr == "T" \
        and isinstance(node.left.value, ast.Call) \
        and getattr(node.left.value.func, "attr", None) == "mul_lt"


def test_one_laplacian_application_and_one_pairing():
    """The metric has one path each way: no module in the package defines
    ``adjoint`` or ``hodge_laplacian``, ``cli.run_solve`` applies the
    differentials through ``whitened_diff`` and pairs through
    ``subspace_transfer``, and only ``hilbert.subspace_transfer`` takes a
    ``….mul_lt(…).T @ …`` product."""
    defined, pairing = set(), set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                defined.add(child.name)
                walk(child, f"{owner.partition('.')[0]}.{child.name}")
                continue
            if _pairs_through_the_factor(child):
                pairing.add(owner)
            walk(child, owner)

    package = pathlib.Path(ddforms.__file__).parent
    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem)
    assert not defined & {"adjoint", "hodge_laplacian"}
    assert pairing == {"hilbert.subspace_transfer"}
    (run_solve,) = [fn for fn in _tree(cli).body
                    if isinstance(fn, ast.FunctionDef)
                    and fn.name == "run_solve"]
    called = {getattr(node.func, "attr", None) or
              getattr(node.func, "id", None)
              for node in ast.walk(run_solve) if isinstance(node, ast.Call)}
    assert {"whitened_diff", "subspace_transfer"} <= called


def _formats_a_float(node):
    """A float presentation type in a format spec, or a call of round or
    format."""
    if isinstance(node, ast.FormattedValue) and node.format_spec:
        spec = "".join(v.value for v in node.format_spec.values
                       if isinstance(v, ast.Constant))
        return spec[-1:] in tuple("eEfFgG%")
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", None) in ("round", "format")


def test_cli_formats_floats_in_one_function():
    """Every float formatting in cli sits in the canonical report
    writer."""
    formatting = {fn.name for fn in _tree(cli).body
                  if isinstance(fn, ast.FunctionDef)
                  and any(map(_formats_a_float, ast.walk(fn)))}
    assert formatting == {"_canonical"}
