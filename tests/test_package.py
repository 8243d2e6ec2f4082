import inspect

import ddforms

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
