"""Discrete distributional differential forms on simplicial meshes.

Builds broken finite element spaces over the strata of a simplicial complex
with partial boundary markings, assembles the piecewise ("horizontal") and
jump ("vertical") differentials, and computes harmonic spaces of the
resulting finite-dimensional Hilbert complexes.  The distrib module ties
everything together: it verifies, on concrete meshes, the isomorphism
chain connecting simplicial homology to the harmonic spaces of the
conforming complex through the graded distributional complexes.
"""

from ddforms.mesh import (
    Simplex,
    RelativePair,
    build_complex,
    betti_numbers,
    check_local_patch_condition,
    skeleton_pair,
    generate_mesh,
    mark_pair,
    load_mesh_file,
    save_mesh_file,
)
from ddforms.polyforms import (
    Family,
    check_local_exactness,
    check_geometric_decomposition,
)
from ddforms.assembly import (
    BrokenSpace,
    LinearOp,
    Subspace,
    broken_space,
    operator_D,
    operator_T,
    derivative_operator,
    kernel_space,
    export_matrix,
)
from ddforms.hilbert import (
    ComplexInstance,
    harmonic_space,
    laplace_solve,
)
from ddforms.distrib import (
    total_complex,
    conforming_complex,
    chainlike_complex,
    redirected_lambda,
    redirected_gamma,
    harmonic_lambda,
    harmonic_gamma,
    harmonic_family,
    verify_chain,
    skeleton_projection,
    verify_double_complex,
    check_conditions,
)

# every name imported above from a submodule, each listed once
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith("ddforms.")]

__version__ = "0.1.0"
