import numpy as np
import pytest

from ddforms import assembly, distrib
from ddforms.mesh import RelativePair, generate_mesh

# The reference relative singular-value cutoff of the float cross-checks,
# against max(s_max, 1).
RANK_RTOL = 1e-9

_CACHE = {}


def svd_null(mat):
    """The float nullspace of a matrix from its full SVD, with singular
    values above RANK_RTOL * max(s_max, 1) counted: an orthonormal basis,
    and the singular values that count."""
    mat = np.asarray(mat, float)
    if not mat.size:
        return np.eye(mat.shape[1]), np.zeros(0)
    s, vt = np.linalg.svd(mat)[1:]
    rank = int(np.sum(s > RANK_RTOL * max(s[0], 1.0)))
    return vt[rank:].T, s[:rank]


def dense(triplets, shape):
    """The dense integer matrix of triplets with distinct (row, col)
    pairs: the tests' reference for an integer kernel basis."""
    rows, cols, vals = triplets
    out = np.zeros(shape, np.asarray(vals).dtype)
    out[rows, cols] = vals
    return out


def dense_basis(sub):
    """The dense integer basis Z of a kernel subspace."""
    return dense(sub.triplets, (sub.ambient.dim, sub.dim))


@pytest.fixture(scope="session")
def catalog():
    """Shared mesh factory so per-mesh caches persist across tests."""

    def get(name, size=1, mark="none"):
        key = (name, size, mark)
        if key not in _CACHE:
            _CACHE[key] = generate_mesh(name, size, mark)
        return _CACHE[key]

    return get


@pytest.fixture
def unweighted_total(monkeypatch):
    """The total complex of a pair under a second metric: built on a fresh
    copy of the pair, whose mesh weights are all 1.  Asserts that the
    copy's Grams differ from the weighted ones of the pair itself, so a
    comparison of the two complexes compares two different metrics."""
    copies = []
    weight = assembly.mesh_weight

    def unit_on_copies(pair, simplex):
        if any(pair is c for c in copies):
            return 1.0
        return weight(pair, simplex)

    monkeypatch.setattr(assembly, "mesh_weight", unit_on_copies)

    def build(pair, family):
        copy = RelativePair(pair.coords, pair.all_simplices(), pair.marked,
                            top_dim=pair.top_dim, parent=pair.parent)
        copies.append(copy)
        cx = distrib.total_complex(copy, family)
        weighted = distrib.total_complex(pair, family)
        assert any(not np.allclose(a.gram, b.gram)
                   for a, b in zip(cx.spaces, weighted.spaces))
        return cx

    return build
