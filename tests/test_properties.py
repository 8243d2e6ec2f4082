"""Property-based checks on random marked sub-grids of the square grid."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ddforms import distrib
from ddforms.mesh import _grid_cells_2d, betti_numbers, build_complex
from ddforms.polyforms import whitney

JITTER = st.floats(-0.15, 0.15)


@st.composite
def marked_subgrids(draw):
    """A jittered triangulation of some unit squares of a grid of at most
    4 x 4 squares (holes and disconnected pieces allowed), with a random
    set of its boundary facets marked."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    squares = [(i, j) for i in range(w) for j in range(h)]
    holes = draw(st.sets(st.sampled_from(squares),
                         max_size=len(squares) - 1))
    cells, coords = _grid_cells_2d([s for s in squares if s not in holes])
    shifts = draw(st.lists(st.tuples(JITTER, JITTER), min_size=len(coords),
                           max_size=len(coords)))
    coords = [(x + a, y + b) for (x, y), (a, b) in zip(coords, shifts)]
    facets = build_complex(cells, coords).boundary_facets()
    marked = [f.vertices for f in facets if draw(st.booleans())]
    return build_complex(cells, coords, marked)


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(marked_subgrids())
def test_harmonic_dimensions_match_betti(pair):
    fam = whitney()
    assume(distrib.check_conditions(pair, fam)["passed"])
    betti = betti_numbers(pair)
    n = pair.top_dim
    for k in range(n + 1):
        assert distrib.harmonic_conforming(pair, fam, k).dim == betti[n - k]
        assert distrib.harmonic_chain(pair, fam, n - k).dim == betti[n - k]
        assert distrib.verify_chain(pair, fam, k)["passed"]
