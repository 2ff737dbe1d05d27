import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.flips import enumerate_circuits
from flipforge.io import read_point_config
from flipforge.triangulation import Triangulation

# CI runs the property tests on a fixed example sequence with no time limit
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def unit_square():
    return ff.PointConfig(2, [(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def unit_square_table(unit_square):
    return enumerate_circuits(unit_square)


@pytest.fixture(scope="session")
def trapezoid():
    # corners (0,0),(2,0),(1,1),(0,1): one flippable diagonal
    return ff.PointConfig(2, [(0, 0), (2, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def hexagon():
    return ff.PointConfig(2, [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])


@pytest.fixture(scope="session")
def hexagon_table(hexagon):
    return enumerate_circuits(hexagon)


def convex_polygon(n):
    """Convex n-gon with exact rational coordinates on a near-circle."""
    pts = []
    for k in range(n):
        # rational points on the unit circle via the tangent half-angle map
        t = Fraction(k, n) * 4 - 2  # sweep t in [-2, 2)
        denom = 1 + t * t
        pts.append((Fraction(1 - t * t, denom), Fraction(2 * t, denom)))
    return ff.PointConfig(2, pts)


@pytest.fixture(scope="session")
def cube():
    pts = [tuple(int(b) for b in (i & 1, (i >> 1) & 1, (i >> 2) & 1)) for i in range(8)]
    return ff.PointConfig(3, pts)


@pytest.fixture(scope="session")
def cube_table(cube):
    return enumerate_circuits(cube)


@pytest.fixture(scope="session")
def cube_corner_tri():
    # the 5-simplex split: central even-parity tetrahedron plus four corners
    return Triangulation([(0, 3, 5, 6), (0, 1, 3, 5), (0, 2, 3, 6), (0, 4, 5, 6), (3, 5, 6, 7)])


@pytest.fixture(scope="session")
def bipyramid():
    # equatorial triangle + two apexes; a single 2<->3 flip circuit
    return ff.PointConfig(
        3,
        [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (-1, -1, 0)],
    )


@pytest.fixture(scope="session")
def bipyramid_table(bipyramid):
    return enumerate_circuits(bipyramid)


@pytest.fixture(scope="session")
def mother_config():
    """Classic planar 6-point configuration with a non-regular triangulation."""
    return ff.PointConfig(
        2, [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]
    )


@pytest.fixture(scope="session")
def mother_nonregular():
    return Triangulation(
        [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5), (3, 4, 5)]
    )


@pytest.fixture(scope="session")
def lattice_square():
    return read_point_config(ff.fixture_path("square2d"))


@pytest.fixture(scope="session")
def lattice_simplex3d():
    return read_point_config(ff.fixture_path("simplex3d"))


@pytest.fixture(scope="session")
def lattice_octahedron():
    return read_point_config(ff.fixture_path("octahedron3d"))


def polygon_triangulations(n):
    """Independent oracle: all triangulations of a convex n-gon by ear recursion.

    Returns frozensets of sorted index triples over vertices 0..n-1 (in convex
    position order).  Count is the Catalan number C_{n-2}.
    """

    def rec(indices):
        if len(indices) == 2:
            return [frozenset()]
        if len(indices) == 3:
            return [frozenset([tuple(sorted(indices))])]
        first, last = indices[0], indices[-1]
        out = []
        for k in range(1, len(indices) - 1):
            tri = tuple(sorted((first, indices[k], last)))
            for left in rec(indices[: k + 1]):
                for right in rec(indices[k:]):
                    out.append(left | right | {tri})
        return out

    return {t for t in rec(list(range(n)))}


def point_lists(dim):
    """Random point lists in ``dim`` dimensions: rational, or {-1, 0, 1} lattice points."""
    rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    # a tiny integer box forces collinear, coplanar and repeated points
    lattice = st.integers(-1, 1)
    return st.one_of(
        *(
            st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 5)
            for coord in (rationals, lattice)
        )
    )


@st.composite
def degenerate_point_lists(draw, dim):
    """``point_lists`` plus repeats of drawn points and points on lines and planes through them."""
    points = draw(point_lists(dim))
    for _ in range(draw(st.integers(0, 3))):
        first, *others = draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))
        weights = [draw(st.integers(-2, 2)) for _ in others]
        points.append(
            tuple(
                first[c] + sum(w * (p[c] - first[c]) for w, p in zip(weights, others))
                for c in range(dim)
            )
        )
    return points


def cross4d_box_points(seed, extra):
    """The 4D cross-polytope conv{+-e_i}, the origin and ``extra`` more points of
    {-1, 0, 1}^4 drawn with ``seed``: the random lattice sets of 4D FRST sampling."""
    points = [tuple(s * int(i == a) for i in range(4)) for a in range(4) for s in (1, -1)]
    points.append((0, 0, 0, 0))
    rest = [p for p in itertools.product((-1, 0, 1), repeat=4) if p not in points]
    return points + random.Random(seed).sample(rest, extra)
