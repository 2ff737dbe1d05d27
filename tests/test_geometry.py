import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.errors import DegenerateConfig, DegenerateHeights
from flipforge.geometry import (
    PointConfig,
    _oriented_plane,
    _scaled_int_rows,
    lattice_points,
    make_point,
    placing_triangulation,
    simplex_volume,
    snap_to_rational,
)
from flipforge.triangulation import regular_from_heights
from conftest import cross4d_box_points, degenerate_point_lists, point_lists
from kernel_oracle import (
    _hyperplane_from_basis,
    _int_det,
    _kernel_plane,
    affine_dependence,
    affine_rank,
    box_scan_lattice_points,
    facet_value,
    hull_contains,
)


def test_dependence_collinear_triple():
    lam = affine_dependence([(0,), (1,), (2,)])
    assert lam == (1, -2, 1)


def test_dependence_square_corners():
    lam = affine_dependence([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert lam == (1, -1, -1, 1)


def test_dependence_independent_points_absent():
    assert affine_dependence([(0, 0), (1, 0), (0, 1)]) is None


def test_dependence_dimension_mismatch():
    with pytest.raises(ValueError):
        affine_dependence([(0, 0), (1,)])


def test_dependence_identities_random():
    import random

    rnd = random.Random(20240817)
    for _ in range(200):
        dim = rnd.choice([2, 3, 4])
        count = rnd.randint(2, dim + 2)
        pts = [tuple(Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(dim)) for _ in range(count)]
        lam = affine_dependence(pts)
        if lam is None:
            assert affine_rank(pts) == len(pts) - 1
            continue
        assert sum(lam) == 0
        for i in range(dim):
            assert sum(l * p[i] for l, p in zip(lam, pts)) == 0
        first = next(v for v in lam if v != 0)
        assert first == 1


def test_hull_cube(cube):
    hull = cube.hull()
    assert len(hull.facets) == 6
    assert hull.extreme == frozenset(range(8))


def test_hull_simplex():
    config = ff.PointConfig(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(config.hull().facets) == 4


def exhaustive_extreme_points(config):
    """Oracle: v is extreme iff some halfspace separates it strictly.

    Checks all hyperplanes through dim-subsets of the other points plus
    Caratheodory containment: v is NOT extreme iff it lies in the hull of the
    others, decided by searching all (dim+1)-subsets for a containing simplex.
    """
    extreme = set()
    n = config.n
    for v in range(n):
        others = [config.points[i] for i in range(n) if i != v]
        inside = False
        for subset in itertools.combinations(others, config.dim + 1):
            coords = barycentric_or_none(config.points[v], list(subset))
            if coords is not None:
                inside = True
                break
        if not inside:
            extreme.add(v)
    return frozenset(extreme)


def barycentric_or_none(point, simplex_pts):
    from closure_oracle import _barycentric

    return _barycentric(point, simplex_pts)


def test_extreme_points_with_centroid():
    base = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    centroid = tuple(Fraction(sum(c), 4) for c in zip(*[make_point(p) for p in base]))
    config = ff.PointConfig(3, base + [centroid])
    hull = config.hull()
    assert len(hull.extreme) == 4
    assert hull.extreme == exhaustive_extreme_points(config)
    assert len(hull.facets) == 4


def test_extreme_points_random_matches_oracle():
    import random

    rnd = random.Random(7)
    for trial in range(10):
        dim = rnd.choice([2, 3])
        pts = set()
        while len(pts) < dim + 4:
            pts.add(tuple(rnd.randint(-3, 3) for _ in range(dim)))
        try:
            config = ff.PointConfig(dim, sorted(pts))
        except DegenerateConfig:
            continue
        assert config.hull().extreme == exhaustive_extreme_points(config)


def test_degenerate_hull_rejected():
    with pytest.raises(DegenerateConfig):
        ff.PointConfig(2, [(0, 0), (1, 1), (2, 2)])


def test_simplex_volume_standard():
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)


def test_simplex_volume_degenerate():
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0


def test_simplex_volume_triangle():
    assert simplex_volume([(0, 0), (1, 0), (1, 1)]) == Fraction(1, 2)


def test_simplex_volume_wrong_count():
    with pytest.raises(ValueError):
        simplex_volume([(0, 0), (1, 0)])


def test_lattice_points_square(lattice_square):
    pts = lattice_points(lattice_square)
    assert len(pts) == 9
    assert pts == sorted(pts)


def test_lattice_points_cross_polytope_matches_box_scan_oracle():
    config = ff.PointConfig(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    pts = lattice_points(config)
    # oracle: brute-force box scan with Caratheodory containment
    expected = []
    for cand in itertools.product(range(-1, 2), repeat=3):
        p = make_point(cand)
        inside = False
        for subset in itertools.combinations(config.points, 4):
            if barycentric_or_none(p, list(subset)) is not None:
                inside = True
                break
        if inside:
            expected.append(p)
    assert sorted(pts) == sorted(expected)
    assert len(pts) == 7


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lattice_points_match_the_fraction_box_scan_on_random_lattice_polytopes(dim, data):
    coord = st.integers(-2, 2)
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 4))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    assert lattice_points(config) == box_scan_lattice_points(config)


@pytest.mark.parametrize("seed", range(10))
def test_lattice_points_match_the_fraction_box_scan_on_cross4d_draws(seed):
    config = ff.PointConfig(4, cross4d_box_points(seed, 2 + seed % 9))
    points = lattice_points(config)
    assert points == box_scan_lattice_points(config)
    assert set(config.points) <= set(points)


def test_lattice_points_requires_lattice():
    config = ff.PointConfig(1, [(0,), (Fraction(1, 2),), (1,)], is_lattice=False)
    with pytest.raises(ValueError):
        lattice_points(config)


def test_lattice_points_segment():
    config = ff.PointConfig(1, [(0,), (1,)])
    assert lattice_points(config) == [make_point([0]), make_point([1])]


def test_hull_segment_keeps_both_ends():
    # points beyond the starting pair on both sides: each replaces the end it
    # sees, as the empty ridge coned to the new point
    config = ff.PointConfig(1, [(0,), (1,), (3,), (-2,)])
    hull = config.hull()
    assert [(f.normal, f.offset, f.vertex_ids) for f in hull.facets] == [
        ((-1,), 2, {3}),
        ((1,), 3, {2}),
    ]
    assert hull.extreme == {2, 3}
    assert lattice_points(config) == [make_point([x]) for x in range(-2, 4)]


def laplace_det(rows):
    """Determinant of a small square integer matrix by cofactor expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, v in enumerate(rows[0])
        if v
    )


def integer_points(config):
    """The points scaled by a common denominator: same facets, same convex combinations."""
    scale = math.lcm(*[c.denominator for p in config.points for c in p])
    return [[int(c * scale) for c in p] for p in config.points]


def hyperplane(points):
    """(normal, base) of the hyperplane through dim integer points; normal 0 if they span none."""
    base = points[0]
    edges = [[a - b for a, b in zip(q, base)] for q in points[1:]]
    dim = len(base)
    normal = [(-1) ** j * laplace_det([e[:j] + e[j + 1 :] for e in edges]) for j in range(dim)]
    return normal, base


def side(plane, point):
    normal, base = plane
    return sum(n * (a - b) for n, a, b in zip(normal, point, base))


def brute_force_facets(config):
    """Oracle: the point sets on every hyperplane through dim points with all points on one side."""
    pts = integer_points(config)
    facets = set()
    for subset in itertools.combinations(pts, config.dim):
        plane = hyperplane(subset)
        values = [side(plane, p) for p in pts]
        if all(v == 0 for v in values):
            continue  # the subset spans no hyperplane
        if all(v >= 0 for v in values) or all(v <= 0 for v in values):
            facets.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return facets


def brute_force_extreme(config):
    """Oracle: a point is extreme unless a nondegenerate simplex of other points holds it.

    Points equal to the candidate are not "other" points, so every copy of a
    vertex is extreme.
    """
    pts = integer_points(config)
    simplices = []  # (vertices, facet planes with the opposite vertex on the >= 0 side)
    for s in itertools.combinations(pts, config.dim + 1):
        planes = [hyperplane(s[:k] + s[k + 1 :]) for k in range(len(s))]
        signs = [side(plane, s[k]) for k, plane in enumerate(planes)]
        if all(signs):
            simplices.append((s, [([n * v for n in nrm], b) for (nrm, b), v in zip(planes, signs)]))
    extreme = set()
    for i, p in enumerate(pts):
        if not any(
            p not in s and all(side(plane, p) >= 0 for plane in planes) for s, planes in simplices
        ):
            extreme.add(i)
    return frozenset(extreme)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hull_matches_brute_force_oracle(dim, data):
    if dim == 5:  # a lift of 4D data, as regular_from_heights builds
        base = data.draw(point_lists(4))
        heights = data.draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
        points = [p + (w,) for p, w in zip(base, heights)]
    else:
        points = data.draw(point_lists(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    hull = config.hull()
    expected = brute_force_facets(config)
    assert len(hull.facets) == len(expected)
    assert {f.vertex_ids for f in hull.facets} == expected
    for f in hull.facets:
        values = [facet_value(f, p) for p in config.points]
        assert all(v <= 0 for v in values)
        assert {i for i, v in enumerate(values) if v == 0} == f.vertex_ids
    if dim < 5:  # the extreme oracle's C(n, 6) simplices are most of a 5D case's time
        assert hull.extreme == brute_force_extreme(config)


def test_snap_basics():
    assert snap_to_rational([0.5]) == (Fraction(1, 2),)
    assert snap_to_rational([0.0]) == (Fraction(0),)
    third = snap_to_rational([1.0 / 3.0])
    assert third == (Fraction(round((1.0 / 3.0) * 2**20), 2**20),)
    assert third == (Fraction(349525, 1048576),)


def test_snap_idempotent():
    import random

    rnd = random.Random(99)
    for _ in range(300):
        x = rnd.uniform(-50, 50)
        snapped = snap_to_rational([x])[0]
        again = snap_to_rational([float(snapped)])[0]
        assert snapped == again


def test_snap_rejects_nonfinite():
    with pytest.raises(ValueError):
        snap_to_rational([float("inf")])


def test_hull_volume_matches_cone_decomposition(cube, hexagon, bipyramid):
    for config in (cube, hexagon, bipyramid):
        assert config.hull_volume() == cone_decomposition_volume(config)


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hull_volume_matches_a_regular_triangulation(dim, data):
    # validate takes its facets and its volume from the same placing pass, so the
    # volume is checked against a triangulation that pass does not build
    try:
        config = ff.PointConfig(dim, data.draw(point_lists(dim)))
    except DegenerateConfig:
        assume(False)
    heights = data.draw(st.lists(st.integers(0, 10**6), min_size=config.n, max_size=config.n))
    try:
        tri = regular_from_heights(config, heights)
    except DegenerateHeights:
        assume(False)
    volumes = [simplex_volume([config.points[i] for i in s]) for s in tri.simplices]
    assert config.hull_volume() == sum(volumes)


def cone_decomposition_volume(config):
    """Oracle: sum of cones from the vertex centroid over triangulated facets."""
    pts = config.points
    centroid = tuple(Fraction(sum(c), len(pts)) for c in zip(*pts))
    total = Fraction(0)
    for facet in config.hull().facets:
        ids = sorted(facet.vertex_ids)
        coords = [pts[i] for i in ids]
        # project out a coordinate with nonzero normal component to triangulate
        axis = max(range(config.dim), key=lambda a: abs(facet.normal[a]))
        keep = [a for a in range(config.dim) if a != axis]
        flat = PointConfig(
            config.dim - 1, [tuple(p[a] for a in keep) for p in coords], is_lattice=False
        ) if config.dim > 2 else None
        if config.dim == 2:
            simplices = [(0, 1)] if len(ids) == 2 else None
            assert simplices is not None
        else:
            simplices = placing_triangulation(flat)
        for s in simplices:
            cone = [pts[ids[i]] for i in s] + [centroid]
            total += simplex_volume(cone)
    return total


def test_placing_triangulation_is_valid(cube, hexagon, bipyramid, lattice_square):
    from flipforge.triangulation import Triangulation, validate

    for config in (cube, hexagon, bipyramid, lattice_square):
        tri = Triangulation(placing_triangulation(config))
        assert validate(tri, config).ok


def test_hull_volumes_analytic(cube, unit_square, lattice_square):
    assert cube.hull_volume() == 1
    assert unit_square.hull_volume() == 1
    assert lattice_square.hull_volume() == 4


def test_lattice_points_superset_and_containment(lattice_square, lattice_octahedron):
    for config in (lattice_square, lattice_octahedron):
        pts = lattice_points(config)
        hull = config.hull()
        for p in config.points:
            assert p in pts  # config's own integral points are returned
        for p in pts:
            assert hull_contains(hull, p)  # every returned point passes containment


def oracle_plane(rows, face, inside):
    """The cofactor plane through ``face``, primitive, with ``rows[inside]`` on the side <= 0."""
    normal, offset = _hyperplane_from_basis([rows[i] for i in face], len(rows[0]))
    g = math.gcd(*normal, offset)
    if sum(a * b for a, b in zip(normal, rows[inside])) - offset > 0:
        g = -g
    return tuple(v // g for v in normal), offset // g


def oracle_volume(points):
    """|det| / d! of the edge vectors by the Bareiss determinant."""
    rows, scale = _scaled_int_rows([make_point(p) for p in points])
    dim = len(rows[0])
    det = _int_det([[a - b for a, b in zip(r, rows[0])] for r in rows[1:]])
    return Fraction(abs(det), scale**dim * math.factorial(dim))


def check_planes_and_volumes(config):
    """Every final boundary face of the placing pass has the oracle's plane, oriented
    by every point off it; every placing simplex and every window of dim+1
    consecutive points, flat ones included, has the oracle's volume."""
    rows, _scale = config.int_rows()
    simplices, boundary = config.placing()
    for face, plane in boundary.items():
        normal, offset = _hyperplane_from_basis([rows[i] for i in face], config.dim)
        off = [i for i, row in enumerate(rows) if sum(map(operator.mul, normal, row)) != offset]
        assert off  # the configuration spans, so some point is off every face's plane
        for i in off:
            assert _oriented_plane(rows, face, i) == oracle_plane(rows, face, i)
            assert plane == oracle_plane(rows, face, i)  # every point is inside the hull
    windows = [range(k, k + config.dim + 1) for k in range(config.n - config.dim)]
    for s in simplices + windows:
        points = [config.points[i] for i in s]
        assert simplex_volume(points) == oracle_volume(points)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_planes_and_volumes_match_the_cofactor_and_determinant_oracles(dim, data):
    try:
        config = ff.PointConfig(dim, data.draw(degenerate_point_lists(dim)))
    except DegenerateConfig:
        assume(False)
    check_planes_and_volumes(config)
    if dim == 5:
        return
    # the lift ``regular_from_heights`` builds and takes the lower hull of
    heights = data.draw(st.lists(st.integers(0, 20), min_size=config.n, max_size=config.n))
    try:
        lifted = PointConfig(dim + 1, [p + (Fraction(w),) for p, w in zip(config.points, heights)])
    except DegenerateConfig:
        return
    check_planes_and_volumes(lifted)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_edge_vector_planes_match_the_homogeneous_kernel_route(dim, data):
    # a random face of dim points and a point off its plane, 21-bit coordinates
    coords = st.integers(-(1 << 20), 1 << 20)
    rows = [tuple(data.draw(st.lists(coords, min_size=dim, max_size=dim))) for _ in range(dim + 1)]
    face, inside = tuple(range(dim)), dim
    edges = [[a - b for a, b in zip(rows[i], rows[0])] for i in range(1, dim + 1)]
    assume(_int_det(edges) != 0)  # the face spans a hyperplane and the point is off it
    assert _oriented_plane(rows, face, inside) == _kernel_plane(rows, face, inside)
