import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.errors import DegenerateConfig, DegenerateHeights, FlipForgeError
from flipforge.flips import enumerate_circuits, enumerate_component
from flipforge.geometry import placing_triangulation
from flipforge.io import format_triangulation, parse_triangulation
from flipforge.triangulation import (
    Triangulation,
    dual_diameter,
    dual_graph,
    is_fine,
    is_regular,
    is_star,
    link_of,
    regular_from_heights,
    require_valid,
    validate,
)
from closure_oracle import lower_envelope_value
from conftest import polygon_triangulations


def test_validate_square_diagonal(unit_square):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    assert validate(tri, unit_square).ok


def test_validate_overlapping_square(unit_square):
    report = validate(Triangulation([(0, 1, 2), (0, 1, 3)]), unit_square)
    assert not report.ok
    assert report.first_violation == "c"


def test_validate_single_simplex():
    config = ff.PointConfig(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert validate(Triangulation([(0, 1, 2, 3)]), config).ok


def test_validate_bad_ids(unit_square):
    report = validate(Triangulation([(0, 1, 9)]), unit_square)
    assert not report.ok and report.first_violation == "d"


def test_validate_gap(hexagon):
    # missing simplices: volume falls short
    report = validate(Triangulation([(0, 1, 2), (0, 2, 3)]), hexagon)
    assert not report.ok
    assert report.first_violation == "a"


def test_canonical_key_order_independent():
    a = Triangulation([(0, 2, 3), (0, 1, 2)])
    b = Triangulation([(0, 1, 2), (0, 2, 3)])
    assert a.canonical_key == b.canonical_key
    assert hash(a) == hash(b)


def test_canonical_key_distinct(unit_square):
    a = Triangulation([(0, 1, 2), (0, 2, 3)])
    b = Triangulation([(0, 1, 3), (1, 2, 3)])
    assert a.canonical_key != b.canonical_key


def test_canonical_key_roundtrip():
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    again = parse_triangulation(format_triangulation(tri))
    assert again.canonical_key == tri.canonical_key


def test_canonical_key_injective_on_square_component(lattice_square):
    table = enumerate_circuits(lattice_square)
    from flipforge.datagen import initial_triangulation

    comp = enumerate_component(initial_triangulation(lattice_square), table)
    keys = {}
    for tri in comp.states.values():
        key = tri.canonical_key
        assert key not in keys or keys[key] == tri.simplices
        keys[key] = tri.simplices


def test_link_of_simplex_face():
    tri = Triangulation([(0, 1, 2, 3)])
    assert link_of(tri, {0, 1}) == frozenset({frozenset({2, 3})})


def test_link_of_square_diagonal():
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    assert link_of(tri, {0, 2}) == frozenset({frozenset({1}), frozenset({3})})


def test_link_of_maximal_simplex():
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    assert link_of(tri, {0, 1, 2}) == frozenset({frozenset()})


def test_link_of_missing_face():
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    with pytest.raises(ValueError):
        link_of(tri, {1, 3})


def test_dual_graph_fan(hexagon):
    tri = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    graph = dual_graph(tri)
    assert graph.edges == ((0, 1), (1, 2), (2, 3))
    assert dual_diameter(tri) == 3


def test_dual_graph_single_simplex():
    tri = Triangulation([(0, 1, 2)])
    graph = dual_graph(tri)
    assert graph.edges == ()
    assert dual_diameter(tri) == 0


def test_dual_graph_cube_five_split(cube, cube_corner_tri):
    assert validate(cube_corner_tri, cube).ok
    graph = dual_graph(cube_corner_tri)
    # oracle: pairwise facet comparison
    expected = set()
    sims = cube_corner_tri.simplices
    for a, b in itertools.combinations(range(len(sims)), 2):
        if len(set(sims[a]) & set(sims[b])) == 3:
            expected.add((a, b))
    assert set(graph.edges) == expected
    assert len(graph.edges) == 4
    assert dual_diameter(cube_corner_tri) == 2


def test_is_fine(lattice_square):
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    assert not is_fine(corners, lattice_square)
    fan = Triangulation(
        [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
    )
    assert is_fine(fan, lattice_square)
    assert is_star(fan, lattice_square, 4)


def test_fine_automatic_for_extreme_configs(hexagon):
    for tri_set in polygon_triangulations(6):
        tri = Triangulation(sorted(tri_set))
        assert is_fine(tri, hexagon)


def test_is_star(lattice_square):
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    assert not is_star(corners, lattice_square, 4)
    with pytest.raises(ValueError):
        is_star(corners, lattice_square, 99)


def test_regular_all_hexagon_triangulations(hexagon):
    tris = polygon_triangulations(6)
    assert len(tris) == 14
    for tri_set in tris:
        tri = Triangulation(sorted(tri_set))
        assert validate(tri, hexagon).ok
        flag, witness = is_regular(tri, hexagon)
        assert flag
        assert regular_from_heights(hexagon, witness).canonical_key == tri.canonical_key


def test_mother_of_all_examples_not_regular(mother_config, mother_nonregular):
    assert validate(mother_nonregular, mother_config).ok
    flag, witness = is_regular(mother_nonregular, mother_config)
    assert not flag and witness is None


def test_regular_from_heights_square_diagonal(unit_square):
    # verified by direct lower-hull computation: the circuit functional
    # -w0 + w1 - w2 + w3 is +2 > 0, so the (0,2) diagonal is folded in
    tri = regular_from_heights(unit_square, [0, 1, 0, 1])
    assert tri.simplices == ((0, 1, 2), (0, 2, 3))


def test_regular_from_heights_simplex_any_heights():
    config = ff.PointConfig(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tri = regular_from_heights(config, [5, -3, 2, 7])
    assert tri.simplices == ((0, 1, 2, 3),)


def test_regular_from_heights_flat_lift(unit_square):
    with pytest.raises(DegenerateHeights):
        regular_from_heights(unit_square, [1, 1, 1, 1])
    # affine (non-constant) lifts are equally flat
    with pytest.raises(DegenerateHeights):
        regular_from_heights(unit_square, [0, 1, 1, 0])


def test_regular_roundtrip_random_heights(unit_square, hexagon, bipyramid):
    rnd = random.Random(20250810)
    for config in (unit_square, hexagon, bipyramid):
        done = 0
        while done < 100:
            heights = [Fraction(rnd.randint(-400, 400), 64) for _ in range(config.n)]
            try:
                tri = regular_from_heights(config, heights)
            except DegenerateHeights:
                continue
            done += 1
            assert validate(tri, config).ok
            flag, witness = is_regular(tri, config)
            assert flag
            assert regular_from_heights(config, witness).canonical_key == tri.canonical_key


def test_lower_envelope_value(unit_square):
    assert lower_envelope_value(unit_square, [0, 1, 0, 1], (Fraction(1, 2), Fraction(1, 2))) == 0
    assert lower_envelope_value(unit_square, [0, 1, 0, 1], (0, 0)) == 0
    assert lower_envelope_value(unit_square, [0, 1, 0, 1], (1, 0)) == 1


def test_validate_volume_identity_exact(hexagon):
    # sum over any of the 14 triangulations equals the hull volume exactly
    hull_volume = hexagon.hull_volume()
    for tri_set in polygon_triangulations(6):
        tri = Triangulation(sorted(tri_set))
        total = sum(
            ff.simplex_volume([hexagon.points[i] for i in s]) for s in tri.simplices
        )
        assert total == hull_volume


def _random_points(draw, dim, rational):
    coord = st.integers(-6, 6)
    if rational:
        coord = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    return draw(
        st.lists(st.tuples(*[coord] * dim), min_size=dim + 2, max_size=dim + 4, unique=True)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.data())
def test_validate_volumes_match_simplex_volume(dim, rational, data):
    points = _random_points(data.draw, dim, rational)
    try:
        config = ff.PointConfig(dim, points, is_lattice=False)
    except DegenerateConfig:
        assume(False)
    _rows, scale = config.int_rows()
    unit = scale**dim * math.factorial(dim)
    for simplex in itertools.combinations(range(config.n), dim + 1):
        expected = ff.simplex_volume([config.points[i] for i in simplex])
        assert Fraction(abs(config.simplex_det(simplex)), unit) == expected
    tri = Triangulation(placing_triangulation(config))
    assert validate(tri, config).ok
    if len(tri.simplices) > 1:
        # a missing simplex shows as the exact volume deficit
        partial = Triangulation(tri.simplices[1:])
        report = validate(partial, config)
        assert report.first_violation == "a"
        total = sum(ff.simplex_volume([config.points[i] for i in s]) for s in partial.simplices)
        assert report.details[0][1] == f"volume sum {total} != hull volume {config.hull_volume()}"


def test_require_valid_raises_one_line_error(unit_square):
    require_valid(Triangulation([(0, 1, 2), (0, 2, 3)]), unit_square)
    with pytest.raises(FlipForgeError, match="invalid triangulation") as err:
        require_valid(Triangulation([(0, 1, 2)]), unit_square)
    assert "\n" not in str(err.value)
