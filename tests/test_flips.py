import itertools
import random
from fractions import Fraction

import pytest

import flipforge as ff
from flipforge.errors import StaleAction
from flipforge.flips import (
    apply_flip,
    enumerate_circuits,
    enumerate_component,
    flippable_circuits,
    neighbors,
    reverse_action,
)
from flipforge.geometry import simplex_volume
from flipforge.triangulation import Triangulation, link_of, validate
from conftest import convex_polygon, polygon_triangulations


def test_circuits_unit_square(unit_square, unit_square_table):
    assert len(unit_square_table) == 1
    circuit = unit_square_table.circuits[0]
    assert circuit.vertices == (0, 1, 2, 3)
    # oracle: brute force over all subsets
    found = []
    for size in range(2, 5):
        for subset in itertools.combinations(range(4), size):
            pts = [unit_square.points[i] for i in subset]
            from flipforge.geometry import dependence_kernel

            basis = dependence_kernel(pts)
            if len(basis) == 1 and all(v != 0 for v in basis[0]):
                found.append(subset)
    assert found == [(0, 1, 2, 3)]


def test_circuits_bipyramid(bipyramid, bipyramid_table):
    assert len(bipyramid_table) == 1
    circuit = bipyramid_table.circuits[0]
    assert circuit.vertices == (0, 1, 2, 3, 4)
    assert set(circuit.positive) == {0, 1}  # the two apexes
    assert set(circuit.negative) == {2, 3, 4}


def test_circuits_simplex_empty():
    config = ff.PointConfig(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(enumerate_circuits(config)) == 0


def test_flippable_square(unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    actions = flippable_circuits(tri, unit_square_table)
    assert len(actions) == 1
    action = actions[0]
    assert set(action.removed) == {(0, 1, 2), (0, 2, 3)}
    assert set(action.inserted) == {(0, 1, 3), (1, 2, 3)}


def test_flippable_bipyramid_two_to_three(bipyramid, bipyramid_table):
    two = Triangulation([(0, 2, 3, 4), (1, 2, 3, 4)])
    assert validate(two, bipyramid).ok
    actions = flippable_circuits(two, bipyramid_table)
    assert len(actions) == 1
    action = actions[0]
    assert len(action.removed) == 2 and len(action.inserted) == 3
    three = apply_flip(two, action)
    assert len(three.simplices) == 3
    assert validate(three, bipyramid).ok


def test_flippable_single_simplex_empty():
    config = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1)])
    tri = Triangulation([(0, 1, 2)])
    assert flippable_circuits(tri, enumerate_circuits(config)) == []


def test_apply_flip_square(unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    action = flippable_circuits(tri, unit_square_table)[0]
    other = apply_flip(tri, action)
    assert other.simplices == ((0, 1, 3), (1, 2, 3))


def test_apply_flip_stale(unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    action = flippable_circuits(tri, unit_square_table)[0]
    other = apply_flip(tri, action)
    with pytest.raises(StaleAction):
        apply_flip(other, action)


def test_flip_involution(unit_square_table, bipyramid, bipyramid_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    action = flippable_circuits(tri, unit_square_table)[0]
    flipped = apply_flip(tri, action)
    back = apply_flip(flipped, reverse_action(flipped, unit_square_table, action))
    assert back.canonical_key == tri.canonical_key

    two = Triangulation([(0, 2, 3, 4), (1, 2, 3, 4)])
    action = flippable_circuits(two, bipyramid_table)[0]
    three = apply_flip(two, action)
    back = apply_flip(three, reverse_action(three, bipyramid_table, action))
    assert back.canonical_key == two.canonical_key


def test_neighbors_square(unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    out = neighbors(tri, unit_square_table)
    assert len(out) == 1
    assert tri.canonical_key not in {t.canonical_key for t in out}


def test_neighbors_hexagon_fan_matches_interior_edge_oracle(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    got = {t.canonical_key for t in neighbors(fan, hexagon_table)}
    # oracle: flip each interior edge of the fan inside its quadrilateral
    expected = set()
    simplices = set(fan.simplices)
    for edge, quad in (((0, 2), (0, 1, 2, 3)), ((0, 3), (0, 2, 3, 4)), ((0, 4), (0, 3, 4, 5))):
        a, b = edge
        others = [v for v in quad if v not in edge]
        removed = {s for s in simplices if set(edge) <= set(s)}
        inserted = {tuple(sorted(others + [a])), tuple(sorted(others + [b]))}
        inserted = {tuple(sorted(set(others) | {v})) for v in edge}
        new = (simplices - removed) | inserted
        expected.add(Triangulation(new).canonical_key)
    assert got == expected
    assert len(got) == 3


def test_neighbors_bipyramid_three_state(bipyramid, bipyramid_table):
    three = Triangulation([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)])
    assert validate(three, bipyramid).ok
    assert len(neighbors(three, bipyramid_table)) == 1


def test_component_square(unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    result = enumerate_component(tri, unit_square_table)
    assert len(result.states) == 2
    assert result.edge_count == 1
    assert not result.truncated


def test_component_hexagon_catalan(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    result = enumerate_component(fan, hexagon_table)
    assert len(result.states) == 14
    oracle = {frozenset(t) for t in polygon_triangulations(6)}
    assert {frozenset(t.simplices) for t in result.states.values()} == oracle


def test_component_truncation(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    result = enumerate_component(fan, hexagon_table, limit=3)
    assert result.truncated
    assert result.expansions == 3


def test_component_seed_independent(hexagon, hexagon_table, unit_square_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    first = enumerate_component(fan, hexagon_table)
    any_other = next(iter(first.states.values()))
    for other in first.states.values():
        result = enumerate_component(other, hexagon_table)
        assert result.keys == first.keys
        assert result.edge_count == first.edge_count


def cube_triangulations_bruteforce(cube):
    """Independent enumerator: exact volume cover by compatible tetrahedra.

    Depth-first over all nondegenerate 4-subsets of the corners, pruning on
    face compatibility (a triangle face shared by two chosen tetrahedra must
    be a proper shared face; interiors must not overlap).  Overlap is decided
    exactly: two tetrahedra overlap iff no separating facet hyperplane exists
    among their faces (sufficient at this scale because all candidate pairs
    either meet properly or overlap in full dimension).
    """
    corners = cube.points
    tetras = []
    for subset in itertools.combinations(range(8), 4):
        if simplex_volume([corners[i] for i in subset]) > 0:
            tetras.append(subset)

    vol = {}
    for t in tetras:
        vol[t] = simplex_volume([corners[i] for i in t])

    def interiors_overlap(a, b):
        # separating axis over both tetrahedra's facet planes, exact
        from flipforge.geometry import _scaled_int_rows
        from kernel_oracle import _hyperplane_from_basis

        pts = [corners[i] for i in a] + [corners[i] for i in b]
        rows, _ = _scaled_int_rows(pts)
        ra, rb = rows[:4], rows[4:]
        for tet, other in ((ra, rb), (rb, ra)):
            for face in itertools.combinations(range(4), 3):
                basis = [tet[i] for i in face]
                plane = _hyperplane_from_basis(basis, 3)
                if plane is None:
                    continue
                normal, offset = plane
                inside = [v for i, v in enumerate(tet) if i not in face][0]
                side = sum(n * c for n, c in zip(normal, inside)) - offset
                if side == 0:
                    continue
                if side > 0:
                    normal = tuple(-x for x in normal)
                    offset = -offset
                if all(sum(n * c for n, c in zip(normal, v)) - offset >= 0 for v in other):
                    return False
        return True

    overlap = {}

    def compatible(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in overlap:
            overlap[key] = interiors_overlap(a, b)
        return not overlap[key]

    results = set()
    target = Fraction(1)

    def extend(chosen, volume, start):
        if volume == target:
            results.add(frozenset(chosen))
            return
        for idx in range(start, len(tetras)):
            t = tetras[idx]
            if volume + vol[t] > target:
                continue
            if all(compatible(t, c) for c in chosen):
                extend(chosen + [t], volume + vol[t], idx + 1)

    extend([], Fraction(0), 0)
    # keep only proper triangulations (face-to-face)
    proper = set()
    for cand in results:
        tri = Triangulation(sorted(cand))
        if validate(tri, cube).ok:
            proper.add(frozenset(tri.simplices))
    return proper


@pytest.fixture(scope="session")
def cube_bruteforce(cube):
    return cube_triangulations_bruteforce(cube)


def test_component_cube_matches_bruteforce(cube, cube_table, cube_corner_tri, cube_bruteforce):
    result = enumerate_component(cube_corner_tri, cube_table)
    assert len(result.states) == len(cube_bruteforce) == 74
    assert {frozenset(t.simplices) for t in result.states.values()} == cube_bruteforce


def random_walk_states(config, table, start, steps, rnd):
    states = [start]
    current = start
    for _ in range(steps):
        actions = flippable_circuits(current, table)
        if not actions:
            break
        current = apply_flip(current, actions[rnd.randrange(len(actions))])
        states.append(current)
    return states


def test_uniqueness_and_involution_random(cube, cube_table, cube_corner_tri):
    """At most one action per circuit; reverse flip restores the state."""
    rnd = random.Random(4242)
    cross4d = ff.PointConfig(
        4,
        [tuple(s * int(i == a) for i in range(4)) for a in range(4) for s in (1, -1)],
    )
    cross4d_table = enumerate_circuits(cross4d)
    cross4d_start = Triangulation(
        [tuple(sorted({0, 1} | set(rest))) for rest in itertools.product((2, 3), (4, 5), (6, 7))]
    )
    assert validate(cross4d_start, cross4d).ok
    fixtures = [
        (cube, cube_table, cube_corner_tri, 24),
        (cross4d, cross4d_table, cross4d_start, 10),
    ]
    pairs = 0
    for config, table, start, trials in fixtures:
        for _trial in range(trials):
            states = random_walk_states(config, table, start, 25, rnd)
            for tri in states:
                actions = flippable_circuits(tri, table)  # asserts uniqueness inside
                per_circuit = {}
                for a in actions:
                    per_circuit.setdefault(a.circuit.vertices, []).append(a)
                assert all(len(v) == 1 for v in per_circuit.values())
                pairs += len(table.circuits)
                for action in actions:
                    flipped = apply_flip(tri, action)
                    back = apply_flip(flipped, reverse_action(flipped, table, action))
                    assert back.canonical_key == tri.canonical_key
    assert pairs >= 10_000


def test_link_equality_across_core_faces(cube, cube_table, cube_corner_tri):
    rnd = random.Random(7)
    for tri in random_walk_states(cube, cube_table, cube_corner_tri, 40, rnd):
        for action in flippable_circuits(tri, cube_table):
            zset = set(action.circuit.vertices)
            side = action.circuit.positive if action.realized_side > 0 else action.circuit.negative
            links = set()
            for p in side:
                core = frozenset(zset - {p})
                links.add(link_of(tri, core))
            assert len(links) == 1
            link_faces = next(iter(links))
            assert link_faces == frozenset(frozenset(g) for g in action.link)


def test_every_flip_output_validates(cube, cube_table, cube_corner_tri):
    rnd = random.Random(99)
    for tri in random_walk_states(cube, cube_table, cube_corner_tri, 60, rnd):
        assert validate(tri, cube).ok


def test_ngon_components_are_catalan():
    catalan = {4: 2, 5: 5, 6: 14, 7: 42}
    for n, expected in catalan.items():
        config = convex_polygon(n)
        table = enumerate_circuits(config)
        fan = Triangulation([(0, i, i + 1) for i in range(1, n - 1)])
        result = enumerate_component(fan, table)
        assert len(result.states) == expected, f"n={n}"


def test_component_seed_independent_square(unit_square_table):
    a = Triangulation([(0, 1, 2), (0, 2, 3)])
    b = Triangulation([(0, 1, 3), (1, 2, 3)])
    ra = enumerate_component(a, unit_square_table)
    rb = enumerate_component(b, unit_square_table)
    assert ra.keys == rb.keys and ra.edge_count == rb.edge_count
