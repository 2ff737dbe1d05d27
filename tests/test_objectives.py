import math
import random

import pytest

import flipforge as ff
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.objectives import (
    Objective,
    ObjectiveCache,
    evaluate,
    left_sum,
    relative_gap,
    reward,
)
from flipforge.triangulation import Triangulation
from conftest import polygon_triangulations
from walk_oracle import reverse_action


def test_min_weight_square(unit_square):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    value = evaluate(Objective.MIN_WEIGHT, tri, unit_square)
    assert value == pytest.approx(4 + math.sqrt(2), rel=1e-12)
    other = Triangulation([(0, 1, 3), (1, 2, 3)])
    assert evaluate(Objective.MIN_WEIGHT, other, unit_square) == pytest.approx(
        4 + math.sqrt(2), rel=1e-12
    )


def test_min_simplices_bipyramid(bipyramid):
    two = Triangulation([(0, 2, 3, 4), (1, 2, 3, 4)])
    three = Triangulation([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)])
    assert evaluate(Objective.MIN_SIMPLICES, two, bipyramid) == 2
    assert evaluate(Objective.MIN_SIMPLICES, three, bipyramid) == 3


def test_min_diameter_single_simplex():
    config = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1)])
    assert evaluate(Objective.MIN_DIAMETER, Triangulation([(0, 1, 2)]), config) == 0


def test_reward_min_simplices(bipyramid, bipyramid_table):
    three = Triangulation([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)])
    action = flippable_circuits(three, bipyramid_table)[0]
    assert reward(Objective.MIN_SIMPLICES, three, apply_flip(three, action), bipyramid) == 1.0


def test_reward_trapezoid_min_weight(trapezoid):
    table = enumerate_circuits(trapezoid)
    long_diag = Triangulation([(0, 1, 3), (1, 2, 3)])  # uses diagonal (1,3)
    action = flippable_circuits(long_diag, table)[0]
    got = reward(Objective.MIN_WEIGHT, long_diag, apply_flip(long_diag, action), trapezoid)
    # oracle: evaluate both triangulations directly
    short_diag = apply_flip(long_diag, action)
    expected = evaluate(Objective.MIN_WEIGHT, long_diag, trapezoid) - evaluate(
        Objective.MIN_WEIGHT, short_diag, trapezoid
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(math.sqrt(5) - math.sqrt(2), rel=1e-9)


def test_reward_antisymmetry(unit_square, unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    action = flippable_circuits(tri, unit_square_table)[0]
    fwd = reward(Objective.MIN_WEIGHT, tri, apply_flip(tri, action), unit_square)
    flipped = apply_flip(tri, action)
    rev = reverse_action(flipped, unit_square_table, action)
    bwd = reward(Objective.MIN_WEIGHT, flipped, apply_flip(flipped, rev), unit_square)
    assert fwd == pytest.approx(-bwd, abs=1e-12)


def test_reward_telescoping(hexagon, hexagon_table):
    rnd = random.Random(5)
    tri = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    cache = ObjectiveCache()
    start_value = evaluate(Objective.MIN_WEIGHT, tri, hexagon, cache)
    total = 0.0
    current = tri
    for _ in range(60):
        actions = flippable_circuits(current, hexagon_table)
        action = actions[rnd.randrange(len(actions))]
        total += reward(
            Objective.MIN_WEIGHT, current, apply_flip(current, action), hexagon, cache
        )
        current = apply_flip(current, action)
    end_value = evaluate(Objective.MIN_WEIGHT, current, hexagon, cache)
    assert total == pytest.approx(start_value - end_value, rel=1e-9)


def test_min_simplices_changes_by_flip_sizes(bipyramid, bipyramid_table):
    two = Triangulation([(0, 2, 3, 4), (1, 2, 3, 4)])
    action = flippable_circuits(two, bipyramid_table)[0]
    after = apply_flip(two, action)
    assert len(after.simplices) - len(two.simplices) == len(action.inserted) - len(
        action.removed
    )


def test_objective_invariance_under_relabeling(hexagon):
    perm = [3, 5, 0, 2, 4, 1]
    relabeled_points = [None] * 6
    for old, new in enumerate(perm):
        relabeled_points[new] = hexagon.points[old]
    relabeled = ff.PointConfig(2, relabeled_points)
    for tri_set in list(polygon_triangulations(6))[:5]:
        tri = Triangulation(sorted(tri_set))
        mapped = Triangulation([tuple(sorted(perm[v] for v in s)) for s in tri.simplices])
        for objective in (Objective.MIN_WEIGHT, Objective.MIN_SIMPLICES, Objective.MIN_DIAMETER):
            assert evaluate(objective, tri, hexagon) == pytest.approx(
                evaluate(objective, mapped, relabeled), rel=1e-12
            )


def test_frst_reach_binary(lattice_square):
    fan = Triangulation(
        [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
    )
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    assert evaluate(Objective.FRST_REACH, fan, lattice_square) == 1.0
    assert evaluate(Objective.FRST_REACH, corners, lattice_square) == 0.0


def test_relative_gap_arithmetic():
    report = relative_gap([10.0], [8.0])
    assert report.mean == pytest.approx(0.25)
    report = relative_gap([8.0], [8.0])
    assert report.mean == 0.0
    report = relative_gap([10.0, 8.0], [8.0, 8.0])
    assert report.mean == pytest.approx(0.125)
    assert report.stderr > 0


def test_float_sums_add_left_to_right():
    # Python 3.12's builtin sum compensates and returns 1.0000000000000002 here
    terms = [1.0, 1e-16, 1e-16]
    assert left_sum(terms) == 1.0 != math.fsum(terms)
    assert left_sum(iter(terms)) == 1.0 and left_sum([]) == 0.0
    report = relative_gap([0.0] * 3, terms, sense="maximize")
    assert report.mean == 1.0 / 3


def test_relative_gap_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        relative_gap([1.0], [0.0])


def test_objective_names():
    assert Objective.from_name("min_weight") is Objective.MIN_WEIGHT
    assert Objective.from_name("frst_reach").sense == "maximize"
    with pytest.raises(ValueError):
        Objective.from_name("nope")
