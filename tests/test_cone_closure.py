"""Differential tests for the cone star closure and the regularity rows.

``frst.star_closure`` cones the boundary of a fine regular state from the
origin; ``closure_oracle.hull_star_closure`` sinks the origin and reads the
closed state off the lower hull of the lift.  ``regularity_constraints``
keeps each state's rows on the state; the oracle here solves every fold
afresh on a fresh state.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig, DegenerateHeights
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.frst import LatticeConfig, star_closure
from flipforge.geometry import affine_dependence, lattice_points
from flipforge.io import read_point_config
from flipforge.objectives import ObjectiveCache
from flipforge.triangulation import (
    certify_regularity,
    is_fine,
    is_star,
    regular_from_heights,
    regularity_constraints,
    validate,
)
from closure_oracle import hull_star_closure
from conftest import point_lists

PRISM = ff.PointConfig(
    3, sorted((x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0)))
)
CROSS4D = ff.PointConfig(
    4, [tuple(s * int(i == a) for i in range(4)) for a in range(4) for s in (1, -1)]
)


def lattice(name):
    """The named lattice; ``cross4d`` is the 4D cross-polytope's 9 lattice points."""
    if name == "prism":
        return LatticeConfig.from_config(PRISM)
    if name == "cross4d":
        return LatticeConfig.from_config(ff.PointConfig(4, lattice_points(CROSS4D)))
    return LatticeConfig.from_config(read_point_config(ff.fixture_path(name)))


LATTICES = {
    name: (lat := lattice(name), enumerate_circuits(lat.config))
    for name in ("square2d", "simplex3d", "octahedron3d", "prism", "cross4d")
}


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cone_closure_matches_hull_closure_on_random_walks(name, data):
    lat, table = LATTICES[name]
    config = lat.config
    heights = data.draw(st.lists(st.integers(-999, 999), min_size=config.n, max_size=config.n))
    try:
        tri = regular_from_heights(config, [Fraction(h, 64) for h in heights])
    except DegenerateHeights:
        assume(False)
    rnd = random.Random(data.draw(st.integers(0, 1 << 32)))
    seen = set()
    for _step in range(40):
        if is_fine(tri, config) and tri not in seen:
            seen.add(tri)
            cert = certify_regularity(tri, config)
            if cert.regular:
                cache = ObjectiveCache()
                closed = star_closure(tri, lat, cert.vector, cache)
                expected, _ = hull_star_closure(tri, lat, cert.vector)
                assert closed == expected
                assert validate(closed, config).ok
                assert is_fine(closed, config) and is_star(closed, config, lat.origin_index)
                held = cache.certificates[closed.canonical_key]
                fresh_rows = regularity_constraints(ff.Triangulation(closed.simplices), config)
                assert held.regular and held.holds(fresh_rows)
                # the closure's rows stay on the state for the re-check
                assert regularity_constraints(closed, config) == fresh_rows
                # without a witness the oracle is asked for one: same closure
                assert star_closure(tri, lat) == closed
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, rnd.choice(actions))


def test_cone_closure_rejects_an_input_missing_boundary_points():
    lat, _table = LATTICES["square2d"]
    corners = ff.Triangulation([(0, 2, 8), (0, 6, 8)])
    with pytest.raises(ValueError):
        star_closure(corners, lat)


def interior_folds(tri):
    """(face, a, b): each interior (d-1)-face with the vertices opposite it."""
    for face in sorted({f for s in tri.simplices for f in itertools.combinations(s, len(s) - 1)}):
        ends = [v for s in tri.simplices if set(face) <= set(s) for v in s if v not in face]
        if len(ends) == 2:
            yield face, ends[0], ends[1]


def oracle_rows(tri, config):
    """Regularity rows of a fresh copy of ``tri`` with every fold solved afresh."""
    rows = []
    for face, a, b in interior_folds(tri):
        ids = list(face) + [a, b]
        lam = affine_dependence([config.points[i] for i in ids])
        if lam[len(face)] < 0:
            lam = tuple(-v for v in lam)
        row = [Fraction(0)] * config.n
        for i, coeff in zip(ids, lam):
            row[i] = coeff
        rows.append(row)
    return rows + regularity_constraints(ff.Triangulation(tri.simplices), config)[len(rows) :]


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rows_kept_on_a_state_match_fresh_dependences_on_random_walks(dim, data):
    points = data.draw(point_lists(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    for move in data.draw(st.lists(st.integers(0, 1 << 20), max_size=10)):
        rows = regularity_constraints(tri, config)
        assert rows == oracle_rows(tri, config)
        # a state keeps its rows until they are asked for once more
        assert regularity_constraints(tri, config) is rows
        again = regularity_constraints(tri, config)
        assert again == rows and again is not rows
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])


def test_rows_kept_on_a_state_are_read_only_for_their_configuration():
    square = ff.PointConfig(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    kite = ff.PointConfig(2, [(0, 0), (2, 0), (0, 2), (3, 3)])
    tri = ff.Triangulation([(0, 1, 2), (1, 2, 3)])
    rows = regularity_constraints(tri, square)
    assert rows == [[1, -1, -1, 1]]
    assert regularity_constraints(tri, kite) == [[Fraction(4, 3), -1, -1, Fraction(2, 3)]]
    assert regularity_constraints(tri, square) == rows
