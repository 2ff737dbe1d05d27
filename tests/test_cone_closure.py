"""Differential tests for the cone star closure and the regularity rows.

``frst.star_closure`` cones the boundary of a fine regular state from the
origin; ``closure_oracle.hull_star_closure`` sinks the origin and reads the
closed state off the lower hull of the lift.  ``regularity_constraints``
reads every row off the configuration's table of minors; the oracle here
solves every fold and places every unused point by Fraction elimination.
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
from flipforge.geometry import lattice_points
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
from closure_oracle import _barycentric, hull_star_closure
from conftest import point_lists
from kernel_oracle import affine_dependence
from test_circuit_index import CROSS4D_14, SQUARE_3X3

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
    """Regularity rows with every fold solved by ``affine_dependence`` and every unused
    point placed in the first simplex that holds it by ``_barycentric``."""
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
    used = tri.vertex_union
    for q in range(config.n):
        if q in used:
            continue
        for s in tri.simplices:
            coords = _barycentric(config.points[q], [config.points[i] for i in s])
            if coords is not None:
                row = [Fraction(0)] * config.n
                row[q] = Fraction(1)
                for i, c in zip(s, coords):
                    row[i] -= c
                rows.append(row)
                break
    return rows


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
        assert repr(rows) == repr(oracle_rows(tri, config))
        # every call derives its own rows: changing one call's leaves the next call's intact
        rows.append([Fraction(1)] * config.n)
        for row in rows:
            row[0] += 1
        assert repr(regularity_constraints(tri, config)) == repr(oracle_rows(tri, config))
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])


ROW_CONFIGS = {"prism": PRISM, "square3x3": SQUARE_3X3, "cross4d_14": CROSS4D_14}


@pytest.mark.parametrize("name", sorted(ROW_CONFIGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_rows_match_the_fraction_oracle_on_walks_from_random_lifts(name, data):
    config = ROW_CONFIGS[name]
    heights = data.draw(st.lists(st.integers(-999, 999), min_size=config.n, max_size=config.n))
    try:
        tri = regular_from_heights(config, [Fraction(h, 64) for h in heights])
    except DegenerateHeights:
        assume(False)
    table = enumerate_circuits(config)
    rnd = random.Random(data.draw(st.integers(0, 1 << 32)))
    for _step in range(15):
        assert repr(regularity_constraints(tri, config)) == repr(oracle_rows(tri, config))
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, rnd.choice(actions))


def test_rows_kept_on_a_state_are_read_only_for_their_configuration():
    square = ff.PointConfig(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    kite = ff.PointConfig(2, [(0, 0), (2, 0), (0, 2), (3, 3)])
    tri = ff.Triangulation([(0, 1, 2), (1, 2, 3)])
    rows = regularity_constraints(tri, square)
    assert rows == [[1, -1, -1, 1]]
    assert regularity_constraints(tri, kite) == [[Fraction(4, 3), -1, -1, Fraction(2, 3)]]
    assert regularity_constraints(tri, square) == rows
