"""The ridge table's readers, state by state, against the facet maps they replaced.

``Triangulation.ridges`` maps each (d-1)-face to the simplices holding it.
``validate``, ``regularity_constraints``, ``dual_graph``, the policy's
Laplacian (``state_graph``) and ``star_closure`` read it; ``ridge_oracle`` keeps
each reader as it was when it grouped the faces itself.  The walks run on
generic and degenerate point lists in dims 2-4, the prism and the 14-point 4D
set.  Every reader but the fold rows also runs on copies with a simplex
dropped, duplicated with one vertex moved, or replaced, so that clauses b and
c of ``validate`` are reached.  The star closure runs on the fine regular
states of walks on the prism, the octahedron and the 4D cross-polytope.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
import ridge_oracle as oracle
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig, DegenerateHeights
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.frst import LatticeConfig, star_closure
from flipforge.io import read_point_config
from flipforge.policy import state_graph
from flipforge.triangulation import (
    Triangulation,
    certify_regularity,
    dual_graph,
    is_fine,
    regular_from_heights,
    regularity_constraints,
    validate,
)
from conftest import degenerate_point_lists
from test_circuit_index import CROSS4D_14, CROSS4D_WITH_ORIGIN, PRISM

FIXTURES = {"prism": PRISM, "cross4d_14": CROSS4D_14}


def corrupted(tri, config, pick):
    """Copies of ``tri`` with simplex i dropped, kept beside a copy whose k-th vertex
    moved to point v, or replaced by that copy."""
    simplices = tri.simplices
    size = len(simplices[0])
    i, k, v = pick % len(simplices), pick // 7 % size, pick // 31 % config.n
    copies = [Triangulation(simplices[:i] + simplices[i + 1 :])] if len(simplices) > 1 else []
    if v not in simplices[i]:
        moved = simplices[i][:k] + (v,) + simplices[i][k + 1 :]
        copies.append(Triangulation(simplices + (moved,)))
        copies.append(Triangulation(simplices[:i] + (moved,) + simplices[i + 1 :]))
    return copies


def check_readers(tri, config):
    """Every reader of ``tri.ridges()`` equals its oracle; returns nothing."""
    ridges = tri.ridges()
    assert list(ridges) == list(oracle.boundary_faces(tri))
    for face, holders in ridges.items():
        assert [pos for pos, _k in holders] == sorted(pos for pos, _k in holders)
        for pos, k in holders:
            s = tri.simplices[pos]
            assert s[:k] + s[k + 1 :] == face
    assert validate(tri, config) == oracle.validate(tri, config)
    graph, expected = dual_graph(tri), oracle.dual_graph(tri)
    assert graph == expected and graph.adjacency == expected.adjacency
    got = state_graph([(config, tri, [])], "snn").laplacian
    want = oracle.simplicial_operator(tri, config)
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.shape == want.shape


def check_walk(config, moves, picks):
    """Walk ``moves`` flips from the placing triangulation, checking each state and
    its corrupted copies; returns the validity clauses the copies first violated."""
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    clauses = set()
    for move in [0] + list(moves):
        check_readers(tri, config)
        assert repr(regularity_constraints(tri, config)) == repr(
            oracle.regularity_constraints(tri, config)
        )
        for pick in picks:
            for copy in corrupted(tri, config, pick):
                check_readers(copy, config)
                clauses.update(clause for clause, _message in validate(copy, config).details)
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])
    return clauses


def generic_point_lists(dim):
    coord = st.integers(-60, 60)
    return st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 5, unique=True)


def test_ridges_come_out_in_boundary_face_order():
    tri = Triangulation([(1, 2, 3), (0, 1, 2)])
    ridges = tri.ridges()
    assert ridges == {
        (0, 1): [(0, 2)],
        (0, 2): [(0, 1)],
        (1, 2): [(0, 0), (1, 2)],
        (1, 3): [(1, 1)],
        (2, 3): [(1, 0)],
    }
    assert list(ridges) == list(oracle.boundary_faces(tri))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_ridge_readers_match_the_facet_maps_on_fixture_walks(name):
    clauses = check_walk(FIXTURES[name], range(1, 40, 3), range(0, 200, 23))
    assert {"a", "b", "c", "e"} <= clauses


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ["generic", "degenerate"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ridge_readers_match_the_facet_maps_on_random_walks(dim, kind, data):
    points = generic_point_lists(dim) if kind == "generic" else degenerate_point_lists(dim)
    try:
        config = ff.PointConfig(dim, data.draw(points))
    except DegenerateConfig:
        assume(False)
    moves = data.draw(st.lists(st.integers(0, 1 << 20), max_size=8))
    picks = data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3))
    check_walk(config, moves, picks)


STAR_LATTICES = {
    "prism": LatticeConfig.from_config(PRISM),
    "octahedron3d": LatticeConfig.from_config(read_point_config(ff.fixture_path("octahedron3d"))),
    "cross4d": LatticeConfig.from_config(CROSS4D_WITH_ORIGIN),
}


@pytest.mark.parametrize("name", sorted(STAR_LATTICES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_star_closure_cones_the_once_only_boundary_faces(name, data):
    lat = STAR_LATTICES[name]
    config = lat.config
    heights = data.draw(st.lists(st.integers(-999, 999), min_size=config.n, max_size=config.n))
    try:
        tri = regular_from_heights(config, [Fraction(h, 64) for h in heights])
    except DegenerateHeights:
        assume(False)
    table = enumerate_circuits(config)
    rnd = random.Random(data.draw(st.integers(0, 1 << 32)))
    for _step in range(12):
        if is_fine(tri, config):
            cert = certify_regularity(tri, config)
            if cert.regular:
                closed = star_closure(tri, lat, cert.vector)
                assert closed == oracle.cone_over_boundary(tri, lat.origin_index)
                check_readers(closed, config)
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, rnd.choice(actions))

