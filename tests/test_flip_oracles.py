"""The flip layer's fast paths, state by state, against the paths they replaced.

``flippable_circuits`` tests a circuit of dim+2 points by simplex membership,
a smaller one by its cores' links read off the state's simplices, and patches
a flipped state's actions; the oracle realizes every circuit of the table
from a face map built afresh (``face_oracle``).  ``skeleton_edges`` patches
the edge set through the lineage; the oracle collects every simplex's edges.  The
search references score each state as the walk builds it; the oracle scores
the finished walk's states.  Circuit tables store primitive integer dependences; the oracle is the
Fraction circuit of the dependence kernel.  ``enumerate_component`` counts
its edges; the oracle keeps them in a set.  Each runs along random walks and
breadth-first components of generic 2D-4D sets, the 3x3 square, the prism
and the 4D cross-polytope; the actions also along random walks of point
lists with repeated and collinear points in 2D-4D.
"""

import itertools
import math
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.cli import _exact_reference
from flipforge.datagen import GenSpec, generate, initial_triangulation
from flipforge.flips import (
    apply_flip,
    enumerate_circuits,
    enumerate_component,
    flippable_circuits,
    neighbors,
)
from flipforge.errors import DegenerateConfig
from flipforge.objectives import Objective, ObjectiveCache, search_value
from flipforge.triangulation import Triangulation
from conftest import degenerate_point_lists
from face_oracle import face_map_actions
from walk_oracle import TupleComponent, successors
from test_circuit_index import (
    CROSS4D,
    PRISM,
    SQUARE_3X3,
    subset_kernel_circuits,
    table_circuits,
)


def generic(dim, samples, seed):
    return next(iter(generate(GenSpec(dim=dim, samples=samples, count=1, seed=seed)).configs.values()))


CONFIGS = {
    "gen2d": generic(2, 30, 3),
    "gen3d": generic(3, 10, 5),
    "gen4d": generic(4, 9, 7),
    "square3x3": SQUARE_3X3,
    "prism": PRISM,
    "cross4d": CROSS4D,
}
GENERIC = ("gen2d", "gen3d", "gen4d")
TABLES = {}


def table_of(name):
    if name not in TABLES:
        TABLES[name] = enumerate_circuits(CONFIGS[name])
    return TABLES[name]


def start_of(name):
    if name == "cross4d":
        # the placing triangulation of the cross-polytope has no flips
        return Triangulation(
            [tuple(sorted({0, 1} | set(rest))) for rest in itertools.product((2, 3), (4, 5), (6, 7))]
        )
    return initial_triangulation(CONFIGS[name])


def edge_oracle(tri):
    """Oracle: the sorted union of every simplex's edges."""
    return tuple(sorted({e for s in tri.simplices for e in itertools.combinations(s, 2)}))


def check_state(tri, table):
    """The state's actions and 1-skeleton against the oracles."""
    assert tri.skeleton_edges() == edge_oracle(tri)
    assert flippable_circuits(tri, table) == face_map_actions(tri, table)


def check_walk(tri, table, moves):
    """Flip from ``tri`` along ``moves``, each state checked against the oracles."""
    check_state(tri, table)
    for move in moves:
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        # the child's skeleton and actions are patched from ``tri``'s
        tri = apply_flip(tri, actions[move % len(actions)])
        assert tri._lineage is not None
        check_state(tri, table)


@pytest.mark.parametrize("name", GENERIC)  # the others: test_circuit_index
def test_circuit_tables_match_the_fraction_oracle(name):
    assert table_circuits(table_of(name)) == subset_kernel_circuits(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=15, deadline=None)
@given(moves=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=15))
def test_walk_states_match_the_oracles(name, moves):
    check_walk(start_of(name), table_of(name), moves)


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_degenerate_walk_states_match_the_face_map_oracle(dim, data):
    # repeated points make 2-point circuits, whose cores are single points
    try:
        config = ff.PointConfig(dim, data.draw(degenerate_point_lists(dim)))
    except DegenerateConfig:
        assume(False)
    moves = data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=12))
    check_walk(initial_triangulation(config), enumerate_circuits(config), moves)


def test_repeated_points_realize_their_two_point_circuits():
    # the square with its corner 0 repeated as point 4: circuit (0, 4) has cores {0} and {4}
    config = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    table = enumerate_circuits(config)
    tri = Triangulation([(0, 1, 3), (0, 2, 3)])
    actions = flippable_circuits(tri, table)
    assert actions == face_map_actions(tri, table)
    swap = next(a for a in actions if a.circuit.vertices == (0, 4))
    assert swap.removed == tri.simplices and swap.inserted == ((1, 3, 4), (2, 3, 4))
    check_state(apply_flip(tri, swap), table)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_component_states_and_their_neighbors_match_the_oracles(name):
    table = table_of(name)
    component = enumerate_component(start_of(name), table, limit=12)
    assert len(component) > 3
    for tri in component.states.values():
        check_state(tri, table)
        for child in neighbors(tri, table):
            check_state(child, table)


def test_reference_walk_on_a_gen_dataset_tests_only_full_circuits():
    dataset = generate(GenSpec(dim=3, samples=13, count=2, seed=2))
    for config in dataset.configs.values():
        table = enumerate_circuits(config)
        assert all(len(c.vertices) == config.dim + 2 for c in table.circuits)
        component = enumerate_component(initial_triangulation(config), table, limit=200)
        cache = ObjectiveCache()
        for tri in component.states.values():
            search_value(Objective.MIN_WEIGHT, tri, config, cache)
        assert len(component) > 100


def post_walk_reference(table, objective, limit):
    """Oracle: the best search value over the finished walk's states, scored afterwards."""
    config = table.config
    component = enumerate_component(initial_triangulation(config), table, limit=limit)
    cache = ObjectiveCache()
    best = min(search_value(objective, tri, config, cache) for tri in component.states.values())
    return best, component.truncated


@pytest.mark.parametrize("objective", [Objective.MIN_WEIGHT, Objective.MIN_DIAMETER])
@pytest.mark.parametrize("name", sorted(set(CONFIGS) - {"cross4d"}))
def test_references_scored_on_discovery_match_the_post_walk_pass(name, objective):
    table = table_of(name)
    for limit in (1, 5, 40):
        assert _exact_reference(table, objective, limit) == post_walk_reference(
            table, objective, limit
        )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_visit_sees_each_state_once_as_it_is_built(name):
    table = table_of(name)
    seen, patched = [], []

    def visit(tri):
        lineage = tri._lineage
        patched.append(lineage is not None and lineage[0]._skeleton is not None)
        assert tri.skeleton_edges() == edge_oracle(tri)
        seen.append(tri)

    component = enumerate_component(start_of(name), table, limit=30, visit=visit)
    assert [t.canonical_key for t in seen] == list(component.states)
    # every state but the seed is built from a parent whose edge set is known
    assert not patched[0] and all(patched[1:]) and len(patched) > 3


def set_walk_component(seed, table, limit=1_000_000, cap=math.inf):
    """Oracle: the breadth-first walk that stores every edge as an index pair."""
    states = {seed.canonical_key: seed}
    index = {seed.canonical_key: 0}
    queue = deque([seed])
    edges = set()
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit or len(states) >= cap:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        cur_idx = index[current.canonical_key]
        for key in sorted(successors(current, table)):
            if len(states) >= cap:
                break
            if key not in states:
                states[key] = nxt = Triangulation(key)
                index[key] = len(index)
                queue.append(nxt)
            a, b = cur_idx, index[key]
            edges.add((min(a, b), max(a, b)))
    return TupleComponent(states, len(edges), truncated, expansions)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=8, deadline=None)
@given(limit=st.integers(1, 60), cap=st.one_of(st.just(math.inf), st.integers(1, 80)))
def test_component_edge_count_matches_the_edge_set(name, limit, cap):
    table = table_of(name)
    got = enumerate_component(start_of(name), table, limit=limit, cap=cap)
    want = set_walk_component(start_of(name), table, limit=limit, cap=cap)
    assert list(got.states) == list(want.states)
    assert (got.edge_count, got.truncated, got.expansions) == (
        want.edge_count, want.truncated, want.expansions
    )
