"""Reference walks' table lookups, state by state, against the paths they replaced.

``CircuitTable.touching`` probes a core index of the circuits of fewer than
dim+2 points keyed by sorted vertex tuples; the oracle indexes those
circuits' cores as frozensets and probes every face of the simplex.  Min-weight values read the configuration's edge-length
table; the oracle computes each edge's length as it first meets it.
``enumerate_component`` probes each successor key once; the oracle is the
loop that tested membership and read the index for every key.  Each runs on
hypothesis point lists in dims 1-4 with repeated and collinear points, the
3x3 square, the prism and the 14-point 4D set.
"""

import itertools
import math
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig
from flipforge.flips import (
    apply_flip,
    enumerate_circuits,
    enumerate_component,
    flippable_circuits,
)
from flipforge.objectives import Objective, ObjectiveCache, evaluate, left_sum
from face_oracle import _faces
from flipforge.triangulation import Triangulation
from walk_oracle import TupleComponent, successors
from test_circuit_index import CROSS4D_14, PRISM, SQUARE_3X3, degenerate_point_lists

FIXTURES = {"square3x3": SQUARE_3X3, "prism": PRISM, "cross4d_14": CROSS4D_14}
TABLES = {}


def fixture_table(name):
    if name not in TABLES:
        TABLES[name] = enumerate_circuits(FIXTURES[name])
    return TABLES[name]


def drawn_table(data, dim):
    try:
        config = ff.PointConfig(dim, data.draw(degenerate_point_lists(dim)))
    except DegenerateConfig:
        assume(False)
    return enumerate_circuits(config)


def frozenset_touching(table):
    """Oracle: the cores of every circuit of fewer than dim+2 points indexed as
    frozensets, probed by every face of the simplex."""
    cores = {}
    for pos, circuit in enumerate(table.circuits):
        if len(circuit.vertices) == table.config.dim + 2:
            continue
        for core in itertools.chain(*circuit.cores):
            cores.setdefault(core, []).append(pos)
    return lambda simplex: frozenset(pos for face in _faces(simplex) for pos in cores.get(face, ()))


def edge_length(config, edge, lengths):
    """Oracle: one edge's length, computed on first use and kept in ``lengths``."""
    if edge not in lengths:
        a, b = config.points[edge[0]], config.points[edge[1]]
        lengths[edge] = math.sqrt(left_sum(float(x - y) ** 2 for x, y in zip(a, b)))
    return lengths[edge]


def generator_min_weight(tri, config, lengths):
    """Oracle: the edge lengths summed in sorted-edge order as they are met."""
    edges = sorted({e for s in tri.simplices for e in itertools.combinations(s, 2)})
    return left_sum(edge_length(config, e, lengths) for e in edges)


def membership_component(seed, table, limit=1_000_000, cap=math.inf, visit=None):
    """Oracle: the breadth-first walk that tests each successor key against the states
    and reads its discovery index."""
    if visit is not None:
        visit(seed)
    states = {seed.canonical_key: seed}
    index = {seed.canonical_key: 0}
    queue = deque([seed])
    edge_count = 0
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit or len(states) >= cap:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        for key in sorted(successors(current, table)):
            if len(states) >= cap:
                break
            if key not in states:
                states[key] = nxt = Triangulation(key)
                if visit is not None:
                    visit(nxt)
                index[key] = len(index)
                queue.append(nxt)
            edge_count += index[key] >= expansions
    return TupleComponent(states, edge_count, truncated, expansions)


def check_touching_on_walk(table, moves):
    touching = frozenset_touching(table)
    tri = initial_triangulation(table.config)
    met = 0
    for move in [0] + moves:
        for simplex in tri.simplices:
            assert table.touching(simplex) == touching(simplex), simplex
            met += 1
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])
    return met


def check_min_weight_on_bfs(table, limit):
    config, lengths = table.config, {}
    component = enumerate_component(initial_triangulation(config), table, limit=limit)
    cache = ObjectiveCache()
    for tri in component.states.values():
        expected = generator_min_weight(tri, config, lengths)
        assert evaluate(Objective.MIN_WEIGHT, tri, config) == expected
        assert evaluate(Objective.MIN_WEIGHT, tri, config, cache) == expected
    assert config.edge_lengths() == {
        e: edge_length(config, e, {}) for e in itertools.combinations(range(config.n), 2)
    }
    return len(component)


def component_fields(result, visited):
    return (
        [(key, tri.simplices) for key, tri in result.states.items()],
        result.edge_count,
        result.truncated,
        result.expansions,
        [tri.simplices for tri in visited],
    )


def check_components(table):
    seed = initial_triangulation(table.config)
    for limit, cap in itertools.product((1, 7, 100), (1, 2, 50, math.inf)):
        got, want = [], []
        result = enumerate_component(seed, table, limit=limit, cap=cap, visit=got.append)
        oracle = membership_component(seed, table, limit=limit, cap=cap, visit=want.append)
        assert component_fields(result, got) == component_fields(oracle, want), (limit, cap)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_touching_matches_the_frozenset_index_on_fixture_walks(name):
    assert check_touching_on_walk(fixture_table(name), list(range(1, 60, 7))) > 20


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_touching_matches_the_frozenset_index_on_random_walks(dim, data):
    table = drawn_table(data, dim)
    check_touching_on_walk(table, data.draw(st.lists(st.integers(0, 1 << 20), max_size=12)))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_min_weight_matches_the_generator_scoring_on_fixture_components(name):
    assert check_min_weight_on_bfs(fixture_table(name), limit=40) > 20


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_min_weight_matches_the_generator_scoring_on_random_components(dim, data):
    check_min_weight_on_bfs(drawn_table(data, dim), limit=20)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_components_match_the_membership_loop_on_fixtures(name):
    check_components(fixture_table(name))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_components_match_the_membership_loop_on_random_configs(dim, data):
    check_components(drawn_table(data, dim))
