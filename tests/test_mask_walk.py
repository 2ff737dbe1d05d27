"""The integer-coded flip graph against the tuple-keyed walk it replaced.

A state is the mask of its simplices on the table's simplex index, a flip an
XOR, and ``enumerate_component`` walks masks, children in descending mask
order.  The oracle (``walk_oracle``) keys every state by its sorted simplex
tuple and orders children by ascending key.  Hypothesis walks on generic and
degenerate point lists in 2D-4D compare the two: states in discovery order,
each state's actions, each state's children in order, ``edge_count``,
``truncated`` and the reference values.  Two more tests pin the order
argument (descending masks are ascending canonical keys) and the identity
of a state however it was made: flipped, decoded, or read from a file; two
more that a subset is a function of its bit alone, so a table used in one
process walks the same in another.  The bit arithmetic that preceded the
index's lex table (the combinatorial number system's rank) and the
binary-string bit reader that preceded ``set_bits`` are the oracles of the
index and of the walker.
"""

import itertools
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge import io
from flipforge.cli import _exact_reference
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig
from flipforge.flips import apply_flip, enumerate_circuits, enumerate_component, flippable_circuits
from flipforge.flips import flip_count, neighbors
from flipforge.objectives import Objective, search_value
from flipforge.triangulation import SimplexIndex, Triangulation, set_bits
from conftest import degenerate_point_lists, point_lists
from face_oracle import face_map_actions
from walk_oracle import successors, tuple_component

OBJECTIVES = [Objective.MIN_WEIGHT, Objective.MIN_SIMPLICES, Objective.MIN_DIAMETER]


def drawn_table(data, dim, degenerate):
    lists = degenerate_point_lists(dim) if degenerate else point_lists(dim)
    try:
        config = ff.PointConfig(dim, data.draw(lists))
    except DegenerateConfig:
        assume(False)
    return enumerate_circuits(config)


def oracle_reference(table, objective, limit):
    """The best search value over the tuple walk's states, each scored afresh."""
    config, values = table.config, []
    component = tuple_component(
        initial_triangulation(config),
        table,
        limit=limit,
        visit=lambda tri: values.append(search_value(objective, tri, config)),
    )
    return min(values), component.truncated


def check_walks(table, limit, cap):
    seed = initial_triangulation(table.config)
    built = []
    got = enumerate_component(seed, table, limit=limit, cap=cap, visit=built.append)
    want = tuple_component(Triangulation(seed.simplices), table, limit=limit, cap=cap)
    assert list(got.states) == list(want.states)
    assert [tri.canonical_key for tri in built] == list(want.states)
    assert (got.edge_count, got.truncated, got.expansions, len(got)) == (
        want.edge_count, want.truncated, want.expansions, len(want)
    )
    # the walk's own states, actions patched through their lineage, against fresh scans
    for tri, fresh in zip(built, want.states.values()):
        actions = flippable_circuits(tri, table)
        assert actions == flippable_circuits(fresh, table) == face_map_actions(fresh, table)
        unscanned = Triangulation(fresh.simplices)
        assert flip_count(tri, table) == flip_count(unscanned, table) == len(actions)
    # the children of every expanded state, in walk order
    for tri, fresh in itertools.islice(zip(built, want.states.values()), got.expansions):
        children = [child.canonical_key for child in neighbors(tri, table)]
        assert children == sorted(successors(fresh, table))


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mask_walk_matches_the_tuple_walk(dim, degenerate, data):
    table = drawn_table(data, dim, degenerate)
    limit = data.draw(st.integers(1, 40))
    cap = data.draw(st.one_of(st.just(math.inf), st.integers(1, 60)))
    check_walks(table, limit, cap)
    objective = data.draw(st.sampled_from(OBJECTIVES))
    assert _exact_reference(table, objective, limit) == oracle_reference(table, objective, limit)


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_descending_masks_are_ascending_canonical_keys(dim, degenerate, data):
    table = drawn_table(data, dim, degenerate)
    component = enumerate_component(initial_triangulation(table.config), table, limit=30)
    masks = list(component.masks)
    keys = [table.index.decode(mask) for mask in masks]
    assert keys == list(component.states)
    assert [table.index.decode(m) for m in sorted(masks, reverse=True)] == sorted(keys)
    for (m1, k1), (m2, k2) in itertools.combinations(zip(masks, keys), 2):
        assert (m1 > m2) == (k1 < k2)


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_flipped_state_is_the_state_read_from_a_file(dim, data, tmp_path_factory):
    table = drawn_table(data, dim, degenerate=False)
    tri = initial_triangulation(table.config)
    for move in data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=8)):
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])
    assume(tri._lineage is not None)  # made by a flip, its simplices not decoded yet
    path = tmp_path_factory.mktemp("state") / "state.tri"
    io.write_triangulation_set(path, [Triangulation(table.index.decode(tri.code(table.index)))])
    (read,) = io.read_triangulation_set(path)
    assert read._index is None and tri._simplices is None  # neither knows the other's form
    assert read == tri and tri == read
    assert hash(read) == hash(tri)
    assert pickle.dumps(read) == pickle.dumps(tri)
    assert pickle.loads(pickle.dumps(tri)) == read
    assert read.code(table.index) == tri.code(table.index)
    assert {read: 1}[tri] == 1 and len(read) == len(tri)


def test_a_pickled_table_codes_states_on_the_same_index():
    # worker pools receive pickled tables; their states must key objective caches alike
    config = ff.PointConfig(2, [(0, 0), (3, 0), (0, 3), (3, 3), (1, 2)])
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    flippable_circuits(tri, table)  # builds the table's index and flips
    copy = pickle.loads(pickle.dumps(table))
    assert copy.index is table.index
    assert flippable_circuits(Triangulation(tri.simplices), copy) == flippable_circuits(tri, table)


def ranked_bit(subset, n) -> int:
    """The combinatorial number system's rank, sum_j C(n-1-s_j, k-j): the bit that the
    index's lex table puts the sorted subset on."""
    k = len(subset)
    return sum(math.comb(n - 1 - v, k - j) for j, v in enumerate(subset))


def string_bits(mask) -> list:
    """The set bits of ``mask``, lowest first, read off its binary string."""
    digits, bits = bin(mask), []
    top = len(digits) - 1
    i = digits.rfind("1")
    while i > 1:
        bits.append(top - i)
        i = digits.rfind("1", 0, i)
    return bits


@pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (7, 3), (9, 4), (8, 8)])
def test_a_fresh_index_unranks_every_bit(n, k):
    coder, reader = SimplexIndex(n, k), SimplexIndex(n, k)
    subsets = list(itertools.combinations(range(n), k))
    assert [coder.bit(s) for s in subsets] == list(range(len(subsets)))[::-1]
    assert [reader.subset(coder.bit(s)) for s in subsets] == subsets
    assert SimplexIndex(n, k).decode(coder.mask(subsets[:3])) == tuple(subsets[:3])


def test_the_lex_table_puts_every_subset_on_its_ranked_bit():
    for n, k in itertools.product(range(1, 15), range(2, 6)):
        index = SimplexIndex(n, k)
        assert len(index.subsets) == math.comb(n, k)
        for b, subset in enumerate(index.subsets):
            assert index.bit(subset) == ranked_bit(subset, n) == b
        picked = index.subsets[::3]
        assert index.decode(index.mask(picked)) == tuple(sorted(picked))


def test_set_bits_reads_the_binary_string():
    rng = random.Random(25)
    masks = [0, 1, 1 << 1999, (1 << 2000) - 1]
    masks += [1 << rng.randrange(2000) for _ in range(20)]
    masks += [rng.getrandbits(rng.choice([8, 64, 330, 924, 2000])) for _ in range(200)]
    masks += [sum(1 << b for b in rng.sample(range(2000), 30)) for _ in range(50)]
    for mask in masks:
        assert set_bits(mask) == string_bits(mask)[::-1]


WORKER = """
import pickle, sys
from flipforge.flips import enumerate_component, flippable_circuits
from flipforge.triangulation import Triangulation
table, seed, want = pickle.load(sys.stdin.buffer)
got = enumerate_component(Triangulation(seed), table, limit=40)
actions = [[a.action_id for a in flippable_circuits(t, table)] for t in got.states.values()]
sys.exit(0 if (list(got.states), actions) == want else 1)
"""


@pytest.mark.parametrize("points", [
    [(0, 0), (3, 0), (0, 3), (3, 3), (1, 2), (2, 1)],
    [(0, 0), (2, 0), (4, 0), (0, 2), (2, 2), (4, 2), (2, 1)],  # collinear triples
], ids=["generic", "degenerate"])
def test_a_used_table_walks_alike_in_a_fresh_interpreter(points):
    # the table's caches are keyed by bits that this process handed out; a worker
    # that never coded a state must read them as the same subsets
    table = enumerate_circuits(ff.PointConfig(2, points))
    seed = initial_triangulation(table.config)
    walk = enumerate_component(seed, table, limit=40)
    actions = [[a.action_id for a in flippable_circuits(t, table)] for t in walk.states.values()]
    assert table._removing and table._retests
    payload = pickle.dumps((table, seed.simplices, (list(walk.states), actions)))
    src = str(Path(ff.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-c", WORKER], input=payload, capture_output=True, env={"PYTHONPATH": src}
    )
    assert res.returncode == 0, res.stderr.decode()
