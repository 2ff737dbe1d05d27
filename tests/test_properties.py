"""Property tests on random 2D-4D configurations, rational and {-1, 0, 1} lattice.

A flip undone through ``reverse_action`` gives the state back, a flipped
state's 1-skeleton patched from its parent's equals the one rebuilt from its
simplices, and the text formats round-trip triangulation sets (by canonical
key) and point configurations exactly.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge import io
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits, reverse_action
from flipforge.triangulation import Triangulation
from conftest import point_lists


def draw_config(dim, data):
    points = data.draw(point_lists(dim))
    try:
        return ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)


def walk(config, data, steps=8):
    """The states of a random flip walk from the placing triangulation, with their table."""
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    states = [tri]
    for move in data.draw(st.lists(st.integers(0, 1 << 20), max_size=steps)):
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])
        states.append(tri)
    return states, table


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flip_is_an_involution_through_reverse_action(dim, data):
    states, table = walk(draw_config(dim, data), data)
    for tri in states:
        for action in flippable_circuits(tri, table):
            child = apply_flip(tri, action)
            back = reverse_action(child, table, action)
            assert back.circuit == action.circuit
            assert (back.removed, back.inserted) == (action.inserted, action.removed)
            assert apply_flip(child, back) == tri
            assert reverse_action(tri, table, back) == action


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_patched_skeleton_equals_full_rebuild(dim, data):
    config = draw_config(dim, data)
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    assert tri.skeleton_edges() == Triangulation(tri.simplices).skeleton_edges()
    for move in data.draw(st.lists(st.integers(0, 1 << 20), max_size=8)):
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        # every child patches the edges of ``tri``, whose edge set is now known
        children = [apply_flip(tri, action) for action in actions]
        for child in children:
            assert child._lineage is not None
            assert child.skeleton_edges() == Triangulation(child.simplices).skeleton_edges()
        tri = children[move % len(children)]


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_triangulation_set_round_trip_keeps_canonical_keys(dim, data, tmp_path_factory):
    states, _table = walk(draw_config(dim, data), data)
    path = tmp_path_factory.mktemp("tri") / "walk.tri"
    io.write_triangulation_set(path, states)
    back = io.read_triangulation_set(path)
    assert [t.canonical_key for t in back] == [t.canonical_key for t in states]


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_point_config_round_trip(dim, data, tmp_path_factory):
    config = draw_config(dim, data)
    if config.is_lattice and data.draw(st.booleans()):
        config = ff.PointConfig(dim, config.points, is_lattice=False)
    path = tmp_path_factory.mktemp("poly") / "config.poly"
    io.write_point_config(path, config)
    back = io.read_point_config(path)
    assert back == config
    assert (back.dim, back.points, back.is_lattice) == (config.dim, config.points, config.is_lattice)
