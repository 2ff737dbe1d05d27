"""Differential tests for the circuit layer against its brute-force oracles.

``enumerate_circuits`` builds tables from one Laplace pass of integer prefix
minors, with no elimination: a small circuit's dependence is the Cramer
dependence of the circuit and a few points completing it to a basis.  Two
oracles check it: a scan of every vertex subset with the exact Fraction
dependence kernel, and the per-minor Bareiss loop it replaced, whose tables
must match field by field and in order.  The configuration's simplex
determinants and Cramer dependences, lookups in the same minors, are checked
against Bareiss determinants and the Fraction kernel.
``flippable_circuits`` tests the circuits with a core inside one of the
state's simplices, or patches a flipped state's actions from its parent's;
the oracles test every circuit of the table through ``link_of`` and through
a face map built afresh (``face_oracle``).
"""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge import geometry
from flipforge.datagen import GenSpec, generate, initial_triangulation
from flipforge.errors import DegenerateConfig
from flipforge.flips import (
    CircuitTable,
    FlipAction,
    _circuit,
    apply_flip,
    enumerate_circuits,
    flippable_circuits,
)
from flipforge.frst import LatticeConfig
from flipforge.geometry import PointConfig, _prefix_minors, dependence_kernel, rref
from flipforge.io import read_point_config
from flipforge.triangulation import Triangulation, validate
from conftest import cross4d_box_points, degenerate_point_lists, point_lists
from face_oracle import face_map_actions, link_of
from kernel_oracle import _int_det
from walk_oracle import reverse_action


def fraction_circuit(subset, lam):
    """Oracle: the circuit on ``subset`` as (vertices, coeffs, positive, negative),
    its dependence ``lam`` scaled by Fractions so that the first entry is +1."""
    coeffs = tuple(Fraction(v, 1) / lam[0] for v in lam)
    return (
        subset,
        coeffs,
        tuple(i for i, v in zip(subset, coeffs) if v > 0),
        tuple(i for i, v in zip(subset, coeffs) if v < 0),
    )


def subset_kernel_circuits(config):
    """Oracle: every subset of size 2..dim+2 whose dependence space is one
    line spanned by a full-support vector."""
    circuits = []
    for size in range(2, config.dim + 3):
        for subset in itertools.combinations(range(config.n), size):
            basis = dependence_kernel([config.points[i] for i in subset])
            if len(basis) != 1 or any(v == 0 for v in basis[0]):
                continue
            circuits.append(fraction_circuit(subset, basis[0]))
    circuits.sort(key=lambda c: c[0])
    return tuple(circuits)


def per_minor_circuits(config: PointConfig) -> CircuitTable:
    """All circuits of the configuration, from its integer maximal minors.

    Every (d+1)-subset's determinant on the homogenized rows (1, x) is taken
    once.  A (d+2)-subset Z is a circuit iff none of its d+2 minors vanishes,
    with dependence lam_j = (-1)^j det(Z - j) by Cramer's rule.  Because the
    configuration spans, a smaller subset is dependent iff every
    (d+1)-superset has a zero minor; only those subsets go through the exact
    kernel, and one is a circuit iff its dependence space is one-dimensional
    with full support (every proper subset is then independent).
    """
    n, size = config.n, config.dim + 1
    rows, _scale = config.int_rows()
    homogeneous = [(1,) + tuple(r) for r in rows]
    minors = {
        subset: _int_det([homogeneous[i] for i in subset])
        for subset in itertools.combinations(range(n), size)
    }
    circuits = []
    for subset in itertools.combinations(range(n), size + 1):
        dets = [minors[subset[:j] + subset[j + 1 :]] for j in range(size + 1)]
        if all(dets):
            circuits.append(_circuit(subset, [(-1) ** j * det for j, det in enumerate(dets)]))
    for k in range(2, size + 1):
        for subset in itertools.combinations(range(n), k):
            rest = [i for i in range(n) if i not in subset]
            if any(
                minors[tuple(sorted(subset + extra))]
                for extra in itertools.combinations(rest, size - k)
            ):
                continue
            basis = dependence_kernel([config.points[i] for i in subset])
            if len(basis) == 1 and all(basis[0]):
                scale = math.lcm(*(v.denominator for v in basis[0]))
                circuits.append(_circuit(subset, [int(v * scale) for v in basis[0]]))
    circuits.sort(key=lambda c: c.vertices)
    return CircuitTable(config=config, circuits=tuple(circuits))


def table_circuits(table):
    """The table's circuits as the oracle writes them; each dependence must be primitive."""
    for c in table.circuits:
        assert all(type(v) is int for v in c.dependence)
        assert c.dependence[0] > 0 and math.gcd(*c.dependence) == 1
    return tuple((c.vertices, c.coeffs, c.positive, c.negative) for c in table.circuits)


def table_fields(table):
    """Every stored field of every circuit, in table order."""
    return [(c.vertices, c.dependence, c.positive, c.negative) for c in table.circuits]


def realize_by_links(tri, circuit, side):
    """Oracle for one orientation: every core a face of ``tri``, all links equal."""
    side_part, other_part = (
        (circuit.positive, circuit.negative) if side > 0 else (circuit.negative, circuit.positive)
    )
    zset = frozenset(circuit.vertices)
    links = set()
    for p in side_part:
        try:
            links.add(link_of(tri, zset - {p}))
        except ValueError:
            return None
    if len(links) != 1:
        return None
    (link,) = links
    removed = {tuple(sorted((zset - {p}) | g)) for p in side_part for g in link}
    inserted = {tuple(sorted((zset - {q}) | g)) for q in other_part for g in link}
    return FlipAction(
        circuit=circuit,
        realized_side=side,
        link=tuple(sorted(tuple(sorted(g)) for g in link)),
        removed=tuple(sorted(removed)),
        inserted=tuple(sorted(inserted)),
    )


def full_scan(tri, table):
    """Oracle: test both orientations of every circuit, in table order."""
    actions = []
    for circuit in table.circuits:
        found = [a for a in (realize_by_links(tri, circuit, s) for s in (1, -1)) if a]
        assert len(found) <= 1, f"both sides of {circuit.vertices} realized"
        actions.extend(found)
    return actions


PRISM = ff.PointConfig(
    3, sorted((x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0)))
)
CROSS4D = ff.PointConfig(
    4, [tuple(s * int(i == a) for i in range(4)) for a in range(4) for s in (1, -1)]
)
CROSS4D_WITH_ORIGIN = ff.PointConfig(4, list(CROSS4D.points) + [(0, 0, 0, 0)])
SQUARE_3X3 = ff.PointConfig(2, [(x, y) for x in range(3) for y in range(3)])
# the 4D cross-polytope's 9 lattice points and five more: 14 points, many dependent subsets
CROSS4D_14 = ff.PointConfig(
    4,
    list(CROSS4D_WITH_ORIGIN.points)
    + [(1, 1, 0, 0), (-1, -1, 0, 0), (1, 0, 1, 0), (0, -1, -1, 0), (0, 0, 1, 1)],
)
FIXTURES = {
    "square3x3": SQUARE_3X3,
    "prism": PRISM,
    "cross4d": CROSS4D,
    "cross4d_origin": CROSS4D_WITH_ORIGIN,
    "cross4d_14": CROSS4D_14,
    "lattice4d": read_point_config(ff.fixture_path("lattice4d")),
}


@pytest.fixture(scope="module")
def gen3d():
    """A Gaussian 3D configuration with at least 14 vertices."""
    config = next(iter(generate(GenSpec(dim=3, samples=40, count=1, seed=1)).configs.values()))
    assert config.n >= 14
    return config


def check_minor_kernel(config):
    """Oracle for the configuration's table of minors: every sorted (d+1)-subset's
    ``simplex_det`` is the Bareiss determinant of its edge vectors, and every
    (d+2)-subset's ``dependence``, in either id order, is zero exactly when the
    points' dependences form more than one line (rank below d+1) and otherwise
    spans ``dependence_kernel``'s line."""
    rows, _scale = config.int_rows()
    for s in itertools.combinations(range(config.n), config.dim + 1):
        assert config.simplex_det(s) == _int_det(
            [[a - b for a, b in zip(rows[v], rows[s[0]])] for v in s[1:]]
        )
    for z in itertools.combinations(range(config.n), config.dim + 2):
        lam = config.dependence(z)
        assert config.dependence(z[::-1]) == lam[::-1]
        basis = dependence_kernel([config.points[i] for i in z])
        if len(basis) > 1:
            assert not any(lam)
        else:
            (line,) = basis
            ratio = next(Fraction(a) / b for a, b in zip(lam, line) if b)
            assert ratio and all(a == ratio * b for a, b in zip(lam, line))


def check_minor_pass(config):
    """The table equals the per-minor loop's, every prefix minor is the leading
    determinant, the configuration keeps those minors, its lookups pass
    ``check_minor_kernel``, and the table is built without a call to
    ``rref``.  Returns the table."""
    rows, _scale = config.int_rows()
    homogeneous = [(1,) + tuple(r) for r in rows]
    levels = _prefix_minors(homogeneous, config.dim + 1)
    assert len(levels) == config.dim + 1
    for k, level in enumerate(levels, start=1):
        assert list(level) == list(itertools.combinations(range(config.n), k))
        for subset, minor in level.items():
            assert minor == _int_det([homogeneous[i][:k] for i in subset])
    assert config.prefix_minors() == levels
    check_minor_kernel(config)
    calls = []

    def recording_rref(rows):
        calls.append(rows)
        return rref(rows)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(geometry, "rref", recording_rref)
        table = enumerate_circuits(config)
    assert table_fields(table) == table_fields(per_minor_circuits(config))
    assert calls == []
    return table


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_minor_circuits_match_oracle_on_degenerate_fixtures(name):
    config = FIXTURES[name]
    table = check_minor_pass(config)
    assert table_circuits(table) == subset_kernel_circuits(config)
    assert any(len(c.vertices) <= config.dim + 1 for c in table.circuits)


def test_lattice4d_fixture_has_the_stated_circuits():
    config = FIXTURES["lattice4d"]
    assert LatticeConfig.from_config(config).n == 12  # the origin is the one interior point
    table = enumerate_circuits(config)
    assert len(table) == 210
    assert sum(len(c.vertices) <= config.dim + 1 for c in table.circuits) == 58


@pytest.mark.parametrize("seed", range(6))
def test_minor_pass_matches_the_elimination_oracles_on_cross4d_draws(seed):
    config = ff.PointConfig(4, cross4d_box_points(seed, 2 + seed % 3))
    table = check_minor_pass(config)
    assert table_circuits(table) == subset_kernel_circuits(config)
    assert any(len(c.vertices) <= config.dim + 1 for c in table.circuits)


def test_minor_circuits_match_oracle_on_gen3d(gen3d):
    table = enumerate_circuits(gen3d)
    assert len(table) == len(list(itertools.combinations(range(gen3d.n), 5)))
    assert table_circuits(table) == subset_kernel_circuits(gen3d)


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minor_circuits_match_oracle_on_random_configs(dim, data):
    points = data.draw(point_lists(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    assert table_circuits(enumerate_circuits(config)) == subset_kernel_circuits(config)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_minor_pass_matches_the_per_minor_loop_on_random_configs(dim, data):
    points = data.draw(degenerate_point_lists(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    check_minor_pass(config)


def walk_matches_full_scan(config, start, walks, steps, seed):
    table = enumerate_circuits(config)
    rnd = random.Random(seed)
    states = 0
    for _ in range(walks):
        tri = start
        for _step in range(steps):
            actions = flippable_circuits(tri, table)
            assert actions == full_scan(tri, table)
            states += 1
            if not actions:
                break
            tri = apply_flip(tri, actions[rnd.randrange(len(actions))])
        assert validate(tri, config).ok
    return states


def test_indexed_scan_matches_full_scan_on_cube(cube, cube_corner_tri):
    assert walk_matches_full_scan(cube, cube_corner_tri, walks=4, steps=25, seed=11) >= 50


def test_indexed_scan_matches_full_scan_on_cross4d():
    start = Triangulation(
        [tuple(sorted({0, 1} | set(rest))) for rest in itertools.product((2, 3), (4, 5), (6, 7))]
    )
    assert walk_matches_full_scan(CROSS4D, start, walks=3, steps=15, seed=12) >= 15


def test_indexed_scan_matches_full_scan_on_prism():
    start = initial_triangulation(PRISM)
    assert walk_matches_full_scan(PRISM, start, walks=3, steps=25, seed=13) >= 50


def test_indexed_scan_matches_full_scan_on_gen3d(gen3d):
    start = initial_triangulation(gen3d)
    assert walk_matches_full_scan(gen3d, start, walks=1, steps=30, seed=14) == 30


def maintained_actions(tri, table):
    """The state's actions, checked against the full scan, a lineage-free copy and pickling."""
    patched = tri._lineage is not None and tri._lineage[0]._actions is not None
    actions = flippable_circuits(tri, table)
    assert actions == full_scan(tri, table)
    assert tri._lineage is None  # dropped once the actions are known
    assert actions == face_map_actions(tri, table)
    actions.clear()  # every call hands out a fresh list
    actions = flippable_circuits(tri, table)
    assert actions == full_scan(tri, table)
    clone = pickle.loads(pickle.dumps(tri))
    assert clone == tri and clone.canonical_key == tri.canonical_key
    assert (clone._actions, clone._lineage) == (None, None)
    return actions, patched


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_maintained_actions_match_full_scan_on_random_walks(dim, data):
    points = data.draw(point_lists(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    actions, _ = maintained_actions(tri, table)
    for move in data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=12)):
        if not actions:
            break
        action = actions[move % len(actions)]
        child = apply_flip(tri, action)
        if move % 3 == 1 and len(actions) > 1:
            # a sibling patched from the same parent first
            sibling = apply_flip(tri, actions[(move + 1) % len(actions)])
            assert maintained_actions(sibling, table)[1]
        child_actions, patched = maintained_actions(child, table)
        assert patched
        if move % 3 == 0:
            # flip straight back: the grandchild is the parent again
            back = apply_flip(child, reverse_action(child, table, action))
            assert back == tri
            assert maintained_actions(back, table) == (actions, True)
        tri, actions = child, child_actions
