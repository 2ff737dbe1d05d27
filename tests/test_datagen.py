import itertools

import numpy as np
import pytest

import flipforge as ff
from flipforge.datagen import (
    GenSpec,
    generate,
    incidence_signature,
    initial_triangulation,
    sample_polytope,
    seed_triangulations,
)
from flipforge.triangulation import validate


def are_isomorphic(a, b):
    """True iff the vertex-facet incidence structures agree under a bijection."""
    return incidence_signature(a) == incidence_signature(b)


def rotated_relabeled_cube(cube):
    # exact rational rotation (Pythagorean 3-4-5) plus translation and shuffle
    from fractions import Fraction

    c, s = Fraction(3, 5), Fraction(4, 5)
    shuffled = [5, 2, 7, 0, 3, 6, 1, 4]
    pts = [None] * 8
    for old, new in enumerate(shuffled):
        x, y, z = cube.points[old]
        pts[new] = (c * x - s * y + 7, s * x + c * y - 2, z + 1)
    return ff.PointConfig(3, pts, is_lattice=False)


def test_isomorphic_cube_rotation(cube):
    assert are_isomorphic(cube, rotated_relabeled_cube(cube))


def test_cube_vs_octahedron_not_isomorphic(cube):
    octa = ff.PointConfig(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert not are_isomorphic(cube, octa)


def exhaustive_isomorphism(a, b):
    """Oracle: search all vertex bijections between extreme points."""
    ha, hb = a.hull(), b.hull()
    va, vb = sorted(ha.extreme), sorted(hb.extreme)
    if len(va) != len(vb):
        return False
    fa = {frozenset(va.index(v) for v in f.vertex_ids if v in ha.extreme) for f in ha.facets}
    fb = {frozenset(vb.index(v) for v in f.vertex_ids if v in hb.extreme) for f in hb.facets}
    if len(fa) != len(fb):
        return False
    n = len(va)
    for perm in itertools.permutations(range(n)):
        if {frozenset(perm[v] for v in f) for f in fa} == fb:
            return True
    return False


def test_distinct_seven_vertex_polytopes():
    # a pentagonal bipyramid vs a stacked (augmented) octahedron: both have
    # 7 vertices and 10 triangular facets but different vertex degrees
    pentabi = ff.PointConfig(
        3,
        [
            (4, 0, 0),
            (1, 4, 0),
            (-4, 2, 0),
            (-4, -2, 0),
            (1, -4, 0),
            (0, 0, 3),
            (0, 0, -3),
        ],
    )
    stacked = ff.PointConfig(
        3,
        [
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
            (2, 2, 2),
        ],
    )
    assert len(pentabi.hull().extreme) == 7 and len(stacked.hull().extreme) == 7
    assert are_isomorphic(pentabi, stacked) == exhaustive_isomorphism(pentabi, stacked)
    assert not are_isomorphic(pentabi, stacked)


def test_isomorphism_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(10)
    configs = []
    while len(configs) < 6:
        try:
            configs.append(sample_polytope(3, 6, rng))
        except ff.DegenerateConfig:
            continue
    for a, b in itertools.combinations(configs, 2):
        assert are_isomorphic(a, b) == exhaustive_isomorphism(a, b)
    for c in configs:
        assert are_isomorphic(c, c)


def test_signature_is_equivalence(cube):
    a = rotated_relabeled_cube(cube)
    assert incidence_signature(cube) == incidence_signature(a)
    # symmetric + transitive by signature equality construction
    b = rotated_relabeled_cube(a)
    assert are_isomorphic(cube, a) and are_isomorphic(a, b) and are_isomorphic(cube, b)


def test_generate_deterministic():
    spec = GenSpec(dim=2, samples=6, count=3, seed=123)
    d1, d2 = generate(spec), generate(spec)
    assert d1.ids == d2.ids
    for cid in d1.ids:
        assert d1.configs[cid] == d2.configs[cid]


def test_generate_pairwise_nonisomorphic():
    spec = GenSpec(dim=2, samples=7, count=4, seed=5)
    dataset = generate(spec)
    for a, b in itertools.combinations(dataset.ids, 2):
        assert not are_isomorphic(dataset.configs[a], dataset.configs[b])


def test_generate_single_simplex():
    spec = GenSpec(dim=3, samples=4, count=1, seed=2)
    dataset = generate(spec)
    config = dataset.configs[dataset.ids[0]]
    assert config.n == 4
    assert len(config.hull().facets) == 4


def test_generate_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(dim=3, samples=3, count=1)
    with pytest.raises(ValueError):
        GenSpec(dim=2, samples=4, count=0)
    for denominator in (0, -5):
        with pytest.raises(ValueError, match="snap_denominator must be at least 1"):
            GenSpec(dim=2, samples=4, count=1, snap_denominator=denominator)
    # a simplex or a segment is every draw's type, so a second one never comes
    for dim, samples in ((2, 3), (3, 4), (1, 2), (1, 6)):
        GenSpec(dim=dim, samples=samples, count=1)
        with pytest.raises(ValueError, match="non-isomorphic"):
            GenSpec(dim=dim, samples=samples, count=2)


def test_seed_triangulations_square(unit_square):
    seeds = seed_triangulations(unit_square, cap=2000)
    assert len(seeds) == 2
    for tri in seeds:
        assert validate(tri, unit_square).ok


def test_seed_triangulations_hexagon_cap(hexagon):
    capped = seed_triangulations(hexagon, cap=5)
    assert len(capped) == 5
    assert len({t.canonical_key for t in capped}) == 5
    full = seed_triangulations(hexagon, cap=2000)
    assert len(full) == 14
    for tri in full:
        assert validate(tri, hexagon).ok
        assert tri.vertex_union == frozenset(range(6))


def test_initial_triangulation_handles_cospherical(lattice_square):
    # the 3x3 grid is cospherical-degenerate for the paraboloid lift at the
    # corner squares; the fallback must still produce a valid start
    tri = initial_triangulation(lattice_square)
    assert validate(tri, lattice_square).ok
