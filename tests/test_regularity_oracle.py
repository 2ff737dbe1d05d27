"""The certificate-carrying regularity oracle against the exact Bland's simplex.

``lp.feasible_point`` picks a basis with float64 phase 1 and recovers the
point or Farkas vector exactly; ``lp._exact_phase1`` is the rational simplex
it falls back to and the oracle here.  ``certify_regularity`` caches
certificates and re-checks each one exactly before trusting it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
from flipforge import frst, lp
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig, DegenerateHeights
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.frst import LatticeConfig, SamplerConfig, sample_frsts
from flipforge.io import read_point_config
from flipforge.objectives import ObjectiveCache
from flipforge.search import make_strategy
from flipforge.triangulation import (
    RegularityCertificate,
    Triangulation,
    certify_regularity,
    is_fine,
    is_regular,
    regular_from_heights,
    regularity_constraints,
)

from conftest import polygon_triangulations

PRISM = ff.PointConfig(
    3, sorted((x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0)))
)


def exact_answer(rows, rhs):
    return lp._exact_phase1(
        [[Fraction(v) for v in row] for row in rows], [Fraction(b) for b in rhs]
    )


def assert_matches_exact(rows, rhs):
    """feasible_point's verdict equals the exact simplex's and its answer checks exactly."""
    farkas = []
    point = lp.feasible_point(rows, rhs, farkas)
    exact_point, _exact_z = exact_answer(rows, rhs)
    assert (point is None) == (exact_point is None)
    if point is None:
        assert lp.is_farkas(rows, rhs, farkas)
    else:
        assert farkas == [] and lp.satisfies(rows, rhs, point)
    return point, exact_point


def assert_certified(tri, config):
    """The oracle's verdict equals the exact simplex's; its certificate holds."""
    rows = regularity_constraints(tri, config)
    cert = certify_regularity(tri, config)
    assert cert.holds(rows)
    if rows:
        exact_point, _z = exact_answer(rows, [1] * len(rows))
        assert cert.regular == (exact_point is not None)
    else:
        assert cert.regular
    return cert


# ---------------------------------------------------------------- differential


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_systems_match_exact_simplex(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 8))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=m, max_size=m))
    rhs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    assert_matches_exact(rows, rhs)


def point_sets(dim):
    rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    lattice = st.integers(-2, 2)
    return st.one_of(
        *(
            st.lists(st.tuples(*[coord] * dim), min_size=dim + 2, max_size=dim + 5, unique=True)
            for coord in (rationals, lattice)
        )
    )


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_triangulations_match_exact_simplex(dim, data):
    """Walks of random flips from a lifted start reach regular, non-regular and non-fine states."""
    points = data.draw(point_sets(dim))
    try:
        config = ff.PointConfig(dim, points)
    except DegenerateConfig:
        assume(False)
    heights = data.draw(st.lists(st.integers(-9, 9), min_size=config.n, max_size=config.n))
    try:
        tri = regular_from_heights(config, heights)
    except DegenerateHeights:
        tri = initial_triangulation(config)
    table = enumerate_circuits(config)
    rnd = random.Random(data.draw(st.integers(0, 2**16)))
    for _step in range(6):
        assert_certified(tri, config)
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[rnd.randrange(len(actions))])


# ------------------------------------------------------- existing regularity cases


def test_hexagon_triangulations_certified_with_exact_witnesses(hexagon):
    tris = polygon_triangulations(6)
    for tri_set in tris:
        tri = Triangulation(sorted(tri_set))
        cert = assert_certified(tri, hexagon)
        rows = regularity_constraints(tri, hexagon)
        point, exact_point = assert_matches_exact(rows, [1] * len(rows))
        assert cert.regular and cert.vector == point == exact_point


def test_mother_configuration_gets_a_farkas_certificate(mother_config, mother_nonregular):
    cert = assert_certified(mother_nonregular, mother_config)
    assert not cert.regular
    rows = regularity_constraints(mother_nonregular, mother_config)
    assert len(cert.vector) == len(rows) and all(y >= 0 for y in cert.vector)
    assert is_regular(mother_nonregular, mother_config) == (False, None)


def test_random_lifts_and_prism_walk_witnesses_equal_exact(unit_square, hexagon, bipyramid):
    """The float-guided path ends in the exact simplex's basis, so witnesses are equal."""
    rnd = random.Random(2718)
    for config in (unit_square, hexagon, bipyramid):
        done = 0
        while done < 20:
            heights = [Fraction(rnd.randint(-400, 400), 64) for _ in range(config.n)]
            try:
                tri = regular_from_heights(config, heights)
            except DegenerateHeights:
                continue
            done += 1
            rows = regularity_constraints(tri, config)
            if rows:
                point, exact_point = assert_matches_exact(rows, [1] * len(rows))
                assert point == exact_point
    table = enumerate_circuits(PRISM)
    tri = initial_triangulation(PRISM)
    verdicts = set()
    for _step in range(12):
        rows = regularity_constraints(tri, PRISM)
        point, exact_point = assert_matches_exact(rows, [1] * len(rows))
        assert point == exact_point
        verdicts.add(point is not None)
        actions = flippable_circuits(tri, table)
        tri = apply_flip(tri, actions[rnd.randrange(len(actions))])
    assert verdicts == {True, False}


# ------------------------------------------------------------------- mutations


def count_exact_calls(monkeypatch):
    calls = []
    exact = lp._exact_phase1

    def counting(rows, rhs):
        calls.append(len(rows))
        return exact(rows, rhs)

    monkeypatch.setattr(lp, "_exact_phase1", counting)
    return calls


def test_clean_recovery_never_falls_back(monkeypatch, hexagon, mother_config, mother_nonregular):
    half = Fraction(1, 2)
    expected, _z = exact_answer([[1], [-1]], [half, -1])
    calls = count_exact_calls(monkeypatch)
    tri = Triangulation(sorted(next(iter(polygon_triangulations(6)))))
    assert certify_regularity(tri, hexagon).regular
    assert not certify_regularity(mother_nonregular, mother_config).regular
    # negative right-hand sides flip rows; the recovered multipliers flip back
    assert lp.feasible_point([[1], [-1]], [half, -1]) == expected
    farkas = []
    assert lp.feasible_point([[1, 0], [-1, 0], [0, 1]], [1, -half, -3], farkas) is None
    assert farkas == [1, 1, 0]
    assert calls == []


def test_entries_beyond_float_range_go_to_the_exact_path(monkeypatch):
    calls = count_exact_calls(monkeypatch)
    huge = Fraction(10**400)
    assert lp.feasible_point([[huge, 0], [0, 1]], [1, 1]) == (1 / huge, Fraction(1))
    farkas = []
    assert lp.feasible_point([[huge], [-huge]], [1, 1], farkas) is None
    assert farkas == [1, 1] and len(calls) == 2


def test_perturbed_witness_is_rejected_and_exact_path_decides(monkeypatch, hexagon):
    recover = lp._recover_point

    def shrunk(rows, rhs, basis):
        # a basic solution has a tight row, which the shrink pushes below 1
        w = recover(rows, rhs, basis)
        return tuple(x * Fraction(999, 1000) for x in w)

    monkeypatch.setattr(lp, "_recover_point", shrunk)
    calls = count_exact_calls(monkeypatch)
    tri = Triangulation(sorted(next(iter(polygon_triangulations(6)))))
    rows = regularity_constraints(tri, hexagon)
    point, exact_point = assert_matches_exact(rows, [1] * len(rows))
    assert point == exact_point
    assert len(calls) == 2  # the fallback inside feasible_point, then exact_answer here


def test_perturbed_farkas_vector_is_rejected_and_exact_path_decides(
    monkeypatch, mother_config, mother_nonregular
):
    recover = lp._recover_farkas

    def nudged(rows, rhs, basis):
        z = list(recover(rows, rhs, basis))
        z[0] += Fraction(1, 1000)  # rows[0] is nonzero, so z^T A leaves zero
        return tuple(z)

    monkeypatch.setattr(lp, "_recover_farkas", nudged)
    calls = count_exact_calls(monkeypatch)
    cert = certify_regularity(mother_nonregular, mother_config)
    rows = regularity_constraints(mother_nonregular, mother_config)
    assert not cert.regular and cert.holds(rows)
    assert len(calls) == 1


def test_perturbed_certificates_fail_their_exact_check(mother_config, mother_nonregular, hexagon):
    tri = Triangulation(sorted(next(iter(polygon_triangulations(6)))))
    rows = regularity_constraints(tri, hexagon)
    cert = certify_regularity(tri, hexagon)
    bad = RegularityCertificate(True, tuple(x * Fraction(999, 1000) for x in cert.vector))
    assert cert.holds(rows) and not bad.holds(rows)
    assert not RegularityCertificate(False, cert.vector[: len(rows)]).holds(rows)

    rows = regularity_constraints(mother_nonregular, mother_config)
    cert = certify_regularity(mother_nonregular, mother_config)
    z = list(cert.vector)
    z[0] += 1
    assert not RegularityCertificate(False, tuple(z)).holds(rows)
    assert not RegularityCertificate(True, (Fraction(0),) * mother_config.n).holds(rows)


# ------------------------------------------------------------ cache and LP count


def count_lp_calls(monkeypatch):
    calls = []
    solve = lp.feasible_point

    def counting(rows, rhs, farkas=None):
        calls.append(len(rows))
        return solve(rows, rhs, farkas)

    monkeypatch.setattr(lp, "feasible_point", counting)
    return calls


def test_stale_or_corrupted_cache_entries_are_never_trusted(
    monkeypatch, mother_config, mother_nonregular
):
    calls = count_lp_calls(monkeypatch)
    key = mother_nonregular.canonical_key
    for stale in (True, RegularityCertificate(True, (Fraction(1),) * mother_config.n)):
        certificates = {key: stale}
        cert = certify_regularity(mother_nonregular, mother_config, certificates)
        assert not cert.regular and certificates[key] is cert
    assert len(calls) == 2
    # a valid cached certificate costs no LP
    assert certify_regularity(mother_nonregular, mother_config, certificates) is cert
    assert len(calls) == 2


def lp_count_against_walks(monkeypatch, lattice, seed, iterations):
    """Run the sampler; return (LP calls, LP calls predicted, distinct fine states visited).

    A fine state costs one LP on its first visit unless an earlier star
    closure already certified it from its own heights.
    """
    calls = count_lp_calls(monkeypatch)
    episodes = []
    extra = []
    episode, closure, check = frst.nearby_frst_episode, frst.star_closure, frst.is_frst

    def recording_episode(*args, **kwargs):
        result = episode(*args, **kwargs)
        episodes.append(result)
        return result

    def counted(fn):
        def wrapper(*args, **kwargs):
            before = len(calls)
            result = fn(*args, **kwargs)
            extra.append(len(calls) - before)
            return result

        return wrapper

    monkeypatch.setattr(frst, "nearby_frst_episode", recording_episode)
    monkeypatch.setattr(frst, "star_closure", counted(closure))
    monkeypatch.setattr(frst, "is_frst", counted(check))
    config = lattice.config
    ledger = sample_frsts(
        lattice,
        SamplerConfig(max_iterations=iterations, retry_limit=iterations, flip_budget=100),
        make_strategy("random_walk"),
        np.random.default_rng(seed),
        table=enumerate_circuits(config),
        cache=ObjectiveCache(),
    )
    assert len(ledger.entries) == iterations and len(ledger) > 0
    assert extra and not any(extra)  # star_closure and is_frst solve no LP
    certified = set()
    predicted = 0
    for result in episodes:
        for key in result.visited_keys:
            if key not in certified and is_fine(Triangulation(key), config):
                certified.add(key)
                predicted += 1
        if result.closed is not None:
            certified.add(result.closed.canonical_key)
    fine_visited = {
        key for r in episodes for key in r.visited_keys if is_fine(Triangulation(key), config)
    }
    return len(calls), predicted, len(fine_visited)


def test_lp_count_equals_distinct_fine_states_on_square(monkeypatch):
    lattice = LatticeConfig.from_config(read_point_config(ff.fixture_path("square2d")))
    solved, predicted, fine = lp_count_against_walks(monkeypatch, lattice, seed=4, iterations=12)
    assert 0 < solved == predicted <= fine


def test_lp_count_equals_distinct_fine_states_on_prism(monkeypatch):
    lattice = LatticeConfig.from_config(PRISM)
    solved, predicted, fine = lp_count_against_walks(monkeypatch, lattice, seed=901, iterations=3)
    assert 0 < solved == predicted <= fine


def test_is_frst_rechecks_corrupted_cached_witness(monkeypatch):
    lattice = LatticeConfig.from_config(read_point_config(ff.fixture_path("square2d")))
    cache = ObjectiveCache()
    ledger = sample_frsts(
        lattice,
        SamplerConfig(max_iterations=3, retry_limit=3),
        make_strategy("random_walk"),
        np.random.default_rng(1),
        cache=cache,
    )
    closed = next(iter(ledger.triangulations.values()))
    key = closed.canonical_key
    calls = count_lp_calls(monkeypatch)
    assert frst.is_frst(closed, lattice, cache).ok and calls == []
    good = cache.certificates[key]
    cache.certificates[key] = RegularityCertificate(True, tuple(-h for h in good.vector))
    assert frst.is_frst(closed, lattice, cache).ok
    assert len(calls) == 1 and cache.certificates[key].holds(
        regularity_constraints(closed, lattice.config)
    )
