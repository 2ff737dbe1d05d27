import numpy as np
import pytest

import flipforge as ff
from flipforge.datagen import initial_triangulation
from flipforge.flips import apply_flip, enumerate_circuits, enumerate_component, flippable_circuits
from flipforge.frst import (
    LatticeConfig,
    SamplerConfig,
    VirtualClock,
    is_frst,
    nearby_frst_episode,
    sample_frsts,
    star_closure,
)
from flipforge.errors import FlipForgeError
from flipforge.io import read_point_config
from flipforge.objectives import Objective, fine_and_regular
from flipforge.search import RandomWalkStrategy, SearchContext, make_strategy
from flipforge.triangulation import (
    Triangulation,
    certify_regularity,
    is_fine,
    is_regular,
    is_star,
    validate,
)


@pytest.fixture(scope="module")
def square_lattice():
    return LatticeConfig.from_config(read_point_config(ff.fixture_path("square2d")))


@pytest.fixture(scope="module")
def square_lattice_table(square_lattice):
    return enumerate_circuits(square_lattice.config)


RANDOM_WALK = RandomWalkStrategy()


def reach(table, seed, budget):
    """An episode's ``frst_reach`` context on the table's configuration."""
    return SearchContext(table.config, table, Objective.FRST_REACH, seed=seed, budget=budget)

SQUARE_FAN = Triangulation(
    [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
)


def find_keys(ledger):
    """The canonical keys of a ledger's finds."""
    return {tri.canonical_key for tri in ledger.triangulations.values()}


def exhaustive_frsts(lattice, table):
    seed = initial_triangulation(lattice.config)
    component = enumerate_component(seed, table, limit=200_000)
    assert not component.truncated
    return {
        t.canonical_key: t for t in component.states.values() if is_frst(t, lattice)
    }


def test_lattice_config_invariants(square_lattice):
    assert square_lattice.origin_index == 4
    assert square_lattice.config.is_lattice
    with pytest.raises(ValueError):
        LatticeConfig.from_config(ff.PointConfig(2, [(0, 0), (2, 0), (0, 2), (2, 2)]))
    # missing interior points are rejected
    with pytest.raises(ValueError):
        LatticeConfig.from_config(
            ff.PointConfig(2, [(-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1)])
        )
    # the star closure cones the boundary from the origin: with the origin on
    # the boundary, or another point inside, no fine star triangulation exists
    with pytest.raises(ValueError, match="origin must be interior"):
        LatticeConfig.from_config(ff.PointConfig(2, [(x, y) for x in range(3) for y in range(2)]))
    with pytest.raises(ValueError, match="only interior lattice point"):
        LatticeConfig.from_config(
            ff.PointConfig(2, [(x, y) for x in (-1, 0, 1) for y in range(-2, 3)])
        )


def test_is_frst_fan(square_lattice):
    config = square_lattice.config
    assert is_fine(SQUARE_FAN, config)
    assert certify_regularity(SQUARE_FAN, config).regular
    assert is_star(SQUARE_FAN, config, square_lattice.origin_index)
    assert is_frst(SQUARE_FAN, square_lattice)


def test_is_frst_corner_triangulation(square_lattice):
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    assert not is_fine(corners, square_lattice.config)
    assert not is_frst(corners, square_lattice)


def test_is_frst_fine_regular_nonstar(square_lattice, square_lattice_table):
    # flip one fan triangle pair away from the origin: stays fine+regular
    found = None
    for action in flippable_circuits(SQUARE_FAN, square_lattice_table):
        candidate = apply_flip(SQUARE_FAN, action)
        if is_fine(candidate, square_lattice.config) and not is_star(
            candidate, square_lattice.config, 4
        ):
            if is_regular(candidate, square_lattice.config)[0]:
                found = candidate
                break
    assert found is not None
    config = square_lattice.config
    assert is_fine(found, config)
    assert certify_regularity(found, config).regular
    assert not is_star(found, config, square_lattice.origin_index)
    assert not is_frst(found, square_lattice)


def test_star_closure_fixes_nonstar(square_lattice, square_lattice_table):
    state, config = None, square_lattice.config
    for action in flippable_circuits(SQUARE_FAN, square_lattice_table):
        candidate = apply_flip(SQUARE_FAN, action)
        if fine_and_regular(candidate, config) is not None and not is_star(candidate, config, 4):
            state = candidate
            break
    closed = star_closure(state, square_lattice)
    assert is_frst(closed, square_lattice)
    assert closed.canonical_key == SQUARE_FAN.canonical_key  # unique FRST


def test_star_closure_idempotent_on_star_input(square_lattice):
    closed = star_closure(SQUARE_FAN, square_lattice)
    assert is_frst(closed, square_lattice)
    assert closed.canonical_key == SQUARE_FAN.canonical_key


def test_star_closure_witness_recheck(square_lattice):
    closed = star_closure(SQUARE_FAN, square_lattice)
    flag, witness = is_regular(closed, square_lattice.config)
    assert flag
    from flipforge.triangulation import regular_from_heights

    assert regular_from_heights(square_lattice.config, witness).canonical_key == closed.canonical_key


def test_episode_success_at_step_zero(square_lattice, square_lattice_table):
    result = nearby_frst_episode(
        SQUARE_FAN, RANDOM_WALK, square_lattice, reach(square_lattice_table, 0, 50)
    )
    assert result.success and result.steps == 0
    assert result.closed.canonical_key == SQUARE_FAN.canonical_key


def test_episode_budget_zero_nonfine_start(square_lattice, square_lattice_table):
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    result = nearby_frst_episode(
        corners, RANDOM_WALK, square_lattice, reach(square_lattice_table, 0, 0)
    )
    assert not result.success


def test_episode_reachability_matches_bfs(square_lattice, square_lattice_table):
    """RandomWalk success from the corner start agrees with reachability."""
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    component = enumerate_component(corners, square_lattice_table, limit=100_000)
    target_reachable = any(
        fine_and_regular(t, square_lattice.config) is not None for t in component.states.values()
    )
    assert target_reachable
    successes = 0
    for seed in range(12):
        result = nearby_frst_episode(
            corners, RANDOM_WALK, square_lattice, reach(square_lattice_table, seed, 50)
        )
        successes += result.success
    assert successes > 0


@pytest.mark.parametrize("name", ["greedy", "dfs", "befs", "anneal", "random_walk"])
def test_episode_takes_any_model_free_strategy(name, square_lattice, square_lattice_table):
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    result = nearby_frst_episode(
        corners, make_strategy(name), square_lattice, reach(square_lattice_table, 0, 30)
    )
    # a strategy that stays at a state with flips left spends its step
    assert result.steps == len(result.visited_keys) - 1 <= 30
    assert result.success or result.steps == 30
    for key in result.visited_keys:
        assert validate(Triangulation(key), square_lattice.config).ok


def test_sample_frsts_square_recovers_exhaustive_set(square_lattice, square_lattice_table):
    oracle = exhaustive_frsts(square_lattice, square_lattice_table)
    assert len(oracle) == 1  # the full fan is the unique FRST of the square
    sampler = SamplerConfig(max_iterations=1024, retry_limit=50)
    ledger = sample_frsts(
        square_lattice,
        sampler,
        RANDOM_WALK,
        np.random.default_rng(11),
        table=square_lattice_table,
    )
    assert find_keys(ledger) == set(oracle)
    # stopping rule: exactly retry_limit consecutive misses end the loop
    assert len(ledger.entries) < sampler.max_iterations
    tail = ledger.entries[-sampler.retry_limit :]
    assert all(not e.new_key for e in tail)
    assert ledger.entries[-(sampler.retry_limit + 1)].new_key


def test_sample_frsts_retry_limit_one(square_lattice, square_lattice_table):
    sampler = SamplerConfig(max_iterations=1024, retry_limit=1)
    ledger = sample_frsts(
        square_lattice,
        sampler,
        RANDOM_WALK,
        np.random.default_rng(11),
        table=square_lattice_table,
    )
    # first iteration finds the unique FRST, second retries out
    assert len(ledger) == 1
    assert len(ledger.entries) == 2


def test_sample_frsts_iteration_cap_zero(square_lattice, square_lattice_table):
    sampler = SamplerConfig(max_iterations=0, retry_limit=50)
    ledger = sample_frsts(
        square_lattice,
        sampler,
        RANDOM_WALK,
        np.random.default_rng(1),
        table=square_lattice_table,
    )
    assert len(ledger) == 0 and ledger.entries == []


def test_sample_frsts_monotone_ledger(square_lattice, square_lattice_table):
    ledger = sample_frsts(
        square_lattice,
        SamplerConfig(max_iterations=64, retry_limit=64),
        RANDOM_WALK,
        np.random.default_rng(5),
        table=square_lattice_table,
    )
    counts = [e.cumulative for e in ledger.entries]
    assert counts == sorted(counts)
    ms = [e.elapsed_ms for e in ledger.entries]
    assert ms == sorted(ms)


def test_sample_frsts_lift_only(square_lattice, square_lattice_table):
    # the plain-lifting locator only accepts immediately-fine lifts
    ledger = sample_frsts(
        square_lattice,
        SamplerConfig(max_iterations=512, retry_limit=512),
        None,  # lift-only: no strategy
        np.random.default_rng(3),
        table=square_lattice_table,
    )
    for tri in ledger.triangulations.values():
        assert is_frst(tri, square_lattice)


@pytest.mark.parametrize("name,expected", [("simplex3d", 1), ("octahedron3d", 1)])
def test_sample_frsts_3d_fixtures(name, expected):
    lattice = LatticeConfig.from_config(read_point_config(ff.fixture_path(name)))
    table = enumerate_circuits(lattice.config)
    oracle = exhaustive_frsts(lattice, table)
    assert len(oracle) == expected
    sampler = SamplerConfig(max_iterations=1024, retry_limit=50)
    ledger = sample_frsts(
        lattice, sampler, RANDOM_WALK, np.random.default_rng(17), table=table
    )
    assert find_keys(ledger) == set(oracle)
    assert len(ledger.entries) < sampler.max_iterations  # retry rule fired


def test_virtual_clock_deterministic():
    clock = VirtualClock()
    assert clock.elapsed() == 0.0
    clock.tick()
    clock.tick()
    assert clock.elapsed() == pytest.approx(0.002)


def test_episode_states_all_valid(square_lattice, square_lattice_table):
    start = Triangulation([(0, 2, 6), (2, 6, 8)])  # coarse, non-fine start
    visited = []

    class TrackingWalk(RandomWalkStrategy):
        def step(self, tri, actions, ctx):
            visited.append(tri)
            return super().step(tri, actions, ctx)

    nearby_frst_episode(
        start, TrackingWalk(), square_lattice, reach(square_lattice_table, 2, 20)
    )
    assert visited
    for tri in visited:
        assert validate(tri, square_lattice.config).ok


def test_a_sampling_run_validates_each_flipped_state_once(
    square_lattice, square_lattice_table, monkeypatch
):
    import flipforge.search as search

    validated, episodes = [], []
    real = search.require_valid

    def require_valid(tri, config):
        validated.append(tri.canonical_key)
        real(tri, config)

    monkeypatch.setattr(search, "require_valid", require_valid)

    class RecordingWalk(RandomWalkStrategy):
        """A random walk that notes, per episode, the states its flips reach."""

        def reset(self, tri, ctx):
            episodes.append([])

        def step(self, tri, actions, ctx):
            nxt, action = super().step(tri, actions, ctx)
            if action is not None:
                episodes[-1].append(nxt.canonical_key)
            return nxt, action

    sample_frsts(
        square_lattice,
        SamplerConfig(max_iterations=30, retry_limit=30),
        RecordingWalk(),
        np.random.default_rng(4),
        table=square_lattice_table,
    )
    flipped = [key for episode in episodes for key in episode]
    # episodes reach states that earlier episodes reached
    assert sum(len(set(episode)) for episode in episodes) > len(set(flipped))
    assert validated == list(dict.fromkeys(flipped))


def test_episode_invalid_flipped_state_raises(monkeypatch, square_lattice, square_lattice_table):
    import flipforge.search as search

    real = search.apply_flip
    monkeypatch.setattr(search, "apply_flip", lambda tri, a: Triangulation(real(tri, a).simplices[1:]))
    corners = Triangulation([(0, 2, 6), (2, 6, 8)])
    with pytest.raises(FlipForgeError, match="invalid triangulation"):
        nearby_frst_episode(
            corners, RANDOM_WALK, square_lattice, reach(square_lattice_table, 0, 5)
        )
