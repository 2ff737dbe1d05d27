"""FRST episodes and seed sets against the loops they replaced.

An FRST episode is a search strategy's walk, ``SearchContext.walk``, the
loop ``run_budgeted`` iterates; a sampling run's episodes share one context.
The reference below is the episode loop as it was before: a chooser function
picks each flip and ``require_valid`` runs on every flipped state.
``seed_triangulations`` is one capped ``enumerate_component`` call; its
reference is the breadth-first loop it replaced.  Both pairs must agree
exactly.
"""

import numpy as np
import pytest

import flipforge as ff
import flipforge.frst as frst
import flipforge.search as search
from flipforge.datagen import initial_triangulation, seed_triangulations
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits, neighbors
from flipforge.frst import (
    EpisodeResult,
    LatticeConfig,
    SamplerConfig,
    nearby_frst_episode,
    sample_frsts,
    star_closure,
)
from flipforge.io import read_point_config
from flipforge.objectives import Objective, ObjectiveCache
from flipforge.policy import (
    ModelConfig,
    PolicyModel,
    actor_logits,
    encode,
    policy_distribution,
    state_graph,
)
from flipforge.search import SearchContext, make_strategy
from flipforge.triangulation import Triangulation, certify_regularity, is_fine, require_valid

PRISM = ff.PointConfig(
    3, sorted((x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0)))
)


def lattice(name):
    if name == "prism":
        return LatticeConfig.from_config(PRISM)
    return LatticeConfig.from_config(read_point_config(ff.fixture_path(name)))


LATTICES = {
    name: (lat := lattice(name), enumerate_circuits(lat.config))
    for name in ("square2d", "octahedron3d", "prism")
}


def action_probabilities(model, config, tri, actions):
    """The actor's distribution over ``actions`` from one forward on ``tri`` alone."""
    params = model._const_params()
    enc = encode(state_graph([(config, tri, actions)], model.config.actor_kind), params, model.config)
    return policy_distribution(actor_logits(enc, params, model.config)).data.reshape(-1)


def random_walk_chooser(tri, actions, rng):
    return actions[rng.integers(len(actions))]


def policy_chooser(model, config, mode):
    def choose(tri, actions, rng):
        probs = action_probabilities(model, config, tri, actions)
        if mode == "argmax":
            return actions[int(probs.argmax())]
        return actions[int(rng.choice(len(actions), p=probs))]

    return choose


def reference_episode(start, chooser, lattice, table, rng, budget=50, cache=None):
    """The episode loop before strategies stepped it."""
    cache = cache if cache is not None else ObjectiveCache()
    config = lattice.config
    current = start
    visited = [current.canonical_key]
    for step in range(budget + 1):
        if is_fine(current, config):
            cert = certify_regularity(current, config, cache.certificates)
            if cert.regular:
                closed = star_closure(current, lattice, cert.vector, cache)
                return EpisodeResult(True, step, closed, visited)
        if step == budget:
            break
        actions = flippable_circuits(current, table)
        if not actions:
            break
        action = chooser(current, actions, rng)
        if action is None:
            break
        current = apply_flip(current, action)
        require_valid(current, config)
        visited.append(current.canonical_key)
    return EpisodeResult(False, len(visited) - 1, None, visited)


def strategy_episode(start, strategy, lattice, table, rng, budget=50):
    """``nearby_frst_episode`` in a context of its own, under the reference's arguments."""
    ctx = SearchContext(lattice.config, table, Objective.FRST_REACH, seed=rng, budget=budget)
    return nearby_frst_episode(start, strategy, lattice, ctx)


def reference_seeds(config, cap):
    """The breadth-first seed loop before it became a capped component traversal."""
    table = enumerate_circuits(config)
    start = initial_triangulation(config)
    seen = {start.canonical_key: start}
    queue = [start]
    head = 0
    while head < len(queue) and len(seen) < cap:
        current = queue[head]
        head += 1
        for nxt in neighbors(current, table):
            if len(seen) >= cap:
                break
            if nxt.canonical_key not in seen:
                seen[nxt.canonical_key] = nxt
                queue.append(nxt)
    return list(seen.values())


def summary(result):
    closed = result.closed.canonical_key if result.closed is not None else None
    return result.success, result.steps, result.visited_keys, closed


def locators(config):
    """(strategy, chooser, budget) pairs: random walk, and a small policy in both modes."""
    model = PolicyModel.initialize(
        ModelConfig(input_dim=config.dim, hidden=8, encoder_layers=1, actor_layers=1), seed=3
    )
    yield make_strategy("random_walk"), random_walk_chooser, 40
    for mode in ("argmax", "sample"):
        strategy = make_strategy("policy", model=model, params={"mode": mode})
        yield strategy, policy_chooser(model, config, mode), 8


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_strategy_episodes_match_the_chooser_loop(name):
    lat, table = LATTICES[name]
    sampler = SamplerConfig()
    for strategy, chooser, budget in locators(lat.config):
        outcomes = []
        for seed in range(20):
            start = frst._lifted_start(lat.config, sampler, np.random.default_rng(seed))
            results = [
                episode(
                    Triangulation(start.simplices),
                    locator,
                    lat,
                    table,
                    np.random.default_rng(1000 + seed),
                    budget=budget,
                )
                for episode, locator in (
                    (reference_episode, chooser),
                    (strategy_episode, strategy),
                )
            ]
            assert summary(results[1]) == summary(results[0]), (strategy.name, seed)
            outcomes.append((results[0].success, results[0].steps))
        assert any(steps for _success, steps in outcomes), strategy.name  # some episodes walk
        if strategy.name == "random_walk":
            assert any(success for success, _steps in outcomes)


@pytest.mark.parametrize("name", ["square2d", "prism"])
def test_sampler_ledgers_match_the_chooser_loop(name, monkeypatch):
    lat, table = LATTICES[name]
    sampler = SamplerConfig(max_iterations=10, retry_limit=10, flip_budget=60)
    walk = make_strategy("random_walk")
    want = sample_frsts(lat, sampler, walk, np.random.default_rng(8), table=table)
    monkeypatch.setattr(
        frst,
        "nearby_frst_episode",
        lambda start, _strategy, lattice, ctx: reference_episode(
            start, random_walk_chooser, lattice, ctx.table, ctx.rng, ctx.budget, ctx.cache
        ),
    )
    got = sample_frsts(lat, sampler, None, np.random.default_rng(8), table=table)
    assert got.entries == want.entries and len(want) > 0


def test_lift_only_never_scans_flips(monkeypatch):
    lat, table = LATTICES["prism"]

    def scan(tri, table):
        raise AssertionError("lift-only scanned a state's flips")

    monkeypatch.setattr(frst, "flippable_circuits", scan)
    monkeypatch.setattr(search, "flippable_circuits", scan)
    sampler = SamplerConfig(max_iterations=30, retry_limit=30)
    ledger = sample_frsts(lat, sampler, None, np.random.default_rng(2), table=table)
    assert len(ledger.entries) == 30


@pytest.mark.parametrize("cap", [1, 2, 5, 50, 2000])
@pytest.mark.parametrize("name", sorted(LATTICES))
def test_seed_triangulations_match_the_bfs_loop(name, cap):
    config = LATTICES[name][0].config
    want = [t.canonical_key for t in reference_seeds(config, cap)]
    got = [t.canonical_key for t in seed_triangulations(config, cap=cap)]
    assert got == want and len(got) <= cap
