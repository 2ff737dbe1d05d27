import inspect
import math

import pytest

import flipforge as ff
from flipforge.flips import enumerate_circuits, enumerate_component, flippable_circuits
from flipforge.objectives import Objective, ObjectiveCache, evaluate, search_value
from flipforge.search import (
    _STRATEGIES,
    AnnealStrategy,
    BefsStrategy,
    make_strategy,
    run_budgeted,
)
from flipforge.errors import FlipForgeError
from flipforge.triangulation import Triangulation, validate


def run(strategy_name, seed_tri, objective, budget, config, table, seed=0, params=None, model=None):
    strategy = make_strategy(strategy_name, params=params, model=model)
    assert validate(seed_tri, config), "invalid seed triangulation"
    return run_budgeted(
        strategy,
        seed_tri,
        objective,
        budget,
        config=config,
        table=table,
        seed=seed,
    )


def worst_state(config, table, objective, seed_tri):
    component = enumerate_component(seed_tri, table)
    cache = ObjectiveCache()
    ranked = sorted(
        component.states.values(),
        key=lambda t: (search_value(objective, t, config, cache), t.canonical_key),
    )
    return ranked[0], ranked[-1], component


def test_greedy_bipyramid_picks_improving_flip(bipyramid, bipyramid_table):
    three = Triangulation([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)])
    trace = run("greedy", three, Objective.MIN_SIMPLICES, 1, bipyramid, bipyramid_table)
    assert trace.best_value == 2.0


def test_greedy_trapezoid_one_flip_optimum(trapezoid):
    table = enumerate_circuits(trapezoid)
    long_diag = Triangulation([(0, 1, 3), (1, 2, 3)])
    trace = run("greedy", long_diag, Objective.MIN_WEIGHT, 1, trapezoid, table)
    assert trace.best_value == pytest.approx(
        evaluate(Objective.MIN_WEIGHT, Triangulation([(0, 1, 2), (0, 2, 3)]), trapezoid)
    )


def test_greedy_hexagon_reaches_enumerated_optimum(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    best, worst, component = worst_state(hexagon, hexagon_table, Objective.MIN_WEIGHT, fan)
    cache = ObjectiveCache()
    optimum = evaluate(Objective.MIN_WEIGHT, best, hexagon, cache)
    trace = run("greedy", worst, Objective.MIN_WEIGHT, 500, hexagon, hexagon_table)
    assert trace.best_value == pytest.approx(optimum, rel=1e-12)


def test_greedy_descends_before_least_bad(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    _best, worst, _ = worst_state(hexagon, hexagon_table, Objective.MIN_WEIGHT, fan)
    trace = run("greedy", worst, Objective.MIN_WEIGHT, 30, hexagon, hexagon_table)
    values = [r.value for r in trace.records]
    k = 0
    while k + 1 < len(values) and values[k + 1] < values[k]:
        k += 1
    # once the first non-improving (least-bad) step happens, the prefix must
    # have been strictly decreasing, i.e. no improvement was skipped
    assert k >= 1
    assert min(values[: k + 1]) == values[k]


def test_budget_zero(unit_square, unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    trace = run("greedy", tri, Objective.MIN_WEIGHT, 0, unit_square, unit_square_table)
    assert len(trace.records) == 1
    assert trace.best_value == pytest.approx(evaluate(Objective.MIN_WEIGHT, tri, unit_square))


def test_every_strategy_square_budget(unit_square, unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    for name in ("greedy", "dfs", "befs", "anneal", "random_walk"):
        trace = run(name, tri, Objective.MIN_WEIGHT, 10, unit_square, unit_square_table, seed=3)
        assert len(trace.records) == 11
        assert trace.budget_used == 10
        # both states have the same weight; any visited state is one of the two
        assert trace.best_value == pytest.approx(4 + math.sqrt(2))


def test_random_walk_square_always_flips(unit_square, unit_square_table):
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    trace = run("random_walk", tri, Objective.MIN_WEIGHT, 5, unit_square, unit_square_table)
    keys = [t.canonical_key for t in trace.states]
    for a, b in zip(keys, keys[1:]):
        assert a != b  # the single flip always moves


def test_traces_validate_across_matrix(hexagon, hexagon_table, bipyramid, bipyramid_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    two = Triangulation([(0, 2, 3, 4), (1, 2, 3, 4)])
    matrix = [
        (hexagon, hexagon_table, fan),
        (bipyramid, bipyramid_table, two),
    ]
    for config, table, seed_tri in matrix:
        for name in ("greedy", "dfs", "befs", "anneal", "random_walk"):
            for objective in (Objective.MIN_WEIGHT, Objective.MIN_SIMPLICES, Objective.MIN_DIAMETER):
                trace = run(name, seed_tri, objective, 25, config, table, seed=11)
                for state in trace.states:
                    assert validate(state, config).ok


def test_dfs_backtracks_and_stays_when_exhausted(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    _best, worst, component = worst_state(hexagon, hexagon_table, Objective.MIN_WEIGHT, fan)
    trace = run("dfs", worst, Objective.MIN_WEIGHT, 100, hexagon, hexagon_table)
    # descent-only exploration cannot revisit states; eventually it stays put
    seen = [t.canonical_key for t in trace.states]
    moves = [(a, b) for a, b in zip(seen, seen[1:]) if a != b]
    distinct = set(seen)
    assert len(moves) == len(distinct) - 1  # each move lands on a fresh state
    assert seen[-1] == seen[-2]  # frontier empty, stays


def test_befs_priority_queue_law(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    _best, worst, _component = worst_state(hexagon, hexagon_table, Objective.MIN_WEIGHT, fan)
    strategy = BefsStrategy()
    cache = ObjectiveCache()
    from flipforge.search import SearchContext

    ctx = SearchContext(
        config=hexagon,
        table=hexagon_table,
        objective=Objective.MIN_WEIGHT,
        cache=cache,
        seed=0,
    )
    strategy.reset(worst, ctx)
    current = worst
    for _ in range(13):
        live = [
            v
            for (v, _expansion, _position), t, _a in strategy.frontier
            if t.code(hexagon_table.index) not in strategy.visited
        ]
        nxt, _action = strategy.step(current, None, ctx)
        popped_value = ctx.value(nxt)
        # the expanded state never exceeds any state skipped in the frontier
        assert all(popped_value <= v + 1e-12 for v in live)
        current = nxt


def test_each_registry_strategy_takes_only_its_own_parameters():
    # the names ``--strategy-param`` accepts; the learned strategies' model comes from a checkpoint
    accepted = {
        name: [p for p in inspect.signature(cls).parameters if p != "model"]
        for name, cls in _STRATEGIES.items()
    }
    assert accepted == {
        "greedy": [],
        "dfs": [],
        "befs": ["memory_cap"],
        "anneal": ["initial_temperature", "decay", "final_fraction"],
        "random_walk": [],
        "nls_accept": [],
        "policy": ["mode"],
    }


def test_anneal_acceptance_limits():
    strategy = AnnealStrategy()
    assert strategy.acceptance_probability(-1.0, 1e-9) == 1.0
    assert strategy.acceptance_probability(1.0, 1e-9) == pytest.approx(0.0, abs=1e-12)
    assert strategy.acceptance_probability(0.5, 1.0) == pytest.approx(math.exp(-0.5))


def test_anneal_acceptance_frequencies_match_rule(trapezoid):
    """Empirical acceptance over 10^4 proposals vs min(1, exp(-delta/T))."""
    table = enumerate_circuits(trapezoid)
    long_diag = Triangulation([(0, 1, 3), (1, 2, 3)])
    short_diag = Triangulation([(0, 1, 2), (0, 2, 3)])
    cache = ObjectiveCache()
    up = evaluate(Objective.MIN_WEIGHT, long_diag, trapezoid, cache) - evaluate(
        Objective.MIN_WEIGHT, short_diag, trapezoid, cache
    )
    scale = abs(evaluate(Objective.MIN_WEIGHT, short_diag, trapezoid, cache))
    temperature = 0.05
    expected = math.exp(-(up / scale) / temperature)

    strategy = AnnealStrategy(initial_temperature=temperature, decay=1.0)
    from flipforge.search import SearchContext

    ctx = SearchContext(
        config=trapezoid,
        table=table,
        objective=Objective.MIN_WEIGHT,
        cache=cache,
        seed=123,
        budget=10_000,
    )
    strategy.reset(short_diag, ctx)
    accepted = 0
    trials = 10_000
    for _ in range(trials):
        actions = flippable_circuits(short_diag, table)
        nxt, action = strategy.step(short_diag, actions, ctx)
        if action is not None:
            accepted += 1
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(accepted / trials - expected) <= 3 * se


def test_seeded_traces_bit_identical(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    for name in ("anneal", "random_walk", "greedy", "dfs", "befs"):
        t1 = run(name, fan, Objective.MIN_WEIGHT, 40, hexagon, hexagon_table, seed=21)
        t2 = run(name, fan, Objective.MIN_WEIGHT, 40, hexagon, hexagon_table, seed=21)
        assert [r.value for r in t1.records] == [r.value for r in t2.records]
        assert [r.action_id for r in t1.records] == [r.action_id for r in t2.records]


def test_empty_action_set_stays():
    config = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1)])
    table = enumerate_circuits(config)
    tri = Triangulation([(0, 1, 2)])
    trace = run("random_walk", tri, Objective.MIN_WEIGHT, 3, config, table)
    assert len(trace.records) == 4
    assert all(r.action_id is None for r in trace.records)


def test_invalid_flipped_state_raises_without_assert(monkeypatch, hexagon, hexagon_table):
    # the per-step check is explicit, so it also holds under python -O
    import flipforge.search as search

    real = search.apply_flip
    monkeypatch.setattr(search, "apply_flip", lambda tri, a: Triangulation(real(tri, a).simplices[1:]))
    seed_tri = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    with pytest.raises(FlipForgeError, match="invalid triangulation"):
        run("random_walk", seed_tri, Objective.MIN_WEIGHT, 5, hexagon, hexagon_table)
