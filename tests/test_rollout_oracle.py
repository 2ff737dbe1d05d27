"""Rollouts against the loop they replaced, and the samplers against numpy's.

``collect_rollouts`` moves each environment by the search layer's learned
strategy (``PolicyStrategy`` or ``AcceptanceStrategy``) applied to its slice
of one batched actor head, and a flipped state is validated on its first
arrival in its ``SearchContext``.  ``reference_rollouts`` below is the loop
as it was before: it chose, sampled and validated every move itself.  Both
must give the same buffers bit for bit, and leave the generator in the same
state.  ``PolicyStrategy`` samples by a cumulative sum; its reference is
``Generator.choice``.
"""

import math

import numpy as np
import pytest

import flipforge as ff
import flipforge.search as search
import flipforge.training as training
from flipforge.datagen import seed_triangulations
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.objectives import Objective, evaluate, reward
from flipforge.policy import (
    ModelConfig,
    PolicyModel,
    actor_logits,
    encode,
    nls_accept_probability,
    policy_distribution,
    state_graph,
    value_estimate,
)
from flipforge.search import PolicyStrategy, SearchContext
from flipforge.training import (
    RolloutBuffer,
    RolloutStep,
    TrainerConfig,
    Transition,
    VisitCounter,
    collect_rollouts,
    expansion_bonus,
    train,
)
from flipforge.triangulation import Triangulation, require_valid

from conftest import convex_polygon

KINDS = ("snn", "egnn_only", "pool_mlp", "nls_accept")
FAN = Triangulation(
    [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
)


def sample_action(probs, rng):
    """The rollouts' sampler before it moved into ``PolicyStrategy.choose``."""
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, probs.size - 1))


def reference_rollouts(model, starts, trainer, counter, rng):
    """``collect_rollouts`` as it was: its own choice, sampling and validation of every flip."""
    nls = model.config.actor_kind == "nls_accept"
    params = model._const_params()
    envs = [env for env, _start in starts]
    states = [start for _env, start in starts]
    episodes = [[] for _ in starts]
    returns = [0.0] * len(starts)
    running = []
    for i, (env, start) in enumerate(starts):
        counter.observe(env, start.canonical_key)
        reached = env.objective is Objective.FRST_REACH and evaluate(
            env.objective, start, env.config, env.cache
        )
        if not reached:
            running.append(i)
    steps = []
    for _t in range(trainer.horizon):
        stepping = []
        for i in running:
            actions = flippable_circuits(states[i], envs[i].table)
            if actions:
                stepping.append((i, actions))
        if not stepping:
            break
        union = state_graph(
            [(envs[i].config, states[i], actions) for i, actions in stepping],
            model.config.actor_kind,
        )
        enc = encode(union, params, model.config)
        values = value_estimate(enc, params, model.config).data.reshape(-1)
        if nls:
            heads = nls_accept_probability(enc, params).data.reshape(-1)
        else:
            logits = actor_logits(enc, params, model.config)
            heads = policy_distribution(logits, union.action_offsets).data.reshape(-1)
        bounds = union.action_offsets
        running, transitions = [], []
        for j, (i, actions) in enumerate(stepping):
            env, tri = envs[i], states[i]
            if nls:
                proposal = int(rng.integers(len(actions)))
                p_accept = float(heads[j])
                accept = bool(rng.random() < p_accept)
                log_prob = math.log(max(p_accept if accept else 1.0 - p_accept, 1e-12))
                nxt = apply_flip(tri, actions[proposal]) if accept else tri
                chosen_actions = [actions[proposal]]
                action_index = 0 if accept else -1
            else:
                probs = heads[bounds[j] : bounds[j + 1]]
                action_index = sample_action(probs, rng)
                log_prob = math.log(max(probs[action_index], 1e-300))
                nxt = apply_flip(tri, actions[action_index])
                chosen_actions = actions
            if nxt is not tri:
                require_valid(nxt, env.config)
            gain = reward(env.objective, tri, nxt, env.config, env.cache)
            success = env.objective is Objective.FRST_REACH and gain > 0
            bonus = expansion_bonus(counter, env, nxt.canonical_key, trainer.bonus_coef)
            returns[i] += gain + bonus
            transition = Transition(
                env=env,
                state=tri,
                actions=chosen_actions,
                action_index=action_index,
                old_log_prob=log_prob,
                value=float(values[j]),
                reward=gain + bonus,
                done=success,
            )
            episodes[i].append(transition)
            transitions.append(transition)
            states[i] = nxt
            if not success:
                running.append(i)
        steps.append(RolloutStep(graph=union, transitions=transitions))
    mean_return = float(np.mean(returns)) if returns else 0.0
    return RolloutBuffer(episodes=episodes, mean_return=mean_return, steps=steps)


@pytest.fixture(scope="module")
def scenario(hexagon, lattice_square):
    """A builder of fresh contexts and starts: polygons, a flipless triangle, reach episodes."""
    heptagon = convex_polygon(7)
    triangle = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1)])
    reach_table = enumerate_circuits(lattice_square)
    coarse = [
        nxt
        for nxt in (apply_flip(FAN, a) for a in flippable_circuits(FAN, reach_table))
        if len(nxt.vertex_union) < lattice_square.n
    ]
    metric = [
        (hexagon, seed_triangulations(hexagon, cap=5)),
        (heptagon, seed_triangulations(heptagon, cap=5)),
    ]
    tables = {id(config): enumerate_circuits(config) for config, _seeds in metric}

    def build():
        hex_env, hept_env = (
            SearchContext(config, tables[id(config)], Objective.MIN_WEIGHT) for config, _s in metric
        )
        stuck = SearchContext(triangle, enumerate_circuits(triangle), Objective.MIN_WEIGHT)
        reach = SearchContext(lattice_square, reach_table, Objective.FRST_REACH)
        hex_seeds, hept_seeds = (seeds for _config, seeds in metric)
        starts = [
            (hex_env, hex_seeds[0]),
            (hept_env, hept_seeds[1]),
            (reach, coarse[0]),
            (stuck, Triangulation([(0, 1, 2)])),
            (hex_env, hex_seeds[3]),
            (reach, FAN),
            (hept_env, hept_seeds[4]),
            (reach, coarse[2]),
        ]
        return [hex_env, hept_env, stuck, reach], starts

    return build


def graph_arrays(graph):
    lap = graph.laplacian
    return (
        graph.kind,
        graph.coords,
        graph.own,
        graph.nbr,
        graph.inv_degree,
        graph.simplices,
        None if lap is None else (lap.rows, lap.cols, lap.vals, lap.shape),
        [a.action_id for a in graph.actions],
        graph.action_groups,
        graph.node_offsets,
        graph.action_offsets,
    )


def assert_same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def transition_record(tr, envs):
    return (
        envs.index(tr.env),
        tr.state.canonical_key,
        tuple(a.action_id for a in tr.actions),
        tr.action_index,
        tr.old_log_prob,
        tr.value,
        tr.reward,
        tr.done,
    )


def run(collect, model, build, seed):
    envs, starts = build()
    counter, rng = VisitCounter(), np.random.default_rng(seed)
    trainer = TrainerConfig(horizon=12, num_envs=len(starts), bonus_coef=0.1)
    buffer = collect(model, starts, trainer, counter, rng)
    counts = {(envs.index(env), key): n for (env, key), n in counter._counts.items()}
    return buffer, envs, counts, rng.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
def test_rollouts_match_the_reference_loop(scenario, kind):
    accepted = rejected = done = 0
    for seed in range(5):
        model = PolicyModel.initialize(
            ModelConfig(input_dim=2, hidden=8, encoder_layers=2, actor_kind=kind), seed=seed
        )
        want, want_envs, want_counts, want_state = run(reference_rollouts, model, scenario, seed)
        got, got_envs, got_counts, got_state = run(collect_rollouts, model, scenario, seed)
        assert got.mean_return == want.mean_return
        assert got_counts == want_counts and got_state == want_state
        assert [len(ep) for ep in got.episodes] == [len(ep) for ep in want.episodes]
        assert len(got.steps) == len(want.steps)
        for got_step, want_step in zip(got.steps, want.steps):
            assert_same(graph_arrays(got_step.graph), graph_arrays(want_step.graph))
            assert [transition_record(tr, got_envs) for tr in got_step.transitions] == [
                transition_record(tr, want_envs) for tr in want_step.transitions
            ]
        for got_ep, want_ep in zip(got.episodes, want.episodes):
            assert [transition_record(tr, got_envs) for tr in got_ep] == [
                transition_record(tr, want_envs) for tr in want_ep
            ]
        accepted += sum(tr.action_index >= 0 for tr in got.transitions)
        rejected += sum(tr.action_index < 0 for tr in got.transitions)
        done += sum(tr.done for tr in got.transitions)
    # the runs exercise flips, reach successes and, for nls_accept, rejections
    assert accepted and done
    assert bool(rejected) == (kind == "nls_accept")


def test_policy_sampling_matches_generator_choice():
    strategy = PolicyStrategy(None, mode="sample")
    picks = set()
    for seed in range(40):
        source = np.random.default_rng(10_000 + seed)
        count = int(source.integers(1, 12))
        probs = source.dirichlet(np.full(count, 0.5))
        if seed % 4 == 0:  # an exact zero, as an underflowed probability gives
            probs[int(source.integers(count))] = 0.0
            probs /= probs.sum()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _draw in range(25):
            index, accepted = strategy.choose(probs, count, ours)
            assert accepted and index == int(theirs.choice(count, p=probs))
            picks.add(index)
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert len(picks) > 5


def test_training_validates_each_flipped_state_once_per_environment(hexagon, monkeypatch):
    heptagon = convex_polygon(7)
    environments = {
        SearchContext(config, enumerate_circuits(config), Objective.MIN_WEIGHT):
        seed_triangulations(config, cap=4)
        for config in (hexagon, heptagon)
    }
    validated, flipped = [], []
    real_validate, real_flip = search.require_valid, training.apply_flip

    def validate(tri, config):
        validated.append((config.n, tri.canonical_key))
        real_validate(tri, config)

    def flip(tri, action):
        nxt = real_flip(tri, action)
        flipped.append((len(nxt.vertex_union), nxt.canonical_key))
        return nxt

    monkeypatch.setattr(search, "require_valid", validate)
    monkeypatch.setattr(training, "apply_flip", flip)
    trainer = TrainerConfig(horizon=6, num_envs=4, iterations=3, seed=2)
    train(environments, ModelConfig(input_dim=2, hidden=8), trainer)
    # convex polygons use every point, so a key's vertex count names its environment
    assert len(flipped) == 3 * 4 * 6
    assert len(validated) == len(set(validated)) and set(validated) == set(flipped)
    assert len(validated) < len(flipped)  # revisits were not validated again
    for env in environments:
        # the context knows states by their masks on the table's simplex index
        valid = {env.table.index.decode(mask) for mask in env.valid}
        assert valid == {key for n, key in validated if n == env.config.n}
