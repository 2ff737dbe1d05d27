import dataclasses
import math

import numpy as np
import pytest

import flipforge as ff
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.objectives import Objective
from flipforge.policy import ModelConfig, PolicyModel
from flipforge.datagen import seed_triangulations
from flipforge.search import SearchContext, make_strategy
from flipforge.training import (
    RolloutBuffer,
    TrainerConfig,
    Transition,
    VisitCounter,
    collect_rollouts,
    compute_gae,
    expansion_bonus,
    explained_variance,
    initial_state_weights,
    ppo_update,
    sample_initial_states,
    train,
)
from flipforge.errors import FlipForgeError
from flipforge.triangulation import Triangulation
from flipforge import autodiff as ad


@pytest.fixture(scope="module")
def square_env(unit_square):
    return SearchContext(unit_square, enumerate_circuits(unit_square), Objective.MIN_WEIGHT)


@pytest.fixture(scope="module")
def square_seeds():
    return [Triangulation([(0, 1, 2), (0, 2, 3)]), Triangulation([(0, 1, 3), (1, 2, 3)])]


def small_trainer(**kw):
    defaults = dict(horizon=5, num_envs=2, iterations=2, learning_rate=1e-3, seed=1)
    defaults.update(kw)
    return TrainerConfig(**defaults)


def test_visit_counter_starts_at_one():
    counter = VisitCounter()
    assert counter.count("p", ("k",)) == 1
    assert counter.observe("p", ("k",)) == 1
    assert counter.count("p", ("k",)) == 2


def test_expansion_bonus_sequence():
    counter = VisitCounter()
    beta = 0.1
    got = [expansion_bonus(counter, "p", ("k",), beta) for _ in range(4)]
    expected = [beta, beta / math.sqrt(2), beta / math.sqrt(3), beta / 2.0]
    assert got == pytest.approx(expected)


def test_expansion_bonus_first_and_fourth():
    counter = VisitCounter()
    assert expansion_bonus(counter, "p", ("k",), 0.5) == pytest.approx(0.5)
    counter2 = VisitCounter()
    for _ in range(3):
        expansion_bonus(counter2, "p", ("k",), 0.5)
    assert expansion_bonus(counter2, "p", ("k",), 0.5) == pytest.approx(0.25)


def test_expansion_bonus_zero_coefficient():
    counter = VisitCounter()
    assert expansion_bonus(counter, "p", ("k",), 0.0) == 0.0


def test_initial_weights_uniform_and_biased(square_seeds):
    counter = VisitCounter()
    entries = [("p", square_seeds[0]), ("p", square_seeds[1])]
    assert initial_state_weights(entries, counter).tolist() == [0.5, 0.5]
    for _ in range(3):  # counts become (1+3, 1) = (4, 1)
        counter.observe("p", square_seeds[0].canonical_key)
    weights = initial_state_weights(entries, counter)
    assert weights == pytest.approx([1 / 3, 2 / 3])


def test_sample_initial_states_single_seed(square_seeds):
    counter = VisitCounter()
    picks = sample_initial_states(
        {"p": [square_seeds[0]]}, counter, 5, np.random.default_rng(0)
    )
    assert all(tri is square_seeds[0] for _pid, tri in picks)


def test_sample_initial_states_empty():
    with pytest.raises(ValueError):
        sample_initial_states({}, VisitCounter(), 1, np.random.default_rng(0))


def make_model(dim=2, hidden=8, kind="snn", seed=0):
    return PolicyModel.initialize(ModelConfig(input_dim=dim, hidden=hidden, actor_kind=kind), seed=seed)


def test_collect_rollouts_horizon_zero(square_env, square_seeds):
    model = make_model()
    trainer = small_trainer(horizon=5)
    buffer = collect_rollouts(model, [], trainer, VisitCounter(), np.random.default_rng(0))
    assert buffer.transitions == []


def test_collect_rollouts_square(square_env, square_seeds):
    model = make_model()
    trainer = small_trainer(horizon=4, bonus_coef=0.0)
    counter = VisitCounter()
    buffer = collect_rollouts(
        model,
        [(square_env, square_seeds[0])],
        trainer,
        counter,
        np.random.default_rng(3),
    )
    transitions = buffer.transitions
    assert len(transitions) == 4
    # the square has one action per state: rewards are exactly zero deltas
    # (both triangulations share the same weight) and bonus is disabled
    for tr in transitions:
        assert tr.reward == pytest.approx(0.0)
    # initial state observed once, each next state observed per step
    assert counter.count(square_env, square_seeds[0].canonical_key) >= 2


def test_collect_rollouts_bonus_matches_formula(square_env, square_seeds):
    model = make_model()
    trainer = small_trainer(horizon=4, bonus_coef=0.2)
    counter = VisitCounter()
    buffer = collect_rollouts(
        model,
        [(square_env, square_seeds[0])],
        trainer,
        counter,
        np.random.default_rng(3),
    )
    # square alternates between its two states; state A: init-observe then
    # visits at t=1,3; state B: visits at t=0,2
    rewards = [tr.reward for tr in buffer.transitions]
    beta = 0.2
    expected = [beta, beta / math.sqrt(2), beta / math.sqrt(2), beta / math.sqrt(3)]
    assert rewards == pytest.approx(expected)


def synthetic_buffer(rewards, values, dones=None):
    env = None
    episode = []
    dones = dones or [False] * len(rewards)
    for r, v, d in zip(rewards, values, dones):
        episode.append(
            Transition(
                env=env,
                state=None,
                actions=[],
                action_index=0,
                old_log_prob=0.0,
                value=v,
                reward=r,
                done=d,
            )
        )
    return RolloutBuffer(episodes=[episode])


def test_gae_monte_carlo_limit():
    buffer = synthetic_buffer([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    compute_gae(buffer, discount=1.0, lam=1.0)
    adv = [t.advantage for t in buffer.transitions]
    assert adv == pytest.approx([6.0, 5.0, 3.0])


def test_gae_one_step_limit():
    values = [1.0, 2.0, 3.0]
    rewards = [0.5, 0.5, 0.5]
    buffer = synthetic_buffer(rewards, values)
    compute_gae(buffer, discount=0.9, lam=0.0)
    adv = [t.advantage for t in buffer.transitions]
    expected = [
        0.5 + 0.9 * 2.0 - 1.0,
        0.5 + 0.9 * 3.0 - 2.0,
        0.5 - 3.0,  # bootstrap omitted at the horizon
    ]
    assert adv == pytest.approx(expected)


def test_gae_zero_discount_constant_reward():
    buffer = synthetic_buffer([2.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    compute_gae(buffer, discount=0.0, lam=0.7)
    assert [t.advantage for t in buffer.transitions] == pytest.approx([2.0, 2.0, 2.0])


def test_gae_returns_are_advantage_plus_value():
    buffer = synthetic_buffer([1.0, -1.0], [0.3, 0.6])
    compute_gae(buffer, discount=0.99, lam=0.95)
    for tr in buffer.transitions:
        assert tr.ret == pytest.approx(tr.advantage + tr.value)


def rollout_and_gae(model, env, seeds, trainer, seed=0):
    counter = VisitCounter()
    starts = [(env, seeds[i % len(seeds)]) for i in range(trainer.num_envs)]
    buffer = collect_rollouts(model, starts, trainer, counter, np.random.default_rng(seed))
    compute_gae(buffer, trainer.discount, trainer.gae_lambda)
    return buffer


def test_ppo_ratio_one_policy_loss_is_minus_mean_advantage(square_env, square_seeds):
    model = make_model(seed=5)
    trainer = small_trainer(horizon=4, normalize_advantages=False)
    buffer = rollout_and_gae(model, square_env, square_seeds, trainer)
    adam_params = [ad.Parameter(k, v) for k, v in model.params.items()]
    report = ppo_update(model, buffer, trainer, adam_params)
    advantages = [t.advantage for t in buffer.transitions]
    assert report.policy_loss == pytest.approx(-np.mean(advantages), rel=1e-9)
    assert report.clip_fraction == 0.0


def test_ppo_zero_advantage_keeps_policy_gradient_zero(square_env, square_seeds):
    model = make_model(seed=6)
    trainer = small_trainer(horizon=3, normalize_advantages=False)
    buffer = rollout_and_gae(model, square_env, square_seeds, trainer)
    for tr in buffer.transitions:
        tr.advantage = 0.0
        tr.ret = tr.value  # value loss also vanishes
    before = {k: v.copy() for k, v in model.params.items()}
    trainer2 = dataclasses.replace(trainer, entropy_coef=0.0)
    adam_params = [ad.Parameter(k, v) for k, v in model.params.items()]
    report = ppo_update(model, buffer, trainer2, adam_params)
    assert report.policy_loss == pytest.approx(0.0, abs=1e-12)
    for k in before:
        assert np.allclose(model.params[k], before[k], atol=1e-12)


def test_entropy_of_uniform_policy():
    # four equal logits: negative entropy = -log 4 per step
    probs = np.full((4, 1), 0.25)
    neg_entropy = float((probs * np.log(probs)).sum())
    assert neg_entropy == pytest.approx(-math.log(4.0))


def test_clipped_surrogate_elementwise_law():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ratio = float(np.exp(rng.normal(0, 0.5)))
        adv = float(rng.normal())
        eps = 0.1
        clipped = min(max(ratio, 1 - eps), 1 + eps)
        surrogate = min(ratio * adv, clipped * adv)
        assert surrogate <= ratio * adv + 1e-15
        assert surrogate <= clipped * adv + 1e-15


def test_ppo_lr_zero_no_parameter_change(square_env, square_seeds):
    model = make_model(seed=7)
    trainer = small_trainer(horizon=3, learning_rate=0.0)
    buffer = rollout_and_gae(model, square_env, square_seeds, trainer)
    before = {k: v.copy() for k, v in model.params.items()}
    adam_params = [ad.Parameter(k, v) for k, v in model.params.items()]
    ppo_update(model, buffer, trainer, adam_params)
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def hexagon_environments(hexagon):
    from flipforge.datagen import seed_triangulations

    env = SearchContext(hexagon, enumerate_circuits(hexagon), Objective.MIN_WEIGHT)
    return {env: seed_triangulations(hexagon, cap=14)}


def test_train_zero_iterations(hexagon):
    envs = hexagon_environments(hexagon)
    mc = ModelConfig(input_dim=2, hidden=8)
    tc = small_trainer(iterations=0)
    result = train(envs, mc, tc)
    fresh = PolicyModel.initialize(mc, seed=np.random.SeedSequence(tc.seed).spawn(2)[0])
    assert result.curve == []
    for k in fresh.params:
        assert np.array_equal(result.model.params[k], fresh.params[k])


def test_train_bit_identical_curves(hexagon):
    envs = hexagon_environments(hexagon)
    mc = ModelConfig(input_dim=2, hidden=8)
    tc = small_trainer(iterations=3, num_envs=3, horizon=6)
    a = train(envs, mc, tc)
    b = train(envs, mc, tc)
    assert a.curve == b.curve
    for k in a.model.params:
        assert np.array_equal(a.model.params[k], b.model.params[k])


def test_train_nls_actor_smoke(hexagon):
    envs = hexagon_environments(hexagon)
    mc = ModelConfig(input_dim=2, hidden=8, actor_kind="nls_accept")
    tc = small_trainer(iterations=2, num_envs=2, horizon=5)
    result = train(envs, mc, tc)
    assert len(result.curve) == 2
    assert all(np.isfinite(r["policy_loss"]) for r in result.curve)


def test_frst_reach_episode_terminates_on_success(lattice_square):
    config = lattice_square
    env = SearchContext(config, enumerate_circuits(config), Objective.FRST_REACH)
    fan = Triangulation(
        [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
    )
    model = make_model(dim=2, seed=8)
    trainer = small_trainer(horizon=6)
    counter = VisitCounter()
    buffer = collect_rollouts(model, [(env, fan)], trainer, counter, np.random.default_rng(1))
    # the start is already fine+regular: episode produces no transitions
    assert buffer.episodes[0] == []


def _check_lockstep(buffer, lengths):
    """Episode lengths as given, and each step holds exactly the environments still running."""
    assert [len(ep) for ep in buffer.episodes] == lengths
    assert len(buffer.transitions) == sum(lengths)
    assert len(buffer.steps) == max(lengths, default=0)
    for t, step in enumerate(buffer.steps):
        running = [ep[t] for ep in buffer.episodes if len(ep) > t]
        assert step.transitions == running
        assert step.graph.size == len(running)


def test_lockstep_reach_episodes_leave_on_success(lattice_square):
    config = lattice_square
    env = SearchContext(config, enumerate_circuits(config), Objective.FRST_REACH)
    fan = Triangulation(
        [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
    )
    # the fan's neighbors that drop a point are not fine: one flip puts it back
    coarse = [
        nxt
        for nxt in (apply_flip(fan, a) for a in flippable_circuits(fan, env.table))
        if len(nxt.vertex_union) < config.n
    ]
    assert len(coarse) == 4
    starts = [(env, tri) for tri in coarse[:2] + [fan] + coarse[2:]]
    trainer = small_trainer(horizon=6)
    buffer = collect_rollouts(
        make_model(dim=2, seed=8), starts, trainer, VisitCounter(), np.random.default_rng(0)
    )
    lengths = [len(ep) for ep in buffer.episodes]
    assert lengths[2] == 0  # the fan is already fine and regular
    # with this seed some episodes succeed early and one runs the full horizon;
    # an episode ends early only on success, and a success ends it
    for ep in buffer.episodes:
        assert not any(tr.done for tr in ep[:-1])
        assert not ep or ep[-1].done or len(ep) == 6
    assert any(0 < n < 6 for n in lengths)
    assert any(len(ep) == 6 and not ep[-1].done for ep in buffer.episodes)
    _check_lockstep(buffer, lengths)


def test_lockstep_environment_without_flips_leaves_at_once(square_env, square_seeds):
    triangle = ff.PointConfig(2, [(0, 0), (1, 0), (0, 1)])
    stuck = SearchContext(triangle, enumerate_circuits(triangle), Objective.MIN_WEIGHT)
    single = Triangulation([(0, 1, 2)])
    square_a, square_b = ((square_env, tri) for tri in square_seeds)
    starts = [(stuck, single), square_a, (stuck, single), square_b]
    buffer = collect_rollouts(
        make_model(dim=2, seed=3), starts, small_trainer(horizon=4), VisitCounter(),
        np.random.default_rng(0),
    )
    _check_lockstep(buffer, [0, 4, 0, 4])
    assert buffer.mean_action_count == 1.0


@pytest.mark.parametrize("kind", ["snn", "egnn_only", "pool_mlp", "nls_accept"])
def test_search_step_and_rollout_step_move_alike(hexagon, hexagon_table, kind):
    """A one-environment rollout step and a search step are the same batch of one."""
    start = seed_triangulations(hexagon, cap=1)[0]
    actions = flippable_circuits(start, hexagon_table)
    model = make_model(kind=kind, seed=2)
    if kind == "nls_accept":
        strategy = make_strategy("nls_accept", model=model)
    else:
        strategy = make_strategy("policy", model=model, params={"mode": "sample"})
    moves = []
    for seed in range(8):
        env = SearchContext(hexagon, hexagon_table, Objective.MIN_WEIGHT)
        rng = np.random.default_rng(seed)
        trainer = small_trainer(horizon=1, num_envs=1)
        [tr] = collect_rollouts(model, [(env, start)], trainer, VisitCounter(), rng).transitions
        rolled = tr.actions[tr.action_index] if tr.action_index >= 0 else None
        ctx = SearchContext(
            hexagon, hexagon_table, Objective.MIN_WEIGHT, seed=np.random.default_rng(seed)
        )
        nxt, action = strategy.step(start, actions, ctx)
        assert action is rolled
        assert nxt is start if rolled is None else nxt == apply_flip(start, rolled)
        assert ctx.rng.bit_generator.state == rng.bit_generator.state
        moves.append(None if rolled is None else rolled.action_id)
    # the seeds draw more than one move, and stays only for the acceptance gate
    assert len(set(moves)) > 1
    assert (None in moves) == (kind == "nls_accept")


def test_gae_lambda_one_is_discounted_monte_carlo():
    rewards = [1.0, -2.0, 0.5, 3.0]
    values = [0.4, -0.1, 0.2, 0.9]
    buffer = synthetic_buffer(rewards, values)
    gamma = 0.9
    compute_gae(buffer, discount=gamma, lam=1.0)
    for t, tr in enumerate(buffer.transitions):
        mc = sum(gamma ** h * rewards[t + h] for h in range(len(rewards) - t))
        assert tr.advantage == pytest.approx(mc - values[t], rel=1e-12)


def test_collect_rollouts_invalid_flipped_state_raises(monkeypatch, square_env, square_seeds):
    import flipforge.training as training

    real = training.apply_flip
    monkeypatch.setattr(training, "apply_flip", lambda tri, a: Triangulation(real(tri, a).simplices[1:]))
    with pytest.raises(FlipForgeError, match="invalid triangulation"):
        collect_rollouts(
            make_model(dim=2),
            [(square_env, square_seeds[0])],
            small_trainer(),
            VisitCounter(),
            np.random.default_rng(0),
        )


def test_curve_records_ppo_diagnostics(hexagon):
    envs = hexagon_environments(hexagon)
    mc = ModelConfig(input_dim=2, hidden=8)
    result = train(envs, mc, small_trainer(iterations=2, num_envs=3, horizon=4))
    for record in result.curve:
        for key in ("approx_kl", "grad_norm", "explained_variance"):
            assert np.isfinite(record[key]), key
        # one epoch starts from the rollout policy: every ratio is exactly 1
        assert record["approx_kl"] == 0.0
        assert record["grad_norm"] > 0.0
        assert record["mean_episode_length"] == 4.0  # every hexagon state has a flip
        assert record["mean_action_count"] >= 1.0


def test_explained_variance_limits():
    buffer = synthetic_buffer([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    for tr, ret in zip(buffer.transitions, (1.0, 2.0, 4.0)):
        tr.ret = ret
    assert explained_variance(buffer) == 0.0  # values carry no information
    for tr in buffer.transitions:
        tr.value = tr.ret
    assert explained_variance(buffer) == 1.0
    for tr in buffer.transitions:
        tr.ret = 5.0
    assert explained_variance(buffer) == 0.0  # returns do not vary
    assert explained_variance(RolloutBuffer(episodes=[[]])) == 0.0


def test_ppo_diagnostics_match_their_definitions(hexagon, square_env, square_seeds):
    from policy_oracle import ppo_transition_loss

    trainer = small_trainer(horizon=4, learning_rate=0.05)
    square = rollout_and_gae(make_model(seed=9), square_env, square_seeds, trainer)
    assert square.mean_action_count == 1.0  # a triangulated square has one flip
    assert square.mean_episode_length == 4.0
    [(env, seeds)] = hexagon_environments(hexagon).items()
    model = make_model(seed=9)
    buffer = rollout_and_gae(model, env, seeds, trainer)
    advantages = np.array([t.advantage for t in buffer.transitions])
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    sums = {k: np.zeros_like(v) for k, v in model.params.items()}
    for tr, adv in zip(buffer.transitions, advantages):
        tape = ad.Tape()
        params = model.taped_parameters(tape)
        total, _stats = ppo_transition_loss(model, params, tr, trainer, float(adv))
        grads = ad.backward(tape, total)
        for k, t in params.items():
            sums[k] += grads.get(t.node_id, 0.0)
    norm = math.sqrt(sum(float(np.sum((g / len(advantages)) ** 2)) for g in sums.values()))
    adam_params = [ad.Parameter(k, v) for k, v in model.params.items()]
    report = ppo_update(model, buffer, trainer, adam_params)
    assert report.grad_norm == pytest.approx(norm, rel=1e-12)
    assert report.approx_kl == 0.0
    # a second epoch sees moved parameters, so its ratios differ from 1
    model = make_model(seed=9)
    buffer = rollout_and_gae(model, env, seeds, trainer)
    adam_params = [ad.Parameter(k, v) for k, v in model.params.items()]
    two = dataclasses.replace(trainer, ppo_epochs=2)
    assert ppo_update(model, buffer, two, adam_params).approx_kl > 0.0
