"""The vectorized policy against the loop formulation it replaced.

``policy_oracle`` keeps the old kernels: ``np.add.at`` scatters, one max-pool
op per simplex and per action, a dense B^T B Laplacian and unfused layers.
The encoder's first edge layer multiplies node rows before the gather
(``autodiff.pair_linear``), which sums in another order, so the encoder,
the value head and their gradients must agree to 1e-12 relative; the
batched action readouts sum in yet another order, so logits and gradients
must agree to 1e-9 relative.  A disjoint union of
states must hold exactly the arrays of the oracle join of their batches of
one (``policy_oracle.batch_graphs``), give each of them what its batch of
one gives, to 1e-12 relative, and one rollout step's loss must have the
gradients of its transitions' losses summed.
"""

import math

import numpy as np
import pytest

import flipforge as ff
from flipforge import autodiff as ad
from flipforge.autodiff import Tensor
from flipforge.errors import DegenerateConfig
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.geometry import placing_triangulation
from flipforge.objectives import Objective
from flipforge.policy import (
    EncodedState,
    ModelConfig,
    PolicyModel,
    actor_logits,
    encode,
    init_parameters,
    nls_accept_probability,
    policy_distribution,
    state_graph,
    value_estimate,
)
from flipforge.search import SearchContext
from flipforge.training import RolloutStep, TrainerConfig, Transition, _step_loss
from flipforge.triangulation import Triangulation

import policy_oracle as oracle

KINDS = ("snn", "egnn_only", "pool_mlp", "nls_accept")
RTOL = 1e-9


def _random_states(dim, seed, walks=2, steps=6):
    """(config, triangulation) pairs along random flip walks from a placing triangulation."""
    rng = np.random.default_rng(seed)
    while True:
        n = dim + int(rng.integers(3, 6))
        points = {tuple(int(c) for c in rng.integers(-3, 4, dim)) for _ in range(n)}
        try:
            config = ff.PointConfig(dim, sorted(points), is_lattice=False)
        except DegenerateConfig:
            continue
        break
    table = enumerate_circuits(config)
    start = Triangulation(placing_triangulation(config))
    states = [start]
    for _ in range(walks):
        tri = start
        for _ in range(steps):
            actions = flippable_circuits(tri, table)
            if not actions:
                break
            tri = apply_flip(tri, actions[int(rng.integers(len(actions)))])
            states.append(tri)
    return [(config, tri, table) for tri in states]


@pytest.fixture(scope="module")
def states():
    cases = []
    for dim, seed in ((2, 1), (2, 2), (3, 3), (3, 4), (4, 5)):
        cases += _random_states(dim, seed)
    return [case for case in cases if flippable_circuits(case[1], case[2])]


def test_cases_cover_unused_points_and_unequal_removed_counts(states):
    assert {config.dim for config, _t, _tb in states} == {2, 3, 4}
    assert any(len(tri.vertex_union) < config.n for config, tri, _tb in states)
    assert any(
        len({len(a.removed) for a in flippable_circuits(tri, table)}) > 1
        for _c, tri, table in states
    )


def _params(dim, kind, seed):
    model = ModelConfig(input_dim=dim, hidden=6, actor_kind=kind)
    values = init_parameters(model, np.random.default_rng(seed))
    # a stronger coordinate head makes the coordinate updates matter
    for name in values:
        if name.endswith("coord1.w"):
            values[name] = values[name] * 300.0
    return model, values


def _close(new, old, scale=None):
    """``new`` within 1e-9 of ``old``, relative to ``scale`` (default: old's largest entry)."""
    scale = np.max(np.abs(old)) if scale is None else scale
    return np.max(np.abs(new - old)) <= RTOL * scale


@pytest.mark.parametrize("kind", KINDS)
def test_forward_matches_oracle(states, kind):
    for case, (config, tri, table) in enumerate(states):
        model, values = _params(config.dim, kind, case)
        params = {k: Tensor(v) for k, v in values.items()}
        actions = flippable_circuits(tri, table)
        enc = encode(state_graph([(config, tri, actions)], kind), params, model)
        hidden, coords = oracle.encode(config, tri, params, model)
        assert _within(enc.hidden.data, hidden.data)
        assert _within(enc.coords.data, coords.data)
        if kind == "nls_accept":
            got = nls_accept_probability(enc, params).data
            assert _within(got, oracle.nls_accept_probability(hidden, params).data)
            continue
        expected = oracle.actor_logits(hidden, config, tri, actions, params, model).data
        assert _close(actor_logits(enc, params, model).data, expected)
        got = value_estimate(enc, params, model).data
        assert _within(got, oracle.value_estimate(hidden, params, model).data)


def test_laplacian_matches_dense_boundary_product(states):
    for config, tri, _table in states:
        fast = state_graph([(config, tri, [])], "snn").laplacian
        slow = oracle.simplicial_operator(tri, config)
        assert np.array_equal(fast.rows, slow.rows) and np.array_equal(fast.cols, slow.cols)
        assert np.array_equal(fast.vals, slow.vals)
        assert np.array_equal(fast.dense(), slow.dense())


def test_state_graphs_share_one_float_conversion(states):
    for config, tri, _table in states:
        coords = state_graph([(config, tri, [])], "snn").coords
        assert coords is config.float_rows() and not coords.flags.writeable
        assert np.array_equal(coords, [[float(c) for c in p] for p in config.points])


def _grads(build, values):
    tape = ad.Tape()
    leaves = {k: ad.leaf(tape, v) for k, v in values.items()}
    grads = ad.backward(tape, build(leaves))
    return {k: grads.get(t.node_id, np.zeros_like(t.data)) for k, t in leaves.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_loss_gradients_match_oracle(states, kind):
    trainer = TrainerConfig()
    for case, (config, tri, table) in enumerate(states):
        model, values = _params(config.dim, kind, 100 + case)
        actions = flippable_circuits(tri, table)
        pick = case % len(actions)
        nls = kind == "nls_accept"
        transition = Transition(
            env=SearchContext(config, table, Objective.MIN_WEIGHT),
            state=tri,
            actions=actions[:1] if nls else actions,
            action_index=(case % 2) - 1 if nls else pick,
            old_log_prob=math.log(0.4),
            value=0.0,
            reward=0.0,
            done=False,
            ret=0.3,
        )
        policy = PolicyModel(model, values)
        new = _grads(
            lambda p: oracle.ppo_transition_loss(policy, p, transition, trainer, 0.7)[0], values
        )
        old = _grads(
            lambda p: oracle.transition_loss(
                config, tri, transition.actions, transition.action_index, p, model,
                transition.old_log_prob, 0.7, transition.ret,
            ),
            values,
        )
        # relative to the largest gradient entry: some gradients vanish
        # analytically (the last actor bias shifts every logit alike, which the
        # softmax cancels) and hold only rounding
        scale = max(np.max(np.abs(g)) for g in old.values())
        for name in values:
            assert _close(new[name], old[name], scale), (case, name)

        def encoder_loss(p):
            graph = state_graph([(config, tri, actions)], kind)
            return ad.tensor_sum(ad.square(encode(graph, p, model).hidden))

        def oracle_encoder_loss(p):
            return ad.tensor_sum(ad.square(oracle.encode(config, tri, p, model)[0]))

        new, old = _grads(encoder_loss, values), _grads(oracle_encoder_loss, values)
        for name in values:
            assert _within(new[name], old[name]), (case, name)


@pytest.mark.parametrize("kind", ("snn", "egnn_only", "pool_mlp"))
def test_pooling_gradients_on_tied_embeddings(states, kind):
    # small integers tie often: each max must route to its first argmax
    rng = np.random.default_rng(7)
    for case, (config, tri, table) in enumerate(states):
        model, values = _params(config.dim, kind, 200 + case)
        params = {k: Tensor(v) for k, v in values.items()}
        actions = flippable_circuits(tri, table)
        graph = state_graph([(config, tri, actions)], kind)
        hidden = rng.integers(-2, 3, (config.n, model.hidden)).astype(float)

        def new_loss(p):
            enc = EncodedState(hidden=p["h"], coords=None, graph=graph)
            logits = actor_logits(enc, params, model)
            value = value_estimate(enc, params, model)
            return ad.add(ad.tensor_sum(ad.square(logits)), ad.tensor_sum(value))

        def old_loss(p):
            logits = oracle.actor_logits(p["h"], config, tri, actions, params, model)
            value = oracle.value_estimate(p["h"], params, model)
            return ad.add(ad.tensor_sum(ad.square(logits)), ad.tensor_sum(value))

        new, old = _grads(new_loss, {"h": hidden}), _grads(old_loss, {"h": hidden})
        assert _close(new["h"], old["h"]), case


def test_group_max_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 4))
    groups = [[0, 2, 5, 0], [1, 3, 1, 1], [4, 0, 2, 3]]  # padded by repeating the first member
    weights = rng.standard_normal((3, 4))

    def forward(p):
        return ad.tensor_sum(ad.mul(ad.group_max(p["x"], groups), ad.constant(weights)))

    err, ok = ad.finite_diff_check(forward, {"x": x}, tolerance=1e-7, step=1e-6)
    assert ok, err


@pytest.mark.parametrize("silu", (False, True))
def test_linear_finite_differences(silu):
    rng = np.random.default_rng(4)
    values = {
        "x": rng.standard_normal((5, 3)),
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(4),
    }
    weights = rng.standard_normal((5, 4))

    def forward(p):
        return ad.tensor_sum(ad.mul(ad.linear(p["x"], p["w"], p["b"], silu), ad.constant(weights)))

    err, ok = ad.finite_diff_check(forward, values, tolerance=1e-7, step=1e-6)
    assert ok, err
    # the fused op equals matmul, bias and SiLU applied one after another
    x, w, b = (Tensor(values[k]) for k in ("x", "w", "b"))
    unfused = ad.add(ad.matmul(x, w), b)
    if silu:
        unfused = oracle.silu(unfused)
    assert np.array_equal(ad.linear(x, w, b, silu).data, unfused.data)


def _pair_linear_cases(states):
    """A batch of one with a point no edge touches, and a union of three graphs."""
    unused = next(
        (config, tri, table) for config, tri, table in states if len(tri.vertex_union) < config.n
    )
    same_dim = [case for case in states if case[0].dim == 3][:3]
    assert len(same_dim) == 3
    lone = state_graph([(unused[0], unused[1], flippable_circuits(unused[1], unused[2]))], "snn")
    union = state_graph([(c, t, flippable_circuits(t, tb)) for c, t, tb in same_dim], "snn")
    return [lone, union]


def _pair_linear_values(graph, extra_width, seed):
    rng = np.random.default_rng(seed)
    n, e, k, m = graph.coords.shape[0], graph.own.size, 5, 4
    return {
        "h": rng.standard_normal((n, k)),
        "extra": rng.standard_normal((e, extra_width)),
        "w": rng.standard_normal((2 * k + extra_width, m)),
        "b": rng.standard_normal(m),
    }


@pytest.mark.parametrize("extra_width", (1, 2))
def test_pair_linear_matches_concat_then_linear(states, extra_width):
    for case, graph in enumerate(_pair_linear_cases(states)):
        own, nbr = graph.own, graph.nbr
        values = _pair_linear_values(graph, extra_width, case)
        weights = Tensor(np.random.default_rng(50 + case).standard_normal((own.size, 4)))

        def fused(p):
            return ad.pair_linear(p["h"], own, nbr, p["extra"], p["w"], p["b"])

        def unfused(p):
            rows = [ad.gather_rows(p["h"], own), ad.gather_rows(p["h"], nbr), p["extra"]]
            return ad.linear(ad.concat(rows, axis=1), p["w"], p["b"], silu=True)

        plain = {k: Tensor(v) for k, v in values.items()}
        assert _within(fused(plain).data, unfused(plain).data), case
        new = _grads(lambda p: ad.tensor_sum(ad.mul(fused(p), weights)), values)
        old = _grads(lambda p: ad.tensor_sum(ad.mul(unfused(p), weights)), values)
        for name in values:
            assert new[name].shape == values[name].shape
            assert _within(new[name], old[name]), (case, name)
        # a node no edge touches gets no gradient
        untouched = np.setdiff1d(np.arange(values["h"].shape[0]), own)
        assert case > 0 or untouched.size > 0
        assert not new["h"][untouched].any()
        err, ok = ad.finite_diff_check(
            lambda p: ad.tensor_sum(ad.mul(fused(p), weights)), values, tolerance=1e-7, step=1e-6
        )
        assert ok, (case, err)


def test_stable_sigmoid_matches_masked_form():
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [0.0, -0.0, 1e-300, -1e-300]])
    assert np.array_equal(ad._stable_sigmoid(x), oracle.stable_sigmoid(x))


def _unions(states, count=6, seed=11):
    """Random unions of 2-5 same-dimension states, with each member's index in ``states``."""
    rng = np.random.default_rng(seed)
    by_dim = {}
    for index, (config, _tri, _table) in enumerate(states):
        by_dim.setdefault(config.dim, []).append(index)
    unions = []
    for _ in range(count):
        for dim in sorted(by_dim):
            pool = by_dim[dim]
            k = int(rng.integers(2, 6))
            unions.append([pool[i] for i in rng.choice(len(pool), size=k, replace=False)])
    return unions


def _within(new, old):
    """``new`` within 1e-12 of ``old``, relative to old's largest entry."""
    return np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


def _same(new, old):
    """Equal arrays of one dtype, or both None."""
    if old is None:
        return new is None
    return new.dtype == old.dtype and np.array_equal(new, old)


@pytest.mark.parametrize("kind", KINDS)
def test_union_arrays_match_the_oracle_join(states, kind):
    # per dimension: states of one configuration and of another (in 2D, of
    # another point count), and a state with no actions between scored ones
    point_counts = []
    for dim in (2, 3, 4):
        cases = [
            (config, tri, flippable_circuits(tri, table))
            for config, tri, table in states
            if config.dim == dim
        ]
        first, second = cases[0], cases[1]
        other = [case for case in cases if case[0] is not first[0]][:1]  # none in 4D
        triples = [first, (second[0], second[1], []), *other, cases[-1]]
        point_counts.append({config.n for config, _t, _a in triples})
        union = state_graph(triples, kind)
        joined = oracle.batch_graphs([state_graph([triple], kind) for triple in triples])
        for name in ("coords", "own", "nbr", "inv_degree", "simplices", "action_groups"):
            assert _same(getattr(union, name), getattr(joined, name)), (dim, name)
        for name in ("node_offsets", "action_offsets"):
            assert _same(getattr(union, name), getattr(joined, name)), (dim, name)
        assert union.actions == joined.actions == [a for _c, _t, acts in triples for a in acts]
        assert (union.laplacian is None) == (joined.laplacian is None) == (kind != "snn")
        if kind == "snn":
            for name in ("rows", "cols", "vals"):
                got, want = getattr(union.laplacian, name), getattr(joined.laplacian, name)
                assert _same(got, want), (dim, name)
            assert union.laplacian.shape == joined.laplacian.shape
        assert (union.action_groups is None) == (kind == "nls_accept")
    assert max(map(len, point_counts)) > 1


@pytest.mark.parametrize("kind", KINDS)
def test_union_matches_each_batch_of_one(states, kind):
    for case, members in enumerate(_unions(states)):
        dim = states[members[0]][0].dim
        model, values = _params(dim, kind, 300 + case)
        params = {k: Tensor(v) for k, v in values.items()}
        triples = [
            (config, tri, flippable_circuits(tri, table))
            for config, tri, table in (states[i] for i in members)
        ]
        graphs = [state_graph([triple], kind) for triple in triples]
        union = state_graph(triples, kind)
        assert union.size == len(graphs)
        enc = encode(union, params, model)
        nodes, acts = union.node_offsets, union.action_offsets
        if kind == "nls_accept":
            heads = [nls_accept_probability(enc, params).data]
        else:
            logits = actor_logits(enc, params, model)
            heads = [logits.data, policy_distribution(logits, acts).data]
        heads.append(value_estimate(enc, params, model).data)
        for j, graph in enumerate(graphs):
            alone = encode(graph, params, model)
            rows = slice(nodes[j], nodes[j + 1])
            assert _within(enc.hidden.data[rows], alone.hidden.data)
            assert _within(enc.coords.data[rows], alone.coords.data)
            if kind == "nls_accept":
                expected = [nls_accept_probability(alone, params).data]
                got = [heads[0][j : j + 1]]
            else:
                one = actor_logits(alone, params, model)
                expected = [one.data, policy_distribution(one).data]
                got = [h[acts[j] : acts[j + 1]] for h in heads[:2]]
            expected.append(value_estimate(alone, params, model).data)
            got.append(heads[-1][j : j + 1])
            for new, old in zip(got, expected):
                assert new.shape == old.shape and _within(new, old), (case, j)


@pytest.mark.parametrize("kind", KINDS)
def test_step_loss_gradients_match_summed_transition_oracle(states, kind):
    trainer = TrainerConfig()
    nls = kind == "nls_accept"
    for case, members in enumerate(_unions(states, count=3)):
        dim = states[members[0]][0].dim
        model, values = _params(dim, kind, 400 + case)
        policy = PolicyModel(model, values)
        rng = np.random.default_rng(case)
        triples, transitions = [], []
        for i in members:
            config, tri, table = states[i]
            actions = flippable_circuits(tri, table)
            pick = int(rng.integers(len(actions)))
            triples.append((config, tri, actions))
            transitions.append(
                Transition(
                    env=SearchContext(config, table, Objective.MIN_WEIGHT),
                    state=tri,
                    actions=actions[pick : pick + 1] if nls else actions,
                    action_index=int(rng.integers(2)) - 1 if nls else pick,
                    old_log_prob=math.log(rng.uniform(0.05, 0.9)),
                    value=0.0,
                    reward=0.0,
                    done=False,
                    ret=float(rng.normal()),
                )
            )
        step = RolloutStep(graph=state_graph(triples, kind), transitions=transitions)
        adv = rng.normal(size=len(transitions))
        new = _grads(lambda p: _step_loss(policy, p, step, trainer, adv)[0], values)
        old = {name: np.zeros_like(v) for name, v in values.items()}
        for tr, a in zip(transitions, adv):
            grads = _grads(
                lambda p: oracle.ppo_transition_loss(policy, p, tr, trainer, float(a))[0], values
            )
            for name in values:
                old[name] += grads[name]
        scale = max(np.max(np.abs(g)) for g in old.values())
        for name in values:
            assert _close(new[name], old[name], scale), (case, name)

        # the per-transition terms agree with the oracle's statistics
        params = {k: Tensor(v) for k, v in values.items()}
        _total, terms = _step_loss(policy, params, step, trainer, adv)
        for j, (tr, a) in enumerate(zip(transitions, adv)):
            _loss, stats = oracle.ppo_transition_loss(policy, params, tr, trainer, float(a))
            for got, want in zip(terms[1:], stats):
                assert got[j] == pytest.approx(want, rel=1e-9, abs=1e-12), (case, j)
