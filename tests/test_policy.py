import numpy as np
import pytest

import flipforge as ff
from flipforge import autodiff as ad
from flipforge.autodiff import Tensor
from flipforge.flips import enumerate_circuits, flippable_circuits
from flipforge.policy import (
    ModelConfig,
    PolicyModel,
    actor_logits,
    egnn_layer,
    encode,
    init_parameters,
    policy_distribution,
    state_graph,
    value_estimate,
)
from flipforge.search import PolicyStrategy
from flipforge.triangulation import Triangulation
from grad_check import finite_diff_check
from policy_oracle import boundary_matrix, to_dense


@pytest.fixture(scope="module")
def square_setup(unit_square):
    table = enumerate_circuits(unit_square)
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    actions = flippable_circuits(tri, table)
    return unit_square, table, tri, actions


def small_model(dim, kind="snn", hidden=12, seed=0):
    config = ModelConfig(input_dim=dim, hidden=hidden, actor_kind=kind)
    return PolicyModel.initialize(config, seed=seed)


def encode_state(config, tri, params, model, actions=()):
    """``encode`` on the batch of one holding ``tri``, scoring ``actions``."""
    return encode(state_graph([(config, tri, actions)], model.actor_kind), params, model)


def state_logits(model, config, tri, actions):
    """The actor's logits on the batch of one holding ``tri``, one row per action."""
    params = model._const_params()
    enc = encode_state(config, tri, params, model.config, actions)
    return actor_logits(enc, params, model.config)


def state_head(model, config, tri, actions=()):
    """The model's actor head (``forward``) on the batch of one holding ``tri``."""
    return model.forward(state_graph([(config, tri, actions)], model.config.actor_kind))[1]


def test_unused_point_gets_zero_inverse_degree_and_finite_encoding():
    # the centre (index 4) is left out of the triangulation, as a lifted FRST
    # start may leave a point unused
    config = ff.PointConfig(2, [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)])
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    graph = state_graph([(config, tri, [])], "snn")
    assert graph.inv_degree[:, 0].tolist() == [1 / 3, 1 / 2, 1 / 3, 1 / 2, 0.0]
    model = small_model(2)
    params = {k: Tensor(v) for k, v in model.params.items()}
    enc = encode_state(config, tri, params, model.config)
    assert np.all(np.isfinite(enc.hidden.data))


def test_twin_vertices_equal_embeddings():
    # two vertices with identical coordinates and neighborhoods
    config = ff.PointConfig(2, [(0, 0), (2, 0), (1, 2), (1, 2)], is_lattice=False)
    tri = Triangulation([(0, 1, 2), (0, 1, 3)])  # both twins see {0,1}
    model = small_model(2)
    params = {k: Tensor(v) for k, v in model.params.items()}
    enc = encode_state(config, tri, params, model.config)
    assert np.allclose(enc.hidden.data[2], enc.hidden.data[3], atol=1e-12)


def test_egnn_layer_rigid_motion_equivariance():
    rng = np.random.default_rng(0)
    model = small_model(3)
    params = {k: Tensor(v) for k, v in model.params.items()}
    n = 5
    hidden = rng.standard_normal((n, model.config.hidden))
    coords = rng.standard_normal((n, 3))
    tri = Triangulation([(0, 1, 2, 3), (1, 2, 3, 4)])
    graph = state_graph([(ff.PointConfig(3, coords.tolist()), tri, [])], model.config.actor_kind)

    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shift = np.array([0.3, -1.2, 2.0])

    h1, x1 = egnn_layer(Tensor(hidden), Tensor(coords), graph, params, 0)
    h2, x2 = egnn_layer(Tensor(hidden), Tensor(coords @ rot.T + shift), graph, params, 0)
    assert np.allclose(h1.data, h2.data, atol=1e-9)
    assert np.allclose(x2.data, x1.data @ rot.T + shift, atol=1e-9)


def test_zero_mlps_give_identity_encoder(square_setup):
    config, _table, tri, _actions = square_setup
    model = small_model(2)
    zeroed = dict(model.params)
    for name in list(zeroed):
        if ".edge" in name or ".coord" in name or ".hidden" in name:
            zeroed[name] = np.zeros_like(zeroed[name])
    params = {k: Tensor(v) for k, v in zeroed.items()}
    enc = encode_state(config, tri, params, model.config)
    coords = np.array([[float(c) for c in p] for p in config.points])
    assert np.allclose(enc.hidden.data, coords @ zeroed["embed.w"], atol=1e-15)
    assert np.allclose(enc.coords.data, coords, atol=1e-15)


def test_vertex_permutation_equivariance(square_setup):
    config, table, tri, actions = square_setup
    model = small_model(2, hidden=10, seed=3)

    perm = [2, 0, 3, 1]  # new label of each old vertex
    permuted_points = [None] * 4
    for old, new in enumerate(perm):
        permuted_points[new] = config.points[old]
    pconfig = ff.PointConfig(2, permuted_points, is_lattice=False)
    ptri = Triangulation([tuple(sorted(perm[v] for v in s)) for s in tri.simplices])
    ptable = enumerate_circuits(pconfig)
    pactions = flippable_circuits(ptri, ptable)

    params = {k: Tensor(v) for k, v in model.params.items()}
    enc = encode_state(config, tri, params, model.config, actions)
    penc = encode_state(pconfig, ptri, params, model.config, pactions)
    for old in range(4):
        assert np.allclose(enc.hidden.data[old], penc.hidden.data[perm[old]], atol=1e-9)

    logits = actor_logits(enc, params, model.config).data.reshape(-1)
    plogits = actor_logits(penc, params, model.config).data.reshape(-1)
    # match actions by their permuted removed sets
    mapping = {}
    for i, action in enumerate(actions):
        key = frozenset(tuple(sorted(perm[v] for v in s)) for s in action.removed)
        mapping[key] = logits[i]
    for j, paction in enumerate(pactions):
        key = frozenset(paction.removed)
        assert plogits[j] == pytest.approx(mapping[key], rel=1e-9)

    v1 = value_estimate(enc, params, model.config).data[0, 0]
    v2 = value_estimate(penc, params, model.config).data[0, 0]
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_value_head_pooling_invariances(square_setup):
    config, _table, tri, _actions = square_setup
    model = small_model(2, seed=5)
    params = {k: Tensor(v) for k, v in model.params.items()}
    enc = encode_state(config, tri, params, model.config)

    v = value_estimate(enc, params, model.config).data[0, 0]
    # duplicated rows leave a max-pool unchanged
    dup = type(enc)(
        hidden=Tensor(np.vstack([enc.hidden.data, enc.hidden.data])),
        coords=enc.coords,
        graph=enc.graph,
    )
    v_dup = value_estimate(dup, params, model.config).data[0, 0]
    assert v == pytest.approx(v_dup, rel=1e-12)

    zeroed = dict(model.params)
    zeroed[f"value{model.config.value_layers - 1}.w"] = np.zeros_like(
        zeroed[f"value{model.config.value_layers - 1}.w"]
    )
    zeroed[f"value{model.config.value_layers - 1}.b"] = np.zeros_like(
        zeroed[f"value{model.config.value_layers - 1}.b"]
    )
    zparams = {k: Tensor(v) for k, v in zeroed.items()}
    assert value_estimate(enc, zparams, model.config).data[0, 0] == 0.0


def test_boundary_matrix_and_operator(square_setup):
    config, _table, tri, _actions = square_setup
    b = boundary_matrix(tri, config)
    assert b.shape == (5, 2)  # five edges, two triangles
    dense = b.dense()
    # each triangle has alternating signs on its three faces
    assert sorted(np.abs(dense).sum(axis=0).tolist()) == [3.0, 3.0]
    lap = to_dense(state_graph([(config, tri, [])], "snn").laplacian)
    assert np.allclose(lap, lap.T, atol=1e-15)
    assert np.abs(lap).sum(axis=1).max() == pytest.approx(1.0)


def test_chebyshev_identity_configuration(square_setup):
    config, _table, tri, actions = square_setup
    mc = ModelConfig(
        input_dim=2, hidden=6, actor_layers=1, chebyshev_order=1, actor_kind="snn"
    )
    params_np = init_parameters(mc, np.random.default_rng(0))
    params_np["actor0.theta0"] = np.eye(6)
    params_np["actor0.b"] = np.zeros(6)
    params = {k: Tensor(v) for k, v in params_np.items()}
    enc = encode_state(config, tri, params, mc)
    from flipforge.policy import simplex_features, _chebyshev_apply

    g0 = simplex_features(enc)
    g1 = _chebyshev_apply(enc.graph.laplacian, g0, params, 0, 1, final=True)
    assert np.allclose(g0.data, g1.data, atol=1e-15)


def test_single_action_probability_one(square_setup):
    config, _table, tri, actions = square_setup
    model = small_model(2)
    probs = state_head(model, config, tri, actions)
    assert len(probs) == 1 and probs[0] == pytest.approx(1.0)


def test_symmetric_square_equal_logits():
    # centrally symmetric square, fresh symmetric parameters: the fan from the
    # center has two flips related by the symmetry, hence equal logits
    config = ff.PointConfig(2, [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)], is_lattice=False)
    table = enumerate_circuits(config)
    fan = Triangulation([(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    actions = flippable_circuits(fan, table)
    model = small_model(2, seed=9)
    logits = state_logits(model, config, fan, actions).data.reshape(-1)
    by_circuit = {a.circuit.vertices: l for a, l in zip(actions, logits)}
    # the two diagonal circuits {0,2,4} and {1,3,4} map to each other under the
    # point reflection (x,y) -> (-x,-y) composed with relabeling 0<->2, 1<->3,
    # which fixes the configuration and the fan
    assert by_circuit[(0, 2, 4)] == pytest.approx(by_circuit[(1, 3, 4)], rel=1e-9)


def test_logits_depend_on_removed_simplices(square_setup):
    config, _table, tri, actions = square_setup
    model = small_model(2, seed=11)
    params = {k: Tensor(v) for k, v in model.params.items()}
    enc = encode_state(config, tri, params, model.config, actions)
    logit = actor_logits(enc, params, model.config).data[0, 0]

    # oracle: recompute by hand from the propagated simplex features
    from flipforge.policy import simplex_features, _chebyshev_apply

    g = simplex_features(enc)
    operator = enc.graph.laplacian
    for layer in range(model.config.actor_layers):
        final = layer == model.config.actor_layers - 1
        g = _chebyshev_apply(operator, g, params, layer, model.config.chebyshev_order, final)
    idx = [tri.simplices.index(s) for s in actions[0].removed]
    pooled = g.data[idx].max(axis=0, keepdims=True)
    expected = (pooled @ model.params["actor.readout.w"])[0, 0]
    assert logit == pytest.approx(expected, rel=1e-12)

    # pooling over a strict subset of the removed simplices changes the input
    partial = g.data[idx[:1]].max(axis=0, keepdims=True)
    assert not np.allclose(partial, pooled)


def test_policy_distribution_properties():
    logits = Tensor(np.array([[0.3], [0.3], [0.3], [0.3]]))
    probs = policy_distribution(logits).data.reshape(-1)
    assert np.allclose(probs, 0.25)
    shifted = policy_distribution(Tensor(np.array([[5.3], [5.3], [5.3], [5.3]])))
    assert np.allclose(shifted.data.reshape(-1), probs)
    sat = policy_distribution(Tensor(np.array([[0.0], [1e9]]))).data.reshape(-1)
    assert sat[1] == pytest.approx(1.0)


def test_sampling_deterministic():
    strategy = PolicyStrategy(small_model(2), mode="sample")
    probs = np.array([0.2, 0.5, 0.3])
    a = strategy.choose(probs, 3, np.random.default_rng(12))
    b = strategy.choose(probs, 3, np.random.default_rng(12))
    assert a == b


def test_nls_probability_properties(square_setup):
    config, _table, tri, _actions = square_setup
    model = small_model(2, kind="nls_accept", seed=2)
    [p] = state_head(model, config, tri)
    assert 0.0 < p < 1.0

    zeroed = dict(model.params)
    zeroed["accept2.w"] = np.zeros_like(zeroed["accept2.w"])
    zeroed["accept2.b"] = np.zeros_like(zeroed["accept2.b"])
    zmodel = PolicyModel(model.config, zeroed)
    assert state_head(zmodel, config, tri)[0] == pytest.approx(0.5)

    bumped = dict(zeroed)
    bumped["accept2.b"] = np.array([3.0])
    bmodel = PolicyModel(model.config, bumped)
    assert state_head(bmodel, config, tri)[0] > 0.5


def test_all_logits_finite_for_all_actor_kinds(square_setup):
    config, _table, tri, actions = square_setup
    for kind in ("snn", "egnn_only", "pool_mlp"):
        model = small_model(2, kind=kind, seed=4)
        logits = state_logits(model, config, tri, actions).data
        assert np.isfinite(logits).all()


def test_layerwise_gradient_checks(square_setup):
    """Finite differences per layer type at 1e-4 (linear layer at 1e-7)."""
    rng = np.random.default_rng(42)

    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    x = rng.standard_normal((3, 6))

    def linear(params):
        return ad.tensor_sum(ad.square(ad.add(ad.matmul(ad.constant(x), params["w"]), params["b"])))

    err, ok = finite_diff_check(linear, {"w": w, "b": b}, tolerance=1e-7, step=1e-6)
    assert ok, err

    config, _table, tri, actions = square_setup
    model = small_model(2, seed=21)
    layer_names = [k for k in model.params if k.startswith("enc0.")]

    def egnn_forward(params):
        full = {k: (params[k] if k in params else Tensor(v)) for k, v in model.params.items()}
        enc = encode_state(config, tri, full, model.config)
        return ad.tensor_sum(ad.square(enc.hidden))

    values = {k: model.params[k] for k in layer_names}
    err, ok = finite_diff_check(egnn_forward, values, tolerance=1e-4, max_coords=6)
    assert ok, err

    def logit_forward(params):
        full = {k: (params[k] if k in params else Tensor(v)) for k, v in model.params.items()}
        enc = encode_state(config, tri, full, model.config, actions)
        logits = actor_logits(enc, full, model.config)
        return ad.tensor_sum(ad.square(logits))

    actor_names = [k for k in model.params if k.startswith("actor")]
    err, ok = finite_diff_check(
        logit_forward, {k: model.params[k] for k in actor_names}, tolerance=1e-4, max_coords=6
    )
    assert ok, err
