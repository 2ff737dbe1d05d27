import numpy as np
import pytest

from flipforge import autodiff as ad
from flipforge.autodiff import Parameter, SparseMatrix, Tape, Tensor
from grad_check import finite_diff_check
from policy_oracle import to_dense


def grad_of(build, values, wrt):
    """Tape gradient of a scalar built from named leaf tensors."""
    tape = Tape()
    leaves = {k: ad.leaf(tape, v) for k, v in values.items()}
    loss = build(leaves)
    grads = ad.backward(tape, loss)
    return {k: grads.get(t.node_id) for k, t in leaves.items() if k in wrt}


def test_square_gradient():
    g = grad_of(lambda t: ad.square(t["x"]), {"x": np.array([[3.0]])}, ("x",))
    assert g["x"][0, 0] == pytest.approx(6.0)


def test_constant_gradient_zero():
    tape = Tape()
    x = ad.leaf(tape, np.array([[2.0]]))
    loss = ad.add(ad.mul(x, ad.constant(0.0)), ad.constant(5.0))
    grads = ad.backward(tape, loss)
    assert grads[x.node_id][0, 0] == 0.0


def test_matmul_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def forward(params):
        return ad.tensor_sum(ad.square(ad.matmul(params["a"], params["b"])))

    err, ok = finite_diff_check(forward, {"a": a, "b": b}, tolerance=1e-5)
    assert ok, err


@pytest.mark.parametrize(
    "name,op",
    [
        ("silu", ad.silu),
        ("sigmoid", ad.sigmoid),
        ("exp", ad.exp),
        ("square", ad.square),
        ("neg", ad.neg),
    ],
)
def test_unary_ops_match_finite_differences(name, op):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3)) * 0.7 + 0.1

    def forward(params):
        return ad.tensor_sum(ad.mul(op(params["x"]), ad.constant(rng_weights)))

    rng_weights = rng.standard_normal((4, 3))
    err, ok = finite_diff_check(forward, {"x": x}, tolerance=1e-5)
    assert ok, (name, err)


def test_log_gradient():
    x = np.abs(np.random.default_rng(3).standard_normal((3, 2))) + 0.5

    def forward(params):
        return ad.tensor_sum(ad.log(params["x"]))

    err, ok = finite_diff_check(forward, {"x": x}, tolerance=1e-5)
    assert ok, err


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    c = rng.standard_normal((5, 1))

    def forward(params):
        return ad.tensor_sum(ad.square(ad.mul(ad.add(params["x"], params["b"]), params["c"])))

    err, ok = finite_diff_check(forward, {"x": x, "b": b, "c": c}, tolerance=1e-5)
    assert ok, err


def test_concat_and_sum_axis_gradients():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2))
    y = rng.standard_normal((3, 3))

    def forward(params):
        joined = ad.concat([params["x"], params["y"]], axis=1)
        return ad.tensor_sum(ad.square(ad.tensor_sum(joined, axis=1, keepdims=True)))

    err, ok = finite_diff_check(forward, {"x": x, "y": y}, tolerance=1e-5)
    assert ok, err


def test_max_pool_rows_values_and_routing():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [9.0, -1.0]]))
    pooled = ad.group_max(x, [[0, 1]])
    assert pooled.data.tolist() == [[3.0, 5.0]]

    tape = Tape()
    leaf = ad.leaf(tape, np.array([[1.0, 5.0], [3.0, 2.0], [9.0, -1.0]]))
    loss = ad.tensor_sum(ad.group_max(leaf, [[0, 1]]))
    grads = ad.backward(tape, loss)
    assert grads[leaf.node_id].tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]


def test_max_pool_ties_route_to_first_argmax():
    tape = Tape()
    leaf = ad.leaf(tape, np.array([[2.0], [2.0]]))
    loss = ad.tensor_sum(ad.group_max(leaf, [[0, 1]]))
    grads = ad.backward(tape, loss)
    assert grads[leaf.node_id].tolist() == [[1.0], [0.0]]


def test_max_pool_empty_subset_rejected():
    with pytest.raises(ValueError):
        ad.group_max(Tensor(np.ones((2, 2))), np.zeros((1, 0), dtype=np.int64))


def test_softmax_masked_uniform():
    logits = Tensor(np.zeros((4, 1)))
    probs = ad.softmax_masked(logits)
    assert probs.data.reshape(-1).tolist() == [0.25, 0.25, 0.25, 0.25]


def test_softmax_masked_saturation_and_shift():
    logits = Tensor(np.array([[0.0], [1e9]]))
    probs = ad.softmax_masked(logits).data.reshape(-1)
    assert probs[1] == pytest.approx(1.0)
    shifted = ad.softmax_masked(Tensor(np.array([[7.0], [7.0 + 1e9]]))).data.reshape(-1)
    assert np.allclose(probs, shifted)


def test_softmax_masked_segments_and_gradients():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 1))
    weights = rng.standard_normal((5, 1))
    bounds = [0, 2, 5]

    def forward(params):
        probs = ad.softmax_masked(params["x"], segments=bounds)
        return ad.tensor_sum(ad.mul(probs, ad.constant(weights)))

    err, ok = finite_diff_check(forward, {"x": x}, tolerance=1e-5)
    assert ok, err

    tape = Tape()
    leaf = ad.leaf(tape, x)
    probs = ad.softmax_masked(leaf, segments=bounds)
    assert probs.data[:2].sum() == pytest.approx(1.0) and probs.data[2:].sum() == pytest.approx(1.0)
    # each segment sums to one, so weights constant within each segment carry no gradient
    flat = ad.constant(np.array([[3.0], [3.0], [-1.0], [-1.0], [-1.0]]))
    grads = ad.backward(tape, ad.tensor_sum(ad.mul(probs, flat)))
    assert np.allclose(grads[leaf.node_id], 0.0, atol=1e-15)


def test_minimum_and_clip_gradients():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2))
    y = rng.standard_normal((4, 2))

    def forward(params):
        return ad.tensor_sum(ad.minimum(params["x"], params["y"]))

    err, ok = finite_diff_check(forward, {"x": x, "y": y}, tolerance=1e-5)
    assert ok, err

    def forward_clip(params):
        return ad.tensor_sum(ad.clip(params["x"], -0.4, 0.4))

    err, ok = finite_diff_check(forward_clip, {"x": x}, tolerance=1e-5)
    assert ok, err


def test_sparse_matmul_equals_dense():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((6, 4))
    dense[np.abs(dense) < 0.8] = 0.0
    rows, cols = np.nonzero(dense)
    sparse = SparseMatrix.from_coo(rows, cols, dense[rows, cols], dense.shape)
    x = rng.standard_normal((4, 3))
    assert np.allclose(sparse.apply(x), dense @ x, atol=1e-12)
    assert np.allclose(to_dense(sparse), dense, atol=1e-15)

    def forward(params):
        return ad.tensor_sum(ad.square(ad.sparse_matmul(sparse, params["x"])))

    def forward_dense(params):
        return ad.tensor_sum(ad.square(ad.matmul(ad.constant(dense), params["x"])))

    tape1, tape2 = Tape(), Tape()
    leaf1, leaf2 = ad.leaf(tape1, x), ad.leaf(tape2, x)
    g1 = ad.backward(tape1, forward(({"x": leaf1})))[leaf1.node_id]
    g2 = ad.backward(tape2, forward_dense({"x": leaf2}))[leaf2.node_id]
    assert np.allclose(g1, g2, atol=1e-12)


def test_backward_requires_scalar():
    tape = Tape()
    x = ad.leaf(tape, np.ones((2, 2)))
    y = ad.square(x)
    with pytest.raises(ValueError):
        ad.backward(tape, y)


def test_backward_consumes_the_tape():
    tape = Tape()
    x = ad.leaf(tape, np.arange(4.0).reshape(2, 2))
    loss = ad.tensor_sum(ad.square(x))
    grads = ad.backward(tape, loss)
    assert np.array_equal(grads[x.node_id], 2.0 * x.data)
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(tape, loss)


def test_segment_softmax_matches_one_softmax_per_segment():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((9, 1)) * 30.0
    flat = x.reshape(-1)
    # one segment: the max shift, exp and e / e.sum() of the plain formula, bit for bit
    e = np.exp(flat - flat.max())
    assert np.array_equal(ad.softmax_masked(Tensor(x)).data.reshape(-1), e / e.sum())
    bounds = [0, 2, 3, 7, 9]
    probs = ad.softmax_masked(Tensor(x), segments=bounds).data
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        alone = ad.softmax_masked(Tensor(x[lo:hi])).data
        assert np.array_equal(probs[lo:hi], alone)
    weights = rng.standard_normal((9, 1))

    def forward(params):
        probs = ad.softmax_masked(params["x"], segments=bounds)
        return ad.tensor_sum(ad.mul(probs, ad.constant(weights)))

    err, ok = finite_diff_check(forward, {"x": x / 30.0}, tolerance=1e-5)
    assert ok, err
    with pytest.raises(ValueError):
        ad.softmax_masked(Tensor(x), segments=[0, 4, 4, 9])


def test_backward_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 5))

    def once():
        tape = Tape()
        leaf = ad.leaf(tape, x)
        loss = ad.scale(ad.tensor_sum(ad.square(ad.silu(ad.matmul(leaf, leaf)))), 1.0 / x.size)
        return ad.backward(tape, loss)[leaf.node_id]

    a, b = once(), once()
    assert np.array_equal(a, b)


def test_adam_zero_gradient_no_change():
    p = Parameter("w", np.array([1.0, -2.0]))
    ad.adam_step([p], {"w": np.zeros(2)}, lr=0.1)
    assert p.value.tolist() == [1.0, -2.0]


def test_adam_first_step_signed_magnitude():
    p = Parameter("w", np.zeros(3))
    g = np.array([0.3, -4.0, 0.002])
    ad.adam_step([p], {"w": g}, lr=0.01)
    # bias-corrected first step is lr * g / (|g| + eps') elementwise
    assert np.allclose(np.abs(p.value), 0.01, rtol=1e-4)
    assert np.sign(p.value).tolist() == [-1.0, 1.0, -1.0]


def test_adam_two_steps_decrease_quadratic():
    p = Parameter("w", np.array([2.0]))
    lr = 0.05
    for _ in range(2):
        grad = 2.0 * p.value  # d/dw of w^2
        ad.adam_step([p], {"w": grad}, lr=lr)
    assert p.value[0] ** 2 < 4.0


def test_adam_shape_mismatch():
    p = Parameter("w", np.zeros(3))
    with pytest.raises(ValueError):
        ad.adam_step([p], {"w": np.zeros(4)}, lr=0.1)
