"""Reference implementation of the policy forward pass, for the kernel tests.

This is the loop formulation the vectorized policy replaced: selection and
scatter matrices applied with ``np.add.at``, one max-pool op per simplex and
per action, the Laplacian as a dense B^T B, separate matmul/bias/SiLU ops and
a masked sigmoid.  It records on the same tape as ``flipforge.autodiff``, so
its gradients come from the same ``backward``.

``ppo_transition_loss`` is the per-transition PPO loss the batched update
replaced: one forward over a batch of one per transition, on the library's
own kernels.  ``batch_graphs`` is the join of batches of one that
``policy.state_graph`` replaced when it learned to build a whole batch in
one pass.  ``to_dense`` reads a library ``SparseMatrix`` as a dense array by
applying it to the identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from flipforge import autodiff as ad
from flipforge import policy
from flipforge.autodiff import Tensor


def _emit(out, inputs, pulls):
    """Record per-input pulls (None for untaped inputs) as one tape op."""
    return ad._emit(out, inputs, lambda g, needs: [p(g) if n else None for p, n in zip(pulls, needs)])


def stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(a):
    sig = stable_sigmoid(a.data)
    local = sig * (1.0 + a.data * (1.0 - sig))
    return _emit(a.data * sig, (a,), [lambda g: g * local])


def sigmoid(a):
    out = stable_sigmoid(a.data)
    return _emit(out, (a,), [lambda g: g * (out * (1.0 - out))])


@dataclass(frozen=True)
class AddAtMatrix:
    """COO matrix whose products accumulate with ``np.add.at``."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        return cls(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
            tuple(shape),
        )

    def dense(self):
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def apply(self, dense):
        out = np.zeros((self.shape[0],) + dense.shape[1:])
        np.add.at(out, self.rows, self.vals.reshape(-1, 1) * dense[self.cols])
        return out

    def apply_transpose(self, dense):
        out = np.zeros((self.shape[1],) + dense.shape[1:])
        np.add.at(out, self.cols, self.vals.reshape(-1, 1) * dense[self.rows])
        return out


def sparse_matmul(matrix, x):
    return _emit(matrix.apply(x.data), (x,), [matrix.apply_transpose])


def max_pool_rows(a, row_indices):
    """Per-column max over one row subset; gradient to the first argmax row."""
    rows = np.asarray(row_indices, dtype=np.int64)
    block = a.data[rows]
    arg = rows[np.argmax(block, axis=0)]

    def pull(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, (arg, np.arange(a.data.shape[1])), g[0])
        return grad

    return _emit(block.max(axis=0, keepdims=True), (a,), [pull])


def to_dense(matrix):
    """The dense array of a ``SparseMatrix``: the matrix applied to the identity."""
    return matrix.apply(np.eye(matrix.shape[1]))


def dense_layer(x, params, name, activation=None):
    out = ad.add(ad.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])
    return activation(out) if activation is not None else out


@dataclass
class Structure:
    gather_own: AddAtMatrix
    gather_nbr: AddAtMatrix
    scatter_own: AddAtMatrix
    inv_degree: np.ndarray


def _selection(rows, n):
    idx = np.asarray(rows, dtype=np.int64)
    return AddAtMatrix.from_coo(np.arange(idx.size), idx, np.ones(idx.size), (idx.size, n))


def skeleton_structure(tri, n):
    directed = sorted(
        [(i, j) for i, j in tri.skeleton_edges()] + [(j, i) for i, j in tri.skeleton_edges()]
    )
    own = [e[0] for e in directed]
    nbr = [e[1] for e in directed]
    degree = np.zeros(n)
    np.add.at(degree, own, 1.0)
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    e_count = len(directed)
    return Structure(
        gather_own=_selection(own, n),
        gather_nbr=_selection(nbr, n),
        scatter_own=AddAtMatrix.from_coo(own, np.arange(e_count), np.ones(e_count), (n, e_count)),
        inv_degree=inv_degree.reshape(-1, 1),
    )


def egnn_layer(hidden, coords, structure, params, layer):
    own_h = sparse_matmul(structure.gather_own, hidden)
    nbr_h = sparse_matmul(structure.gather_nbr, hidden)
    own_x = sparse_matmul(structure.gather_own, coords)
    nbr_x = sparse_matmul(structure.gather_nbr, coords)
    diff = ad.add(own_x, ad.neg(nbr_x))
    sqdist = ad.tensor_sum(ad.square(diff), axis=1, keepdims=True)
    msg_in = ad.concat([own_h, nbr_h, sqdist], axis=1)
    msg = dense_layer(msg_in, params, f"enc{layer}.edge0", silu)
    msg = dense_layer(msg, params, f"enc{layer}.edge1", silu)
    coef = dense_layer(msg, params, f"enc{layer}.coord0", silu)
    coef = dense_layer(coef, params, f"enc{layer}.coord1")
    moved = sparse_matmul(structure.scatter_own, ad.mul(diff, coef))
    coords_out = ad.add(coords, ad.mul(moved, Tensor(structure.inv_degree)))
    agg = sparse_matmul(structure.scatter_own, msg)
    upd = ad.concat([hidden, agg], axis=1)
    upd = dense_layer(upd, params, f"enc{layer}.hidden0", silu)
    upd = dense_layer(upd, params, f"enc{layer}.hidden1")
    return ad.add(hidden, upd), coords_out


def encode(config, tri, params, model):
    """(hidden, coords) after the embedding and ``encoder_layers`` EGNN layers."""
    structure = skeleton_structure(tri, config.n)
    coords = Tensor(np.array([[float(c) for c in p] for p in config.points]))
    hidden = ad.matmul(coords, params["embed.w"])
    for layer in range(model.encoder_layers):
        hidden, coords = egnn_layer(hidden, coords, structure, params, layer)
    return hidden, coords


def boundary_matrix(tri, config):
    """Oriented boundary from maximal simplices to their (d-1)-faces."""
    faces = sorted({f for s in tri.simplices for f in itertools.combinations(s, len(s) - 1)})
    face_index = {f: i for i, f in enumerate(faces)}
    rows, cols, vals = [], [], []
    for col, s in enumerate(tri.simplices):
        orient = 1.0 if config.simplex_det(s) > 0 else -1.0
        for pos in range(len(s)):
            rows.append(face_index[s[:pos] + s[pos + 1 :]])
            cols.append(col)
            vals.append(orient * (-1.0) ** pos)
    return AddAtMatrix.from_coo(rows, cols, vals, (len(faces), len(tri.simplices)))


def simplicial_operator(tri, config):
    dense = boundary_matrix(tri, config).dense()
    lap = dense.T @ dense
    scale = np.abs(lap).sum(axis=1).max()
    if scale > 0:
        lap = lap / scale
    rows, cols = np.nonzero(lap)
    return AddAtMatrix.from_coo(rows, cols, lap[rows, cols], lap.shape)


def chebyshev_apply(operator, g, params, layer, order, final):
    terms = []
    t_prev2 = g
    for k in range(order):
        if k == 0:
            t_k = g
        elif k == 1:
            t_k = sparse_matmul(operator, g)
        else:
            t_k = ad.add(ad.scale(sparse_matmul(operator, t_prev1), 2.0), ad.neg(t_prev2))
        terms.append(ad.matmul(t_k, params[f"actor{layer}.theta{k}"]))
        if k >= 1:
            t_prev2 = t_prev1
        t_prev1 = t_k
    out = terms[0]
    for t in terms[1:]:
        out = ad.add(out, t)
    out = ad.add(out, params[f"actor{layer}.b"])
    return out if final else silu(out)


def actor_logits(hidden, config, tri, actions, params, model):
    kind = model.actor_kind
    if kind == "snn":
        sim_index = {s: i for i, s in enumerate(tri.simplices)}
        g = ad.concat([max_pool_rows(hidden, list(s)) for s in tri.simplices], axis=0)
        operator = simplicial_operator(tri, config)
        for layer in range(model.actor_layers):
            final = layer == model.actor_layers - 1
            g = chebyshev_apply(operator, g, params, layer, model.chebyshev_order, final)
        logits = [
            ad.matmul(max_pool_rows(g, [sim_index[s] for s in a.removed]), params["actor.readout.w"])
            for a in actions
        ]
        return ad.concat(logits, axis=0)
    if kind == "egnn_only":
        logits = []
        for a in actions:
            verts = sorted({v for s in a.removed for v in s})
            logits.append(ad.matmul(max_pool_rows(hidden, verts), params["actor.readout.w"]))
        return ad.concat(logits, axis=0)
    if kind == "pool_mlp":
        global_pool = max_pool_rows(hidden, list(range(hidden.shape[0])))
        logits = []
        for a in actions:
            x = ad.concat([global_pool, max_pool_rows(hidden, list(a.circuit.vertices))], axis=1)
            x = dense_layer(x, params, "actor.mlp0", silu)
            x = dense_layer(x, params, "actor.mlp1", silu)
            logits.append(dense_layer(x, params, "actor.mlp2"))
        return ad.concat(logits, axis=0)
    raise ValueError(kind)


def value_estimate(hidden, params, model):
    x = max_pool_rows(hidden, list(range(hidden.shape[0])))
    for i in range(model.value_layers - 1):
        x = dense_layer(x, params, f"value{i}", silu)
    return dense_layer(x, params, f"value{model.value_layers - 1}")


def nls_accept_probability(hidden, params):
    x = max_pool_rows(hidden, list(range(hidden.shape[0])))
    x = dense_layer(x, params, "accept0", silu)
    x = dense_layer(x, params, "accept1", silu)
    return sigmoid(dense_layer(x, params, "accept2"))


def transition_loss(config, tri, actions, action_index, params, model, old_log_prob, adv, ret):
    """The clipped-surrogate, value and entropy loss of one transition (clip 0.1)."""
    hidden, _coords = encode(config, tri, params, model)
    if model.actor_kind == "nls_accept":
        p_accept = ad.clip(nls_accept_probability(hidden, params), 1e-9, 1.0 - 1e-9)
        p_reject = ad.add(ad.constant(np.ones((1, 1))), ad.neg(p_accept))
        log_prob = ad.log(p_accept if action_index >= 0 else p_reject)
        entropy_neg = ad.add(
            ad.mul(p_accept, ad.log(p_accept)), ad.mul(p_reject, ad.log(p_reject))
        )
    else:
        probs = ad.softmax_masked(actor_logits(hidden, config, tri, actions, params, model))
        log_probs = ad.log(ad.clip(probs, 1e-12, 1.0))
        one_hot = np.zeros((len(actions), 1))
        one_hot[action_index, 0] = 1.0
        log_prob = ad.tensor_sum(ad.mul(log_probs, ad.constant(one_hot)))
        entropy_neg = ad.tensor_sum(ad.mul(probs, log_probs))
    ratio = ad.exp(ad.add(log_prob, ad.neg(ad.constant(old_log_prob))))
    surrogate = ad.minimum(
        ad.mul(ratio, ad.constant(adv)), ad.mul(ad.clip(ratio, 0.9, 1.1), ad.constant(adv))
    )
    value = value_estimate(hidden, params, model)
    value_loss = ad.square(ad.add(value, ad.neg(ad.constant(ret))))
    return ad.add(
        ad.neg(surrogate),
        ad.add(ad.scale(value_loss, 0.5), ad.scale(entropy_neg, 0.001)),
    )


def ppo_transition_loss(model, params, tr, trainer, adv):
    """(loss, stats) of one transition, from a forward over its batch of one.

    ``stats`` is (policy loss, value loss, negative entropy, ratio clipped,
    (r - 1) - log r).
    """
    kind = model.config.actor_kind
    graph = policy.state_graph([(tr.env.config, tr.state, tr.actions)], kind)
    enc = policy.encode(graph, params, model.config)
    if kind == "nls_accept":
        p_accept = policy.nls_accept_probability(enc, params)
        eps = 1e-9
        p_accept = ad.clip(p_accept, eps, 1.0 - eps)
        if tr.action_index >= 0:
            chosen = p_accept
        else:
            chosen = ad.sub(ad.constant(np.ones((1, 1))), p_accept)
        log_prob = ad.log(chosen)
        p_reject = ad.sub(ad.constant(np.ones((1, 1))), p_accept)
        entropy_neg = ad.add(
            ad.mul(p_accept, ad.log(p_accept)), ad.mul(p_reject, ad.log(p_reject))
        )
    else:
        logits = policy.actor_logits(enc, params, model.config)
        probs = policy.policy_distribution(logits)
        eps = 1e-12
        safe = ad.clip(probs, eps, 1.0)
        log_probs = ad.log(safe)
        one_hot = np.zeros((len(tr.actions), 1))
        one_hot[tr.action_index, 0] = 1.0
        log_prob = ad.tensor_sum(ad.mul(log_probs, ad.constant(one_hot)))
        entropy_neg = ad.tensor_sum(ad.mul(probs, log_probs))

    log_ratio = ad.sub(log_prob, ad.constant(tr.old_log_prob))
    ratio = ad.exp(log_ratio)
    adv_t = ad.constant(adv)
    unclipped = ad.mul(ratio, adv_t)
    clipped = ad.mul(
        ad.clip(ratio, 1.0 - trainer.clip_ratio, 1.0 + trainer.clip_ratio), adv_t
    )
    surrogate = ad.minimum(unclipped, clipped)
    policy_loss = ad.neg(surrogate)

    value = policy.value_estimate(enc, params, model.config)
    value_loss = ad.square(ad.sub(value, ad.constant(tr.ret)))

    total = ad.add(
        policy_loss,
        ad.add(
            ad.scale(value_loss, trainer.value_coef),
            ad.scale(entropy_neg, trainer.entropy_coef),
        ),
    )
    ratio_val = float(ratio.data.reshape(-1)[0])
    log_ratio_val = float(log_ratio.data.reshape(-1)[0])
    stats = (
        float(policy_loss.data.reshape(-1)[0]),
        float(value_loss.data.reshape(-1)[0]),
        float(entropy_neg.data.reshape(-1)[0]),
        abs(ratio_val - 1.0) > trainer.clip_ratio,
        math.expm1(log_ratio_val) - log_ratio_val,
    )
    return total, stats


def batch_graphs(graphs):
    """The disjoint union of ``graphs`` (batches of one, of one kind), in order.

    Node, simplex and action indices are shifted past the graphs before;
    pooling groups are re-padded to the widest by repeating their first member.
    """
    kind = graphs[0].kind
    node_base = np.cumsum([0] + [g.coords.shape[0] for g in graphs])
    sim_base = np.cumsum([0] + [g.simplices.shape[0] for g in graphs])
    laplacian = None
    if kind == "snn":
        laplacian = ad.SparseMatrix.from_coo(
            np.concatenate([g.laplacian.rows + b for g, b in zip(graphs, sim_base)]),
            np.concatenate([g.laplacian.cols + b for g, b in zip(graphs, sim_base)]),
            np.concatenate([g.laplacian.vals for g in graphs]),
            (sim_base[-1], sim_base[-1]),
        )
    # pooling groups index simplex rows for "snn" and node rows otherwise
    bases = sim_base if kind == "snn" else node_base
    scored = [(g.action_groups, b) for g, b in zip(graphs, bases) if g.action_groups is not None]
    groups = None
    if scored:
        width = max(rows.shape[1] for rows, _b in scored)
        groups = np.concatenate(
            [np.hstack([rows, rows[:, [0] * (width - rows.shape[1])]]) + b for rows, b in scored]
        )
    return policy.StateGraph(
        kind=kind,
        coords=np.concatenate([g.coords for g in graphs]),
        own=np.concatenate([g.own + b for g, b in zip(graphs, node_base)]),
        nbr=np.concatenate([g.nbr + b for g, b in zip(graphs, node_base)]),
        inv_degree=np.concatenate([g.inv_degree for g in graphs]),
        simplices=np.concatenate([g.simplices + b for g, b in zip(graphs, node_base)]),
        laplacian=laplacian,
        actions=[a for g in graphs for a in g.actions],
        action_groups=groups,
        node_offsets=node_base,
        action_offsets=np.cumsum([0] + [len(g.actions) for g in graphs]),
    )
