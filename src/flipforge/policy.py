"""Flip-ranking policy: EGNN encoder, simplicial actor, value and acceptance heads.

The encoder message-passes over the 1-skeleton of the current triangulation
using coordinates and learned hidden features.  The actor lifts vertex
embeddings to maximal simplices, propagates them along facet adjacency with a
Chebyshev recursion on the normalized top-degree down Laplacian, and scores
each feasible flip by pooling over the simplices it would remove.  Ablation
actors drop the simplicial propagation ("egnn_only") or the realized local
structure altogether ("pool_mlp").
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor
from .geometry import PointConfig, _int_det
from .triangulation import Triangulation

ACTOR_KINDS = ("snn", "egnn_only", "pool_mlp", "nls_accept")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings; the digest is recorded inside checkpoints."""

    input_dim: int
    hidden: int = 64
    encoder_layers: int = 3
    actor_layers: int = 2
    chebyshev_order: int = 3
    value_layers: int = 3
    actor_kind: str = "snn"

    def __post_init__(self):
        if self.actor_kind not in ACTOR_KINDS:
            raise ValueError(f"unknown actor kind {self.actor_kind!r}")

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _mlp_shapes(sizes):
    return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


def init_parameters(config: ModelConfig, rng: np.random.Generator):
    """Deterministic scaled-Gaussian initialization; returns name -> ndarray."""
    h = config.hidden
    d = config.input_dim
    params = {}

    def dense(name, fan_in, fan_out):
        params[f"{name}.w"] = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        params[f"{name}.b"] = np.zeros(fan_out)

    params["embed.w"] = rng.standard_normal((d, h)) / np.sqrt(d)
    for layer in range(config.encoder_layers):
        dense(f"enc{layer}.edge0", 2 * h + 1, h)
        dense(f"enc{layer}.edge1", h, h)
        dense(f"enc{layer}.coord0", h, h)
        dense(f"enc{layer}.coord1", h, 1)
        # small-gain coordinate head keeps the equivariant updates stable
        params[f"enc{layer}.coord1.w"] *= 1e-3
        dense(f"enc{layer}.hidden0", 2 * h, h)
        dense(f"enc{layer}.hidden1", h, h)

    kind = config.actor_kind
    if kind == "snn":
        for layer in range(config.actor_layers):
            for k in range(config.chebyshev_order):
                params[f"actor{layer}.theta{k}"] = rng.standard_normal((h, h)) / np.sqrt(
                    h * config.chebyshev_order
                )
            params[f"actor{layer}.b"] = np.zeros(h)
        params["actor.readout.w"] = rng.standard_normal((h, 1)) / np.sqrt(h)
    elif kind == "egnn_only":
        params["actor.readout.w"] = rng.standard_normal((h, 1)) / np.sqrt(h)
    elif kind == "pool_mlp":
        for i, (fi, fo) in enumerate(_mlp_shapes([2 * h, h, h, 1])):
            dense(f"actor.mlp{i}", fi, fo)
    elif kind == "nls_accept":
        for i, (fi, fo) in enumerate(_mlp_shapes([h, h, h, 1])):
            dense(f"accept{i}", fi, fo)

    for i, (fi, fo) in enumerate(_mlp_shapes([h] * config.value_layers + [1])):
        dense(f"value{i}", fi, fo)
    return params


@dataclass
class EncodedState:
    """Vertex embeddings and updated coordinates over the current 1-skeleton."""

    hidden: Tensor  # (n, hidden)
    coords: Tensor  # (n, dim)
    edges: tuple  # directed edge pairs (i, j)
    config: PointConfig | None = None


def _selection(rows, n):
    idx = np.asarray(rows, dtype=np.int64)
    return SparseMatrix.from_coo(np.arange(idx.size), idx, np.ones(idx.size), (idx.size, n))


@dataclass
class SkeletonStructure:
    """Constant gather/scatter operators for one triangulation's 1-skeleton."""

    edges: tuple
    gather_own: SparseMatrix  # (E, n) rows select edge sources
    gather_nbr: SparseMatrix  # (E, n) rows select edge targets
    scatter_own: SparseMatrix  # (n, E) sums per-edge values at the source
    inv_degree: np.ndarray  # (n, 1)


def skeleton_structure(tri: Triangulation, n: int) -> SkeletonStructure:
    directed = []
    for i, j in tri.skeleton_edges():
        directed.append((i, j))
        directed.append((j, i))
    directed.sort()
    own = [e[0] for e in directed]
    nbr = [e[1] for e in directed]
    e_count = len(directed)
    degree = np.zeros(n)
    np.add.at(degree, own, 1.0)
    # a point the triangulation leaves unused has no edges; it gets no
    # messages, and its zero inverse degree keeps its coordinates fixed
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    scatter = SparseMatrix.from_coo(own, np.arange(e_count), np.ones(e_count), (n, e_count))
    return SkeletonStructure(
        edges=tuple(directed),
        gather_own=_selection(own, n),
        gather_nbr=_selection(nbr, n),
        scatter_own=scatter,
        inv_degree=inv_degree.reshape(-1, 1),
    )


def _dense_layer(x, params, name, activation=None):
    out = ad.add(ad.matmul(x, params[f"{name}.w"]), params[f"{name}.b"])
    if activation is not None:
        out = activation(out)
    return out


def egnn_layer(hidden, coords, structure: SkeletonStructure, params, layer: int):
    """One equivariant message-passing layer with residual hidden update.

    Messages use (h_i, h_j, squared distance); coordinates move along averaged
    relative vectors, hidden states by a residual MLP of the message sum.
    """
    own_h = ad.sparse_matmul(structure.gather_own, hidden)
    nbr_h = ad.sparse_matmul(structure.gather_nbr, hidden)
    own_x = ad.sparse_matmul(structure.gather_own, coords)
    nbr_x = ad.sparse_matmul(structure.gather_nbr, coords)
    diff = ad.sub(own_x, nbr_x)
    sqdist = ad.tensor_sum(ad.square(diff), axis=1, keepdims=True)

    msg_in = ad.concat([own_h, nbr_h, sqdist], axis=1)
    msg = _dense_layer(msg_in, params, f"enc{layer}.edge0", ad.silu)
    msg = _dense_layer(msg, params, f"enc{layer}.edge1", ad.silu)

    coef = _dense_layer(msg, params, f"enc{layer}.coord0", ad.silu)
    coef = _dense_layer(coef, params, f"enc{layer}.coord1")
    moved = ad.sparse_matmul(structure.scatter_own, ad.mul(diff, coef))
    coords_out = ad.add(coords, ad.mul(moved, Tensor(structure.inv_degree)))

    agg = ad.sparse_matmul(structure.scatter_own, msg)
    upd = ad.concat([hidden, agg], axis=1)
    upd = _dense_layer(upd, params, f"enc{layer}.hidden0", ad.silu)
    upd = _dense_layer(upd, params, f"enc{layer}.hidden1")
    hidden_out = ad.add(hidden, upd)
    return hidden_out, coords_out


def encode(config: PointConfig, tri: Triangulation, params, model: ModelConfig) -> EncodedState:
    """Initial features h = W p, x = p, then ``encoder_layers`` EGNN layers."""
    structure = skeleton_structure(tri, config.n)
    coords_np = np.array([[float(c) for c in p] for p in config.points])
    coords = Tensor(coords_np)
    hidden = ad.matmul(coords, params["embed.w"])
    for layer in range(model.encoder_layers):
        hidden, coords = egnn_layer(hidden, coords, structure, params, layer)
    return EncodedState(hidden=hidden, coords=coords, edges=structure.edges, config=config)


def _orientation_sign(config: PointConfig, simplex) -> float:
    rows, _scale = config.int_rows()
    base = rows[simplex[0]]
    mat = [[rows[v][i] - base[i] for i in range(config.dim)] for v in simplex[1:]]
    det = _int_det(mat)
    return 1.0 if det > 0 else -1.0


def boundary_matrix(tri: Triangulation, config: PointConfig) -> SparseMatrix:
    """Oriented boundary from maximal simplices to their (d-1)-faces.

    Faces are read off the sorted vertex tuple with alternating position
    signs; each simplex is oriented coherently by the sign of its coordinate
    determinant, so the matrix (and the induced Laplacian) do not depend on
    vertex labels and checkpoints stay portable across relabelings.
    """
    faces = sorted(
        {
            face
            for s in tri.simplices
            for face in itertools.combinations(s, len(s) - 1)
        }
    )
    face_index = {f: i for i, f in enumerate(faces)}
    rows, cols, vals = [], [], []
    for col, s in enumerate(tri.simplices):
        orient = _orientation_sign(config, s)
        for pos in range(len(s)):
            face = s[:pos] + s[pos + 1 :]
            rows.append(face_index[face])
            cols.append(col)
            vals.append(orient * (-1.0) ** pos)
    return SparseMatrix.from_coo(rows, cols, vals, (len(faces), len(tri.simplices)))


def simplicial_operator(tri: Triangulation, config: PointConfig) -> SparseMatrix:
    """Normalized top-degree down Laplacian L = B^T B over a global row-sum scale."""
    b = boundary_matrix(tri, config)
    dense = b.dense()
    lap = dense.T @ dense
    scale = np.abs(lap).sum(axis=1).max()
    if scale > 0:
        lap = lap / scale
    rows, cols = np.nonzero(lap)
    return SparseMatrix.from_coo(rows, cols, lap[rows, cols], lap.shape)


def _chebyshev_apply(operator: SparseMatrix, g, params, layer: int, order: int, final: bool):
    terms = []
    t_prev2 = g
    for k in range(order):
        if k == 0:
            t_k = g
        elif k == 1:
            t_k = ad.sparse_matmul(operator, g)
        else:
            t_k = ad.sub(ad.scale(ad.sparse_matmul(operator, t_prev1), 2.0), t_prev2)
        terms.append(ad.matmul(t_k, params[f"actor{layer}.theta{k}"]))
        if k >= 1:
            t_prev2 = t_prev1
        t_prev1 = t_k
    out = terms[0]
    for t in terms[1:]:
        out = ad.add(out, t)
    out = ad.add(out, params[f"actor{layer}.b"])
    return out if final else ad.silu(out)


def simplex_features(encoded: EncodedState, tri: Triangulation):
    """Lift vertex embeddings to one row per maximal simplex by max pooling."""
    rows = [ad.max_pool_rows(encoded.hidden, list(s)) for s in tri.simplices]
    return ad.concat(rows, axis=0)


def actor_logits(encoded, tri, actions, params, model: ModelConfig) -> Tensor:
    """One logit per feasible action, shape (len(actions), 1)."""
    if not actions:
        raise ValueError("empty action set")
    kind = model.actor_kind
    if kind == "snn":
        sim_index = {s: i for i, s in enumerate(tri.simplices)}
        g = simplex_features(encoded, tri)
        operator = simplicial_operator(tri, encoded.config)
        for layer in range(model.actor_layers):
            final = layer == model.actor_layers - 1
            g = _chebyshev_apply(operator, g, params, layer, model.chebyshev_order, final)
        logits = []
        for action in actions:
            pooled = ad.max_pool_rows(g, [sim_index[s] for s in action.removed])
            logits.append(ad.matmul(pooled, params["actor.readout.w"]))
        return ad.concat(logits, axis=0)
    if kind == "egnn_only":
        logits = []
        for action in actions:
            verts = sorted({v for s in action.removed for v in s})
            pooled = ad.max_pool_rows(encoded.hidden, verts)
            logits.append(ad.matmul(pooled, params["actor.readout.w"]))
        return ad.concat(logits, axis=0)
    if kind == "pool_mlp":
        n = encoded.hidden.shape[0]
        global_pool = ad.max_pool_rows(encoded.hidden, list(range(n)))
        logits = []
        for action in actions:
            circ_pool = ad.max_pool_rows(encoded.hidden, list(action.circuit.vertices))
            x = ad.concat([global_pool, circ_pool], axis=1)
            x = _dense_layer(x, params, "actor.mlp0", ad.silu)
            x = _dense_layer(x, params, "actor.mlp1", ad.silu)
            x = _dense_layer(x, params, "actor.mlp2")
            logits.append(x)
        return ad.concat(logits, axis=0)
    raise ValueError(f"actor kind {kind!r} does not score actions")


def policy_distribution(logits: Tensor) -> Tensor:
    """Masked softmax over exactly the feasible action set (the whole vector)."""
    return ad.softmax_masked(logits)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, probs.size - 1))


def value_estimate(encoded: EncodedState, params, model: ModelConfig) -> Tensor:
    """Scalar state value: MLP over the global max-pooled vertex embeddings."""
    n = encoded.hidden.shape[0]
    x = ad.max_pool_rows(encoded.hidden, list(range(n)))
    for i in range(model.value_layers - 1):
        x = _dense_layer(x, params, f"value{i}", ad.silu)
    return _dense_layer(x, params, f"value{model.value_layers - 1}")


def nls_accept_probability(encoded: EncodedState, params) -> Tensor:
    """Sigmoid of a 3-layer MLP on the pooled state embedding."""
    n = encoded.hidden.shape[0]
    x = ad.max_pool_rows(encoded.hidden, list(range(n)))
    x = _dense_layer(x, params, "accept0", ad.silu)
    x = _dense_layer(x, params, "accept1", ad.silu)
    x = _dense_layer(x, params, "accept2")
    return ad.sigmoid(x)


class PolicyModel:
    """Bundles a model config with concrete parameter values.

    Forward passes are pure; during rollouts parameters stay plain arrays and
    nothing is recorded.  For gradient work, wrap the parameters onto a tape
    with :meth:`taped_parameters` and call the functional API directly.
    """

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        return cls(config, init_parameters(config, rng))

    def _const_params(self):
        return {k: Tensor(v) for k, v in self.params.items()}

    def taped_parameters(self, tape):
        return {k: ad.leaf(tape, v) for k, v in self.params.items()}

    def encode(self, config, tri, params=None):
        return encode(config, tri, params or self._const_params(), self.config)

    def action_logits(self, config, tri, actions, params=None):
        p = params or self._const_params()
        enc = encode(config, tri, p, self.config)
        return actor_logits(enc, tri, actions, p, self.config)

    def action_probabilities(self, config, tri, actions) -> np.ndarray:
        logits = self.action_logits(config, tri, actions)
        return policy_distribution(logits).data.reshape(-1)

    def state_value(self, config, tri) -> float:
        p = self._const_params()
        enc = encode(config, tri, p, self.config)
        return float(value_estimate(enc, p, self.config).data.reshape(-1)[0])

    def acceptance_probability(self, config, tri) -> float:
        p = self._const_params()
        enc = encode(config, tri, p, self.config)
        return float(nls_accept_probability(enc, p).data.reshape(-1)[0])
