"""Flip-ranking policy: EGNN encoder, simplicial actor, value and acceptance heads.

The encoder message-passes over the 1-skeleton of the current triangulation
using coordinates and learned hidden features.  The actor lifts vertex
embeddings to maximal simplices, propagates them along facet adjacency with a
Chebyshev recursion on the normalized top-degree down Laplacian, and scores
each feasible flip by pooling over the simplices it would remove.  Ablation
actors drop the simplicial propagation ("egnn_only") or the realized local
structure altogether ("pool_mlp").

Everything a forward pass reads from a state (edge indices, inverse degrees,
coordinates, simplex rows, the sparse Laplacian and each action's pooling
rows) is one :class:`StateGraph`, built once per visited state; several
states are evaluated together as the disjoint union of their graphs, and a
single state is a batch of one.  Each layer is then a handful of whole-array
ops over the whole batch (gathers, segment sums, one ``group_max`` per
pooling, fused dense layers).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor
from .geometry import PointConfig
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
        for name in ("hidden", "chebyshev_order"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("encoder_layers", "actor_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

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


@dataclass(frozen=True)
class Skeleton:
    """The 1-skeleton as directed edges (both directions), sorted by source."""

    own: np.ndarray  # (E,) edge sources, ascending
    nbr: np.ndarray  # (E,) edge targets
    inv_degree: np.ndarray  # (n, 1)


def skeleton_structure(tri: Triangulation, n: int) -> Skeleton:
    edges = np.array(tri.skeleton_edges(), dtype=np.int64).reshape(-1, 2)
    directed = np.concatenate([edges, edges[:, ::-1]])
    directed = directed[np.lexsort((directed[:, 1], directed[:, 0]))]
    degree = np.bincount(directed[:, 0], minlength=n).astype(np.float64)
    # a point the triangulation leaves unused has no edges; it gets no
    # messages, and its zero inverse degree keeps its coordinates fixed
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    return Skeleton(
        own=directed[:, 0].copy(), nbr=directed[:, 1].copy(), inv_degree=inv_degree.reshape(-1, 1)
    )


@dataclass(frozen=True)
class StateGraph:
    """Everything the policy reads from a batch of states, built once per state.

    A batch is the disjoint union of its states' graphs: graph ``j`` owns the
    nodes ``node_offsets[j]:node_offsets[j + 1]`` and the actions
    ``action_offsets[j]:action_offsets[j + 1]``, and its edges, simplex rows,
    Laplacian entries and pooling groups index its own rows only.
    :func:`state_graph` builds a batch of one and :func:`batch_graphs` joins
    such batches.  ``laplacian`` is set for the "snn" actor only;
    ``action_groups`` holds the rows each action of ``actions`` pools over
    (see :func:`action_groups`) for the actors that score actions.
    """

    kind: str  # the actor kind the graph was built for
    coords: np.ndarray  # (n, dim) float coordinates
    skeleton: Skeleton
    simplices: np.ndarray  # (S, d+1) vertex rows of the maximal simplices
    laplacian: SparseMatrix | None
    actions: list
    action_groups: np.ndarray | None
    node_offsets: np.ndarray  # (k+1,) node boundaries of the k graphs
    action_offsets: np.ndarray  # (k+1,) action boundaries of the k graphs

    @property
    def size(self) -> int:
        """The number of graphs in the batch."""
        return len(self.node_offsets) - 1

    @property
    def action_owners(self) -> np.ndarray:
        """The graph of each action, in batch order."""
        return np.repeat(np.arange(self.size), np.diff(self.action_offsets))


def _padded(groups) -> np.ndarray:
    """Equal-length index rows: each group padded by repeating its first member."""
    width = max(len(g) for g in groups)
    return np.array([list(g) + [g[0]] * (width - len(g)) for g in groups], dtype=np.int64)


def action_groups(tri: Triangulation, actions, kind: str) -> np.ndarray:
    """Per action, the rows its logit pools over, padded to a (A, m) array.

    "snn": the removed simplices' rows of the propagated simplex features;
    "egnn_only": the removed simplices' vertices; "pool_mlp": the circuit's
    vertices.
    """
    if kind == "snn":
        sim_index = {s: i for i, s in enumerate(tri.simplices)}
        return _padded([[sim_index[s] for s in a.removed] for a in actions])
    if kind == "egnn_only":
        return _padded([sorted({v for s in a.removed for v in s}) for a in actions])
    if kind == "pool_mlp":
        return _padded([list(a.circuit.vertices) for a in actions])
    raise ValueError(f"actor kind {kind!r} does not score actions")


def state_graph(config: PointConfig, tri: Triangulation, actions, kind: str) -> StateGraph:
    """The batch of one: ``tri`` for an actor of ``kind``, scoring ``actions`` (may be empty)."""
    scores = kind != "nls_accept" and len(actions) > 0
    return StateGraph(
        kind=kind,
        coords=config.float_rows(),
        skeleton=skeleton_structure(tri, config.n),
        simplices=np.array(tri.simplices, dtype=np.int64),
        laplacian=simplicial_operator(tri, config) if kind == "snn" else None,
        actions=actions,
        action_groups=action_groups(tri, actions, kind) if scores else None,
        node_offsets=np.array([0, config.n], dtype=np.int64),
        action_offsets=np.array([0, len(actions)], dtype=np.int64),
    )


def batch_graphs(graphs) -> StateGraph:
    """The disjoint union of ``graphs`` (batches of one, of one kind), in order.

    Node, simplex and action indices are shifted past the graphs before;
    pooling groups are re-padded to the widest by repeating their first member.
    """
    if len(graphs) == 1:
        return graphs[0]
    kind = graphs[0].kind
    node_base = np.cumsum([0] + [g.coords.shape[0] for g in graphs])
    sim_base = np.cumsum([0] + [g.simplices.shape[0] for g in graphs])
    skeleton = Skeleton(
        own=np.concatenate([g.skeleton.own + b for g, b in zip(graphs, node_base)]),
        nbr=np.concatenate([g.skeleton.nbr + b for g, b in zip(graphs, node_base)]),
        inv_degree=np.concatenate([g.skeleton.inv_degree for g in graphs]),
    )
    laplacian = None
    if kind == "snn":
        laplacian = SparseMatrix.from_coo(
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
    return StateGraph(
        kind=kind,
        coords=np.concatenate([g.coords for g in graphs]),
        skeleton=skeleton,
        simplices=np.concatenate([g.simplices + b for g, b in zip(graphs, node_base)]),
        laplacian=laplacian,
        actions=[a for g in graphs for a in g.actions],
        action_groups=groups,
        node_offsets=node_base,
        action_offsets=np.cumsum([0] + [len(g.actions) for g in graphs]),
    )


@dataclass
class EncodedState:
    """Vertex embeddings and updated coordinates over the batch's 1-skeletons."""

    hidden: Tensor  # (n, hidden)
    coords: Tensor  # (n, dim)
    graph: StateGraph


def _dense(x, params, name, silu=False):
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"], silu)


def egnn_layer(hidden, coords, skeleton: Skeleton, params, layer: int):
    """One equivariant message-passing layer with residual hidden update.

    Messages use (h_i, h_j, squared distance); coordinates move along averaged
    relative vectors, hidden states by a residual MLP of the message sum.
    """
    own, nbr = skeleton.own, skeleton.nbr
    n = hidden.shape[0]
    own_x = ad.gather_rows(coords, own)
    nbr_x = ad.gather_rows(coords, nbr)
    diff = ad.sub(own_x, nbr_x)
    sqdist = ad.tensor_sum(ad.square(diff), axis=1, keepdims=True)

    # the first edge layer on (h_own, h_nbr, sqdist), multiplied on node rows
    edge0 = f"enc{layer}.edge0"
    msg = ad.pair_linear(hidden, own, nbr, sqdist, params[f"{edge0}.w"], params[f"{edge0}.b"])
    msg = _dense(msg, params, f"enc{layer}.edge1", silu=True)

    coef = _dense(msg, params, f"enc{layer}.coord0", silu=True)
    coef = _dense(coef, params, f"enc{layer}.coord1")
    moved = ad.scatter_rows(ad.mul(diff, coef), own, n)
    coords_out = ad.add(coords, ad.mul(moved, Tensor(skeleton.inv_degree)))

    agg = ad.scatter_rows(msg, own, n)
    upd = ad.concat([hidden, agg], axis=1)
    upd = _dense(upd, params, f"enc{layer}.hidden0", silu=True)
    upd = _dense(upd, params, f"enc{layer}.hidden1")
    hidden_out = ad.add(hidden, upd)
    return hidden_out, coords_out


def encode(graph: StateGraph, params, model: ModelConfig) -> EncodedState:
    """Initial features h = W p, x = p, then ``encoder_layers`` EGNN layers.

    Every graph of the batch is encoded at once; no message crosses graphs.
    """
    coords = Tensor(graph.coords)
    hidden = ad.matmul(coords, params["embed.w"])
    for layer in range(model.encoder_layers):
        hidden, coords = egnn_layer(hidden, coords, graph.skeleton, params, layer)
    return EncodedState(hidden=hidden, coords=coords, graph=graph)


def simplicial_operator(tri: Triangulation, config: PointConfig) -> SparseMatrix:
    """Normalized top-degree down Laplacian L = B^T B over a global row-sum scale.

    B is the oriented boundary from maximal simplices to their (d-1)-faces:
    faces are read off the sorted vertex tuple with alternating position
    signs, and each simplex is oriented coherently by the sign of its
    coordinate determinant, so L does not depend on vertex labels and
    checkpoints stay portable across relabelings.  L is read off facet
    adjacency: its diagonal is d+1, and two simplices sharing a facet meet
    with the product of their coefficients on it.  Entries are in row-major
    order.
    """
    entries = {}
    by_facet = {}
    for col, s in enumerate(tri.simplices):
        orient = 1.0 if config.simplex_det(s) > 0 else -1.0
        entries[(col, col)] = float(len(s))
        for pos in range(len(s)):
            by_facet.setdefault(s[:pos] + s[pos + 1 :], []).append((col, orient * (-1.0) ** pos))
    for members in by_facet.values():
        for (a, sign_a), (b, sign_b) in itertools.permutations(members, 2):
            entries[(a, b)] = entries.get((a, b), 0.0) + sign_a * sign_b
    keys = sorted(k for k, v in entries.items() if v != 0.0)
    rows, cols = np.array(keys, dtype=np.int64).T
    vals = np.array([entries[k] for k in keys])
    size = len(tri.simplices)
    scale = np.bincount(rows, weights=np.abs(vals), minlength=size).max()
    return SparseMatrix.from_coo(rows, cols, vals / scale, (size, size))


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


def simplex_features(encoded: EncodedState):
    """Lift vertex embeddings to one row per maximal simplex by max pooling."""
    return ad.group_max(encoded.hidden, encoded.graph.simplices)


def _global_pool(encoded: EncodedState) -> Tensor:
    """One row per graph: the column-wise max over that graph's vertex embeddings."""
    offsets = encoded.graph.node_offsets
    starts, sizes = offsets[:-1, None], np.diff(offsets)[:, None]
    cols = np.arange(sizes.max())
    # each graph's rows, padded by repeating its first node
    return ad.group_max(encoded.hidden, np.where(cols < sizes, starts + cols, starts))


def actor_logits(encoded: EncodedState, params, model: ModelConfig) -> Tensor:
    """One logit per action of every graph, in batch order; shape (actions, 1)."""
    graph = encoded.graph
    if not graph.actions:
        raise ValueError("empty action set")
    if graph.action_groups is None:
        raise ValueError(f"the state graph was built for the {graph.kind!r} actor")
    groups = graph.action_groups
    kind = model.actor_kind
    if kind == "snn":
        g = simplex_features(encoded)
        for layer in range(model.actor_layers):
            final = layer == model.actor_layers - 1
            g = _chebyshev_apply(graph.laplacian, g, params, layer, model.chebyshev_order, final)
        return ad.matmul(ad.group_max(g, groups), params["actor.readout.w"])
    if kind == "egnn_only":
        return ad.matmul(ad.group_max(encoded.hidden, groups), params["actor.readout.w"])
    # pool_mlp: its graph's global pool next to each circuit's pool
    x = ad.concat(
        [
            ad.gather_rows(_global_pool(encoded), graph.action_owners),
            ad.group_max(encoded.hidden, groups),
        ],
        axis=1,
    )
    x = _dense(x, params, "actor.mlp0", silu=True)
    x = _dense(x, params, "actor.mlp1", silu=True)
    return _dense(x, params, "actor.mlp2")


def policy_distribution(logits: Tensor, action_offsets=None) -> Tensor:
    """Masked softmax over exactly each graph's feasible action set.

    ``action_offsets`` are the batch's action boundaries; by default the whole
    vector is one action set.
    """
    return ad.softmax_masked(logits, segments=action_offsets)


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right").clip(0, probs.size - 1))


def value_estimate(encoded: EncodedState, params, model: ModelConfig) -> Tensor:
    """State values, one row per graph: MLP over its max-pooled vertex embeddings."""
    x = _global_pool(encoded)
    for i in range(model.value_layers - 1):
        x = _dense(x, params, f"value{i}", silu=True)
    return _dense(x, params, f"value{model.value_layers - 1}")


def nls_accept_probability(encoded: EncodedState, params) -> Tensor:
    """Per graph, the sigmoid of a 3-layer MLP on its pooled state embedding."""
    x = _global_pool(encoded)
    x = _dense(x, params, "accept0", silu=True)
    x = _dense(x, params, "accept1", silu=True)
    x = _dense(x, params, "accept2")
    return ad.sigmoid(x)


class PolicyModel:
    """Bundles a model config with concrete parameter values.

    Forward passes are pure; during rollouts parameters stay plain arrays and
    nothing is recorded.  For gradient work, wrap the parameters onto a tape
    with :meth:`taped_parameters` and call the functional API directly.  The
    single-state methods below evaluate a batch of one.
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

    def _encoded(self, config, tri, actions=()):
        p = self._const_params()
        graph = state_graph(config, tri, actions, self.config.actor_kind)
        return encode(graph, p, self.config), p

    def action_logits(self, config, tri, actions):
        enc, p = self._encoded(config, tri, actions)
        return actor_logits(enc, p, self.config)

    def action_probabilities(self, config, tri, actions) -> np.ndarray:
        logits = self.action_logits(config, tri, actions)
        return policy_distribution(logits).data.reshape(-1)

    def acceptance_probability(self, config, tri) -> float:
        enc, p = self._encoded(config, tri)
        return float(nls_accept_probability(enc, p).data.reshape(-1)[0])
