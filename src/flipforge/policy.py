"""Flip-ranking policy: EGNN encoder, simplicial actor, value and acceptance heads.

The encoder message-passes over the 1-skeleton of the current triangulation
using coordinates and learned hidden features.  The actor lifts vertex
embeddings to maximal simplices, propagates them along facet adjacency with a
Chebyshev recursion on the normalized top-degree down Laplacian, and scores
each feasible flip by pooling over the simplices it would remove.  Ablation
actors drop the simplicial propagation ("egnn_only") or the realized local
structure altogether ("pool_mlp").

Everything a forward pass reads from its states (edge indices, inverse
degrees, coordinates, simplex rows, the sparse Laplacian and each action's
pooling rows) is one :class:`StateGraph`, the disjoint union of the states'
graphs built in one pass by :func:`state_graph`; a single state is a batch
of one.  Each layer is then a handful of whole-array ops over the whole
batch (gathers, segment sums, one ``group_max`` per pooling, fused dense
layers).
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
class StateGraph:
    """Everything the policy reads from a batch of states, built in one pass.

    A batch is the disjoint union of its states' graphs: graph ``j`` owns the
    nodes ``node_offsets[j]:node_offsets[j + 1]`` and the actions
    ``action_offsets[j]:action_offsets[j + 1]``, and its edges, simplex rows,
    Laplacian entries and pooling groups index its own rows only.  The
    1-skeletons are directed edges ``own -> nbr`` (both directions).
    ``laplacian`` is set for the "snn" actor only; ``action_groups`` holds
    the rows each action of ``actions`` pools over for the actors that score
    actions (see :func:`state_graph`).
    """

    kind: str  # the actor kind the graph was built for
    coords: np.ndarray  # (n, dim) float coordinates
    own: np.ndarray  # (E,) edge sources, ascending
    nbr: np.ndarray  # (E,) edge targets
    inv_degree: np.ndarray  # (n, 1)
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


def _pooled_rows(tri: Triangulation, actions, kind: str):
    """Per action, the rows of ``tri``'s graph that its logit pools over.

    "snn": the removed simplices' rows of the propagated simplex features;
    "egnn_only": the removed simplices' vertices; "pool_mlp": the circuit's
    vertices.
    """
    if kind == "snn":
        sim_index = {s: i for i, s in enumerate(tri.simplices)}
        return [[sim_index[s] for s in a.removed] for a in actions]
    if kind == "egnn_only":
        return [sorted({v for s in a.removed for v in s}) for a in actions]
    return [list(a.circuit.vertices) for a in actions]


def _down_laplacian(tri: Triangulation, config: PointConfig):
    """The top-degree down Laplacian L = B^T B of ``tri`` as (rows, cols, vals).

    B is the oriented boundary from maximal simplices to their (d-1)-faces:
    faces are read off the sorted vertex tuple with alternating position
    signs, and each simplex is oriented coherently by the sign of its
    coordinate determinant, so L does not depend on vertex labels and
    checkpoints stay portable across relabelings.  L is read off the ridge
    table (``Triangulation.ridges``): its diagonal is d+1, and simplices a
    and b holding a facet as themselves without their k_a-th and k_b-th
    vertex meet with orient_a * orient_b * (-1)^(k_a + k_b), the product of
    their coefficients on it.  Entries are in row-major order.
    """
    orient = [1.0 if config.simplex_det(s) > 0 else -1.0 for s in tri.simplices]
    entries = {(col, col): float(len(s)) for col, s in enumerate(tri.simplices)}
    for holders in tri.ridges().values():
        for (a, k_a), (b, k_b) in itertools.combinations(holders, 2):
            entries[(a, b)] = entries[(b, a)] = orient[a] * orient[b] * (-1.0) ** (k_a + k_b)
    keys = sorted(entries)
    rows, cols = np.array(keys, dtype=np.int64).T
    return rows, cols, np.array([entries[k] for k in keys])


def state_graph(states, kind: str) -> StateGraph:
    """The batch of ``states``, ``(config, tri, actions)`` triples, for an actor of ``kind``.

    Each state's node, simplex and action indices are shifted past the
    states before it; its actions may be empty.  Then, over the whole union:
    the directed edges are sorted by source; a point no edge touches (one
    the triangulation leaves unused) gets a zero inverse degree, so it gets
    no messages and its coordinates stay fixed; each state's Laplacian
    ("snn") is scaled by its own largest absolute row sum; and the pooling
    groups (see :func:`_pooled_rows`; simplex rows for "snn", node rows
    otherwise) are padded to the widest by repeating each group's first
    member.  A batch of one shares its configuration's read-only
    ``float_rows``.
    """
    coords, edges, simplices, entries, groups, actions = [], [], [], [], [], []
    nodes, sims, acts = [0], [0], [0]
    for config, tri, state_actions in states:
        node, sim = nodes[-1], sims[-1]
        coords.append(config.float_rows())
        edges.append(np.array(tri.skeleton_edges(), dtype=np.int64).reshape(-1, 2) + node)
        simplices.append(np.array(tri.simplices, dtype=np.int64) + node)
        if kind == "snn":
            rows, cols, vals = _down_laplacian(tri, config)
            entries.append((rows + sim, cols + sim, vals))
        if kind != "nls_accept":
            base = sim if kind == "snn" else node
            groups += [[i + base for i in g] for g in _pooled_rows(tri, state_actions, kind)]
        actions += state_actions
        nodes.append(node + config.n)
        sims.append(sim + len(tri.simplices))
        acts.append(len(actions))
    edges = np.concatenate(edges)
    own, nbr = np.concatenate([edges, edges[:, ::-1]]).T
    order = np.lexsort((nbr, own))
    degree = np.bincount(own, minlength=nodes[-1]).astype(np.float64)
    laplacian = pooled = None
    if entries:
        rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
        sums = np.bincount(rows, weights=np.abs(vals), minlength=sims[-1])
        row_scale = np.repeat(np.maximum.reduceat(sums, sims[:-1]), np.diff(sims))
        laplacian = SparseMatrix.from_coo(rows, cols, vals / row_scale[rows], (sims[-1], sims[-1]))
    if groups:
        width = max(map(len, groups))
        pooled = np.array([g + g[:1] * (width - len(g)) for g in groups], dtype=np.int64)
    return StateGraph(
        kind=kind,
        coords=coords[0] if len(coords) == 1 else np.concatenate(coords),
        own=own[order],
        nbr=nbr[order],
        inv_degree=np.divide(1.0, degree, out=np.zeros(nodes[-1]), where=degree > 0)[:, None],
        simplices=np.concatenate(simplices),
        laplacian=laplacian,
        actions=actions,
        action_groups=pooled,
        node_offsets=np.array(nodes, dtype=np.int64),
        action_offsets=np.array(acts, dtype=np.int64),
    )


@dataclass
class EncodedState:
    """Vertex embeddings and updated coordinates over the batch's 1-skeletons."""

    hidden: Tensor  # (n, hidden)
    coords: Tensor  # (n, dim)
    graph: StateGraph


def _dense(x, params, name, silu=False):
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"], silu)


def egnn_layer(hidden, coords, graph: StateGraph, params, layer: int):
    """One equivariant message-passing layer with residual hidden update.

    Messages use (h_i, h_j, squared distance); coordinates move along averaged
    relative vectors, hidden states by a residual MLP of the message sum.
    """
    own, nbr = graph.own, graph.nbr
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
    coords_out = ad.add(coords, ad.mul(moved, Tensor(graph.inv_degree)))

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
        hidden, coords = egnn_layer(hidden, coords, graph, params, layer)
    return EncodedState(hidden=hidden, coords=coords, graph=graph)


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

    def forward(self, graph: StateGraph):
        """``(encoding, head)`` of the batch ``graph``, with no tape.

        The actor head is a flat array: per graph, the acceptance
        probability for the "nls_accept" actor, and otherwise the
        probability of each action of ``graph.actions`` within its graph's
        action set.
        """
        params = self._const_params()
        enc = encode(graph, params, self.config)
        if self.config.actor_kind == "nls_accept":
            head = nls_accept_probability(enc, params)
        else:
            head = policy_distribution(actor_logits(enc, params, self.config), graph.action_offsets)
        return enc, head.data.reshape(-1)
