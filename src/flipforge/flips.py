"""Circuits, bistellar flips, neighbor enumeration, and flip-graph traversal.

A circuit is a minimal affinely dependent subset of the configuration; its
dependence signs split it into two parts whose induced local triangulations
can replace each other inside a larger triangulation whenever one of them is
realized with a common link.  Circuits are computed once per configuration
from the integer maximal minors of the homogenized points.  Each circuit
table indexes its circuits by the first core face of each orientation, so a
state is scanned through its own faces: only the circuits whose core is a
face of the state are tested for flippability.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StaleAction
from .geometry import PointConfig, _int_det, dependence_kernel
from .triangulation import Triangulation


@dataclass(frozen=True)
class Circuit:
    """Minimal affinely dependent vertex set with its signed dependence."""

    vertices: tuple  # sorted vertex indices, size <= dim+2
    coeffs: tuple  # Fractions, first nonzero entry +1, full support
    positive: tuple  # indices with positive coefficient
    negative: tuple  # indices with negative coefficient


@dataclass(frozen=True)
class FlipAction:
    """A feasible bistellar flip: circuit, realized side, link, and both joins."""

    circuit: Circuit
    realized_side: int  # +1 if the positive-part core is in the triangulation
    link: tuple  # sorted tuple of sorted link faces (vertex tuples)
    removed: tuple  # simplices currently in the triangulation
    inserted: tuple  # their replacement

    @property
    def action_id(self):
        return (self.circuit.vertices, self.realized_side)


@dataclass(frozen=True)
class CircuitTable:
    """All circuits of one configuration, in vertex-tuple order.

    ``by_core`` maps the first core face of each orientation (the circuit
    minus the first vertex of that side) to the positions of its circuits.
    An orientation is realized only if all its cores are faces, so a state
    whose faces hit no key has no action on that circuit.
    """

    config: PointConfig
    circuits: tuple
    by_core: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_core = {}
        for pos, circuit in enumerate(self.circuits):
            zset = frozenset(circuit.vertices)
            for part in (circuit.positive, circuit.negative):
                by_core.setdefault(zset - {part[0]}, []).append(pos)
        object.__setattr__(self, "by_core", by_core)

    def __len__(self):
        return len(self.circuits)


def _circuit(subset, lam) -> Circuit:
    """The circuit on ``subset`` with full-support dependence ``lam``.

    The coefficients are scaled so that the first one is +1.
    """
    coeffs = tuple(Fraction(v, lam[0]) for v in lam)
    return Circuit(
        vertices=subset,
        coeffs=coeffs,
        positive=tuple(i for i, v in zip(subset, coeffs) if v > 0),
        negative=tuple(i for i, v in zip(subset, coeffs) if v < 0),
    )


def enumerate_circuits(config: PointConfig) -> CircuitTable:
    """All circuits of the configuration, from its integer maximal minors.

    Every (d+1)-subset's determinant on the homogenized rows (1, x) is taken
    once.  A (d+2)-subset Z is a circuit iff none of its d+2 minors vanishes,
    with dependence lam_j = (-1)^j det(Z - j) by Cramer's rule.  Because the
    configuration spans, a smaller subset is dependent iff every
    (d+1)-superset has a zero minor; only those subsets go through the exact
    kernel, and one is a circuit iff its dependence space is one-dimensional
    with full support (every proper subset is then independent).
    """
    n, size = config.n, config.dim + 1
    rows, _scale = config.int_rows()
    homogeneous = [(1,) + tuple(r) for r in rows]
    minors = {
        subset: _int_det([homogeneous[i] for i in subset])
        for subset in itertools.combinations(range(n), size)
    }
    circuits = []
    for subset in itertools.combinations(range(n), size + 1):
        dets = [minors[subset[:j] + subset[j + 1 :]] for j in range(size + 1)]
        if all(dets):
            circuits.append(_circuit(subset, [(-1) ** j * det for j, det in enumerate(dets)]))
    for k in range(2, size + 1):
        for subset in itertools.combinations(range(n), k):
            rest = [i for i in range(n) if i not in subset]
            if any(
                minors[tuple(sorted(subset + extra))]
                for extra in itertools.combinations(rest, size - k)
            ):
                continue
            basis = dependence_kernel([config.points[i] for i in subset])
            if len(basis) == 1 and all(basis[0]):
                circuits.append(_circuit(subset, basis[0]))
    circuits.sort(key=lambda c: c.vertices)
    return CircuitTable(config=config, circuits=tuple(circuits))


def _realize(faces, circuit: Circuit, side_part, other_part, side: int):
    """Try to realize one orientation of a circuit, given the state's face map."""
    zset = frozenset(circuit.vertices)
    link = None
    for p in side_part:
        core = zset - {p}
        members = faces.get(core)
        if members is None:
            return None
        this_link = frozenset(s - core for s in members)
        if link is None:
            link = this_link
        elif link != this_link:
            return None
    removed = set()
    inserted = set()
    for p in side_part:
        core = zset - {p}
        for g in link:
            removed.add(tuple(sorted(core | g)))
    for q in other_part:
        core = zset - {q}
        for g in link:
            inserted.add(tuple(sorted(core | g)))
    return FlipAction(
        circuit=circuit,
        realized_side=side,
        link=tuple(sorted(tuple(sorted(g)) for g in link)),
        removed=tuple(sorted(removed)),
        inserted=tuple(sorted(inserted)),
    )


def flippable_circuits(tri: Triangulation, table: CircuitTable):
    """All feasible flip actions at ``tri``, in circuit-vertex-tuple order.

    A circuit yields an action iff for one sign orientation every maximal core
    face is a face of the triangulation and all core faces share one identical
    link; at most one orientation can be realized (asserted).  Only circuits
    with a first core among the state's faces are tested.
    """
    faces = tri.face_map()
    hits = sorted({pos for face in faces for pos in table.by_core.get(face, ())})
    actions = []
    for pos in hits:
        circuit = table.circuits[pos]
        plus = _realize(faces, circuit, circuit.positive, circuit.negative, +1)
        minus = _realize(faces, circuit, circuit.negative, circuit.positive, -1)
        if plus is not None and minus is not None:
            raise AssertionError(
                f"both sides of circuit {circuit.vertices} realized at once"
            )
        action = plus if plus is not None else minus
        if action is not None:
            actions.append(action)
    return actions


def apply_flip(tri: Triangulation, action: FlipAction) -> Triangulation:
    """Replace the realized local subtriangulation by the other side."""
    current = set(tri.simplices)
    removed = set(action.removed)
    if not removed <= current:
        raise StaleAction("action's removed set is not part of the triangulation")
    return Triangulation((current - removed) | set(action.inserted))


def reverse_action(tri_after: Triangulation, table: CircuitTable, action: FlipAction):
    """The action that undoes ``action`` from the flipped state."""
    for cand in flippable_circuits(tri_after, table):
        if (
            cand.circuit.vertices == action.circuit.vertices
            and cand.realized_side == -action.realized_side
        ):
            return cand
    raise AssertionError("reverse flip not found")


def neighbors(tri: Triangulation, table: CircuitTable):
    """Distinct one-flip successors of ``tri``."""
    out = {}
    for action in flippable_circuits(tri, table):
        nxt = apply_flip(tri, action)
        out.setdefault(nxt.canonical_key, nxt)
    return [out[k] for k in sorted(out)]


@dataclass
class ComponentResult:
    states: dict  # canonical key -> Triangulation, in discovery order
    edge_count: int
    truncated: bool
    expansions: int

    @property
    def keys(self):
        return set(self.states)

    def __len__(self):
        return len(self.states)


def enumerate_component(
    seed: Triangulation, table: CircuitTable, limit: int = 1_000_000
) -> ComponentResult:
    """Breadth-first traversal of the seed's flip-graph component.

    Stops after ``limit`` expansions with the truncation flag set; enumeration
    is exact whenever the component is smaller than the limit.  The edge count
    covers all flips discovered between expanded states and their neighbors.
    """
    states = {seed.canonical_key: seed}
    index = {seed.canonical_key: 0}
    queue = deque([seed])
    edges = set()
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        cur_idx = index[current.canonical_key]
        for nxt in neighbors(current, table):
            key = nxt.canonical_key
            if key not in states:
                states[key] = nxt
                index[key] = len(index)
                queue.append(nxt)
            a, b = cur_idx, index[key]
            edges.add((min(a, b), max(a, b)))
    return ComponentResult(
        states=states, edge_count=len(edges), truncated=truncated, expansions=expansions
    )
