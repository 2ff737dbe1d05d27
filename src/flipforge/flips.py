"""Circuits, bistellar flips, neighbor enumeration, and flip-graph traversal.

A circuit is a minimal affinely dependent subset of the configuration; its
dependence signs split it into two parts whose induced local triangulations
can replace each other inside a larger triangulation whenever one of them is
realized with a common link.  Circuits are computed once per configuration
from the integer minors of the homogenized points, which the configuration
takes in one Laplace pass and keeps (circuits are read off the maximal
minors, the chirotope; De Loera, Rambau & Santos 2010); only the small
subsets the minors prove to be circuits are eliminated, fraction-free
(Bareiss 1968), and ``geometry.null_space`` reads their kernels off.  Each
circuit table indexes its circuits by their cores, so a state tests only the
circuits with a core inside one of its simplices, and a flipped state only
those touching the simplices its flip inserted.  A circuit of dim+2 points,
the only kind a generic configuration has, is tested against the state's
simplex set alone; a smaller circuit reads its cores' links off the state's
simplices.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StaleAction
from .geometry import PointConfig, null_space
from .triangulation import Triangulation


@dataclass(frozen=True)
class Circuit:
    """Minimal affinely dependent vertex set with its signed dependence."""

    vertices: tuple  # sorted vertex indices, size <= dim+2
    dependence: tuple  # primitive integers, first entry positive, full support
    positive: tuple  # indices with positive coefficient
    negative: tuple  # indices with negative coefficient

    @functools.cached_property
    def coeffs(self):
        """The dependence as Fractions scaled so that the first one is +1."""
        return tuple(Fraction(v, self.dependence[0]) for v in self.dependence)

    @functools.cached_property
    def cores(self):
        """The cores Z - {p}: (one per positive p, one per negative p), as frozensets
        for ``_realize``'s link tests."""
        zset = frozenset(self.vertices)
        return tuple(tuple(zset - {p} for p in part) for part in (self.positive, self.negative))

    @functools.cached_property
    def flips(self):
        """Both orientations' actions (+1 first) of a circuit of dim+2 points: its cores are
        d-simplices with an empty link, so a side is realized iff all its cores are simplices."""
        z, dependence = self.vertices, self.dependence
        # Z - {z[i]} as i falls is in increasing order, so each side comes out sorted
        cores = [(z[:i] + z[i + 1 :], dependence[i] > 0) for i in reversed(range(len(z)))]
        plus = tuple(core for core, positive in cores if positive)
        minus = tuple(core for core, positive in cores if not positive)
        return FlipAction(self, 1, ((),), plus, minus), FlipAction(self, -1, ((),), minus, plus)


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

    ``touching(simplex)`` gives the positions of the circuits with a core
    inside the simplex.  Circuits are indexed by core lazily, on first use,
    so building a table costs nothing beyond the circuits themselves.
    """

    config: PointConfig
    circuits: tuple
    _touching: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __len__(self):
        return len(self.circuits)

    @functools.cached_property
    def _core_index(self):
        """Core Z - {p}, as a sorted vertex tuple -> positions of the circuits Z with that core."""
        cores = {}
        for pos, circuit in enumerate(self.circuits):
            z = circuit.vertices
            for i in range(len(z)):
                cores.setdefault(z[:i] + z[i + 1 :], []).append(pos)
        return cores

    def touching(self, simplex) -> frozenset:
        """Positions of the circuits with a core Z - {p}, any p in Z, inside ``simplex``.

        Every face size is probed: repeated points make 2-point circuits, whose
        cores are single points."""
        hit = self._touching.get(simplex)
        if hit is None:
            index = self._core_index
            hit = frozenset(
                pos
                for size in range(1, len(simplex) + 1)
                for face in itertools.combinations(simplex, size)
                for pos in index.get(face, ())
            )
            self._touching[simplex] = hit
        return hit


def _circuit(subset, lam) -> Circuit:
    """The circuit on ``subset`` with full-support integer dependence ``lam``.

    The dependence is stored as primitive integers with a positive first entry.
    """
    g = math.gcd(*lam) if lam[0] > 0 else -math.gcd(*lam)
    dependence = tuple(v // g for v in lam)
    return Circuit(
        vertices=subset,
        dependence=dependence,
        positive=tuple(i for i, v in zip(subset, dependence) if v > 0),
        negative=tuple(i for i, v in zip(subset, dependence) if v < 0),
    )


def enumerate_circuits(config: PointConfig) -> CircuitTable:
    """All circuits of the configuration, from its integer minors.

    The configuration's Laplace pass (``PointConfig.prefix_minors``) gives
    every k-subset's minor of the homogenized rows (1, x) on the first k
    columns; the last level holds the maximal minors.  A (d+2)-subset Z is a
    circuit iff none of its d+2 maximal minors vanishes, with dependence
    ``PointConfig.dependence`` (Cramer's rule).  A smaller subset with a
    nonzero prefix minor is independent, and one containing a dependent
    subset one point smaller is dependent but no circuit.  Because the
    configuration spans, any other with a zero prefix minor is dependent iff
    every (d+1)-superset has a zero maximal minor; such a subset is a
    circuit, since its facets are independent, and only it is eliminated
    (``null_space`` of the integer columns) for its one-dimensional kernel.
    """
    n, size = config.n, config.dim + 1
    rows, _scale = config.int_rows()
    homogeneous = [(1,) + tuple(r) for r in rows]
    levels = config.prefix_minors()
    minors = levels[-1]
    circuits = []
    for subset in itertools.combinations(range(n), size + 1):
        lam = config.dependence(subset)
        if all(lam):
            circuits.append(_circuit(subset, lam))
    dependent = set()  # the dependent subsets of the previous level
    for k in range(2, size + 1):
        level_dependent = set()
        for subset, prefix in levels[k - 1].items():
            if prefix:
                continue
            if not any(subset[:t] + subset[t + 1 :] in dependent for t in range(k)):
                rest = [i for i in range(n) if i not in subset]
                if any(
                    minors[tuple(sorted(subset + extra))]
                    for extra in itertools.combinations(rest, size - k)
                ):
                    continue
                # dependent with independent facets: rank k - 1, one kernel vector
                (lam,), _d = null_space([[homogeneous[i][c] for i in subset] for c in range(size)])
                circuits.append(_circuit(subset, lam))
            level_dependent.add(subset)
        dependent = level_dependent
    circuits.sort(key=lambda c: c.vertices)
    return CircuitTable(config=config, circuits=tuple(circuits))


def _realize(sets, circuit: Circuit, side: int):
    """Try to realize one orientation of a circuit from the state's simplices as
    frozensets ``sets``: every core of the side needs one and the same nonempty link."""
    side_cores, other_cores = circuit.cores if side > 0 else circuit.cores[::-1]
    link = None
    for core in side_cores:
        this_link = frozenset(s - core for s in sets if core <= s)
        if not this_link or link not in (None, this_link):
            return None  # the core is no face, or the links differ
        link = this_link
    return FlipAction(
        circuit=circuit,
        realized_side=side,
        link=tuple(sorted(tuple(sorted(g)) for g in link)),
        removed=tuple(sorted({tuple(sorted(core | g)) for core in side_cores for g in link})),
        inserted=tuple(sorted({tuple(sorted(core | g)) for core in other_cores for g in link})),
    )


def flippable_circuits(tri: Triangulation, table: CircuitTable):
    """All feasible flip actions at ``tri``, in circuit-vertex-tuple order.

    A circuit yields an action iff for one sign orientation every maximal core
    face is a face of the triangulation and all core faces share one identical
    link; at most one orientation can be realized (asserted).  Both depend
    only on the stars of the circuit's cores.  A flip adds to the star of a
    face only if an inserted simplex contains it, and a face of a removed
    simplex that no inserted simplex contains is no face of the flipped state
    at all: whatever the flipped region shares with the rest of the
    triangulation is a face of the inserted simplices too.  So a state
    flipped from a parent with known actions re-tests only the circuits
    touching an inserted simplex; every other circuit keeps the parent's
    action while that action's removed simplices (the stars of its side's
    cores) all remain, and has none otherwise.  Any other state tests every
    circuit touching one of its simplices.  A circuit of dim+2 points is
    tested by simplex membership (see ``Circuit.flips``); a smaller one
    compares its cores' links, read off the state's simplices, which are
    turned into frozensets only when such a circuit is re-tested.  The
    actions are cached on the state, per table, and its lineage dropped.
    """
    if tri._actions is None or tri._actions[0] is not table:
        parent, _removed, inserted = tri._lineage or (None, (), ())
        if parent is None or parent._actions is None or parent._actions[0] is not table:
            kept, changed = {}, tri.simplices
        else:
            kept, changed = parent._actions[1], inserted
        retest = frozenset().union(*map(table.touching, changed))
        circuits, sets, full = table.circuits, None, table.config.dim + 2
        realized = set(tri.simplices).issuperset
        found = {pos: a for pos, a in kept.items() if pos not in retest and realized(a.removed)}
        for pos in retest:
            circuit = circuits[pos]
            if len(circuit.vertices) == full:
                plus, minus = circuit.flips
                plus = plus if realized(plus.removed) else None
                minus = minus if realized(minus.removed) else None
            else:
                sets = sets or [frozenset(s) for s in tri.simplices]
                plus, minus = _realize(sets, circuit, +1), _realize(sets, circuit, -1)
            if plus is not None and minus is not None:
                raise AssertionError(f"both sides of circuit {circuit.vertices} realized at once")
            if plus is not None or minus is not None:
                found[pos] = plus or minus
        tri._actions = (table, dict(sorted(found.items())))
        tri._lineage = None
    return list(tri._actions[1].values())


def apply_flip(tri: Triangulation, action: FlipAction) -> Triangulation:
    """Replace the realized local subtriangulation by the other side.

    The child records the simplices that actually left and arrived, so its
    actions and 1-skeleton are patched from ``tri``'s.
    """
    current = set(tri.simplices)
    if not current.issuperset(action.removed):
        raise StaleAction("action's removed set is not part of the triangulation")
    return _child(tri, current, action, _flip_key(current, action))


def _flip_key(current: set, action: FlipAction) -> tuple:
    """Canonical key of the state ``action`` makes from the simplex set ``current``."""
    return tuple(sorted(current.difference(action.removed).union(action.inserted)))


def _child(tri: Triangulation, current: set, action: FlipAction, key: tuple) -> Triangulation:
    """The state ``key`` that ``action`` makes from ``tri``, whose simplex set is ``current``."""
    return Triangulation._flipped(tri, key, action.removed, tuple(set(action.inserted) - current))


def _successors(tri: Triangulation, table: CircuitTable):
    """``(simplex set, {successor key: the first action reaching it})`` of ``tri``."""
    current = set(tri.simplices)
    first = {}
    for action in flippable_circuits(tri, table):
        first.setdefault(_flip_key(current, action), action)
    return current, first


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
    """Distinct one-flip successors of ``tri``, in key order."""
    current, first = _successors(tri, table)
    return [_child(tri, current, first[key], key) for key in sorted(first)]


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
    seed: Triangulation,
    table: CircuitTable,
    limit: int = 1_000_000,
    cap: float = math.inf,
    visit=None,
) -> ComponentResult:
    """Breadth-first traversal of the seed's flip-graph component.

    Stops after ``limit`` expansions, or as soon as it holds ``cap`` states
    (in the middle of an expansion), with the truncation flag set;
    enumeration is exact whenever the component is smaller than both.  The
    edge count covers all flips discovered between expanded states and their
    neighbors.  States expand in discovery order and every flip's reverse is
    a flip, so an edge is new exactly when its neighbor has not expanded yet.
    A neighbor is built only on its first discovery; every other flip is
    known by its key alone.  ``visit``, if given, is called with each state
    as it is built, the seed first, while its parent's caches are alive.
    """
    if visit is not None:
        visit(seed)
    states = {seed.canonical_key: seed}
    index = {seed.canonical_key: 0}
    queue = deque([seed])
    edge_count = 0
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit or len(states) >= cap:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        simplices, first = _successors(current, table)
        for key in sorted(first):
            if len(states) >= cap:
                break
            pos = index.get(key)
            if pos is None:
                pos = index[key] = len(index)
                states[key] = nxt = _child(current, simplices, first[key], key)
                if visit is not None:
                    visit(nxt)
                queue.append(nxt)
            edge_count += pos >= expansions
    return ComponentResult(
        states=states, edge_count=edge_count, truncated=truncated, expansions=expansions
    )
