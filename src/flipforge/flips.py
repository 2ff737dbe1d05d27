"""Circuits, bistellar flips, neighbor enumeration, and flip-graph traversal.

A circuit is a minimal affinely dependent subset of the configuration; its
dependence signs split it into two parts whose induced local triangulations
can replace each other inside a larger triangulation whenever one of them is
realized with a common link.  Circuits are computed once per configuration
from the integer minors of the homogenized points, which the configuration
takes in one Laplace pass and keeps (circuits and their dependences are read
off the maximal minors, the chirotope; De Loera, Rambau & Santos 2010),
with no elimination: a smaller circuit's dependence is the Cramer
dependence of the circuit and a few points completing it to a basis.

States and flips are integer-coded, as in TOPCOM (Rambau 2002) and mptopcom
(Jordan, Joswig & Kastner 2018): the table's simplex index gives each
(d+1)-subset a bit, a state is the mask of its simplices, and a flip of a
circuit of dim+2 points, the only kind a generic configuration has, is a
removed mask R and an XOR mask.  A state's realized flips are an int over
flip ids; a flipped state re-tests only the flips whose removed simplices
meet its flip's, and the walk over a component keeps one int per state.  A
smaller circuit, in a degenerate configuration, reads its cores' links off
the state's simplices; the table indexes those circuits by their cores, so a
flipped state re-tests only the ones touching a simplex its flip inserted.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StaleAction
from .geometry import PointConfig
from .triangulation import SimplexIndex, Triangulation, _edges, set_bits, simplex_index


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


@dataclass(frozen=True)
class FlipAction:
    """A feasible bistellar flip: circuit, realized side, link, and both joins.

    On the table's simplex ``index`` the flip is ``masks``: its removed mask
    R (realized at a state s iff ``s & R == R``) and the XOR mask R ^ I that
    makes the child; ``edge_xor`` is the XOR mask of the 1-skeleton.  Both
    are built on first use.  ``flip_id`` is 2 * the circuit's position + (1
    if the negative side is realized).
    """

    circuit: Circuit
    realized_side: int  # +1 if the positive-part core is in the triangulation
    link: tuple  # sorted tuple of sorted link faces (vertex tuples)
    removed: tuple  # simplices currently in the triangulation
    inserted: tuple  # their replacement
    index: SimplexIndex | None = field(default=None, compare=False, repr=False)
    flip_id: int = field(default=-1, compare=False, repr=False)

    @property
    def action_id(self):
        return (self.circuit.vertices, self.realized_side)

    @functools.cached_property
    def masks(self) -> tuple:
        removed = self.index.mask(self.removed)
        return removed, removed ^ self.index.mask(self.inserted)

    @functools.cached_property
    def edge_xor(self) -> int:
        """The edges of exactly one side, as a mask on the index's ``edges``: a flip
        changes only edges inside its region."""
        edges = set(_edges(self.removed)).symmetric_difference(_edges(self.inserted))
        return self.index.edges.mask(edges)


@dataclass(frozen=True)
class CircuitTable:
    """All circuits of one configuration, in vertex-tuple order, and its simplex index.

    The flips of a circuit of dim+2 points are fixed: both orientations are
    built on first use and kept, and so are, per simplex, the flips that
    remove it and, per flip, the flips it re-tests.  A smaller circuit's
    actions are kept per flip id and link once realized, and
    ``touching(simplex)`` gives the positions of the smaller circuits with a
    core inside the simplex.  Everything is indexed lazily, on first use, so
    building a table costs nothing beyond the circuits themselves.
    """

    config: PointConfig
    circuits: tuple
    _touching: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _removing: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _retests: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _small_flips: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __len__(self):
        return len(self.circuits)

    @functools.cached_property
    def index(self) -> SimplexIndex:
        return simplex_index(self.config.n, self.config.dim + 1)

    @functools.cached_property
    def _flips(self):
        """Flip id -> the full circuit's ``FlipAction``, or None until built."""
        return [None] * (2 * len(self.circuits))

    @functools.cached_property
    def _removed(self):
        """Flip id -> the full circuit's removed mask R, or 0 until computed."""
        return [0] * (2 * len(self.circuits))

    def removed(self, flip_id) -> int:
        """The removed mask of the flip ``flip_id`` of a circuit of dim+2 points: the
        cores Z - {p} for p on its side, all of them its removed simplices."""
        r = self._removed[flip_id]
        if not r:
            circuit, bit = self.circuits[flip_id >> 1], self.index.bit
            z, negative = circuit.vertices, flip_id & 1
            for i, v in enumerate(circuit.dependence):
                if (v < 0) == negative:
                    r |= 1 << bit(z[:i] + z[i + 1 :])
            self._removed[flip_id] = r
        return r

    @functools.cached_property
    def _positions(self):
        """Vertex tuple of a circuit of dim+2 points -> its position."""
        full = self.config.dim + 2
        return {c.vertices: pos for pos, c in enumerate(self.circuits) if len(c.vertices) == full}

    @functools.cached_property
    def _small(self):
        """Whether the table has circuits of fewer than dim+2 points."""
        return len(self._positions) < len(self.circuits)

    @functools.cached_property
    def _pairs(self):
        """The even flip ids' bits: ``a & (a >> 1) & _pairs`` finds a circuit with both sides."""
        return int("01" * len(self.circuits) or "0", 2)

    def flip(self, flip_id) -> FlipAction:
        """The flip ``flip_id`` of a circuit of dim+2 points: its cores are d-simplices
        with an empty link, so a side is realized iff all its cores are simplices."""
        action = self._flips[flip_id]
        if action is None:
            pos = flip_id >> 1
            circuit = self.circuits[pos]
            z, dependence = circuit.vertices, circuit.dependence
            # Z - {z[i]} as i falls is in increasing order, so each side comes out sorted
            cores = [(z[:i] + z[i + 1 :], dependence[i] > 0) for i in reversed(range(len(z)))]
            plus = tuple(core for core, positive in cores if positive)
            minus = tuple(core for core, positive in cores if not positive)
            index, first = self.index, 2 * pos
            self._flips[first] = FlipAction(circuit, 1, ((),), plus, minus, index, first)
            self._flips[first + 1] = FlipAction(circuit, -1, ((),), minus, plus, index, first + 1)
            action = self._flips[flip_id]
        return action

    def removing(self, bit) -> tuple:
        """``(ids, flips)``: the flips of full circuits that remove the simplex on
        ``bit`` (one per circuit Z = simplex + p, the side of p), as bits over
        flip ids and as ``(1 << id, removed mask)`` pairs."""
        hit = self._removing.get(bit)
        if hit is None:
            simplex, circuits, ids, flips = self.index.subset(bit), self._positions, 0, []
            k, size = 0, len(simplex)
            for p in range(self.config.n):
                if k < size and simplex[k] == p:
                    k += 1  # p's place in Z = simplex + p
                    continue
                pos = circuits.get(simplex[:k] + (p,) + simplex[k:])
                if pos is not None:
                    g = 2 * pos + (self.circuits[pos].dependence[k] < 0)
                    ids |= 1 << g
                    flips.append((1 << g, self.removed(g)))
            hit = self._removing[bit] = (ids, tuple(flips))
        return hit

    def retest(self, action) -> tuple:
        """``(cleared, tests)`` of a flip: bits over the ids of the flips that remove a
        simplex it removes, which it unrealizes, and the ``(1 << id, removed mask)``
        of those that remove a simplex it inserts, the only ones it can realize.
        Kept per flip, keyed by its masks."""
        hit = self._retests.get(action.masks)
        if hit is None:
            removed, xor = action.masks
            cleared = 0
            for b in set_bits(removed):
                cleared |= self.removing(b)[0]
            tests = tuple(t for b in set_bits(removed ^ xor) for t in self.removing(b)[1])
            hit = self._retests[action.masks] = (cleared, tests)
        return hit

    @functools.cached_property
    def _core_index(self):
        """Core Z - {p} of a circuit of fewer than dim+2 points, as a sorted vertex tuple
        -> positions of the circuits Z with that core."""
        cores, full = {}, self.config.dim + 2
        for pos, circuit in enumerate(self.circuits):
            z = circuit.vertices
            if len(z) == full:
                continue
            for i in range(len(z)):
                cores.setdefault(z[:i] + z[i + 1 :], []).append(pos)
        return cores

    def touching(self, simplex) -> frozenset:
        """Positions of the circuits of fewer than dim+2 points with a core Z - {p},
        any p in Z, inside ``simplex``.

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


_flip_id = operator.attrgetter("flip_id")


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
    circuit iff none of its d+2 maximal minors vanishes; only then is its
    dependence signed (``PointConfig.dependence``, Cramer's rule).  A smaller subset with a
    nonzero prefix minor is independent, and one containing a dependent
    subset one point smaller is dependent but no circuit.  Because the
    configuration spans, any other with a zero prefix minor is dependent iff
    every (d+1)-superset has a zero maximal minor; such a subset S is a
    circuit, since its facets are independent.  Its dependence is read off
    the maximal minors too: S minus its last point s is independent, and s
    lies in its affine span, so the other points complete it to a basis by
    some E with a nonzero minor; the one dependence of S + E is then S's,
    padded with zeros on E.
    """
    n, size = config.n, config.dim + 1
    levels = config.prefix_minors()
    minors = levels[-1]
    circuits = []
    for subset in itertools.combinations(range(n), size + 1):
        if all(minors[subset[:j] + subset[j + 1 :]] for j in range(size + 1)):
            circuits.append(_circuit(subset, config.dependence(subset)))
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
                face = subset[:-1]
                completion = next(
                    extra
                    for extra in itertools.combinations(rest, size + 1 - k)
                    if minors[tuple(sorted(face + extra))]
                )
                circuits.append(_circuit(subset, config.dependence(subset + completion)[:k]))
            level_dependent.add(subset)
        dependent = level_dependent
    circuits.sort(key=lambda c: c.vertices)
    return CircuitTable(config=config, circuits=tuple(circuits))


def _realize(table, pos, sets, side):
    """Try to realize one orientation of the small circuit at ``pos`` from the state's
    simplices as frozensets ``sets``: every core of the side needs one and the same
    nonempty link.  The action is kept on the table per flip id and link, so its
    masks are built once."""
    circuit = table.circuits[pos]
    side_cores, other_cores = circuit.cores if side > 0 else circuit.cores[::-1]
    link = None
    for core in side_cores:
        this_link = frozenset(s - core for s in sets if core <= s)
        if not this_link or link not in (None, this_link):
            return None  # the core is no face, or the links differ
        link = this_link
    key = (2 * pos + (side < 0), tuple(sorted(tuple(sorted(g)) for g in link)))
    action = table._small_flips.get(key)
    if action is None:
        action = table._small_flips[key] = FlipAction(
            circuit=circuit,
            realized_side=side,
            link=key[1],
            removed=tuple(sorted({tuple(sorted(core | g)) for core in side_cores for g in link})),
            inserted=tuple(sorted({tuple(sorted(core | g)) for core in other_cores for g in link})),
            index=table.index,
            flip_id=key[0],
        )
    return action


def _realized(tri: Triangulation, table: CircuitTable):
    """``(flips, small)``: the state's realized full-circuit flips as bits over flip
    ids, and its small circuits' actions by position; kept on the state, per table.

    A flip that removes a simplex the state's flip removed is not realized,
    and a flip's status can change otherwise only if it removes a simplex the
    flip inserted; so a state whose parent knows its flips drops the first
    kind and tests only the second (the table's ``retest`` lists).  Any other
    state tests the flips removing one of its simplices.  A small
    circuit's realization depends only on the stars of its cores, which a flip
    changes only through its inserted simplices: a state flipped from a parent
    with known actions re-tests only the small circuits touching an inserted
    simplex, and every other keeps the parent's action while its removed
    simplices remain.  Only then are the simplices turned into frozensets.
    """
    actions = tri._actions
    if actions is not None and actions[0] is table:
        return actions[1], actions[2]
    index = table.index
    mask = tri.code(index)
    parent, flip = tri._lineage or (None, None)
    if parent is not None and parent._actions is not None and parent._actions[0] is table:
        flips, small = parent._actions[1:3]
        cleared, tests = table.retest(flip)
        flips &= ~cleared
        changed = flip.inserted
    else:
        tests = [t for b in map(index.bit, tri.simplices) for t in table.removing(b)[1]]
        flips, small, changed = 0, {}, tri.simplices
    for g, removed in tests:
        if mask & removed == removed:
            flips |= g
    both = flips & (flips >> 1) & table._pairs
    if both:
        vertices = table.circuits[(both & -both).bit_length() // 2].vertices
        raise AssertionError(f"both sides of circuit {vertices} realized at once")
    if table._small:
        retest = frozenset().union(*map(table.touching, changed))
        small = {
            pos: a
            for pos, a in small.items()
            if pos not in retest and mask & a.masks[0] == a.masks[0]
        }
        sets = [frozenset(s) for s in tri.simplices] if retest else None
        for pos in retest:
            plus, minus = _realize(table, pos, sets, +1), _realize(table, pos, sets, -1)
            if plus is not None and minus is not None:
                vertices = table.circuits[pos].vertices
                raise AssertionError(f"both sides of circuit {vertices} realized at once")
            if plus is not None or minus is not None:
                small[pos] = plus or minus
    tri._actions = (table, flips, small)
    tri._lineage = None
    return flips, small


def flippable_circuits(tri: Triangulation, table: CircuitTable):
    """All feasible flip actions at ``tri``, in circuit-vertex-tuple order.

    A circuit yields an action iff for one sign orientation every maximal core
    face is a face of the triangulation and all core faces share one identical
    link; at most one orientation can be realized (asserted).  A circuit of
    dim+2 points has empty links, so its flips are fixed (``CircuitTable.flip``)
    and one is realized iff its removed mask is inside the state's mask; a
    smaller one compares its cores' links, read off the state's simplices.
    The realized flips are kept on the state as bits over flip ids, patched
    from its parent's through the flip that made it (see ``_realized``); the
    list is built from them on each call, the small circuits' actions merged
    in by flip id.
    """
    flips, small = _realized(tri, table)
    built = table._flips
    actions = [built[g] or table.flip(g) for g in reversed(set_bits(flips))]
    for action in small.values():
        bisect.insort(actions, action, key=_flip_id)
    return actions


def flip_count(tri: Triangulation, table: CircuitTable) -> int:
    """``len(flippable_circuits(tri, table))``, read off the realized flips; builds no list."""
    flips, small = _realized(tri, table)
    return flips.bit_count() + len(small)


def apply_flip(tri: Triangulation, action: FlipAction) -> Triangulation:
    """Replace the realized local subtriangulation by the other side.

    The child is the state's mask XOR the flip's; it records its lineage, so
    its actions and 1-skeleton are patched from ``tri``'s.
    """
    removed, xor = action.masks
    mask = tri.code(action.index)
    if mask & removed != removed:
        raise StaleAction("action's removed set is not part of the triangulation")
    return Triangulation._coded(action.index, mask ^ xor, (tri, action))


def _children(tri: Triangulation, table: CircuitTable) -> dict:
    """``{child mask: the first action reaching it}`` of ``tri``."""
    mask, first = tri.code(table.index), {}
    for action in flippable_circuits(tri, table):
        first.setdefault(mask ^ action.masks[1], action)
    return first


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
    """Distinct one-flip successors of ``tri``, in key order (descending masks)."""
    first = _children(tri, table)
    return [
        Triangulation._coded(table.index, key, (tri, first[key]))
        for key in sorted(first, reverse=True)
    ]


@dataclass
class ComponentResult:
    index: SimplexIndex
    masks: dict  # state mask -> discovery position, in discovery order
    edge_count: int
    truncated: bool
    expansions: int

    @functools.cached_property
    def states(self):
        """Canonical key -> state, in discovery order; decoded on first use."""
        tris = (Triangulation._coded(self.index, mask) for mask in self.masks)
        return {tri.canonical_key: tri for tri in tris}

    @property
    def keys(self):
        return set(self.states)

    def __len__(self):
        return len(self.masks)


def enumerate_component(
    seed: Triangulation,
    table: CircuitTable,
    limit: int = 1_000_000,
    cap: float = math.inf,
    visit=None,
) -> ComponentResult:
    """Breadth-first traversal of the seed's flip-graph component, on masks.

    Stops after ``limit`` expansions, or as soon as it holds ``cap`` states
    (in the middle of an expansion), with the truncation flag set;
    enumeration is exact whenever the component is smaller than both.  The
    edge count covers all flips discovered between expanded states and their
    neighbors.  States expand in discovery order and every flip's reverse is
    a flip, so an edge is new exactly when its neighbor has not expanded yet.
    A state's children come in descending mask order, which is ascending
    canonical-key order (``SimplexIndex``).  A neighbor is built only on its
    first discovery; every other flip is known by its mask alone, and a built
    state lives only until it is expanded and its children are, so the walk
    keeps one int per state.  ``visit``, if given, is called with each state
    as it is built, the seed first, while its parent's caches are alive.
    """
    index = table.index
    masks = {seed.code(index): 0}
    if visit is not None:
        visit(seed)
    queue = deque([seed])
    edge_count = 0
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit or len(masks) >= cap:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        first = _children(current, table)
        for key in sorted(first, reverse=True):
            if len(masks) >= cap:
                break
            pos = masks.get(key)
            if pos is None:
                pos = masks[key] = len(masks)
                nxt = Triangulation._coded(index, key, (current, first[key]))
                if visit is not None:
                    visit(nxt)
                queue.append(nxt)
            edge_count += pos >= expansions
    return ComponentResult(index, masks, edge_count, truncated, expansions)
