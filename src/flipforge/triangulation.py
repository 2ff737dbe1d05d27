"""Triangulations as values: validity, identity, links, duals, and regularity.

A triangulation is a sorted tuple of maximal simplices (sorted vertex-index
tuples) over some :class:`~flipforge.geometry.PointConfig`, or equally the
int of its simplices' bits on the configuration's :class:`SimplexIndex`.
Operations take the configuration explicitly, so triangulation values stay
cheap to copy and hash and can be shared freely across workers.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .errors import DegenerateConfig, DegenerateHeights, FlipForgeError
from .geometry import PointConfig

Simplex = tuple  # sorted tuple of vertex indices, length dim+1
Heights = tuple  # one Fraction per configuration point


_ONES = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 selector bytes


def set_bits(mask) -> list:
    """The set bits of ``mask``, highest first: each step peels the top bit."""
    bits = []
    while mask:
        b = mask.bit_length() - 1
        bits.append(b)
        mask ^= 1 << b
    return bits


@functools.cache
def simplex_index(n, k):
    """The :class:`SimplexIndex` of the k-subsets of ``range(n)``.

    Built once per (n, k) in a process, and unpickled as that one, so states
    coded by a circuit table and by an objective on the same configuration
    share it.
    """
    return SimplexIndex(n, k)


class SimplexIndex:
    """One bit per k-subset of ``range(n)``, the lex-first subset on the highest bit.

    The index is its lex table: ``subsets[b]`` is the sorted subset on bit b
    and ``bits`` maps it back, C(n, k) entries (330 for 11 points in 3D).  So
    a set of simplices is one int, its mask, and its sorted tuple lists the
    mask's bits from the highest down.  Descending mask order is ascending
    sorted-tuple order for triangulations of one configuration: the highest
    differing bit is the lex-first simplex of the symmetric difference, and no
    triangulation's simplex set is a proper subset of another's (their volumes
    sum to the same total).  ``edges`` indexes the 2-subsets the same way.
    """

    def __init__(self, n, k):
        self.n, self.k = n, k
        self.subsets = tuple(itertools.combinations(range(n), k))[::-1]  # bit -> subset
        self.bits = {s: b for b, s in enumerate(self.subsets)}  # subset -> bit
        self._digits = f"0{len(self.subsets)}b"  # the mask's bits, highest first

    def __reduce__(self):
        return (simplex_index, (self.n, self.k))

    @functools.cached_property
    def edges(self):
        return simplex_index(self.n, 2)

    def bit(self, subset) -> int:
        return self.bits[subset]

    def subset(self, bit) -> tuple:
        return self.subsets[bit]

    def mask(self, subsets) -> int:
        bits, m = self.bits, 0
        for s in subsets:
            m |= 1 << bits[s]
        return m

    def select(self, values, mask):
        """``values[j]`` for each j-th k-subset in lex order whose bit is on in ``mask``,
        in that order (the mask's bits from the highest down), as an iterator.

        For dense masks, such as a 1-skeleton's edges: compressing by the
        mask's binary digits costs less there than peeling its bits off
        (``set_bits``)."""
        return itertools.compress(values, format(mask, self._digits).encode().translate(_ONES))

    def decode(self, mask) -> tuple:
        """The sorted tuple of the subsets on ``mask``'s bits: ``set_bits``' peel,
        inlined, which costs less than reading its list."""
        subsets, out = self.subsets, []
        while mask:
            b = mask.bit_length() - 1
            out.append(subsets[b])
            mask ^= 1 << b
        return tuple(out)


class Triangulation:
    """Immutable set of maximal simplices with a canonical, hashable identity.

    A state is coded on a :class:`SimplexIndex` once a walk or a flip asks for
    its mask (``code``); a state made by a flip is born coded, its mask the
    parent's XOR the flip's, and decodes its sorted simplex tuple only when
    something reads ``simplices``.  Such a state records its lineage (parent
    and flip) until its actions are known, so ``flippable_circuits`` re-tests
    only the flips the flip touched, and its 1-skeleton, an edge mask, is the
    parent's XOR the flip's edge mask.  Equal states compare, hash and pickle
    alike however they were made; caches and lineage are never pickled.
    """

    __slots__ = (
        "_simplices", "_index", "_mask", "_skeleton", "_hash", "_lineage", "_actions"
    )

    def __init__(self, simplices):
        cleaned = sorted({tuple(sorted(int(v) for v in s)) for s in simplices})
        if not cleaned:
            raise ValueError("a triangulation needs at least one simplex")
        size = len(cleaned[0])
        for s in cleaned:
            if len(s) != size or len(set(s)) != size:
                raise ValueError(f"malformed simplex {s}")
        self._set(tuple(cleaned), None, None)

    def _set(self, simplices, index, mask, lineage=None):
        self._simplices, self._index, self._mask, self._lineage = simplices, index, mask, lineage
        self._skeleton = self._hash = self._actions = None

    @classmethod
    def _coded(cls, index, mask, lineage=None):
        """The state ``mask`` over ``index``; ``lineage`` is ``(parent, flip)`` if a flip
        made it."""
        tri = cls.__new__(cls)
        tri._set(None, index, mask, lineage)
        return tri

    def __reduce__(self):
        return (Triangulation, (self.simplices,))

    @property
    def simplices(self):
        """The sorted tuple of sorted vertex tuples."""
        if self._simplices is None:
            self._simplices = self._index.decode(self._mask)
        return self._simplices

    def code(self, index) -> int:
        """The state's mask over ``index`` (its configuration's); computed once."""
        if self._index is not index:
            simplices = self.simplices
            self._set(simplices, index, index.mask(simplices))
        return self._mask

    @property
    def canonical_key(self):
        """Equal keys iff equal simplex sets; stable across runs and platforms."""
        return self.simplices

    def __eq__(self, other):
        if not isinstance(other, Triangulation):
            return False
        if self._index is not None and self._index is other._index:
            return self._mask == other._mask
        return self.simplices == other.simplices

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.simplices)
        return self._hash

    def __len__(self):
        return len(self._simplices) if self._index is None else self._mask.bit_count()

    def __repr__(self):
        return f"Triangulation({len(self)} simplices)"

    def __contains__(self, simplex):
        return tuple(simplex) in self.simplices

    @property
    def vertex_union(self):
        return frozenset(v for s in self.simplices for v in s)

    def skeleton_edges(self):
        """Sorted 1-skeleton edges (i, j) with i < j."""
        if self._index is None:
            return tuple(sorted(set(_edges(self.simplices))))
        return self._index.edges.decode(self.edge_code())

    def edge_code(self) -> int:
        """The 1-skeleton of a coded state as a mask over its index's ``edges``.

        A flip changes only edges interior to its region, so a flipped state
        whose parent knows its edge mask XORs the flip's edge mask into it.
        """
        if self._skeleton is None:
            parent, flip = self._lineage or (None, None)
            if parent is not None and parent._skeleton is not None and parent._index is self._index:
                self._skeleton = parent._skeleton ^ flip.edge_xor
            else:
                self._skeleton = self._index.edges.mask(_edges(self.simplices))
        return self._skeleton

    def ridges(self):
        """Each (d-1)-face -> the ``(position, k)`` of every simplex holding it, the
        face being ``simplices[position]`` without its k-th vertex; faces in order of
        first occurrence (k counts down in each simplex), holders in simplex order.

        Built on every call: rollout buffers keep thousands of states, so a kept
        table would cost more memory than rebuilding it costs time.
        """
        table = {}
        for pos, s in enumerate(self.simplices):
            k = len(s)
            for face in itertools.combinations(s, k - 1):
                k -= 1
                table.setdefault(face, []).append((pos, k))
        return table


def _edges(simplices):
    """The edges (i, j), i < j, of each simplex in turn, with repeats."""
    return itertools.chain.from_iterable(itertools.combinations(s, 2) for s in simplices)


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    first_violation: str | None = None
    details: tuple = ()

    def __bool__(self):
        return self.ok


def validate(tri: Triangulation, config: PointConfig) -> ValidityReport:
    """Certify a triangulation without pairwise intersection tests.

    Clauses, reported by letter:
      a. simplex volumes sum exactly to the hull volume
      b. every (d-1)-face occurs in at most two simplices
      c. every (d-1)-face occurring once lies inside a hull facet
      d. all vertex ids are valid configuration indices
      e. every simplex is nondegenerate
    Together these rule out overlaps, gaps, and improper face meetings.
    """
    failures = []
    n = config.n
    ids_ok = all(0 <= v < n for s in tri.simplices for v in s)
    sizes_ok = all(len(s) == config.dim + 1 for s in tri.simplices)
    if not ids_ok or not sizes_ok:
        failures.append(("d", "vertex ids outside the configuration"))
        return ValidityReport(False, "d", tuple(failures))

    volume_sum = config.volume(tri.simplices)
    hull_volume = config.hull_volume()
    if volume_sum != hull_volume:
        failures.append(("a", f"volume sum {volume_sum} != hull volume {hull_volume}"))

    ridges = tri.ridges()
    over = next((face for face, holders in ridges.items() if len(holders) > 2), None)
    if over is not None:
        failures.append(("b", f"face {over} occurs more than twice"))

    facets = [facet.vertex_ids for facet in config.hull().facets]
    for face, holders in ridges.items():
        if len(holders) == 1 and not any(map(set(face).issubset, facets)):
            failures.append(("c", f"once-only face {face} not on the hull boundary"))
            break

    degenerate = next((s for s in tri.simplices if config.simplex_det(s) == 0), None)
    if degenerate is not None:
        failures.append(("e", f"degenerate simplex {degenerate}"))

    if failures:
        failures.sort(key=lambda item: item[0])
        return ValidityReport(False, failures[0][0], tuple(failures))
    return ValidityReport(True)


def require_valid(tri: Triangulation, config: PointConfig) -> None:
    """Raise ``FlipForgeError`` unless ``tri`` validates against ``config``.

    The per-step check of every flip walk; unlike an ``assert`` it also runs
    under ``python -O``.
    """
    report = validate(tri, config)
    if not report.ok:
        clause, message = report.details[0]
        raise FlipForgeError(f"flip produced an invalid triangulation ({clause}: {message})")


def link_of(tri: Triangulation, face):
    """Maximal elements of the link of ``face``: {max(sigma) - face : face <= sigma}."""
    fs = frozenset(int(v) for v in face)
    if not fs:
        return frozenset(frozenset(s) for s in tri.simplices)
    containing = [frozenset(s) for s in tri.simplices if fs <= set(s)]
    if not containing:
        raise ValueError(f"face {sorted(fs)} is not a face of the triangulation")
    return frozenset(s - fs for s in containing)


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple
    edges: tuple
    adjacency: dict = field(compare=False, repr=False)


def dual_graph(tri: Triangulation) -> DualGraph:
    """One node per maximal simplex; edges join simplices sharing a (d-1)-face."""
    # two simplices share at most one (d-1)-face, so no pair repeats
    pairs = (itertools.combinations(holders, 2) for holders in tri.ridges().values())
    edges = tuple(sorted((a, b) for (a, _), (b, _) in itertools.chain.from_iterable(pairs)))
    adjacency = {i: [] for i in range(len(tri.simplices))}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return DualGraph(nodes=tuple(range(len(tri.simplices))), edges=edges, adjacency=adjacency)


def dual_diameter(tri: Triangulation) -> int:
    """Graph diameter of the dual graph via all-pairs breadth-first search."""
    graph = dual_graph(tri)
    best = 0
    for source in graph.nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) != len(graph.nodes):
            raise ValueError("dual graph is disconnected")
        best = max(best, max(dist.values()))
    return best


def is_fine(tri: Triangulation, config: PointConfig) -> bool:
    """True iff the simplices use every point of the configuration."""
    return tri.vertex_union == frozenset(range(config.n))


def is_star(tri: Triangulation, config: PointConfig, origin_index: int) -> bool:
    """True iff every maximal simplex contains the origin index."""
    if not 0 <= origin_index < config.n:
        raise ValueError(f"origin index {origin_index} out of range")
    return all(origin_index in s for s in tri.simplices)


def regularity_constraints(tri: Triangulation, config: PointConfig):
    """Rows (indexed over config points) whose feasibility w.r.t. >= 1 is regularity.

    One row per interior (d-1)-face: the affine dependence of the two adjacent
    simplices' vertices (``PointConfig.dependence``), scaled so that its first
    nonzero entry in face-then-opposite order is +1, then signed so that the
    opposite vertices are positive.  One row per unused point q: its lift must
    sit strictly above the lifted simplex that contains it, the first in
    simplex order, where its barycentric coordinates are -lam_i / lam_q for
    the dependence lam of the simplex and q.
    """
    rows = []
    simplices = tri.simplices
    for face, holders in sorted(tri.ridges().items()):
        if len(holders) != 2:
            continue
        (a, k_a), (b, k_b) = holders
        ids = face + (simplices[a][k_a], simplices[b][k_b])
        lam = config.dependence(ids)
        if lam[-2] == 0:
            raise AssertionError("fold dependence missing the opposite vertex")
        lead = abs(next(v for v in lam if v))
        scale = lead if lam[-2] > 0 else -lead
        row = [Fraction(0)] * config.n
        for i, coeff in zip(ids, lam):
            row[i] = Fraction(coeff, scale)
        rows.append(row)

    used = tri.vertex_union
    for q in range(config.n):
        if q in used:
            continue
        for s in tri.simplices:
            *lam, lam_q = config.dependence(s + (q,))
            if any(v * lam_q > 0 for v in lam):
                continue  # some barycentric coordinate -v / lam_q is negative
            row = [Fraction(0)] * config.n
            row[q] = Fraction(1)
            for i, v in zip(s, lam):
                row[i] = Fraction(v, lam_q)
            rows.append(row)
            break
        else:
            raise AssertionError(f"point {q} not covered by any simplex")
    return rows


@dataclass(frozen=True)
class RegularityCertificate:
    """Exact evidence for a regularity verdict over ``regularity_constraints`` rows.

    A regular state carries heights w with row . w >= 1 for every row; a
    non-regular one carries multipliers y >= 0, one per row, with
    sum_i y_i row_i = 0 and sum_i y_i > 0, so no heights make every row
    positive (Farkas' lemma).
    """

    regular: bool
    vector: tuple

    def holds(self, rows) -> bool:
        """Exact check of the certificate against a state's constraint rows."""
        ones = [1] * len(rows)
        if self.regular:
            return lp.satisfies(rows, ones, self.vector)
        return lp.is_farkas(rows, ones, self.vector)


def certify_regularity(
    tri: Triangulation, config: PointConfig, certificates: dict | None = None
) -> RegularityCertificate:
    """The regularity oracle: an exactly checked certificate, cached by state key.

    ``certificates`` maps canonical keys to certificates.  A cached one is
    checked again, exactly, against the state's rows, so a stale or corrupted
    entry is never trusted: it is replaced by a fresh LP solve.  Only a state
    without a valid cached certificate costs an LP.
    """
    rows = regularity_constraints(tri, config)
    key = tri.canonical_key
    if certificates is not None:
        cert = certificates.get(key)
        if isinstance(cert, RegularityCertificate) and cert.holds(rows):
            return cert
    if not rows:
        cert = RegularityCertificate(True, tuple(Fraction(0) for _ in range(config.n)))
    else:
        farkas = []
        witness = lp.feasible_point(rows, [Fraction(1)] * len(rows), farkas)
        if witness is None:
            cert = RegularityCertificate(False, tuple(farkas))
        else:
            cert = RegularityCertificate(True, tuple(witness))
    if certificates is not None:
        certificates[key] = cert
    return cert


def height_certificate(rows, heights):
    """Certificate from heights that fold every constraint row, or None if some row fails.

    Checks row . heights > 0 exactly for every row of a state's
    ``regularity_constraints`` and rescales the heights so that the smallest
    fold is 1.  No LP is solved.
    """
    folds = [sum(a * h for a, h in zip(row, heights) if a) for row in rows]
    if any(f <= 0 for f in folds):
        return None
    scale = min(folds, default=Fraction(1))
    return RegularityCertificate(True, tuple(Fraction(h) / scale for h in heights))


def is_regular(tri: Triangulation, config: PointConfig):
    """Decide regularity; returns (flag, witness heights or None).

    Feasibility of the local-folding system at strictness >= 1 is decided by
    :func:`certify_regularity` without a cache.
    """
    cert = certify_regularity(tri, config)
    return cert.regular, (cert.vector if cert.regular else None)


def regular_from_heights(config: PointConfig, heights) -> Triangulation:
    """Project the lower hull of the height lift back to a triangulation.

    Raises :class:`DegenerateHeights` when the lift is flat or some lower
    facet is not a simplex; callers resample heights in that case.
    """
    heights = [Fraction(h) for h in heights]
    if len(heights) != config.n:
        raise ValueError("one height per configuration point required")
    lifted = [tuple(p) + (w,) for p, w in zip(config.points, heights)]
    try:
        lifted_config = PointConfig(config.dim + 1, lifted, is_lattice=False)
    except DegenerateConfig as exc:
        # a flat lift projects to the single cell conv(all points), which is a
        # triangulation exactly when the configuration is itself a simplex
        if config.n == config.dim + 1:
            return Triangulation([tuple(range(config.n))])
        raise DegenerateHeights("flat height lift") from exc
    hull = lifted_config.hull()
    cells = []
    for facet in hull.facets:
        if facet.normal[-1] >= 0:
            continue  # vertical facets never project to cells
        cell = tuple(sorted(facet.vertex_ids))
        if len(cell) != config.dim + 1:
            raise DegenerateHeights(f"lower facet with {len(cell)} vertices is not a simplex")
        cells.append(cell)
    if not cells:
        raise DegenerateHeights("no lower facets")
    return Triangulation(cells)
