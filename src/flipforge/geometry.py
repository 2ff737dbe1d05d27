"""Exact rational affine geometry kernel.

Everything here is computed over arbitrary-precision rationals; there are no
epsilons anywhere.  Points are tuples of ``fractions.Fraction``, and all
predicates (orientation, hull membership, affine dependence) reduce to integer
arithmetic after clearing denominators once per operation.

One beneath-beyond (placing) pass per configuration, run on first use and
kept, serves the hull: its simplices are the placing triangulation and sum to
the hull volume, and the distinct planes of its final boundary faces are the
hull facets; a lattice configuration's lattice points are the integer points
of its bounding box on the inner side of those facets' integer planes.  One
Laplace pass of integer minors per configuration, also kept, serves the
simplex determinants and the affine dependences of dim+2 points.  Every
other exact computation is one fraction-free elimination, ``rref``: ranks,
the greedy affinely independent points the placing pass starts from, each
hull plane (through ``null_space``, the kernel vector of its face's edge
vectors x_i - x_0) and stand-alone simplex volumes (the last pivot).

Intended scale: small configurations (a few dozen points) in dimension <= 5,
which covers ambient dimension <= 4 plus one lifting coordinate.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateConfig

Rational = Fraction
Point = tuple  # tuple of Fraction, one entry per coordinate

SNAP_DENOMINATOR = 1 << 20


def left_sum(values) -> float:
    """The floats added left to right, as builtin ``sum`` adds them before Python 3.12,
    whose compensated sum can round differently; outputs read only this one."""
    return functools.reduce(operator.add, values, 0.0)


def make_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


def snap_to_rational(coords, denominator: int = SNAP_DENOMINATOR) -> Point:
    """Round float coordinates onto the fixed power-of-two rational grid.

    Idempotent on its own outputs: grid points are exactly representable as
    floats for the default denominator 2**20.
    """
    out = []
    for x in coords:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite coordinate {x!r}")
        out.append(Fraction(round(x * denominator), denominator))
    return tuple(out)


def _scaled_int_rows(points):
    """Clear denominators: return (integer rows, scale) with row = scale * point."""
    scale = 1
    for p in points:
        for c in p:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    rows = [tuple(int(c * scale) for c in p) for p in points]
    return rows, scale


def rref(rows):
    """Fraction-free Gauss-Jordan elimination: ``(rows, pivots, d)``.

    Each row is first scaled to integers by the lcm of its denominators,
    which leaves the reduced form unchanged.  A pivot step replaces every
    other row by ``(p * m[i][j] - m[i][col] * m[r][j]) // d_prev``; the
    division is exact because every entry stays an integer minor of the
    input (Bareiss 1968).  On return every pivot entry equals ``d``, the
    reduced row echelon form is ``rows[i][j] / d``, rows past the pivots are
    zero, and ``pivots`` lists the pivot columns: the first linearly
    independent columns in index order, so the rank is ``len(pivots)``.
    """
    m = []
    for row in rows:
        scale = math.lcm(*[v.denominator for v in row])
        if scale == 1:
            m.append([v.numerator for v in row])
        else:
            m.append([v.numerator * (scale // v.denominator) for v in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for found in range(r, nrows):
            if m[found][col]:
                break
        else:
            continue
        m[r], m[found] = m[found], m[r]
        top = m[r]
        p = top[col]
        for i in range(nrows):
            if i == r:
                continue
            a = m[i][col]
            if a:
                m[i] = [(p * x - a * y) // d for x, y in zip(m[i], top)]
            elif p != d:
                m[i] = [p * x // d for x in m[i]]
        d = p
        pivots.append(col)
    return m, pivots, d


def null_space(rows, ncols=None):
    """Integer basis of {x : rows . x = 0}, read off ``rref``: ``(basis, d)``.

    One vector per non-pivot column f: ``d`` at f, ``-m[r][f]`` at pivot
    column r and 0 at the other non-pivot columns; over ``d`` these are the
    reduced form's kernel vectors.  ``ncols`` sizes a matrix without rows,
    whose kernel is everything.
    """
    m, pivots, d = rref(rows)
    ncols = len(rows[0]) if rows else ncols
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = d
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis, d


def _prefix_minors(homogeneous, size):
    """``levels[k - 1][S]``: each k-subset S's minor on the first k columns, k = 1..size.

    One Laplace pass: a (c+1)-subset's minor expands along column c into
    the signed c-subset minors of the previous level.
    """
    n = len(homogeneous)
    level = {(i,): homogeneous[i][0] for i in range(n)}
    levels = [level]
    for c in range(1, size):
        prev, level = level, {}
        for subset in itertools.combinations(range(n), c + 1):
            det, sign = 0, (-1) ** c
            for t, v in enumerate(subset):
                entry = homogeneous[v][c]
                if entry:
                    det += sign * entry * prev[subset[:t] + subset[t + 1 :]]
                sign = -sign
            level[subset] = det
        levels.append(level)
    return levels


def _homogenized(points):
    """Point coordinates as columns over a row of ones.

    Column dependences of this matrix are exactly the affine dependences of
    the points, and its pivot columns are the greedy affinely independent
    subset in index order.
    """
    return [[p[i] for p in points] for i in range(len(points[0]))] + [[1] * len(points)]


def affine_rank(points) -> int:
    """Number of affinely independent points minus one equals the span dimension."""
    if len(points) <= 1:
        return 0
    return len(rref(_homogenized([make_point(p) for p in points]))[1]) - 1


def _affine_kernel_basis(points):
    """Basis of {lam : sum lam_i p_i = 0, sum lam_i = 0}, as Fraction tuples."""
    basis, d = null_space(_homogenized(points))
    return [tuple(Fraction(v, d) for v in vec) for vec in basis]


def _normalize_dependence(vec):
    """Scale so the first nonzero entry is +1."""
    for v in vec:
        if v != 0:
            return tuple(x / v for x in vec)
    raise ValueError("zero dependence vector")


def affine_dependence(points):
    """Return a nonzero affine dependence of the points, or None if independent.

    The result lam satisfies sum(lam_i * p_i) == 0 and sum(lam_i) == 0 exactly,
    normalized so its first nonzero entry is +1.  When the input is a circuit
    the dependence is unique up to scaling and has full support.
    """
    dims = {len(p) for p in points}
    if len(dims) != 1:
        raise ValueError("dimension mismatch among points")
    basis = _affine_kernel_basis([make_point(p) for p in points])
    if not basis:
        return None
    return _normalize_dependence(basis[0])


def dependence_kernel(points):
    """All affine dependences of the points (basis); used for circuit detection."""
    return _affine_kernel_basis([make_point(p) for p in points])


@dataclass(frozen=True)
class HullFacet:
    """Supporting halfspace of the hull: normal . p <= offset for every point.

    ``vertex_ids`` holds every configuration point lying on the hyperplane, not
    only the extreme ones, so boundary-face tests are a subset check.
    """

    normal: tuple
    offset: Fraction
    vertex_ids: frozenset

    def value(self, point) -> Fraction:
        return sum(n * c for n, c in zip(self.normal, point)) - self.offset


@dataclass(frozen=True)
class HullResult:
    facets: tuple

    @functools.cached_property
    def extreme(self) -> frozenset:
        """Indices of the vertices: points whose tight facet normals span the space."""
        dim = len(self.facets[0].normal)
        on_boundary = set().union(*(f.vertex_ids for f in self.facets))
        return frozenset(
            i
            for i in on_boundary
            if len(rref([f.normal for f in self.facets if i in f.vertex_ids])[1]) == dim
        )

    def contains(self, point) -> bool:
        return all(f.value(make_point(point)) <= 0 for f in self.facets)


class PointConfig:
    """Labeled exact-rational point set affinely spanning its dimension.

    Indices into ``points`` are stable vertex labels for the lifetime of a run.
    """

    def __init__(self, dim, points, is_lattice=None):
        self.dim = int(dim)
        self.points = tuple(make_point(p) for p in points)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
        if len(self.points) < self.dim + 1:
            raise DegenerateConfig("need at least dim+1 points")
        # the greedy affinely independent subset: the placing pass starts from it
        self._start = tuple(rref(_homogenized(self.points))[1])
        if len(self._start) < self.dim + 1:
            raise DegenerateConfig("points do not span the full dimension")
        integral = all(c.denominator == 1 for p in self.points for c in p)
        if is_lattice is None:
            is_lattice = integral
        elif is_lattice and not integral:
            raise ValueError("is_lattice=True but coordinates are not integral")
        self.is_lattice = bool(is_lattice)
        self._placing = None
        self._hull = None
        self._int_rows = None
        self._float_rows = None
        self._edge_lengths = None
        self._prefix_minors = None

    def __eq__(self, other):
        return (
            isinstance(other, PointConfig)
            and self.dim == other.dim
            and self.points == other.points
            and self.is_lattice == other.is_lattice
        )

    def __hash__(self):
        return hash((self.dim, self.points, self.is_lattice))

    def __repr__(self):
        return f"PointConfig(dim={self.dim}, n={len(self.points)}, lattice={self.is_lattice})"

    @property
    def n(self):
        return len(self.points)

    def int_rows(self):
        if self._int_rows is None:
            self._int_rows = _scaled_int_rows(self.points)
        return self._int_rows

    def float_rows(self) -> np.ndarray:
        """The points as a read-only (n, dim) float64 array, converted once."""
        if self._float_rows is None:
            import numpy as np

            self._float_rows = np.array([[float(c) for c in p] for p in self.points])
            self._float_rows.flags.writeable = False
        return self._float_rows

    def edge_lengths(self) -> dict:
        """Edge (i, j), i < j -> Euclidean length, in double precision from the exact
        coordinates; every pair, computed once."""
        if self._edge_lengths is None:
            self._edge_lengths = {
                (i, j): math.sqrt(left_sum(float(x - y) ** 2 for x, y in zip(a, b)))
                for (i, a), (j, b) in itertools.combinations(enumerate(self.points), 2)
            }
        return self._edge_lengths

    def prefix_minors(self):
        """``_prefix_minors`` of the homogenized rows (1, x) in ``int_rows`` units, up to
        the maximal minors (the last level); computed once."""
        if self._prefix_minors is None:
            rows, _scale = self.int_rows()
            self._prefix_minors = _prefix_minors([(1,) + r for r in rows], self.dim + 1)
        return self._prefix_minors

    def simplex_det(self, simplex) -> int:
        """Signed det[x_i - x_s0] of a sorted simplex's edge vectors in ``int_rows`` units,
        its maximal minor; its normalized volume is ``|det| / (scale**dim * dim!)``."""
        return self.prefix_minors()[-1][simplex]

    def dependence(self, ids) -> tuple:
        """Affine dependence of dim+2 points in ``ids`` order, by Cramer's rule over the
        sorted ids Z: lam_j = (-1)^j det(Z - Z_j), zero iff the points do not span."""
        z = tuple(sorted(ids))
        minors = self.prefix_minors()[-1]
        lam = [minors[z[:j] + z[j + 1 :]] for j in range(len(z))]
        lam[1::2] = [-v for v in lam[1::2]]
        if z != ids:
            by_id = dict(zip(z, lam))
            lam = [by_id[v] for v in ids]
        return tuple(lam)

    def placing(self):
        """The beneath-beyond pass ``(simplices, boundary)``, run once; see ``_beneath_beyond``."""
        if self._placing is None:
            self._placing = _beneath_beyond(self)
        return self._placing

    def hull(self) -> HullResult:
        if self._hull is None:
            self._hull = convex_hull(self)
        return self._hull

    def volume(self, simplices) -> Fraction:
        """Summed normalized volume of ``simplices``: sum |simplex_det| / (scale**dim * dim!)."""
        _rows, scale = self.int_rows()
        det_sum = sum(abs(self.simplex_det(s)) for s in simplices)
        return Fraction(det_sum, scale**self.dim * math.factorial(self.dim))

    def hull_volume(self) -> Fraction:
        """Normalized volume of the hull: the volume of the placing pass's simplices."""
        return self.volume(self.placing()[0])


def simplex_volume(vertices) -> Fraction:
    """Normalized volume |det| / d! of a d-simplex given its d+1 vertices."""
    pts = [make_point(p) for p in vertices]
    dim = len(pts[0])
    if len(pts) != dim + 1:
        raise ValueError(f"expected {dim + 1} vertices, got {len(pts)}")
    rows, scale = _scaled_int_rows(pts)
    _m, pivots, d = rref([[a - b for a, b in zip(r, rows[0])] for r in rows[1:]])
    det = abs(d) if len(pivots) == dim else 0  # the last pivot of a full-rank square matrix
    return Fraction(det, scale**dim * math.factorial(dim))


def convex_hull(config: PointConfig) -> HullResult:
    """Exact facets, read off the placing pass's final boundary.

    The boundary faces triangulate the hull's boundary, so the facets are
    their distinct planes.  Non-simplicial facets are fine: a facet is stored
    as the set of all point indices on its hyperplane.  ``extreme`` follows
    from the facets on demand.
    """
    rows, scale = config.int_rows()
    out = []
    for normal, offset in set(config.placing()[1].values()):
        values = [_plane_value((normal, offset), row) for row in rows]
        if max(values) > 0:  # an exact support check over every point
            raise AssertionError("hull invariant violated")
        out.append(
            HullFacet(
                normal=tuple(Fraction(v) for v in normal),
                offset=Fraction(offset, scale),
                vertex_ids=frozenset(i for i, v in enumerate(values) if v == 0),
            )
        )
    out.sort(key=lambda f: (f.normal, f.offset))
    return HullResult(facets=tuple(out))


def _plane_value(plane, row):
    normal, offset = plane
    return sum(a * b for a, b in zip(normal, row)) - offset


def _oriented_plane(rows, subset, inside_idx):
    """Primitive plane through ``subset``, oriented so ``inside_idx`` lies on the side <= 0.

    The normal is the one kernel vector of the dim-1 edge vectors x_i - x_0,
    and ``offset = normal . x_0``.
    """
    base = rows[subset[0]]
    edges = [[a - b for a, b in zip(rows[i], base)] for i in subset[1:]]
    (normal,), _d = null_space(edges, len(base))
    offset = sum(a * b for a, b in zip(normal, base))
    g = math.gcd(*normal, offset)
    if _plane_value((normal, offset), rows[inside_idx]) > 0:
        g = -g
    return tuple(v // g for v in normal), offset // g


def _beneath_beyond(config: PointConfig):
    """Placing pass over the points in index order: ``(simplices, boundary)``.

    Starts from the first dim+1 affinely independent points.  A point beyond
    some boundary faces is coned to each of them; a point beyond none (inside,
    or on the boundary) adds nothing, so no flat simplex appears.
    ``boundary`` maps each (d-1)-face of the final boundary (a sorted tuple of
    dim ids) to its primitive plane ``(normal, offset)`` in ``int_rows``
    units, oriented so the hull lies on the side <= 0.
    """
    rows, _scale = config.int_rows()
    dim = config.dim
    start = config._start
    simplices = [start]
    boundary = {}
    for k in range(dim + 1):
        face = start[:k] + start[k + 1 :]
        boundary[face] = _oriented_plane(rows, face, start[k])
    started = set(start)
    for p in range(len(rows)):
        if p in started:
            continue
        beyond = [face for face, plane in boundary.items() if _plane_value(plane, rows[p]) > 0]
        # the new faces are ridge + p, one per ridge of a face p sees; a ridge
        # of two such faces is interior, so only the rest get a plane
        cone = {}  # new face -> the vertex of its beyond face opposite it
        for face in beyond:
            del boundary[face]
            simplices.append(tuple(sorted(face + (p,))))
            for k in range(dim):
                new = tuple(sorted(face[:k] + face[k + 1 :] + (p,)))
                if cone.pop(new, None) is None:
                    cone[new] = face[k]
        for new, opp in cone.items():
            boundary[new] = _oriented_plane(rows, new, opp)
    return simplices, boundary


def placing_triangulation(config: PointConfig):
    """Beneath-beyond triangulation of the hull, processing points in index order.

    Deterministic, exact, and valid for degenerate inputs.  Used as the
    reference volume decomposition and as a deterministic seed.
    """
    return list(config.placing()[0])


def lattice_points(config: PointConfig):
    """All integer points inside or on the hull, in lexicographic order.

    The bounding box is scanned in integers against the hull's facets in the
    units ``convex_hull`` computed them in (a lattice configuration's
    ``int_rows`` are its points, so each facet is a primitive integer normal
    and offset); only the accepted points become ``Fraction`` points.
    """
    if not config.is_lattice:
        raise ValueError("lattice_points requires a lattice configuration")
    planes = [(tuple(map(int, f.normal)), int(f.offset)) for f in config.hull().facets]
    rows, _scale = config.int_rows()
    ranges = [range(min(col), max(col) + 1) for col in zip(*rows)]
    return [
        make_point(cand)
        for cand in itertools.product(*ranges)
        if all(_plane_value(plane, cand) <= 0 for plane in planes)
    ]
