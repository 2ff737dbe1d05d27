"""Exact rational affine geometry kernel.

Everything here is computed over arbitrary-precision rationals; there are no
epsilons anywhere.  Points are tuples of ``fractions.Fraction``, and all
predicates (orientation, hull membership, affine dependence) reduce to integer
arithmetic after clearing denominators once per operation.

Intended scale: small configurations (a few dozen points) in dimension <= 5,
which covers ambient dimension <= 4 plus one lifting coordinate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateConfig

Rational = Fraction
Point = tuple  # tuple of Fraction, one entry per coordinate

SNAP_DENOMINATOR = 1 << 20


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


def _int_det(rows):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
        m.append([v.numerator * (scale // v.denominator) for v in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    d = 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        found = next((i for i in range(r, nrows) if m[i][col]), None)
        if found is None:
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
    k = len(points)
    m, pivots, d = rref(_homogenized(points))
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * k
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = Fraction(-m[ri][fc], d)
        basis.append(tuple(vec))
    return basis


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


def _primitive(normal, offset):
    g = 0
    for v in list(normal) + [offset]:
        g = math.gcd(g, abs(v))
    if g > 1:
        normal = tuple(v // g for v in normal)
        offset = offset // g
    return normal, offset


def _hyperplane_from_basis(rows, dim):
    """Normal of the hyperplane spanned by dim affinely independent int rows."""
    base = rows[0]
    vecs = [[r[i] - base[i] for i in range(dim)] for r in rows[1:]]
    normal = []
    for i in range(dim):
        minor = [[v[j] for j in range(dim) if j != i] for v in vecs]
        normal.append((-1) ** i * _int_det(minor))
    if all(v == 0 for v in normal):
        return None
    offset = sum(n * c for n, c in zip(normal, base))
    return tuple(normal), offset


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
        if affine_rank(list(self.points)) < self.dim:
            raise DegenerateConfig("points do not span the full dimension")
        integral = all(c.denominator == 1 for p in self.points for c in p)
        if is_lattice is None:
            is_lattice = integral
        elif is_lattice and not integral:
            raise ValueError("is_lattice=True but coordinates are not integral")
        self.is_lattice = bool(is_lattice)
        self._hull = None
        self._hull_volume = None
        self._int_rows = None
        self._float_rows = None
        self._dets = {}  # simplex -> simplex_det, filled as walks meet simplices

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

    def simplex_det(self, simplex) -> int:
        """Signed determinant of a simplex's edge vectors in ``int_rows`` units.

        ``simplex`` is a sorted vertex tuple.  The simplex's normalized volume
        is ``|det| / (scale**dim * dim!)``.  Values are kept: a flip walk
        meets each simplex many times (validation, the policy's orientations).
        """
        det = self._dets.get(simplex)
        if det is None:
            rows, _scale = self.int_rows()
            base = rows[simplex[0]]
            det = _int_det([[a - b for a, b in zip(rows[v], base)] for v in simplex[1:]])
            self._dets[simplex] = det
        return det

    def hull(self) -> HullResult:
        if self._hull is None:
            self._hull = convex_hull(self)
        return self._hull

    def hull_volume(self) -> Fraction:
        """Normalized volume of the hull, via the placing triangulation."""
        if self._hull_volume is None:
            total = Fraction(0)
            for simplex in placing_triangulation(self):
                total += simplex_volume([self.points[i] for i in simplex])
            self._hull_volume = total
        return self._hull_volume


def simplex_volume(vertices) -> Fraction:
    """Normalized volume |det| / d! of a d-simplex given its d+1 vertices."""
    pts = [make_point(p) for p in vertices]
    dim = len(pts[0])
    if len(pts) != dim + 1:
        raise ValueError(f"expected {dim + 1} vertices, got {len(pts)}")
    rows, scale = _scaled_int_rows(pts)
    base = rows[0]
    mat = [[r[i] - base[i] for i in range(dim)] for r in rows[1:]]
    det = _int_det(mat)
    return Fraction(abs(det), scale**dim * math.factorial(dim))


def convex_hull(config: PointConfig) -> HullResult:
    """Exact facets by incremental insertion; ``extreme`` follows from them on demand.

    Non-simplicial facets are fine: a facet is stored as the set of all point
    indices on its hyperplane.  New facets after every insertion are generated
    from horizon ridges (intersections of a destroyed and a kept facet that
    span a (d-2)-flat) and verified exactly before being accepted.
    """
    rows, scale = config.int_rows()
    dim = config.dim
    n = len(rows)

    start = rref(_homogenized(rows))[1]  # greedy: the first dim+1 independent points
    processed = list(start)
    facets = {}  # (normal, offset) -> set of point ids on the hyperplane
    for subset in itertools.combinations(start, dim):
        plane = _oriented_plane(rows, subset, [i for i in start if i not in subset][0])
        facets[plane] = {i for i in processed if _plane_value(plane, rows[i]) == 0}

    for p in range(n):
        if p in start:
            continue
        values = {plane: _plane_value(plane, rows[p]) for plane in facets}
        visible = [plane for plane, v in values.items() if v > 0]
        if not visible:
            for plane, v in values.items():
                if v == 0:
                    facets[plane].add(p)
            processed.append(p)
            continue
        kept = {plane: ids for plane, ids in facets.items() if values[plane] <= 0}
        candidates = set()
        for vplane in visible:
            vids = facets[vplane]
            for kplane, kids in kept.items():
                ridge = vids & kids
                if len(ridge) < dim - 1:
                    continue
                span = [rows[i] for i in sorted(ridge)] + [rows[p]]
                if len(ridge) > dim - 1:
                    pivots = rref(_homogenized(span))[1]
                    if len(pivots) != dim or pivots[-1] != len(ridge):
                        # the ridge must span a (d-2)-flat that p genuinely extends
                        continue
                    span = [span[i] for i in pivots]
                # with exactly dim - 1 ridge points, a dependent span has no normal
                plane = _hyperplane_from_basis(span, dim)
                if plane is None:
                    continue
                candidates.add(plane)
        processed.append(p)
        new_facets = dict(kept)
        for plane, ids in kept.items():
            if values[plane] == 0:
                new_facets[plane] = ids | {p}
        for normal, offset in candidates:
            plane = _orient_supporting(normal, offset, rows, processed)
            if plane is None or plane in new_facets:
                continue
            new_facets[plane] = {
                i for i in processed if _plane_value(plane, rows[i]) == 0
            }
        facets = new_facets

    # final pass: full vertex sets and an exact support check
    out = []
    for (normal, offset), _ids in sorted(facets.items()):
        ids = set()
        for i in range(n):
            v = _plane_value((normal, offset), rows[i])
            if v > 0:
                raise AssertionError("hull invariant violated")
            if v == 0:
                ids.add(i)
        nrm, off = _primitive(normal, offset)
        out.append(
            HullFacet(
                normal=tuple(Fraction(v) for v in nrm),
                offset=Fraction(off, scale),
                vertex_ids=frozenset(ids),
            )
        )
    out.sort(key=lambda f: (f.normal, f.offset))
    return HullResult(facets=tuple(out))


def _plane_value(plane, row):
    normal, offset = plane
    return sum(a * b for a, b in zip(normal, row)) - offset


def _oriented_plane(rows, subset, inside_idx):
    plane = _hyperplane_from_basis([rows[i] for i in subset], len(rows[0]))
    normal, offset = plane
    v = _plane_value(plane, rows[inside_idx])
    if v > 0:
        normal = tuple(-x for x in normal)
        offset = -offset
    return _primitive(normal, offset)


def _orient_supporting(normal, offset, rows, ids):
    """Orient (or reject) a candidate hyperplane so every row satisfies <= 0."""
    pos = neg = False
    for i in ids:
        v = _plane_value((normal, offset), rows[i])
        if v > 0:
            pos = True
        elif v < 0:
            neg = True
        if pos and neg:
            return None
    if pos:
        normal = tuple(-x for x in normal)
        offset = -offset
    return _primitive(normal, offset)


def placing_triangulation(config: PointConfig):
    """Beneath-beyond triangulation of the hull, processing points in index order.

    Deterministic, exact, and valid for degenerate inputs: a point coplanar
    with a boundary face adds no flat simplex; interior points add nothing.
    Used as the reference volume decomposition and as a deterministic seed.
    """
    rows, _scale = config.int_rows()
    dim = config.dim
    start = rref(_homogenized(rows))[1]  # greedy: the first dim+1 independent points
    simplices = [tuple(sorted(start))]
    boundary = {}  # face (sorted tuple of dim ids) -> (plane oriented inside<=0)
    for face in itertools.combinations(simplices[0], dim):
        opp = [i for i in simplices[0] if i not in face][0]
        boundary[face] = _oriented_plane(rows, face, opp)

    for p in range(len(rows)):
        if p in start:
            continue
        beyond = [
            face for face, plane in boundary.items() if _plane_value(plane, rows[p]) > 0
        ]
        for face in beyond:
            simplex = tuple(sorted(face + (p,)))
            simplices.append(simplex)
            for sub in itertools.combinations(simplex, dim):
                opp = [i for i in simplex if i not in sub][0]
                if sub in boundary:
                    del boundary[sub]
                else:
                    boundary[sub] = _oriented_plane(rows, sub, opp)
    return simplices


def lattice_points(config: PointConfig):
    """All integer points inside or on the hull, in lexicographic order."""
    if not config.is_lattice:
        raise ValueError("lattice_points requires a lattice configuration")
    hull = config.hull()
    lo = [min(p[i] for p in config.points) for i in range(config.dim)]
    hi = [max(p[i] for p in config.points) for i in range(config.dim)]
    ranges = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
    out = []
    for cand in itertools.product(*ranges):
        point = make_point(cand)
        if hull.contains(point):
            out.append(point)
    return out
