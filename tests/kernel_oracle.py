"""Determinant and hyperplane oracles for the elimination kernel.

``geometry.rref`` is the one elimination in the package: hull planes are the
kernel vector of a face's edge vectors ``x_i - x_0`` and simplex volumes its
last pivot.  These are the Bareiss determinant, the cofactor normal and the
kernel of the rows ``(x_i, -1)`` that those routes replaced, and the
``Fraction`` box scan that ``lattice_points``' integer scan replaced, with the
``Fraction`` plane values and containment test it reads.  ``affine_rank`` and
``affine_dependence`` are stand-alone rank and dependence routines; in the
package the constructor's rank check and the minor table's Cramer dependences
serve those needs.
"""

import itertools
import math

from flipforge.geometry import _affine_kernel_basis, _homogenized, make_point, null_space, rref


def affine_rank(points) -> int:
    """Number of affinely independent points minus one equals the span dimension."""
    if len(points) <= 1:
        return 0
    return len(rref(_homogenized([make_point(p) for p in points]))[1]) - 1


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


def facet_value(facet, point):
    """``normal . point - offset``: at most 0 on the hull's side of ``facet``."""
    return sum(n * c for n, c in zip(facet.normal, point)) - facet.offset


def hull_contains(hull, point) -> bool:
    """True iff ``point`` lies on the inner side of every facet of ``hull``."""
    return all(facet_value(f, make_point(point)) <= 0 for f in hull.facets)


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


def _kernel_plane(rows, subset, inside_idx):
    """The primitive plane through ``subset`` as the one kernel vector of the rows
    ``(x_i, -1)``, oriented so ``rows[inside_idx]`` lies on the side <= 0."""
    ((*normal, offset),), _d = null_space([rows[i] + (-1,) for i in subset])
    g = math.gcd(*normal, offset)
    if sum(a * b for a, b in zip(normal, rows[inside_idx])) - offset > 0:
        g = -g
    return tuple(v // g for v in normal), offset // g


def box_scan_lattice_points(config):
    """Every integer point of the bounding box that the hull contains, tested on
    ``Fraction`` points against the ``Fraction`` facets, in lexicographic order."""
    hull = config.hull()
    lo = [min(p[i] for p in config.points) for i in range(config.dim)]
    hi = [max(p[i] for p in config.points) for i in range(config.dim)]
    ranges = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
    out = []
    for cand in itertools.product(*ranges):
        point = make_point(cand)
        if hull_contains(hull, point):
            out.append(point)
    return out
