"""Determinant and hyperplane oracles for the elimination kernel.

``geometry.rref`` is the one elimination in the package: hull planes are the
kernel vector of a face's edge vectors ``x_i - x_0`` and simplex volumes its
last pivot.  These are the Bareiss determinant, the cofactor normal and the
kernel of the rows ``(x_i, -1)`` that those routes replaced, and the
``Fraction`` box scan that ``lattice_points``' integer scan replaced.
"""

import itertools
import math

from flipforge.geometry import make_point, null_space


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
        if hull.contains(point):
            out.append(point)
    return out
