"""Oracle for ``frst.star_closure``: the star closure by lifted hulls.

The origin is sunk one unit below every lower-facet plane of the other
points' lift, and the closed state is read off the lower hull of the sunk
lift.  Degenerate retries jitter the non-origin heights deterministically
(bounded at 10 attempts).  The sampler cones the boundary instead, with no
hull and no LP; this is the slow path it must agree with.

The module also keeps the Fraction eliminations for affine and barycentric
coordinates, which the regularity rows' unused-point placement must match.
"""

from fractions import Fraction

from flipforge.errors import DegenerateConfig, DegenerateHeights, FlipForgeError
from flipforge.geometry import PointConfig, _homogenized, make_point, rref
from flipforge.triangulation import (
    certify_regularity,
    height_certificate,
    is_fine,
    is_star,
    regular_from_heights,
    regularity_constraints,
)


def _barycentric(point, simplex_points):
    """Affine coordinates of ``point`` in the simplex, or None if outside."""
    lam = _affine_coordinates(point, simplex_points)
    if lam is None or any(c < 0 for c in lam):
        return None
    return lam


def _affine_coordinates(point, simplex_points):
    """Affine coordinates of ``point`` over the points, or None off their affine hull."""
    k = len(simplex_points)
    target = list(point) + [1]
    m, pivots, d = rref([row + [t] for row, t in zip(_homogenized(simplex_points), target)])
    if pivots and pivots[-1] == k:
        return None  # inconsistent: point outside the affine hull
    lam = [Fraction(0)] * k
    for ri, col in enumerate(pivots):
        lam[col] = Fraction(m[ri][k], d)
    return tuple(lam)


def hull_star_closure(tri, lattice, witness=None):
    """Sink the origin until every lower facet of the recomputed lift holds it.

    Returns the closed triangulation and the certificate of its sunk heights.
    """
    config = lattice.config
    origin = lattice.origin_index
    if witness is None:
        cert = certify_regularity(tri, config)
        if not cert.regular:
            raise ValueError("star closure requires a regular input")
        witness = cert.vector
    heights = [Fraction(h) for h in witness]

    for attempt in range(10):
        others = [p for i, p in enumerate(config.points) if i != origin]
        other_heights = [h for i, h in enumerate(heights) if i != origin]
        rest = PointConfig(config.dim, others, is_lattice=False)
        bound = min(lower_facet_values_at(rest, other_heights, config.points[origin]))
        sunk = list(heights)
        sunk[origin] = bound - 1
        try:
            closed = regular_from_heights(config, sunk)
        except DegenerateHeights:
            closed = None
        if (
            closed is not None
            and is_fine(closed, config)
            and is_star(closed, config, origin)
            and (cert := height_certificate(regularity_constraints(closed, config), sunk))
            is not None
        ):
            return closed, cert
        bump = Fraction(1, 10 ** (9 + attempt))
        heights = [h + (bump * (i + 1) if i != origin else 0) for i, h in enumerate(heights)]
    raise FlipForgeError("star closure failed after 10 height perturbations")


def lower_facet_values_at(config: PointConfig, heights, point):
    """Values at ``point`` of every lower-hull facet plane of the height lift."""
    heights = [Fraction(h) for h in heights]
    point = make_point(point)
    lifted = [tuple(p) + (w,) for p, w in zip(config.points, heights)]
    try:
        lifted_config = PointConfig(config.dim + 1, lifted, is_lattice=False)
    except DegenerateConfig:
        # flat lift: the heights are an affine function of the coordinates and
        # the whole configuration is the single lower facet
        return [_affine_height_at(config, heights, point)]
    values = []
    for facet in lifted_config.hull().facets:
        if facet.normal[-1] >= 0:
            continue
        # solve normal . (point, z) = offset for z
        partial = sum(n * c for n, c in zip(facet.normal[:-1], point))
        values.append((facet.offset - partial) / facet.normal[-1])
    if not values:
        raise DegenerateHeights("no lower facets")
    return values


def lower_envelope_value(config: PointConfig, heights, point):
    """Exact lower-envelope value at ``point``: the max of the facet planes."""
    return max(lower_facet_values_at(config, heights, point))


def _affine_height_at(config: PointConfig, heights, point):
    """Evaluate the affine function through a flat lift at ``point``."""
    base = rref(_homogenized(config.points))[1]
    coords = _affine_coordinates(point, [config.points[i] for i in base])
    if coords is None:
        raise DegenerateHeights("point outside the affine hull of a flat lift")
    return sum(c * heights[i] for c, i in zip(coords, base))
