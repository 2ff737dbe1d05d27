"""The fraction-free elimination kernel against a plain Fraction Gauss-Jordan.

``geometry.rref`` does every exact elimination in the package: ranks,
affine dependences, hull planes, simplex volumes, the exact basis solves of
the LP and the greedy affinely independent subsets; ``null_space`` reads its
kernel bases off it.  The oracle below is the textbook rational Gauss-Jordan
it replaced, and ``oracle_greedy`` the one-rank-per-candidate loop that used
to pick independent subsets.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flipforge import lp
from flipforge.geometry import _homogenized, affine_rank, null_space, rref


def oracle_rref(rows):
    """(reduced row echelon form in Fractions, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def oracle_affine_rank(points):
    if len(points) <= 1:
        return 0
    return len(oracle_rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])[1])


def oracle_greedy(points):
    """Index-order greedy: keep a point when it raises the affine rank."""
    chosen = [0]
    for i in range(1, len(points)):
        if oracle_affine_rank([points[j] for j in chosen] + [points[i]]) == len(chosen):
            chosen.append(i)
    return chosen


small_ints = st.integers(-6, 6)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def matrices(draw):
    """Wide, tall and rank-deficient matrices: rows mix base rows and their combinations."""
    entries = draw(st.sampled_from([small_ints, rationals]))
    ncols = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = draw(st.lists(small_ints, min_size=len(base), max_size=len(base)))
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(base)))
        else:
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=matrices())
def test_rref_matches_fraction_gauss_jordan(rows):
    m, pivots, d = rref(rows)
    expected, expected_pivots = oracle_rref(rows)
    assert pivots == expected_pivots
    assert all(isinstance(v, int) for row in m for v in row)
    for i, col in enumerate(pivots):
        assert m[i][col] == d
    assert all(v == 0 for row in m[len(pivots) :] for v in row)
    assert [[Fraction(v, d) for v in row] for row in m] == expected
    # null_space: one integer kernel vector per non-pivot column
    basis, basis_d = null_space(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    assert basis_d == d and len(basis) == len(free)
    for f, vec in zip(free, basis):
        assert len(vec) == ncols and all(isinstance(v, int) for v in vec)
        # d at its own non-pivot column and 0 at the others: independent, so a basis
        assert [vec[c] for c in free] == [d if c == f else 0 for c in free]
        assert all(sum(Fraction(a) * b for a, b in zip(row, vec)) == 0 for row in rows)


@st.composite
def point_lists(draw):
    """2D-4D points with repeats and points on lines through earlier ones."""
    dim = draw(st.integers(2, 4))
    coord = st.sampled_from([small_ints, rationals])
    entries = draw(coord)
    points = [tuple(draw(st.lists(entries, min_size=dim, max_size=dim)))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "collinear"]))
        if kind == "fresh":
            points.append(tuple(draw(st.lists(entries, min_size=dim, max_size=dim))))
        elif kind == "repeat":
            points.append(draw(st.sampled_from(points)))
        else:
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            t = draw(rationals)
            points.append(tuple(Fraction(a) + t * (b - a) for a, b in zip(p, q)))
    return points


@settings(max_examples=300, deadline=None)
@given(points=point_lists())
def test_pivots_are_the_greedy_independent_subset(points):
    pivots = rref(_homogenized(points))[1]
    assert pivots == oracle_greedy(points)
    assert affine_rank(points) == oracle_affine_rank(points) == len(pivots) - 1


def test_singular_lp_basis_solve_returns_none():
    # basis columns u_0, u_1 (w = u - v): the structural basics need the
    # square system rows[free][structural], here singular
    singular = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    rhs = [Fraction(1), Fraction(1)]
    assert lp._recover_point(singular, rhs, [0, 1]) is None
    assert lp._recover_farkas(singular, rhs, [0, 1]) is None
    regular = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert lp._recover_point(regular, rhs, [0, 1]) == (Fraction(1), Fraction(1, 2))
