"""Exact feasibility check for systems A w >= b with free variables.

Floating point only guides: phase 1 of the simplex method with Bland's rule
runs on a float64 numpy tableau and picks a final basis.  From that basis the
basic solution, or for an infeasible system the phase-1 dual vector, is
recovered exactly in Fractions and checked exactly: ``A w >= b`` for a point;
``z >= 0``, ``z^T A = 0``, ``z^T b > 0`` for a Farkas certificate.  Whenever
a check fails, the exact rational phase-1 simplex with Bland's rule decides.
The float path mirrors its pivot rule, with tolerances deciding ties, so
both end in the same basis and return the same point unless rounding changes
a pivot choice; either way the answer is exact.  The systems that show up
here are tiny (a few hundred constraints at most), which is the regime where
a dense tableau wins on simplicity.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import rref

_TOL = 1e-9  # float entries within this of zero count as zero


def feasible_point(rows, rhs, farkas=None):
    """Return w with rows[i] . w >= rhs[i] for all i, or None if infeasible.

    Every answer has passed an exact check.  When the system is infeasible
    and ``farkas`` is a list, it is extended with a certificate z, one
    multiplier per row: z >= 0, sum_i z_i rows[i] = 0, sum_i z_i rhs[i] > 0.
    """
    m = len(rows)
    if m == 0:
        return ()
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(b) for b in rhs]
    point, z = _certified(rows, rhs, *_float_guess(rows, rhs))
    if point is None and z is None:
        point, z = _certified(rows, rhs, *_exact_phase1(rows, rhs))
        if point is None and z is None:
            raise AssertionError("exact phase 1 returned an answer that fails its check")
    if z is not None and farkas is not None:
        farkas.extend(z)
    return point


def satisfies(rows, rhs, w):
    """Exact check that rows[i] . w >= rhs[i] for every i."""
    if any(len(row) != len(w) for row in rows):
        return False
    return all(sum(a * x for a, x in zip(row, w) if a) >= b for row, b in zip(rows, rhs))


def is_farkas(rows, rhs, z):
    """Exact check that z proves rows . w >= rhs infeasible (Farkas' lemma)."""
    if len(z) != len(rows) or any(c < 0 for c in z):
        return False
    if sum(c * b for c, b in zip(z, rhs) if c) <= 0:
        return False
    combination = [Fraction(0)] * len(rows[0])
    for c, row in zip(z, rows):
        if c:
            for j, a in enumerate(row):
                if a:
                    combination[j] += c * a
    return not any(combination)


def _certified(rows, rhs, point, z):
    """(point, None) or (None, z) for whichever candidate passes its exact check."""
    if point is not None and satisfies(rows, rhs, point):
        return point, None
    if z is not None and is_farkas(rows, rhs, z):
        return None, z
    return None, None


def _signs(rhs):
    """Rows with a negative right-hand side are negated so phase 1 starts feasible."""
    return [-1 if b < 0 else 1 for b in rhs]


# Tableau columns, shared by both paths: u (n) | v (n) | surplus (m) |
# artificial (m) | rhs, with w = u - v.  Row i reads
# sign_i (rows[i] . (u - v) - s_i) + a_i = sign_i rhs[i].


def _float_guess(rows, rhs):
    """Candidate (point, None) or (None, z) from a float64 phase 1; (None, None) if it fails."""
    import numpy as np

    m, n = len(rows), len(rows[0])
    nstruct = 2 * n + m
    sign = np.array(_signs(rhs), dtype=float)
    try:
        a = np.array(rows, dtype=float) * sign[:, None]
        b = np.abs(np.array(rhs, dtype=float))
    except OverflowError:
        return None, None  # entries beyond float range: the exact path decides
    # artificial columns are left out: with Bland's rule they never re-enter
    tab = np.zeros((m, nstruct + 1))
    tab[:, :n] = a
    tab[:, n : 2 * n] = -a
    tab[np.arange(m), 2 * n + np.arange(m)] = -sign
    tab[:, -1] = b
    cost = tab.sum(axis=0)
    start = cost[-1]
    basis = np.arange(nstruct, nstruct + m)
    for _pivot_count in range(20 * (m + nstruct)):
        eligible = np.flatnonzero(cost[:nstruct] > _TOL)
        if eligible.size == 0:
            break
        entering = eligible[0]  # Bland: smallest eligible index
        column = tab[:, entering].copy()
        candidates = np.flatnonzero(column > _TOL)
        if candidates.size == 0:
            return None, None  # phase 1 is bounded; float noise
        ratios = tab[candidates, -1] / column[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + _TOL * max(1.0, abs(best))]
        leaving = ties[np.argmin(basis[ties])]  # Bland: smallest basic index
        pivot_row = tab[leaving] / column[leaving]
        tab -= np.outer(column, pivot_row)
        tab[leaving] = pivot_row
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
    else:
        return None, None  # a float run that cycles: the exact path decides
    basis = basis.tolist()
    if cost[-1] <= _TOL * max(1.0, start):
        return _recover_point(rows, rhs, basis), None
    return None, _recover_farkas(rows, rhs, basis)


def _split_basis(basis, m, n):
    """(free rows, structural w-indices, artificial rows) of a basis, or None if singular.

    A basic surplus or artificial column is a unit column and settles its own
    row; the structural basics are fixed by the remaining rows, which must be
    as many as they are.
    """
    settled = set()
    artificial = set()
    structural = []
    for col in basis:
        if col < 2 * n:
            structural.append(col % n)
            continue
        row = (col - 2 * n) % m
        if row in settled:
            return None
        settled.add(row)
        if col >= 2 * n + m:
            artificial.add(row)
    free = [i for i in range(m) if i not in settled]
    if len(free) != len(structural) or len(set(structural)) != len(structural):
        return None
    return free, structural, artificial


def _recover_point(rows, rhs, basis):
    """Exact basic solution w of ``basis``: rows[i] . w = rhs[i] on the free rows."""
    m, n = len(rows), len(rows[0])
    split = _split_basis(basis, m, n)
    if split is None:
        return None
    free, structural, _artificial = split
    reduced, pivots, d = rref([[rows[i][k] for k in structural] + [rhs[i]] for i in free])
    if pivots != list(range(len(free))):
        return None  # singular basis
    w = [Fraction(0)] * n
    for k, row in zip(structural, reduced):
        w[k] = Fraction(row[-1], d)
    return tuple(w)


def _recover_farkas(rows, rhs, basis):
    """Exact phase-1 dual y = c_B B^-1 of ``basis``, mapped back to the original rows.

    An artificial basic column has cost 1, so its row's multiplier is 1; a
    basic surplus column forces 0; the structural basics have cost 0, which
    fixes the multipliers of the free rows.  No negated row keeps a basic
    artificial at the optimum (its surplus would still be eligible), so the
    multipliers need no sign change.
    """
    m, n = len(rows), len(rows[0])
    split = _split_basis(basis, m, n)
    if split is None:
        return None
    free, structural, artificial = split
    z = [Fraction(int(i in artificial)) for i in range(m)]
    target = [-sum(rows[i][k] for i in artificial) for k in structural]
    system = [[rows[i][k] for i in free] + [t] for k, t in zip(structural, target)]
    reduced, pivots, d = rref(system)
    if pivots != list(range(len(free))):
        return None  # singular basis
    for i, row in zip(free, reduced):
        z[i] = Fraction(row[-1], d)
    return tuple(z)


def _exact_phase1(rows, rhs):
    """Rational phase-1 simplex with Bland's rule: (point, None) or (None, z).

    Free variables are split as w = u - v; a surplus column per constraint and
    an all-artificial starting basis make phase 1 well posed, and the phase-1
    optimum is zero exactly when the system is feasible.
    """
    m, n = len(rows), len(rows[0])
    sign = _signs(rhs)
    nstruct = 2 * n + m
    ncols = nstruct + m
    tableau = []
    for i in range(m):
        row = [sign[i] * v for v in rows[i]]
        row = row + [-v for v in row] + [Fraction(0)] * (2 * m) + [sign[i] * rhs[i]]
        row[2 * n + i] = Fraction(-sign[i])
        row[nstruct + i] = Fraction(1)
        tableau.append(row)
    basis = [nstruct + i for i in range(m)]

    # reduced-cost row for minimizing the artificial sum: artificials are
    # basic, so their reduced costs start at zero and stay maintained by pivots
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in list(range(nstruct)) + [ncols]:
            cost[j] += tableau[i][j]

    while True:
        entering = None
        for j in range(nstruct):  # artificials never re-enter
            if cost[j] > 0:
                entering = j  # Bland: smallest eligible index
                break
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 simplex unbounded")
        _pivot(tableau, cost, basis, leaving, entering, ncols)

    if cost[ncols] != 0:
        # the artificial column of row i keeps reduced cost y_i - 1
        return None, tuple(sign[i] * (cost[nstruct + i] + 1) for i in range(m))

    solution = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        solution[b] = tableau[i][ncols]
    return tuple(solution[j] - solution[n + j] for j in range(n)), None


def _pivot(tableau, cost, basis, row, col, ncols):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    pivot_row = tableau[row]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], pivot_row)]
    if cost[col] != 0:
        f = cost[col]
        for j in range(ncols + 1):
            cost[j] -= f * pivot_row[j]
    basis[row] = col
