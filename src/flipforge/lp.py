"""Exact feasibility check for systems A w >= b with free variables.

One phase 1 of the simplex method with Bland's rule picks a final basis.
From that basis the basic solution, or for an infeasible system the phase-1
dual vector, is recovered exactly in Fractions and checked exactly:
``A w >= b`` for a point; ``z >= 0``, ``z^T A = 0``, ``z^T b > 0`` for a
Farkas certificate.  Phase 1 runs on float64 first, where floating point
only guides; only when that answer fails its exact check does the same
phase 1 run again in Fractions, and its answer is the exact one.  The
systems that show up here are tiny (a few hundred constraints at most),
which is the regime where a dense tableau wins on simplicity.
"""

from __future__ import annotations

import itertools
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
    for exact in (False, True):
        point, z = _certified(rows, rhs, *_phase1(rows, rhs, exact))
        if point is not None or z is not None:
            break
    else:
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


# Tableau columns: u (n) | v (n) | surplus (m) | rhs, with w = u - v.  Row i
# reads sign_i (rows[i] . (u - v) - s_i) + a_i = sign_i rhs[i], where sign_i
# negates a row with a negative right-hand side so the artificial basis
# starts feasible; the artificial columns a are left out: with Bland's rule
# they never re-enter.


def _phase1(rows, rhs, exact):
    """Candidate (point, None) or (None, z) from phase 1; (None, None) if the float pass fails.

    The float pass runs on float64 with ``_TOL`` deciding zeros and ties and a
    pivot cap; the exact pass runs the same pivots on Fractions, compares
    with zero itself, and needs no cap, since exact Bland's rule terminates.
    """
    import numpy as np

    m, n = len(rows), len(rows[0])
    nstruct = 2 * n + m
    if exact:  # every entry a Fraction: an int/int division would make a float
        dtype, one, tol, pivots = object, Fraction(1), 0, itertools.count()
    else:
        dtype, one, tol, pivots = float, 1.0, _TOL, range(20 * (m + nstruct))
    sign = np.array([-one if b < 0 else one for b in rhs], dtype=dtype)
    try:
        a = np.array(rows, dtype=dtype) * sign[:, None]
        b = np.abs(np.array(rhs, dtype=dtype))
    except OverflowError:
        return None, None  # entries beyond float range: the exact pass decides
    tab = np.full((m, nstruct + 1), one - one, dtype=dtype)
    tab[:, :n] = a
    tab[:, n : 2 * n] = -a
    tab[np.arange(m), 2 * n + np.arange(m)] = -sign
    tab[:, -1] = b
    cost = tab.sum(axis=0)
    start = cost[-1]
    basis = np.arange(nstruct, nstruct + m)
    for _pivot_count in pivots:
        eligible = np.flatnonzero(cost[:nstruct] > tol)
        if eligible.size == 0:
            break
        entering = eligible[0]  # Bland: smallest eligible index
        column = tab[:, entering].copy()
        candidates = np.flatnonzero(column > tol)
        if candidates.size == 0:
            return None, None  # phase 1 is bounded; float noise
        ratios = tab[candidates, -1] / column[candidates]
        best = ratios.min()
        # with tol the int 0, the bound is best itself, still a Fraction
        ties = candidates[ratios <= best + tol * max(1, abs(best))]
        leaving = ties[np.argmin(basis[ties])]  # Bland: smallest basic index
        pivot_row = tab[leaving] / column[leaving]
        tab -= np.outer(column, pivot_row)
        tab[leaving] = pivot_row
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
    else:
        return None, None  # a float run that cycles: the exact pass decides
    basis = basis.tolist()
    if cost[-1] <= tol * max(1, start):
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
