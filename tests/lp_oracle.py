"""Oracle for ``lp``'s phase 1: the rational simplex that once was its fallback.

``exact_phase1`` runs phase 1 with Bland's rule on a list-of-lists Fraction
tableau that keeps the artificial columns, and reads the point off the final
tableau and the Farkas vector off the artificials' reduced costs.
``lp._phase1`` now serves both passes from one tableau code, float64 first
and Fractions when the float answer fails its exact check, and recovers both
answers from the final basis; the tests compare its exact pass with this one.
"""

from fractions import Fraction


def exact_phase1(rows, rhs):
    """Rational phase-1 simplex with Bland's rule: (point, None) or (None, z).

    Free variables are split as w = u - v; a surplus column per constraint and
    an all-artificial starting basis make phase 1 well posed, and the phase-1
    optimum is zero exactly when the system is feasible.
    """
    m, n = len(rows), len(rows[0])
    sign = [-1 if b < 0 else 1 for b in rhs]
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
