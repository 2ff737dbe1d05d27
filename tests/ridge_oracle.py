"""Oracles for the readers of ``Triangulation.ridges``: the facet maps it replaced.

Each reader once grouped a triangulation's simplices by (d-1)-face on its own:
``boundary_faces`` counted each face's occurrences for ``validate`` and the
star closure, ``dual_graph`` listed the simplex indices holding each face
(its edges now check ``dual_diameter``, which reads the ridge table),
``regularity_constraints`` listed the vertices opposite each face, and
``simplicial_operator`` listed each face's (simplex, sign) pairs and summed
sign products over ordered pairs.  This module keeps those readers whole, so
the ridge table's readers can be checked against them output for output.
"""

import itertools
from fractions import Fraction

import numpy as np

from flipforge.autodiff import SparseMatrix
from flipforge.triangulation import Triangulation, ValidityReport


def boundary_faces(tri):
    """(d-1)-faces together with their occurrence counts."""
    counts = {}
    for s in tri.simplices:
        for face in itertools.combinations(s, len(s) - 1):
            counts[face] = counts.get(face, 0) + 1
    return counts


def validate(tri, config):
    """``validate`` with clauses b and c read off ``boundary_faces``."""
    failures = []
    n = config.n
    ids_ok = all(0 <= v < n for s in tri.simplices for v in s)
    sizes_ok = all(len(s) == config.dim + 1 for s in tri.simplices)
    if not ids_ok or not sizes_ok:
        failures.append(("d", "vertex ids outside the configuration"))
        return ValidityReport(False, tuple(failures))

    volume_sum = config.volume(tri.simplices)
    hull_volume = config.hull_volume()
    if volume_sum != hull_volume:
        failures.append(("a", f"volume sum {volume_sum} != hull volume {hull_volume}"))

    counts = boundary_faces(tri)
    over = [f for f, c in counts.items() if c > 2]
    if over:
        failures.append(("b", f"face {over[0]} occurs more than twice"))

    facets = config.hull().facets
    for face, c in counts.items():
        if c != 1:
            continue
        fs = set(face)
        if not any(fs <= facet.vertex_ids for facet in facets):
            failures.append(("c", f"once-only face {face} not on the hull boundary"))
            break

    degenerate = next((s for s in tri.simplices if config.simplex_det(s) == 0), None)
    if degenerate is not None:
        failures.append(("e", f"degenerate simplex {degenerate}"))

    if failures:
        failures.sort(key=lambda item: item[0])
        return ValidityReport(False, tuple(failures))
    return ValidityReport(True)


def cone_over_boundary(tri, origin):
    """The star closure's state: every once-only face of ``boundary_faces`` coned from ``origin``."""
    return Triangulation(
        face + (origin,) for face, count in boundary_faces(tri).items() if count == 1
    )


def dual_graph(tri):
    """The sorted edges (a, b), a < b, of the dual graph: one node per maximal
    simplex, and an edge between simplices sharing a (d-1)-face."""
    face_to = {}
    for idx, s in enumerate(tri.simplices):
        for face in itertools.combinations(s, len(s) - 1):
            face_to.setdefault(face, []).append(idx)
    edges = set()
    for members in face_to.values():
        for a, b in itertools.combinations(members, 2):
            edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def regularity_constraints(tri, config):
    """``regularity_constraints`` with the fold ends grouped by face in their own map."""
    rows = []
    opposite = {}  # (d-1)-face -> vertices opposite it, in simplex order
    for s in tri.simplices:
        for k in range(len(s)):
            opposite.setdefault(s[:k] + s[k + 1 :], []).append(s[k])
    for face, ends in sorted(opposite.items()):
        if len(ends) != 2:
            continue
        ids = face + tuple(ends)
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
                continue
            row = [Fraction(0)] * config.n
            row[q] = Fraction(1)
            for i, v in zip(s, lam):
                row[i] = Fraction(v, lam_q)
            rows.append(row)
            break
        else:
            raise AssertionError(f"point {q} not covered by any simplex")
    return rows


def simplicial_operator(tri, config):
    """The policy's scaled Laplacian of ``tri``, each facet's signed holders in their own map."""
    entries = {}
    by_facet = {}
    for col, s in enumerate(tri.simplices):
        orient = 1.0 if config.simplex_det(s) > 0 else -1.0
        entries[(col, col)] = float(len(s))
        for pos in range(len(s)):
            by_facet.setdefault(s[:pos] + s[pos + 1 :], []).append((col, orient * (-1.0) ** pos))
    for members in by_facet.values():
        for (a, sign_a), (b, sign_b) in itertools.permutations(members, 2):
            entries[(a, b)] = entries.get((a, b), 0.0) + sign_a * sign_b
    keys = sorted(k for k, v in entries.items() if v != 0.0)
    rows, cols = np.array(keys, dtype=np.int64).T
    vals = np.array([entries[k] for k in keys])
    size = len(tri.simplices)
    scale = np.bincount(rows, weights=np.abs(vals), minlength=size).max()
    return SparseMatrix.from_coo(rows, cols, vals / scale, (size, size))
