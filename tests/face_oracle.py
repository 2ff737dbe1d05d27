"""Oracle for the flip layer's small circuits: the face map they once read.

A state's face map sent every nonempty face of every simplex, maximal
simplices included, to the frozenset of the simplices holding it; a circuit
of fewer than dim+2 points was realized by looking each core up in it and
comparing the cores' links.  ``flippable_circuits`` now reads each core's
link off the state's simplices directly, so this module keeps the face map,
built afresh, and that lookup whole, to check the actions state by state.
``link_of`` reads one face's link off the simplices, for the tests that
compare the links of a circuit's cores.
"""

import functools
import itertools

from flipforge.flips import FlipAction


@functools.lru_cache(maxsize=4096)
def _faces(simplex):
    """Every nonempty face of a simplex, as frozensets; memoized per vertex tuple."""
    return tuple(
        frozenset(face)
        for size in range(1, len(simplex) + 1)
        for face in itertools.combinations(simplex, size)
    )


def face_map(tri):
    """Every nonempty face, maximal simplices included -> frozenset of containing simplices."""
    fm = {}
    for s in tri.simplices:
        added = {frozenset(s)}
        for face in _faces(s):
            fm[face] = fm.get(face, frozenset()) | added
    return fm


def realize(faces, circuit, side):
    """One orientation of a circuit realized from the face map ``faces``, or None."""
    side_cores, other_cores = circuit.cores if side > 0 else circuit.cores[::-1]
    link = None
    for core in side_cores:
        members = faces.get(core)
        if members is None:
            return None
        this_link = frozenset(s - core for s in members)
        if link is None:
            link = this_link
        elif link != this_link:
            return None
    return FlipAction(
        circuit=circuit,
        realized_side=side,
        link=tuple(sorted(tuple(sorted(g)) for g in link)),
        removed=tuple(sorted({tuple(sorted(core | g)) for core in side_cores for g in link})),
        inserted=tuple(sorted({tuple(sorted(core | g)) for core in other_cores for g in link})),
    )


def face_map_actions(tri, table):
    """Both orientations of every circuit of the table realized from a fresh face map,
    in table order; at most one orientation of a circuit may be realized."""
    faces = face_map(tri)
    actions = []
    for circuit in table.circuits:
        found = [a for a in (realize(faces, circuit, s) for s in (1, -1)) if a]
        assert len(found) <= 1, f"both sides of {circuit.vertices} realized"
        actions.extend(found)
    return actions


def link_of(tri, face):
    """Maximal elements of the link of ``face``: {max(sigma) - face : face <= sigma}."""
    fs = frozenset(int(v) for v in face)
    if not fs:
        return frozenset(frozenset(s) for s in tri.simplices)
    containing = [frozenset(s) for s in tri.simplices if fs <= set(s)]
    if not containing:
        raise ValueError(f"face {sorted(fs)} is not a face of the triangulation")
    return frozenset(s - fs for s in containing)
