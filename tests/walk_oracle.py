"""Oracle for the flip-graph walk: the tuple-keyed walk that masks replaced.

A state was known by its canonical key, the sorted tuple of its simplices.
Each successor's key was built from the state's simplex set by set
difference, union and sort (``flip_key``), the first action reaching each key
was kept (``successors``), and the breadth-first walk indexed its states by
these keys (``tuple_component``).  ``enumerate_component`` now walks masks on
the table's simplex index and orders children by descending mask; the tests
compare the two walks state by state.  The oracle builds every state afresh
from its key, so each scans its flips without a parent's.
"""

import math
from collections import deque
from dataclasses import dataclass

from flipforge.flips import flippable_circuits
from flipforge.triangulation import Triangulation


@dataclass
class TupleComponent:
    states: dict  # canonical key -> Triangulation, in discovery order
    edge_count: int
    truncated: bool
    expansions: int

    def __len__(self):
        return len(self.states)


def flip_key(current: set, action) -> tuple:
    """Canonical key of the state ``action`` makes from the simplex set ``current``."""
    return tuple(sorted(current.difference(action.removed).union(action.inserted)))


def successors(tri, table):
    """``{successor key: the first action reaching it}`` of ``tri``."""
    current = set(tri.simplices)
    first = {}
    for action in flippable_circuits(tri, table):
        first.setdefault(flip_key(current, action), action)
    return first


def tuple_component(seed, table, limit=1_000_000, cap=math.inf, visit=None):
    """The breadth-first walk keyed by canonical keys, children in ascending key order."""
    if visit is not None:
        visit(seed)
    states = {seed.canonical_key: seed}
    index = {seed.canonical_key: 0}
    queue = deque([seed])
    edge_count = 0
    expansions = 0
    truncated = False
    while queue:
        if expansions >= limit or len(states) >= cap:
            truncated = True
            break
        current = queue.popleft()
        expansions += 1
        for key in sorted(successors(current, table)):
            if len(states) >= cap:
                break
            pos = index.get(key)
            if pos is None:
                pos = index[key] = len(index)
                states[key] = nxt = Triangulation(key)
                if visit is not None:
                    visit(nxt)
                queue.append(nxt)
            edge_count += pos >= expansions
    return TupleComponent(states, edge_count, truncated, expansions)
