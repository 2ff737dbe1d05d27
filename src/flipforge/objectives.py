"""Objective functions over triangulations, flip rewards, and gap reporting."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geometry import PointConfig, left_sum
from .triangulation import (
    Triangulation,
    certify_regularity,
    dual_diameter,
    is_fine,
    simplex_index,
)


class Objective(enum.Enum):
    """Search objectives; metric ones are minimized, reach objectives maximized."""

    MIN_SIMPLICES = "min_simplices"
    MIN_DIAMETER = "min_diameter"
    MIN_WEIGHT = "min_weight"
    FRST_REACH = "frst_reach"

    @property
    def sense(self):
        return "maximize" if self is Objective.FRST_REACH else "minimize"

    @classmethod
    def from_name(cls, name: str) -> "Objective":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown objective {name!r}") from None


class ObjectiveCache:
    """Per-run caches: regularity certificates by canonical key, values by
    (objective, state mask on the configuration's simplex index)."""

    def __init__(self):
        self.certificates = {}  # canonical key -> RegularityCertificate
        self.values = {}


def evaluate(
    objective: Objective,
    tri: Triangulation,
    config: PointConfig,
    cache: ObjectiveCache | None = None,
) -> float:
    """Objective value of a triangulation.

    MIN_WEIGHT sums the 1-skeleton's edge lengths from the configuration's
    table (``PointConfig.edge_lengths``) in sorted-edge order, the edge mask's
    bits from the highest down; the other metrics are exact integers.
    """
    index = simplex_index(config.n, config.dim + 1)
    key = (objective, tri.code(index))
    if cache is not None:
        hit = cache.values.get(key)
        if hit is not None:
            return hit
    if objective is Objective.MIN_SIMPLICES:
        value = float(len(tri))
    elif objective is Objective.MIN_DIAMETER:
        value = float(dual_diameter(tri))
    elif objective is Objective.MIN_WEIGHT:
        # the lengths come in lex edge order, the order of the bits from the highest down
        value = left_sum(index.edges.select(config.edge_lengths().values(), tri.edge_code()))
    elif objective is Objective.FRST_REACH:
        value = 0.0 if fine_and_regular(tri, config, cache) is None else 1.0
    else:  # pragma: no cover
        raise ValueError(objective)
    if cache is not None:
        cache.values[key] = value
    return value


def fine_and_regular(tri: Triangulation, config: PointConfig, cache: ObjectiveCache | None = None):
    """The state's regularity certificate if it is fine and regular, else ``None``.

    Only a fine state asks the cached regularity oracle.
    """
    if not is_fine(tri, config):
        return None
    certificates = cache.certificates if cache is not None else None
    cert = certify_regularity(tri, config, certificates)
    return cert if cert.regular else None


def search_value(
    objective: Objective,
    tri: Triangulation,
    config: PointConfig,
    cache: ObjectiveCache | None = None,
) -> float:
    """Value in minimization convention (maximized objectives are negated)."""
    v = evaluate(objective, tri, config, cache)
    return -v if objective.sense == "maximize" else v


def reward(
    objective: Objective,
    tri: Triangulation,
    nxt: Triangulation,
    config: PointConfig,
    cache: ObjectiveCache | None = None,
) -> float:
    """Improvement in the objective from ``tri`` to its successor ``nxt``.

    Minimization: f(tri) - f(nxt); maximization: f(nxt) - f(tri), so a
    rejected proposal (``nxt is tri``) earns 0.  From a state that is not
    fine and regular, the reach reward is 1.0 exactly when ``nxt`` is.
    """
    before = evaluate(objective, tri, config, cache)
    after = evaluate(objective, nxt, config, cache)
    return after - before if objective.sense == "maximize" else before - after


@dataclass(frozen=True)
class GapReport:
    """Per-instance relative gaps plus their mean and standard error."""

    instances: tuple  # of (label, best, reference, gap)
    mean: float
    stderr: float


def relative_gap(best_values, reference_values, labels=None, sense="minimize") -> GapReport:
    """Per-instance gaps in the objective's own sense; their mean and standard error.

    Values are native objective values, not search values.  A minimized
    objective's gap is (best - ref) / ref, which needs ref > 0; a maximized
    one's is ref - best (``frst_reach`` scores 0 or 1, and its reference is 0
    when the component holds no FRST).  A best equal to its reference has gap
    0 whatever the reference.
    """
    if len(best_values) != len(reference_values):
        raise ValueError("mismatched instance counts")
    if labels is None:
        labels = [str(i) for i in range(len(best_values))]
    rows = []
    gaps = []
    for label, best, ref in zip(labels, best_values, reference_values):
        ref = float(ref)
        if sense == "maximize":
            gap = ref - float(best)
        elif float(best) == ref:  # a zero reference reached, as a lone simplex's diameter
            gap = 0.0
        elif ref <= 0:
            raise ValueError(f"nonpositive reference value {ref} for {label}")
        else:
            gap = (float(best) - ref) / ref
        rows.append((label, float(best), ref, gap))
        gaps.append(gap)
    mean = left_sum(gaps) / len(gaps)
    if len(gaps) > 1:
        var = left_sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        stderr = math.sqrt(var / len(gaps))
    else:
        stderr = 0.0
    return GapReport(instances=tuple(rows), mean=mean, stderr=stderr)
