"""Triangulation optimization on the bistellar flip graph.

Exact rational geometry underneath, budgeted search baselines and a trainable
flip-ranking policy on top, plus a fine-regular-star discovery pipeline for
lattice polytopes.
"""

from .errors import (
    CheckpointError,
    DegenerateConfig,
    DegenerateHeights,
    FlipForgeError,
    FormatError,
    StaleAction,
    TrainingError,
)
from .flips import (
    Circuit,
    CircuitTable,
    FlipAction,
    apply_flip,
    enumerate_circuits,
    enumerate_component,
    flippable_circuits,
    neighbors,
)
from .geometry import (
    HullFacet,
    HullResult,
    Point,
    PointConfig,
    Rational,
    convex_hull,
    lattice_points,
    simplex_volume,
    snap_to_rational,
)
from .objectives import GapReport, Objective, evaluate, relative_gap, reward
from .triangulation import (
    Heights,
    Simplex,
    Triangulation,
    dual_diameter,
    is_fine,
    is_regular,
    is_star,
    regular_from_heights,
    validate,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a shipped lattice polytope fixture, e.g. ``square2d``."""
    from importlib import resources  # here, not at the top: it loads typing, tempfile and zipfile

    return resources.files("flipforge") / "fixtures" / f"{name}.poly"
