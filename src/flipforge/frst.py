"""Fine-regular-star discovery on lattice polytopes with an interior origin.

The sampling loop lifts random heights to a regular start, lets a search
strategy walk from it toward a fine regular state, closes the find into a
star triangulation by coning its boundary from the origin, and keeps a ledger
of distinct results with a consecutive-retry stopping rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateHeights, FlipForgeError
from .flips import CircuitTable, enumerate_circuits, flippable_circuits
from .geometry import PointConfig, lattice_points, make_point, snap_to_rational
from .objectives import Objective, ObjectiveCache, fine_and_regular
from .search import SearchContext, Strategy
from .triangulation import (
    Triangulation,
    certify_regularity,
    height_certificate,
    is_fine,
    is_star,
    regular_from_heights,
    regularity_constraints,
)


@dataclass(frozen=True)
class LatticeConfig:
    """All lattice points of a polytope whose only interior lattice point is the origin."""

    config: PointConfig
    origin_index: int

    def __post_init__(self):
        if not self.config.is_lattice:
            raise ValueError("lattice configuration required")
        points = self.config.points
        if len(set(points)) < len(points):
            twice = next(p for k, p in enumerate(points) if p in points[:k])
            coords = ", ".join(str(c) for c in twice)
            raise ValueError(f"the configuration lists the lattice point ({coords}) twice")
        if lattice_points(self.config) != sorted(points):
            raise ValueError("configuration must contain every lattice point of its hull")
        if self.config.points[self.origin_index] != make_point([0] * self.config.dim):
            raise ValueError("origin index does not point at the origin")
        # the star closure cones the boundary from the origin, which is fine
        # only if every other point lies on a facet (the hull is cached above)
        boundary = set().union(*(f.vertex_ids for f in self.config.hull().facets))
        if self.origin_index in boundary:
            raise ValueError("the origin must be interior to the polytope")
        if len(boundary) != self.config.n - 1:
            raise ValueError("the origin must be the only interior lattice point")

    @classmethod
    def from_config(cls, config: PointConfig):
        origin = make_point([0] * config.dim)
        try:
            idx = config.points.index(origin)
        except ValueError:
            raise ValueError("origin is not a configuration point") from None
        return cls(config=config, origin_index=idx)

    @property
    def n(self):
        return self.config.n


@dataclass(frozen=True)
class FrstReport:
    fine: bool
    regular: bool
    star: bool

    @property
    def ok(self):
        return self.fine and self.regular and self.star


def is_frst(tri: Triangulation, lattice: LatticeConfig, cache: ObjectiveCache | None = None):
    """Check fine, regular, and star separately; returns an FrstReport.

    Regularity comes from the certificate oracle: a certificate cached in
    ``cache`` is re-verified exactly against ``tri``'s rows, with no LP.
    """
    fine = is_fine(tri, lattice.config)
    certificates = cache.certificates if cache is not None else None
    regular = certify_regularity(tri, lattice.config, certificates).regular
    star = is_star(tri, lattice.config, lattice.origin_index)
    return FrstReport(fine=fine, regular=regular, star=star)


def star_closure(
    tri: Triangulation,
    lattice: LatticeConfig,
    witness=None,
    cache: ObjectiveCache | None = None,
) -> Triangulation:
    """Cone the boundary of a fine regular triangulation from the origin.

    A regular subdivision restricts to every face of the polytope (De Loera,
    Rambau & Santos, *Triangulations*, 2010), so sinking the origin with the
    other heights fixed gives the cone from the origin over the input's
    boundary (d-1)-faces; it is fine because the origin is the only interior
    lattice point.  The input's witness heights are reused for the other
    points: the caller passes the witness of the certificate it already
    holds, and only without one is the regularity oracle asked.  The
    origin's height goes one unit below the smallest bound
    (row . w without the origin) / -row[origin] over the cone's rows with a
    negative origin coefficient.  An exact check of every row certifies the
    cone regular, and that certificate goes into ``cache``.
    """
    config = lattice.config
    origin = lattice.origin_index
    certificates = cache.certificates if cache is not None else None
    if witness is None:
        cert = certify_regularity(tri, config, certificates)
        if not cert.regular:
            raise ValueError("star closure requires a regular input")
        witness = cert.vector
    closed = Triangulation(
        face + (origin,) for face, holders in tri.ridges().items() if len(holders) == 1
    )
    if not is_fine(closed, config):
        raise ValueError("star closure requires an input that uses every boundary point")
    rows = regularity_constraints(closed, config)
    heights = [Fraction(h) for h in witness]
    heights[origin] = Fraction(0)
    bounds = [
        sum(a * h for a, h in zip(row, heights) if a) / -row[origin]
        for row in rows
        if row[origin] < 0
    ]
    heights[origin] = min(bounds, default=Fraction(1)) - 1
    cert = height_certificate(rows, heights)
    if cert is None:
        raise FlipForgeError("sunk heights do not induce the cone over the boundary")
    if certificates is not None:
        certificates.setdefault(closed.canonical_key, cert)
    return closed


@dataclass
class EpisodeResult:
    success: bool
    steps: int
    closed: Triangulation | None
    visited_keys: list


def nearby_frst_episode(
    start: Triangulation,
    strategy: Strategy | None,
    lattice: LatticeConfig,
    ctx: SearchContext,
) -> EpisodeResult:
    """Sparse-reward search episode: succeed on the first fine regular state.

    ``strategy`` moves along :meth:`SearchContext.walk` of ``ctx``, the
    run's ``frst_reach`` context, for ``ctx.budget`` steps; the episode ends
    early at a step that stays at a state with no flips.  Without a strategy
    (lift-only) only the start is checked.  The found state is closed into a
    star triangulation, reusing the witness of its regularity certificate.
    Only fine states reach the regularity oracle, so each distinct fine
    state costs at most one LP.
    """
    walk = ctx.walk(strategy, start) if strategy is not None else [(start, None)]
    visited, previous = [], None
    for step, (current, _action) in enumerate(walk):
        if current is previous and not flippable_circuits(current, ctx.table):
            break  # a state with no flips ends the episode
        visited.append(current.canonical_key)
        cert = fine_and_regular(current, lattice.config, ctx.cache)
        if cert is not None:
            closed = star_closure(current, lattice, cert.vector, ctx.cache)
            return EpisodeResult(True, step, closed, visited)
        previous = current
    return EpisodeResult(False, len(visited) - 1, None, visited)


@dataclass(frozen=True)
class SamplerConfig:
    height_std: float = 1.0
    max_seconds: float = 300.0
    max_iterations: int = 1024
    retry_limit: int = 50
    flip_budget: int = 50

    def __post_init__(self):
        # written as "not > 0" so that NaN fails too; max_seconds=inf means no time cap
        for name in ("height_std", "max_seconds", "flip_budget"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not math.isfinite(self.height_std):
            raise ValueError(f"height_std must be finite, got {self.height_std!r}")
        for name, least in (("max_iterations", 0), ("retry_limit", 1)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")

    def stop_reason(self, iterations, elapsed, consecutive_retries):
        """The first stopping rule that holds, or None to keep sampling."""
        if iterations >= self.max_iterations:
            return "iterations"
        if elapsed >= self.max_seconds:
            return "time"
        if consecutive_retries >= self.retry_limit:
            return "retries"
        return None


@dataclass
class LedgerEntry:
    iteration: int
    elapsed_ms: int
    new_key: bool
    cumulative: int


@dataclass
class FrstLedger:
    """Distinct star-closed finds with a timestamped discovery log."""

    entries: list = field(default_factory=list)
    triangulations: dict = field(default_factory=dict)  # state mask -> Triangulation
    stop_reason: str | None = None  # "iterations", "time" or "retries"

    @property
    def keys(self):
        """The finds' canonical keys."""
        return {tri.canonical_key for tri in self.triangulations.values()}

    def __len__(self):
        return len(self.triangulations)


class VirtualClock:
    """Deterministic stand-in for wall time: one millisecond per tick."""

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def elapsed(self):
        return self.ticks / 1000.0


class WallClock:
    def __init__(self):
        self.start = time.monotonic()

    def tick(self):
        pass

    def elapsed(self):
        return time.monotonic() - self.start


def sample_frsts(
    lattice: LatticeConfig,
    sampler: SamplerConfig,
    strategy: Strategy | None,
    rng,
    table: CircuitTable | None = None,
    clock=None,
    cache: ObjectiveCache | None = None,
) -> FrstLedger:
    """Budgeted sampling loop with the consecutive-retry stopping rule.

    The episodes share one ``frst_reach`` search context, so one generator
    (``rng``, which also draws the lifts), one cache and one set of
    validated states.  Every ledger insertion is re-verified fine+regular+star; regularity by an
    exact check of the certificate its star closure cached, so no LP is
    solved again.  Stops on the iteration cap, the time cap, or
    ``retry_limit`` consecutive iterations that discover nothing new, and
    records which rule stopped it.
    """
    config = lattice.config
    table = table if table is not None else enumerate_circuits(config)
    clock = clock if clock is not None else VirtualClock()
    cache = cache if cache is not None else ObjectiveCache()
    ctx = SearchContext(
        config, table, Objective.FRST_REACH, cache, seed=rng, budget=sampler.flip_budget
    )
    ledger = FrstLedger()
    consecutive_retries = 0
    iteration = 0
    while (
        reason := sampler.stop_reason(iteration, clock.elapsed(), consecutive_retries)
    ) is None:
        start = _lifted_start(config, sampler, rng)
        result = nearby_frst_episode(start, strategy, lattice, ctx)
        clock.tick()
        new = False
        if result.success:
            closed = result.closed
            report = is_frst(closed, lattice, cache)
            if not report.ok:
                raise AssertionError("star closure produced a non-FRST state")
            key = closed.code(table.index)
            if key not in ledger.triangulations:
                ledger.triangulations[key] = closed
                new = True
        consecutive_retries = 0 if new else consecutive_retries + 1
        iteration += 1
        ledger.entries.append(
            LedgerEntry(
                iteration=iteration,
                elapsed_ms=int(round(clock.elapsed() * 1000)),
                new_key=new,
                cumulative=len(ledger.triangulations),
            )
        )
    ledger.stop_reason = reason
    return ledger


def _lifted_start(config: PointConfig, sampler: SamplerConfig, rng) -> Triangulation:
    for _attempt in range(256):
        raw = rng.normal(0.0, sampler.height_std, size=config.n)
        heights = snap_to_rational(raw)
        try:
            return regular_from_heights(config, heights)
        except DegenerateHeights:
            continue
    raise FlipForgeError("could not draw non-degenerate heights in 256 attempts")
