"""Synthetic polytope datasets: Gaussian sampling, isomorphism dedup, seeds.

Configurations are the extreme points of hulls of standard-normal samples
snapped onto the rational grid; combinatorially isomorphic draws (same
vertex-facet incidence structure) are rejected so a dataset never contains two
coordinate realizations of one combinatorial type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateConfig, DegenerateHeights, FlipForgeError
from .flips import enumerate_circuits, enumerate_component
from .geometry import SNAP_DENOMINATOR, PointConfig, placing_triangulation, snap_to_rational
from .triangulation import Triangulation, regular_from_heights


@dataclass(frozen=True)
class GenSpec:
    dim: int
    samples: int  # points drawn per attempt
    count: int  # target dataset size
    seed: int = 0
    snap_denominator: int = SNAP_DENOMINATOR
    draw_cap: int = 1_000_000

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if self.samples < self.dim + 1:
            raise ValueError("need at least dim+1 samples per draw")
        if self.count < 1:
            raise ValueError("target dataset size must be >= 1")
        if self.count > 1 and (self.dim == 1 or self.samples == self.dim + 1):
            shape = "segment" if self.dim == 1 else "simplex"
            raise ValueError(
                f"every draw of {self.samples} points in {self.dim}D is a {shape}, "
                f"so no dataset holds {self.count} non-isomorphic ones"
            )
        if self.snap_denominator < 1:
            raise ValueError(f"snap_denominator must be at least 1, got {self.snap_denominator}")


@dataclass
class Dataset:
    spec: GenSpec
    ids: list
    configs: dict  # id -> PointConfig
    vertex_counts: dict  # id -> realized vertex count
    seeds: dict = field(default_factory=dict)  # id -> list of Triangulation


def sample_polytope(dim, samples, rng, snap_denominator=SNAP_DENOMINATOR):
    """One draw: snap Gaussian samples, keep the hull's extreme points (sorted).

    A coarse grid can snap two samples onto one point; each is kept once.
    """
    raw = rng.standard_normal((samples, dim))
    pts = list(dict.fromkeys(snap_to_rational(row, snap_denominator) for row in raw))
    probe = PointConfig(dim, pts, is_lattice=False)
    extreme = sorted(probe.hull().extreme)
    chosen = sorted((probe.points[i] for i in extreme))
    return PointConfig(dim, chosen, is_lattice=False)


def generate(spec: GenSpec) -> Dataset:
    """Draw until ``count`` pairwise non-isomorphic configurations are accepted."""
    import numpy as np

    rng = np.random.default_rng(spec.seed)
    ids, configs, vertex_counts = [], {}, {}
    signatures = []
    draws = 0
    while len(ids) < spec.count:
        if draws >= spec.draw_cap:
            raise FlipForgeError(
                f"draw cap {spec.draw_cap} reached with {len(ids)}/{spec.count} accepted"
            )
        draws += 1
        try:
            config = sample_polytope(spec.dim, spec.samples, rng, spec.snap_denominator)
        except DegenerateConfig:
            continue
        sig = incidence_signature(config)
        if sig in signatures:
            continue
        signatures.append(sig)
        cid = f"{spec.dim}d_{len(ids):03d}"
        ids.append(cid)
        configs[cid] = config
        vertex_counts[cid] = config.n
    return Dataset(spec=spec, ids=ids, configs=configs, vertex_counts=vertex_counts)


def _refine(colors, adjacency):
    """Iterated color refinement by multisets of neighbor colors."""
    while True:
        signature = [
            (colors[v], tuple(sorted(colors[u] for u in adjacency[v])))
            for v in range(len(colors))
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new = [palette[sig] for sig in signature]
        if new == colors:
            return colors
        colors = new


def _canonical_encoding(colors, adjacency, nverts):
    """Lexicographically minimal encoding over the individualization tree."""
    colors = _refine(colors, adjacency)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        order = sorted(range(len(colors)), key=lambda v: colors[v])
        rank = {v: i for i, v in enumerate(order)}
        rows = []
        for v in order:
            rows.append(tuple(sorted(rank[u] for u in adjacency[v])))
        return (tuple(colors[v] for v in order), tuple(rows))
    best = None
    for v in target:
        branched = list(colors)
        branched[v] = len(colors) + nverts  # fresh color splits the cell
        enc = _canonical_encoding(branched, adjacency, nverts)
        if best is None or enc < best:
            best = enc
    return best


def incidence_signature(config: PointConfig):
    """Canonical form of the vertex-facet incidence bipartite structure.

    Two configurations get equal signatures iff their extreme-point/facet
    incidences agree under some vertex bijection (partition refinement with
    backtracking over ties).
    """
    hull = config.hull()
    extreme = sorted(hull.extreme)
    index = {v: i for i, v in enumerate(extreme)}
    facet_sets = sorted(
        {frozenset(index[v] for v in f.vertex_ids if v in index) for f in hull.facets},
        key=sorted,
    )
    nv = len(extreme)
    total = nv + len(facet_sets)
    adjacency = [[] for _ in range(total)]
    for fi, fset in enumerate(facet_sets):
        for v in fset:
            adjacency[v].append(nv + fi)
            adjacency[nv + fi].append(v)
    colors = [0] * nv + [1] * len(facet_sets)
    return (nv, len(facet_sets), _canonical_encoding(colors, adjacency, total))


def are_isomorphic(a: PointConfig, b: PointConfig) -> bool:
    """True iff the vertex-facet incidence structures agree under a bijection."""
    return incidence_signature(a) == incidence_signature(b)


def delaunay_like_heights(config: PointConfig):
    return [sum(c * c for c in p) for p in config.points]


def initial_triangulation(config: PointConfig) -> Triangulation:
    """Deterministic start state: paraboloid-height lift, placing fallback."""
    try:
        return regular_from_heights(config, delaunay_like_heights(config))
    except DegenerateHeights:
        pass
    # deterministic rational jitter resolves cospherical degeneracies
    base = delaunay_like_heights(config)
    for attempt in range(1, 8):
        bump = Fraction(1, 10 ** (6 + attempt))
        heights = [h + bump * (i + 1) ** 2 for i, h in enumerate(base)]
        try:
            return regular_from_heights(config, heights)
        except DegenerateHeights:
            continue
    return Triangulation(placing_triangulation(config))


def seed_triangulations(config: PointConfig, cap: int = 2000):
    """Breadth-first flip-graph states from the lifted start, up to ``cap``."""
    start = initial_triangulation(config)
    component = enumerate_component(start, enumerate_circuits(config), cap=cap)
    return list(component.states.values())
