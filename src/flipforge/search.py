"""Budgeted local-search baselines over the implicit flip graph.

All strategies consume exactly one budget unit per outer-loop step, whether the
step applies a flip, rejects a proposal, or is forced to stay; this keeps the
flip budget comparable across methods.  Values are always handled in
minimization convention (see :func:`flipforge.objectives.search_value`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import CheckpointError
from .flips import CircuitTable, apply_flip, flip_count, flippable_circuits
from .geometry import PointConfig
from .objectives import Objective, ObjectiveCache, search_value
from .triangulation import Triangulation, require_valid


@dataclass(eq=False)
class SearchContext:
    """What a run's walks, or a training environment's steps, share.

    Besides the objective's cache, a context keeps the masks (on the table's
    simplex index) of the states that passed ``validate``; the verdict
    depends only on the simplices and the configuration, so a revisited
    state is not validated again.  The generator is seeded from ``seed`` on
    the first draw, so strategies that never draw never load numpy; a
    ``Generator`` passed as the seed is used as it is.  ``budget`` is the
    step count of each walk, which strategies whose schedule spans the walk
    read.  Contexts hash by identity.
    """

    config: PointConfig
    table: CircuitTable
    objective: Objective
    cache: ObjectiveCache = field(default_factory=ObjectiveCache)
    seed: object = 0
    budget: int | None = None
    valid: set = field(default_factory=set, init=False, repr=False)
    _rng: object = field(default=None, init=False, repr=False)

    @property
    def rng(self):
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self.seed)
        return self._rng

    def value(self, tri):
        return search_value(self.objective, tri, self.config, self.cache)

    def walk(self, strategy, start):
        """Yield ``(state, action or None)``: ``start``, then each of ``budget`` steps.

        The strategy is reset to ``start``.  A step lists the state's flips
        (``flippable_circuits``), lets the strategy move, and admits a new
        successor.  The realized flips are kept on the state, so listing
        them again scans no circuit, but each call rebuilds the list;
        ``flip_count`` gives their number without one.  A strategy whose move
        depends only on the state (``replays``) moves once from each state
        of the walk, by mask; a return to that state replays the move
        without a scan.
        """
        strategy.reset(start, self)
        moves = {}  # state mask -> move, for a strategy that replays
        move = (start, None)
        yield move
        for _ in range(self.budget):
            tri = move[0]
            key = tri.code(self.table.index) if strategy.replays else None
            move = moves.get(key)
            if move is None:
                move = strategy.step(tri, flippable_circuits(tri, self.table), self)
                if move[0] is not tri:
                    self.admit(move[0])
                if key is not None:
                    moves[key] = move
            yield move

    def admit(self, nxt):
        """Validate the flipped state ``nxt`` on its first arrival in this context."""
        key = nxt.code(self.table.index)
        if key not in self.valid:
            require_valid(nxt, self.config)
            self.valid.add(key)


@dataclass
class StepRecord:
    step: int
    action_id: tuple | None
    value: float
    best: float
    actions: int | None = None  # feasible flips at the visited state


@dataclass
class SearchTrace:
    """Visited states with per-step values and the best value found."""

    records: list = field(default_factory=list)
    states: list = field(default_factory=list)
    best_value: float = math.inf
    budget_used: int = 0

    def visit(self, step, action_id, tri, value, actions=None):
        self.records.append(
            StepRecord(step, action_id, value, min(self.best_value, value), actions)
        )
        self.states.append(tri)
        if value < self.best_value:
            self.best_value = value


class Strategy:
    """One instance per worker; ``reset`` binds it to a start state."""

    name = "base"
    replays = False  # the move depends only on the state (see SearchContext.walk)

    def reset(self, tri, ctx: SearchContext):
        pass

    def step(self, tri, actions, ctx: SearchContext):
        """Return the successor triangulation (or ``tri`` to stay)."""
        raise NotImplementedError


class GreedyStrategy(Strategy):
    """Always applies the best flip, falling back to the least-bad one.

    The move depends only on the state, so a walk replays it when it returns
    there; greedy walks settle into short cycles, so most steps are such
    returns.
    """

    name = "greedy"
    replays = True

    def step(self, tri, actions, ctx):
        if not actions:
            return tri, None
        moves = ((apply_flip(tri, action), action) for action in actions)
        return min(moves, key=lambda move: ctx.value(move[0]))  # the first best


class _FrontierStrategy(Strategy):
    """Search over one heap of discovered states; the harness teleports to its top.

    A state is expanded on its first arrival: each unvisited child scoring
    below ``_bound`` of the parent enters under ``_key(value, position)``,
    ``position`` being its place in action-id order and ``len(self.visited)``
    the expansion's number; states are known by their masks.  Past
    ``memory_cap`` entries the worst are evicted.  With the frontier empty the
    walk stays put.
    """

    memory_cap = math.inf

    def reset(self, tri, ctx):
        self.visited = {tri.code(ctx.table.index)}
        self.frontier = []
        self._expand(tri, ctx)

    def _expand(self, tri, ctx):
        bound = self._bound(tri, ctx)
        for position, action in enumerate(flippable_circuits(tri, ctx.table)):
            nxt = apply_flip(tri, action)
            if nxt.code(ctx.table.index) not in self.visited and (value := ctx.value(nxt)) < bound:
                heapq.heappush(self.frontier, (self._key(value, position), nxt, action))
        if len(self.frontier) > self.memory_cap:  # a sorted list is a heap
            self.frontier = heapq.nsmallest(self.memory_cap, self.frontier)

    def step(self, tri, actions, ctx):
        while self.frontier:
            _key, nxt, action = heapq.heappop(self.frontier)
            key = nxt.code(ctx.table.index)
            if key not in self.visited:
                self.visited.add(key)
                self._expand(nxt, ctx)
                return nxt, action
        return tri, None


class DfsStrategy(_FrontierStrategy):
    """Depth-first descent: improving children only, the newest expansion's best first."""

    name = "dfs"

    def _key(self, value, position):
        return (-len(self.visited), value, position)

    def _bound(self, tri, ctx):
        return ctx.value(tri)


class BefsStrategy(_FrontierStrategy):
    """Best-first search over every discovered state, older expansions first on ties."""

    name = "befs"

    def __init__(self, memory_cap=100_000):
        self.memory_cap = _param("memory_cap", memory_cap, integral=True)

    def _key(self, value, position):
        return (value, len(self.visited), position)

    def _bound(self, tri, ctx):
        return math.inf


class AnnealStrategy(Strategy):
    """Uniform proposals accepted with min(1, exp(-delta / T_t)).

    The temperature decays geometrically over the budget, and deltas are
    standardized by the seed state's absolute value so T0 = 1.0 is meaningful
    across objectives.
    """

    name = "anneal"

    def __init__(self, initial_temperature=1.0, decay=None, final_fraction=1e-3):
        self.initial_temperature = _param("initial_temperature", initial_temperature)
        self.decay = None if decay is None else _param("decay", decay, high=1)
        self.final_fraction = _param("final_fraction", final_fraction, high=1)

    def reset(self, tri, ctx):
        self.t = 0
        self.scale = abs(ctx.value(tri)) or 1.0
        if self.decay is not None:
            self.alpha = self.decay
        elif ctx.budget:
            self.alpha = self.final_fraction ** (1.0 / ctx.budget)
        else:
            self.alpha = 1.0

    def acceptance_probability(self, delta, temperature):
        if delta <= 0:
            return 1.0
        return math.exp(-delta / temperature)

    def step(self, tri, actions, ctx):
        temperature = self.initial_temperature * self.alpha**self.t
        self.t += 1
        if not actions:
            return tri, None
        action = actions[ctx.rng.integers(len(actions))]
        nxt = apply_flip(tri, action)
        delta = (ctx.value(nxt) - ctx.value(tri)) / self.scale
        if ctx.rng.random() < self.acceptance_probability(delta, temperature):
            return nxt, action
        return tri, None


class RandomWalkStrategy(Strategy):
    """Uniformly random feasible flip; no memory, no objective awareness."""

    name = "random_walk"

    def step(self, tri, actions, ctx):
        if not actions:
            return tri, None
        action = actions[ctx.rng.integers(len(actions))]
        return apply_flip(tri, action), action


class _LearnedStrategy(Strategy):
    """A move chosen by :meth:`choose` from the model's actor head on the state.

    :meth:`choices` moves a batch of states by one forward pass; a search
    step is its batch of one, and each training rollout step one batch, so
    search and training pick moves by the same code.
    """

    actor_kinds = ()  # the actor kinds of the models that can drive it

    def __init__(self, model):
        self.model = model

    def step(self, tri, actions, ctx):
        if not actions:
            return tri, None
        _graph, _encoded, [(index, accepted, _head)] = self.choices(
            [(ctx.config, tri, actions)], ctx.rng
        )
        if not accepted:
            return tri, None
        return apply_flip(tri, actions[index]), actions[index]

    def choices(self, states, rng):
        """``(graph, encoding, moves)``: one forward pass over ``states`` and a move each.

        ``states`` are ``(config, tri, actions)`` triples, each with at least
        one action; ``graph`` is their union.  ``moves[j]`` is ``(index,
        accepted, head)``: :meth:`choose` on graph ``j``'s slice ``head`` of
        the actor head (its acceptance probability, or its actions'
        probabilities), called in state order with draws from ``rng``.
        """
        from .policy import state_graph  # numpy loads only for the learned strategies

        graph = state_graph(states, self.model.config.actor_kind)
        encoded, head = self.model.forward(graph)
        bounds = range(graph.size + 1) if graph.kind == "nls_accept" else graph.action_offsets
        moves = []
        for j, (_config, _tri, actions) in enumerate(states):
            part = head[bounds[j] : bounds[j + 1]]
            moves.append((*self.choose(part, len(actions), rng), part))
        return graph, encoded, moves

    def choose(self, head, count, rng):
        """``(index, accepted)``: the move among ``count`` actions that ``head`` gives."""
        raise NotImplementedError


class AcceptanceStrategy(_LearnedStrategy):
    """Annealing-style proposals gated by a learned acceptance probability
    computed from the pooled embedding of the current state."""

    name = "nls_accept"
    actor_kinds = ("nls_accept",)

    def choose(self, head, count, rng):
        """A uniform proposal, accepted with the probability ``head[0]``."""
        proposal = int(rng.integers(count))
        return proposal, bool(rng.random() < float(head[0]))


class PolicyStrategy(_LearnedStrategy):
    """Learned flip ranking: scores all feasible actions and picks one.

    An argmax move depends only on the state, so a walk replays it, as greedy's.
    """

    name = "policy"
    actor_kinds = ("snn", "egnn_only", "pool_mlp")

    def __init__(self, model, mode="argmax"):
        if mode not in ("argmax", "sample"):
            raise ValueError(f"unknown policy mode {mode!r}")
        super().__init__(model)
        self.mode = mode

    @property
    def replays(self):
        return self.mode == "argmax"

    def choose(self, head, count, rng):
        """The most probable action of the distribution ``head``, or one drawn from it."""
        if self.mode == "argmax":
            return int(head.argmax()), True
        cum = head.cumsum()
        u = rng.random() * cum[-1]
        return int(cum.searchsorted(u, side="right").clip(0, count - 1)), True


def _param(name, value, high=math.inf, integral=False):
    """``value`` if it is a positive finite number (an int if ``integral``) up to ``high``."""
    kinds = int if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not 0 < value < math.inf:
        kind = "integer" if integral else "finite number"
        raise ValueError(f"strategy parameter {name} must be a positive {kind}, got {value!r}")
    if value > high:
        raise ValueError(f"strategy parameter {name} must be at most {high}, got {value!r}")
    return value


_STRATEGIES = {
    cls.name: cls
    for cls in (
        GreedyStrategy,
        DfsStrategy,
        BefsStrategy,
        AnnealStrategy,
        RandomWalkStrategy,
        AcceptanceStrategy,
        PolicyStrategy,
    )
}
STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(name, *, model=None, params=None) -> Strategy:
    """The strategy ``name`` built from ``params``; a ``ValueError`` names a bad parameter.

    A learned strategy's ``model`` must have an actor kind it can use, or a
    ``CheckpointError`` names the kind.
    """
    cls = _STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}")
    args = ()
    if issubclass(cls, _LearnedStrategy):
        if model is None:
            raise ValueError(f"{name} strategy needs a model")
        kind = model.config.actor_kind
        if kind not in cls.actor_kinds:
            raise CheckpointError(
                f"a checkpoint of the {kind!r} actor cannot drive the {name} strategy"
            )
        args = (model,)
    try:
        return cls(*args, **(params or {}))
    except TypeError as exc:  # a parameter the constructor does not take
        raise ValueError(f"strategy {name}: {exc}") from None


def run_budgeted(
    strategy: Strategy,
    seed_tri: Triangulation,
    objective: Objective,
    budget: int,
    *,
    config: PointConfig,
    table: CircuitTable,
    seed: int = 0,
    cache: ObjectiveCache | None = None,
) -> SearchTrace:
    """Run exactly ``budget`` strategy steps from the seed, tracking the best.

    Deterministic given ``seed``, which seeds the generator of the strategies
    that draw.  The run is :meth:`SearchContext.walk`, so every flipped
    state is validated on its first arrival.  Each record counts the
    feasible flips of its state.
    """
    ctx = SearchContext(
        config=config,
        table=table,
        objective=objective,
        cache=cache if cache is not None else ObjectiveCache(),
        seed=seed,
        budget=budget,
    )
    trace = SearchTrace()
    for step, (current, action) in enumerate(ctx.walk(strategy, seed_tri)):
        action_id = action.action_id if action else None
        trace.visit(step, action_id, current, ctx.value(current), flip_count(current, table))
        trace.budget_used = step
    return trace
