"""A run's reuse of the states it revisits, against the step loops it replaced.

``run_budgeted`` validates a flipped state only on its first arrival, and
greedy and the argmax policy replay the move they made from a state they
return to.  The reference below is the loop as it was before: every step
flips and scores every child anew, and ``require_valid`` runs on every
flipped state.  Both must record the same steps.  Dfs and befs now share one
heap keyed by expansion; the stack dfs and the counter befs they replaced
are kept below as oracles, and each pair must walk the same states.
"""

import gc
import heapq

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flipforge as ff
import flipforge.search as search
import flipforge.triangulation as triangulation
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateConfig, FlipForgeError
from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits
from flipforge.objectives import Objective, ObjectiveCache
from flipforge.policy import ModelConfig, PolicyModel
from flipforge.search import (
    BefsStrategy,
    PolicyStrategy,
    SearchContext,
    SearchTrace,
    Strategy,
    _param,
    make_strategy,
    run_budgeted,
)
from flipforge.triangulation import Triangulation, ValidityReport, require_valid
from conftest import point_lists

BASELINES = ("greedy", "dfs", "befs", "anneal", "random_walk")


class ReferenceGreedy(Strategy):
    """Greedy as it was: every step scores every child."""

    def step(self, tri, actions, ctx):
        if not actions:
            return tri, None
        best = None
        for action in actions:
            nxt = apply_flip(tri, action)
            v = ctx.value(nxt)
            if best is None or v < best[0]:
                best = (v, action, nxt)
        return best[2], best[1]


class StackDfs(Strategy):
    """Depth-first descent: improving unvisited neighbors go on a stack (best on
    top); with none left the walk backtracks to the most recent pending state.
    With the stack empty it stays put for the rest of the run: its state keeps
    the same neighbors and the visited set only grows."""

    name = "dfs"

    def reset(self, tri, ctx):
        self.visited = {tri.canonical_key}
        self.stack = []
        self.exhausted = False

    def step(self, tri, actions, ctx):
        if self.exhausted:
            return tri, None
        current_value = ctx.value(tri)
        children = []
        for action in actions:
            nxt = apply_flip(tri, action)
            if nxt.canonical_key in self.visited:
                continue
            v = ctx.value(nxt)
            if v < current_value:
                children.append((v, action.action_id, nxt, action))
        children.sort(key=lambda c: (c[0], c[1]), reverse=True)  # best pushed last
        self.stack.extend(children)
        while self.stack:
            v, _aid, nxt, action = self.stack.pop()
            if nxt.canonical_key not in self.visited:
                self.visited.add(nxt.canonical_key)
                return nxt, action
        self.exhausted = True
        return tri, None


class CounterBefs(Strategy):
    """Best-first search over all discovered states; the harness teleports to
    the frontier minimum.  Frontier memory is capped with worst-value eviction."""

    name = "befs"

    def __init__(self, memory_cap=100_000):
        self.memory_cap = _param("memory_cap", memory_cap, integral=True)

    def reset(self, tri, ctx):
        self.visited = {tri.canonical_key}
        self.frontier = []
        self.counter = 0
        self._expand(tri, ctx)

    def _expand(self, tri, ctx):
        for action in flippable_circuits(tri, ctx.table):
            nxt = apply_flip(tri, action)
            if nxt.canonical_key in self.visited:
                continue
            self.counter += 1
            heapq.heappush(self.frontier, (ctx.value(nxt), self.counter, nxt, action))
        if len(self.frontier) > self.memory_cap:
            keep = heapq.nsmallest(self.memory_cap, self.frontier)
            heapq.heapify(keep)
            self.frontier = keep

    def step(self, tri, actions, ctx):
        while self.frontier:
            _v, _c, nxt, action = heapq.heappop(self.frontier)
            if nxt.canonical_key in self.visited:
                continue
            self.visited.add(nxt.canonical_key)
            self._expand(nxt, ctx)
            return nxt, action
        return tri, None


class ReferenceDfs(StackDfs):
    """Dfs as it was: an exhausted walk still expands its state on every step."""

    def step(self, tri, actions, ctx):
        self.exhausted = False
        return super().step(tri, actions, ctx)


REFERENCE = {"greedy": ReferenceGreedy, "dfs": ReferenceDfs}


def reference_run(strategy, seed_tri, objective, budget, *, config, table, seed):
    """The per-step loop before states were reused."""
    ctx = SearchContext(
        config=config,
        table=table,
        objective=objective,
        cache=ObjectiveCache(),
        seed=seed,
        budget=budget,
    )
    trace = SearchTrace()
    current = seed_tri
    trace.visit(0, None, current, ctx.value(current))
    strategy.reset(current, ctx)
    for step in range(1, budget + 1):
        actions = flippable_circuits(current, table)
        trace.records[-1].actions = len(actions)
        nxt, action = strategy.step(current, actions, ctx)
        if nxt is not current:
            require_valid(nxt, config)
        current = nxt
        trace.visit(step, action.action_id if action else None, current, ctx.value(current))
        trace.budget_used = step
    trace.records[-1].actions = len(flippable_circuits(current, table))
    return trace


def recorded(trace):
    return [(r.step, r.action_id, r.value, r.best, r.actions) for r in trace.records]


def flipped_arrivals(trace):
    """Keys of the states that steps flipped into, in order, repeats included."""
    return [
        state.canonical_key
        for record, state in zip(trace.records, trace.states)
        if record.action_id is not None
    ]


def count_validations(monkeypatch, fail_key=None):
    """Record the key of every ``validate`` call; fail it for ``fail_key``."""
    seen = []
    real = triangulation.validate

    def counting(tri, config):
        seen.append(tri.canonical_key)
        if tri.canonical_key == fail_key:
            return ValidityReport(False, (("a", "forced failure"),))
        return real(tri, config)

    monkeypatch.setattr(triangulation, "validate", counting)
    return seen


def draw_start(dim, data):
    """A configuration, its circuit table and a start a short random walk away."""
    try:
        config = ff.PointConfig(dim, data.draw(point_lists(dim)))
    except DegenerateConfig:
        assume(False)
    table = enumerate_circuits(config)
    tri = initial_triangulation(config)
    for move in data.draw(st.lists(st.integers(0, 1 << 20), max_size=4)):
        actions = flippable_circuits(tri, table)
        if not actions:
            break
        tri = apply_flip(tri, actions[move % len(actions)])
    # a fresh object, so neither run starts from the other's cached actions
    return config, table, Triangulation(tri.simplices)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reused_states_record_the_reference_steps(dim, data):
    config, table, start = draw_start(dim, data)
    objective = data.draw(st.sampled_from([Objective.MIN_WEIGHT, Objective.MIN_DIAMETER]))
    seed = data.draw(st.integers(0, 1 << 16))
    budget = data.draw(st.integers(0, 30))
    for name in BASELINES:
        reference = REFERENCE[name]() if name in REFERENCE else make_strategy(name)
        want = reference_run(
            reference, start, objective, budget, config=config, table=table, seed=seed
        )
        with pytest.MonkeyPatch.context() as patch:
            validated = count_validations(patch)
            got = run_budgeted(
                make_strategy(name), start, objective, budget,
                config=config, table=table, seed=seed,
            )
        assert recorded(got) == recorded(want), name
        # each distinct flipped state is validated once, on its first arrival
        arrivals = flipped_arrivals(got)
        assert validated == list(dict.fromkeys(arrivals)), name


class ReferencePolicy(PolicyStrategy):
    """The policy as it was: every step runs the model on its state."""

    replays = False


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_argmax_policy_replays_its_moves_and_records_the_reference_steps(dim, data):
    config, table, start = draw_start(dim, data)
    model = PolicyModel.initialize(
        ModelConfig(input_dim=dim, hidden=8), seed=data.draw(st.integers(0, 99))
    )
    mode = data.draw(st.sampled_from(["argmax", "sample"]))
    seed = data.draw(st.integers(0, 1 << 16))
    budget = data.draw(st.integers(0, 30))
    runs = {}
    for label, strategy in (
        ("reference", ReferencePolicy(model, mode)),
        ("replay", PolicyStrategy(model, mode)),
    ):
        forwards = []
        real = PolicyModel.forward

        def counting(self, graph):
            forwards.append(1)
            return real(self, graph)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PolicyModel, "forward", counting)
            trace = run_budgeted(
                strategy, start, Objective.MIN_WEIGHT, budget,
                config=config, table=table, seed=seed,
            )
        runs[label] = (recorded(trace), len(forwards), trace)
    assert runs["replay"][0] == runs["reference"][0]
    trace = runs["replay"][2]
    moved_from = [s for r, s in zip(trace.records[:-1], trace.states) if r.actions]
    # an argmax run runs the model once per distinct state it steps from
    expected = len(set(moved_from)) if mode == "argmax" else len(moved_from)
    assert runs["replay"][1] == expected and runs["reference"][1] == len(moved_from)


def test_greedy_validates_each_distinct_state_once(hexagon, hexagon_table, monkeypatch):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    validated = count_validations(monkeypatch)
    trace = run_budgeted(
        make_strategy("greedy"), fan, Objective.MIN_WEIGHT, 40,
        config=hexagon, table=hexagon_table,
    )
    arrivals = flipped_arrivals(trace)
    # greedy settles into a cycle, so most of its 40 arrivals are revisits
    assert len(arrivals) == 40 and len(set(arrivals)) < 10
    assert sorted(validated) == sorted(set(arrivals))


@pytest.mark.parametrize("mode", ["greedy", "argmax"])
def test_a_replaying_walk_steps_and_scans_once_per_state(
    mode, hexagon, hexagon_table, monkeypatch
):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    if mode == "greedy":
        strategy = make_strategy("greedy")
    else:
        model = PolicyModel.initialize(ModelConfig(input_dim=2, hidden=8), seed=1)
        strategy = make_strategy("policy", model=model, params={"mode": mode})
    moved_from, scans = [], []
    real_step, real_scan = strategy.step, search.flippable_circuits

    def step(tri, actions, ctx):
        moved_from.append(tri.canonical_key)
        return real_step(tri, actions, ctx)

    def scan(tri, table):
        scans.append(tri.canonical_key)
        return real_scan(tri, table)

    strategy.step = step
    monkeypatch.setattr(search, "flippable_circuits", scan)
    trace = run_budgeted(
        strategy, fan, Objective.MIN_WEIGHT, 40, config=hexagon, table=hexagon_table
    )
    # 40 steps on the hexagon's 14 triangulations return to states; a return
    # replays the move made there
    walked = [state.canonical_key for state in trace.states[:-1]]
    assert moved_from == list(dict.fromkeys(walked)) and len(moved_from) < len(walked)
    # the records count every state's flips without a list; the walk lists
    # them only for the strategy
    assert len(scans) == len(moved_from)


@pytest.mark.parametrize("name", ["greedy", "random_walk"])
def test_invalid_state_raises_on_its_first_arrival(name, hexagon, hexagon_table, monkeypatch):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])

    def run(budget):
        return run_budgeted(
            make_strategy(name), fan, Objective.MIN_WEIGHT, budget,
            config=hexagon, table=hexagon_table, seed=5,
        )

    trace = run(40)
    arrivals = flipped_arrivals(trace)
    # a state the run returns to, and the step of its first arrival
    revisited = next(key for key in arrivals if arrivals.count(key) > 1)
    first = next(
        r.step for r, s in zip(trace.records, trace.states)
        if r.action_id is not None and s.canonical_key == revisited
    )
    validated = count_validations(monkeypatch, fail_key=revisited)
    run(first - 1)
    with pytest.raises(FlipForgeError, match="invalid triangulation"):
        run(first)
    assert validated.count(revisited) == 1


def live_triangulations():
    gc.collect()
    return sum(isinstance(obj, Triangulation) for obj in gc.get_objects())


class CountingBefs(BefsStrategy):
    """Befs that notes, after each step, how many more states are alive than it holds."""

    def reset(self, tri, ctx):
        self.before = live_triangulations()
        self.excess = []
        super().reset(tri, ctx)

    def step(self, tri, actions, ctx):
        result = super().step(tri, actions, ctx)
        held = len(self.visited) + len(self.frontier)
        self.excess.append(live_triangulations() - self.before - held)
        return result


def test_befs_run_holds_no_more_than_its_frontier_and_trace(hexagon, hexagon_table):
    fan = Triangulation([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)])
    strategy = CountingBefs(memory_cap=2)
    run_budgeted(strategy, fan, Objective.MIN_WEIGHT, 12, config=hexagon, table=hexagon_table)
    # alive: the visited states, which the trace keeps, and the capped frontier
    assert len(strategy.excess) == 12 and max(strategy.excess) <= 0


@pytest.mark.parametrize("dim", [2, 3, 4])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_one_heap_walks_as_the_stack_dfs_and_the_counter_befs(dim, data):
    config, table, start = draw_start(dim, data)
    objective = data.draw(
        st.sampled_from([Objective.MIN_WEIGHT, Objective.MIN_SIMPLICES, Objective.MIN_DIAMETER])
    )
    budget = data.draw(st.integers(0, 40))
    cap = data.draw(st.integers(1, 5))
    pairs = (
        (StackDfs(), make_strategy("dfs")),
        (CounterBefs(), make_strategy("befs")),
        (CounterBefs(memory_cap=cap), make_strategy("befs", params={"memory_cap": cap})),
    )
    for oracle, live in pairs:
        want = run_budgeted(oracle, start, objective, budget, config=config, table=table)
        got = run_budgeted(live, start, objective, budget, config=config, table=table)
        assert recorded(got) == recorded(want), live.name
        assert [t.canonical_key for t in got.states] == [t.canonical_key for t in want.states]
        # the live strategy knows states by their masks on the table's simplex index
        assert {table.index.decode(m) for m in live.visited} == oracle.visited, live.name
