"""What the benchmark's tracer relies on in the program, checked without editing it.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` and
counts ``lp.feasible_point`` results that are ``None`` as infeasible solves.
The train_3d workload counts ``len(collect_rollouts(...).transitions)`` as
its operations, expecting envs x horizon of them when no episode ends early,
and traces the policy's forward functions on batches of one.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from flipforge import lp, policy, training
from flipforge.datagen import seed_triangulations
from flipforge.flips import enumerate_circuits, flippable_circuits
from flipforge.objectives import Objective
from flipforge.search import SearchContext

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_tracer().TARGETS
    assert "lp" in targets and "feasible_point" in targets["lp"]
    for module_name, functions in targets.items():
        module = importlib.import_module(f"flipforge.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_cli_import_registers_every_traced_module():
    # the tracer reads each traced module from sys.modules after importing flipforge.cli;
    # a module cli loads lazily must still be registered there by then
    probe = """
import json, sys
targets = json.loads(sys.argv[1])
import flipforge.cli
missing = [m for m in targets if f"flipforge.{m}" not in sys.modules]
broken = [
    f"{m}.{name}"
    for m, names in targets.items() if m not in missing
    for name in names
    if not callable(getattr(sys.modules[f"flipforge.{m}"], name, None))
]
print(json.dumps([missing, broken]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(lp.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(load_tracer().TARGETS)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(done.stdout) == [[], []]


def test_feasible_point_returns_none_when_infeasible():
    # w >= 1 and -w >= 0 cannot both hold
    assert lp.feasible_point([[1], [-1]], [1, 0]) is None
    farkas = []
    assert lp.feasible_point([[1], [-1]], [1, 0], farkas) is None
    assert farkas and lp.is_farkas([[1], [-1]], [1, 0], farkas)
    assert lp.feasible_point([[1], [-1]], [1, -2]) is not None


def traced(run):
    """``run()`` under an installed tracer; returns (result, tracer)."""
    tracer = load_tracer().Tracer().install()
    try:
        return run(), tracer
    finally:
        tracer.uninstall()


def test_rollout_transitions_are_envs_times_horizon(hexagon):
    # every hexagon triangulation has a flip, so no episode ends early
    env = SearchContext(hexagon, enumerate_circuits(hexagon), Objective.MIN_WEIGHT)
    seeds = seed_triangulations(hexagon, cap=5)
    trainer = training.TrainerConfig(horizon=5, num_envs=3, seed=1)
    model = policy.PolicyModel.initialize(policy.ModelConfig(input_dim=2, hidden=8), seed=2)
    starts = [(env, seeds[i % len(seeds)]) for i in range(trainer.num_envs)]

    def rollout():
        return training.collect_rollouts(
            model, starts, trainer, training.VisitCounter(), np.random.default_rng(0)
        )

    buffer, tracer = traced(rollout)
    assert len(buffer.transitions) == 3 * 5
    assert tracer.counters["training.collect_rollouts.transitions"] == 15
    # one forward pass per lockstep step, and the value head on its encoding
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("policy.encode") == 5
    assert names.count("policy.actor_logits") == 5
    assert names.count("policy.value_estimate") == 5


def test_batch_of_one_forward_through_the_tracer(hexagon):
    table = enumerate_circuits(hexagon)
    tri = seed_triangulations(hexagon, cap=1)[0]
    actions = flippable_circuits(tri, table)
    model = policy.PolicyModel.initialize(policy.ModelConfig(input_dim=2, hidden=8), seed=3)
    params = model._const_params()

    def forward():
        graph = policy.state_graph([(hexagon, tri, actions)], "snn")
        enc = policy.encode(graph, params, model.config)
        return (
            policy.actor_logits(enc, params, model.config).data,
            policy.value_estimate(enc, params, model.config).data,
            model.forward(graph)[1],
        )

    plain = forward()
    wrapped, tracer = traced(forward)
    for got, want in zip(wrapped, plain):
        assert np.array_equal(got, want)
    assert plain[0].shape == (len(actions), 1) and plain[1].shape == (1, 1)
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("policy.encode") == 2
    assert names.count("policy.actor_logits") == 2
    assert names.count("policy.value_estimate") == 1
