"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Criteria 1-5 and 8-10 are here, each oracle-checked and fast.  Criteria 6
and 7, a desk-scale training protocol for the learned flip ranking and its
ablations, have no test yet (ROADMAP, "the learned ranking, tested
zero-shot").
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import flipforge as ff
from flipforge import autodiff as ad
from flipforge.datagen import initial_triangulation
from flipforge.errors import DegenerateHeights
from flipforge.flips import (
    apply_flip,
    enumerate_circuits,
    enumerate_component,
    flippable_circuits,
)
from flipforge.frst import (
    LatticeConfig,
    SamplerConfig,
    is_frst,
    sample_frsts,
)
from flipforge.io import read_point_config
from flipforge.objectives import Objective, ObjectiveCache, evaluate
from flipforge.policy import (
    ModelConfig,
    PolicyModel,
    actor_logits,
    encode,
    state_graph,
    value_estimate,
)
from flipforge.search import make_strategy, run_budgeted
from flipforge.triangulation import Triangulation, is_regular, regular_from_heights, validate

from conftest import convex_polygon
from grad_check import finite_diff_check
from test_frst import find_keys
from walk_oracle import reverse_action


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_enumeration_oracle(cube, cube_table, cube_corner_tri):
    started = time.monotonic()
    catalan = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429}
    counts = {}
    for n, expected in catalan.items():
        config = convex_polygon(n)
        table = enumerate_circuits(config)
        fan = Triangulation([(0, i, i + 1) for i in range(1, n - 1)])
        result = enumerate_component(fan, table)
        counts[n] = len(result.states)
        assert counts[n] == expected, f"n-gon {n}: {counts[n]} != {expected}"
    ngon_elapsed = time.monotonic() - started

    started = time.monotonic()
    from test_flips import cube_triangulations_bruteforce

    brute = cube_triangulations_bruteforce(cube)
    component = enumerate_component(cube_corner_tri, cube_table)
    cube_elapsed = time.monotonic() - started
    ok = (
        {frozenset(t.simplices) for t in component.states.values()} == brute
        and ngon_elapsed < 60
        and cube_elapsed < 60
    )
    report(
        "criterion 1 (enumeration oracle)",
        ok,
        f"n-gons {list(counts.values())} in {ngon_elapsed:.1f}s; "
        f"cube {len(component.states)} states (brute force {len(brute)}) in {cube_elapsed:.1f}s",
    )


def test_criterion_02_flip_uniqueness(cube, cube_table, cube_corner_tri):
    rnd = random.Random(20250810)
    cross4d = ff.PointConfig(
        4, [tuple(s * int(i == a) for i in range(4)) for a in range(4) for s in (1, -1)]
    )
    cross4d_table = enumerate_circuits(cross4d)
    cross4d_start = Triangulation(
        [tuple(sorted({0, 1} | set(rest))) for rest in itertools.product((2, 3), (4, 5), (6, 7))]
    )
    pairs = violations = 0
    involution_checks = 0
    for config, table, start, trials in (
        (cube, cube_table, cube_corner_tri, 24),
        (cross4d, cross4d_table, cross4d_start, 10),
    ):
        for _ in range(trials):
            current = start
            for _step in range(25):
                actions = flippable_circuits(current, table)
                per_circuit = {}
                for a in actions:
                    per_circuit.setdefault(a.circuit.vertices, []).append(a)
                violations += sum(1 for v in per_circuit.values() if len(v) > 1)
                pairs += len(table.circuits)
                for action in actions:
                    flipped = apply_flip(current, action)
                    back = apply_flip(
                        flipped, reverse_action(flipped, table, action)
                    )
                    if back.canonical_key != current.canonical_key:
                        violations += 1
                    involution_checks += 1
                if not actions:
                    break
                current = apply_flip(current, actions[rnd.randrange(len(actions))])
    ok = pairs >= 10_000 and violations == 0
    report(
        "criterion 2 (flip uniqueness)",
        ok,
        f"{pairs} state-circuit pairs, {involution_checks} involutions, {violations} violations",
    )


def test_criterion_03_validity_across_strategies(hexagon, bipyramid, lattice_square):
    matrix = []
    for config in (hexagon, bipyramid, lattice_square):
        table = enumerate_circuits(config)
        start = initial_triangulation(config)
        matrix.append((config, table, start))
    checked = bad = 0
    for config, table, start in matrix:
        for name in ("greedy", "dfs", "befs", "anneal", "random_walk"):
            for objective in (Objective.MIN_WEIGHT, Objective.MIN_SIMPLICES, Objective.MIN_DIAMETER):
                trace = run_budgeted(
                    make_strategy(name),
                    start,
                    objective,
                    30,
                    config=config,
                    table=table,
                    seed=17,
                )
                for state in trace.states:
                    checked += 1
                    if not validate(state, config).ok:
                        bad += 1
    ok = bad == 0 and checked > 0
    report("criterion 3 (validity)", ok, f"{checked} visited states, {bad} invalid")


def test_criterion_04_regularity_roundtrip(
    unit_square, hexagon, bipyramid, mother_config, mother_nonregular
):
    rnd = random.Random(31415)
    from fractions import Fraction

    certified = 0
    for config in (unit_square, hexagon, bipyramid):
        done = 0
        while done < 100:
            heights = [Fraction(rnd.randint(-500, 500), 128) for _ in range(config.n)]
            try:
                tri = regular_from_heights(config, heights)
            except DegenerateHeights:
                continue
            done += 1
            flag, witness = is_regular(tri, config)
            assert flag, "lifted triangulation not certified regular"
            assert regular_from_heights(config, witness).canonical_key == tri.canonical_key
            certified += 1
    flag, witness = is_regular(mother_nonregular, mother_config)
    ok = certified == 300 and not flag and witness is None
    report(
        "criterion 4 (regularity round trip)",
        ok,
        f"{certified}/300 lifts certified; documented non-regular fixture infeasible: {not flag}",
    )


def test_criterion_05_gradient_checks(unit_square):
    rng = np.random.default_rng(515)
    table = enumerate_circuits(unit_square)
    tri = Triangulation([(0, 1, 2), (0, 2, 3)])
    actions = flippable_circuits(tri, table)
    worst = 0.0

    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(4)
    x = rng.standard_normal((3, 6))

    def linear(params):
        return ad.tensor_sum(
            ad.square(ad.add(ad.matmul(ad.constant(x), params["w"]), params["b"]))
        )

    err, ok = finite_diff_check(linear, {"w": w, "b": b}, tolerance=1e-7, step=1e-6)
    assert ok, f"linear layer gradcheck {err}"

    model = PolicyModel.initialize(ModelConfig(input_dim=2, hidden=10), seed=6)

    def group(names):
        return {k: model.params[k] for k in model.params if any(k.startswith(p) for p in names)}

    def full_params(params):
        return {k: (params[k] if k in params else ad.Tensor(v)) for k, v in model.params.items()}

    def enc_loss(params):
        p = full_params(params)
        graph = state_graph([(unit_square, tri, actions)], model.config.actor_kind)
        return ad.tensor_sum(ad.square(encode(graph, p, model.config).hidden))

    def logit_loss(params):
        p = full_params(params)
        enc = encode(state_graph([(unit_square, tri, actions)], "snn"), p, model.config)
        return ad.tensor_sum(ad.square(actor_logits(enc, p, model.config)))

    def value_loss(params):
        p = full_params(params)
        enc = encode(state_graph([(unit_square, tri, actions)], "snn"), p, model.config)
        return ad.square(value_estimate(enc, p, model.config))

    def losses_loss(params):
        # end-to-end surrogate: policy + value + entropy terms on one transition
        p = full_params(params)
        enc = encode(state_graph([(unit_square, tri, actions)], "snn"), p, model.config)
        logits = actor_logits(enc, p, model.config)
        probs = ad.softmax_masked(logits)
        safe = ad.clip(probs, 1e-12, 1.0)
        logp = ad.log(safe)
        entropy_neg = ad.tensor_sum(ad.mul(probs, logp))
        chosen = ad.tensor_sum(ad.mul(logp, ad.constant(np.eye(len(actions))[:, :1])))
        ratio = ad.exp(ad.sub(chosen, ad.constant(-0.3)))
        surrogate = ad.minimum(
            ad.mul(ratio, ad.constant(0.7)),
            ad.mul(ad.clip(ratio, 0.9, 1.1), ad.constant(0.7)),
        )
        v = value_estimate(enc, p, model.config)
        return ad.add(
            ad.add(ad.neg(surrogate), ad.square(ad.sub(v, ad.constant(0.4)))),
            ad.scale(entropy_neg, 0.01),
        )

    checks = [
        ("egnn encoder", enc_loss, group(["embed", "enc"])),
        ("actor", logit_loss, group(["actor"])),
        ("value head", value_loss, group(["value"])),
        ("end-to-end losses", losses_loss, group(["embed", "enc", "actor", "value"])),
    ]
    for name, fn, params in checks:
        err, ok = finite_diff_check(fn, params, tolerance=1e-4, max_coords=6, rng=rng)
        worst = max(worst, err)
        assert ok, f"{name} gradcheck {err}"

    nls = PolicyModel.initialize(
        ModelConfig(input_dim=2, hidden=10, actor_kind="nls_accept"), seed=7
    )

    def accept_loss(params):
        p = {k: (params[k] if k in params else ad.Tensor(v)) for k, v in nls.params.items()}
        enc = encode(state_graph([(unit_square, tri, actions)], "nls_accept"), p, nls.config)
        from flipforge.policy import nls_accept_probability

        return ad.square(nls_accept_probability(enc, p))

    err, ok = finite_diff_check(
        accept_loss,
        {k: nls.params[k] for k in nls.params if k.startswith("accept")},
        tolerance=1e-4,
        max_coords=6,
        rng=rng,
    )
    worst = max(worst, err)
    assert ok, f"acceptance head gradcheck {err}"
    report("criterion 5 (gradient checks)", True, f"max relative error {worst:.2e} < 1e-4")


def test_criterion_08_frst_desk(lattice_square):
    results = []
    for name in ("square2d", "simplex3d", "octahedron3d"):
        config = read_point_config(ff.fixture_path(name))
        lattice = LatticeConfig.from_config(config)
        table = enumerate_circuits(config)
        component = enumerate_component(initial_triangulation(config), table, limit=200_000)
        assert not component.truncated
        oracle = {
            t.canonical_key for t in component.states.values() if is_frst(t, lattice)
        }
        sampler = SamplerConfig(max_iterations=1024, retry_limit=50)
        ledger = sample_frsts(
            lattice, sampler, make_strategy("random_walk"), np.random.default_rng(99), table=table
        )
        fired_within_cap = len(ledger.entries) < sampler.max_iterations
        results.append((name, find_keys(ledger) == oracle, len(oracle), fired_within_cap))
    ok = all(match and fired for _n, match, _c, fired in results)
    report(
        "criterion 8 (FRST desk test)",
        ok,
        "; ".join(f"{n}: {c} FRSTs recovered={m} retry-rule fired={f}" for n, m, c, f in results),
    )


def test_criterion_09_determinism(tmp_path):
    from flipforge.cli import main

    def run(cmd):
        assert main([str(c) for c in cmd]) == 0

    # two gen runs with identical flags into separate directories, then every
    # other command twice against one shared dataset, varying only --out
    datasets = []
    for tag in ("data_a", "data_b"):
        run(["gen", "--dim", 2, "--samples", 6, "--count", 2, "--seed", 11, "--out", tmp_path / tag])
        datasets.append(tmp_path / tag)
    data = datasets[0]
    digests = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        run(
            [
                "train", "--data", data, "--objective", "min_weight",
                "--iterations", 2, "--envs", 2, "--horizon", 5, "--hidden", 8,
                "--seed", 3, "--out", base / "train",
            ]
        )
        run(
            [
                "search", "--data", data, "--objective", "min_weight",
                "--strategy", "anneal", "--budget", 25, "--seed", 5, "--out", base / "search",
            ]
        )
        run(
            [
                "sample-frst", "--polytope", ff.fixture_path("triangle2d"),
                "--locator", "random-walk", "--max-iterations", 120, "--seed", 7,
                "--out", base / "frst",
            ]
        )
        blob = {}
        for path in sorted((tmp_path / tag).rglob("*")):
            if path.is_file():
                blob[str(path.relative_to(tmp_path / tag))] = path.read_bytes()
        digests.append(blob)
    for path in sorted(datasets[0].iterdir()):
        twin = datasets[1] / path.name
        digests[0][f"gen/{path.name}"] = path.read_bytes()
        digests[1][f"gen/{path.name}"] = twin.read_bytes() if twin.exists() else b""
    same_names = sorted(digests[0]) == sorted(digests[1])
    mismatched = [k for k in digests[0] if digests[0][k] != digests[1].get(k)]
    ok = same_names and not mismatched
    report(
        "criterion 9 (determinism)",
        ok,
        f"{len(digests[0])} files byte-identical across reruns"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )


def test_criterion_10_baseline_semantics(trapezoid):
    table = enumerate_circuits(trapezoid)
    long_diag = Triangulation([(0, 1, 3), (1, 2, 3)])
    trace = run_budgeted(
        make_strategy("greedy"),
        long_diag,
        Objective.MIN_WEIGHT,
        1,
        config=trapezoid,
        table=table,
        seed=0,
    )
    optimum = evaluate(Objective.MIN_WEIGHT, Triangulation([(0, 1, 2), (0, 2, 3)]), trapezoid)
    greedy_ok = trace.best_value == pytest.approx(optimum) and trace.records[1].value == pytest.approx(optimum)

    # SA acceptance frequencies over 10^4 proposals at fixed temperature
    from flipforge.search import AnnealStrategy, SearchContext

    cache = ObjectiveCache()
    short_diag = Triangulation([(0, 1, 2), (0, 2, 3)])
    delta = evaluate(Objective.MIN_WEIGHT, long_diag, trapezoid, cache) - evaluate(
        Objective.MIN_WEIGHT, short_diag, trapezoid, cache
    )
    scale = abs(evaluate(Objective.MIN_WEIGHT, short_diag, trapezoid, cache))
    temperature = 0.04
    expected = min(1.0, math.exp(-(delta / scale) / temperature))
    strategy = AnnealStrategy(initial_temperature=temperature, decay=1.0)
    ctx = SearchContext(
        config=trapezoid,
        table=table,
        objective=Objective.MIN_WEIGHT,
        cache=cache,
        seed=2024,
        budget=10_000,
    )
    strategy.reset(short_diag, ctx)
    trials = 10_000
    accepted = 0
    for _ in range(trials):
        actions = flippable_circuits(short_diag, table)
        _nxt, action = strategy.step(short_diag, actions, ctx)
        accepted += action is not None
    se = math.sqrt(expected * (1 - expected) / trials)
    sa_ok = abs(accepted / trials - expected) <= 3 * se
    ok = greedy_ok and sa_ok
    report(
        "criterion 10 (baseline semantics)",
        ok,
        f"greedy one-flip optimum={greedy_ok}; SA acceptance {accepted / trials:.4f} "
        f"vs rule {expected:.4f} (3se={3 * se:.4f})",
    )
