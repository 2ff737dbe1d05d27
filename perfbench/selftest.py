"""The benchmark's own tests, on small versions of the three workloads.

Run from the root of a flipforge checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's main suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import GenDataset, tree_digest  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY_DATA = GenDataset(samples=8, profile=(6, 7), seed_cap=2)
SEED = 999


def tiny_workloads():
    full = bench.WORKLOADS
    return {
        "search_3d": replace(full["search_3d"], dataset=TINY_DATA, budget=3, ref_limit=5),
        "frst_prism3d": replace(full["frst_prism3d"], iterations=2),
        "train_3d": replace(
            full["train_3d"], dataset=TINY_DATA, iterations=1, envs=2, horizon=2, hidden=8
        ),
    }


def run_main(monkeypatch, workload, trace):
    monkeypatch.setattr(bench, "WORKLOADS", tiny_workloads())
    stdout = io.StringIO()
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(stdout):
        code = bench.main(argv)
    return code, stdout.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(tiny_workloads()))
def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, workload):
    code, lines = run_main(monkeypatch, workload, trace=0)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(tiny_workloads()))
def test_traced_run_matches_untraced_outputs(monkeypatch, workload):
    # the run compares the traced and untraced outputs byte for byte and
    # counts a difference as a failed operation
    code, lines = run_main(monkeypatch, workload, trace=1)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_workload_inputs_are_deterministic_per_seed():
    a = TINY_DATA.gen_seed(SEED)
    assert a == TINY_DATA.gen_seed(SEED)
    assert a != TINY_DATA.gen_seed(SEED + 1)
    digests = []
    for k in range(2):
        work = BENCH / "_work" / f"selftest-inputs-{k}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        r = bench.Run(tiny_workloads()["search_3d"], SEED, work)
        r.cli(TINY_DATA.argv(a, work / "data"))
        digests.append(tree_digest(work / "data"))
        shutil.rmtree(work)
    assert digests[0] == digests[1]


def test_benchmark_json_names_every_workload_with_a_reason():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"].strip() and "\n" not in w["why"]


def test_tracer_wraps_every_binding_and_self_times_add_up():
    import flipforge.flips as flips
    import flipforge.frst as frst
    import flipforge.search as search
    import flipforge.training as training
    from flipforge.datagen import initial_triangulation
    from flipforge.geometry import PointConfig

    original = flips.flippable_circuits
    t = tracer.Tracer().install()
    try:
        wrapped = flips.flippable_circuits
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert search.flippable_circuits is wrapped
        assert training.flippable_circuits is wrapped
        assert frst.flippable_circuits is wrapped

        config = PointConfig(2, [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)], is_lattice=True)

        def work():
            table = flips.enumerate_circuits(config)
            return flips.flippable_circuits(initial_triangulation(config), table)

        actions = t.span("cli.selftest", work)
    finally:
        t.uninstall()
    assert flips.flippable_circuits is original
    selfs = tracer.self_times(t.spans)
    assert tracer.check_spans(t.names, t.spans, selfs) == []
    _, start, end, _ = t.spans[0]
    assert sum(selfs) == pytest.approx(end - start, rel=1e-9)
    summary = tracer.summarize([{"names": t.names, "spans": t.spans, "counters": t.counters}])
    assert summary["flips.flippable_circuits.calls"] == 1
    assert summary["flips.flippable_circuits.actions"] == len(actions)


def test_fails_without_the_program():
    bare = BENCH / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_failed_output_check_fails_the_run(monkeypatch):
    from workloads import SearchWorkload

    monkeypatch.setattr(SearchWorkload, "check", lambda self, data, out, verified: ["broken"])
    code, lines = run_main(monkeypatch, "search_3d", trace=0)
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"] and result["failed"] == 1


def test_span_check_catches_unclosed_and_escaping_spans():
    names = ["cli.x", "flips.apply_flip"]
    good = [[0, 1.0, 4.0, -1], [1, 2.0, 3.0, 0]]
    assert tracer.check_spans(names, good, tracer.self_times(good)) == []
    for bad in (
        [[0, 1.0, 4.0, -1], [1, 2.0, 0.0, 0]],  # child never closed
        [[0, 1.0, 4.0, -1], [1, 2.0, 5.0, 0]],  # child ends after its parent
        [[1, 1.0, 4.0, -1]],  # root that is not a cli span
    ):
        assert tracer.check_spans(names, bad, tracer.self_times(bad))


def test_search_check_catches_a_tampered_run_log(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", tiny_workloads())
    w = bench.WORKLOADS["search_3d"]
    work = BENCH / "_work" / "selftest-replay"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = bench.Run(w, SEED, work)
    r.cli(TINY_DATA.argv(TINY_DATA.gen_seed(SEED), work / "data"))
    r.cli(w.command(work / "data", work / "out", 1))
    assert w.check(work / "data", work / "out", {}) == []
    log = sorted((work / "out").glob("runlog_*.jsonl"))[0]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    records[-1]["value"] += 1.0
    log.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert w.check(work / "data", work / "out", {})
    shutil.rmtree(work)
