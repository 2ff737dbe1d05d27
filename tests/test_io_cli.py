import filecmp
import json
import os
from pathlib import Path

import numpy as np
import pytest

import flipforge as ff
from flipforge import io
from flipforge.cli import main
from flipforge.errors import CheckpointError, FormatError
from flipforge.policy import ModelConfig, PolicyModel
from flipforge.triangulation import Triangulation


def test_point_config_roundtrip(tmp_path, hexagon):
    path = tmp_path / "hexagon.poly"
    io.write_point_config(path, hexagon)
    assert io.read_point_config(path) == hexagon


def test_point_config_rational_and_comments(tmp_path):
    text = "# header comment\n2 3 0\n1/2 0  # inline\n0 1/3\n-2 5\n"
    config = io.parse_point_config(text)
    assert config.points[0][0] == ff.Rational(1, 2)
    assert not config.is_lattice


def test_point_config_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        io.parse_point_config("2 2 0\n1 2\nbad token\n")
    assert "line 3" in str(err.value)
    with pytest.raises(FormatError):
        io.parse_point_config("2 5 0\n1 2\n")
    with pytest.raises(FormatError):
        io.parse_point_config("1 2 7\n0\n1\n")


def test_triangulation_roundtrip(tmp_path):
    tri = Triangulation([(0, 2, 3), (0, 1, 2)])
    path = tmp_path / "t.tri"
    io.write_triangulation(path, tri)
    assert io.read_triangulation(path).canonical_key == tri.canonical_key
    # canonical file: rewriting the parsed value is byte-identical
    io.write_triangulation(tmp_path / "t2.tri", io.read_triangulation(path))
    assert (tmp_path / "t.tri").read_bytes() == (tmp_path / "t2.tri").read_bytes()


def test_triangulation_set_roundtrip(tmp_path):
    tris = [Triangulation([(0, 1, 2), (0, 2, 3)]), Triangulation([(0, 1, 3), (1, 2, 3)])]
    path = tmp_path / "seeds.tri"
    io.write_triangulation_set(path, tris)
    back = io.read_triangulation_set(path)
    assert [t.canonical_key for t in back] == [t.canonical_key for t in tris]


def test_checkpoint_roundtrip(tmp_path):
    model = PolicyModel.initialize(ModelConfig(input_dim=3, hidden=6), seed=4)
    path = tmp_path / "model.ckpt"
    io.write_checkpoint(path, model, extra={"iteration": 7})
    loaded, extra = io.read_checkpoint(path)
    assert extra == {"iteration": 7}
    assert loaded.config == model.config
    assert sorted(loaded.params) == sorted(model.params)
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    # identical bytes when written again
    io.write_checkpoint(tmp_path / "again.ckpt", loaded, extra={"iteration": 7})
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    model = PolicyModel.initialize(ModelConfig(input_dim=2, hidden=4), seed=0)
    path = tmp_path / "model.ckpt"
    io.write_checkpoint(path, model)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        io.read_checkpoint(tmp_path / "cut.ckpt")
    (tmp_path / "junk.ckpt").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError):
        io.read_checkpoint(tmp_path / "junk.ckpt")


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("gen", "--dim", 2, "--samples", 6, "--count", 2, "--seed", 7, "--out", out) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_gen_usage_error(tmp_path):
    assert run_cli("gen", "--dim", 2, "--samples", 6, "--count", 0, "--seed", 1, "--out", tmp_path / "x") == 2


def test_cli_enumerate_square(tmp_path, capsys):
    assert run_cli("enumerate", ff.fixture_path("triangle2d")) == 0
    out = capsys.readouterr().out
    assert "states: 2" in out
    assert "edges: 1" in out
    assert "truncated: false" in out


def test_cli_enumerate_limit_truncates(tmp_path, capsys):
    square = ff.fixture_path("square2d")
    assert run_cli("enumerate", square, "--limit", 3) == 0
    out = capsys.readouterr().out
    assert "truncated: true" in out


def test_cli_enumerate_missing_file():
    assert run_cli("enumerate", "/nonexistent/file.poly") == 3


def test_cli_enumerate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("2 2 0\n1 1\nnope nope\n")
    assert run_cli("enumerate", bad) == 3


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = run_cli("gen", "--dim", 2, "--samples", 6, "--count", 2, "--seed", 3, "--out", out)
    assert code == 0
    return out


def test_cli_search_square_zero_gap(small_dataset, tmp_path, capsys):
    out = tmp_path / "search"
    code = run_cli(
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "greedy", "--budget", 60, "--starts", 2, "--seed", 5, "--out", out,
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_gap"] == pytest.approx(0.0)
    assert summary["references_exact"]
    assert (out / "gap_table.tsv").exists()
    logs = list(out.glob("runlog_*.jsonl"))
    assert logs
    record = json.loads(logs[0].read_text().splitlines()[0])
    assert set(record) == {"step", "action", "value", "best", "actions"}


@pytest.fixture(scope="module")
def small_dataset_3d(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds3"
    code = run_cli("gen", "--dim", 3, "--samples", 8, "--count", 2, "--seed", 4, "--out", out)
    assert code == 0
    return out


@pytest.mark.parametrize("strategy", ("greedy", "anneal", "random_walk"))
@pytest.mark.parametrize("budget", (0, 1, 25))
def test_cli_search_logs_replay_to_their_action_counts(
    small_dataset_3d, tmp_path, strategy, budget
):
    from flipforge.flips import apply_flip, enumerate_circuits, flippable_circuits

    data = small_dataset_3d
    out = tmp_path / "search"
    code = run_cli(
        "search", "--data", data, "--objective", "min_weight",
        "--strategy", strategy, "--budget", budget, "--starts", 2, "--seed", 7, "--out", out,
    )
    assert code == 0
    logs = sorted(out.glob("runlog_*.jsonl"))
    assert logs
    for path in logs:
        cid, start = path.stem[len("runlog_"):].rsplit("_", 1)
        config = io.read_point_config(data / f"config_{cid}.poly")
        table = enumerate_circuits(config)
        tri = io.read_triangulation_set(data / f"seeds_{cid}.tri")[int(start)]
        for record in io.read_jsonl(path):
            if record["action"] is not None:
                vertices, side = tuple(record["action"][0]), record["action"][1]
                (action,) = [
                    a
                    for a in flippable_circuits(tri, table)
                    if a.circuit.vertices == vertices and a.realized_side == side
                ]
                tri = apply_flip(tri, action)
            # a fresh state scans every circuit
            fresh = Triangulation(tri.simplices)
            assert record["actions"] == len(flippable_circuits(fresh, table)), record["step"]


def test_cli_search_requires_checkpoint_for_policy(small_dataset, tmp_path):
    code = run_cli(
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "policy", "--out", tmp_path / "x",
    )
    assert code == 3


def test_cli_train_eval_roundtrip(small_dataset, tmp_path):
    train_out = tmp_path / "train"
    code = run_cli(
        "train", "--data", small_dataset, "--objective", "min_weight",
        "--iterations", 2, "--envs", 2, "--horizon", 4, "--hidden", 8,
        "--seed", 1, "--out", train_out,
    )
    assert code == 0
    ckpt = train_out / "checkpoint_final.ckpt"
    assert ckpt.exists()
    curve = [json.loads(l) for l in (train_out / "curve.jsonl").read_text().splitlines()]
    assert [c["iteration"] for c in curve] == [1, 2]

    eval_out = tmp_path / "eval"
    code = run_cli(
        "eval", "--data", small_dataset, "--objective", "min_weight",
        "--budget", 10, "--checkpoint", ckpt, "--seed", 2, "--out", eval_out,
    )
    assert code == 0
    summary = json.loads((eval_out / "summary.json").read_text())
    assert summary["strategy"] == "policy"


def test_cli_train_zero_iterations(small_dataset, tmp_path):
    out = tmp_path / "train0"
    code = run_cli(
        "train", "--data", small_dataset, "--objective", "min_weight",
        "--iterations", 0, "--envs", 2, "--horizon", 4, "--hidden", 8,
        "--seed", 1, "--out", out,
    )
    assert code == 0
    assert (out / "checkpoint_final.ckpt").exists()
    assert (out / "curve.jsonl").read_text() == ""


def test_cli_eval_dimension_mismatch(small_dataset, tmp_path):
    model = PolicyModel.initialize(ModelConfig(input_dim=3, hidden=4), seed=0)
    ckpt = tmp_path / "wrongdim.ckpt"
    io.write_checkpoint(ckpt, model)
    code = run_cli(
        "eval", "--data", small_dataset, "--objective", "min_weight",
        "--budget", 5, "--checkpoint", ckpt, "--out", tmp_path / "out",
    )
    assert code == 4


def test_cli_eval_missing_checkpoint(small_dataset, tmp_path):
    code = run_cli(
        "eval", "--data", small_dataset, "--objective", "min_weight",
        "--budget", 5, "--checkpoint", tmp_path / "missing.ckpt", "--out", tmp_path / "o",
    )
    assert code == 3


def test_cli_sample_frst_and_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run_cli(
            "sample-frst", "--polytope", ff.fixture_path("triangle2d"),
            "--locator", "random-walk", "--max-iterations", 200,
            "--seed", 9, "--out", out,
        )
        assert code == 0
        outs.append(out)
    for fname in ("ledger.jsonl", "frsts.tri", "summary.json", "resolved_config.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["distinct_frsts"] == 1
    ledger = [json.loads(l) for l in (outs[0] / "ledger.jsonl").read_text().splitlines()]
    assert set(ledger[0]) == {"iteration", "elapsed_ms", "new_key", "cumulative_count"}


@pytest.mark.parametrize(
    "points, message",
    [
        ([(x, y) for x in range(3) for y in range(2)], "the origin must be interior to the polytope"),
        (
            [(x, y) for x in (-1, 0, 1) for y in range(-2, 3)],
            "the origin must be the only interior lattice point",
        ),
    ],
    ids=["origin_on_boundary", "second_interior_point"],
)
def test_cli_sample_frst_rejects_lattices_without_fine_star_triangulations(
    tmp_path, capsys, points, message
):
    poly = tmp_path / "lattice.poly"
    io.write_point_config(poly, ff.PointConfig(2, points))
    code = run_cli(
        "sample-frst", "--polytope", poly, "--locator", "random-walk", "--max-iterations", 40,
        "--budget", 200, "--seed", 2, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_cli_sample_frst_policy_locator_on_octahedron(tmp_path):
    # lifted starts on the octahedron can leave the origin unused
    data, train = tmp_path / "ds3", tmp_path / "train3"
    assert run_cli("gen", "--dim", 3, "--samples", 7, "--count", 1, "--seed", 3, "--out", data) == 0
    code = run_cli(
        "train", "--data", data, "--objective", "min_weight", "--iterations", 1,
        "--envs", 2, "--horizon", 4, "--hidden", 8, "--seed", 1, "--out", train,
    )
    assert code == 0
    for seed in (0, 1):
        code = run_cli(
            "sample-frst", "--polytope", ff.fixture_path("octahedron3d"),
            "--locator", "policy", "--checkpoint", train / "checkpoint_final.ckpt",
            "--max-iterations", 3, "--seed", seed, "--out", tmp_path / f"frst{seed}",
        )
        assert code == 0


def test_cli_search_determinism(small_dataset, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = run_cli(
            "search", "--data", small_dataset, "--objective", "min_simplices",
            "--strategy", "anneal", "--budget", 30, "--seed", 13, "--out", out,
        )
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_provenance_written(small_dataset):
    payload = json.loads((small_dataset / "resolved_config.json").read_text())
    assert payload["command"] == "gen"
    assert payload["options"]["seed"] == 3


def test_cli_usage_exit_code():
    assert run_cli("unknown-command") == 2
    assert run_cli("search") == 2


def test_cli_search_worker_pool_matches_serial(small_dataset, tmp_path):
    results = {}
    for label, workers in (("serial", "1"), ("pool", "2")):
        out = tmp_path / label
        os.environ["FLIPFORGE_THREADS"] = workers
        try:
            code = run_cli(
                "search", "--data", small_dataset, "--objective", "min_weight",
                "--strategy", "greedy", "--budget", 20, "--seed", 4, "--out", out,
            )
        finally:
            os.environ.pop("FLIPFORGE_THREADS", None)
        assert code == 0
        results[label] = (out / "gap_table.tsv").read_bytes()
    assert results["serial"] == results["pool"]


def test_ledger_roundtrip(tmp_path):
    records = [
        {"iteration": 1, "elapsed_ms": 1, "new_key": True, "cumulative_count": 1},
        {"iteration": 2, "elapsed_ms": 2, "new_key": False, "cumulative_count": 1},
    ]
    path = tmp_path / "ledger.jsonl"
    io.write_jsonl(path, records)
    back = io.read_jsonl(path)
    assert back == records
    io.write_jsonl(tmp_path / "again.jsonl", back)
    assert path.read_bytes() == (tmp_path / "again.jsonl").read_bytes()
    with pytest.raises(FormatError):
        (tmp_path / "bad.jsonl").write_text("{broken\n")
        io.read_jsonl(tmp_path / "bad.jsonl")


def test_cli_strategy_param_integer_and_internal_error(small_dataset, tmp_path, capsys):
    base = (
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "befs", "--budget", 10,
    )
    assert run_cli(*base, "--strategy-param", "memory_cap=2", "--out", tmp_path / "int") == 0
    payload = json.loads((tmp_path / "int" / "resolved_config.json").read_text())
    assert payload["options"]["strategy_param"] == {"memory_cap": 2}
    capsys.readouterr()
    # an unexpected exception ends in one line and exit 5, not a traceback
    code = run_cli(*base, "--strategy-param", "memory_cap=lots", "--out", tmp_path / "str")
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_cli_search_rejects_invalid_thread_count(
    small_dataset, tmp_path, monkeypatch, capsys, value
):
    monkeypatch.setenv("FLIPFORGE_THREADS", value)
    code = run_cli(
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "greedy", "--budget", 5, "--out", tmp_path / "x",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "FLIPFORGE_THREADS" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()  # rejected before any work


def test_cli_sample_frst_reports_why_it_stopped(tmp_path):
    def summary(name, *options):
        out = tmp_path / name
        code = run_cli(
            "sample-frst", "--polytope", ff.fixture_path("triangle2d"),
            "--locator", "random-walk", "--max-iterations", 200, "--seed", 9,
            *options, "--out", out,
        )
        assert code == 0
        return json.loads((out / "summary.json").read_text())

    # the virtual clock advances 1 ms per iteration, so this stops after 3
    timed = summary("time", "--max-seconds", 0.0025)
    assert timed["iterations"] == 3 and not timed["stopped_by_retries"]
    retried = summary("retries", "--retry-limit", 5)
    assert retried["iterations"] < 200 and retried["stopped_by_retries"]
    capped = summary("cap", "--max-iterations", 4)
    assert capped["iterations"] == 4 and not capped["stopped_by_retries"]


def test_cli_search_frst_reach_gaps_in_native_sense(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen", "--dim", 2, "--samples", 7, "--count", 2, "--seed", 4, "--out", data) == 0
    out = tmp_path / "reach"
    code = run_cli(
        "search", "--data", data, "--objective", "frst_reach", "--strategy", "anneal",
        "--budget", 30, "--starts", 2, "--ref-limit", 100, "--seed", 3, "--out", out,
    )
    assert code == 0
    rows = [line.split("\t") for line in (out / "gap_table.tsv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for _label, _strategy, _objective, best, ref, gap in rows:
        assert float(best) in (0.0, 1.0) and float(ref) in (0.0, 1.0)
        assert float(gap) == float(ref) - float(best)


def test_cli_invalid_flipped_state_is_one_line_exit_5(small_dataset, tmp_path, monkeypatch, capsys):
    import flipforge.search as search

    real = search.apply_flip
    monkeypatch.setattr(search, "apply_flip", lambda tri, a: Triangulation(real(tri, a).simplices[1:]))
    code = run_cli(
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "random_walk", "--budget", 5, "--out", tmp_path / "broken",
    )
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: flip produced an invalid triangulation")
    assert err.count("\n") == 1


@pytest.mark.parametrize("horizon", [0, -3])
def test_cli_train_rejects_nonpositive_horizon(small_dataset, tmp_path, capsys, horizon):
    code = run_cli(
        "train", "--data", small_dataset, "--objective", "min_weight", "--iterations", 1,
        "--envs", 2, "--horizon", horizon, "--hidden", 8, "--out", tmp_path / "h",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "usage error: horizon must be positive\n"
    assert not (tmp_path / "h" / "curve.jsonl").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--checkpoint-every", "0", "checkpoint_every must be positive"),
        ("--lr", "nan", "lr must be positive"),
        ("--lr", "0", "lr must be positive"),
        ("--lr", "-1", "lr must be positive"),
        ("--lr", "inf", "learning_rate must be finite and nonnegative"),
        ("--hidden", "0", "hidden must be positive"),
        ("--hidden", "-2", "hidden must be positive"),
        ("--chebyshev-order", "0", "chebyshev_order must be positive"),
        ("--encoder-layers", "-1", "encoder_layers must be nonnegative"),
    ],
)
def test_cli_train_rejects_invalid_options(small_dataset, tmp_path, capsys, option, value, message):
    options = {"--iterations": "1", "--envs": "2", "--horizon": "2", "--hidden": "8", option: value}
    code = run_cli(
        "train", "--data", small_dataset, "--objective", "min_weight",
        *(x for pair in options.items() for x in pair), "--out", tmp_path / "t",
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "t" / "checkpoint_final.ckpt").exists()


def count_regularity_lps(monkeypatch):
    """Record the constraint rows of every regularity LP solved."""
    from flipforge import lp

    solved = []
    real = lp.feasible_point

    def counting(rows, rhs, farkas=None):
        solved.append(tuple(tuple(row) for row in rows))
        return real(rows, rhs, farkas)

    monkeypatch.setattr(lp, "feasible_point", counting)
    return solved


def test_cli_train_frst_reach_without_reach_episodes_is_a_data_error(
    tmp_path, capsys, monkeypatch
):
    # gen keeps only hull vertices and regular seeds, so every seed is already an FRST
    data = tmp_path / "data"
    assert run_cli("gen", "--dim", 2, "--samples", 7, "--count", 2, "--seed", 4, "--out", data) == 0
    seeds = sum(json.loads((data / "manifest.json").read_text())["seed_counts"].values())
    solved = count_regularity_lps(monkeypatch)
    capsys.readouterr()
    code = run_cli(
        "train", "--data", data, "--objective", "frst_reach", "--iterations", 2,
        "--envs", 4, "--horizon", 8, "--hidden", 16, "--out", tmp_path / "reach",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: every seed is already fine and regular")
    assert err.count("\n") == 1
    assert len(solved) == len(set(solved)) == seeds


def test_cli_train_frst_reach_checks_seeds_through_the_cache(tmp_path, monkeypatch):
    data = tmp_path / "lattice"
    data.mkdir()
    io.write_point_config(data / "config_sq.poly", io.read_point_config(ff.fixture_path("square2d")))
    fan = Triangulation(
        [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (3, 4, 6), (4, 5, 8), (4, 6, 7), (4, 7, 8)]
    )
    corners = Triangulation([(0, 2, 8), (0, 6, 8)])
    io.write_triangulation_set(data / "seeds_sq.tri", [fan, corners])
    io.write_json(
        data / "manifest.json",
        {"spec": {"dim": 2, "samples": 9, "count": 1}, "ids": ["sq"], "vertex_counts": {"sq": 9}},
    )
    solved = count_regularity_lps(monkeypatch)
    code = run_cli(
        "train", "--data", data, "--objective", "frst_reach", "--iterations", 2,
        "--envs", 4, "--horizon", 6, "--hidden", 8, "--seed", 2, "--out", tmp_path / "reach",
    )
    assert code == 0
    curve = [json.loads(l) for l in (tmp_path / "reach" / "curve.jsonl").read_text().splitlines()]
    assert any(c["mean_episode_length"] > 0 for c in curve)
    # the fan's LP from the seed check is reused by the rollouts
    assert solved and len(solved) == len(set(solved))

