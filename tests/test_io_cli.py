import json
import os
import shutil
import struct
import subprocess
import sys
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
    for defect, message in MALFORMED_CHECKPOINTS.items():
        malformed_checkpoint(tmp_path / f"{defect}.ckpt", model, defect)
        with pytest.raises(CheckpointError) as err:
            io.read_checkpoint(tmp_path / f"{defect}.ckpt")
        assert str(err.value) == message


MALFORMED_CHECKPOINTS = {
    "block_dropped": "parameter block 'embed.w': found no block, the config needs (2, 4)",
    "block_reshaped": "parameter block 'embed.w': found (2, 2), the config needs (2, 4)",
    "name_not_utf8": (
        "parameter block name is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 5: invalid start byte"
    ),
    "shape_overflow": "truncated checkpoint file",
    "block_repeated": "repeated parameter block 'value2.w'",
}


def malformed_checkpoint(path, model, defect):
    """Write ``model``'s checkpoint with block embed.w dropped, reshaped to (2, 2), with
    a 0xff byte in its name, or with four dimensions of 2**16 (2**64 entries), or with
    its last block, value2.w, written twice."""
    params = dict(model.params)
    if defect == "block_dropped":
        del params["embed.w"]
    elif defect == "block_reshaped":
        params["embed.w"] = np.zeros((2, 2))
    io.write_checkpoint(path, PolicyModel(model.config, params))
    blob = path.read_bytes()
    if defect == "name_not_utf8":
        assert blob.count(b"embed.w") == 1
        path.write_bytes(blob.replace(b"embed.w", b"embed\xffw"))
    elif defect == "shape_overflow":
        at = blob.index(b"embed.w") + len(b"embed.w")
        assert blob[at : at + 9] == struct.pack("<B2I", 2, 2, 4)
        path.write_bytes(blob[:at] + struct.pack("<B4I", 4, *[1 << 16] * 4) + blob[at + 9 :])
    elif defect == "block_repeated":
        at = 8  # magic and version, then three length-prefixed blobs, then the block count
        for _ in range(3):
            at += 4 + struct.unpack_from("<I", blob, at)[0]
        (count,) = struct.unpack_from("<I", blob, at)
        last = blob[blob.index(b"value2.w") - 2 :]
        path.write_bytes(blob[:at] + struct.pack("<I", count + 1) + blob[at + 4 :] + last)


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


@pytest.mark.parametrize("limit", [0, -2])
def test_cli_enumerate_rejects_a_limit_below_one(tmp_path, capsys, limit):
    dump = tmp_path / "states.tri"
    assert run_cli("enumerate", ff.fixture_path("square2d"), "--limit", limit, "--dump", dump) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: limit must be at least 1, got {limit}\n"
    assert captured.out == "" and not dump.exists()


def test_cli_enumerate_checks_the_dump_directory_before_the_walk(tmp_path, capsys, monkeypatch):
    import flipforge.cli as cli

    def walk(*args, **kwargs):
        raise AssertionError("the component was walked")

    monkeypatch.setattr(cli, "enumerate_component", walk)
    dump = tmp_path / "nodir" / "states.tri"
    assert run_cli("enumerate", ff.fixture_path("square2d"), "--dump", dump) == 3
    captured = capsys.readouterr()
    assert captured.err == f"data error: no directory {dump.parent} for --dump {dump}\n"
    assert captured.out == ""


def test_cli_enumerate_missing_file():
    assert run_cli("enumerate", "/nonexistent/file.poly") == 3


def test_cli_enumerate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("2 2 0\n1 1\nnope nope\n")
    assert run_cli("enumerate", bad) == 3


@pytest.mark.parametrize(
    "text, message",
    [
        (b"2 2 0\n0 0\n1 0\n", "need at least dim+1 points"),
        (b"2 3 0\n0 0\n1 1\n2 2\n", "points do not span the full dimension"),
        (b"2 3 1\n0 0\n1/2 0\n0 1\n", "is_lattice=True but coordinates are not integral"),
        (b"2 3 0\n0 0\n1 0\n0 \xff1\n", "line 4: {path} is not UTF-8 text (invalid start byte)"),
    ],
    ids=["too_few", "flat", "lattice_not_integral", "not_utf8"],
)
@pytest.mark.parametrize("command", ["enumerate", "sample-frst", "search"])
def test_cli_invalid_point_configurations_are_data_errors(tmp_path, capsys, text, message, command):
    poly = tmp_path / "config_bad.poly"
    poly.write_bytes(text)
    if command == "enumerate":
        argv = ["enumerate", poly]
    elif command == "sample-frst":
        argv = ["sample-frst", "--polytope", poly, "--out", tmp_path / "out"]
    else:
        io.write_json(
            tmp_path / "manifest.json",
            {"spec": {"dim": 2, "samples": 3, "count": 1}, "ids": ["bad"], "vertex_counts": {"bad": 3}},
        )
        argv = ["search", "--data", tmp_path, "--objective", "min_weight", "--strategy", "greedy"]
        argv += ["--out", tmp_path / "out"]
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == f"data error: {message.format(path=poly)}\n"
    assert not (tmp_path / "out").exists()


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


def test_comment_only_lines_split_no_seed_block(small_dataset, tmp_path):
    assert io.parse_triangulation_set("0 1 2\n# note\n1 2 3\n") == [
        Triangulation([(0, 1, 2), (1, 2, 3)])
    ]
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    path = data / "seeds_2d_001.tri"
    seeds = io.read_triangulation_set(path)
    # a comment-only line after the first simplex of each block
    path.write_text(path.read_text().replace("\n", "\n# note\n", 1).replace("\n\n", "\n\n# seed\n"))
    assert "\n# note\n" in path.read_text()
    assert io.read_triangulation_set(path) == seeds
    outs = []
    for name, source in (("plain", small_dataset), ("noted", data)):
        outs.append(tmp_path / name)
        code = run_cli(
            "search", "--data", source, "--objective", "min_weight",
            "--strategy", "greedy", "--budget", 10, "--starts", 2, "--out", outs[-1],
        )
        assert code == 0
    for fname in ("gap_table.tsv", "summary.json"):
        assert (outs[0] / fname).read_text() == (outs[1] / fname).read_text()


def test_cli_search_min_diameter_of_a_lone_simplex_has_gap_zero(small_dataset, tmp_path):
    # 2d_000 has 3 vertices: its one triangulation is a simplex of dual diameter 0
    out = tmp_path / "diameter"
    code = run_cli(
        "search", "--data", small_dataset, "--objective", "min_diameter",
        "--strategy", "befs", "--budget", 5, "--out", out,
    )
    assert code == 0
    rows = [line.split("\t") for line in (out / "gap_table.tsv").read_text().splitlines()[1:]]
    lone = [row for row in rows if row[0].startswith("2d_000/")]
    assert lone and all(row[3:] == ["0.0", "0.0", "0.0"] for row in lone)


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
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "--strategy", "policy"), "strategy policy requires --checkpoint"),
        (("search", "--strategy", "nls_accept"), "strategy nls_accept requires --checkpoint"),
        (("eval",), "eval requires --checkpoint"),
        (("sample-frst", "--locator", "policy"), "locator policy requires --checkpoint"),
    ],
    ids=["search_policy", "search_nls_accept", "eval", "sample_frst_policy"],
)
def test_cli_missing_checkpoint_is_a_usage_error(tmp_path, capsys, argv, message):
    # rejected before the data, the polytope or a model is read
    if argv[0] == "sample-frst":
        argv += ("--polytope", tmp_path / "missing.poly")
    else:
        argv += ("--data", tmp_path / "no_data", "--objective", "min_weight")
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("strategy", ("greedy", "dfs", "befs", "anneal", "random_walk"))
@pytest.mark.parametrize("checkpoint", ("missing", "2d_model"))
def test_cli_model_free_search_rejects_a_checkpoint(
    small_dataset_3d, tmp_path, capsys, strategy, checkpoint
):
    data, ckpt = small_dataset_3d, tmp_path / "missing.ckpt"
    if checkpoint == "2d_model":
        ckpt = tmp_path / "model2d.ckpt"
        io.write_checkpoint(ckpt, PolicyModel.initialize(ModelConfig(input_dim=2, hidden=4), seed=0))
    else:
        data = tmp_path / "no_data"  # rejected before the data is read
    code = run_cli(
        "search", "--data", data, "--objective", "min_weight", "--strategy", strategy,
        "--budget", 5, "--checkpoint", ckpt, "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: strategy {strategy} takes no model, so no --checkpoint\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("locator", ("random-walk", "lift-only"))
def test_cli_model_free_sample_frst_rejects_a_checkpoint(tmp_path, capsys, locator):
    # rejected before the polytope or the checkpoint is read
    code = run_cli(
        "sample-frst", "--polytope", tmp_path / "missing.poly", "--locator", locator,
        "--checkpoint", tmp_path / "missing.ckpt", "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: locator {locator} takes no model, so no --checkpoint\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect", sorted(MALFORMED_CHECKPOINTS))
def test_cli_eval_of_a_malformed_checkpoint_exits_4(small_dataset, tmp_path, capsys, defect):
    checkpoint = tmp_path / "model.ckpt"
    model = PolicyModel.initialize(ModelConfig(input_dim=2, hidden=4), seed=0)
    malformed_checkpoint(checkpoint, model, defect)
    code = run_cli(
        "eval", "--data", small_dataset, "--objective", "min_weight", "--budget", 5,
        "--checkpoint", checkpoint, "--out", tmp_path / "out",
    )
    assert code == 4
    assert capsys.readouterr().err == f"checkpoint error: {MALFORMED_CHECKPOINTS[defect]}\n"
    assert not (tmp_path / "out").exists()


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


def test_cli_sample_frst_names_a_repeated_lattice_point(tmp_path, capsys):
    poly = tmp_path / "diamond.poly"
    poly.write_text("2 6 1\n1 0\n0 1\n0 0\n-1 0\n0 -1\n0 0\n")
    code = run_cli("sample-frst", "--polytope", poly, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: the configuration lists the lattice point (0, 0) twice\n"
    )
    assert not (tmp_path / "out").exists()


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
    # the pool runs the searches and the references; every output is the same bytes
    results = {}
    for label, workers in (("serial", "1"), ("pool", "2")):
        out = tmp_path / label
        os.environ["FLIPFORGE_THREADS"] = workers
        try:
            code = run_cli(
                "search", "--data", small_dataset, "--objective", "min_weight",
                "--strategy", "greedy", "--budget", 20, "--starts", 2, "--seed", 4,
                "--out", out,
            )
        finally:
            os.environ.pop("FLIPFORGE_THREADS", None)
        assert code == 0
        results[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert {"summary.json", "gap_table.tsv", "runlog_2d_001_1.jsonl"} <= set(results["serial"])
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


def test_cli_strategy_param_integer_and_internal_error(
    small_dataset, tmp_path, capsys, monkeypatch
):
    import flipforge.cli as cli

    base = (
        "search", "--data", small_dataset, "--objective", "min_weight",
        "--strategy", "befs", "--budget", 10,
    )
    assert run_cli(*base, "--strategy-param", "memory_cap=2", "--out", tmp_path / "int") == 0
    payload = json.loads((tmp_path / "int" / "resolved_config.json").read_text())
    assert payload["options"]["strategy_param"] == {"memory_cap": 2}
    capsys.readouterr()

    # an unexpected exception ends in one line and exit 5, not a traceback
    def broken(*args, **kwargs):
        raise KeyError("unexpected")

    monkeypatch.setattr(cli, "relative_gap", broken)
    assert run_cli(*base, "--out", tmp_path / "broken") == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError") and err.count("\n") == 1


@pytest.mark.parametrize(
    "options, message",
    [
        (["--starts", "0"], "starts must be at least 1, got 0"),
        (["--budget", "-3"], "budget must be at least 0, got -3"),
        (["--ref-limit", "-1"], "ref_limit must be at least 1, got -1"),
        (["--strategy", "befs", "--strategy-param", "foo=1"], "strategy befs: "),
        (["--strategy", "befs", "--strategy-param", "memory_cap=lots"], "memory_cap must be"),
        (["--strategy", "befs", "--strategy-param", "memory_cap=0"], "memory_cap must be"),
        (["--strategy", "befs", "--strategy-param", "memory_cap=2.5"], "memory_cap must be"),
        (["--strategy", "greedy", "--strategy-param", "memory_cap=2"], "strategy greedy: "),
        (
            ["--strategy", "anneal", "--strategy-param", "initial_temperature=abc"],
            "initial_temperature must be",
        ),
        (
            ["--strategy", "anneal", "--strategy-param", "initial_temperature=nan"],
            "initial_temperature must be",
        ),
        (["--strategy", "anneal", "--strategy-param", "decay=0"], "decay must be"),
        (["--strategy", "anneal", "--strategy-param", "decay=1.5"], "decay must be"),
        (["--strategy", "anneal", "--strategy-param", "final_fraction=0"], "final_fraction must be"),
        (["eval", "--starts", "0"], "starts must be at least 1, got 0"),
        (["eval", "--budget", "-3"], "budget must be at least 0, got -3"),
        (["eval", "--ref-limit", "-1"], "ref_limit must be at least 1, got -1"),
        (["eval", "--strategy-param", "foo=1"], "strategy policy: "),
        (["eval", "--strategy-param", "mode=greedy"], "unknown policy mode 'greedy'"),
        (["--strategy", "dfs", "--strategy-param", "memory_cap=5"], "strategy dfs: "),
    ],
)
def test_cli_search_and_eval_usage_errors(small_dataset, tmp_path, capsys, options, message):
    # the last occurrence of an option wins, so ``options`` override the defaults here
    head = ["search", "--strategy", "greedy"]
    if options[0] == "eval":
        checkpoint = tmp_path / "model.ckpt"
        io.write_checkpoint(checkpoint, PolicyModel.initialize(ModelConfig(input_dim=2, hidden=4), seed=0))
        head, options = ["eval", "--checkpoint", checkpoint], options[1:]
    code = run_cli(
        *head, "--data", small_dataset, "--objective", "min_weight", "--budget", 5, *options,
        "--out", tmp_path / "out",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # rejected before any work


@pytest.mark.parametrize(
    "command, dim, kind, strategy",
    [
        (("search", "--strategy", "nls_accept", "--data", "{data}"), 2, "snn", "nls_accept"),
        (("eval", "--data", "{data}"), 2, "nls_accept", "policy"),
        (
            ("sample-frst", "--polytope", "{octahedron}", "--locator", "policy"),
            3,
            "nls_accept",
            "policy",
        ),
    ],
    ids=["search_nls_accept", "eval", "sample_frst_policy"],
)
def test_cli_checkpoint_of_the_wrong_actor_exits_4(
    small_dataset, tmp_path, capsys, command, dim, kind, strategy
):
    checkpoint = tmp_path / "model.ckpt"
    model = PolicyModel.initialize(ModelConfig(input_dim=dim, hidden=4, actor_kind=kind), seed=0)
    io.write_checkpoint(checkpoint, model)
    argv = [
        a.format(data=small_dataset, octahedron=ff.fixture_path("octahedron3d")) for a in command
    ]
    if argv[0] != "sample-frst":
        argv += ["--objective", "min_weight", "--budget", "5"]
    code = run_cli(*argv, "--checkpoint", checkpoint, "--out", tmp_path / "out")
    assert code == 4
    err = capsys.readouterr().err
    assert err == f"checkpoint error: a checkpoint of the {kind!r} actor cannot drive the {strategy} strategy\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, code",
    [
        (("train", "--data", "{data}", "--objective", "min_weight", "--envs", "0"), 2),
        (("sample-frst", "--polytope", "{triangle}", "--budget", "0"), 2),
        (("search", "--data", "{readme}", "--objective", "min_weight", "--strategy", "greedy"), 3),
        (("gen", "--dim", "0", "--samples", "4", "--count", "1"), 2),
    ],
    ids=["train_no_envs", "sample_frst_no_budget", "search_data_is_a_file", "gen_dim_zero"],
)
def test_cli_failure_before_writing_leaves_no_output_directory(
    small_dataset, tmp_path, capsys, command, code
):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    argv = [
        a.format(data=small_dataset, triangle=ff.fixture_path("triangle2d"), readme=readme)
        for a in command
    ]
    assert run_cli(*argv, "--out", tmp_path / "out") == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_train_infinite_bonus_is_one_usage_line(small_dataset, tmp_path):
    # in-process, the RuntimeWarning filter would hide warnings printed before the error
    env = dict(os.environ, PYTHONPATH=str(Path(ff.__file__).resolve().parent.parent))
    done = subprocess.run(
        [
            sys.executable, "-m", "flipforge.cli", "train", "--data", str(small_dataset),
            "--objective", "min_weight", "--iterations", "1", "--envs", "2", "--horizon", "2",
            "--hidden", "8", "--bonus", "inf", "--out", str(tmp_path / "out"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == "usage error: bonus_coef must be finite, got inf\n"
    assert not (tmp_path / "out").exists()


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
        ("--iterations", "-1", "iterations must be nonnegative, got -1"),
        ("--checkpoint-every", "0", "checkpoint_every must be positive"),
        ("--lr", "nan", "lr must be positive"),
        ("--lr", "0", "lr must be positive"),
        ("--lr", "-1", "lr must be positive"),
        ("--lr", "inf", "learning_rate must be finite and nonnegative"),
        ("--hidden", "0", "hidden must be positive"),
        ("--hidden", "-2", "hidden must be positive"),
        ("--chebyshev-order", "0", "chebyshev_order must be positive"),
        ("--encoder-layers", "-1", "encoder_layers must be nonnegative"),
        ("--bonus", "nan", "bonus_coef must be finite, got nan"),
        ("--bonus", "inf", "bonus_coef must be finite, got inf"),
        ("--bonus", "-inf", "bonus_coef must be finite, got -inf"),
    ],
)
def test_cli_train_rejects_invalid_options(small_dataset, tmp_path, capsys, option, value, message):
    options = {"--iterations": "1", "--envs": "2", "--horizon": "2", "--hidden": "8", option: value}
    code = run_cli(
        "train", "--data", small_dataset, "--objective", "min_weight",
        *(f"{k}={v}" for k, v in options.items()), "--out", tmp_path / "t",
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "t").exists()


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



@pytest.mark.parametrize(
    "command",
    [
        ("search", "--data", "README.md", "--objective", "min_weight", "--strategy", "greedy"),
        ("enumerate", "{dir}"),
        ("sample-frst", "--polytope", "{dir}"),
    ],
    ids=["search_data_is_a_file", "enumerate_directory", "sample_frst_directory"],
)
def test_cli_directory_inputs_are_data_errors(tmp_path, capsys, command):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    argv = [str(readme) if a == "README.md" else a.format(dir=tmp_path) for a in command]
    if argv[0] != "enumerate":
        argv += ["--out", tmp_path / "out"]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--seed-cap", 0, "seed_cap must be at least 1, got 0"),
        ("--seed-cap", -3, "seed_cap must be at least 1, got -3"),
        ("--snap-denominator", 0, "snap_denominator must be at least 1, got 0"),
        ("--snap-denominator", -5, "snap_denominator must be at least 1, got -5"),
    ],
)
def test_cli_gen_rejects_bad_caps_and_denominators(tmp_path, capsys, option, value, message):
    out = tmp_path / "gen"
    code = run_cli("gen", "--dim", 2, "--samples", 6, "--count", 1, option, value, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize(
    "dim, samples, shape",
    [(2, 3, "simplex"), (3, 4, "simplex"), (1, 5, "segment")],
)
def test_cli_gen_rejects_counts_that_no_draw_can_reach(tmp_path, capsys, dim, samples, shape):
    # every draw is one combinatorial type, so a second configuration never comes
    out = tmp_path / "gen"
    assert run_cli("gen", "--dim", dim, "--samples", samples, "--count", 2, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"usage error: every draw of {samples} points in {dim}D is a {shape}, "
        "so no dataset holds 2 non-isomorphic ones\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("denominator, seed", [(1, 1), (2, 4)])
def test_cli_gen_writes_each_coarsely_snapped_point_once(tmp_path, denominator, seed):
    # both draws snap two samples onto one extreme point
    out = tmp_path / "gen"
    argv = ["--samples", 20, "--count", 2, "--snap-denominator", denominator, "--seed", seed]
    assert run_cli("gen", "--dim", 3, *argv, "--seed-cap", 30, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for cid in manifest["ids"]:
        lines = (out / f"config_{cid}.poly").read_text().splitlines()[1:]
        assert len(set(lines)) == len(lines) == manifest["vertex_counts"][cid]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-seconds", "nan", "max_seconds must be positive, got nan"),
        ("--std", "nan", "height_std must be positive, got nan"),
        ("--std", "inf", "height_std must be finite, got inf"),
        ("--std", "0", "height_std must be positive, got 0.0"),
    ],
)
def test_cli_sample_frst_rejects_nan_and_infinite_options(tmp_path, capsys, option, value, message):
    code = run_cli(
        "sample-frst", "--polytope", ff.fixture_path("triangle2d"), option, value,
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-iterations", "-1", "max_iterations must be at least 0, got -1"),
        ("--retry-limit", "0", "retry_limit must be at least 1, got 0"),
    ],
)
def test_cli_sample_frst_names_a_bad_iteration_or_retry_bound(
    tmp_path, capsys, option, value, message
):
    code = run_cli(
        "sample-frst", "--polytope", ff.fixture_path("square2d"), option, value,
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_cli_sample_frst_infinite_max_seconds_means_no_time_cap(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sample-frst", "--polytope", ff.fixture_path("triangle2d"), "--max-seconds", "inf",
        "--clock", "wall", "--max-iterations", 5, "--retry-limit", 10, "--out", out,
    )
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["iterations"] == 5


@pytest.mark.parametrize(
    "command",
    [
        ("gen", "--dim", "2", "--samples", "6", "--count", "1"),
        ("search", "--data", "{data}", "--objective", "min_weight", "--strategy", "greedy"),
        ("search", "--data", "{data}", "--objective", "min_weight", "--strategy", "random_walk"),
        ("search", "--data", "{data}", "--objective", "min_weight", "--strategy", "anneal"),
        ("eval", "--data", "{data}", "--objective", "min_weight", "--checkpoint", "{missing}"),
        ("train", "--data", "{data}", "--objective", "min_weight", "--iterations", "1",
         "--envs", "2", "--horizon", "2", "--hidden", "8"),
        ("sample-frst", "--polytope", "{triangle}", "--max-iterations", "1"),
    ],
    ids=["gen", "search_greedy", "search_random_walk", "search_anneal", "eval", "train", "sample_frst"],
)
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_cli_negative_seed_is_one_usage_line_before_any_work(
    small_dataset, tmp_path, capsys, command, seed
):
    argv = [
        a.format(data=small_dataset, triangle=ff.fixture_path("triangle2d"), missing=tmp_path / "no.ckpt")
        for a in command
    ]
    assert run_cli(*argv, "--seed", seed, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"usage error: --seed must be at least 0, got {seed}\n"
    assert not (tmp_path / "out").exists()


TRAIN_ARGS = ("--iterations", 1, "--envs", 2, "--horizon", 2, "--hidden", 8)


# (line of the block, its new bytes); a short first line sorts before every other simplex
SEED_LINES = {"not_utf8": (1, None), "repeated_vertex": (1, b"0 0 1"), "short_simplex": (0, b"0 1")}


@pytest.mark.parametrize("command", ["search", "train"])
@pytest.mark.parametrize(
    "defect, message",
    [
        ("vertex_99", "d: vertex ids outside the configuration"),
        ("missing_simplex", "a: volume sum "),
        pytest.param(
            "not_utf8", "line {line}: {path} is not UTF-8 text (invalid start byte)\n", id="not_utf8"
        ),
        pytest.param(
            "repeated_vertex",
            "line {line}: simplex '0 0 1' is not 3 distinct indices\n",
            id="repeated_vertex",
        ),
        pytest.param(
            "short_simplex",
            "line {line}: simplex '0 1' is not 3 distinct indices\n",
            id="short_simplex",
        ),
    ],
)
def test_cli_seeds_that_do_not_triangulate_their_configuration_are_data_errors(
    small_dataset, tmp_path, capsys, command, defect, message
):
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    path = data / "seeds_2d_001.tri"
    seeds = io.read_triangulation_set(path)
    # search starts from seed 0 only; train from every seed, so the last one is broken
    k = 0 if command == "search" else len(seeds) - 1
    first, *rest = seeds[k].simplices
    seeds[k] = Triangulation([first[:-1] + (99,), *rest] if defect == "vertex_99" else rest)
    if defect in SEED_LINES:
        # a line of block k goes bad: a 0xff byte, a repeated index, or one index short
        lines = path.read_bytes().split(b"\n")
        starts = [i for i, line in enumerate(lines) if line and (i == 0 or not lines[i - 1])]
        offset, new = SEED_LINES[defect]
        at = starts[k] + offset
        assert lines[at] and lines[at + 1]
        lines[at] = new or lines[at] + b" \xff"
        path.write_bytes(b"\n".join(lines))
    else:
        io.write_triangulation_set(path, seeds)
    argv = [command, "--data", data, "--objective", "min_weight", "--out", tmp_path / "out"]
    argv += ["--strategy", "greedy"] if command == "search" else TRAIN_ARGS
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    if defect in SEED_LINES:
        message = message.format(line=at + 1, path=path)
    else:
        message = f"seed {k} of 2d_001 is no valid triangulation ({message}"
    assert err.startswith(f"data error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["search", "train"])
@pytest.mark.parametrize(
    "manifest, message",
    [
        ({}, "{path} must be an object with spec, ids and vertex_counts"),
        ([], "{path} must be an object with spec, ids and vertex_counts"),
        (
            {"spec": {"dim": 2, "samples": 6, "count": 2, "colour": 1}},
            "bad spec in {path}: GenSpec.__init__() got an unexpected keyword argument 'colour'",
        ),
        (
            {"spec": {"dim": 0, "samples": 6, "count": 2}},
            "bad spec in {path}: dim must be at least 1, got 0",
        ),
        (
            {"spec": {"dim": 2, "samples": 6, "count": 2}, "ids": 5},
            "ids in {path} must be a list of strings",
        ),
        ({"spec": {"dim": 2, "samples": 6, "count": 2}, "ids": []}, "ids in {path} is empty"),
        (
            {"spec": {"dim": 2, "samples": 6, "count": 2}, "ids": ["2d_001", "2d_000", "2d_001"]},
            "ids in {path} repeat 2d_001",
        ),
    ],
    ids=["empty", "list", "unknown_field", "dim_zero", "ids_not_a_list", "ids_empty", "ids_repeated"],
)
def test_cli_malformed_manifests_are_data_errors(
    small_dataset, tmp_path, capsys, command, manifest, message
):
    data = tmp_path / "data"
    shutil.copytree(small_dataset, data)
    if isinstance(manifest, dict) and manifest:
        original = json.loads((data / "manifest.json").read_text())
        manifest = {"ids": original["ids"], "vertex_counts": original["vertex_counts"], **manifest}
    io.write_json(data / "manifest.json", manifest)
    argv = [command, "--data", data, "--objective", "min_weight", "--out", tmp_path / "out"]
    argv += ["--strategy", "greedy"] if command == "search" else TRAIN_ARGS
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {message.format(path=data / 'manifest.json')}\n"
    assert not (tmp_path / "out").exists()
