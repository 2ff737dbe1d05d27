"""What a command loads, checked in a fresh interpreter.

``import flipforge`` and the commands that need neither a generator nor a
policy (``search`` with a strategy that draws nothing, ``enumerate``) never
import numpy.  ``cli`` registers ``policy``, ``autodiff``, ``training`` and
``frst`` to load on first use, so ``sample-frst`` with its default locator
never runs the policy stack's code, and no other command runs the sampler's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import flipforge as ff
from flipforge.cli import main

SRC = Path(ff.__file__).resolve().parent.parent

PROBE = """
import json, sys, types

def executed(name):
    # a lazily registered module is a module subclass until its code runs
    return type(sys.modules.get(name)) is types.ModuleType

stack = ("flipforge.policy", "flipforge.autodiff", "flipforge.training", "flipforge.frst")
steps = json.loads(sys.argv[1])
report = {}
import flipforge
report["import flipforge"] = {"numpy": "numpy" in sys.modules}
from flipforge import cli
for label, argv in steps:
    code = cli.main(argv)
    report[label] = {"exit": code, "numpy": "numpy" in sys.modules, **{m: executed(m) for m in stack}}
print(json.dumps(report))
"""


def probe(steps):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_search_and_enumerate_never_import_numpy(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--dim", "2", "--samples", "7", "--count", "2", "--seed", "4",
                 "--out", str(data)]) == 0
    searches = [
        [name, ["search", "--data", str(data), "--objective", "min_weight",
                "--strategy", name, "--budget", "20", "--starts", "2",
                "--out", str(tmp_path / name)]]
        for name in ("greedy", "dfs", "befs")
    ]
    report = probe(searches + [
        ["enumerate", ["enumerate", str(ff.fixture_path("square2d")), "--limit", "50"]],
    ])
    assert report["import flipforge"] == {"numpy": False}
    for label in ("greedy", "dfs", "befs", "enumerate"):
        assert report[label]["exit"] == 0
        assert not any(v for k, v in report[label].items() if k != "exit"), label


def test_sample_frst_does_not_run_the_policy_stack(tmp_path):
    report = probe([
        ["sample-frst", ["sample-frst", "--polytope", str(ff.fixture_path("square2d")),
                         "--max-iterations", "3", "--out", str(tmp_path / "frst")]],
    ])
    result = report["sample-frst"]
    assert result["exit"] == 0
    assert result["numpy"]  # the lifts draw random heights
    assert not any(result[m] for m in ("flipforge.policy", "flipforge.autodiff", "flipforge.training"))


def test_gen_search_and_train_never_run_the_frst_sampler(tmp_path):
    data = tmp_path / "data"
    report = probe([
        ["gen", ["gen", "--dim", "2", "--samples", "7", "--count", "2", "--seed", "4",
                 "--out", str(data)]],
        ["search", ["search", "--data", str(data), "--objective", "frst_reach",
                    "--strategy", "greedy", "--budget", "10", "--out", str(tmp_path / "s")]],
        ["train", ["train", "--data", str(data), "--objective", "min_weight",
                   "--iterations", "1", "--envs", "2", "--horizon", "3", "--hidden", "8",
                   "--out", str(tmp_path / "t")]],
    ])
    for label in ("gen", "search", "train"):
        assert report[label]["exit"] == 0
        assert not report[label]["flipforge.frst"], label
    assert report["train"]["flipforge.training"]  # the probe does see a lazy module run


def test_import_cli_loads_neither_importlib_resources_nor_numpy():
    # -S: the environment's ``site`` may load importlib.resources itself (certifi does)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, flipforge.cli; print(sorted({'importlib.resources', 'numpy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.split() == ["[]"]
