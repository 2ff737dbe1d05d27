#!/usr/bin/env python3
"""Byte-identity check of every CLI output between a base ref and the working tree.

Usage, from the root of a flipforge git checkout:

    python tools/identity_check.py [--base REF] [--work DIR] [--keep]

Both source trees are exported with ``git archive``: the base ref as it is
committed, and the working tree as it is on disk (tracked and untracked files
that ``.gitignore`` does not exclude), through a temporary index, so neither
side carries a ``__pycache__`` or build left-over.  The command set runs in
each tree at ``FLIPFORGE_THREADS`` 1 and 2:

- ``gen`` in 2D, 3D and 4D;
- ``enumerate --dump`` on square2d, octahedron3d, the 12-point lattice prism and
  the 12-point 4D lattice set, and once more on the prism into the seed file
  of a one-configuration prism dataset;
- ``search`` with every baseline strategy on every objective, and greedy
  ``min_diameter`` on the 2D and 4D sets;
- ``train`` (3D and 4D, and the 3D ``nls_accept``, ``egnn_only`` and
  ``pool_mlp`` actors) on ``min_weight``, and ``train`` on ``frst_reach`` over
  the prism dataset with the ``snn`` and ``nls_accept`` actors, whose
  rollouts start from states that are already fine and regular and end
  episodes on a success; ``search`` with the ``nls_accept`` strategy, ``eval``
  in argmax and sample mode, and ``eval`` in sample mode on the
  ``egnn_only`` and ``pool_mlp`` checkpoints;
- ``sample-frst`` with the random-walk, lift-only and policy locators on the
  prism, octahedron3d, the 4D cross-polytope and the 4D lattice set, and the
  sample-mode policy locator on the prism.

Every command runs in a fresh directory under relative paths, so the written
provenance is the same on both sides.  The output trees, stdout, stderr and
exit codes must match byte for byte, and no command of the set is meant to
fail, so every command must exit 0 on both sides.  The script prints each
difference and each nonzero exit, and exits 1 if there is one, 0 otherwise.
It has no list of expected differences: a change meant to alter an output
fails it, and the printed paths are what a reviewer checks against the
change's stated intent.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The 12-point lattice prism: reflexive triangle conv{(1,0),(0,1),(-1,-1)} x [-1,1].
PRISM = sorted((x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0)))
# The 4D cross-polytope conv{+-e_i} with the origin, its only interior lattice point.
CROSS4D = sorted(
    [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)] + [(0, 0, 0, 0)]
)
# CROSS4D plus three points of {-1,0,1}^4 (the lattice4d fixture): 58 of its 210
# circuits have fewer than six points.
LATTICE4D = sorted(CROSS4D + [(-1, 0, 0, -1), (0, -1, -1, -1), (1, -1, -1, 1)])
STRATEGIES = ("greedy", "dfs", "befs", "anneal", "random_walk")
OBJECTIVES = ("min_simplices", "min_diameter", "min_weight", "frst_reach")


def write_poly(path: Path, points):
    lines = [f"{len(points[0])} {len(points)} 1"] + [" ".join(map(str, p)) for p in points]
    path.write_text("\n".join(lines) + "\n")


def commands():
    """``(name, argv)`` in run order; paths are relative to the run directory."""
    out = []
    for dim, samples, seed in ((2, 8, 3), (3, 10, 5), (4, 8, 7)):
        out.append((f"gen{dim}d", [
            "gen", "--dim", str(dim), "--samples", str(samples), "--count", "2",
            "--seed", str(seed), "--seed-cap", "20", "--out", f"out/gen{dim}d",
        ]))
    for name in ("square2d", "octahedron3d", "prism", "lattice4d"):
        out.append((f"enumerate_{name}", [
            "enumerate", f"poly/{name}.poly", "--limit", "2000",
            "--dump", f"out/enumerate_{name}.tri",
        ]))
    out.append(("seeds_prism", [
        "enumerate", "poly/prism.poly", "--limit", "300", "--dump", "data/prism/seeds_prism.tri",
    ]))
    for strategy in STRATEGIES:
        for objective in OBJECTIVES:
            out.append((f"search_{strategy}_{objective}", [
                "search", "--data", "out/gen3d", "--objective", objective, "--strategy", strategy,
                "--budget", "20", "--starts", "2", "--ref-limit", "300", "--seed", "1",
                "--out", f"out/search_{strategy}_{objective}",
            ]))
    for dim in (2, 4):
        out.append((f"search_greedy_min_diameter_{dim}d", [
            "search", "--data", f"out/gen{dim}d", "--objective", "min_diameter", "--strategy",
            "greedy", "--budget", "20", "--starts", "2", "--ref-limit", "300", "--seed", "1",
            "--out", f"out/search_greedy_min_diameter_{dim}d",
        ]))
    nls = ["--actor", "nls_accept"]
    for name, data, objective, actor in (
        ("train3d", "out/gen3d", "min_weight", []), ("train4d", "out/gen4d", "min_weight", []),
        ("train3d_nls", "out/gen3d", "min_weight", nls),
        ("train3d_egnn", "out/gen3d", "min_weight", ["--actor", "egnn_only"]),
        ("train3d_pool", "out/gen3d", "min_weight", ["--actor", "pool_mlp"]),
        ("train_prism_reach", "data/prism", "frst_reach", []),
        ("train_prism_reach_nls", "data/prism", "frst_reach", nls),
    ):
        out.append((name, [
            "train", "--data", data, "--objective", objective, "--iterations", "2",
            "--envs", "3", "--horizon", "5", "--hidden", "8", "--checkpoint-every", "2", *actor,
            "--seed", "1", "--out", f"out/{name}",
        ]))
    out.append(("search_nls_accept_min_weight", [
        "search", "--data", "out/gen3d", "--objective", "min_weight", "--strategy", "nls_accept",
        "--checkpoint", "out/train3d_nls/checkpoint_final.ckpt", "--budget", "20", "--starts",
        "2", "--ref-limit", "300", "--seed", "1", "--out", "out/search_nls_accept_min_weight",
    ]))
    sample = ["--mode", "sample"]
    for name, trained, mode in (
        ("eval3d", "train3d", []), ("eval3d_sample", "train3d", sample),
        ("eval3d_egnn_sample", "train3d_egnn", sample),
        ("eval3d_pool_sample", "train3d_pool", sample),
    ):
        out.append((name, [
            "eval", "--data", "out/gen3d", "--objective", "min_weight", "--checkpoint",
            f"out/{trained}/checkpoint_final.ckpt", "--budget", "10", "--starts", "2",
            "--ref-limit", "100", *mode, "--out", f"out/{name}",
        ]))
    for name, dim in (("prism", 3), ("octahedron3d", 3), ("cross4d", 4), ("lattice4d", 4)):
        for locator in ("random-walk", "lift-only", "policy"):
            checkpoint = f"out/train{dim}d/checkpoint_final.ckpt"
            model = ["--checkpoint", checkpoint] if locator == "policy" else []
            out.append((f"frst_{name}_{locator}", [
                "sample-frst", "--polytope", f"poly/{name}.poly", "--locator", locator, *model,
                "--max-iterations", "12", "--budget", "15", "--seed", "2",
                "--out", f"out/frst_{name}_{locator}",
            ]))
    out.append(("frst_prism_policy_sample", [
        "sample-frst", "--polytope", "poly/prism.poly", "--locator", "policy", "--mode", "sample",
        "--checkpoint", "out/train3d/checkpoint_final.ckpt", "--max-iterations", "12",
        "--budget", "15", "--seed", "2", "--out", "out/frst_prism_policy_sample",
    ]))
    return out


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(treeish: str, dest: Path):
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", treeish], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def working_tree(tmp: Path) -> str:
    """A tree object of the working tree, written through a copy of the index."""
    index = tmp / "index"
    shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
    env = dict(os.environ, GIT_INDEX_FILE=str(index))
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def run_all(tree: Path, run_dir: Path, threads: int):
    """Run every command in ``run_dir`` against ``tree``'s sources; log each one."""
    (run_dir / "poly").mkdir(parents=True)
    (run_dir / "logs").mkdir()
    for name in ("square2d", "octahedron3d"):
        fixture = tree / "src" / "flipforge" / "fixtures" / f"{name}.poly"
        shutil.copyfile(fixture, run_dir / "poly" / f"{name}.poly")
    write_poly(run_dir / "poly" / "prism.poly", PRISM)
    write_poly(run_dir / "poly" / "cross4d.poly", CROSS4D)
    write_poly(run_dir / "poly" / "lattice4d.poly", LATTICE4D)
    # a one-configuration dataset; the seeds_prism command writes its seeds
    (run_dir / "data" / "prism").mkdir(parents=True)
    write_poly(run_dir / "data" / "prism" / "config_prism.poly", PRISM)
    manifest = {"spec": {"dim": 3, "samples": 12, "count": 1}, "ids": ["prism"],
                "vertex_counts": {"prism": 12}}
    (run_dir / "data" / "prism" / "manifest.json").write_text(json.dumps(manifest) + "\n")
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        FLIPFORGE_THREADS=str(threads),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    for name, argv in commands():
        res = subprocess.run(
            [sys.executable, "-m", "flipforge.cli", *argv],
            cwd=run_dir, env=env, capture_output=True,
        )
        (run_dir / "logs" / f"{name}.stdout").write_bytes(res.stdout)
        (run_dir / "logs" / f"{name}.stderr").write_bytes(res.stderr)
        (run_dir / "logs" / f"{name}.rc").write_text(f"{res.returncode}\n")


def differences(a: Path, b: Path, rel=Path()):
    """Relative paths that differ between the trees ``a`` and ``b``, or exist in one only."""
    cmp = filecmp.dircmp(a, b)
    out = [rel / n for n in cmp.left_only + cmp.right_only + cmp.funny_files]
    _same, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    out += [rel / n for n in mismatch + errors]
    for sub in cmp.common_dirs:
        out += differences(a / sub, b / sub, rel / sub)
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    parser.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    parser.add_argument("--keep", action="store_true", help="keep the scratch directory")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="flipforge-identity-"))
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        parser.error(f"{work} is not empty")
    try:
        base, head = work / "base", work / "head"
        export(args.base, base)
        export(working_tree(work), head)
        failed = False
        for threads in (1, 2):
            runs = [tree.with_name(f"{tree.name}-threads{threads}") for tree in (base, head)]
            for tree, run_dir in zip((base, head), runs):
                run_all(tree, run_dir, threads)
            diff = differences(*runs)
            bad = [
                f"{p.stem} ({side})"
                for side, run_dir in zip(("base", "head"), runs)
                for p in sorted((run_dir / "logs").glob("*.rc"))
                if p.read_text().strip() != "0"
            ]
            print(f"FLIPFORGE_THREADS={threads}: {len(commands())} commands, "
                  f"{len(diff)} differences, nonzero exits: {', '.join(bad) or 'none'}")
            for path in diff:
                print(f"  differs: {path}")
            failed |= bool(diff or bad)
        return 1 if failed else 0
    finally:
        if not args.keep and not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
