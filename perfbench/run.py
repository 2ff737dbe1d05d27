#!/usr/bin/env python3
"""flipforge benchmark: the search, FRST and training workloads through the real CLI.

Usage, from the root of a flipforge checkout:

    python3 perfbench/run.py --workload search_3d --seed 1 --seconds 25 --trace 0

Workloads (see ``WORKLOADS`` and BENCHMARK.json for why each was chosen):

- ``search_3d``: ``gen`` then ``search --strategy greedy``, references capped by ``--ref-limit``.
- ``frst_prism3d``: ``sample-frst --locator random-walk`` on a 12-point prism.
- ``train_3d``: ``gen`` then ``train --actor snn``.

A run builds the inputs (``gen`` for search_3d and train_3d; the LatticeConfig
and circuit table, in this process, for frst_prism3d), then repeats the
workload's command until ``--seconds`` of command time are spent, rebuilding
the inputs after each of the first repetitions.  It reports the median set-up
time over the workload's ``setup_repeats`` builds and the medians over
repetitions of work done per second (``ops_per_s``: budget steps for
search_3d, sampler iterations for frst_prism3d, rollout transitions for
train_3d) and of peak RSS.  Each command runs in its own process with one
worker thread and one BLAS thread; its wall time includes interpreter
start-up, and its peak RSS is read from that process alone.  Every output is
checked after its command, outside the timed window.  Every search_3d and
train_3d repetition must write the same bytes as the first; frst_prism3d
samples a new walk in each repetition and runs its first command once more,
untimed, to check the same.

The host's speed can drift over seconds to minutes, by more than any choice
of repetition count averages out; BENCHMARK.json's bounds allow for it.

With ``--trace 1`` the run instead alternates untraced and traced runs of the
command on the same inputs and reports per-layer figures from the traced runs
(see ``tracer.py``); its result file also gives each layer's self time as a
share of the traced command's wall time.  The program has one process and no
worker pool, so nothing queues and no wait time is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
command run or one output check; ``failed / attempted`` is the fail ratio.
The exit code is 0 only when every operation succeeded.  A result file with
the environment goes to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import FrstWorkload, GenDataset, SearchWorkload, TrainWorkload, ops_rate, tree_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Explicit, because an invalid FLIPFORGE_THREADS silently falls back to 1.
THREAD_ENV = {
    "FLIPFORGE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

RUN_LIMIT_S = 170.0  # a run ends within 180 s whatever the program does


def metric_units(trace: bool) -> dict:
    """Name -> unit of every metric a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            name="search_3d",
            dataset=GenDataset(samples=13, profile=(9, 10, 11), seed_cap=2),
            budget=60,
            starts=2,
            ref_limit=100,
        ),
        FrstWorkload(name="frst_prism3d", iterations=5, budget=100, retry_limit=50),
        TrainWorkload(
            name="train_3d",
            dataset=GenDataset(samples=12, profile=(9, 10), seed_cap=4),
            iterations=3,
            envs=6,
            horizon=10,
            hidden=64,
        ),
    )
}


class Failure(Exception):
    """An operation failed; the run reports it and exits non-zero."""


@dataclass
class CommandRun:
    wall_s: float
    rss_mb: float


class Run:
    """One benchmark run: its work directory, deadline and operation tally."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []
        self.launched = 0

    def op(self, ok: bool, what: str):
        """Count one operation; a failed one ends the run."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            raise Failure(what)

    def cli(self, argv, trace_out=None) -> CommandRun:
        """Run one flipforge command in a child process and time it from outside."""
        if trace_out is None:
            cmd = [sys.executable, "-m", "flipforge.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
        log = self.work / f"cmd{self.launched}.log"
        self.launched += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.op(False, "run time limit reached before a command")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=out, stderr=out)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
        self.op(proc.returncode == 0, f"`{argv[0]}` exited with {proc.returncode}")
        return CommandRun(wall, usage.ru_maxrss / 1024.0)

    def check(self, inputs, out, verified) -> str:
        """Check one command's outputs and return their digest.

        Outputs byte-identical to outputs checked before in this run reuse
        that verdict.
        """
        digest = tree_digest(out)
        if ("outputs", digest) not in verified:
            try:
                failures = self.workload.check(inputs, out, verified)
            except Exception as exc:  # a malformed or missing output is a failed check
                failures = [f"check raised {exc!r}"]
            verified[("outputs", digest)] = failures
        failures = verified[("outputs", digest)]
        self.op(not failures, f"{out.name}: " + "; ".join(failures))
        return digest


class Setup:
    """Builds a workload's inputs, times each build and checks they agree."""

    def __init__(self, run: Run):
        self.run = run
        self.prepared = run.workload.prepare(run.work, run.seed)
        self.times = []
        self.digest = None
        self.builds = 0

    def build(self, trace_out=None):
        """Build the inputs once more; an untraced build's time is kept."""
        out = self.run.work / f"setup{self.builds}"
        self.builds += 1
        seconds, inputs, digest = self.run.workload.build(self.run, self.prepared, out, trace_out)
        if trace_out is None:
            self.times.append(seconds)
        self.run.op(self.digest in (None, digest), "set-up outputs differ between builds")
        self.digest = digest
        return inputs


def timed(run: Run, setup: Setup, seconds: float):
    """Repeat the command until ``seconds`` of command time; end-to-end figures.

    A workload without ``fresh_inputs`` repeats the same inputs throughout,
    and every repetition must write the same bytes as the first.  One with
    ``fresh_inputs`` gives each repetition the next sampler seed; its first
    command is run once more, untimed, and must write the same bytes again.
    The inputs are rebuilt after each early repetition, so the set-up times,
    like the command times, sample the whole run rather than its start.
    """
    w, work = run.workload, run.work
    inputs = setup.build()
    reps, verified, first = [], {}, None
    while True:
        k = len(reps)
        out = work / f"rep{k}"
        variant = run.seed * 1000 + k * w.fresh_inputs
        res = run.cli(w.command(inputs, out, variant))
        digest = run.check(inputs, out, verified)
        reps.append(
            {"wall_s": res.wall_s, "rss_mb": res.rss_mb, "ops": w.ops(out), **w.quality(out)}
        )
        if first is None:
            first = digest
            if w.fresh_inputs:
                again = work / "rep0-again"
                run.cli(w.command(inputs, again, variant))
                run.op(tree_digest(again) == first, "repeated run wrote different outputs")
        elif not w.fresh_inputs:
            run.op(digest == first, "repeated run wrote different outputs")
        if len(setup.times) < w.setup_repeats:
            setup.build()
        spent = sum(r["wall_s"] for r in reps)
        if k >= 1 and spent + 0.5 * spent / len(reps) > seconds:
            break
    while len(setup.times) < w.setup_repeats:
        setup.build()
    metrics = {
        "ops_per_s": ops_rate(reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "setup_s": statistics.median(setup.times),
    }
    detail = {"setup_s": setup.times, "repetitions": reps, "figures": w.figures(reps)}
    return metrics, detail


def traced_pairs(run: Run, setup: Setup, seconds: float):
    """Alternate untraced and traced runs on the same inputs; per-layer figures.

    The inputs are built once untraced and once traced; the traced build's
    spans (``gen``; the FRST set-up runs in this process and is not traced)
    count toward every pair's figures.
    """
    w, work = run.workload, run.work
    variant = run.seed * 1000
    inputs = setup.build()
    setup_trace = work / "setup_trace.json"
    setup.build(setup_trace)
    setup_traces = [_load_trace(run, setup_trace)] if setup_trace.exists() else []
    pairs, commands, verified = [], [], {}
    spent = 0.0
    while not pairs or spent + 0.5 * spent / len(pairs) <= seconds:
        k = len(pairs)
        plain_out, traced_out = work / f"plain{k}", work / f"traced{k}"
        plain = run.cli(w.command(inputs, plain_out, variant))
        trace_path = work / f"trace{k}.json"
        traced = run.cli(w.command(inputs, traced_out, variant), trace_path)
        run.check(inputs, traced_out, verified)
        run.op(
            tree_digest(plain_out) == tree_digest(traced_out),
            "traced and untraced runs wrote different outputs",
        )
        trace = _load_trace(run, trace_path)
        own = tracer.summarize([trace])
        traced_ops = own[w.traced_ops]
        run.op(
            traced_ops == w.ops(traced_out),
            f"{w.traced_ops} is {traced_ops}, the run counted {w.ops(traced_out)} operations",
        )
        summary = tracer.summarize(setup_traces + [trace])
        pairs.append((traced.wall_s - plain.wall_s, summary))
        commands.append((traced.wall_s, own))
        spent += plain.wall_s + traced.wall_s
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for _, s in pairs]
    run.op(all(c == counts[0] for c in counts), "traced counts differ between repetitions")
    metrics = {
        name: statistics.median(s[name] for _, s in pairs) for name in tracer.per_layer_names()
    }
    metrics["trace.overhead_s"] = statistics.median(o for o, _ in pairs)
    quality = w.quality(work / "traced0")
    metrics["cli.search.mean_gap"] = quality.get("mean_gap", 0.0)
    metrics["cli.sample-frst.distinct_frsts"] = quality.get("distinct_frsts", 0)
    return metrics, {"pairs": len(pairs), "quality": quality, "shares": shares(commands)}


def shares(commands) -> dict:
    """Each layer's median self time as a share of the traced command's wall time.

    ``outside_cli_span`` is the part of the wall time outside the ``cli`` root
    span: interpreter start-up, imports, installing the tracer and writing
    the trace.
    """
    wall = statistics.median(w for w, _ in commands)
    out = {}
    root = 0.0
    for name in commands[0][1]:
        value = statistics.median(own[name] for _, own in commands)
        if name.startswith("cli.") and name.endswith(".total_s"):
            root += value
        elif name.endswith(".self_s") and value > 0:
            out[name] = value / wall
    out["outside_cli_span"] = 1.0 - root / wall
    return {"traced_wall_s": wall, "of_wall": dict(sorted(out.items(), key=lambda kv: -kv[1]))}


def _load_trace(run: Run, path: Path) -> dict:
    """Read one dumped trace and check that its spans nest under ``cli`` roots."""
    trace = json.loads(path.read_text())
    selfs = tracer.self_times(trace["spans"])
    problems = tracer.check_spans(trace["names"], trace["spans"], selfs)
    run.op(not problems, f"{path.name}: " + "; ".join(problems[:5]))
    return trace


def git_commit():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "flipforge" / "cli.py").is_file():
        print(f"perfbench: no flipforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    import flipforge.cli  # noqa: F401  (in-process set-up is timed without imports)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = BENCH / "_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)
    units = metric_units(bool(args.trace))
    metrics, detail = {}, {}
    try:
        setup = Setup(run)
        if args.trace:
            metrics, detail = traced_pairs(run, setup, args.seconds)
        else:
            metrics, detail = timed(run, setup, args.seconds)
        run.op(set(metrics) == set(units), "metric names disagree with BENCHMARK.json")
    except Failure:
        pass
    except Exception:  # the program's outputs broke the benchmark itself
        traceback.print_exc()
        run.attempted += 1
        run.failures.append("benchmark raised; see standard error")
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
            if name in units
        },
    }
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failures": run.failures,
        "detail": detail,
        "result": result,
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    for failure in run.failures:
        print(f"FAILED: {failure}")
    if not args.trace and correct:
        for name, unit in units.items():
            print(f"{workload.name}: {name} = {metrics[name]:.4f} {unit}")
        for name, (value, unit) in detail["figures"].items():
            print(f"{workload.name}: {name} = {value} {unit}".rstrip())
    print(f"{workload.name}: fail_ratio = {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
