"""The three benchmark workloads: inputs from a seed, commands, work counts, checks.

Each workload derives its inputs from the seed (``prepare``), builds them in
the timed set-up (``build``), names the CLI command a timed repetition runs
(``command``), counts the work one repetition did (``ops``) and checks one
repetition's outputs (``check``).  The CLI sees only the files ``build``
writes and the options ``command`` passes.

Dataset sizes are held fixed across seeds: the 3D workloads use a ``gen`` seed
whose configurations have exactly the vertex counts in ``profile``.  A
flippable-circuit scan costs about C(n, 5) circuit tests, so unequal sizes
alone would move throughput by more than the benchmark's bounds from one seed
to the next.  The seed still chooses the geometry.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

# A 12-point lattice prism: reflexive triangle conv{(1,0),(0,1),(-1,-1)} x [-1,1].
# The origin is its only interior lattice point.
PRISM_POINTS = sorted(
    (x, y, z) for z in (-1, 0, 1) for (x, y) in ((1, 0), (0, 1), (-1, -1), (0, 0))
)


def write_prism(path: Path):
    lines = [f"3 {len(PRISM_POINTS)} 1"] + [" ".join(map(str, p)) for p in PRISM_POINTS]
    path.write_text("\n".join(lines) + "\n")


def gen_seed(seed: int, dim: int, samples: int, profile: tuple) -> int:
    """First ``gen`` seed from ``seed``'s sequence whose vertex counts equal ``profile``."""
    from flipforge.datagen import GenSpec, generate

    for j in range(2000):
        candidate = seed * 2000 + j
        dataset = generate(GenSpec(dim, samples, len(profile), candidate))
        if tuple(sorted(dataset.vertex_counts.values())) == profile:
            return candidate
    raise RuntimeError(f"no gen seed with vertex counts {profile} for seed {seed}")


def tree_digest(path: Path) -> str:
    """sha256 over every file under ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def ops_rate(reps) -> float:
    """Median over timed repetitions of work done per second."""
    return statistics.median(r["ops"] / r["wall_s"] for r in reps)


def read_jsonl(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def all_finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@dataclass(frozen=True)
class GenDataset:
    """A ``gen`` dataset whose vertex counts are fixed by ``profile``."""

    samples: int
    profile: tuple
    seed_cap: int

    def gen_seed(self, seed: int) -> int:
        return gen_seed(seed, 3, self.samples, self.profile)

    def argv(self, gen_seed: int, out: Path):
        return [
            "gen", "--dim", "3", "--samples", str(self.samples),
            "--count", str(len(self.profile)), "--seed", str(gen_seed),
            "--seed-cap", str(self.seed_cap), "--out", str(out),
        ]


class _GenInputs:
    """Set-up of a workload whose inputs are a ``gen`` dataset."""

    def prepare(self, work: Path, seed: int) -> int:
        return self.dataset.gen_seed(seed)

    def build(self, run, gen_seed: int, out: Path, trace_out=None):
        """Run ``gen``; returns (seconds, dataset directory, digest)."""
        res = run.cli(self.dataset.argv(gen_seed, out), trace_out)
        return res.wall_s, out, tree_digest(out)


@dataclass(frozen=True)
class SearchWorkload(_GenInputs):
    """Greedy min-weight search over a 3D dataset, references capped by ``ref_limit``."""

    name: str
    dataset: GenDataset
    budget: int
    starts: int
    ref_limit: int
    fresh_inputs = False
    setup_repeats = 5
    traced_ops = "search.run_budgeted.steps"

    def command(self, data: Path, out: Path, variant: int):
        return [
            "search", "--data", str(data), "--objective", "min_weight",
            "--strategy", "greedy", "--budget", str(self.budget),
            "--starts", str(self.starts), "--ref-limit", str(self.ref_limit),
            "--seed", str(variant), "--out", str(out),
        ]

    def ops(self, out: Path) -> int:
        return len(self.dataset.profile) * self.starts * self.budget

    def quality(self, out: Path) -> dict:
        return {"mean_gap": json.loads((out / "summary.json").read_text())["mean_gap"]}

    def figures(self, reps) -> dict:
        """A timed run's (value, unit) figures under the names the workload is discussed by."""
        return {
            "steps_per_s": (ops_rate(reps), "1/s"),
            "mean_gap": (reps[0]["mean_gap"], "ratio"),
        }

    def check(self, data: Path, out: Path, verified: dict) -> list:
        """Gap-table shape and arithmetic, and every logged search step replayed.

        The references are truncated at ``ref_limit`` states, so a gap may be
        negative; each gap is still recomputed from its row's best and reference.
        """
        from flipforge import io

        failures = []
        summary = json.loads((out / "summary.json").read_text())
        lines = (out / "gap_table.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        expected = len(self.dataset.profile) * self.starts
        if len(rows) != expected or summary["instances"] != expected:
            failures.append(f"gap table has {len(rows)} rows, expected {expected}")
        gaps = [float(row[5]) for row in rows]
        if not all_finite(gaps + [summary["mean_gap"]]):
            failures.append("non-finite gap")
        if summary["references_exact"] and any(g < 0 for g in gaps):
            failures.append("negative gap against an exact reference")
        if gaps and not math.isclose(summary["mean_gap"], statistics.fmean(gaps), rel_tol=1e-12):
            failures.append("summary's mean_gap is not the mean of the gap column")
        if len(list(out.glob("runlog_*.jsonl"))) != expected:
            failures.append(f"expected {expected} run logs")
        manifest = io.read_json(data / "manifest.json")
        for label, _strategy, _objective, best, reference, gap in rows:
            cid, start = label.split("/")
            best, reference = float(best), float(reference)
            if not math.isclose(float(gap), (best - reference) / reference, rel_tol=1e-12):
                failures.append(f"{label}: gap does not follow from best and reference")
            if cid not in manifest["ids"]:
                failures.append(f"{label}: no such configuration in the dataset")
                continue
            log = read_jsonl(out / f"runlog_{cid}_{start}.jsonl")
            if len(log) != self.budget + 1:
                failures.append(f"{label}: run log holds {len(log)} records, not budget + 1")
            elif log[-1]["best"] != best:
                failures.append(f"{label}: gap table's best differs from its run log")
            failures += replay(data, cid, int(start), log, verified)
        return failures


def replay(data: Path, cid: str, start: int, log: list, verified: dict) -> list:
    """Re-apply a greedy run log from its seed triangulation and recompute each step.

    Each logged flip must be feasible at the current state, the flipped state
    must be a valid triangulation, and every logged value and running best
    must equal the objective recomputed from scratch.  Circuit tables are
    cached in ``verified`` by configuration.
    """
    from flipforge import io
    from flipforge.flips import CircuitTable, apply_flip, enumerate_circuits, flippable_circuits
    from flipforge.objectives import Objective, search_value
    from flipforge.triangulation import validate

    key = ("circuits", str(data), cid)
    if key not in verified:
        config = io.read_point_config(data / f"config_{cid}.poly")
        circuits = {c.vertices: c for c in enumerate_circuits(config).circuits}
        verified[key] = (config, circuits)
    config, circuits = verified[key]
    tri = io.read_triangulation_set(data / f"seeds_{cid}.tri")[start]
    where = f"{cid}/{start}"
    best = math.inf
    for record in log:
        if record["action"] is not None:
            vertices, side = tuple(record["action"][0]), record["action"][1]
            circuit = circuits.get(vertices)
            actions = (
                flippable_circuits(tri, CircuitTable(config, (circuit,))) if circuit else []
            )
            if not actions or actions[0].realized_side != side:
                return [f"{where} step {record['step']}: logged flip is not feasible"]
            tri = apply_flip(tri, actions[0])
            if not validate(tri, config).ok:
                return [f"{where} step {record['step']}: flipped state is not valid"]
        value = search_value(Objective.MIN_WEIGHT, tri, config)
        best = min(best, value)
        if record["value"] != value or record["best"] != best:
            return [f"{where} step {record['step']}: logged value or best differs from replay"]
    return []


@dataclass(frozen=True)
class TrainWorkload(_GenInputs):
    """A few PPO iterations of the SNN actor on a small 3D dataset."""

    name: str
    dataset: GenDataset
    iterations: int
    envs: int
    horizon: int
    hidden: int
    fresh_inputs = False
    setup_repeats = 5
    traced_ops = "training.collect_rollouts.transitions"

    def command(self, data: Path, out: Path, variant: int):
        return [
            "train", "--data", str(data), "--objective", "min_weight", "--actor", "snn",
            "--iterations", str(self.iterations), "--envs", str(self.envs),
            "--horizon", str(self.horizon), "--hidden", str(self.hidden),
            "--checkpoint-every", str(self.iterations), "--seed", str(variant),
            "--out", str(out),
        ]

    def ops(self, out: Path) -> int:
        # every rollout runs the full horizon unless a state has no flip; the
        # traced run checks this against the transitions it counts
        return self.iterations * self.envs * self.horizon

    def quality(self, out: Path) -> dict:
        summary = json.loads((out / "summary.json").read_text())
        return {"final_mean_return": summary["final_mean_return"]}

    def figures(self, reps) -> dict:
        """A timed run's figures; the return is a check value, not a metric."""
        return {
            "transitions_per_s": (ops_rate(reps), "1/s"),
            "final_mean_return": (reps[0]["final_mean_return"], "return"),
        }

    def check(self, data: Path, out: Path, verified: dict) -> list:
        from flipforge import io

        failures = []
        summary = json.loads((out / "summary.json").read_text())
        model, extra = io.read_checkpoint(out / "checkpoint_final.ckpt")
        if model.config.digest() != summary["model_digest"]:
            failures.append("final checkpoint's model digest differs from summary.json")
        if extra.get("iteration") != self.iterations:
            failures.append("final checkpoint records the wrong iteration")
        curve = read_jsonl(out / "curve.jsonl")
        if len(curve) != self.iterations:
            failures.append(f"curve has {len(curve)} records, expected {self.iterations}")
        values = [v for record in curve for v in record.values()]
        if not all_finite(values + [summary["final_mean_return"]]):
            failures.append("non-finite value in the training curve")
        return failures


@dataclass(frozen=True)
class FrstWorkload:
    """Random-walk FRST sampling on the lattice prism, capped by iterations."""

    name: str
    iterations: int
    budget: int
    retry_limit: int
    # one walk varies too much in cost to stand for a run, so each repetition
    # samples with the next seed
    fresh_inputs = True
    # one build takes a few tenths of a second, so more are timed
    setup_repeats = 7
    traced_ops = "frst.nearby_frst_episode.calls"

    def prepare(self, work: Path, seed: int) -> Path:
        """Write the prism; the seed reaches the sampler through ``command``."""
        path = work / "prism3d.poly"
        write_prism(path)
        return path

    def build(self, run, polytope: Path, out: Path, trace_out=None):
        """The sampler's own preparation through the public API, in this process.

        Returns (seconds, polytope, digest of the circuit table); not traced.
        """
        from flipforge import io
        from flipforge.flips import enumerate_circuits
        from flipforge.frst import LatticeConfig

        start = time.perf_counter()
        lattice = LatticeConfig.from_config(io.read_point_config(polytope))
        table = enumerate_circuits(lattice.config)
        seconds = time.perf_counter() - start
        circuits = repr([(c.vertices, c.coeffs) for c in table.circuits])
        return seconds, polytope, hashlib.sha256(circuits.encode()).hexdigest()

    def command(self, polytope: Path, out: Path, variant: int):
        return [
            "sample-frst", "--polytope", str(polytope), "--locator", "random-walk",
            "--clock", "virtual", "--max-iterations", str(self.iterations),
            "--retry-limit", str(self.retry_limit), "--budget", str(self.budget),
            "--seed", str(variant), "--out", str(out),
        ]

    def ops(self, out: Path) -> int:
        # sampler iterations: how many of them find a new FRST varies with the
        # seed alone, so the distinct count is reported beside, not inside, ops
        return json.loads((out / "summary.json").read_text())["iterations"]

    def quality(self, out: Path) -> dict:
        summary = json.loads((out / "summary.json").read_text())
        ledger = read_jsonl(out / "ledger.jsonl")
        return {
            "distinct_frsts": summary["distinct_frsts"],
            "stop_reason": stop_reason(ledger, self.iterations, self.retry_limit),
            "summary_stopped_by_retries": summary["stopped_by_retries"],
        }

    def figures(self, reps) -> dict:
        """A timed run's figures; frsts_per_s pools the distinct counts of all repetitions."""
        first = reps[0]
        distinct = sum(r["distinct_frsts"] for r in reps)
        return {
            "iterations_per_s": (ops_rate(reps), "1/s"),
            "frsts_per_s": (distinct / sum(r["wall_s"] for r in reps), "1/s"),
            "distinct_frsts": (first["distinct_frsts"], "count"),
            "stop_reason": (first["stop_reason"], ""),
            "summary_stopped_by_retries": (first["summary_stopped_by_retries"], ""),
        }

    def check(self, polytope: Path, out: Path, verified: dict) -> list:
        """Re-verify every FRST exactly; ``verified`` caches verdicts by key."""
        from flipforge import io
        from flipforge.frst import LatticeConfig
        from flipforge.triangulation import is_fine, is_regular, is_star, validate

        failures = []
        summary = json.loads((out / "summary.json").read_text())
        ledger = read_jsonl(out / "ledger.jsonl")
        tris = io.read_triangulation_set(out / "frsts.tri")
        distinct = summary["distinct_frsts"]
        if not ledger or ledger[-1]["cumulative_count"] != distinct:
            failures.append("ledger's cumulative count differs from distinct_frsts")
        if len(tris) != distinct or len({t.canonical_key for t in tris}) != distinct:
            failures.append("frsts.tri does not hold distinct_frsts distinct triangulations")
        # the cap, not the retry rule or the clock, must end this workload; read
        # from the ledger because summary.json's stopped_by_retries misreports
        # time-capped runs
        if stop_reason(ledger, self.iterations, self.retry_limit) != "iterations":
            failures.append("sampler stopped before the iteration cap")
        if "lattice" not in verified:
            config = io.read_point_config(polytope)
            verified["lattice"] = LatticeConfig.from_config(config)
        lattice = verified["lattice"]
        config = lattice.config
        for tri in tris:
            key = tri.canonical_key
            if key not in verified:
                verified[key] = (
                    is_fine(tri, config)
                    and is_star(tri, config, lattice.origin_index)
                    and validate(tri, config).ok
                    and is_regular(tri, config)[0]
                )
            if not verified[key]:
                failures.append(f"{len(key)}-simplex triangulation is not a valid FRST")
        return failures


def stop_reason(ledger, max_iterations: int, retry_limit: int) -> str:
    """Why the sampler stopped, read from its ledger alone."""
    if len(ledger) >= max_iterations:
        return "iterations"
    trailing = 0
    for entry in reversed(ledger):
        if entry["new_key"]:
            break
        trailing += 1
    return "retries" if trailing >= retry_limit else "time"
