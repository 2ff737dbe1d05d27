"""Command-line interface and experiment orchestration.

Subcommands: gen, enumerate, search, train, eval, sample-frst.  Every command
is deterministic given --seed, writes a resolved-config provenance copy into
its output directory, and uses the exit codes 0 (success), 2 (usage),
3 (data), 4 (checkpoint), 5 (internal error).  FLIPFORGE_THREADS caps the
worker count for per-instance search fan-out.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

from . import io
from .datagen import Dataset, GenSpec, generate, initial_triangulation, seed_triangulations
from .errors import CheckpointError, FlipForgeError, FormatError
from .flips import enumerate_circuits, enumerate_component
from .objectives import Objective, evaluate, relative_gap, search_value
from .search import STRATEGY_NAMES, SearchContext, make_strategy, run_budgeted
from .triangulation import validate


def _lazy(name):
    """Module ``flipforge.<name>``, registered now and executed on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# The policy stack, and numpy with it, loads only for the commands that use it;
# so does the FRST sampler.
_lazy("autodiff")
policy, training, frst = _lazy("policy"), _lazy("training"), _lazy("frst")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_INTERNAL = 5


def _worker_count() -> int:
    raw = os.environ.get("FLIPFORGE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"FLIPFORGE_THREADS must be a positive integer, got {raw!r}")
    return workers


def _write_provenance(out_dir: Path, command: str, options: dict):
    payload = {"command": command, "options": options}
    io.write_json(out_dir / "resolved_config.json", payload)


def _load_dataset_dir(path: Path) -> Dataset:
    name = path / "manifest.json"
    manifest = io.read_json(name)
    if not isinstance(manifest, dict) or not {"spec", "ids", "vertex_counts"} <= manifest.keys():
        raise FormatError(f"{name} must be an object with spec, ids and vertex_counts")
    ids = manifest["ids"]
    if not isinstance(ids, list) or not all(isinstance(cid, str) for cid in ids):
        raise FormatError(f"ids in {name} must be a list of strings")
    if not ids:
        raise FormatError(f"ids in {name} is empty")
    repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
    if repeated:
        raise FormatError(f"ids in {name} repeat {', '.join(repeated)}")
    try:
        GenSpec(**manifest["spec"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad spec in {name}: {exc}") from None
    configs = {}
    seeds = {}
    for cid in ids:
        configs[cid] = io.read_point_config(path / f"config_{cid}.poly")
        seed_file = path / f"seeds_{cid}.tri"
        if seed_file.exists():
            seeds[cid] = io.read_triangulation_set(seed_file)
    return Dataset(ids=ids, configs=configs, vertex_counts=manifest["vertex_counts"], seeds=seeds)


def _seeds(dataset: Dataset, cid, count=None) -> list:
    """The first ``count`` (all if None) seeds of ``cid``, each checked by ``validate``."""
    seeds = (dataset.seeds.get(cid) or [])[:count]
    if not seeds:
        raise FormatError(f"no seed triangulations for {cid}")
    for k, tri in enumerate(seeds):
        report = validate(tri, dataset.configs[cid])
        if not report.ok:
            clause, message = report.details[0]
            raise FormatError(f"seed {k} of {cid} is no valid triangulation ({clause}: {message})")
    return seeds


def cmd_gen(args) -> int:
    if args.seed_cap < 1:
        raise ValueError(f"seed_cap must be at least 1, got {args.seed_cap}")
    spec = GenSpec(
        dim=args.dim,
        samples=args.samples,
        count=args.count,
        seed=args.seed,
        snap_denominator=args.snap_denominator,
    )
    dataset = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for cid in dataset.ids:
        config = dataset.configs[cid]
        io.write_point_config(out / f"config_{cid}.poly", config)
        seeds = seed_triangulations(config, cap=args.seed_cap)
        dataset.seeds[cid] = seeds
        io.write_triangulation_set(out / f"seeds_{cid}.tri", seeds)
    manifest = {
        "spec": dataclasses.asdict(spec),
        "ids": dataset.ids,
        "vertex_counts": dataset.vertex_counts,
        "seed_counts": {cid: len(dataset.seeds[cid]) for cid in dataset.ids},
        "seed_cap": args.seed_cap,
    }
    io.write_json(out / "manifest.json", manifest)
    _write_provenance(out, "gen", _option_dict(args))
    print(f"wrote {len(dataset.ids)} configurations to {out}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.limit < 1:
        raise ValueError(f"limit must be at least 1, got {args.limit}")
    if args.dump and not Path(args.dump).parent.is_dir():  # checked before the walk
        raise FileNotFoundError(f"no directory {Path(args.dump).parent} for --dump {args.dump}")
    config = io.read_point_config(args.polytope)
    table = enumerate_circuits(config)
    seed = initial_triangulation(config)
    result = enumerate_component(seed, table, limit=args.limit)
    print(f"states: {len(result)}")
    print(f"edges: {result.edge_count}")
    print(f"truncated: {'true' if result.truncated else 'false'}")
    if args.dump:
        io.write_triangulation_set(args.dump, list(result.states.values()))
    return EXIT_OK


def _search_instance(task):
    """One (polytope, seed triangulation, strategy) run; used by worker pools.

    Tasks share one strategy instance, which each run resets; a pool worker
    runs a pickled copy.
    """
    cid, table, seed_tri, seed_index, strategy, objective, budget, rng_seed = task
    trace = run_budgeted(
        strategy,
        seed_tri,
        objective,
        budget,
        config=table.config,
        table=table,
        seed=rng_seed,
    )
    log = [
        {
            "step": r.step,
            "action": [list(r.action_id[0]), r.action_id[1]] if r.action_id else None,
            "value": r.value,
            "best": r.best,
            "actions": r.actions,
        }
        for r in trace.records
    ]
    return cid, seed_index, trace.best_value, log


def _read_model(path, dims):
    """The checkpoint's model, which must have been trained on each dimension of ``dims``."""
    model, _extra = io.read_checkpoint(path)
    for dim in dims:
        if model.config.input_dim != dim:
            raise CheckpointError(
                f"checkpoint is for dimension {model.config.input_dim}, data has {dim}"
            )
    return model


def _exact_reference(table, objective, limit):
    """Best search value over the seed's flip-graph component as far as ``limit``
    expansions reach (all of it unless truncated); each state is scored as it is built.
    The walk's states are distinct, so no value or certificate cache would ever hit."""
    config = table.config
    values = []
    component = enumerate_component(
        initial_triangulation(config),
        table,
        limit=limit,
        visit=lambda tri: values.append(search_value(objective, tri, config)),
    )
    return min(values), component.truncated


def _run_search_tasks(tasks, references, workers):
    """Run results and ``(table, objective, limit)`` references; one pool runs both, references first."""
    if workers <= 1:
        return [_search_instance(t) for t in tasks], [_exact_reference(*r) for r in references]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        refs = [pool.submit(_exact_reference, *r) for r in references]
        return list(pool.map(_search_instance, tasks)), [f.result() for f in refs]


def _search_common(args, strategy_name, checkpoint_path=None) -> int:
    workers = _worker_count()
    for option, least in (("budget", 0), ("starts", 1), ("ref_limit", 1)):
        value = getattr(args, option)
        if value < least:
            raise ValueError(f"{option} must be at least {least}, got {value}")
    dataset = _load_dataset_dir(Path(args.data))
    objective = Objective.from_name(args.objective)
    model = None
    if checkpoint_path is not None:
        model = _read_model(checkpoint_path, [dataset.configs[cid].dim for cid in dataset.ids])
    params = dict(args.strategy_param or {})
    if strategy_name == "policy":
        params.setdefault("mode", args.mode)
    strategy = make_strategy(strategy_name, model=model, params=params)  # checked before any work
    tables = {}
    tasks = []
    for cid in dataset.ids:
        seeds = _seeds(dataset, cid, args.starts)
        tables[cid] = enumerate_circuits(dataset.configs[cid])
        for k, seed_tri in enumerate(seeds):
            tasks.append(
                (
                    cid,
                    tables[cid],
                    seed_tri,
                    k,
                    strategy,
                    objective,
                    args.budget,
                    args.seed + 1000 * dataset.ids.index(cid) + k,
                )
            )
    results, walks = _run_search_tasks(
        tasks, [(tables[cid], objective, args.ref_limit) for cid in dataset.ids], workers
    )
    results.sort(key=lambda r: (r[0], r[1]))
    references = {cid: ref for cid, (ref, _truncated) in zip(dataset.ids, walks)}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # run logs and references are search values (minimization convention);
    # the gap table reports native objective values
    sign = -1.0 if objective.sense == "maximize" else 1.0
    labels, bests, refs = [], [], []
    rows = []
    for cid, seed_index, best, log in results:
        labels.append(f"{cid}/{seed_index}")
        bests.append(sign * best)
        refs.append(sign * references[cid])
        io.write_jsonl(out / f"runlog_{cid}_{seed_index}.jsonl", log)
    report = relative_gap(bests, refs, labels, objective.sense)
    for (label, best, ref, gap) in report.instances:
        rows.append((label, strategy_name, args.objective, best, ref, gap))
    io.write_tsv(
        out / "gap_table.tsv",
        ("instance", "strategy", "objective", "best", "reference", "gap"),
        rows,
    )
    summary = {
        "strategy": strategy_name,
        "objective": args.objective,
        "budget": args.budget,
        "mean_gap": report.mean,
        "stderr_gap": report.stderr,
        "instances": len(report.instances),
        "references_exact": not any(truncated for _ref, truncated in walks),
    }
    io.write_json(out / "summary.json", summary)
    _write_provenance(out, "search" if checkpoint_path is None else "eval", _option_dict(args))
    print(f"mean gap: {report.mean:.6f} (stderr {report.stderr:.6f})")
    return EXIT_OK


def _check_checkpoint(args, learned, what):
    """A missing or an extra --checkpoint is a usage error, raised before any input is read."""
    if learned and not args.checkpoint:
        raise ValueError(f"{what} requires --checkpoint")
    if args.checkpoint and not learned:
        raise ValueError(f"{what} takes no model, so no --checkpoint")


def cmd_search(args) -> int:
    _check_checkpoint(args, args.strategy in ("policy", "nls_accept"), f"strategy {args.strategy}")
    return _search_common(args, args.strategy, checkpoint_path=args.checkpoint)


def cmd_eval(args) -> int:
    _check_checkpoint(args, True, "eval")
    args.strategy = "policy"
    return _search_common(args, "policy", checkpoint_path=args.checkpoint)


def cmd_train(args) -> int:
    dataset = _load_dataset_dir(Path(args.data))
    objective = Objective.from_name(args.objective)
    dims = {cfg.dim for cfg in dataset.configs.values()}
    if len(dims) != 1:
        raise FormatError("training data mixes dimensions")
    # the trainer also accepts a zero rate (a frozen policy); a training run needs a positive one
    if not args.lr > 0:
        raise ValueError("lr must be positive")
    model_config = policy.ModelConfig(
        input_dim=dims.pop(),
        hidden=args.hidden,
        encoder_layers=args.encoder_layers,
        actor_layers=args.actor_layers,
        chebyshev_order=args.chebyshev_order,
        actor_kind=args.actor,
    )
    trainer = training.TrainerConfig(
        horizon=args.horizon,
        num_envs=args.envs,
        iterations=args.iterations,
        learning_rate=args.lr,
        bonus_coef=args.bonus,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    environments = {}
    for cid in dataset.ids:
        config = dataset.configs[cid]
        seeds = _seeds(dataset, cid)
        environments[SearchContext(config, enumerate_circuits(config), objective)] = seeds
    if objective is Objective.FRST_REACH and all(
        evaluate(objective, tri, env.config, env.cache)
        for env, seeds in environments.items()
        for tri in seeds
    ):
        raise FormatError("every seed is already fine and regular; frst_reach has nothing to train on")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "curve.jsonl"
    curve_path.write_text("")

    def on_iteration(record):
        io.append_jsonl(curve_path, record)

    def on_checkpoint(iteration, model):
        io.write_checkpoint(
            out / f"checkpoint_{iteration:05d}.ckpt", model, {"iteration": iteration}
        )

    result = training.train(
        environments,
        model_config,
        trainer,
        on_iteration=on_iteration,
        on_checkpoint=on_checkpoint,
    )
    io.write_checkpoint(
        out / "checkpoint_final.ckpt", result.model, {"iteration": trainer.iterations}
    )
    io.write_json(
        out / "summary.json",
        {
            "iterations": trainer.iterations,
            "objective": args.objective,
            "final_mean_return": result.curve[-1]["mean_return"] if result.curve else 0.0,
            "model_digest": result.model.config.digest(),
        },
    )
    _write_provenance(out, "train", _option_dict(args))
    print(f"trained {trainer.iterations} iterations; checkpoint at {out / 'checkpoint_final.ckpt'}")
    return EXIT_OK


def cmd_sample_frst(args) -> int:
    _check_checkpoint(args, args.locator == "policy", f"locator {args.locator}")
    config = io.read_point_config(args.polytope)
    lattice = frst.LatticeConfig.from_config(config)
    sampler = frst.SamplerConfig(
        height_std=args.std,
        max_seconds=args.max_seconds,
        max_iterations=args.max_iterations,
        retry_limit=args.retry_limit,
        flip_budget=args.budget,
    )
    strategy = None  # lift-only: the lifted start is the whole episode
    if args.locator == "policy":
        model = _read_model(args.checkpoint, [config.dim])
        strategy = make_strategy("policy", model=model, params={"mode": args.mode})
    elif args.locator == "random-walk":
        strategy = make_strategy("random_walk")
    clock = frst.WallClock() if args.clock == "wall" else frst.VirtualClock()
    import numpy as np

    rng = np.random.default_rng(args.seed)
    ledger = frst.sample_frsts(lattice, sampler, strategy, rng, clock=clock)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_jsonl(
        out / "ledger.jsonl",
        [
            {
                "iteration": e.iteration,
                "elapsed_ms": e.elapsed_ms,
                "new_key": e.new_key,
                "cumulative_count": e.cumulative,
            }
            for e in ledger.entries
        ],
    )
    frsts = sorted(ledger.triangulations.values(), key=lambda tri: tri.canonical_key)
    io.write_triangulation_set(out / "frsts.tri", frsts)
    io.write_json(
        out / "summary.json",
        {
            "polytope": Path(args.polytope).name,
            "locator": args.locator,
            "distinct_frsts": len(ledger),
            "iterations": len(ledger.entries),
            "stopped_by_retries": ledger.stop_reason == "retries",
        },
    )
    _write_provenance(out, "sample-frst", _option_dict(args))
    print(f"distinct FRSTs: {len(ledger)} in {len(ledger.entries)} iterations")
    return EXIT_OK


def _option_dict(args) -> dict:
    # the output directory is where results land, not an input that affects
    # them; leaving it out keeps provenance files byte-identical across runs
    skip = {"func", "out"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value if not isinstance(value, Path) else str(value)
    return out


class _KeyValue(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        store = getattr(namespace, self.dest) or {}
        for item in values:
            if "=" not in item:
                raise argparse.ArgumentError(self, f"expected key=value, got {item!r}")
            key, raw = item.split("=", 1)
            store[key] = _typed_value(raw)
        setattr(namespace, self.dest, store)


def _typed_value(raw: str):
    """A key=value value as an int, else a float, else the string itself."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipforge",
        description="Triangulation optimization on the bistellar flip graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic polytope dataset")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--samples", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--snap-denominator", type=int, default=1 << 20)
    p_gen.add_argument("--seed-cap", type=int, default=2000)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_enum = sub.add_parser("enumerate", help="breadth-first flip-graph census")
    p_enum.add_argument("polytope")
    p_enum.add_argument("--limit", type=int, default=1_000_000)
    p_enum.add_argument("--dump", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    def add_search_options(p, with_strategy):
        p.add_argument("--data", required=True)
        p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
        if with_strategy:
            p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
        p.add_argument("--budget", type=int, default=500)
        p.add_argument("--starts", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ref-limit", type=int, default=1_000_000)
        p.add_argument("--mode", choices=("argmax", "sample"), default="argmax")
        p.add_argument(
            "--strategy-param",
            nargs="*",
            action=_KeyValue,
            default=None,
            help="strategy-specific key=value pairs",
        )
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--out", required=True)

    p_search = sub.add_parser("search", help="budgeted baseline search with gap tables")
    add_search_options(p_search, with_strategy=True)
    p_search.set_defaults(func=cmd_search)

    p_eval = sub.add_parser("eval", help="run a trained policy as the search strategy")
    add_search_options(p_eval, with_strategy=False)
    p_eval.set_defaults(func=cmd_eval)

    p_train = sub.add_parser("train", help="train the flip-ranking policy")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p_train.add_argument("--iterations", type=int, default=2000)
    p_train.add_argument("--envs", type=int, default=128)
    p_train.add_argument("--horizon", type=int, default=50)
    p_train.add_argument("--lr", type=float, default=1e-4)
    p_train.add_argument("--bonus", type=float, default=0.1)
    p_train.add_argument("--hidden", type=int, default=64)
    p_train.add_argument("--encoder-layers", type=int, default=3)
    p_train.add_argument("--actor-layers", type=int, default=2)
    p_train.add_argument("--chebyshev-order", type=int, default=3)
    p_train.add_argument("--actor", choices=("snn", "egnn_only", "pool_mlp", "nls_accept"), default="snn")
    p_train.add_argument("--checkpoint-every", type=int, default=50)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_frst = sub.add_parser("sample-frst", help="budgeted FRST discovery loop")
    p_frst.add_argument("--polytope", required=True)
    p_frst.add_argument(
        "--locator", choices=("policy", "random-walk", "lift-only"), default="random-walk"
    )
    p_frst.add_argument("--checkpoint", default=None)
    p_frst.add_argument("--budget", type=int, default=50)
    p_frst.add_argument("--max-iterations", type=int, default=1024)
    p_frst.add_argument("--max-seconds", type=float, default=300.0)
    p_frst.add_argument("--retry-limit", type=int, default=50)
    p_frst.add_argument("--std", type=float, default=1.0)
    p_frst.add_argument("--mode", choices=("argmax", "sample"), default="argmax")
    p_frst.add_argument(
        "--clock",
        choices=("virtual", "wall"),
        default="virtual",
        help="virtual is deterministic; wall uses real time",
    )
    p_frst.add_argument("--seed", type=int, default=0)
    p_frst.add_argument("--out", required=True)
    p_frst.set_defaults(func=cmd_sample_frst)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # per-run seeds are seed + 1000 * i + k, and numpy takes no negative seed
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (FormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FlipForgeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # last resort: one line and an exit code, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
