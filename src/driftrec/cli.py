"""Command-line entry points.

One subcommand per pipeline stage: split a log, dump the positive multiset,
train, evaluate a checkpoint, sweep parameters, run one-step margin probes,
and generate synthetic drift data. Failures print a machine-readable JSON
record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np
import yaml

from .data import write_split_manifest
from .experiment import (
    ExperimentConfig,
    build_positives,
    load_config,
    load_split,
    run,
    sweep,
    write_sweep_csv,
)
from .metrics import evaluate
from .models import (
    build_norm_adjacency,
    checkpoint_header,
    init_xavier,
    load_checkpoint,
    save_checkpoint,
)
from .probes import probe_one_step
from .samplers import NegativeSampler
from .synthetic import SyntheticSpec, generate, write_tsv
from .training import AdamState, fit

__all__ = ["main"]


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="interaction log file (user, item, timestamp)")
    p.add_argument("--format", dest="data_format", choices=("tsv", "csv"))
    p.add_argument("--skip-header", action="store_const", const=True, default=None)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--val-fraction", dest="val_fraction_of_holdout", type=float)
    p.add_argument("--drop-cold-items", action="store_const", const=True, default=None)


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decay", choices=("exponential", "linear", "power"))
    p.add_argument("--rate", type=float, help="decay rate per time unit")
    p.add_argument("--time-unit", dest="time_unit", type=float, help="seconds per gap unit")
    p.add_argument("--layers", type=int, help="number of filtration layers")
    p.add_argument("--range-mode", dest="range_mode", choices=("unit_interval", "data_range"))


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=("layered", "baseline", "weighted_bpr", "recent_k"))
    p.add_argument("--recent-k", dest="recent_k", type=int)
    p.add_argument("--backbone", choices=("mf", "lightgcn"))
    p.add_argument("--d", type=int, help="embedding dimension")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--epoch-mode", dest="epoch_mode", choices=("full_pass", "pi_sample"))
    p.add_argument("--prop-layers", dest="prop_layers", type=int)
    p.add_argument("--ks", help="comma-separated cutoffs, e.g. 20,30")


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sampler", choices=("rns", "pns", "dns", "dns-mn"))
    p.add_argument("--pool", type=int, help="candidate pool size for dns / dns-mn")
    p.add_argument("--alpha", type=float, help="popularity exponent for pns")
    p.add_argument("--m", type=int, help="dns-mn window start rank (1-based)")
    p.add_argument("--n", type=int, help="dns-mn window end rank (inclusive)")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    keys = (
        "data_format", "skip_header", "train_fraction", "val_fraction_of_holdout",
        "drop_cold_items", "variant", "decay", "rate", "time_unit", "layers",
        "range_mode", "recent_k", "backbone", "d", "lr", "batch_size", "l2",
        "epochs", "eval_every", "optimizer", "epoch_mode", "prop_layers",
        "sampler", "alpha", "pool", "m", "n",
    )
    overrides = {k: getattr(args, k, None) for k in keys}
    if getattr(args, "data", None) is not None:
        overrides["data_path"] = args.data
    if getattr(args, "ks", None) is not None:
        overrides["ks"] = tuple(int(k) for k in str(args.ks).split(","))
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "seeds", None) is not None:
        overrides["seeds"] = tuple(int(s) for s in str(args.seeds).split(","))
    if getattr(args, "out_dir", None) is not None:
        overrides["out_dir"] = args.out_dir
    return load_config(getattr(args, "config", None), overrides)


def _out_stream(path: str | None):
    return open(path, "w") if path else sys.stdout


def _close(stream) -> None:
    if stream is not sys.stdout:
        stream.close()


def cmd_split(args) -> int:
    config = _config_from_args(args)
    split = load_split(config)
    stream = _out_stream(args.out)
    try:
        write_split_manifest(split, stream)
    finally:
        _close(stream)
    print(
        json.dumps(
            {
                "cutting_timestamp": split.cutting_timestamp,
                "train": len(split.train),
                "validation": len(split.validation),
                "test": len(split.test),
                "dropped_cold_user": split.dropped_cold_user,
                "dropped_cold_item": split.dropped_cold_item,
                "num_users": split.num_users,
                "num_items": split.num_items,
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_build_pss(args) -> int:
    config = _config_from_args(args)
    split = load_split(config)
    pss, _ = build_positives(split, config)
    stream = _out_stream(args.out)
    try:
        for record in pss.audit_records():
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        _close(stream)
    print(
        json.dumps(
            {"pss_size": len(pss), "distinct_pairs": len(pss.multiplicity())},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    split = load_split(config)
    pss, pair_weights = build_positives(split, config)
    seed = config.seeds[0]
    model, history = fit(
        split,
        config.train_config(seed),
        pss=pss,
        pair_weights=pair_weights,
        ks=config.ks,
        metrics_path=args.metrics_out,
        checkpoint_path=args.checkpoint_out,
    )
    best_epoch = getattr(model, "best_epoch", None)
    if args.checkpoint_out and best_epoch is None:
        # fit wrote no checkpoint (no validation improvement), so save the final model
        save_checkpoint(model, args.checkpoint_out)
    report = evaluate(model, split, ks=config.ks, part="test", per_user=False)
    doc = {
        "seed": seed,
        "best_epoch": best_epoch,
        "evaluations": len(history),
        "users_evaluated": report.users_evaluated,
        "pss_size": len(pss),
    }
    for k in config.ks:
        doc[f"recall@{k}"] = report.aggregates[k]["recall"]
        doc[f"ndcg@{k}"] = report.aggregates[k]["ndcg"]
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    config = _config_from_args(args)
    split = load_split(config)
    adjacency = None
    if checkpoint_header(args.checkpoint)["backbone"] == "lightgcn":
        adjacency = build_norm_adjacency(
            split.train.users, split.train.items, split.num_users, split.num_items
        )
    model = load_checkpoint(args.checkpoint, adjacency=adjacency)
    report = evaluate(model, split, ks=config.ks, part=args.part, per_user=bool(args.per_user_out))
    if args.per_user_out:
        with open(args.per_user_out, "w") as f:
            for rec in report.per_user:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    if args.csv_out:
        with open(args.csv_out, "w") as f:
            report.write_csv(f)
    doc = report.to_dict()
    doc.pop("per_user", None)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    result = run(_config_from_args(args))
    for row in result.summary:
        print(json.dumps(row, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    grid: dict = {}
    for spec in args.param:
        name, _, values = spec.partition("=")
        if not values:
            raise ValueError(f"malformed --param {spec!r}, expected name=v1,v2,...")
        grid[name.strip()] = [yaml.safe_load(v) for v in values.split(",")]
    rows = sweep(config, grid, mode=args.mode)
    stream = _out_stream(args.out)
    try:
        write_sweep_csv(rows, list(grid), config.ks, stream)
    finally:
        _close(stream)
    return 0


def cmd_probe(args) -> int:
    config = _config_from_args(args)
    split = load_split(config)
    seed = config.seeds[0]
    model = init_xavier(split.num_users, split.num_items, config.d, seed)
    sampler = NegativeSampler(config.sampler_spec(), split.train)
    rng = np.random.default_rng([seed, 2])
    idx = rng.integers(0, len(split.train), size=args.num_pairs)
    users = split.train.users[idx]
    pos = split.train.items[idx]
    negs = sampler.sample_batch(users, model, rng)
    etas = [float(e) for e in args.etas.split(",")]
    optimizer = "identity"
    if args.probe_optimizer == "adam":
        optimizer = AdamState(split.num_users, split.num_items, config.d)

    columns = [
        "user", "pos_item", "neg_item", "eta", "optimizer",
        "margin_before", "margin_after", "grad_norm_sq", "bound_rhs", "gain",
    ]
    stream = _out_stream(args.out)
    increases = 0
    total = 0
    try:
        writer = csv.DictWriter(stream, fieldnames=columns)
        writer.writeheader()
        for u, p, q in zip(users.tolist(), pos.tolist(), negs.tolist()):
            for eta in etas:
                probe = probe_one_step(model, u, p, q, eta, optimizer=optimizer)
                doc = probe.to_dict()
                writer.writerow(
                    {k: (repr(v) if isinstance(v, float) else v) for k, v in doc.items()}
                )
                total += 1
                if probe.gain > 0 or probe.grad_norm_sq == 0:
                    increases += 1
    finally:
        _close(stream)
    print(
        json.dumps(
            {"pairs": int(args.num_pairs), "etas": etas, "probes": total, "margin_increases": increases},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_gen_synth(args) -> int:
    spec = SyntheticSpec(
        num_users=args.users,
        num_items=args.items,
        num_events=args.events,
        horizon_days=args.horizon_days,
        drift_time=args.drift_time,
        drift_strength=args.drift_strength,
        seed=args.seed,
    )
    log = generate(spec)
    stream = _out_stream(args.out)
    try:
        write_tsv(log, stream)
    finally:
        _close(stream)
    print(
        json.dumps(
            {"interactions": len(log), "num_users": log.num_users, "num_items": log.num_items},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrec",
        description="Recency-layered implicit-feedback recommendation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="write a chronological split manifest")
    _add_data_flags(p)
    p.add_argument("--config")
    p.add_argument("--out", help="manifest path (default stdout)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-pss", help="dump the positive multiset per pair")
    _add_data_flags(p)
    _add_graph_flags(p)
    p.add_argument("--variant", choices=("layered", "baseline", "weighted_bpr", "recent_k"))
    p.add_argument("--recent-k", dest="recent_k", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_pss)

    p = sub.add_parser("train", help="train one model and report test metrics")
    _add_data_flags(p)
    _add_graph_flags(p)
    _add_train_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint-out", dest="checkpoint_out")
    p.add_argument("--metrics-out", dest="metrics_out", help="per-epoch metrics stream")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    _add_data_flags(p)
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--part", choices=("validation", "test"), default="test")
    p.add_argument("--ks")
    p.add_argument("--csv-out", dest="csv_out")
    p.add_argument("--per-user-out", dest="per_user_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="multi-seed experiment with summary")
    _add_data_flags(p)
    _add_graph_flags(p)
    _add_train_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="metric grid across parameter settings")
    _add_data_flags(p)
    _add_graph_flags(p)
    _add_train_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config")
    p.add_argument("--param", action="append", required=True, help="name=v1,v2,...")
    p.add_argument("--mode", choices=("one_at_a_time", "grid"), default="one_at_a_time")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe", help="one-step margin probes on sampled pairs")
    _add_data_flags(p)
    _add_sampler_flags(p)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--num-pairs", dest="num_pairs", type=int, default=100)
    p.add_argument("--etas", default="0.01,0.001,0.0001")
    p.add_argument(
        "--optimizer",
        dest="probe_optimizer",
        choices=("identity", "adam"),
        default="identity",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("gen-synth", help="synthetic drift log as TSV")
    p.add_argument("--users", type=int, default=500)
    p.add_argument("--items", type=int, default=1000)
    p.add_argument("--events", type=int, default=40_000)
    p.add_argument("--horizon-days", dest="horizon_days", type=float, default=200.0)
    p.add_argument("--drift-time", dest="drift_time", type=float, default=0.6)
    p.add_argument("--drift-strength", dest="drift_strength", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
