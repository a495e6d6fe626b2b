"""Command-line entry points.

One subcommand per pipeline stage: split a log, dump the positive multiset,
train, evaluate a checkpoint, sweep parameters, run one-step margin probes,
and generate synthetic drift data. Failures print a machine-readable JSON
record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .data import DATA_FORMATS, write_split_manifest
from .decay import KINDS as DECAY_KINDS
from .experiment import (
    EXPERIMENT_VARIANTS,
    SWEEP_MODES,
    ExperimentConfig,
    build_positives,
    load_config,
    load_split,
    read_yaml,
    run,
    sweep,
    train_and_test,
    write_sweep_csv,
)
from .metrics import evaluate
from .models import BACKBONES, checkpoint_header, load_checkpoint
from .positives import RANGE_MODES
from .probes import MarginProbe, probe_one_step
from .samplers import KINDS as SAMPLER_KINDS
from .synthetic import SyntheticSpec, generate, write_tsv
from .training import EPOCH_MODES, OPTIMIZERS, init_training, train_adjacency

__all__ = ["main"]

# ExperimentConfig fields that subcommands expose as flags, in flag order
_DATA = ("data_path", "data_format", "skip_header", "train_fraction",
         "val_fraction_of_holdout", "drop_cold_items")
_GRAPH = ("decay", "rate", "time_unit", "layers", "range_mode")
_VARIANT = ("variant", "recent_k")
_SAMPLER = ("sampler", "pool", "alpha", "m", "n")
_PIPELINE = _DATA + _GRAPH + _VARIANT + (
    "backbone", "d", "lr", "batch_size", "l2", "epochs", "eval_every",
    "optimizer", "epoch_mode", "prop_layers", "ks",
) + _SAMPLER

# (option string, dest) of the fields whose flag is not --field-name
_ALIASES = {
    "data_path": ("--data", "data"),
    "data_format": ("--format", "data_format"),
    "val_fraction_of_holdout": ("--val-fraction", "val_fraction_of_holdout"),
}
_CHOICES = {
    "data_format": DATA_FORMATS,
    "variant": EXPERIMENT_VARIANTS,
    "decay": DECAY_KINDS,
    "range_mode": RANGE_MODES,
    "backbone": BACKBONES,
    "optimizer": OPTIMIZERS,
    "epoch_mode": EPOCH_MODES,
    "sampler": tuple(kind.replace("_", "-") for kind in SAMPLER_KINDS),
}
_HELP = {
    "data_path": "interaction log file (user, item, timestamp)",
    "rate": "decay rate per time unit",
    "time_unit": "seconds per gap unit",
    "layers": "number of filtration layers",
    "d": "embedding dimension",
    "ks": "comma-separated cutoffs, e.g. 20,30",
    "pool": "candidate pool size for dns",
    "alpha": "popularity exponent for pns",
    "m": "dns-mn window start rank (1-based)",
    "n": "dns-mn candidate count and window end rank (inclusive)",
    "seeds": "comma-separated seeds",
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_PROBE_OPTIMIZERS = {"identity": "sgd", "adam": "adam"}


def _flag(name: str) -> tuple[str, str]:
    return _ALIASES.get(name, ("--" + name.replace("_", "-"), name))


def _add_config_flags(p: argparse.ArgumentParser, names, described: bool = True) -> None:
    """One flag per named ExperimentConfig field, defaulting to None.

    Tuple fields (ks, seeds) stay strings until :func:`_config_from_args`,
    so a malformed list is the command's JSON error, not a usage error.
    """
    for name in names:
        flag, dest = _flag(name)
        kwargs = {"dest": dest, "help": _HELP.get(name) if described else None}
        default = _DEFAULTS[name]
        if isinstance(default, bool):
            kwargs.update(action="store_const", const=True, default=None)
        else:
            kwargs["choices"] = _CHOICES.get(name)
            if isinstance(default, (int, float)):
                kwargs["type"] = type(default)
        p.add_argument(flag, **kwargs)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {name: getattr(args, _flag(name)[1], None) for name in _DEFAULTS}
    for name in ("ks", "seeds"):
        text = overrides[name]
        if text is not None:
            try:
                overrides[name] = tuple(int(v) for v in text.split(","))
            except ValueError:
                raise ValueError(f"{name} must be a list of integers, got {text!r}") from None
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    return load_config(getattr(args, "config", None), overrides)


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, opened for writing and closed on exit, or stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as stream:
        yield stream


def _report(doc: dict) -> None:
    """A command's one-line JSON summary on stderr."""
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def cmd_split(args) -> None:
    split = load_split(_config_from_args(args))
    with _output(args.out) as stream:
        write_split_manifest(split, stream)
    _report({
        "cutting_timestamp": split.cutting_timestamp,
        "train": len(split.train),
        "validation": len(split.validation),
        "test": len(split.test),
        "dropped_cold_user": split.dropped_cold_user,
        "dropped_cold_item": split.dropped_cold_item,
        "num_users": split.num_users,
        "num_items": split.num_items,
    })


# json.dumps(record, sort_keys=True) of an audit record, whose values are ints
# and a finite float weight (float.__repr__) or None (null), and a line end
_AUDIT_LINE = '{"item_index": %d, "layer": %d, "multiplicity": %d, "user_index": %d, "weight": %s}\n'


def cmd_build_pss(args) -> None:
    config = _config_from_args(args)
    pss, _ = build_positives(load_split(config), config)
    distinct = 0
    with _output(args.out) as stream:
        for records in pss.audit_chunks():
            stream.write("".join(
                _AUDIT_LINE % (r["item_index"], r["layer"], r["multiplicity"], r["user_index"],
                              "null" if r["weight"] is None else repr(r["weight"]))
                for r in records
            ))
            distinct += len(records)
    _report({"pss_size": len(pss), "distinct_pairs": distinct})


def cmd_train(args) -> None:
    config = _config_from_args(args)
    split = load_split(config)
    pss, pair_weights = build_positives(split, config)
    record = train_and_test(split, config, pss, pair_weights, metrics_path=args.metrics_out,
                            checkpoint_path=args.checkpoint_out)
    print(json.dumps(record, sort_keys=True))


def cmd_eval(args) -> None:
    config = _config_from_args(args)
    split = load_split(config)
    lightgcn = checkpoint_header(args.checkpoint)["backbone"] == "lightgcn"
    model = load_checkpoint(args.checkpoint,
                            adjacency=train_adjacency(split) if lightgcn else None)
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


def cmd_run(args) -> None:
    for row in run(_config_from_args(args)).summary:
        print(json.dumps(row, sort_keys=True))


def cmd_sweep(args) -> None:
    config = _config_from_args(args)
    grid: dict = {}
    for spec in args.param:
        name, _, values = spec.partition("=")
        if not values:
            raise ValueError(f"malformed --param {spec!r}, expected name=v1,v2,...")
        grid[name.strip()] = [read_yaml(v) for v in values.split(",")]
    rows = sweep(config, grid, mode=args.mode)
    with _output(args.out) as stream:
        write_sweep_csv(rows, list(grid), config.ks, stream)


def cmd_probe(args) -> None:
    config = _config_from_args(args)
    if config.backbone != "mf":  # checked up front, so even zero pairs fail
        raise ValueError("margin probes are defined for the dot-product backbone")
    split = load_split(config)
    # the training state a run of this config starts from, with a fresh
    # --optimizer; pairs and negatives come from a separate rng stream
    model, optimizer, sampler, _ = init_training(
        split, replace(config, optimizer=_PROBE_OPTIMIZERS[args.probe_optimizer]))
    rng = np.random.default_rng([config.seeds[0], 2])
    idx = rng.integers(0, len(split.train), size=args.num_pairs)
    users = split.train.users[idx]
    pos = split.train.items[idx]
    negs = sampler.sample_batch(users, model, rng)
    etas = [float(e) for e in args.etas.split(",")]

    increases = 0
    total = 0
    with _output(args.out) as stream:
        writer = csv.DictWriter(stream, fieldnames=[f.name for f in fields(MarginProbe)] + ["gain"])
        writer.writeheader()
        for u, p, q in zip(users.tolist(), pos.tolist(), negs.tolist()):
            for eta in etas:
                probe = probe_one_step(model, u, p, q, eta, optimizer=optimizer)
                writer.writerow(
                    {k: (repr(v) if isinstance(v, float) else v) for k, v in probe.to_dict().items()}
                )
                total += 1
                if probe.gain > 0 or probe.grad_norm_sq == 0:
                    increases += 1
    _report({"pairs": int(args.num_pairs), "etas": etas, "probes": total,
             "margin_increases": increases})


def cmd_gen_synth(args) -> None:
    log = generate(SyntheticSpec(
        num_users=args.users,
        num_items=args.items,
        num_events=args.events,
        horizon_days=args.horizon_days,
        drift_time=args.drift_time,
        drift_strength=args.drift_strength,
        seed=args.seed,
    ))
    with _output(args.out) as stream:
        write_tsv(log, stream)
    _report({"interactions": len(log), "num_users": log.num_users, "num_items": log.num_items})


def _subcommand(sub, name: str, help: str, names, func) -> argparse.ArgumentParser:
    """A config-backed subcommand: its config flags, then --config."""
    p = sub.add_parser(name, help=help)
    _add_config_flags(p, names)
    p.add_argument("--config")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrec",
        description="Recency-layered implicit-feedback recommendation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "split", "write a chronological split manifest", _DATA, cmd_split)
    p.add_argument("--out", help="manifest path (default stdout)")

    p = _subcommand(sub, "build-pss", "dump the positive multiset per pair",
                    _DATA + _GRAPH + _VARIANT, cmd_build_pss)
    p.add_argument("--out")

    p = _subcommand(sub, "train", "train one model and report test metrics", _PIPELINE, cmd_train)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint-out", dest="checkpoint_out")
    p.add_argument("--metrics-out", dest="metrics_out", help="per-epoch metrics stream")

    p = _subcommand(sub, "eval", "evaluate a checkpoint on a split", _DATA, cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--part", choices=("validation", "test"), default="test")
    _add_config_flags(p, ("ks",), described=False)
    p.add_argument("--csv-out", dest="csv_out")
    p.add_argument("--per-user-out", dest="per_user_out")

    p = _subcommand(sub, "run", "multi-seed experiment with summary", _PIPELINE, cmd_run)
    _add_config_flags(p, ("seeds", "out_dir"))

    p = _subcommand(sub, "sweep", "metric grid across parameter settings", _PIPELINE, cmd_sweep)
    p.add_argument("--param", action="append", required=True, help="name=v1,v2,...")
    p.add_argument("--mode", choices=SWEEP_MODES, default="one_at_a_time")
    p.add_argument("--out")

    p = _subcommand(sub, "probe", "one-step margin probes on sampled pairs",
                    _DATA + _SAMPLER, cmd_probe)
    p.add_argument("--seed", type=int)
    _add_config_flags(p, ("d",), described=False)
    p.add_argument("--num-pairs", dest="num_pairs", type=int, default=100)
    p.add_argument("--etas", default="0.01,0.001,0.0001")
    p.add_argument(
        "--optimizer",
        dest="probe_optimizer",
        choices=tuple(_PROBE_OPTIMIZERS),
        default="identity",
    )
    p.add_argument("--out")

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
        args.func(args)
    except BrokenPipeError:
        pass
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
