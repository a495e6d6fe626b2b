"""End-to-end experiment runner: data to metrics documents.

A flat configuration drives the whole pipeline: parse, split, build the
positive multiset for the chosen variant, train one model per seed, and
evaluate on the test partition. Result documents exclude wall-clock times,
so a rerun with the same configuration is byte-identical.

Variants
    layered       recency-weighted graph, filtration layers, duplicated pairs
    baseline      every train edge once
    weighted_bpr  one filtration layer: every train edge once, its recency
                  weight recorded in the set and scaling its loss
    recent_k      each user's k most recent train edges, once
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import os
import re
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import yaml

from .data import (
    InteractionLog,
    SplitDataset,
    build_log,
    check_format,
    check_split_fractions,
    parse_log,
    timestamp_split,
)
from .decay import DecaySpec, build_weighted_graph
from .metrics import evaluate
from .models import check_backbone
from .positives import (
    PositiveSampleSet,
    build_pss,
    check_filtration,
    check_recent_k,
    filtrate,
    recent_k_positives,
    train_positives,
)
from .samplers import SamplerSpec
from .training import EPOCH_MODES, OPTIMIZERS, fit

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "load_config",
    "build_positives",
    "train_and_test",
    "run",
    "sweep",
    "write_sweep_csv",
]

EXPERIMENT_VARIANTS = ("layered", "baseline", "weighted_bpr", "recent_k")
# (accepted types, their name in messages) per field annotation; an int is
# accepted for a float and a list for a tuple, a bool only for a bool
_ANNOTATION_TYPES = {
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "tuple": ((tuple, list), "a list"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key/value configuration; every key is a YAML and CLI name.

    The one config type from YAML to training. Every value is checked
    against its key's annotation when it is built; every key the pipeline
    reads is also checked then, used or not, with the message of the
    library function that reads it.
    """

    data_path: str = ""
    data_format: str = "tsv"
    skip_header: bool = False
    train_fraction: float = 0.8
    val_fraction_of_holdout: float = 0.5
    drop_cold_items: bool = False
    variant: str = "layered"
    decay: str = "exponential"
    rate: float = 0.01
    time_unit: float = 86400.0
    layers: int = 3
    range_mode: str = "unit_interval"
    recent_k: int = 10
    backbone: str = "mf"
    d: int = 64
    lr: float = 0.001
    batch_size: int = 2048
    l2: float = 1e-4
    epochs: int = 500
    eval_every: int = 10
    optimizer: str = "adam"
    epoch_mode: str = "full_pass"
    prop_layers: int = 3
    sampler: str = "rns"
    alpha: float = 0.75
    pool: int = 10
    m: int = 2
    n: int = 10
    ks: tuple = (20, 30)
    seeds: tuple = (0,)
    out_dir: str = ""
    write_epoch_metrics: bool = False

    def __post_init__(self):
        for f in fields(self):
            types, description = _ANNOTATION_TYPES[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be {description}, got {value!r}")
            # NaN fails both comparisons; an integer of any size passes
            if f.type == "float" and not -np.inf < value < np.inf:
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.variant not in EXPERIMENT_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}, expected one of {EXPERIMENT_VARIANTS}"
            )
        for name in ("ks", "seeds"):
            value = getattr(self, name)
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in value):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
            value = tuple(int(v) for v in value)
            if len(set(value)) < len(value):
                raise ValueError(f"{name} must not repeat a value, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.seeds:
            raise ValueError("need at least one seed")
        check_format(self.data_format)
        check_backbone(self.backbone)
        check_split_fractions(self.train_fraction, self.val_fraction_of_holdout)
        check_filtration(self.layers, self.range_mode)
        check_recent_k(self.recent_k)
        self.decay_spec()
        self.sampler_spec()
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epoch_mode not in EPOCH_MODES:
            raise ValueError(f"unknown epoch_mode {self.epoch_mode!r}")
        for name in ("lr", "batch_size", "l2", "d", "eval_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("epochs", "prop_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.ks or min(self.ks) <= 0:
            raise ValueError("cutoffs must be positive")

    def decay_spec(self) -> DecaySpec:
        if not float(self.time_unit).is_integer():
            raise ValueError(f"time_unit must be a whole number of seconds, got {self.time_unit!r}")
        return DecaySpec(kind=self.decay, rate=self.rate, time_unit=int(self.time_unit))

    def sampler_spec(self) -> SamplerSpec:
        return SamplerSpec(
            kind=self.sampler.replace("-", "_"),
            alpha=self.alpha,
            pool=self.pool,
            m=self.m,
            n=self.n,
        )

    def train_config(self, seed: int) -> ExperimentConfig:
        """This config with `seed` as its one training seed."""
        return replace(self, seeds=(seed,))


_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


class _YamlLoader(yaml.SafeLoader):
    """The safe loader with YAML 1.2 floats: PyYAML follows YAML 1.1, where
    an exponent needs a dot and a signed power, so ``1e-3`` is a string."""


_YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def read_yaml(stream):
    """The YAML document in `stream` (a string or a file), with YAML 1.2 floats."""
    return yaml.load(stream, Loader=_YamlLoader)


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a configuration from an optional flat YAML file plus overrides.

    Precedence: dataclass defaults, then file values, then overrides.
    Unknown keys in either source are an error, not a warning.
    """
    merged: dict = {}
    if path:
        with open(path) as f:
            loaded = read_yaml(f) or {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a flat mapping")
        merged.update(loaded)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(merged) - set(_FIELD_NAMES))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**merged)


def build_positives(
    split: SplitDataset, config: ExperimentConfig
) -> tuple[PositiveSampleSet, np.ndarray | None]:
    """Positive multiset (and loss weights for the weighted variant)."""
    if config.variant == "baseline":
        return train_positives(split), None
    if config.variant == "recent_k":
        return recent_k_positives(split.train, config.recent_k), None
    graph = build_weighted_graph(split.train, config.decay_spec())
    if config.variant == "layered":
        return build_pss(filtrate(graph, config.layers, config.range_mode)), None
    # weighted_bpr: one layer, every train edge once in train order, so the
    # loss weights line up with the set's rows
    return build_pss(filtrate(graph, 1)), graph.weights


def load_split(config: ExperimentConfig, log: InteractionLog | None = None) -> SplitDataset:
    if log is None:
        if not config.data_path:
            raise ValueError("config has no data_path and no log was given")
        events = parse_log(
            config.data_path, format=config.data_format, skip_header=config.skip_header
        )
        log = build_log(events)
    return timestamp_split(
        log,
        train_fraction=config.train_fraction,
        val_fraction_of_holdout=config.val_fraction_of_holdout,
        drop_cold_items=config.drop_cold_items,
    )


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    results: list
    summary: list

    def results_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.results)

    def summary_csv(self) -> str:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "k", "mean", "std", "num_seeds"])
        for row in self.summary:
            writer.writerow(
                [row["metric"], row["k"], repr(row["mean"]), repr(row["std"]), row["num_seeds"]]
            )
        return buf.getvalue()

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "results.jsonl"), "w") as f:
            f.write(self.results_jsonl())
        with open(os.path.join(out_dir, "summary.csv"), "w") as f:
            f.write(self.summary_csv())
        with open(os.path.join(out_dir, "config.json"), "w") as f:
            json.dump(asdict(self.config), f, sort_keys=True, indent=2)
            f.write("\n")


def _summarize(results: list, ks: tuple) -> list:
    rows = []
    for k in ks:
        for metric in ("recall", "ndcg"):
            vals = np.array([r[f"{metric}@{k}"] for r in results])
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            rows.append(
                {
                    "metric": metric,
                    "k": k,
                    "mean": float(vals.mean()),
                    "std": std,
                    "num_seeds": vals.size,
                }
            )
    return rows


def train_and_test(
    split: SplitDataset,
    config: ExperimentConfig,
    pss: PositiveSampleSet,
    pair_weights: np.ndarray | None,
    metrics_path: str | None = None,
    checkpoint_path: str | None = None,
) -> dict:
    """Fit the config's first seed, then evaluate it on the test part.

    Returns the seed's record: seed, best_epoch, evaluations,
    users_evaluated, pss_size and recall/ndcg at each cutoff. The paths
    go to :func:`~driftrec.training.fit`, which writes both files.
    """
    model, history = fit(
        split,
        config,
        pss=pss,
        pair_weights=pair_weights,
        ks=config.ks,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
    )
    report = evaluate(model, split, ks=config.ks, part="test", per_user=False)
    record = {
        "seed": config.seeds[0],
        "best_epoch": model.best_epoch,
        "evaluations": len(history),
        "users_evaluated": report.users_evaluated,
        "pss_size": len(pss),
    }
    for k in config.ks:
        record[f"recall@{k}"] = report.aggregates[k]["recall"]
        record[f"ndcg@{k}"] = report.aggregates[k]["ndcg"]
    return record


def run(config: ExperimentConfig, log: InteractionLog | None = None) -> RunResult:
    """Train and evaluate once per seed; returns results plus a summary.

    When ``config.out_dir`` is set, writes results.jsonl, summary.csv and
    config.json there (plus per-epoch metric streams when enabled, each
    rewritten by the run).
    """
    split = load_split(config, log)
    pss, pair_weights = build_positives(split, config)
    results = []
    for seed in config.seeds:
        metrics_path = None
        if config.write_epoch_metrics and config.out_dir:
            os.makedirs(config.out_dir, exist_ok=True)
            metrics_path = os.path.join(config.out_dir, f"epoch_metrics_seed{seed}.jsonl")
        record = train_and_test(split, config.train_config(seed), pss, pair_weights,
                                metrics_path=metrics_path)
        record.update(variant=config.variant, backbone=config.backbone, sampler=config.sampler)
        results.append(record)
    out = RunResult(config=config, results=results, summary=_summarize(results, config.ks))
    if config.out_dir:
        out.write(config.out_dir)
    return out


SWEEP_MODES = ("one_at_a_time", "grid")


def sweep(
    config: ExperimentConfig,
    param_grid: dict,
    mode: str = "one_at_a_time",
    log: InteractionLog | None = None,
) -> list:
    """Run the pipeline across parameter settings; never aborts mid-sweep.

    Returns one row per (setting, seed): the swept values, the seed, the
    test metrics, and an ``error`` field that is empty on success and holds
    the failure message otherwise (metrics absent in that case).
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}, expected one of {SWEEP_MODES}")
    if not param_grid:
        raise ValueError("empty parameter grid")
    unknown = sorted(set(param_grid) - set(_FIELD_NAMES))
    if unknown:
        raise ValueError(f"unknown sweep parameters: {', '.join(unknown)}")

    names = sorted(param_grid)
    if mode == "grid":
        settings = [dict(zip(names, combo)) for combo in itertools.product(*(param_grid[n] for n in names))]
    else:
        settings = []
        for name in names:
            for value in param_grid[name]:
                settings.append({name: value})

    rows = []
    for setting in settings:
        base = {n: setting.get(n, "") for n in names}
        try:
            cfg = replace(config, out_dir="", write_epoch_metrics=False, **setting)
            result = run(cfg, log)
        except Exception as exc:  # keep the sweep alive; the row records why
            rows.append({**base, "seed": "", "error": f"{type(exc).__name__}: {exc}"})
            continue
        for rec in result.results:
            row = {**base, "seed": rec["seed"], "error": ""}
            for k in cfg.ks:
                row[f"recall@{k}"] = rec[f"recall@{k}"]
                row[f"ndcg@{k}"] = rec[f"ndcg@{k}"]
            rows.append(row)
    return rows


def write_sweep_csv(rows: list, param_names: list, ks: tuple, stream) -> None:
    header = list(sorted(param_names)) + ["seed"]
    for k in ks:
        header += [f"recall@{k}", f"ndcg@{k}"]
    header.append("error")
    writer = csv.DictWriter(stream, fieldnames=header, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
