"""One benchmark run: inputs, timed jobs, output checks and metrics.

A job drives driftrec's public pipeline in the order ``driftrec train``
uses: ``data.parse_log`` on the TSV path, ``data.build_log``,
``experiment.load_split``, ``experiment.build_positives``, ``training.fit``
and ``metrics.evaluate(part="test")``, then, on workloads with probes, a
probe phase (``probes.count_updates`` for one epoch and
``probes.probe_one_step`` over a fixed triple sample). Phases run back to
back; every output check runs after the job, outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from driftrec import data, experiment, metrics, models, probes, samplers, synthetic, training
from spans import Tracer, percentile_ms, summarize, tree_errors
from workloads import SHAPES, Workload

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "train_pairs_per_s": "rows/s",
    "eval_users_per_s": "users/s",
    "peak_rss_mb": "MiB",
}
# test quality: deterministic per seed, printed beside the end-to-end metrics
# and reported by the traced run as metrics.recall_at_20 / metrics.ndcg_at_20
QUALITY = ("recall_at_20", "ndcg_at_20")

# per-layer metrics taken from span totals: span name -> reported stats
SPAN_STATS = {
    "data.parse_log": ("s",),
    "data.build_log": ("s",),
    "data.timestamp_split": ("s",),
    "decay.build_weighted_graph": ("s",),
    "positives.filtrate": ("s",),
    "positives.build_pss": ("s",),
    "experiment.build_positives": ("s",),
    "samplers.NegativeSampler.init": ("s",),
    "samplers.NegativeSampler.sample_batch": ("s", "calls", "ms_p50", "ms_p90"),
    "training.fit": ("s",),
    "training.train_epoch": ("s", "self_s", "calls"),
    "training.batch_gradients": ("s", "calls", "ms_p50", "ms_p90"),
    "training.AdamState.step": ("s", "calls", "ms_p50", "ms_p90"),
    "models.init_xavier": ("s",),
    "models.build_norm_adjacency": ("s",),
    "models.propagate": ("s", "calls"),
    "models.propagate_matrix": ("s", "calls"),
    "models.save_checkpoint": ("s", "calls"),
    "models.load_checkpoint": ("s",),
    "metrics.evaluate": ("s", "calls"),
    "probes.count_updates": ("s",),
    "probes.probe_one_step": ("s", "calls"),
}
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "ms_p50": "ms", "ms_p90": "ms"}
# per-layer values taken from the traced jobs' outputs
OUTPUT_METRICS = {
    "data.events": "count",
    "data.interactions": "count",
    "positives.pss_rows": "count",
    "positives.distinct_pairs": "count",
    "models.checkpoint_bytes": "bytes",
    "metrics.users_evaluated": "count",
    "metrics.recall_at_20": "ratio",
    "metrics.ndcg_at_20": "ratio",
}

PROBE_PAIRS = 256
# set-up passes, test evaluations and probe phases per re-timing round: these
# phases take about 0.1-0.4 s against about 1.3 s for the round's fit
ROUND_REPEATS = 3
PROBE_ETAS = (0.01, 0.1, 1.0)
K = 20


class CheckFailed(Exception):
    """An output disagrees with what the benchmark computed independently."""


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name) at the names the callers look up."""
    return [
        (data, "parse_log", "data.parse_log"),
        (data, "build_log", "data.build_log"),
        (experiment, "timestamp_split", "data.timestamp_split"),
        (experiment, "build_weighted_graph", "decay.build_weighted_graph"),
        (experiment, "filtrate", "positives.filtrate"),
        (experiment, "build_pss", "positives.build_pss"),
        (experiment, "build_positives", "experiment.build_positives"),
        (samplers.NegativeSampler, "__init__", "samplers.NegativeSampler.init"),
        (samplers.NegativeSampler, "sample_batch", "samplers.NegativeSampler.sample_batch"),
        (training, "fit", "training.fit"),
        (training, "train_epoch", "training.train_epoch"),
        (probes, "train_epoch", "training.train_epoch"),
        (training, "batch_gradients", "training.batch_gradients"),
        (training.AdamState, "step", "training.AdamState.step"),
        (models, "init_xavier", "models.init_xavier"),
        (training, "init_xavier", "models.init_xavier"),
        (probes, "init_xavier", "models.init_xavier"),
        (training, "build_norm_adjacency", "models.build_norm_adjacency"),
        (models.EmbeddingModel, "propagate", "models.propagate"),
        (models, "propagate_matrix", "models.propagate_matrix"),
        (training, "propagate_matrix", "models.propagate_matrix"),
        (models, "save_checkpoint", "models.save_checkpoint"),
        (models, "load_checkpoint", "models.load_checkpoint"),
        (metrics, "evaluate", "metrics.evaluate"),
        (probes, "count_updates", "probes.count_updates"),
        (probes, "probe_one_step", "probes.probe_one_step"),
    ]


# --- inputs ------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def ensure_input(root: Path, workload: Workload, seed: int) -> tuple[Path, str]:
    """The workload's TSV log for this seed, generated on first use.

    The cached file is used only if its metadata names the same synthetic
    spec (seed included) and generator source, and its content hash still
    matches; otherwise it is regenerated. Generation is never timed.
    """
    spec = synthetic.SyntheticSpec(**SHAPES[workload.shape], seed=seed)
    expected = {
        "spec": asdict(spec),
        "generator_sha256": _sha256(Path(synthetic.__file__)),
    }
    cache = root / ".perfbench" / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    tsv = cache / f"{workload.shape}-seed{seed}.tsv"
    meta_path = tsv.with_suffix(".json")
    if meta_path.is_file() and tsv.is_file():
        meta = json.loads(meta_path.read_text())
        if {k: meta.get(k) for k in expected} == expected and _sha256(tsv) == meta.get("sha256"):
            return tsv, meta["sha256"]
    log = synthetic.generate(spec)
    tmp = tsv.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w") as f:
        synthetic.write_tsv(log, f)
    os.replace(tmp, tsv)
    meta = {**expected, "sha256": _sha256(tsv)}
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    return tsv, meta["sha256"]


# --- one job -----------------------------------------------------------------


def setup(workload: Workload, tsv: Path, seed: int) -> dict:
    """Text log on disk to positive multiset (the span ``setup_s`` times)."""
    config = experiment.ExperimentConfig(**workload.config, seeds=(seed,))
    events = data.parse_log(str(tsv), format="tsv")
    log = data.build_log(events)
    split = experiment.load_split(config, log)
    pss, pair_weights = experiment.build_positives(split, config)
    return dict(config=config, events=len(events), interactions=len(log),
                split=split, pss=pss, pair_weights=pair_weights)


def probe_phase(split, pss, config, seed: int) -> tuple[dict, object, list]:
    """Update counts for one epoch, then one-step probes on a fixed triple sample."""
    counts = probes.count_updates(split, pss, config.train_config(seed), epochs=1)
    model = models.init_xavier(split.num_users, split.num_items, config.d, seed)
    sampler = samplers.NegativeSampler(samplers.SamplerSpec(), split.train)
    rng = np.random.default_rng([seed, 2])
    idx = rng.integers(0, len(split.train), size=PROBE_PAIRS)
    users, pos = split.train.users[idx], split.train.items[idx]
    negs = sampler.sample_batch(users, model, rng)
    results = [
        probes.probe_one_step(model, u, p, q, eta)
        for u, p, q in zip(users.tolist(), pos.tolist(), negs.tolist())
        for eta in PROBE_ETAS
    ]
    return counts, model, results


class Job:
    """One pass over the pipeline, phase by phase, and the checks of its outputs.

    ``samples[phase]`` holds the seconds of every execution of a phase; the
    first is the one inside the job, later ones come from
    :meth:`retime_round`. ``train``, a short ``training.fit`` without
    validation, runs only in those rounds.
    """

    def __init__(self, workload: Workload, tsv: Path, seed: int, workdir: Path):
        self.workload = workload
        self.ckpt = workdir / f"checkpoint-{os.getpid()}.txt"
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        st = self.st = {}

        def do_fit():
            config = st["config"]
            st["model"], _ = training.fit(
                st["split"], config.train_config(seed), pss=st["pss"],
                pair_weights=st["pair_weights"], ks=config.ks,
                checkpoint_path=str(self.ckpt) if workload.checkpoint else None,
            )
            st["eval_model"] = st["model"]

        def do_reload():
            st["checkpoint_bytes"] = self.ckpt.stat().st_size
            st["eval_model"] = models.load_checkpoint(str(self.ckpt))

        def do_evaluate():  # per-user records let the check see this very call
            st["report"] = metrics.evaluate(st["eval_model"], st["split"],
                                            ks=st["config"].ks, part="test", per_user=True)

        def do_probe():
            st["counts"], st["probe_model"], st["probes"] = probe_phase(
                st["split"], st["pss"], st["config"], seed)

        def do_train():
            epochs = workload.round_epochs
            config = training.config_with(st["config"].train_config(seed), epochs=epochs,
                                          eval_every=epochs + 1)
            st["train_model"], _ = training.fit(st["split"], config, pss=st["pss"],
                                                pair_weights=st["pair_weights"],
                                                ks=st["config"].ks)

        self.phases = {"setup": lambda: st.update(setup(workload, tsv, seed)), "fit": do_fit}
        if workload.checkpoint:
            self.phases["reload"] = do_reload
        self.phases["evaluate"] = do_evaluate
        if workload.probes:
            self.phases["probe"] = do_probe
        self.retimed = {"setup": self.phases["setup"], "train": do_train,
                        "evaluate": do_evaluate}
        if workload.probes:
            self.retimed["probe"] = do_probe

    def fail(self, phase: str, message: str) -> None:
        if phase not in {p for p, _ in self.failures}:
            self.failures.append((phase, message))

    def _timed(self, phase: str) -> bool:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            (self.phases.get(phase) or self.retimed[phase])()
        except Exception as exc:  # a phase that raises counts as failed
            self.fail(phase, f"{type(exc).__name__}: {exc}")
            return False
        self.samples.setdefault(phase, []).append(time.perf_counter() - t0)
        return True

    def run(self) -> None:
        """Every phase once, back to back; stops at the first that raises."""
        try:
            for phase in self.phases:
                if not self._timed(phase):
                    break
        finally:
            self.ckpt.unlink(missing_ok=True)

    def retime_round(self) -> None:
        """Time ``train`` once more and every other re-timed phase
        ``ROUND_REPEATS`` times; only after a complete job."""
        for phase in self.retimed:
            for _ in range(1 if phase == "train" else ROUND_REPEATS):
                gc.collect()
                if not self._timed(phase):
                    return

    @property
    def complete(self) -> bool:
        return all(phase in self.samples for phase in self.phases)

    def check(self) -> None:
        """Run the output check of every completed phase (never timed)."""
        st = self.st
        checks = {
            "setup": lambda: check_multiset(st["split"], st["pss"], st["config"]),
            "fit": lambda: check_fit(st["model"]),
            "train": lambda: check_fit(st["train_model"]),
            "reload": lambda: check_reload(st["model"], st["eval_model"]),
            "evaluate": lambda: check_evaluate(st["eval_model"], st["split"], st["report"]),
            "probe": lambda: check_probes(st["pss"], st["counts"], st["probe_model"],
                                          st["probes"]),
        }
        for phase in self.samples:
            try:
                checks[phase]()
            except CheckFailed as exc:
                self.fail(phase, str(exc))
            except Exception as exc:  # an output the check cannot even read
                self.fail(phase, f"check raised {type(exc).__name__}: {exc}")

    def outputs(self) -> dict:
        """Per-job values behind the metrics; timings use the in-job samples."""
        st = self.st
        first = {p: t[0] for p, t in self.samples.items() if p in self.phases}
        out = {}
        if self.complete:
            out["run_s"] = sum(first.values())
        if "setup" in first:
            out.update(events=st["events"], interactions=st["interactions"],
                       pss_rows=len(st["pss"]),
                       distinct_pairs=int(np.unique(st["pss"].pair_keys()).size))
        if "evaluate" in first:
            report = st["report"]
            out.update(recall_at_20=report.aggregates[K]["recall"],
                       ndcg_at_20=report.aggregates[K]["ndcg"],
                       users_evaluated=report.users_evaluated)
        out["checkpoint_bytes"] = st.get("checkpoint_bytes", 0)
        return out


# --- output checks -----------------------------------------------------------


def check_multiset(split, pss, config) -> None:
    """Multiplicity equals layer per row, against an independent layering."""
    if config.variant != "layered" or config.decay != "exponential" \
            or config.range_mode != "unit_interval":
        raise CheckFailed("multiset check covers the exponential unit-interval layered variant")
    keys = pss.pair_keys()
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    if not np.array_equal(counts[inverse], pss.layers):
        raise CheckFailed("a multiset row's multiplicity differs from its layer")

    train = split.train
    n = config.layers
    last = np.full(split.num_users, -1, dtype=np.int64)
    np.maximum.at(last, train.users, train.times)
    gaps = (last[train.users] - train.times) / float(int(config.time_unit))
    weights = np.exp(-config.rate * gaps)
    layer = np.ones(len(train), dtype=np.int64)
    for k in range(1, n):
        layer += weights >= k / n
    train_keys = train.users * np.int64(split.num_items) + train.items
    order = np.argsort(train_keys)
    if not np.array_equal(train_keys[order], uniq):
        raise CheckFailed("multiset pairs differ from the train edges")
    if not np.array_equal(layer[order], counts):
        raise CheckFailed("multiplicities differ from the independently computed layers")
    expected_rows = sum(i * int((layer == i).sum()) for i in range(1, n + 1))
    if len(pss) != expected_rows:
        raise CheckFailed(f"pss_rows {len(pss)} != sum of layer x edges {expected_rows}")


def check_fit(model) -> None:
    if not (np.isfinite(model.user_emb).all() and np.isfinite(model.item_emb).all()):
        raise CheckFailed("trained parameters are not finite")


def check_reload(model, reloaded) -> None:
    if not (np.array_equal(model.user_emb, reloaded.user_emb)
            and np.array_equal(model.item_emb, reloaded.item_emb)):
        raise CheckFailed("reloaded checkpoint differs from the best model fit returned")


def _items_by_user(log, num_users: int) -> list[np.ndarray]:
    order = np.argsort(log.users, kind="stable")
    bounds = np.searchsorted(log.users[order], np.arange(num_users + 1))
    items = log.items[order]
    return [items[bounds[u]:bounds[u + 1]] for u in range(num_users)]


def reference_metrics(model, split, users, k: int = K) -> tuple[np.ndarray, np.ndarray]:
    """Each user's Recall@k and NDCG@k by a full stable argsort per user.

    Train items are masked to -inf, so they sort last and never reach the
    top k; score ties keep ascending item order.
    """
    score_u, score_i = model.scoring_embeddings()
    train_items = _items_by_user(split.train, split.num_users)
    test_items = _items_by_user(split.test, split.num_users)
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    recalls, ndcgs = [], []
    for u in users:
        positives = np.unique(test_items[u])
        scores = score_i @ score_u[u]
        scores[train_items[u]] = -np.inf
        top = np.argsort(-scores, kind="stable")[:k]
        hit = np.isin(top, positives)
        recalls.append(hit.sum() / positives.size)
        ndcgs.append(gains[hit].sum() / gains[: min(k, positives.size)].sum())
    return np.array(recalls), np.array(ndcgs)


def check_evaluate(model, split, report) -> None:
    """Check the timed ``metrics.evaluate`` report against :func:`reference_metrics`.

    The report holds one record per test user, its aggregates are the mean
    of those records, and every record matches the reference.
    """
    test_users = np.unique(split.test.users)
    records = report.per_user
    if report.users_evaluated != test_users.size or records is None \
            or [r["user"] for r in records] != test_users.tolist():
        raise CheckFailed(f"users_evaluated {report.users_evaluated} or the per-user records "
                          f"differ from the {test_users.size} test users")
    for name in ("recall", "ndcg"):
        mean = math.fsum(r[f"{name}@{K}"] for r in records) / len(records)
        got = report.aggregates[K][name]
        if not math.isclose(got, mean, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"{name}@{K} {got!r} != mean of the per-user records {mean!r}")
    references = reference_metrics(model, split, test_users.tolist())
    for name, ref in zip(("recall", "ndcg"), references):
        for record, expected in zip(records, ref.tolist()):
            got = record[f"{name}@{K}"]
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12):
                raise CheckFailed(f"user {record['user']}: {name}@{K} {got!r} "
                                  f"!= reference {expected!r}")


def check_probes(pss, counts: dict, model, results: list) -> None:
    """One epoch updates every multiset row once; margins match a recompute."""
    keys, mult = np.unique(pss.pair_keys(), return_counts=True)
    got = np.array(sorted((u * pss.num_items + p, c) for (u, p), c in counts.items()),
                   dtype=np.int64).reshape(-1, 2)
    if not (np.array_equal(got[:, 0], keys) and np.array_equal(got[:, 1], mult)):
        raise CheckFailed("count_updates differs from the multiset's multiplicities")
    if len(results) != PROBE_PAIRS * len(PROBE_ETAS):
        raise CheckFailed(f"{len(results)} probes, expected {PROBE_PAIRS * len(PROBE_ETAS)}")
    for r in results:
        e_u = model.user_emb[r.user]
        expected = float(e_u @ (model.item_emb[r.pos_item] - model.item_emb[r.neg_item]))
        values = (r.margin_before, r.margin_after, r.grad_norm_sq, r.bound_rhs)
        if r.margin_before != expected or not all(map(math.isfinite, values)):
            raise CheckFailed(f"probe on ({r.user}, {r.pos_item}, {r.neg_item}) is wrong")


def check_report(values: dict) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise CheckFailed(f"{name} is not finite")
        if name.endswith(QUALITY) and not 0.0 <= v <= 1.0:
            raise CheckFailed(f"{name} = {v} is outside [0, 1]")


# --- one run -----------------------------------------------------------------


@dataclass
class Result:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failures: list
    env: dict
    samples: dict  # timing -> every sample behind the reported value
    notes: dict  # name -> (value, unit), printed but not part of the summary
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        }


def _median(values):
    return float(statistics.median(values))


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
            env: dict) -> Result:
    """One run of ``seconds``: untraced for end-to-end metrics, traced for per-layer ones."""
    tsv, input_sha = ensure_input(root, workload, seed)
    env = {**env, "workload": workload.name, "seed": seed, "trace": int(trace),
           "input_sha256": input_sha}
    workdir = root / ".perfbench" / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + seconds
    run = _traced_run if trace else _plain_run
    values, units, notes, samples, attempted, failures, tracer = run(
        workload, tsv, seed, workdir, deadline)
    attempted += 1
    try:
        check_report({**values, **{n: v for n, (v, _) in notes.items()}})
    except CheckFailed as exc:
        failures.append(("report", str(exc)))
    metrics_ = {n: (values[n], units[n]) for n in units if n in values}
    return Result(metrics_, attempted, failures, env, samples, notes, tracer)


def _plain_run(workload, tsv, seed, workdir, deadline):
    """One job, then re-timing rounds back to back until the deadline.

    Every round times ``ROUND_REPEATS`` set-up passes, a
    ``workload.round_epochs``-epoch fit, as many test evaluations and, where
    present, as many probe phases, so each phase's samples spread over the
    whole run. A round starts only if the longest one so far still ends
    before the deadline; the first always runs.

    The host's speed drifts both ways in stretches of seconds, so every
    timing covers all of the run's samples of its phase and none of them
    moves when a change leaves room for more rounds. ``setup_s`` is the
    median set-up pass. ``train_pairs_per_s`` divides the pairs trained by
    every ``training.fit`` of the run (the job's, with its validation passes
    and checkpoint writes, and the rounds') by their seconds;
    ``eval_users_per_s`` divides the users of every test evaluation by their
    seconds. ``run_s`` is the job with each phase at its mean over the run:
    set-up, the job's pairs at ``train_pairs_per_s``, the job's reload,
    evaluation and probe phase.
    """
    gc.collect()
    job = Job(workload, tsv, seed, workdir)
    job.run()
    # the peak of one job, before anything else adds to it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job.check()
    longest = 0.0
    while job.complete and not job.failures:
        t0 = time.perf_counter()
        if longest and t0 + longest > deadline:
            break
        job.retime_round()
        longest = max(longest, time.perf_counter() - t0)
    job.check()

    times = job.samples
    samples = {f"{phase}_s": t for phase, t in times.items()}
    values, notes = {}, {}
    if job.complete:
        out = job.outputs()
        mean = {phase: statistics.fmean(t) for phase, t in times.items()}
        # every fit trains full passes over the multiset (epoch_mode full_pass)
        rounds = times.get("train", [])
        epochs = [workload.config["epochs"]] + [workload.round_epochs] * len(rounds)
        fit_s = times["fit"][:1] + rounds
        rate = out["pss_rows"] * sum(epochs) / sum(fit_s)
        values["run_s"] = (mean["setup"] + out["pss_rows"] * epochs[0] / rate
                           + sum(times[p][0] for p in ("reload",) if p in times)
                           + mean["evaluate"] + mean.get("probe", 0.0))
        values["setup_s"] = _median(times["setup"])
        values["train_pairs_per_s"] = rate
        values["eval_users_per_s"] = out["users_evaluated"] / mean["evaluate"]
        values["peak_rss_mb"] = peak_rss_mb
        notes = {q: (out[q], "ratio") for q in QUALITY}
        if "probe" in mean:
            notes["probe_s"] = (mean["probe"], "s")
    return (values, END_TO_END_UNITS, notes, samples, job.attempted, list(job.failures),
            None)


def _traced_run(workload, tsv, seed, workdir, deadline):
    """Pairs of one untraced and one traced job until another pair would pass the deadline.

    The traced jobs give the per-layer metrics; the medians of the two
    kinds' ``run_s`` give the tracing overhead. At least one pair runs.
    """
    tracer = Tracer()
    plain: list[Job] = []
    traced: list[Job] = []
    attempted = 0
    failures: list = []
    while not failures:
        t0 = time.perf_counter()
        for jobs in (plain, traced):
            gc.collect()  # every job starts from the same heap, not the last job's garbage
            job = Job(workload, tsv, seed, workdir)
            if jobs is plain:
                job.run()
            else:
                tracer.run_id = len(traced)
                with tracer.installed(trace_targets()), tracer.span("job"):
                    job.run()
            jobs.append(job)
            job.check()
            attempted += job.attempted
            failures += job.failures
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    run_s = [o["run_s"] for o in (j.outputs() for j in plain) if "run_s" in o]
    values, units = _per_layer(workload, run_s, traced, tracer, failures)
    return values, units, {}, {"run_s": run_s}, attempted, failures, tracer


def _per_layer(workload, plain_run_s, traced, tracer, failures) -> tuple[dict, dict]:
    failures += [("trace", error) for error in tree_errors(tracer.spans)]
    table = summarize(tracer.spans)
    runs = range(len(traced))
    for name in workload.expected_spans:
        calls = table.get(name, {}).get("calls", {})
        if any(calls.get(r, 0) == 0 for r in runs):
            failures.append(("trace", f"span {name} recorded no call on {workload.name}"))
    for name, entry in table.items():
        if any(s < 0 for s in entry["self_s"].values()):
            failures.append(("trace", f"span {name} has negative self time"))

    values, units = {}, {}
    for name, stats in SPAN_STATS.items():
        entry = table.get(name)
        for stat in stats:
            if entry is None:
                value = 0.0
            elif stat in ("s", "self_s", "calls"):
                value = _median([entry[stat].get(r, 0) for r in runs])
            else:
                value = percentile_ms(entry["durations"], float(stat[len("ms_p"):]))
            values[f"{name}.{stat}"] = value
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
    outputs = [j.outputs() for j in traced]
    for name, unit in OUTPUT_METRICS.items():
        key = name.split(".", 1)[1]
        if key in outputs[0]:
            values[name] = float(outputs[0][key])
        units[name] = unit
    traced_run_s = [o["run_s"] for o in outputs if "run_s" in o]
    if plain_run_s and traced_run_s:
        values["trace.overhead_frac"] = _median(traced_run_s) / _median(plain_run_s) - 1.0
    units["trace.overhead_frac"] = "ratio"
    return values, units


# --- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, nproc: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "driftrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def write_record(root: Path, result: Result) -> Path:
    """Result record (metrics plus environment) and, when traced, the spans."""
    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    env = result.env
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    record = {**result.summary(), "failures": result.failures, "samples": result.samples,
              "environment": env}
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if result.tracer is not None:
        result.tracer.write_jsonl(out / f"{stem}.spans.jsonl")
    return path
