"""Wall time of each pipeline stage at one input shape, as a JSON record.

    python benchmarks/stages.py --shape S --out benchmarks/BENCH_<n>.json
    python benchmarks/stages.py --shape tiny

Every workload of the shape runs three untraced and three traced jobs
(one of each at tiny), alternately, on the input of seed 0. A job is perfbench's ``harness.Job`` (parse, build the
log, split, positives, fit, test evaluation, and the workload's checkpoint
reload and probe phase), and its output checks run after it. A traced job
runs under perfbench's ``spans.Tracer`` over ``harness.trace_targets()``,
so this script adds no timer of its own and ``perfbench/`` stays as it is.

Shapes:

- ``S``: perfbench's two workloads on its S input (500 users, 1000 items,
  40k events);
- ``L``: MF, layered n=3, d 32, batch 2048 on 20k users, 20k items and 1M
  events: the set-up stages, one epoch and the test evaluation;
- ``tiny``: perfbench's two workloads on its tiny input with two epochs, as
  ``perfbench/smoke.py`` runs them.

For each workload the record gives:

- ``stages``: per span name, the median over traced jobs of its total
  seconds and of its call count;
- ``per_epoch_s``: per training epoch, the seconds of negative sampling,
  gradients and the optimizer step called directly by ``train_epoch``, the
  epoch's own remaining time (shuffle, batch slicing, finiteness checks)
  and the whole epoch, each the median over traced jobs;
- ``run_s``: the median end-to-end job time of the untraced jobs, and
  ``trace_overhead_frac``, the traced jobs' median over it, minus one.

Each shape's entry holds its environment: git revision, a hash of
``src/driftrec``, Python, NumPy and SciPy versions, usable cores and CPU
model. Without ``--out`` the record is printed; with it, the shape's entry
replaces the one in that file and the other shapes' entries are kept.
Compare two records only on the same CPU model; otherwise rerun the parent.
The exit code is 1 when any job failed a phase or an output check.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: BLAS cap and program import)

# record key -> span of each stage train_epoch calls directly, timed per epoch
EPOCH_STAGES = {
    "sampling": "samplers.NegativeSampler.sample_batch",
    "gradients": "training.batch_gradients",
    "optimizer_step": "training.AdamState.step",
}
EPOCH_SPAN = "training.train_epoch"
RUNS = {"S": 3, "L": 3, "tiny": 1}  # untraced and traced jobs per workload
SEED = 0
L_SHAPE = dict(num_users=20_000, num_items=20_000, num_events=1_000_000, drift_strength=0.9)
L_CONFIG = dict(variant="layered", layers=3, rate=0.01, backbone="mf", sampler="rns", d=32,
                lr=0.01, batch_size=2048, epochs=1, eval_every=2, ks=(20,))


def shape_workloads(shape: str) -> list:
    """The workloads run at `shape`, as perfbench ``Workload``s."""
    from workloads import SHAPES, WORKLOADS, Workload

    if shape == "S":
        return list(WORKLOADS.values())
    if shape == "tiny":
        import smoke

        return [smoke.tiny(w) for w in WORKLOADS.values()]
    SHAPES.setdefault("L", L_SHAPE)  # so harness.ensure_input caches the L log like the others
    return [Workload(name="mf-layered-L", shape="L", config=L_CONFIG)]


def _median(values) -> float:
    return float(statistics.median(values))


def per_epoch(spans: list, runs: int) -> dict:
    """Median over traced runs of each epoch stage's seconds per epoch."""
    from spans import END, NAME, PARENT, RUN_ID, START, self_times

    stage_of = {span: stage for stage, span in EPOCH_STAGES.items()}
    totals = [dict.fromkeys([*EPOCH_STAGES, "other", "epoch"], 0.0) for _ in range(runs)]
    epochs = [0] * runs
    for span, own in zip(spans, self_times(spans)):
        run_total = totals[span[RUN_ID]]
        if span[NAME] == EPOCH_SPAN:
            epochs[span[RUN_ID]] += 1
            run_total["epoch"] += span[END] - span[START]
            run_total["other"] += own
        elif span[NAME] in stage_of and span[PARENT] is not None \
                and spans[span[PARENT]][NAME] == EPOCH_SPAN:
            run_total[stage_of[span[NAME]]] += span[END] - span[START]
    return {name: _median([t[name] / n for t, n in zip(totals, epochs) if n])
            for name in totals[0]} if any(epochs) else {}


def measure_workload(workload, runs: int) -> dict:
    """Medians over `runs` untraced and `runs` traced jobs of one workload, alternating."""
    import harness
    from spans import Tracer, summarize

    tsv, input_sha = harness.ensure_input(ROOT, workload, SEED)
    workdir = ROOT / ".perfbench" / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    plain, traced, failures = [], [], []
    for i in range(runs):
        for jobs in (plain, traced):
            gc.collect()
            job = harness.Job(workload, tsv, SEED, workdir)
            if jobs is plain:
                job.run()
            else:
                tracer.run_id = i
                with tracer.installed(harness.trace_targets()), tracer.span("job"):
                    job.run()
            job.check()
            jobs.append(job)
            failures += [[f"{'traced' if jobs is traced else 'untraced'} job {i}", phase, msg]
                         for phase, msg in job.failures]
    run_s = [j.outputs()["run_s"] for j in plain if j.complete]
    traced_run_s = [j.outputs()["run_s"] for j in traced if j.complete]
    table = summarize(tracer.spans)
    stages = {
        name: {"s": _median([entry["s"].get(r, 0.0) for r in range(runs)]),
               "calls": _median([entry["calls"].get(r, 0) for r in range(runs)])}
        for name, entry in sorted(table.items()) if name != "job"
    }
    return {
        "config": workload.config,
        "input_sha256": input_sha,
        "runs": runs,
        "run_s": _median(run_s) if run_s else None,
        "run_s_samples": run_s,
        "trace_overhead_frac": (_median(traced_run_s) / _median(run_s) - 1.0
                                if run_s and traced_run_s else None),
        "per_epoch_s": per_epoch(tracer.spans, runs),
        "stages": stages,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", required=True, choices=tuple(RUNS))
    parser.add_argument("--out", type=Path, help="JSON record to write the shape's entry to")
    args = parser.parse_args(argv)

    nproc = run.cap_blas_threads()
    if not run.import_program():
        print(f"stages: no driftrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    from workloads import SHAPES

    workloads = shape_workloads(args.shape)
    entry = {
        "environment": harness.environment(ROOT, nproc),
        "input": {**SHAPES[workloads[0].shape], "seed": SEED},
        "workloads": {w.name: measure_workload(w, RUNS[args.shape]) for w in workloads},
    }
    record = {"shapes": {}}
    if args.out is not None and args.out.is_file():
        record = json.loads(args.out.read_text())
    record["shapes"][args.shape] = entry
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
    failed = [f for w in entry["workloads"].values() for f in w["failures"]]
    for where, phase, message in failed:
        print(f"stages: {where}: {phase} failed: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
