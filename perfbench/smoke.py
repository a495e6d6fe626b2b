"""Fast self-test of the benchmark harness on the tiny input shape.

    python3 perfbench/smoke.py

Every workload's job runs on the tiny shape with two epochs. The test
checks that an untraced run reports exactly the end-to-end metrics
BENCHMARK.json lists, with their units, and passes every output check;
that a traced run reports every per-layer metric with its unit and a
well-formed span tree; that a deliberately corrupted reference value makes
the error rate nonzero; and that a span with no calls fails the traced run.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run


def tiny(workload):
    """The workload's job on the tiny shape with two epochs, one epoch per re-timing round."""
    config = {**workload.config, "epochs": 2, "eval_every": 1}
    return replace(workload, shape="tiny", config=config, round_epochs=1)


def with_patch(owner, attr, value, fn):
    """``fn()`` with ``owner.attr`` replaced by ``value``."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        return fn()
    finally:
        setattr(owner, attr, original)


def main() -> int:
    nproc = run.cap_blas_threads()
    if not run.import_program():
        print("smoke: no driftrec sources under src/", file=sys.stderr)
        return 2
    import harness
    from spans import tree_errors
    from workloads import WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    env = harness.environment(run.ROOT, nproc)
    problems: list[str] = []
    reference = harness.reference_metrics

    def shifted(*args, **kwargs):  # reference recalls that are off by 0.5
        recall, ndcg = reference(*args, **kwargs)
        return recall + 0.5, ndcg

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json names the harness's workloads")
    for name, workload in WORKLOADS.items():
        small = tiny(workload)

        plain = harness.measure(run.ROOT, small, 0, 0, False, env)
        expect(plain.correct, f"{name}: untraced run passes its checks {plain.failures}")
        units = {n: u for n, (_, u) in plain.metrics.items()}
        expect(units == end_to_end, f"{name}: every end-to-end metric present with its unit")
        expect(len(plain.samples.get("train_s", [])) == 1,
               f"{name}: the first re-timing round runs even past the deadline")

        traced = harness.measure(run.ROOT, small, 0, 0, True, env)
        expect(traced.correct, f"{name}: traced run passes its checks {traced.failures}")
        units = {n: u for n, (_, u) in traced.metrics.items()}
        expect(units == per_layer, f"{name}: every per-layer metric present with its unit "
                                   f"{sorted(set(per_layer) ^ set(units))}")
        errors = tree_errors(traced.tracer.spans)
        expect(not errors, f"{name}: span tree well formed {errors[:3]}")

        corrupted = with_patch(harness, "reference_metrics", shifted,
                               lambda: harness.measure(run.ROOT, small, 0, 0, False, env))
        summary = corrupted.summary()
        expect(summary["failed"] > 0 and not summary["correct"]
               and ("evaluate" in {phase for phase, _ in corrupted.failures}),
               f"{name}: a corrupted reference value gives a nonzero error rate")

    # a renamed callable must not read as a free layer
    targets = harness.trace_targets
    missing = with_patch(
        harness, "trace_targets",
        lambda: [t for t in targets() if t[2] != "models.propagate"],
        lambda: harness.measure(run.ROOT, tiny(WORKLOADS["lightgcn-dns-S"]), 0, 0, True, env))
    expect(any(p == "trace" and "models.propagate" in m for p, m in missing.failures),
           "a span with no calls fails the traced run")

    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
