"""Run one driftrec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drift-S --seed 0 --seconds 55 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it list every
metric with its unit, the error rate and the environment. The exit code is
0 only when every phase ran and every output check passed. Result records
and span files go to ``.perfbench/results/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap NumPy/BLAS threads at the usable core count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Put the checkout's ``src/`` first on the path; False if it is missing."""
    if not (ROOT / "src" / "driftrec" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    if not import_program():
        print(f"perfbench: no driftrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = harness.environment(ROOT, nproc)
    result = harness.measure(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), env)
    record = harness.write_record(ROOT, result)

    for name, (value, unit) in {**result.metrics, **result.notes}.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    error_rate = len(result.failures) / result.attempted
    print(f"{'error_rate':48s} {error_rate:16.6g} ratio "
          f"({len(result.failures)} of {result.attempted} phases)")
    for key, value in result.env.items():
        print(f"env.{key} = {value}")
    print(f"record: {record.relative_to(ROOT)}")
    for phase, message in result.failures:
        print(f"perfbench: {phase} failed: {message}", file=sys.stderr)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
