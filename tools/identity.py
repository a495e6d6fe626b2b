"""Byte-identity check of the CLI's outputs against another revision.

    python tools/identity.py --against <rev> [--users N] [--items N]
                             [--events N] [--epochs N]

Extracts ``src/`` of <rev> with ``git archive`` into a temporary directory
(the repository is only read) and runs the same command matrix once on that
tree and once on the working tree. Each tree runs in its own process, which
imports that tree's ``src/`` and calls ``driftrec.cli.main`` in-process:

- ``gen-synth``, whose log every later command reads, so each tree trains
  on its own generator's output;
- ``split``;
- ``build-pss`` for every variant;
- for mf and lightgcn x rns/pns/dns/dns-mn x layered/weighted_bpr: ``run``
  with seeds 0 and 1, ``train`` with ``--checkpoint-out`` and
  ``--metrics-out``, and ``eval --per-user-out`` of that checkpoint;
- for mf and lightgcn: ``eval --part validation --csv-out`` of the
  rns/layered checkpoint;
- for mf and lightgcn: ``run`` and ``train`` with ``--optimizer sgd``;
- one ``run`` with ``--epoch-mode pi_sample``;
- ``probe`` with the identity and the adam preconditioner, and with the
  adam preconditioner under a config file that trains with sgd;
- one ``sweep``, including a setting that fails;
- ``--help`` of the top level and of each subcommand.

Every output file, and each command's exit code, stdout and stderr, is
compared byte for byte; only the values of ``out_dir`` and ``wall_ms`` keys
are masked. Prints one JSON summary (files compared, files that differ and
the first differing line of each) and exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MASKED = re.compile(rb'("(?:out_dir|wall_ms)": )("(?:[^"\\]|\\.)*"|[^,}\s]+)')
# a config file that trains with sgd, written by the worker before the matrix runs
SGD_CONFIG = "probe-adam-sgd-config/sgd.yaml"


def matrix(users: int, items: int, events: int, epochs: int) -> list[tuple[str, list[str]]]:
    """(cell, argv) of every command in run order; output paths are relative."""
    data = "gen-synth/events.tsv"
    train = ["--data", data, "--epochs", str(epochs), "--eval-every", "1", "--d", "8",
             "--lr", "0.02", "--batch-size", "256", "--layers", "2", "--ks", "5,10",
             "--pool", "5", "--m", "2", "--n", "5"]
    cells = [
        ("gen-synth", ["gen-synth", "--users", str(users), "--items", str(items),
                       "--events", str(events), "--seed", "13", "--out", data]),
        ("split", ["split", "--data", data, "--out", "split/manifest.jsonl"]),
    ]
    for variant in ("layered", "baseline", "weighted_bpr", "recent_k"):
        cells.append((f"build-pss-{variant}", [
            "build-pss", "--data", data, "--variant", variant, "--layers", "2",
            "--out", f"build-pss-{variant}/pss.jsonl",
        ]))
    for backbone, sampler, variant in itertools.product(
        ("mf", "lightgcn"), ("rns", "pns", "dns", "dns-mn"), ("layered", "weighted_bpr")
    ):
        name = f"{backbone}-{sampler}-{variant}"
        flags = [*train, "--backbone", backbone, "--sampler", sampler, "--variant", variant]
        cells += [
            (f"run-{name}", ["run", *flags, "--seeds", "0,1", "--out-dir", f"run-{name}/out"]),
            (f"train-{name}", ["train", *flags, "--checkpoint-out", f"train-{name}/model.ckpt",
                               "--metrics-out", f"train-{name}/metrics.jsonl"]),
            (f"eval-{name}", ["eval", "--data", data, "--checkpoint", f"train-{name}/model.ckpt",
                              "--ks", "5,10", "--per-user-out", f"eval-{name}/per_user.jsonl"]),
        ]
    for backbone in ("mf", "lightgcn"):
        cells.append((f"eval-validation-{backbone}", [
            "eval", "--data", data, "--checkpoint", f"train-{backbone}-rns-layered/model.ckpt",
            "--ks", "5,10", "--part", "validation",
            "--csv-out", f"eval-validation-{backbone}/report.csv",
        ]))
    for backbone in ("mf", "lightgcn"):
        name = f"{backbone}-sgd"
        flags = [*train, "--backbone", backbone, "--optimizer", "sgd"]
        cells += [
            (f"run-{name}", ["run", *flags, "--out-dir", f"run-{name}/out"]),
            (f"train-{name}", ["train", *flags, "--checkpoint-out", f"train-{name}/model.ckpt",
                               "--metrics-out", f"train-{name}/metrics.jsonl"]),
        ]
    cells.append(("run-pi_sample", ["run", *train, "--epoch-mode", "pi_sample",
                                    "--out-dir", "run-pi_sample/out"]))
    for optimizer in ("identity", "adam"):
        cells.append((f"probe-{optimizer}", [
            "probe", "--data", data, "--d", "8", "--num-pairs", "20",
            "--optimizer", optimizer, "--out", f"probe-{optimizer}/probes.csv",
        ]))
    cells.append(("probe-adam-sgd-config", [
        "probe", "--data", data, "--config", SGD_CONFIG, "--d", "8", "--num-pairs", "20",
        "--optimizer", "adam", "--out", "probe-adam-sgd-config/probes.csv",
    ]))
    cells.append(("sweep", ["sweep", *train, "--param", "layers=1,3", "--param", "rate=-1,0.05",
                            "--out", "sweep/sweep.csv"]))
    cells.append(("help", ["--help"]))
    for command in ("split", "build-pss", "train", "eval", "run", "sweep", "probe", "gen-synth"):
        cells.append((f"help-{command}", [command, "--help"]))
    return cells


def worker(src: str, *shape: str) -> None:
    """Run the matrix with the driftrec under `src`, writing into the cwd;
    `shape` is users, items, events and epochs."""
    import driftrec.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"imported {cli.__file__}, not the tree under {src}")
    Path(SGD_CONFIG).parent.mkdir(parents=True, exist_ok=True)
    Path(SGD_CONFIG).write_text("optimizer: sgd\n")
    for name, argv in matrix(*map(int, shape)):
        os.makedirs(name, exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse printed help or rejected the command line
                code = exc.code
        for stream, text in (("exit_code", f"{code}\n"), ("stdout", out.getvalue()),
                             ("stderr", err.getvalue())):
            Path(name, stream).write_text(text)


def _show(line: bytes | None) -> str | None:
    return None if line is None else line[:200].decode("utf-8", "backslashreplace")


def _first_difference(a: bytes, b: bytes) -> dict:
    pairs = itertools.zip_longest(a.splitlines(), b.splitlines())
    for k, (x, y) in enumerate(pairs, start=1):
        if x != y:
            return {"line": k, "against": _show(x), "worktree": _show(y)}
    raise AssertionError("inputs are equal")


def compare(against: Path, worktree: Path) -> dict:
    """Files under both output trees, compared with out_dir/wall_ms values masked."""
    rels = sorted({p.relative_to(root) for root in (against, worktree)
                   for p in root.rglob("*") if p.is_file()})
    differences = []
    for rel in rels:
        a, b = against / rel, worktree / rel
        if not (a.is_file() and b.is_file()):
            differences.append({"file": str(rel), "only_in": "against" if a.is_file() else "worktree"})
            continue
        masked_a, masked_b = (MASKED.sub(rb"\1*", p.read_bytes()) for p in (a, b))
        if masked_a != masked_b:
            differences.append({"file": str(rel), **_first_difference(masked_a, masked_b)})
    return {"files_compared": len(rels), "files_differ": len(differences),
            "differences": differences}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--users", type=int, default=120)
    parser.add_argument("--items", type=int, default=240)
    parser.add_argument("--events", type=int, default=6000)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args(argv)

    commit = _git("rev-parse", "--verify", f"{args.against}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commit, "src"))) as tar:
            tar.extractall(tmp / "tree", filter="data")
        shape = [str(v) for v in (args.users, args.items, args.events, args.epochs)]
        runs = {}
        for side, src in (("against", tmp / "tree" / "src"), ("worktree", REPO / "src")):
            (tmp / side).mkdir()
            runs[side] = subprocess.Popen(
                [sys.executable, "-c", "import sys, identity; identity.worker(*sys.argv[1:])",
                 str(src), *shape],
                cwd=tmp / side, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "tools"), str(src)])},
            )
        errors = {side: proc.communicate()[1] for side, proc in runs.items()}
        for side, proc in runs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"{side} run failed:\n{errors[side].decode(errors='replace')}")
        summary = {"against": commit, **compare(tmp / "against", tmp / "worktree")}
    print(json.dumps(summary, indent=2))
    return 1 if summary["files_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
