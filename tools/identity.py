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
- ``train`` of lightgcn with dns and of mf with dns-mn at ``--batch-size
  2048`` with 50 candidates per pair (``--pool 50 --n 50``), so each batch
  is scored in several blocks of ``models.SCORE_BLOCK_BYTES``;
- ``train`` of mf and of lightgcn at ``--batch-size 64``, so 3b is below
  the number of stacked rows and the regularizer block of
  ``training.batch_gradients`` has 3b rows (the other cells' batches give
  it all ``num_users + num_items`` rows at the default shape);
- ``train`` with ``--optimizer sgd`` and with ``adam`` at ``--lr 1e200``,
  which overflows, so both end in the ``TrainingDiverged`` error record;
- one ``run`` with ``--epoch-mode pi_sample``;
- ``probe`` with the identity and the adam preconditioner, and with the
  adam preconditioner under a config file that trains with sgd;
- ``split``, ``build-pss``, ``train --checkpoint-out``, ``eval`` of that
  checkpoint and ``run --seeds 0,1``, each with no flag but ``--config``
  and its outputs: a config file with data, graph, training, sampler
  (dns-mn) and cutoff keys;
- one ``sweep``, including a setting that fails;
- ``split`` and ``build-pss --variant layered`` of a hand-made log with
  padded keys, duplicate pairs, blank lines, CRLF line ends and quoted
  fields, so the key stripping and pair dedup of ingestion are compared too;
- the same two commands with ``--format csv --skip-header`` on a CSV copy of
  that log behind a header line, so the key table is compared under both
  delimiters;
- ``split`` of a hand-made log of more than three ``data.PARSE_CHUNK``s
  with an empty key in the second chunk and a bad timestamp in the third,
  so both trees report the same first malformed record;
- ``--help`` of the top level and of each subcommand.

Every output file, and each command's exit code, stdout and stderr, is
compared byte for byte; only the values of ``out_dir`` and ``wall_ms`` keys
are masked. Python warnings are kept out of stderr, because each names a
file of its tree: a command that warns writes its distinct
``Category: message`` lines, sorted, to a ``warnings`` file. Prints one
JSON summary (files compared, files that differ and the first differing
line of each) and exits 1 if any file differs.
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
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MASKED = re.compile(rb'("(?:out_dir|wall_ms)": )("(?:[^"\\]|\\.)*"|[^,}\s]+)')
# config files written by the worker before the matrix runs: one that
# trains with sgd, and one with keys from every group of the pipeline
SGD_CONFIG = "probe-adam-sgd-config/sgd.yaml"
PIPELINE_CONFIG = "probe-adam-sgd-config/pipeline.yaml"
# the hand-made log, also written by the worker: " u1", "u1 " and "u1" are
# one user, "i\t4" is a quoted item key holding the delimiter, and (u1, i1),
# (u2, i3), (u2, i1), (u1, i2) and (u3, i2) each recur with a later timestamp
HAND_LOG = "hand-log-split/events.tsv"
HAND_LOG_LINES = (
    "u1\ti1\t100", " u1\ti2\t110", "u1 \ti1\t120", "", 'u2\t"i3"\t130',
    '"u2"\ti1\t140', "u3\t i2 \t150", "   ", 'u3\t"i\t4"\t160', "u1\ti3\t170\textra",
    "u2\ti2\t180", "u2\ti3\t 190 ", "u3\ti1\t200", 'u1\t"i\t4"\t210', "u4\ti1\t220",
    "u2\ti1\t230", "", "u3\ti3\t240", " u1 \ti2\t250", "u3\ti2\t260", 'u2\t"i\t4"\t270',
    "u1\ti5\t280", "u3\ti5\t290", "u4\ti2\t300", "u2\ti5\t310",
)
# its CSV copy behind a header line, also written by the worker: each tab
# becomes a comma, so "i,4" is the quoted item key holding the delimiter
HAND_CSV = "hand-csv-split/events.csv"
# a log of four 4096-record parse chunks and 10 more records, also written by
# the worker: record 4196 (1-based) has an empty user key, record 8292 a bad timestamp
MALFORMED_LOG = "malformed-log-split/events.tsv"
MALFORMED_LOG_RECORDS = 4 * 4096 + 10
EMPTY_KEY_AT, BAD_STAMP_AT = 4096 + 99, 2 * 4096 + 99  # 0-based


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
    # batches of 2048 with 50 candidates each span several pair_scores blocks
    for backbone, sampler in (("lightgcn", "dns"), ("mf", "dns-mn")):
        name = f"{backbone}-{sampler}-blocks"
        cells.append((f"train-{name}", [
            "train", *train, "--backbone", backbone, "--sampler", sampler,
            "--batch-size", "2048", "--pool", "50", "--n", "50",
            "--checkpoint-out", f"train-{name}/model.ckpt",
            "--metrics-out", f"train-{name}/metrics.jsonl",
        ]))
    # 3b = 192 rows below the default 120 + 240 stacked rows
    for backbone in ("mf", "lightgcn"):
        name = f"{backbone}-batch-64"
        cells.append((f"train-{name}", [
            "train", *train, "--backbone", backbone, "--batch-size", "64",
            "--checkpoint-out", f"train-{name}/model.ckpt",
            "--metrics-out", f"train-{name}/metrics.jsonl",
        ]))
    for optimizer in ("sgd", "adam"):
        cells.append((f"train-diverge-{optimizer}", [
            "train", *train, "--optimizer", optimizer, "--lr", "1e200",
        ]))
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
    config = ["--config", PIPELINE_CONFIG]
    cells += [
        ("config-split", ["split", *config, "--out", "config-split/manifest.jsonl"]),
        ("config-build-pss", ["build-pss", *config, "--out", "config-build-pss/pss.jsonl"]),
        ("config-train", ["train", *config, "--checkpoint-out", "config-train/model.ckpt"]),
        ("config-eval", ["eval", *config, "--checkpoint", "config-train/model.ckpt"]),
        ("config-run", ["run", *config, "--seeds", "0,1", "--out-dir", "config-run/out"]),
    ]
    cells.append(("sweep", ["sweep", *train, "--param", "layers=1,3", "--param", "rate=-1,0.05",
                            "--out", "sweep/sweep.csv"]))
    cells += [
        ("hand-log-split", ["split", "--data", HAND_LOG, "--out", "hand-log-split/manifest.jsonl"]),
        ("hand-log-build-pss", ["build-pss", "--data", HAND_LOG, "--variant", "layered",
                                "--layers", "2", "--out", "hand-log-build-pss/pss.jsonl"]),
        ("hand-csv-split", ["split", "--data", HAND_CSV, "--format", "csv", "--skip-header",
                            "--out", "hand-csv-split/manifest.jsonl"]),
        ("hand-csv-build-pss", ["build-pss", "--data", HAND_CSV, "--format", "csv",
                                "--skip-header", "--variant", "layered", "--layers", "2",
                                "--out", "hand-csv-build-pss/pss.jsonl"]),
        ("malformed-log-split", ["split", "--data", MALFORMED_LOG,
                                 "--out", "malformed-log-split/manifest.jsonl"]),
    ]
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
    users, items, events, epochs = map(int, shape)
    Path(SGD_CONFIG).parent.mkdir(parents=True, exist_ok=True)
    Path(SGD_CONFIG).write_text("optimizer: sgd\n")
    Path(PIPELINE_CONFIG).write_text(
        "data_path: gen-synth/events.tsv\nlayers: 2\nrate: 0.02\n"
        f"d: 8\nlr: 0.02\nbatch_size: 256\nepochs: {epochs}\neval_every: 1\n"
        "sampler: dns-mn\nm: 2\nn: 5\nks: [5, 10]\n"
    )
    csv_lines = ("user,item,timestamp", *(line.replace("\t", ",") for line in HAND_LOG_LINES))
    for path, lines in ((HAND_LOG, HAND_LOG_LINES), (HAND_CSV, csv_lines)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        ends = itertools.cycle(("\r\n", "\n", "\n"))
        Path(path).write_bytes("".join(line + end for line, end in zip(lines, ends))
                          .encode("utf-8"))
    Path(MALFORMED_LOG).parent.mkdir(parents=True, exist_ok=True)
    records = [f"u{k % 97}\ti{k % 89}\t{1000 + k}\n" for k in range(MALFORMED_LOG_RECORDS)]
    records[EMPTY_KEY_AT] = f" \ti1\t{1000 + EMPTY_KEY_AT}\n"
    records[BAD_STAMP_AT] = f"u1\ti1\t{1000 + BAD_STAMP_AT}.5\n"
    Path(MALFORMED_LOG).write_text("".join(records))
    for name, argv in matrix(users, items, events, epochs):
        os.makedirs(name, exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse printed help or rejected the command line
                code = exc.code
        if caught:
            Path(name, "warnings").write_text(
                "".join(sorted({f"{w.category.__name__}: {w.message}\n" for w in caught})))
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
