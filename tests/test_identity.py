"""tools/identity.py: the CLI's outputs on a tiny log are byte-identical to HEAD's."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_head():
    if shutil.which("git") is None or subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
    ).returncode:
        pytest.skip("needs a git checkout with a commit")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--against", "HEAD", "--users", "25", "--items", "40",
         "--events", "900", "--epochs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["files_differ"] == 0 and summary["differences"] == []
    # each command leaves exit code, stdout and stderr, and most write files too
    assert summary["files_compared"] > 3 * len(load_tool().matrix(25, 40, 900, 2))


def test_compare_masks_only_out_dir_and_wall_ms(tmp_path):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    for root, wall_ms, out_dir in ((a, 1.5, "x"), (b, 72.25, "y/z")):
        (root / "cell").mkdir(parents=True)
        (root / "cell" / "metrics.jsonl").write_text(
            json.dumps({"loss": 0.5, "wall_ms": wall_ms}) + "\n"
            + json.dumps({"loss": 0.25, "wall_ms": wall_ms}) + "\n")
        (root / "cell" / "config.json").write_text(
            json.dumps({"out_dir": out_dir, "seed": 0}, indent=2))
    assert tool.compare(a, b) == {"files_compared": 2, "files_differ": 0, "differences": []}

    (b / "cell" / "metrics.jsonl").write_text(
        '{"loss": 0.5, "wall_ms": 3}\n{"loss": 0.25000000000000006, "wall_ms": 3}\n')
    (b / "cell" / "stderr").write_text("")
    summary = tool.compare(a, b)
    assert summary["files_differ"] == 2
    assert summary["differences"] == [
        {"file": "cell/metrics.jsonl", "line": 2, "against": '{"loss": 0.25, "wall_ms": *}',
         "worktree": '{"loss": 0.25000000000000006, "wall_ms": *}'},
        {"file": "cell/stderr", "only_in": "worktree"},
    ]
