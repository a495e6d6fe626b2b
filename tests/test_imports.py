"""Import isolation: the package root re-exports nothing, so importing one
module loads only that module and what it imports itself."""

import os
import subprocess
import sys
from pathlib import Path

import driftrec

SRC = str(Path(driftrec.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports driftrec from SRC."""
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_data_module_loads_alone():
    loaded = _fresh(
        "import sys, driftrec.data\n"
        "print(*[m for m in ('driftrec.training', 'driftrec.experiment', 'scipy', 'yaml')"
        " if m in sys.modules])"
    )
    assert loaded.split() == []


def test_submodules_import_from_package_root():
    names = _fresh(
        "from driftrec import data, experiment, metrics, models, probes, samplers, synthetic,"
        " training\n"
        "print(data.parse_log.__name__, training.fit.__name__)"
    )
    assert names.split() == ["parse_log", "fit"]
