"""``import repro`` stays cheap: scipy loads only when a computation needs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The source directory the running tests imported ``repro`` from.
SRC = Path(repro.__file__).resolve().parents[1]


def run(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    loaded = run(
        "import sys, repro, repro.analysis, repro.core, repro.service, repro.sweep\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_first_use_loads_scipy():
    pytest.importorskip("scipy.stats")
    loaded = run(
        "import sys\n"
        "from repro._stats import normal_quantile\n"
        "normal_quantile(0.975)\n"
        "print('scipy.stats' in sys.modules)"
    )
    assert loaded == "True"
