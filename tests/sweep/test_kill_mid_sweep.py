"""Kill a sweep mid-run with SIGKILL; resume must pick up the journal.

This is the acceptance test for crash-safe checkpointing: a real CLI
process (``python -m repro sweep``) is hard-killed while shards are
streaming into its journal, then the same grid is resumed.  Every
journalled shard's cells must be restored without recomputation (asserted through
the ``sweep.cells.skipped`` counter) and the final results must be
bit-identical to a run that was never interrupted.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import Instrumentation
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, resume_sweep, run_sweep
from repro.trial.storage import load_journal_entries

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Large enough that the process is reliably mid-run when killed: the
#: adaptive-dynamics cells stream chunk by chunk, stretching the window.
GRID = ScenarioGrid(
    name="kill",
    populations=("routine",),
    num_cases=400,
    systems=("unaided", "assisted"),
    biases=("none", "mild", "strong"),
    dynamics=("none", "adaptive"),
    operating_points=(0.0,),
    replicates=100,
)
SEED = 23
SHARD_SIZE = 8


def _journalled_cells(journal: Path) -> int:
    try:
        text = journal.read_text()
    except OSError:
        return 0
    count = 0
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # torn final line mid-append
        if entry.get("kind") == "shard":
            count += len(entry["rows"])
    return count


def test_sigkill_mid_sweep_then_resume_recomputes_nothing(tmp_path):
    grid_file = tmp_path / "grid.json"
    GRID.to_file(grid_file)
    journal = tmp_path / "sweep.jsonl"

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--grid",
            str(grid_file),
            "--seed",
            str(SEED),
            "--shard-size",
            str(SHARD_SIZE),
            "--journal",
            str(journal),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Wait until at least two shards have been checkpointed, then
        # kill without any chance to clean up.
        deadline = time.monotonic() + 120
        while _journalled_cells(journal) < 2 * SHARD_SIZE:
            if process.poll() is not None:
                pytest.fail(
                    "sweep process exited before it could be killed; "
                    "grid too small for this environment"
                )
            if time.monotonic() > deadline:
                pytest.fail("journal never reached two shards")
            time.sleep(0.01)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    assert process.returncode != 0

    journalled = sum(
        len(e["rows"]) for e in load_journal_entries(journal) if e.get("kind") == "shard"
    )
    assert journalled >= 2 * SHARD_SIZE

    classifier = SubtletyClassifier()
    obs = Instrumentation(name="test")
    resumed = resume_sweep(
        GRID,
        seed=SEED,
        classifier=classifier,
        shard_size=SHARD_SIZE,
        journal=journal,
        obs=obs,
    )
    assert resumed.complete

    # Zero recomputed cells: everything the killed process journalled
    # was restored, not re-executed.
    assert obs.metrics.counter("sweep.cells.skipped").value == journalled
    assert resumed.skipped == journalled
    assert resumed.executed == len(GRID) - journalled

    uninterrupted = run_sweep(
        GRID, seed=SEED, classifier=classifier, shard_size=SHARD_SIZE
    )
    assert resumed.evaluations() == uninterrupted.evaluations()
