"""Every narrative script under ``demos/`` runs to completion, and the ones
with a digest in ``golden_digests.json`` print exactly the recorded bytes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = json.loads((ROOT / "tests" / "golden_digests.json").read_text("utf-8"))["demos"]


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout_matches_golden_digest(name):
    proc = _run(ROOT / "demos" / name)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == GOLDEN[name]
