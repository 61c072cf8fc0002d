"""The demo scripts run to completion against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 05_linear_scaling.py is left out: it times carves up to n = 10^5, which
# acceptance criterion 8 already measures.
DEMOS = [
    "01_rotation_systems_and_faces.py",
    "02_chamber_carving_walkthrough.py",
    "03_exact_oracle.py",
    "04_fragments_and_counterexamples.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
